//! Multi-tenant job service: admission control and fair-share scheduling
//! over one shared skeleton runtime.
//!
//! The ROADMAP's north star is a *service* shape: many tenants submitting
//! skeleton jobs against a shared simulated cluster, not one caller running
//! one skeleton at a time. [`JobService`] provides that layer:
//!
//! - **Submission queue with backpressure.** [`JobService::submit`] admits a
//!   job (a closure over the shared [`Triolet`] runtime) into a bounded
//!   queue; at saturation it rejects with [`AdmissionError::Saturated`],
//!   while [`JobService::submit_blocking`] instead runs queued work until a
//!   slot frees — the two admission disciplines of a loaded service.
//! - **Policy-driven dispatch.** The next job is chosen by a
//!   [`SchedPolicy`] value — FIFO, weighted fair share (stride scheduling
//!   over declared job costs), or strict priority. Selection is a pure
//!   function of queue contents and accumulated per-tenant virtual runtime
//!   (`f64::total_cmp`, tenant/seq tie-breaks), so the schedule of a given
//!   submission sequence is bit-identical across runs and hosts.
//! - **A job-level virtual clock.** Skeleton jobs are gang-scheduled: each
//!   runs over the whole cluster through the event-driven virtual-time
//!   core, and its modeled makespan (`Run::stats.total_s`) advances the
//!   service clock. Job latency = completion vtime − submission vtime, so
//!   queueing delay is measured on the same timeline the simulator lays.
//! - **Per-tenant accounting.** Cluster traffic is metered by snapshot
//!   deltas around each job ([`TrafficSnapshot`]), busy seconds and
//!   latencies accumulate per tenant ([`TenantUsage`]), and when tracing is
//!   on every span/event of a job's timeline is tagged with
//!   `tenant`/`job` args and rebased onto the service clock, under a
//!   `service:job` umbrella span.
//!
//! Because cluster dispatch is stateless across calls — fault decisions are
//! pure hashes of `(seed, edge, tag, seq, attempt)`, and `Cluster::dispatch`
//! takes `&self` — a job's *result* is bit-identical to running it alone on
//! an identically configured runtime, whatever the interleaving. The
//! `proptest_service` suite holds the service to exactly that.

mod policy;

pub use policy::{SchedPolicy, Tenant};

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Mutex;

use triolet_cluster::TrafficSnapshot;
use triolet_obs::{ArgValue, TraceData, TraceHandle, Track};

use crate::engine::Triolet;
use crate::report::RunStats;
use crate::run::Run;

/// Default bound on the submission queue.
pub const DEFAULT_QUEUE_CAP: usize = 256;

/// Service configuration: the scheduling policy plus the admission bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Queue bound: submissions beyond this many pending jobs are rejected
    /// (or block, via [`JobService::submit_blocking`]).
    pub queue_cap: usize,
    /// How the next job is chosen.
    pub policy: SchedPolicy,
}

impl ServiceConfig {
    /// A config with the given policy and the default queue bound.
    pub fn new(policy: SchedPolicy) -> Self {
        ServiceConfig { queue_cap: DEFAULT_QUEUE_CAP, policy }
    }

    /// Override the admission bound (clamped to at least 1).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new(SchedPolicy::Fifo)
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded queue is full: `cap` jobs are already pending.
    Saturated {
        /// The configured queue bound at rejection time.
        cap: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Saturated { cap } => {
                write!(f, "job service saturated: {cap} jobs already queued")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Identifier of an admitted job: its global submission sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Typed receipt for an admitted job; redeem with [`JobService::wait`].
#[derive(Debug)]
pub struct JobHandle<T> {
    /// The admitted job's id.
    pub id: JobId,
    _value: PhantomData<fn() -> T>,
}

/// Scheduling record of one completed job (value carried separately in
/// [`JobOutput`]). All times are service-clock seconds.
#[derive(Debug, Clone)]
pub struct JobReport {
    pub id: JobId,
    pub tenant: Tenant,
    /// The declared cost charged to the tenant's virtual runtime.
    pub cost: f64,
    pub submitted_s: f64,
    pub started_s: f64,
    pub finished_s: f64,
    /// The job's own skeleton stats (modeled makespan, traffic, ...).
    pub stats: RunStats,
    /// Cluster traffic metered across exactly this job's dispatches.
    pub traffic: TrafficSnapshot,
}

impl JobReport {
    /// Submission-to-completion seconds on the service clock.
    pub fn latency_s(&self) -> f64 {
        self.finished_s - self.submitted_s
    }

    /// Seconds the job sat in the queue before starting.
    pub fn queue_wait_s(&self) -> f64 {
        self.started_s - self.submitted_s
    }
}

/// A completed job: the typed value plus its scheduling record.
#[derive(Debug)]
pub struct JobOutput<T> {
    pub value: T,
    pub report: JobReport,
}

/// Cumulative per-tenant accounting.
#[derive(Debug, Clone)]
pub struct TenantUsage {
    pub tenant: Tenant,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// Total declared cost of completed jobs.
    pub cost: f64,
    /// Total modeled makespan seconds of completed jobs.
    pub busy_s: f64,
    /// Sum over completed jobs of their per-node compute seconds.
    pub node_busy_s: f64,
    /// Cluster traffic metered across this tenant's jobs.
    pub traffic: TrafficSnapshot,
    /// Per-job latencies, in completion order.
    pub latencies_s: Vec<f64>,
}

impl TenantUsage {
    fn new(tenant: Tenant) -> Self {
        TenantUsage {
            tenant,
            submitted: 0,
            completed: 0,
            rejected: 0,
            cost: 0.0,
            busy_s: 0.0,
            node_busy_s: 0.0,
            traffic: TrafficSnapshot::default(),
            latencies_s: Vec::new(),
        }
    }

    /// The `q`-quantile (0.0..=1.0) of this tenant's job latencies
    /// (nearest-rank on a sorted copy; 0.0 with no completed jobs).
    pub fn latency_percentile_s(&self, q: f64) -> f64 {
        percentile(&self.latencies_s, q)
    }
}

/// Nearest-rank percentile over an unsorted sample (total_cmp sort).
pub fn percentile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Service-wide aggregates.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Current service-clock time (the last completion).
    pub now_s: f64,
    /// Total modeled makespan seconds of completed jobs.
    pub busy_s: f64,
    /// Sum of per-node compute seconds across completed jobs.
    pub node_busy_s: f64,
    /// Cluster width the utilization is measured against.
    pub nodes: usize,
    pub completed: u64,
    pub rejected: u64,
    /// Jobs currently pending in the queue.
    pub queued: usize,
}

impl ServiceStats {
    /// Fraction of node-seconds spent computing: `node_busy_s /
    /// (nodes * now_s)`. The remainder is communication, root-side
    /// assembly, and stragglers — dispatch overhead the service cannot
    /// hide at job granularity.
    pub fn utilization(&self) -> f64 {
        if self.now_s <= 0.0 || self.nodes == 0 {
            0.0
        } else {
            (self.node_busy_s / (self.nodes as f64 * self.now_s)).min(1.0)
        }
    }
}

type BoxedValue = Box<dyn Any + Send>;
type BoxedWork = Box<dyn FnOnce(&Triolet) -> (BoxedValue, RunStats, TraceData) + Send>;

struct QueuedJob {
    seq: u64,
    tenant: Tenant,
    cost: f64,
    submitted_s: f64,
    work: BoxedWork,
}

struct CompletedJob {
    value: BoxedValue,
    report: JobReport,
}

#[derive(Default)]
struct ServiceState {
    now_s: f64,
    next_seq: u64,
    pending: VecDeque<QueuedJob>,
    /// Per-tenant accumulated virtual runtime (fair-share stride clock).
    vruntime: Vec<f64>,
    usage: Vec<TenantUsage>,
    completed: Vec<Option<CompletedJob>>, // indexed by seq
    order: Vec<JobId>,
    busy_s: f64,
    node_busy_s: f64,
    rejected: u64,
}

impl ServiceState {
    fn usage_mut(&mut self, tenant: Tenant) -> &mut TenantUsage {
        let idx = tenant.idx();
        while self.usage.len() <= idx {
            let t = Tenant(self.usage.len() as u32);
            self.usage.push(TenantUsage::new(t));
        }
        if self.vruntime.len() <= idx {
            // A tenant joining late starts at the floor of the active
            // tenants' clocks, not at zero — otherwise it would monopolize
            // the cluster until it caught up on virtual runtime.
            let floor = self
                .usage
                .iter()
                .filter(|u| u.submitted > 0)
                .map(|u| self.vruntime.get(u.tenant.idx()).copied().unwrap_or(0.0))
                .fold(f64::INFINITY, f64::min);
            let floor = if floor.is_finite() { floor } else { 0.0 };
            self.vruntime.resize(idx + 1, floor);
        }
        &mut self.usage[idx]
    }
}

/// The long-running multi-tenant job service. See the module docs.
pub struct JobService {
    rt: Triolet,
    config: ServiceConfig,
    trace: TraceHandle,
    state: Mutex<ServiceState>,
    /// Serializes [`step`](Self::step): one job runs at a time, so the
    /// virtual clock advances atomically with the job that moved it.
    run_lock: Mutex<()>,
}

impl JobService {
    /// Wrap a runtime in a service. Span recording follows the runtime's
    /// cluster config (`with_trace(true)`).
    pub fn new(rt: Triolet, config: ServiceConfig) -> Self {
        let trace = if rt.cluster().config().trace {
            TraceHandle::recording()
        } else {
            TraceHandle::disabled()
        };
        JobService { rt, config, trace, state: Mutex::default(), run_lock: Mutex::new(()) }
    }

    /// The shared runtime jobs execute against.
    pub fn runtime(&self) -> &Triolet {
        &self.rt
    }

    /// The active scheduling policy.
    pub fn policy(&self) -> &SchedPolicy {
        &self.config.policy
    }

    /// Current service-clock seconds.
    pub fn now_s(&self) -> f64 {
        self.lock().now_s
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ServiceState> {
        self.state.lock().expect("service state mutex")
    }

    /// Submit a job for `tenant` with a declared `cost` (the fair-share
    /// charge, in arbitrary-but-consistent units — e.g. input items).
    /// Rejects with [`AdmissionError::Saturated`] when the queue is full.
    pub fn submit<T, F>(
        &self,
        tenant: Tenant,
        cost: f64,
        work: F,
    ) -> Result<JobHandle<T>, AdmissionError>
    where
        T: Send + 'static,
        F: FnOnce(&Triolet) -> Run<T> + Send + 'static,
    {
        match self.try_enqueue(tenant, cost, box_work(work), true) {
            Ok(id) => Ok(JobHandle { id, _value: PhantomData }),
            Err((err, _work)) => Err(err),
        }
    }

    /// Submit, running queued jobs to make room when the queue is full —
    /// the blocking flavor of admission control. "Blocking" is virtual
    /// too: the caller's wait shows up as queueing delay on the service
    /// clock, not as host wall time.
    pub fn submit_blocking<T, F>(&self, tenant: Tenant, cost: f64, work: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&Triolet) -> Run<T> + Send + 'static,
    {
        let mut boxed = box_work(work);
        loop {
            // A blocking submission stalled by backpressure is not a
            // rejection: only `submit` counts those.
            match self.try_enqueue(tenant, cost, boxed, false) {
                Ok(id) => return JobHandle { id, _value: PhantomData },
                Err((_, back)) => {
                    boxed = back;
                    // Saturated with nothing running means pending work
                    // exists by definition; drain one job and retry.
                    let ran = self.step();
                    assert!(ran.is_some(), "saturated queue must have runnable jobs");
                }
            }
        }
    }

    fn try_enqueue(
        &self,
        tenant: Tenant,
        cost: f64,
        work: BoxedWork,
        count_reject: bool,
    ) -> Result<JobId, (AdmissionError, BoxedWork)> {
        let mut st = self.lock();
        if st.pending.len() >= self.config.queue_cap {
            let now = st.now_s;
            if count_reject {
                st.rejected += 1;
                st.usage_mut(tenant).rejected += 1;
            }
            if count_reject && self.trace.enabled() {
                self.trace.event(
                    "service:reject",
                    "service",
                    Track::Root,
                    now,
                    vec![
                        ("tenant", ArgValue::U64(tenant.0 as u64)),
                        ("queue", ArgValue::U64(self.config.queue_cap as u64)),
                    ],
                );
            }
            return Err((AdmissionError::Saturated { cap: self.config.queue_cap }, work));
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let now = st.now_s;
        let usage = st.usage_mut(tenant);
        usage.submitted += 1;
        st.pending.push_back(QueuedJob { seq, tenant, cost, submitted_s: now, work });
        if self.trace.enabled() {
            self.trace.event(
                "service:admit",
                "service",
                Track::Root,
                now,
                vec![
                    ("tenant", ArgValue::U64(tenant.0 as u64)),
                    ("job", ArgValue::U64(seq)),
                    ("queued", ArgValue::U64(st.pending.len() as u64)),
                ],
            );
        }
        Ok(JobId(seq))
    }

    /// Run the next scheduled job to completion (None when the queue is
    /// empty). The policy picks the job; its modeled makespan advances the
    /// service clock; its tenant is charged `cost / weight` of virtual
    /// runtime.
    pub fn step(&self) -> Option<JobId> {
        let _running = self.run_lock.lock().expect("service run mutex");
        let (job, start) = {
            let mut st = self.lock();
            if st.pending.is_empty() {
                return None;
            }
            let metas: Vec<(Tenant, u64)> = st.pending.iter().map(|j| (j.tenant, j.seq)).collect();
            let vr = &st.vruntime;
            let idx =
                self.config.policy.select(&metas, |t| vr.get(t.idx()).copied().unwrap_or(0.0));
            let job = st.pending.remove(idx).expect("selected job index in range");
            (job, st.now_s)
        };

        let before = self.rt.cluster().stats().snapshot();
        let (value, stats, mut job_trace) = (job.work)(&self.rt);
        let traffic = self.rt.cluster().stats().snapshot().since(&before);

        let duration = stats.total_s.max(0.0);
        let finish = start + duration;
        let node_compute: f64 = stats.node_compute_s.iter().sum();

        let mut st = self.lock();
        st.now_s = finish;
        st.busy_s += duration;
        st.node_busy_s += node_compute;
        let weight = self.config.policy.weight_of(job.tenant);
        st.vruntime[job.tenant.idx()] += job.cost / weight;
        let report = JobReport {
            id: JobId(job.seq),
            tenant: job.tenant,
            cost: job.cost,
            submitted_s: job.submitted_s,
            started_s: start,
            finished_s: finish,
            stats,
            traffic,
        };
        {
            let usage = st.usage_mut(job.tenant);
            usage.completed += 1;
            usage.cost += job.cost;
            usage.busy_s += duration;
            usage.node_busy_s += node_compute;
            usage.traffic = usage.traffic.plus(&traffic);
            usage.latencies_s.push(report.latency_s());
        }
        if self.trace.enabled() {
            // Rebase the job's own timeline onto the service clock and
            // stamp every record with its tenant/job attribution.
            job_trace.shift(start);
            job_trace.tag("tenant", ArgValue::U64(job.tenant.0 as u64));
            job_trace.tag("job", ArgValue::U64(job.seq));
            self.trace.absorb(job_trace);
            self.trace.span(
                "service:job",
                "service",
                Track::Root,
                start,
                finish,
                vec![
                    ("tenant", ArgValue::U64(job.tenant.0 as u64)),
                    ("job", ArgValue::U64(job.seq)),
                    ("cost", ArgValue::F64(job.cost)),
                    ("policy", ArgValue::Str(self.config.policy.name().to_string())),
                ],
            );
        }
        let seq = job.seq as usize;
        if st.completed.len() <= seq {
            st.completed.resize_with(seq + 1, || None);
        }
        st.completed[seq] = Some(CompletedJob { value, report });
        st.order.push(JobId(job.seq));
        Some(JobId(job.seq))
    }

    /// Run queued jobs until the queue is empty.
    pub fn drain(&self) {
        while self.step().is_some() {}
    }

    /// Drive the service until `handle`'s job completes, then return its
    /// typed value and scheduling record.
    ///
    /// Panics if the handle's job is not queued or completed (impossible
    /// for handles obtained from this service's `submit*`).
    pub fn wait<T: Send + 'static>(&self, handle: JobHandle<T>) -> JobOutput<T> {
        loop {
            if let Some(done) = self.take_completed(handle.id) {
                let value = *done
                    .value
                    .downcast::<T>()
                    .expect("job handle type matches the submitted closure");
                return JobOutput { value, report: done.report };
            }
            assert!(
                self.step().is_some(),
                "job {:?} neither completed nor queued (double wait?)",
                handle.id
            );
        }
    }

    fn take_completed(&self, id: JobId) -> Option<CompletedJob> {
        let mut st = self.lock();
        st.completed.get_mut(id.0 as usize).and_then(Option::take)
    }

    /// Scheduling record of a completed job, without consuming its value.
    pub fn report(&self, id: JobId) -> Option<JobReport> {
        let st = self.lock();
        st.completed.get(id.0 as usize).and_then(|c| c.as_ref()).map(|c| c.report.clone())
    }

    /// Per-tenant accounting, indexed by tenant id.
    pub fn usage(&self) -> Vec<TenantUsage> {
        self.lock().usage.clone()
    }

    /// Completion order so far (the deterministic schedule).
    pub fn completion_order(&self) -> Vec<JobId> {
        self.lock().order.clone()
    }

    /// Service-wide aggregates.
    pub fn service_stats(&self) -> ServiceStats {
        let st = self.lock();
        ServiceStats {
            now_s: st.now_s,
            busy_s: st.busy_s,
            node_busy_s: st.node_busy_s,
            nodes: self.rt.nodes(),
            completed: st.order.len() as u64,
            rejected: st.rejected,
            queued: st.pending.len(),
        }
    }

    /// Drain the recorded service timeline (empty when the runtime was
    /// built without `with_trace(true)`).
    pub fn take_trace(&self) -> TraceData {
        self.trace.take()
    }
}

fn box_work<T, F>(work: F) -> BoxedWork
where
    T: Send + 'static,
    F: FnOnce(&Triolet) -> Run<T> + Send + 'static,
{
    Box::new(move |rt: &Triolet| {
        let run = work(rt);
        (Box::new(run.value) as BoxedValue, run.stats, run.trace)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_cluster::ClusterConfig;
    use triolet_iter::{from_vec, TrioIter};

    fn service(policy: SchedPolicy, cap: usize) -> JobService {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(2, 2));
        JobService::new(rt, ServiceConfig::new(policy).with_queue_cap(cap))
    }

    fn sum_job(n: u64) -> impl FnOnce(&Triolet) -> Run<u64> + Send + 'static {
        move |rt| rt.sum(from_vec((0..n).collect::<Vec<u64>>()).par())
    }

    #[test]
    fn submit_wait_returns_typed_value_and_report() {
        let svc = service(SchedPolicy::Fifo, 8);
        let h = svc.submit(Tenant(0), 1.0, sum_job(100)).expect("admitted");
        let out = svc.wait(h);
        assert_eq!(out.value, 4950);
        assert!(out.report.finished_s > 0.0);
        assert!(out.report.latency_s() >= 0.0);
        assert!(out.report.traffic.messages > 0, "dispatch traffic metered");
    }

    #[test]
    fn saturation_rejects_then_blocking_admission_drains() {
        let svc = service(SchedPolicy::Fifo, 2);
        let h0 = svc.submit(Tenant(0), 1.0, sum_job(10)).expect("admitted");
        let _h1 = svc.submit(Tenant(1), 1.0, sum_job(10)).expect("admitted");
        let err = svc.submit(Tenant(0), 1.0, sum_job(10)).expect_err("queue full");
        assert_eq!(err, AdmissionError::Saturated { cap: 2 });
        // Blocking admission runs queued work to make room.
        let h3 = svc.submit_blocking(Tenant(1), 1.0, sum_job(10));
        assert_eq!(svc.wait(h0).value, 45);
        svc.drain();
        assert_eq!(svc.wait(h3).value, 45);
        let stats = svc.service_stats();
        assert_eq!(stats.completed, 3, "3 admitted jobs, 1 rejected");
        assert_eq!(stats.rejected, 1);
        let usage = svc.usage();
        assert_eq!(usage[0].rejected, 1);
        assert_eq!(usage[1].completed, 2);
    }

    #[test]
    fn fifo_completes_in_submission_order() {
        let svc = service(SchedPolicy::Fifo, 16);
        let ids: Vec<JobId> = (0..6)
            .map(|i| svc.submit(Tenant((i % 3) as u32), 1.0, sum_job(10 + i)).unwrap().id)
            .collect();
        svc.drain();
        assert_eq!(svc.completion_order(), ids);
    }

    #[test]
    fn priority_runs_high_levels_first() {
        let svc = service(SchedPolicy::Priority { levels: vec![0, 5] }, 16);
        let low = svc.submit(Tenant(0), 1.0, sum_job(10)).unwrap().id;
        let hi_a = svc.submit(Tenant(1), 1.0, sum_job(10)).unwrap().id;
        let hi_b = svc.submit(Tenant(1), 1.0, sum_job(10)).unwrap().id;
        svc.drain();
        assert_eq!(svc.completion_order(), vec![hi_a, hi_b, low]);
    }

    #[test]
    fn fair_share_interleaves_by_weight() {
        // Tenant 1 weighs 3x tenant 0; with unit-cost jobs the stride
        // schedule must complete 3 of tenant 1's jobs per 1 of tenant 0's.
        let svc = service(SchedPolicy::FairShare { weights: vec![1.0, 3.0] }, 64);
        for _ in 0..4 {
            svc.submit(Tenant(0), 1.0, sum_job(10)).unwrap();
        }
        for _ in 0..12 {
            svc.submit(Tenant(1), 1.0, sum_job(10)).unwrap();
        }
        svc.drain();
        let order = svc.completion_order();
        // First 4 completions: tenant 0 once (vruntime 0 tie-break by id),
        // then tenant 1 three times before tenant 0's clock is lowest again.
        let tenants: Vec<u32> = order.iter().map(|id| svc.report(*id).unwrap().tenant.0).collect();
        let t1_in_first_8 = tenants[..8].iter().filter(|&&t| t == 1).count();
        assert_eq!(t1_in_first_8, 6, "3:1 interleave expected, got {tenants:?}");
        let usage = svc.usage();
        assert_eq!(usage[0].completed, 4);
        assert_eq!(usage[1].completed, 12);
    }

    #[test]
    fn virtual_clock_advances_by_modeled_makespans() {
        let svc = service(SchedPolicy::Fifo, 8);
        let h0 = svc.submit(Tenant(0), 1.0, sum_job(1000)).unwrap();
        let h1 = svc.submit(Tenant(0), 1.0, sum_job(1000)).unwrap();
        let a = svc.wait(h0);
        let b = svc.wait(h1);
        // Job 1 starts exactly when job 0 finishes, and the clock is the
        // running sum of makespans.
        assert_eq!(b.report.started_s.to_bits(), a.report.finished_s.to_bits());
        assert!((svc.now_s() - (a.report.stats.total_s + b.report.stats.total_s)).abs() < 1e-12);
        // Queueing delay: job 1 waited for job 0's makespan.
        assert!(b.report.queue_wait_s() >= a.report.stats.total_s - 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.75), 3.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
