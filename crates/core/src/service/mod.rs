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
//!   submission sequence is bit-identical across runs and hosts. Only the
//!   head of each tenant's FIFO competes (every policy's key grows with
//!   `seq` within a tenant), and a job's `cost / weight` is charged to its
//!   tenant's vruntime when it is *selected*.
//! - **A job-level virtual clock, every host core.** Skeleton jobs are
//!   gang-scheduled: each runs over the whole cluster through the
//!   virtual-time walk, and its modeled makespan
//!   (`Run::stats.total_s`) advances the service clock, one job at a time.
//!   Job latency = completion vtime − submission vtime. On the host, a
//!   drain runs jobs on `available_parallelism()` workers, each with a
//!   runtime of its own, and commits them in selection order, so every
//!   record is that of a sequential drain — except the traffic of jobs
//!   that share a resident collection built outside them (below). A
//!   `wait` or `submit_blocking` on another thread waits for the drain's
//!   next commit instead of for the whole drain. Makespans are host
//!   readings, and jobs sharing the host read them slower, so modeled
//!   seconds depend on the host's core count: +0.8–1.0% on the `service`
//!   benchmark at 2 vCPUs, the only width measured.
//! - **Per-tenant accounting.** Cluster traffic is metered by snapshot
//!   deltas around each job on its worker runtime ([`TrafficSnapshot`]) and
//!   banked into [`JobService::runtime`]'s ledger at commit, so no tenant
//!   is billed for another thread's dispatch there. Busy seconds and
//!   latencies accumulate per tenant ([`TenantUsage`]), and when tracing is
//!   on every span/event of a job's timeline is tagged with
//!   `tenant`/`job` args and rebased onto the service clock, under a
//!   `service:job` umbrella span.
//!
//! Because cluster dispatch is stateless across calls — fault decisions are
//! pure hashes of `(seed, edge, tag, seq, attempt)`, and `Cluster::dispatch`
//! takes `&self` — a job's *result* is bit-identical to running it alone on
//! an identically configured runtime, whatever the interleaving or the
//! worker that ran it. The `proptest_service` suite holds the service to
//! exactly that.
//!
//! Its *traffic* is a pure function of the job too, unless the job reads a
//! `DistVec` that other jobs share, built on [`JobService::runtime`]
//! before submission. A crash redispatch moves that collection's segments
//! to a survivor when its call ends. A sequential drain pays the move once
//! (a resident miss, then hits), but two jobs running at once may both
//! plan against the dead owner and both pay it. Their values, and the
//! ledger being the sum of the reports' traffic, hold either way.

mod policy;

pub use policy::{SchedPolicy, Tenant};

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

impl QueuedJob {
    /// Run the job on `rt`, a worker runtime no other thread dispatches on,
    /// so the runtime's snapshot delta is exactly this job's traffic.
    fn run(self, rt: &Triolet) -> RanJob {
        let ledger = rt.cluster().stats();
        let before = ledger.snapshot();
        let (value, stats, trace) = (self.work)(rt);
        let report = JobReport {
            id: JobId(self.seq),
            tenant: self.tenant,
            cost: self.cost,
            submitted_s: self.submitted_s,
            started_s: 0.0,
            finished_s: 0.0,
            stats,
            traffic: ledger.snapshot().since(&before),
        };
        RanJob { done: CompletedJob { value, report }, trace }
    }
}

/// A job that has run on a host worker and waits for its turn to commit,
/// which fills in its service-clock times.
struct RanJob {
    done: CompletedJob,
    trace: TraceData,
}

struct CompletedJob {
    value: BoxedValue,
    report: JobReport,
}

#[derive(Default)]
struct ServiceState {
    now_s: f64,
    next_seq: u64,
    /// One FIFO per tenant, indexed by tenant id. Every policy's key grows
    /// with `seq` within a tenant, so only the heads compete.
    queues: Vec<VecDeque<QueuedJob>>,
    /// Jobs selected so far. The n-th selected job is the n-th to commit,
    /// so `order.len()` is the selection index whose turn it is.
    selected: usize,
    /// Jobs that finished ahead of their turn, by selection index.
    ran: BTreeMap<usize, RanJob>,
    /// A run holds the host workers.
    running: bool,
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
            self.queues.push(VecDeque::new());
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

    /// Pop the policy's next job, unless `until` jobs have been selected,
    /// and charge its tenant `cost / weight` of virtual runtime now: the
    /// next selection must see the charge before this job completes.
    fn select(&mut self, policy: &SchedPolicy, until: usize) -> Option<(usize, QueuedJob)> {
        let heads: Vec<(Tenant, u64)> = (0..)
            .zip(&self.queues)
            .filter_map(|(t, q)| Some((Tenant(t), q.front()?.seq)))
            .collect();
        if heads.is_empty() || self.selected >= until {
            return None;
        }
        let vr = &self.vruntime;
        let tenant = heads[policy.select(&heads, |t| vr[t.idx()])].0;
        let job = self.queues[tenant.idx()].pop_front()?;
        self.vruntime[tenant.idx()] += job.cost / policy.weight_of(tenant);
        self.selected += 1;
        Some((self.selected - 1, job))
    }

    /// Jobs waiting in the tenants' queues.
    fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// The long-running multi-tenant job service. See the module docs.
pub struct JobService {
    rt: Triolet,
    config: ServiceConfig,
    trace: TraceHandle,
    state: Mutex<ServiceState>,
    /// Woken at every commit and when a run ends.
    progress: Condvar,
    /// Serializes runs ([`step`](Self::step), [`drain`](Self::drain)) and
    /// keeps one runtime per host worker between them, built from `rt`'s
    /// config.
    workers: Mutex<Vec<Triolet>>,
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
        JobService {
            rt,
            config,
            trace,
            state: Mutex::default(),
            progress: Condvar::new(),
            workers: Mutex::default(),
        }
    }

    /// The service's runtime, whose ledger banks each job's traffic at
    /// commit (jobs run on worker runtimes of the same config).
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

    fn lock(&self) -> MutexGuard<'_, ServiceState> {
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
                    // A run on another thread may empty the queue before
                    // this one gets to run a job: retry either way.
                    self.advance();
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
        if st.queued() >= self.config.queue_cap {
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
        st.queues[tenant.idx()].push_back(QueuedJob { seq, tenant, cost, submitted_s: now, work });
        if self.trace.enabled() {
            self.trace.event(
                "service:admit",
                "service",
                Track::Root,
                now,
                vec![
                    ("tenant", ArgValue::U64(tenant.0 as u64)),
                    ("job", ArgValue::U64(seq)),
                    ("queued", ArgValue::U64(st.queued() as u64)),
                ],
            );
        }
        Ok(JobId(seq))
    }

    /// Run the next scheduled job to completion (None when the queue is
    /// empty): a drain of one job. During a drain on another thread, it
    /// waits for that drain to end.
    pub fn step(&self) -> Option<JobId> {
        self.run(1)
    }

    /// Run queued jobs until the queue is empty.
    pub fn drain(&self) {
        self.run(usize::MAX);
    }

    /// Run up to `limit` queued jobs on the caller and scoped threads, one
    /// per host core, and return the last one committed. Each job commits
    /// only after every job selected before it.
    fn run(&self, limit: usize) -> Option<JobId> {
        let mut runtimes = self.workers.lock().expect("service worker mutex");
        let (first, queued) = {
            let mut st = self.lock();
            st.running = true;
            (st.selected, st.queued())
        };
        let _running = Running(self);
        let workers = host_workers().min(limit).min(queued);
        if workers == 0 {
            return None;
        }
        while runtimes.len() < workers {
            runtimes.push(Triolet::new(*self.rt.cluster().config()));
        }
        let until = first.saturating_add(limit);
        let work = |rt: &Triolet| {
            let mut next = self.lock().select(&self.config.policy, until);
            while let Some((at, job)) = next {
                let ran = job.run(rt);
                let mut st = self.lock();
                let st = &mut *st;
                st.ran.insert(at, ran);
                while let Some(ran) = st.ran.remove(&st.order.len()) {
                    self.commit(st, ran);
                }
                next = st.select(&self.config.policy, until);
                self.progress.notify_all();
            }
        };
        std::thread::scope(|s| {
            for rt in &runtimes[1..workers] {
                s.spawn(|| work(rt));
            }
            work(&runtimes[0]);
        });
        let last = self.lock().order.last().copied();
        last
    }

    /// Make progress for a caller held up by the queue: while a run on
    /// another thread is active, wait for its next commit or its end;
    /// otherwise run one job. False when there was nothing to run.
    fn advance(&self) -> bool {
        let st = self.lock();
        if st.running {
            let seen = st.order.len();
            let cond = |st: &mut ServiceState| st.running && st.order.len() == seen;
            drop(self.progress.wait_while(st, cond).expect("service state mutex"));
            return true;
        }
        drop(st);
        self.step().is_some()
    }

    /// Book a job whose turn has come: its modeled makespan advances the
    /// service clock, its tenant is billed, and its traffic is banked in
    /// the service runtime's ledger. The one path every completion takes.
    fn commit(&self, st: &mut ServiceState, ran: RanJob) {
        let RanJob { mut done, trace } = ran;
        let r = &mut done.report;
        self.rt.cluster().stats().add(r.traffic);
        let duration = r.stats.total_s.max(0.0);
        let node_compute: f64 = r.stats.node_compute_s.iter().sum();
        r.started_s = st.now_s;
        r.finished_s = r.started_s + duration;
        st.now_s = r.finished_s;
        st.busy_s += duration;
        st.node_busy_s += node_compute;
        let usage = st.usage_mut(r.tenant);
        usage.completed += 1;
        usage.cost += r.cost;
        usage.busy_s += duration;
        usage.node_busy_s += node_compute;
        usage.traffic = usage.traffic.plus(&r.traffic);
        usage.latencies_s.push(r.latency_s());
        if self.trace.enabled() {
            // Rebase the job's own timeline onto the service clock and
            // stamp every record with its tenant/job attribution.
            let (tenant, job) = (ArgValue::U64(r.tenant.0 as u64), ArgValue::U64(r.id.0));
            let mut job_trace = trace;
            job_trace.shift(r.started_s);
            job_trace.tag("tenant", tenant.clone());
            job_trace.tag("job", job.clone());
            self.trace.absorb(job_trace);
            self.trace.span(
                "service:job",
                "service",
                Track::Root,
                r.started_s,
                r.finished_s,
                vec![
                    ("tenant", tenant),
                    ("job", job),
                    ("cost", ArgValue::F64(r.cost)),
                    ("policy", ArgValue::Str(self.config.policy.name().to_string())),
                ],
            );
        }
        let id = r.id;
        if st.completed.len() <= id.0 as usize {
            st.completed.resize_with(id.0 as usize + 1, || None);
        }
        st.completed[id.0 as usize] = Some(done);
        st.order.push(id);
    }

    /// Drive the service until `handle`'s job completes, then return its
    /// typed value and scheduling record.
    ///
    /// Panics if the handle's job is not queued or completed (impossible
    /// for handles obtained from this service's `submit*`).
    pub fn wait<T: Send + 'static>(&self, handle: JobHandle<T>) -> JobOutput<T> {
        let done = loop {
            if let Some(done) = self.take_completed(handle.id) {
                break done;
            }
            // A run on another thread may commit the job, and empty the
            // queue, before this one gets to run a job.
            if !self.advance() {
                break self.take_completed(handle.id).unwrap_or_else(|| {
                    panic!("job {:?} neither completed nor queued (double wait?)", handle.id)
                });
            }
        };
        let value =
            *done.value.downcast::<T>().expect("job handle type matches the submitted closure");
        JobOutput { value, report: done.report }
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
            queued: st.queued(),
        }
    }

    /// Drain the recorded service timeline (empty when the runtime was
    /// built without `with_trace(true)`).
    pub fn take_trace(&self) -> TraceData {
        self.trace.take()
    }
}

/// Ends a run, also when a job panics: clears `running` and wakes every
/// caller waiting in [`JobService::advance`].
struct Running<'a>(&'a JobService);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner).running = false;
        self.0.progress.notify_all();
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

/// Host workers a run may keep busy: one per core the host offers.
fn host_workers() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    #[cfg(test)]
    let cores = tests::WORKERS.get().unwrap_or(cores);
    cores
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use triolet_cluster::{ClusterConfig, FaultPlan};
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

    thread_local! {
        /// The host worker count this thread's runs use instead of the
        /// host's core count, when set.
        pub(super) static WORKERS: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
    }

    fn empty_job() -> impl FnOnce(&Triolet) -> Run<u64> + Send + 'static {
        |_| Run::new(0, RunStats::local(0.0))
    }

    /// The single pending queue that per-tenant FIFOs replaced, kept as the
    /// oracle: every selection scans the whole queue, and a job's charge
    /// lands on its tenant's vruntime when the job completes.
    struct Oracle {
        policy: SchedPolicy,
        cap: usize,
        pending: VecDeque<(Tenant, u64, f64)>,
        submitted: Vec<u64>,
        vruntime: Vec<f64>,
        next_seq: u64,
        order: Vec<JobId>,
    }

    impl Oracle {
        fn new(policy: SchedPolicy, cap: usize) -> Self {
            Oracle {
                policy,
                cap,
                pending: VecDeque::new(),
                submitted: Vec::new(),
                vruntime: Vec::new(),
                next_seq: 0,
                order: Vec::new(),
            }
        }

        /// `ServiceState::usage_mut`'s late-join floor.
        fn join(&mut self, tenant: Tenant) {
            let idx = tenant.idx();
            if self.submitted.len() <= idx {
                self.submitted.resize(idx + 1, 0);
            }
            if self.vruntime.len() <= idx {
                let floor = (self.submitted.iter().zip(&self.vruntime))
                    .filter(|(&n, _)| n > 0)
                    .map(|(_, &v)| v)
                    .fold(f64::INFINITY, f64::min);
                self.vruntime.resize(idx + 1, if floor.is_finite() { floor } else { 0.0 });
            }
        }

        fn submit(&mut self, tenant: Tenant, cost: f64, count_reject: bool) -> bool {
            if self.pending.len() >= self.cap {
                if count_reject {
                    self.join(tenant);
                }
                return false;
            }
            self.join(tenant);
            self.submitted[tenant.idx()] += 1;
            self.pending.push_back((tenant, self.next_seq, cost));
            self.next_seq += 1;
            true
        }

        fn step(&mut self) -> bool {
            if self.pending.is_empty() {
                return false;
            }
            let metas: Vec<(Tenant, u64)> = self.pending.iter().map(|&(t, s, _)| (t, s)).collect();
            let vr = &self.vruntime;
            let idx = self.policy.select(&metas, |t| vr.get(t.idx()).copied().unwrap_or(0.0));
            let (tenant, seq, cost) = self.pending.remove(idx).expect("selected index in range");
            // The job runs here; its tenant is charged on completion.
            self.vruntime[tenant.idx()] += cost / self.policy.weight_of(tenant);
            self.order.push(JobId(seq));
            true
        }
    }

    fn vruntime_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn tenant_queues_select_what_the_full_scan_selects(
            policy_sel in 0u64..3,
            cap in 1usize..6,
            workers in 1usize..=2,
            ops in proptest::collection::vec((0u64..4, 0u32..3, 1u64..8), 1..48),
        ) {
            let policy = match policy_sel {
                0 => SchedPolicy::Fifo,
                1 => SchedPolicy::FairShare { weights: vec![1.0, 2.0, 0.5, 3.0] },
                _ => SchedPolicy::Priority { levels: vec![1, 0, 2, 1] },
            };
            WORKERS.set(Some(workers));
            let svc = service(policy.clone(), cap);
            let mut oracle = Oracle::new(policy, cap);
            for (i, &(op, t, c)) in ops.iter().enumerate() {
                // Tenant 3 joins only in the second half of the sequence.
                let tenant = Tenant(if 2 * i >= ops.len() && t == 2 && c % 2 == 0 { 3 } else { t });
                let cost = c as f64 * 0.7;
                match op {
                    0 => {
                        let admitted = svc.submit(tenant, cost, empty_job()).is_ok();
                        proptest::prop_assert_eq!(admitted, oracle.submit(tenant, cost, true));
                    }
                    1 => {
                        svc.submit_blocking(tenant, cost, empty_job());
                        while !oracle.submit(tenant, cost, false) {
                            oracle.step();
                        }
                    }
                    2 => proptest::prop_assert_eq!(svc.step().is_some(), oracle.step()),
                    _ => {
                        svc.drain();
                        while oracle.step() {}
                    }
                }
                proptest::prop_assert_eq!(&svc.completion_order(), &oracle.order);
                proptest::prop_assert_eq!(
                    vruntime_bits(&svc.lock().vruntime),
                    vruntime_bits(&oracle.vruntime)
                );
            }
            WORKERS.set(None);
        }
    }

    #[test]
    fn selections_run_ahead_of_commits() {
        // Job 0 cannot finish until the second job selected has started, so
        // that selection happens before job 0 commits. It must already see
        // job 0's charge, and commit after it.
        WORKERS.set(Some(2));
        let svc = service(SchedPolicy::FairShare { weights: vec![1.0, 1.0] }, 8);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        svc.submit(Tenant(0), 1.0, move |_: &Triolet| {
            started_rx.recv().expect("a second job starts");
            Run::new(0u64, RunStats::local(0.0))
        })
        .expect("admitted");
        for t in [0, 1] {
            let started = started_tx.clone();
            svc.submit(Tenant(t), 1.0, move |_: &Triolet| {
                // Job 0 has stopped listening once the first signal lands.
                let _ = started.send(());
                Run::new(0u64, RunStats::local(0.0))
            })
            .expect("admitted");
        }
        drop(started_tx);
        svc.drain();
        WORKERS.set(None);
        assert_eq!(svc.completion_order(), vec![JobId(0), JobId(2), JobId(1)]);
    }

    /// Every count a job's stats carry (its seconds are host-measured).
    fn counts(s: &RunStats) -> [u64; 9] {
        [
            s.bytes_out,
            s.root_bytes_out,
            s.bytes_back,
            s.messages,
            s.retries,
            s.redispatches,
            s.resident_hits,
            s.resident_misses,
            s.unpack_copied + s.unpack_aliased,
        ]
    }

    #[test]
    fn one_worker_and_two_commit_the_same_batch() {
        let batch = |workers: usize| {
            WORKERS.set(Some(workers));
            let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2).with_trace(true));
            let policy = SchedPolicy::FairShare { weights: vec![1.0, 2.0, 4.0] };
            let svc = JobService::new(rt, ServiceConfig::new(policy).with_queue_cap(64));
            let handles: Vec<_> = (0..18u64)
                .map(|j| {
                    let n = 50 + 37 * (j % 5);
                    svc.submit(Tenant((j % 3) as u32), n as f64, sum_job(n)).expect("admitted")
                })
                .collect();
            svc.drain();
            WORKERS.set(None);
            let outs: Vec<_> = handles.into_iter().map(|h| svc.wait(h)).collect();
            (svc, outs)
        };
        let (one, one_outs) = batch(1);
        let (two, two_outs) = batch(2);
        assert_eq!(one.completion_order(), two.completion_order());
        for (a, b) in one_outs.iter().zip(&two_outs) {
            assert_eq!(a.value, b.value);
            let (ra, rb) = (&a.report, &b.report);
            assert_eq!((ra.id, ra.tenant), (rb.id, rb.tenant));
            assert_eq!(
                (ra.cost.to_bits(), ra.submitted_s.to_bits()),
                (rb.cost.to_bits(), rb.submitted_s.to_bits())
            );
            assert_eq!(ra.traffic, rb.traffic);
            assert_eq!(counts(&ra.stats), counts(&rb.stats));
        }
        for (a, b) in one.usage().iter().zip(&two.usage()) {
            assert_eq!(
                (a.submitted, a.completed, a.rejected),
                (b.submitted, b.completed, b.rejected)
            );
            assert_eq!((a.cost.to_bits(), a.traffic), (b.cost.to_bits(), b.traffic));
            assert_eq!(a.latencies_s.len(), b.latencies_s.len());
        }
        assert_eq!(vruntime_bits(&one.lock().vruntime), vruntime_bits(&two.lock().vruntime));
        let ledger = |svc: &JobService| svc.runtime().cluster().stats().snapshot();
        assert_eq!(ledger(&one), ledger(&two));
        assert_eq!(one.take_trace().canonical_lines(), two.take_trace().canonical_lines());
    }

    #[test]
    fn jobs_sharing_a_resident_collection_pay_its_move_once_or_twice() {
        // Three jobs sum one collection scattered on the service runtime,
        // whose rank 1 has crashed. One worker drains them in turn: the
        // first re-ships rank 1's segment and rehomes it, the rest hit.
        // Two workers may both plan against the dead owner.
        let batch = |workers: usize| {
            WORKERS.set(Some(workers));
            let plan = FaultPlan::seeded(7).with_crash(1).with_timeout(Duration::from_millis(1));
            let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2).with_faults(plan));
            let dv = rt.scatter((0..4096u64).collect::<Vec<_>>()).value;
            let scattered = rt.cluster().stats().snapshot();
            let svc = JobService::new(rt, ServiceConfig::new(SchedPolicy::Fifo));
            let handles: Vec<_> = (0..3)
                .map(|t| {
                    let dv = dv.clone();
                    svc.submit(Tenant(t), 1.0, move |rt: &Triolet| rt.sum(&dv)).expect("admitted")
                })
                .collect();
            svc.drain();
            WORKERS.set(None);
            let outs: Vec<_> = handles.into_iter().map(|h| svc.wait(h)).collect();
            let banked = outs.iter().fold(scattered, |acc, o| acc.plus(&o.report.traffic));
            assert_eq!(svc.runtime().cluster().stats().snapshot(), banked);
            for o in &outs {
                assert_eq!(o.value, 4096 * 4095 / 2);
                let t = &o.report.traffic;
                assert_eq!(t.resident_hits + t.resident_misses, 4, "one resident task per rank");
            }
            outs.iter().map(|o| o.report.traffic.resident_misses).collect::<Vec<_>>()
        };
        assert_eq!(batch(1), vec![1, 0, 0]);
        let misses: u64 = batch(2).iter().sum();
        assert!(
            (1..=2).contains(&misses),
            "{misses} misses: at most the two first jobs plan stale"
        );
    }
}
