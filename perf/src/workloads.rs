//! The seven workloads: input generation, the timed call, and validation
//! against the sequential reference.
//!
//! Every workload is reduced to a [`Prepared`]: closures over its generated
//! input that run one complete, validated call. The program under test
//! receives only the generated inputs; validation happens after the clock
//! has stopped.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use triolet::prelude::*;
use triolet::{JobHandle, Run, TrafficSnapshot};
use triolet_apps::{cutcp, kmeans, mriq, sgemm, tpacf};
use triolet_baselines::LowLevelRt;

/// Input sizes: `Full` is what the benchmark reports; `Quick` keeps every
/// code path and shrinks the inputs for smoke runs and unit tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Quick,
}

/// What one call of the `service` workload adds to a [`Sample`].
pub struct ServiceSample {
    pub jobs: usize,
    pub submit_s: f64,
    pub drain_s: f64,
    /// Per-job latencies on the service clock.
    pub latencies_s: Vec<f64>,
    pub share_err_max: f64,
    pub utilization: f64,
}

/// One complete call of a workload.
pub struct Sample {
    /// Untimed seconds the call spent getting ready before its clock
    /// started (`service` copies each job's input).
    pub lead_s: f64,
    /// Host wall-clock of the call, stopped before validation.
    pub host_s: f64,
    /// The call's own statistics (`service`: every job's, chained).
    pub stats: RunStats,
    /// Cluster counter deltas over the call.
    pub traffic: TrafficSnapshot,
    /// The call's recorded timeline (empty unless traced).
    pub trace: TraceData,
    /// False when the call panicked, was refused, or its output failed
    /// validation.
    pub ok: bool,
    pub service: Option<ServiceSample>,
}

impl Sample {
    pub fn wire_bytes(&self) -> u64 {
        self.stats.bytes_out + self.stats.bytes_back
    }
}

/// A workload ready to be timed.
pub struct Prepared {
    /// One complete validated call; the flag selects the traced runtime.
    pub run: Box<dyn FnMut(bool) -> Sample>,
    /// Host seconds of one plain single-threaded reference run.
    pub seq: Box<dyn Fn() -> f64>,
    /// Modeled makespan of the hand-partitioned low-level version on the
    /// same cluster shape (the four paper apps).
    pub lowlevel: Option<Box<dyn Fn() -> f64>>,
}

/// The paper's cluster: 8 nodes x 16 threads, default cost model, tree
/// topology, streamed pipeline, event core.
pub fn paper_cluster() -> ClusterConfig {
    ClusterConfig::virtual_cluster(8, 16)
}

/// The fault plan of `kmeans_crash`. Its seed is fixed: the workload seed
/// varies the points, not the schedule of drops, so counts repeat.
fn crash_plan() -> FaultPlan {
    FaultPlan::seeded(7).with_drop(0.05).with_crash(3).with_timeout(Duration::from_millis(1))
}

/// A distinct generator seed per workload from the one `--seed`.
fn derive_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt)
}

/// Time `call`, catching a panic, and validate its value after the clock
/// stops.
fn timed<O>(rt: &Triolet, call: impl FnOnce() -> Run<O>, check: impl FnOnce(&O) -> bool) -> Sample {
    let before = rt.cluster().stats().snapshot();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(call));
    let host_s = t0.elapsed().as_secs_f64();
    let traffic = rt.cluster().stats().snapshot().since(&before);
    match out {
        Ok(run) => Sample {
            lead_s: 0.0,
            host_s,
            ok: check(&run.value),
            stats: run.stats,
            traffic,
            trace: run.trace,
            service: None,
        },
        Err(_) => Sample {
            lead_s: 0.0,
            host_s,
            ok: false,
            stats: RunStats::local(0.0),
            traffic,
            trace: TraceData::default(),
            service: None,
        },
    }
}

/// A workload that is one library call over one generated input: `call` on
/// the 8x16 cluster, `seq` as the reference, `check` comparing the two.
fn app<I: 'static, O: 'static, E: 'static>(
    config: ClusterConfig,
    input: I,
    call: fn(&Triolet, &I) -> Run<O>,
    seq: fn(&I) -> E,
    check: impl Fn(&E, &O) -> bool + 'static,
    lowlevel: Option<fn(&LowLevelRt, &I) -> f64>,
) -> Prepared {
    let input = std::rc::Rc::new(input);
    let expect = seq(&input);
    let rt = Triolet::new(config);
    let rt_traced = Triolet::new(config.with_trace(true));
    let (i1, i2, i3) = (input.clone(), input.clone(), input);
    Prepared {
        run: Box::new(move |traced| {
            let rt = if traced { &rt_traced } else { &rt };
            timed(rt, || call(rt, &i1), |got| check(&expect, got))
        }),
        seq: Box::new(move || {
            let t0 = Instant::now();
            std::hint::black_box(seq(&i2));
            t0.elapsed().as_secs_f64()
        }),
        lowlevel: lowlevel.map(|f| {
            let rt = LowLevelRt::new(config);
            Box::new(move || f(&rt, &i3)) as Box<dyn Fn() -> f64>
        }),
    }
}

fn kmeans_workload(seed: u64, scale: Scale, config: ClusterConfig) -> Prepared {
    let input = kmeans_input(seed, scale);
    // Both k-means workloads must land on the fault-free centroids to the
    // bit: for `kmeans` that checks determinism, for `kmeans_crash` recovery.
    let fault_free = kmeans::run_resident(&Triolet::new(paper_cluster()), &input).value.centroids;
    app(
        config,
        input,
        kmeans::run_resident,
        kmeans::run_seq,
        move |expect, got: &kmeans::KmeansRun| {
            got.centroids == fault_free && kmeans::validate(expect, &got.centroids, 1e-9)
        },
        None,
    )
}

// -- service ----------------------------------------------------------------

const TENANTS: usize = 3;
const WEIGHTS: [f64; TENANTS] = [1.0, 2.0, 4.0];
/// Divisible by the 3-step size cycle, so every tenant sees the same mix.
const QUOTAS: [usize; TENANTS] = [201, 402, 804];
const QUEUE_CAP: usize = 2048;

fn service_config() -> ClusterConfig {
    ClusterConfig::virtual_cluster(8, 2)
}

/// The `service` input: one vector per tenant and size class (1x/2x/4x the
/// base item count), and the bits of its sum when run solo.
struct ServiceInput {
    pool: Vec<[Vec<f64>; 3]>,
    solo_bits: Vec<[u64; 3]>,
}

fn solo_sum(xs: &[f64]) -> f64 {
    Triolet::new(service_config()).sum(from_vec(xs.to_vec()).par()).value
}

fn service_input(seed: u64, scale: Scale) -> ServiceInput {
    let base = match scale {
        Scale::Full => 4096,
        Scale::Quick => 64,
    };
    let pool: Vec<[Vec<f64>; 3]> = (0..TENANTS)
        .map(|t| {
            std::array::from_fn(|class| {
                let s = derive_seed(seed, 7 + (t * 3 + class) as u64) | 1;
                (0..base << class)
                    .map(|i| ((i as u64).wrapping_mul(s) % 8191) as f64 * 0.25)
                    .collect()
            })
        })
        .collect();
    let solo_bits =
        pool.iter().map(|sizes| std::array::from_fn(|c| solo_sum(&sizes[c]).to_bits())).collect();
    ServiceInput { pool, solo_bits }
}

/// One closed batch: one client submits all 1407 jobs round-robin up front,
/// then drains. No arrival schedule.
fn service_call(input: &ServiceInput, traced: bool) -> Sample {
    let t_lead = Instant::now();
    let rt = Triolet::new(service_config().with_trace(traced));
    let policy = SchedPolicy::FairShare { weights: WEIGHTS.to_vec() };
    let svc = rt.into_service(ServiceConfig::new(policy).with_queue_cap(QUEUE_CAP));

    // The job list, with each job's own copy of its input, is built before
    // the clock starts: the service receives ready-made jobs.
    let mut jobs: Vec<(usize, usize, Vec<f64>)> = Vec::new();
    let mut submitted = [0usize; TENANTS];
    while submitted != QUOTAS {
        for t in 0..TENANTS {
            if submitted[t] < QUOTAS[t] {
                let class = submitted[t] % 3;
                submitted[t] += 1;
                jobs.push((t, class, input.pool[t][class].clone()));
            }
        }
    }
    let n_jobs = jobs.len();

    let lead_s = t_lead.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let timed = catch_unwind(AssertUnwindSafe(|| {
        let handles: Vec<(usize, usize, Option<JobHandle<f64>>)> = jobs
            .into_iter()
            .map(|(t, class, xs)| {
                let cost = xs.len() as f64;
                let h = svc
                    .submit(Tenant(t as u32), cost, move |rt: &Triolet| rt.sum(from_vec(xs).par()));
                (t, class, h.ok())
            })
            .collect();
        let submit_s = t0.elapsed().as_secs_f64();
        svc.drain();
        (handles, submit_s)
    }));
    let host_s = t0.elapsed().as_secs_f64();
    let traffic = svc.runtime().cluster().stats().snapshot();

    let Ok((handles, submit_s)) = timed else {
        return Sample {
            lead_s,
            host_s,
            ok: false,
            stats: RunStats::local(0.0),
            traffic,
            trace: TraceData::default(),
            service: None,
        };
    };

    let svc_stats = svc.service_stats();
    let mut ok = svc_stats.rejected == 0 && svc_stats.completed as usize == n_jobs;
    let mut stats: Option<RunStats> = None;
    let mut latencies_s = Vec::with_capacity(n_jobs);
    for (t, class, handle) in handles {
        let Some(handle) = handle else {
            ok = false;
            continue;
        };
        let out = svc.wait(handle);
        ok &= out.value.to_bits() == input.solo_bits[t][class];
        latencies_s.push(out.report.latency_s());
        stats = Some(match stats {
            None => out.report.stats,
            Some(s) => s.then(out.report.stats),
        });
    }
    let mut stats = stats.unwrap_or_else(|| RunStats::local(0.0));
    // Jobs run one at a time on the service clock; its reading after the
    // drain is the batch's makespan.
    stats.total_s = svc.now_s();

    let usage = svc.usage();
    let total_busy: f64 = usage.iter().map(|u| u.busy_s).sum();
    let weight_sum: f64 = WEIGHTS.iter().sum();
    let share_err_max = usage
        .iter()
        .map(|u| {
            let configured = WEIGHTS[u.tenant.idx()] / weight_sum;
            (u.busy_s / total_busy - configured).abs() / configured
        })
        .fold(0.0, f64::max);

    Sample {
        lead_s,
        host_s,
        ok,
        stats,
        traffic,
        trace: svc.take_trace(),
        service: Some(ServiceSample {
            jobs: n_jobs,
            submit_s,
            drain_s: host_s - submit_s,
            latencies_s,
            share_err_max,
            utilization: svc_stats.utilization(),
        }),
    }
}

fn service_workload(seed: u64, scale: Scale) -> Prepared {
    let input = std::rc::Rc::new(service_input(seed, scale));
    let i2 = input.clone();
    Prepared {
        run: Box::new(move |traced| service_call(&input, traced)),
        // The plain baseline of a batch of sums: add every job's vector up
        // in submission order on one thread.
        seq: Box::new(move || {
            let t0 = Instant::now();
            for (t, sizes) in i2.pool.iter().enumerate() {
                for k in 0..QUOTAS[t] {
                    std::hint::black_box(sizes[k % 3].iter().sum::<f64>());
                }
            }
            t0.elapsed().as_secs_f64()
        }),
        lowlevel: None,
    }
}

// -- inputs -----------------------------------------------------------------
//
// One generator call per workload: sizes from the scale, the generator's
// seed from `--seed`. The same seed gives the same input.

fn mriq_input(seed: u64, scale: Scale) -> mriq::MriqInput {
    let (pixels, samples) = if scale == Scale::Full { (8192, 1024) } else { (512, 128) };
    mriq::generate(pixels, samples, derive_seed(seed, 1))
}

fn tpacf_input(seed: u64, scale: Scale) -> tpacf::TpacfInput {
    let (points, random_sets) = if scale == Scale::Full { (256, 128) } else { (64, 8) };
    tpacf::generate(points, random_sets, 32, derive_seed(seed, 2))
}

fn sgemm_input(seed: u64, scale: Scale) -> sgemm::SgemmInput {
    sgemm::generate(if scale == Scale::Full { 768 } else { 96 }, derive_seed(seed, 3))
}

fn cutcp_input(seed: u64, scale: Scale) -> cutcp::CutcpInput {
    let (atoms, dim) = if scale == Scale::Full { (16_384, 48) } else { (512, 16) };
    cutcp::generate(atoms, dim, derive_seed(seed, 4))
}

fn kmeans_input(seed: u64, scale: Scale) -> kmeans::KmeansInput {
    let (points, k, sweeps) = if scale == Scale::Full { (65_536, 16, 20) } else { (2_048, 4, 5) };
    kmeans::generate(points, k, sweeps, derive_seed(seed, 5))
}

// -- the table --------------------------------------------------------------

/// Generate `name`'s input from `seed` and get it ready to run. Includes
/// the sequential reference output that every later call is checked
/// against. Panics on a name that is not in [`crate::spec::WORKLOADS`].
pub fn prepare(name: &str, seed: u64, scale: Scale) -> Prepared {
    match name {
        "mriq" => app(
            paper_cluster(),
            mriq_input(seed, scale),
            mriq::run_triolet,
            mriq::run_seq,
            |e, g| mriq::validate(e, g, 1e-4),
            Some(|rt, i| mriq::run_lowlevel(rt, i).1.total_s),
        ),
        "tpacf" => app(
            paper_cluster(),
            tpacf_input(seed, scale),
            tpacf::run_triolet,
            tpacf::run_seq,
            tpacf::validate,
            Some(|rt, i| tpacf::run_lowlevel(rt, i).1.total_s),
        ),
        "sgemm" => app(
            paper_cluster(),
            sgemm_input(seed, scale),
            sgemm::run_triolet_tiled,
            sgemm::run_seq,
            |e, g| sgemm::validate(e, g, 1e-4),
            Some(|rt, i| sgemm::run_lowlevel(rt, i).1.total_s),
        ),
        "cutcp" => app(
            paper_cluster(),
            cutcp_input(seed, scale),
            cutcp::run_triolet,
            cutcp::run_seq,
            |e, g| cutcp::validate(e, g, 1e-9),
            Some(|rt, i| cutcp::run_lowlevel(rt, i).1.total_s),
        ),
        "kmeans" => kmeans_workload(seed, scale, paper_cluster()),
        "kmeans_crash" => kmeans_workload(seed, scale, paper_cluster().with_faults(crash_plan())),
        "service" => service_workload(seed, scale),
        other => panic!("unknown workload {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn a_different_seed_gives_a_different_input_and_the_same_seed_the_same() {
        let q = Scale::Quick;
        assert_eq!(mriq_input(1, q), mriq_input(1, q));
        assert_ne!(mriq_input(1, q), mriq_input(2, q));
        assert_ne!(tpacf_input(1, q), tpacf_input(2, q));
        assert_ne!(sgemm_input(1, q), sgemm_input(2, q));
        assert_ne!(cutcp_input(1, q), cutcp_input(2, q));
        assert_eq!(kmeans_input(1, q), kmeans_input(1, q));
        assert_ne!(kmeans_input(1, q), kmeans_input(2, q));
        assert_eq!(service_input(1, q).pool, service_input(1, q).pool);
        assert_ne!(service_input(1, q).pool, service_input(2, q).pool);
    }

    /// The counts a later change may cite must repeat exactly for a seed.
    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        for w in &WORKLOADS {
            let counts = |seed| {
                let s = (prepare(w.name, seed, Scale::Quick).run)(false);
                assert!(s.ok, "{} seed {seed} failed validation", w.name);
                (s.wire_bytes(), s.traffic.messages, s.traffic.retries, s.traffic.sim_events)
            };
            assert_eq!(counts(3), counts(3), "{}", w.name);
        }
    }

    #[test]
    fn the_workloads_separate_the_layers() {
        let sample = |name| (prepare(name, 1, Scale::Quick).run)(false);
        let (plain, crash) = (sample("kmeans"), sample("kmeans_crash"));
        assert!(crash.wire_bytes() > plain.wire_bytes());
        assert!(crash.traffic.retries > 0 && crash.traffic.redispatches > 0);
        assert!(crash.traffic.resident_misses > 0);
        for w in WORKLOADS.iter().filter(|w| w.name != "kmeans_crash") {
            let s = sample(w.name);
            let t = s.traffic;
            assert_eq!((t.retries, t.redispatches, t.resident_misses), (0, 0, 0), "{}", w.name);
        }
        let svc = sample("service");
        assert_eq!(svc.service.expect("service sample").jobs, QUOTAS.iter().sum::<usize>());
    }

    #[test]
    fn every_traced_call_records_its_declared_skeleton_span() {
        for w in &WORKLOADS {
            let s = (prepare(w.name, 1, Scale::Quick).run)(true);
            assert!(s.ok, "{}", w.name);
            assert!(s.trace.count_spans(w.skeleton_span) > 0, "{}: no {}", w.name, w.skeleton_span);
            let untraced = (prepare(w.name, 1, Scale::Quick).run)(false);
            assert!(untraced.trace.is_empty(), "{}: untraced call recorded spans", w.name);
        }
    }

    #[test]
    fn a_failed_validation_is_counted_not_fatal() {
        let rt = Triolet::new(paper_cluster());
        let wrong = timed(&rt, || rt.sum(from_vec(vec![1.0f64, 2.0]).par()), |v| *v == 4.0);
        assert!(!wrong.ok);
        let panicked = timed(&rt, || -> Run<f64> { panic!("boom") }, |_| true);
        assert!(!panicked.ok && panicked.trace.is_empty());
    }
}
