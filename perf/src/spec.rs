//! What the benchmark measures: the workloads and every metric name, with
//! unit, direction and (for end-to-end metrics) the regression bound.
//!
//! `BENCHMARK.json` at the repository root repeats these lists for the
//! driver; a unit test keeps the two in step.

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// One line: the reason this workload is in the set.
    pub why: &'static str,
    /// The `skeleton:*` span every traced call of this workload records.
    pub skeleton_span: &'static str,
}

/// The seven workloads. All run on the paper's 8 nodes x 16 threads virtual
/// cluster with the default cost model unless the line says otherwise.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "mriq",
        why: "compute-bound regular fusion, 0.3 MB on the wire: iter and the node kernel do all the work, so a runtime change must show no move here",
        skeleton_span: "skeleton:build_vec",
    },
    Workload {
        name: "tpacf",
        why: "compute-bound irregular fusion (triangular nests, concat_map, histogram collect): moves with nested-iterator and collector changes that mriq cannot see",
        skeleton_span: "skeleton:histogram",
    },
    Workload {
        name: "sgemm",
        why: "input-heavy: 2-D block slicing ships 14 MB root to nodes, so root pack and comm set the makespan - the write side of serial and cluster",
        skeleton_span: "skeleton:build_array2",
    },
    Workload {
        name: "cutcp",
        why: "result-heavy: 128 private 48^3 grids merged and 7 MB summed at root - the read side of serial, the engine merge, and the memory workload",
        skeleton_span: "skeleton:scatter_add",
    },
    Workload {
        name: "kmeans",
        why: "one scatter then 20 tiny dispatches over resident segments: per-dispatch fixed cost dominates, bytes barely matter",
        skeleton_span: "skeleton:fold_reduce",
    },
    Workload {
        name: "kmeans_crash",
        why: "kmeans under 5% drops and a crashed rank: retries, redispatch and a resident miss on every sweep, result bit-equal to the fault-free run",
        skeleton_span: "skeleton:fold_reduce",
    },
    Workload {
        name: "service",
        why: "1407 small sum jobs from 3 fair-share tenants, closed batch, one client: the only workload where scheduler and accounting cost is visible",
        skeleton_span: "skeleton:sum",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
    /// What is measured (which public call is timed or which counter read)
    /// and, for a per-layer metric, which end-to-end metric on which
    /// workload it should move.
    pub what: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, what: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound, what }
}

/// The end-to-end metrics: the same five names on every workload, measured
/// with tracing off.
///
/// The three timing bounds are as wide as the contract allows because of one
/// workload: `cutcp` spends ~60% of its host time in the kernel (page faults
/// of the grids it allocates per chunk), and on the shared 2-core VM this was
/// sized on that time drifts by +-10% over minutes - ten runs on ten seeds
/// spread 0.12 there, 0.03-0.07 on the other six. Tighten them when that
/// allocation goes or the virtual clock stops reading host timers.
pub const END_TO_END: [Metric; 5] = [
    e2e(
        "setup_s",
        "s",
        0.25,
        "median of the run's repeated set-ups: input generation, Triolet::new, the sequential reference output, one validated warm-up call",
    ),
    e2e(
        "host_run_s",
        "s",
        0.25,
        "median host wall-clock of one complete call (service: submit all + drain), clock stopped before validation - what a user of the library waits",
    ),
    e2e(
        "model_makespan_s",
        "s",
        0.25,
        "median RunStats::total_s, the virtual-time makespan at 8x16 (service: JobService::now_s after drain) - the paper's Figures 4-8 quantity",
    ),
    e2e(
        "wire_bytes",
        "bytes",
        0.001,
        "bytes_out + bytes_back of one call; a count that repeats exactly for a given input shape",
    ),
    e2e("peak_rss_mb", "MiB", 0.10, "VmHWM of the benchmark process when the timed calls end"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: 0.0, what }
}

use Better::{Higher, Lower};

/// The per-layer metrics, reported by a `--trace 1` run. Layer names are the
/// crate/module names. A metric that does not apply to a workload (the
/// `core.service.*` group outside `service`, `baselines.lowlevel_*` outside
/// the four paper apps) reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // -- per workload: counters, RunStats fields, the traced pass ----------
    layer("apps.seq_run_s", "s", Lower, "median run_seq, the plain single-threaded baseline, interleaved one per 4 timed calls; kernel changes move host_run_s on mriq and tpacf about 1:1"),
    layer("core.engine.runtime_tax", "ratio", Lower, "host_run_s / apps.seq_run_s (base: naive run_seq, so sgemm's tiled kernel reads < 1; compare across commits, not workloads); must stay flat on mriq, falls on cutcp when merge/unpack improve"),
    layer("core.engine.root_s", "s", Lower, "RunStats::root_s, root busy seconds outside the distributed region; moves host_run_s, model_makespan_s and peak_rss_mb on cutcp"),
    layer("cluster.comm_s", "s", Lower, "RunStats::comm_s, modeled communication seconds; moves model_makespan_s on sgemm and cutcp"),
    layer("cluster.compute_span_s", "s", Lower, "slowest node's compute seconds; moves model_makespan_s on mriq and tpacf"),
    layer("cluster.bytes_out", "bytes", Lower, "bytes root to nodes; moves wire_bytes, host_run_s and model_makespan_s on sgemm, none on mriq"),
    layer("cluster.bytes_back", "bytes", Lower, "bytes nodes to root; moves wire_bytes and model_makespan_s on cutcp"),
    layer("cluster.messages", "count", Lower, "messages both ways in one call; moves model_makespan_s on kmeans and service"),
    layer("cluster.retries", "count", Lower, "retransmissions forced by the fault plan; non-zero only on kmeans_crash, moves its wire_bytes and model_makespan_s"),
    layer("cluster.redispatches", "count", Lower, "tasks moved to a survivor; non-zero only on kmeans_crash, moves its wire_bytes and model_makespan_s"),
    layer("cluster.env_packs", "count", Lower, "environment serialisations in one call; moves host_run_s on kmeans"),
    layer("cluster.sim_events", "count", Lower, "event-heap pops in one call; moves host_run_s on kmeans and service"),
    layer("core.dist.seg_scatters", "count", Lower, "resident segments shipped; 8 per kmeans call, moves its wire_bytes"),
    layer("core.dist.resident_hits", "count", Higher, "resident tasks run on their home rank; kmeans 160 per call"),
    layer("core.dist.resident_misses", "count", Lower, "resident tasks re-shipped to a survivor; non-zero only on kmeans_crash, moves its wire_bytes"),
    layer("serial.unpack_copied_bytes", "bytes", Lower, "result bytes memcpy'd at root; moves host_run_s and peak_rss_mb on cutcp"),
    layer("serial.unpack_aliased_bytes", "bytes", Higher, "result bytes aliased in place at root (zero-copy); sgemm's PodView results"),
    layer("obs.phase.skeleton_s", "s", Lower, "TraceData::phase_totals() 'skeleton' of one traced call, median"),
    layer("obs.phase.prep_s", "s", Lower, "phase 'prep' (slice, pack); moves host_run_s on sgemm"),
    layer("obs.phase.dispatch_s", "s", Lower, "phase 'dispatch'; moves host_run_s on kmeans and service"),
    layer("obs.phase.comm_s", "s", Lower, "phase 'comm', summed over all tracks; moves model_makespan_s on sgemm"),
    layer("obs.phase.compute_s", "s", Lower, "phase 'compute', summed over all worker tracks; moves mriq and tpacf"),
    layer("obs.phase.merge_s", "s", Lower, "phase 'merge'; moves host_run_s, model_makespan_s and peak_rss_mb on cutcp"),
    layer("obs.phase.idle_s", "s", Lower, "phase 'idle', summed over all tracks"),
    layer("obs.spans", "count", Lower, "spans recorded by one traced call"),
    layer("obs.events", "count", Lower, "point events recorded by one traced call"),
    layer("obs.traced_run_s", "s", Lower, "median host wall-clock of one call with with_trace(true)"),
    layer("obs.trace_overhead", "ratio", Lower, "obs.traced_run_s / untraced host_run_s of the same run; moves no end-to-end metric - a tracing change that moves host_run_s has leaked into the disabled path"),
    layer("obs.export_s", "s", Lower, "to_chrome_json of the run's whole trace; moves no end-to-end metric"),
    layer("bench.run_self_s", "s", Lower, "median self time of the harness's bench:run span: its duration minus what the absorbed Run::trace root-track spans cover - unattributed time"),
    layer("baselines.model_speedup", "ratio", Higher, "apps.seq_run_s / model_makespan_s at 8x16, the paper's speedup axis"),
    layer("baselines.lowlevel_makespan_s", "s", Lower, "median modeled makespan of the hand-partitioned LowLevelRt version at 8x16, 5 calls (four paper apps)"),
    layer("baselines.triolet_vs_lowlevel", "ratio", Higher, "baselines.lowlevel_makespan_s / model_makespan_s - the paper's '23-100% of C+MPI+OpenMP'"),
    layer("run.host_tail_s", "s", Lower, "host_run_s at the highest percentile with at least ten samples beyond it"),
    layer("run.tail_pct", "%", Higher, "that percentile"),
    layer("run.samples", "count", Higher, "untraced timed calls behind the two lines above"),
    layer("core.service.jobs_per_s", "1/s", Higher, "jobs / host seconds of submit + drain; host_run_s on service only"),
    layer("core.service.submit_ns_per_job", "ns", Lower, "host time of the 1407 submit calls / jobs (admission path)"),
    layer("core.service.drain_us_per_job", "us", Lower, "host time of drain() / jobs (stride pick, dispatch, snapshot accounting)"),
    layer("core.service.model_latency_p50_s", "s", Lower, "median job latency on the service clock, pooled over all jobs of a call"),
    layer("core.service.model_latency_p99_s", "s", Lower, "p99 job latency on the service clock, pooled over all jobs of a call"),
    layer("core.service.share_err_max", "ratio", Lower, "largest relative gap between a tenant's share of modeled busy time and its weight share"),
    layer("core.service.utilization", "ratio", Higher, "ServiceStats::utilization() after drain"),
    // -- isolation probes: workload-independent, median of >= 20 calls ------
    layer("iter.flat_ns_per_elem", "ns", Lower, "zip->map->filter->sum_scalar over 2^22 f64; moves host_run_s and model_makespan_s on mriq, none on sgemm, kmeans, service"),
    layer("iter.flat_vs_loop", "ratio", Lower, "that time / the hand-written loop over the same slices"),
    layer("iter.nest_ns_per_elem", "ns", Lower, "concat_map->filter->fold per inner element; moves tpacf (and <= 10% of cutcp), none on mriq"),
    layer("iter.nest_vs_loop", "ratio", Lower, "that time / the hand-written nested loop"),
    layer("domain.split128_us", "us", Lower, "Seq, Dim2 and Dim3 split_parts(128), summed; moves host_run_s on kmeans and service"),
    layer("serial.pack_gbps", "GB/s", Higher, "packed() of a 64 MiB Vec<f64> (cache-resident on this VM, not DRAM bandwidth); moves host_run_s and model_makespan_s on sgemm, none on mriq"),
    layer("serial.unpack_copy_gbps", "GB/s", Higher, "unpack_all::<Vec<f64>> of 64 MiB; moves host_run_s and model_makespan_s on cutcp"),
    layer("serial.unpack_view_ns", "ns", Lower, "unpack_all::<PodView<f64>> of 64 MiB (aliases, no copy)"),
    layer("serial.small_msg_ns", "ns", Lower, "pack + unpack of a (u64, f64, u32) tuple; moves host_run_s on kmeans and service"),
    layer("pool.chunk_overhead_ns", "ns", Lower, "parallel_for_part over 2^16 one-element chunks on nproc threads, per chunk; moves model_makespan_s on mriq and tpacf, little on host_run_s"),
    layer("pool.vtime_ns_per_task", "ns", Lower, "greedy_schedule of 4096 durations on 16 workers, per task; chunk times are replayed through it on every node task"),
    layer("cluster.dispatch_us_per_task", "us", Lower, "Cluster::run of 8 empty tasks, per task; moves host_run_s on kmeans and service, none on mriq or tpacf"),
    layer("cluster.dispatch1024_ms", "ms", Lower, "env-broadcasting fold_reduce, 16 items/rank, on a 1024x2 virtual cluster"),
    layer("cluster.sim_events_per_s", "1/s", Higher, "sim events of that dispatch / its host seconds"),
    layer("cluster.comm_roundtrip_us", "us", Lower, "Comm::create(2): 1 KiB send, recv, reply, recv on one thread - the orphan layer gets a number before its fate is decided"),
    layer("core.engine.empty_skeleton_us", "us", Lower, "rt.sum of 128 items at 8x16; moves host_run_s on kmeans and service"),
    layer("core.dist.scatter_gbps", "GB/s", Higher, "Triolet::scatter of an 8 MiB Vec<f64> at 8x16"),
    layer("core.service.step_us", "us", Lower, "one step() of a job whose body is a 1-item sequential sum; moves host_run_s on service"),
    layer("obs.span_record_ns", "ns", Lower, "TraceHandle::span on a recording handle"),
    layer("obs.disabled_span_ns", "ns", Lower, "TraceHandle::span on a disabled handle; anything above ~1 ns has leaked work into untraced runs"),
];

/// Names of the isolation probes: the tail of [`PER_LAYER`].
pub fn probe_names() -> impl Iterator<Item = &'static str> {
    let first = PER_LAYER
        .iter()
        .position(|m| m.name == "iter.flat_ns_per_elem")
        .expect("probe block present");
    PER_LAYER[first..].iter().map(|m| m.name)
}

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_obs::json::{parse, Value};

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = workload_names().collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(is_name(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25 && m.bound <= setup.bound, "{}", m.name);
        }
    }

    #[test]
    fn probe_block_is_the_tail_of_the_per_layer_list() {
        let probes: Vec<&str> = probe_names().collect();
        assert_eq!(probes.first(), Some(&"iter.flat_ns_per_elem"));
        assert_eq!(probes.last(), Some(&"obs.disabled_span_ns"));
        assert!(probes.iter().all(|n| !n.starts_with("run.") && !n.starts_with("apps.")));
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this file
    /// says.
    #[test]
    fn benchmark_json_repeats_these_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
            .expect("valid JSON");
        let keys: Vec<&str> =
            doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect("list").clone();
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name").as_deref(), Some(w.name));
            assert_eq!(field(j, "why").as_deref(), Some(w.why));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name").as_deref(), Some(m.name));
            assert_eq!(field(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(j, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (j, m) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name").as_deref(), Some(m.name));
            assert_eq!(field(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(j, "better").as_deref(), Some(m.better.as_str()));
        }
    }
}
