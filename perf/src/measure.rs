//! One measured run of one workload: the end-to-end pass (tracing off) and
//! the per-layer pass (counters, a traced pass, the isolation probes).

use std::time::Instant;

use crate::harness::{self_time, Harness};
use crate::layers;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, tail};
use crate::sys;
use crate::workloads::{prepare, Prepared, Sample, Scale};
use triolet::service::percentile;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Traced calls per per-layer run (each keeps its whole timeline in memory).
const TRACED_RUNS: usize = 5;
/// Spans of absorbed call timelines the harness keeps for the trace file
/// (one `service` call records ~285k; the first call is always kept).
const TIMELINE_SPANS_MAX: usize = 300_000;
/// One sequential reference run per this many timed calls, at most
/// [`SEQ_RUNS_MAX`].
const SEQ_EVERY: usize = 4;
const SEQ_RUNS_MAX: usize = 10;
const LOWLEVEL_RUNS: usize = 5;
/// Share of `--seconds` the per-layer pass spends on the workload itself;
/// the probes, whose repetition counts are fixed, take the rest.
const LAYER_WORKLOAD_SHARE: f64 = 0.55;
/// Timed calls of a `--quick` run.
const QUICK_ITERS: usize = 3;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// What a run reports: the contract's `correct` / `attempted` / `failed`,
/// the metrics in spec order, and the raw samples behind the timing ones.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Calls attempted and failed so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn count(&mut self, sample: Sample) -> Option<Sample> {
        self.attempted += 1;
        if sample.ok {
            Some(sample)
        } else {
            self.failed += 1;
            None
        }
    }
}

fn more(t0: Instant, seconds: f64, done: usize, scale: Scale) -> bool {
    done == 0
        || (t0.elapsed().as_secs_f64() < seconds && (scale == Scale::Full || done < QUICK_ITERS))
}

/// The end-to-end pass: repeated set-up, then timed calls for `seconds`.
pub fn end_to_end(opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    let setups = if opts.scale == Scale::Full { SETUPS } else { 1 };
    let mut setup_s = Vec::with_capacity(setups);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..setups {
        // Free the previous instance first: peak memory is one workload's.
        drop(prepared.take());
        let t0 = Instant::now();
        let mut p = prepare(&opts.workload, opts.seed, opts.scale);
        let warm = (p.run)(false);
        setup_s.push(t0.elapsed().as_secs_f64());
        tally.count(warm);
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("at least one set-up");

    let (mut host_s, mut model_s, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut calls = 0;
    while more(t0, opts.seconds, calls, opts.scale) {
        calls += 1;
        if let Some(s) = tally.count((prepared.run)(false)) {
            host_s.push(s.host_s);
            model_s.push(s.stats.total_s);
            wire.push(s.wire_bytes() as f64);
        }
    }
    let peak_rss_mb = sys::peak_rss_mib();

    let values = [median(&setup_s), median(&host_s), median(&model_s), median(&wire), peak_rss_mb];
    let names = END_TO_END.iter().map(|m| m.name);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: names.clone().zip(values).collect(),
        samples: names.zip([setup_s, host_s, model_s, wire, vec![peak_rss_mb]]).collect(),
    }
}

/// Named values collected by the per-layer pass, emitted in spec order.
#[derive(Default)]
struct Layered(Vec<(&'static str, f64)>);

impl Layered {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Every per-layer name in spec order; a name the run had no value for
    /// (a metric that does not apply to the workload) reads 0.
    fn in_spec_order(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = self.0.iter().find(|(n, _)| *n == m.name).map_or(0.0, |(_, v)| *v);
                (m.name, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }
}

/// What the rollups keep of one traced call once its timeline has moved
/// into the harness.
struct TracedRun {
    host_s: f64,
    /// `bench:run` minus what the call's own spans cover.
    self_s: f64,
    phases: Vec<(&'static str, f64)>,
    spans: usize,
    events: usize,
}

fn med_of<S>(samples: &[S], f: impl Fn(&S) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<f64>>())
}

/// Where the pass writes its chrome trace.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    sys::out_dir().join(format!("trace_{workload}.json"))
}

/// The per-layer pass: untraced calls interleaved with traced calls and
/// sequential reference runs, the low-level baseline, then the probes.
/// Writes `perf/out/trace_<workload>.json` when it ends.
pub fn per_layer(opts: &Options) -> Outcome {
    let harness = Harness::new();
    let mut tally = Tally::default();
    let wl = opts.workload.as_str();
    let args = |iter: usize| vec![("workload", wl.into()), ("iter", iter.into())];

    let mut prepared = harness.span("bench:setup", vec![("workload", wl.into())], || {
        let mut p = prepare(wl, opts.seed, opts.scale);
        tally.count((p.run)(false));
        p
    });

    let mut plain: Vec<Sample> = Vec::new();
    let mut traced: Vec<TracedRun> = Vec::new();
    let mut seq_s = Vec::new();
    let mut kept_spans = 0;
    let budget = opts.seconds * LAYER_WORKLOAD_SHARE;
    let t0 = Instant::now();
    let mut iter = 0;
    while more(t0, budget, iter, opts.scale) {
        plain.extend(tally.count((prepared.run)(false)));
        if traced.len() < TRACED_RUNS {
            let called = harness.now();
            if let Some(s) = tally.count((prepared.run)(true)) {
                let start = called + s.lead_s;
                let end = start + s.host_s;
                harness.span_at("bench:run", args(iter), start, end);
                harness.span_at("bench:validate", args(iter), end, harness.now());
                let children: Vec<(f64, f64)> =
                    s.trace.spans.iter().map(|c| (start + c.t0, start + c.t1)).collect();
                traced.push(TracedRun {
                    host_s: s.host_s,
                    self_s: self_time(start, end, &children),
                    phases: s.trace.phase_totals(),
                    spans: s.trace.spans.len(),
                    events: s.trace.events.len(),
                });
                // Rollups use every traced call; the file keeps whole
                // timelines only while they fit the span budget.
                if kept_spans == 0 || kept_spans + s.trace.spans.len() <= TIMELINE_SPANS_MAX {
                    kept_spans += s.trace.spans.len();
                    harness.absorb_at(s.trace, start);
                }
            }
        }
        if iter % SEQ_EVERY == 0 && seq_s.len() < SEQ_RUNS_MAX {
            seq_s.push(harness.span("bench:seq", args(iter), || (prepared.seq)()));
        }
        iter += 1;
    }

    let mut out = Layered::default();
    if !plain.is_empty() {
        let host: Vec<f64> = plain.iter().map(|s| s.host_s).collect();
        let host_run_s = median(&host);
        let model_s = med_of(&plain, |s| s.stats.total_s);
        let seq_run_s = median(&seq_s);
        out.set("apps.seq_run_s", seq_run_s);
        out.set("core.engine.runtime_tax", host_run_s / seq_run_s);
        out.set("core.engine.root_s", med_of(&plain, |s| s.stats.root_s));
        out.set("cluster.comm_s", med_of(&plain, |s| s.stats.comm_s));
        out.set("cluster.compute_span_s", med_of(&plain, |s| s.stats.compute_span_s()));
        out.set("cluster.bytes_out", med_of(&plain, |s| s.stats.bytes_out as f64));
        out.set("cluster.bytes_back", med_of(&plain, |s| s.stats.bytes_back as f64));
        out.set("cluster.messages", med_of(&plain, |s| s.traffic.messages as f64));
        out.set("cluster.retries", med_of(&plain, |s| s.traffic.retries as f64));
        out.set("cluster.redispatches", med_of(&plain, |s| s.traffic.redispatches as f64));
        out.set("cluster.env_packs", med_of(&plain, |s| s.traffic.env_packs as f64));
        out.set("cluster.sim_events", med_of(&plain, |s| s.traffic.sim_events as f64));
        out.set("core.dist.seg_scatters", med_of(&plain, |s| s.traffic.seg_scatters as f64));
        out.set("core.dist.resident_hits", med_of(&plain, |s| s.traffic.resident_hits as f64));
        out.set("core.dist.resident_misses", med_of(&plain, |s| s.traffic.resident_misses as f64));
        out.set("serial.unpack_copied_bytes", med_of(&plain, |s| s.traffic.unpack_copied as f64));
        out.set("serial.unpack_aliased_bytes", med_of(&plain, |s| s.traffic.unpack_aliased as f64));
        out.set("baselines.model_speedup", seq_run_s / model_s);
        let (pct, tail_s) = tail(&host);
        out.set("run.host_tail_s", tail_s);
        out.set("run.tail_pct", pct);
        out.set("run.samples", host.len() as f64);

        if !traced.is_empty() {
            for (name, phase) in [
                ("obs.phase.skeleton_s", "skeleton"),
                ("obs.phase.prep_s", "prep"),
                ("obs.phase.dispatch_s", "dispatch"),
                ("obs.phase.comm_s", "comm"),
                ("obs.phase.compute_s", "compute"),
                ("obs.phase.merge_s", "merge"),
                ("obs.phase.idle_s", "idle"),
            ] {
                let total = |s: &TracedRun| {
                    s.phases.iter().find(|(cat, _)| *cat == phase).map_or(0.0, |(_, t)| *t)
                };
                out.set(name, med_of(&traced, total));
            }
            out.set("obs.spans", med_of(&traced, |s| s.spans as f64));
            out.set("obs.events", med_of(&traced, |s| s.events as f64));
            let traced_run_s = med_of(&traced, |s| s.host_s);
            out.set("obs.traced_run_s", traced_run_s);
            out.set("obs.trace_overhead", traced_run_s / host_run_s);
            out.set("bench.run_self_s", med_of(&traced, |s| s.self_s));
        }

        if let Some(lowlevel) = &prepared.lowlevel {
            let runs: Vec<f64> = (0..LOWLEVEL_RUNS).map(|_| lowlevel()).collect();
            out.set("baselines.lowlevel_makespan_s", median(&runs));
            out.set("baselines.triolet_vs_lowlevel", median(&runs) / model_s);
        }

        let svc: Vec<_> = plain.iter().filter_map(|s| s.service.as_ref()).collect();
        if !svc.is_empty() {
            out.set(
                "core.service.jobs_per_s",
                med_of(&svc, |s| s.jobs as f64 / (s.submit_s + s.drain_s)),
            );
            out.set(
                "core.service.submit_ns_per_job",
                med_of(&svc, |s| s.submit_s * 1e9 / s.jobs as f64),
            );
            out.set(
                "core.service.drain_us_per_job",
                med_of(&svc, |s| s.drain_s * 1e6 / s.jobs as f64),
            );
            out.set(
                "core.service.model_latency_p50_s",
                med_of(&svc, |s| percentile(&s.latencies_s, 0.50)),
            );
            out.set(
                "core.service.model_latency_p99_s",
                med_of(&svc, |s| percentile(&s.latencies_s, 0.99)),
            );
            out.set("core.service.share_err_max", med_of(&svc, |s| s.share_err_max));
            out.set("core.service.utilization", med_of(&svc, |s| s.utilization));
        }
    }
    drop(prepared);

    for (name, value) in layers::run_all(opts.scale, &harness) {
        out.set(name, value);
    }

    let timeline = harness.take();
    let t_export = Instant::now();
    let json = timeline.to_chrome_json();
    out.set("obs.export_s", t_export.elapsed().as_secs_f64());
    let path = trace_path(wl);
    sys::write_out(&path, &json);

    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: out.in_spec_order(),
        samples: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_line;
    use crate::spec::WORKLOADS;
    use triolet_obs::json::{parse, Value};

    fn quick(workload: &str) -> Options {
        Options { workload: workload.into(), seed: 1, seconds: 0.2, scale: Scale::Quick }
    }

    fn metric_names(line: &str) -> Vec<String> {
        let doc = parse(line).expect("result line is valid JSON");
        let keys: Vec<&str> =
            doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert!(doc.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
        let metrics = doc.get("metrics").and_then(Value::as_object).expect("metrics");
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name} has no value");
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name} has no unit");
        }
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn end_to_end_result_names_every_declared_metric_on_every_workload() {
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        for w in &WORKLOADS {
            let outcome = end_to_end(&quick(w.name));
            assert_eq!(outcome.failed, 0, "{}", w.name);
            assert_eq!(metric_names(&result_line(&outcome)), declared, "{}", w.name);
            for (name, value) in &outcome.metrics {
                assert!(*value > 0.0, "{} {name} must never read 0", w.name);
            }
        }
    }

    #[test]
    fn per_layer_result_names_every_declared_metric_on_every_workload() {
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for w in &WORKLOADS {
            let outcome = per_layer(&quick(w.name));
            assert_eq!(outcome.failed, 0, "{}", w.name);
            assert_eq!(metric_names(&result_line(&outcome)), declared, "{}", w.name);
            let value =
                |name: &str| outcome.metrics.iter().find(|(n, _)| *n == name).expect("declared").1;
            assert!(value("obs.trace_overhead") > 0.0, "{}", w.name);
            assert!(value("obs.spans") > 0.0, "{}", w.name);
            assert_eq!(value("core.service.jobs_per_s") > 0.0, w.name == "service");
            // The written trace holds the harness's spans and the call's own.
            let text = std::fs::read_to_string(trace_path(w.name)).expect("trace written");
            for span in ["bench:setup", "bench:run", "bench:validate", "bench:seq", w.skeleton_span]
            {
                assert!(text.contains(&format!("\"name\":\"{span}\"")), "{}: no {span}", w.name);
            }
            assert!(text.contains("bench:layer:iter.flat_ns_per_elem"), "{}", w.name);
        }
    }
}
