//! End-to-end observability: traced runs must produce the documented span
//! hierarchy (skeleton → slice → dispatch → chunk → merge → unpack), the
//! chrome://tracing export must be valid JSON with those spans, recovery
//! work under a seeded fault plan must be visible as point events, and the
//! trace *structure* on a fixed cluster shape is pinned by golden files.
//!
//! Each golden file holds `TraceData::canonical_lines()` — category, name,
//! and track per span/event, no timestamps — so it is deterministic and
//! robust to cost-model retuning. Regenerate them after an
//! intentional structure change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --offline -p triolet-apps --test trace_observability
//! ```

use std::time::Duration;

use triolet::prelude::*;
use triolet_apps::tpacf;

fn traced_rt(nodes: usize, tpn: usize) -> Triolet {
    Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn).with_trace(true))
}

/// Compare `trace`'s structure with `tests/golden/<name>`, or rewrite the
/// file under `UPDATE_GOLDEN`.
fn check_golden(name: &str, trace: &TraceData) {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    let got = trace.canonical_lines().join("\n") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want =
        std::fs::read_to_string(&path).expect("golden file missing — run with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "{name}: trace structure changed; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_trace_structure_for_sum_on_3x2() {
    let xs: Vec<i64> = (0..600).collect();
    let run = traced_rt(3, 2).sum(from_vec(xs.clone()).par());
    assert_eq!(run.value, xs.iter().sum::<i64>());
    check_golden("trace_sum_3x2.txt", &run.trace);
    // Ordered assembly runs through the same node body and root epilogue.
    let run = traced_rt(3, 2).build_vec(range(600).par(), &(), |_, i| i as i64);
    assert_eq!(run.value, xs);
    check_golden("trace_build_vec_3x2.txt", &run.trace);
}

#[test]
fn traced_run_replays_identically() {
    // Virtual time + seeded routing: two identical runs must produce the
    // exact same trace structure. (Timestamps are not compared: the root's
    // own slice/pack work is measured in wall-clock.)
    let xs: Vec<i64> = (0..500).collect();
    let run = || traced_rt(4, 2).sum(from_vec(xs.clone()).par());
    let (a, b) = (run(), run());
    assert_eq!(a.trace.canonical_lines(), b.trace.canonical_lines());
    assert_eq!(a.trace.spans.len(), b.trace.spans.len());
    assert_eq!(a.trace.events.len(), b.trace.events.len());
}

#[test]
fn chrome_export_is_valid_json_with_the_span_hierarchy() {
    let run = traced_rt(3, 2).histogram(16, range(900).map(|i: usize| i % 16).par());
    let json = run.trace.to_chrome_json();
    let doc = triolet_obs::json::parse(&json).expect("chrome export must parse");
    let events = doc
        .get("traceEvents")
        .and_then(triolet_obs::json::Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(triolet_obs::json::Value::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(triolet_obs::json::Value::as_str))
        .collect();
    for required in ["skeleton:histogram", "root:slice", "node:task", "chunk", "merge"] {
        assert!(span_names.contains(&required), "missing span {required:?} in {span_names:?}");
    }
}

#[test]
fn fault_recovery_is_visible_in_the_trace() {
    // The fault-tolerance gate's plan (seed 2024, ~15% drops, rank 1 down)
    // must surface as retry and redispatch point events, agreeing with the
    // RunStats counters the recovery path already maintains.
    let plan = FaultPlan::seeded(2024)
        .with_drop(0.15)
        .with_crash(1)
        .with_timeout(Duration::from_millis(1));
    let cfg = ClusterConfig::virtual_cluster(4, 2).with_faults(plan).with_trace(true);
    let xs: Vec<i64> = (0..4096).map(|i| (i * 37) % 1001 - 500).collect();
    let run = Triolet::new(cfg).sum(from_vec(xs.clone()).par());
    assert_eq!(run.value, xs.iter().sum::<i64>());

    assert!(run.stats.retries > 0 && run.stats.redispatches > 0, "plan must force recovery");
    assert_eq!(run.trace.count_events("retry"), run.stats.retries as usize);
    assert_eq!(run.trace.count_events("redispatch"), run.stats.redispatches as usize);
    assert!(run.trace.count_events("drop") > 0, "dropped attempts must be marked");
}

#[test]
fn multi_phase_app_concatenates_skeleton_spans() {
    // tpacf runs four skeletons back to back (dd, the rand scatter, rr,
    // dr); the combined trace must hold all four skeleton spans in time
    // order.
    let input = tpacf::generate(24, 3, 8, 5);
    let rt = traced_rt(3, 2);
    let run = tpacf::run_triolet(&rt, &input);
    let names = run.trace.span_names();
    assert!(names.contains(&"skeleton:histogram"), "dd phase span missing: {names:?}");
    assert!(names.contains(&"skeleton:scatter"), "rand scatter span missing: {names:?}");
    assert!(names.contains(&"skeleton:fold_reduce"), "rr/dr phase spans missing: {names:?}");

    let skeletons: Vec<_> = run.trace.spans.iter().filter(|s| s.cat == "skeleton").collect();
    assert_eq!(skeletons.len(), 4, "four phases -> four skeleton spans");
    for pair in skeletons.windows(2) {
        assert!(pair[0].t1 <= pair[1].t0 + 1e-12, "phases must not overlap in the timeline");
    }
}

#[test]
fn untraced_runs_stay_empty_even_under_faults() {
    let plan = FaultPlan::seeded(2024)
        .with_drop(0.15)
        .with_crash(1)
        .with_timeout(Duration::from_millis(1));
    let cfg = ClusterConfig::virtual_cluster(4, 2).with_faults(plan);
    let xs: Vec<i64> = (0..4096).map(|i| (i * 37) % 1001 - 500).collect();
    let run = Triolet::new(cfg).sum(from_vec(xs).par());
    assert!(run.trace.is_empty(), "tracing off must record nothing");
    assert!(run.stats.retries > 0, "faults still happen, they are just not traced");
}

#[test]
fn streamed_trace_has_per_task_pipeline_spans() {
    const NODES: usize = 6;
    let xs: Vec<f64> = (0..2048).map(|i| i as f64).collect();
    let run = traced_rt(NODES, 2).sum(from_vec(xs).par());
    // One pack, one unpack, one merge span per task.
    for name in ["root:pack", "root:unpack", "root:merge:streamed"] {
        assert_eq!(run.trace.count_spans(name), NODES, "{name}");
    }
}
