//! The event-driven virtual-time core at scale, under its oracle.
//!
//! `cargo test` builds these suites with debug assertions, so every dispatch
//! here is laid twice — by the event heap and by the eager oracle walk — and
//! panics with a `sim-check:` message on the first span bound, send time or
//! arrival that differs by a bit. Two things are gated on top of that: the
//! oracle holds across topologies, seeded fault plans including crashes, and
//! a heterogeneous cost model; and a 1024-rank fold_reduce completes in
//! CI-friendly time with the heap's resident state far below its event
//! count. The event core is the one kept because it is the one every
//! workload, golden trace and `cluster.sim_events*` benchmark row runs
//! through — not for speed: over 64–4096 ranks the eager walk was the
//! faster of the two (EXPERIMENTS.md, `ablation_scale`).

use std::time::Duration;

use triolet::prelude::*;

/// The fault schedules the oracle gate sweeps: clean, lossy (drops +
/// duplicates + corruption), and lossy with a crashed rank forcing
/// redispatch. Short timeouts keep modeled makespans small without
/// changing any routing decision.
fn plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::none(),
        FaultPlan::seeded(77)
            .with_drop(0.2)
            .with_duplication(0.05)
            .with_corruption(0.05)
            .with_timeout(Duration::from_millis(1)),
        FaultPlan::seeded(99).with_drop(0.15).with_crash(1).with_timeout(Duration::from_millis(1)),
    ]
}

fn sum_ints(rt: &Triolet, xs: &[i64]) -> triolet::Run<i64> {
    rt.fold_reduce(from_vec(xs.to_vec()).par(), &(), || 0i64, |(), a, x| a + x, |a, b| a + b)
}

#[test]
fn sim_check_passes_across_modes_and_faults() {
    // The in-dispatch oracle is the makespan-identity gate (cross-run
    // makespans are not comparable: node seconds are wall-measured per run).
    let xs: Vec<i64> = (0..2048).map(|i| (i * 13) % 257 - 128).collect();
    let expect: i64 = xs.iter().sum();
    for topo in [Topology::Linear, Topology::Tree] {
        for plan in plans() {
            let rt = Triolet::new(
                ClusterConfig::virtual_cluster(7, 2).with_topology(topo).with_faults(plan),
            );
            assert_eq!(sum_ints(&rt, &xs).value, expect, "{topo:?}");
        }
    }
}

#[test]
fn event_core_completes_a_1024_rank_fold_reduce() {
    let nodes = 1024usize;
    let xs: Vec<i64> = (0..8192).map(|i| (i * 31) % 2003 - 1001).collect();
    let expect: i64 = xs.iter().sum();
    let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, 2));
    let run = sum_ints(&rt, &xs);
    assert_eq!(run.value, expect);
    let stats = rt.cluster().stats();
    assert!(stats.sim_events() > 0, "the event core must have processed heap events");
    assert!(
        stats.sim_peak_heap() > 0 && stats.sim_peak_heap() < stats.sim_events(),
        "resident heap state ({}) must stay well under total events ({})",
        stats.sim_peak_heap(),
        stats.sim_events()
    );
}

#[test]
fn hierarchical_cost_model_keeps_cores_in_lockstep() {
    // Heterogeneous link tiers change every edge duration; the event core
    // must still agree bitwise with its oracle and the result must be exact.
    let xs: Vec<i64> = (0..4096).map(|i| (i * 7) % 499 - 249).collect();
    let expect: i64 = xs.iter().sum();
    let cost = CostModel::hierarchical(4, 5e-6, 4.0e9, 5e-5, 1.0e9);
    let rt = Triolet::new(ClusterConfig::virtual_cluster(16, 2).with_cost(cost));
    let run = sum_ints(&rt, &xs);
    assert_eq!(run.value, expect);
    assert!(run.stats.comm_s > 0.0);
}
