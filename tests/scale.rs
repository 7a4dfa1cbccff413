//! The virtual-time walk at scale.
//!
//! Three things are gated: across seeded fault plans including crashes, a
//! fold is exact and its timeline assigns exactly the timestamps its plan
//! implies; a heterogeneous cost model charges every edge at its own tier;
//! and a 1024-rank fold_reduce completes in CI-friendly time. Every timing invariant of the walk itself is checked
//! on random problems by the property test in `crates/cluster/src/sim.rs`.

use std::time::Duration;

use triolet::prelude::*;

/// The fault schedules the sweep runs: clean, lossy (drops +
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

/// The timestamps one dispatch of `tasks` assigns when every task ships a
/// message of its own and nothing is broadcast: `edges + tasks with a
/// message + hops + 3 × tasks`, each redispatch adding one hop.
fn events(tasks: u64, redispatches: u64) -> u64 {
    tasks + (tasks + redispatches) + 3 * tasks
}

#[test]
fn sim_check_passes_across_modes_and_faults() {
    let xs: Vec<i64> = (0..2048).map(|i| (i * 13) % 257 - 128).collect();
    let expect: i64 = xs.iter().sum();
    for plan in plans() {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(7, 2).with_faults(plan));
        let run = sum_ints(&rt, &xs);
        assert_eq!(run.value, expect, "{plan:?}");
        let sim_events = rt.cluster().stats().sim_events();
        assert_eq!(sim_events, events(7, run.stats.redispatches), "{plan:?}");
    }
}

/// The simulator lays all 5 × 1024 timestamps of a 1024-rank dispatch.
#[test]
fn event_core_completes_a_1024_rank_fold_reduce() {
    let nodes = 1024usize;
    let xs: Vec<i64> = (0..8192).map(|i| (i * 31) % 2003 - 1001).collect();
    let expect: i64 = xs.iter().sum();
    let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, 2));
    let run = sum_ints(&rt, &xs);
    assert_eq!(run.value, expect);
    assert_eq!(rt.cluster().stats().sim_events(), events(nodes as u64, 0));
}

#[test]
fn hierarchical_cost_model_charges_each_edge_at_its_tier() {
    // Four racks of four: the root's sends and returns to rack 0 cost the
    // intra-rack tier, the other twelve ranks' the inter-rack tier, so the
    // modeled comm time lies strictly between the two flat models' and the
    // result is exact under all three.
    let xs: Vec<i64> = (0..4096).map(|i| (i * 7) % 499 - 249).collect();
    let expect: i64 = xs.iter().sum();
    let comm_s = |cost: CostModel| {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(16, 2).with_cost(cost));
        let run = sum_ints(&rt, &xs);
        assert_eq!(run.value, expect);
        run.stats.comm_s
    };
    let intra = comm_s(CostModel::flat(5e-6, 4.0e9));
    let tiered = comm_s(CostModel::hierarchical(4, 5e-6, 4.0e9, 5e-5, 1.0e9));
    let inter = comm_s(CostModel::flat(5e-5, 1.0e9));
    assert!(intra < tiered && tiered < inter, "{intra} < {tiered} < {inter}");
}
