//! End-to-end gate for the tree collectives + pack-once environment work:
//!
//! * the broadcast environment is serialized exactly once per skeleton call,
//!   regardless of node count (the pack-once cache);
//! * a pre-packed environment is reused — not re-serialized — across
//!   consecutive skeleton calls (tpacf's multi-phase pattern);
//! * `Topology::Linear` and `Topology::Tree` produce bit-identical results,
//!   with and without a seeded fault schedule;
//! * at 8 nodes the tree broadcast's modeled makespan beats the linear one.

use triolet::prelude::*;

const TPN: usize = 2;

/// A broadcast environment big enough that its transport dominates the
/// virtual-time makespan.
fn big_env() -> Vec<f64> {
    (0..100_000).map(|i| (i as f64) * 0.5 - 1.0).collect()
}

fn weighted_sum(rt: &Triolet, xs: Vec<f64>, env: &Vec<f64>) -> Run<f64> {
    rt.fold_reduce(
        from_vec(xs).par(),
        env,
        || 0.0f64,
        |env, acc, x: f64| acc + x * env[(x as usize) % env.len()],
        |a, b| a + b,
    )
}

#[test]
fn environment_packs_once_regardless_of_node_count() {
    let xs: Vec<f64> = (0..512).map(|i| i as f64).collect();
    let env: Vec<f64> = (0..64).map(|i| i as f64 * 0.25).collect();
    for nodes in [2, 4, 8, 16] {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, TPN));
        let run = weighted_sum(&rt, xs.clone(), &env);
        assert!(run.value.is_finite());
        assert_eq!(
            rt.cluster().stats().snapshot().env_packs,
            1,
            "env must pack exactly once at {nodes} nodes, not once per node"
        );
    }
}

#[test]
fn packed_environment_is_reused_across_calls() {
    let xs: Vec<f64> = (0..512).map(|i| i as f64).collect();
    let env: Vec<f64> = (0..64).map(|i| i as f64 * 0.25).collect();
    let rt = Triolet::new(ClusterConfig::virtual_cluster(4, TPN));
    let packed = rt.pack_env(env);
    for _phase in 0..3 {
        let run = rt.fold_reduce(
            from_vec(xs.clone()).par(),
            &packed,
            || 0.0f64,
            |env, acc, x: f64| acc + x * env[(x as usize) % env.len()],
            |a, b| a + b,
        );
        assert!(run.value.is_finite());
    }
    assert_eq!(
        rt.cluster().stats().snapshot().env_packs,
        1,
        "three skeleton calls over one packed env must serialize it once"
    );
}

#[test]
fn unit_environment_still_packs_nothing() {
    let xs: Vec<i64> = (0..1024).collect();
    let rt = Triolet::new(ClusterConfig::virtual_cluster(4, TPN));
    let run = rt.sum(from_vec(xs).par());
    assert_eq!(run.value, 1024 * 1023 / 2);
    assert_eq!(rt.cluster().stats().snapshot().env_packs, 0, "a unit env has no bytes to pack");
}

#[test]
fn linear_and_tree_topologies_are_bit_identical() {
    let xs: Vec<f64> = (0..4096).map(|i| (i as f64) * 0.125 + 0.3).collect();
    let env = big_env();
    let run_with = |topology| {
        let cfg = ClusterConfig::virtual_cluster(8, TPN).with_topology(topology);
        let rt = Triolet::new(cfg);
        weighted_sum(&rt, xs.clone(), &env)
    };
    let linear = run_with(Topology::Linear);
    let tree = run_with(Topology::Tree);
    assert_eq!(
        linear.value.to_bits(),
        tree.value.to_bits(),
        "the routing topology must never change the computed value"
    );
}

#[test]
fn topologies_agree_under_a_seeded_fault_schedule() {
    let xs: Vec<f64> = (0..4096).map(|i| (i as f64) * 0.125 + 0.3).collect();
    let env = big_env();
    let plan = FaultPlan::seeded(77).with_drop(0.15);
    let run_with = |topology| {
        let cfg = ClusterConfig::virtual_cluster(8, TPN).with_topology(topology).with_faults(plan);
        let rt = Triolet::new(cfg);
        weighted_sum(&rt, xs.clone(), &env)
    };
    let linear = run_with(Topology::Linear);
    let tree = run_with(Topology::Tree);
    assert_eq!(linear.value.to_bits(), tree.value.to_bits());
    assert!(linear.stats.retries > 0, "the schedule must actually bite");
    assert!(tree.stats.retries > 0);
}

#[test]
fn tree_broadcast_beats_linear_at_eight_nodes() {
    let xs: Vec<f64> = (0..256).map(|i| i as f64).collect();
    let env = big_env();
    let run_with = |topology| {
        let cfg = ClusterConfig::virtual_cluster(8, TPN).with_topology(topology);
        let rt = Triolet::new(cfg);
        weighted_sum(&rt, xs.clone(), &env)
    };
    let linear = run_with(Topology::Linear);
    let tree = run_with(Topology::Tree);
    assert!(
        tree.stats.total_s < linear.stats.total_s,
        "tree broadcast must shorten the 8-node makespan: tree {} s vs linear {} s",
        tree.stats.total_s,
        linear.stats.total_s
    );
}
