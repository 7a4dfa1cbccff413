//! End-to-end gate for the tree collectives + pack-once environment work:
//!
//! * the broadcast environment is serialized exactly once per skeleton call,
//!   regardless of node count (the pack-once cache);
//! * a pre-packed environment is reused — not re-serialized — across
//!   consecutive skeleton calls (tpacf's multi-phase pattern);
//! * a seeded fault schedule leaves the broadcast's result bit-identical;
//! * the binomial-tree broadcast to `n` ranks costs the root
//!   `⌈log₂(n+1)⌉` sends and ends after as many edge times.

use triolet::prelude::*;
use triolet::{Cluster, NodeCtx, Track};
use triolet_cluster::RawTask;
use triolet_serial::Piece;

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
fn a_seeded_fault_schedule_leaves_the_bits_unchanged() {
    let xs: Vec<f64> = (0..4096).map(|i| (i as f64) * 0.125 + 0.3).collect();
    let env = big_env();
    let run_with = |plan| {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(8, TPN).with_faults(plan));
        weighted_sum(&rt, xs.clone(), &env)
    };
    let clean = run_with(FaultPlan::none());
    let faulty = run_with(FaultPlan::seeded(77).with_drop(0.15));
    assert_eq!(clean.value.to_bits(), faulty.value.to_bits());
    assert!(faulty.stats.retries > 0, "the schedule must actually bite");
}

/// Seconds per message in the broadcast's closed form: a binary fraction,
/// so every sum of edge times is exact.
const LATENCY: f64 = 0.125;

/// The binomial tree over the root and `n` executing ranks
/// (`tree::edges(n + 1)`) has `n` edges. The root's children are the powers
/// of two below `n + 1`, `⌈log₂(n+1)⌉` of them, sent largest subtree first:
/// the child reached at `j` edge times roots a subtree of depth
/// `⌈log₂(n+1)⌉ - j` and relays down it without waiting, so the last edge
/// ends at `⌈log₂(n+1)⌉` edge times — when the root's own last send does.
#[test]
fn the_broadcast_leaves_the_root_ceil_log2_times_and_ends_in_as_many_rounds() {
    const ENV: usize = 264;
    for n in 1..=16usize {
        // ⌈log₂(n+1)⌉ is the bit length of n.
        let rounds = (usize::BITS - n.leading_zeros()) as usize;
        let cfg = ClusterConfig::virtual_cluster(n, 1)
            .with_cost(CostModel::flat(LATENCY, f64::INFINITY))
            .with_trace(true);
        // Resident tasks: each reads a segment its home holds, so it has
        // no message of its own and rides the environment in.
        let tasks = (0..n)
            .map(|home| RawTask {
                pieces: vec![Piece { id: None, bytes: 4096, holder: Some(home) }],
                pack_s: 0.0,
                work: Box::new(move |_: &NodeCtx| home as u64),
            })
            .collect();
        let out = Cluster::new(cfg).dispatch(tasks, ENV).unwrap();
        assert_eq!(out.results, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(out.trace.count_events("task:ride"), n, "{n} ranks");
        // n environment edges + n returns.
        assert_eq!(out.timing.messages, 2 * n as u64, "{n} ranks");
        let edges: Vec<_> = out.trace.spans.iter().filter(|s| s.name == "comm:tree").collect();
        assert_eq!(edges.len(), n);
        let from_root = edges.iter().filter(|s| s.track == Track::Root).count();
        assert_eq!(from_root, rounds, "{n} ranks");
        assert_eq!(out.timing.root_bytes_out, (rounds * ENV) as u64, "{n} ranks");
        let last = edges.iter().map(|s| s.t1).fold(0.0, f64::max);
        assert_eq!(last, rounds as f64 * LATENCY, "{n} ranks");
    }
}
