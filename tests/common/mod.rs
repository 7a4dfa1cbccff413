//! Cluster shapes and fault schedules shared by the property suites
//! (`mod common;` in each; every suite uses a subset).
#![allow(dead_code)]

use std::time::Duration;

use proptest::prelude::*;
use triolet::prelude::*;

/// Random `(nodes, threads per node)` up to the given maxima.
pub fn shapes(max_nodes: usize, max_tpn: usize) -> impl Strategy<Value = (usize, usize)> {
    (1..=max_nodes, 1..=max_tpn)
}

/// The shimmed proptest has no `prop_oneof`; pick the topology from an
/// integer.
pub fn topology_from(sel: u64) -> Topology {
    if sel % 2 == 0 {
        Topology::Linear
    } else {
        Topology::Tree
    }
}

/// Seeded 12 % message loss, detected after a 1 ms ack timeout.
pub fn lossy(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).with_drop(0.12).with_timeout(Duration::from_millis(1))
}

/// A third of seeds run clean, a third over links that drop, duplicate and
/// corrupt, a third over a dropping link plus a crashed rank (single-node
/// clusters stay at the second kind).
pub fn plan_for(seed: u64, nodes: usize) -> Option<FaultPlan> {
    match seed % 3 {
        0 => None,
        2 if nodes > 1 => Some(lossy(seed).with_crash((seed as usize / 3) % nodes)),
        _ => Some(lossy(seed).with_duplication(0.1).with_corruption(0.05)),
    }
}

/// A virtual cluster of the given shape and topology under `plan`.
pub fn cluster(
    (nodes, tpn): (usize, usize),
    topology: Topology,
    plan: Option<FaultPlan>,
) -> ClusterConfig {
    let cfg = ClusterConfig::virtual_cluster(nodes, tpn).with_topology(topology);
    match plan {
        Some(plan) => cfg.with_faults(plan),
        None => cfg,
    }
}
