//! End-to-end fault tolerance: every skeleton entry point must return
//! results bit-identical to a fault-free run while a seeded fault plan
//! drops a double-digit percentage of messages and crashes a whole rank —
//! and the recovery work (retransmissions, task redispatches) must be
//! visible in the returned [`RunStats`].
//!
//! This is the CI gate for the failure model: the schedule is seeded, so
//! the exact same faults replay on every run on every machine.

use std::time::Duration;

use triolet::prelude::*;

const NODES: usize = 4;
const TPN: usize = 2;
/// The rank whose payloads must be redispatched to survivors.
const DEAD_RANK: usize = 1;

/// The gate's schedule: ~15% of transmission attempts lost, rank 1 down
/// for the whole run. Short detection timeout keeps the modeled makespan
/// small; it changes no routing decision (those hash only the seed and the
/// attempt coordinates).
fn gate_plan() -> FaultPlan {
    FaultPlan::seeded(2024)
        .with_drop(0.15)
        .with_crash(DEAD_RANK)
        .with_timeout(Duration::from_millis(1))
}

fn clean_rt() -> Triolet {
    Triolet::new(ClusterConfig::virtual_cluster(NODES, TPN))
}

fn faulty_rt() -> Triolet {
    Triolet::new(ClusterConfig::virtual_cluster(NODES, TPN).with_faults(gate_plan()))
}

/// Every fault-injected run must show actual recovery work in its stats.
fn assert_recovered(stats: &RunStats) {
    assert!(
        stats.retries > 0,
        "a 15% drop rate plus a crashed rank must force retransmissions, got {stats:?}"
    );
    assert!(
        stats.redispatches > 0,
        "rank {DEAD_RANK}'s tasks must move to survivors, got {stats:?}"
    );
}

#[test]
fn fold_reduce_is_exact_under_faults() {
    let xs: Vec<i64> = (0..4096).map(|i| (i * 37) % 1001 - 500).collect();
    let clean = clean_rt().fold_reduce(
        from_vec(xs.clone()).par(),
        &(),
        || 0i64,
        |(), acc, x| acc + x,
        |a, b| a + b,
    );
    let faulty = faulty_rt().fold_reduce(
        from_vec(xs).par(),
        &(),
        || 0i64,
        |(), acc, x| acc + x,
        |a, b| a + b,
    );
    assert_eq!(clean.value, faulty.value, "fold_reduce result changed under faults");
    assert_eq!(clean.stats.retries, 0);
    assert_eq!(clean.stats.redispatches, 0);
    assert_recovered(&faulty.stats);
    assert!(
        faulty.stats.messages > clean.stats.messages,
        "lost and retransmitted attempts must show up in the message count"
    );
    assert!(faulty.stats.comm_s > clean.stats.comm_s, "faults must cost modeled time");
}

#[test]
fn collect_is_bit_identical_under_faults() {
    // Floating-point scatter-add: bit-identity (not approximate equality)
    // holds because recovery changes *where* tasks run, never the order
    // partials merge in.
    let xs: Vec<(usize, f64)> = (0..3000).map(|i| (i % 97, (i as f64) * 0.125 + 0.3)).collect();
    let run = |rt: &Triolet| rt.collect(from_vec(xs.clone()).par(), &(), || WeightHist::new(97));
    let clean = run(&clean_rt());
    let faulty = run(&faulty_rt());
    let clean_bits: Vec<u64> = clean.value.iter().map(|w| w.to_bits()).collect();
    let faulty_bits: Vec<u64> = faulty.value.iter().map(|w| w.to_bits()).collect();
    assert_eq!(clean_bits, faulty_bits, "collect must be bit-identical under faults");
    assert_recovered(&faulty.stats);
}

#[test]
fn histogram_is_exact_under_faults() {
    let xs: Vec<usize> = (0..5000).map(|i| (i * i + 13) % 64).collect();
    let clean = clean_rt().histogram(64, from_vec(xs.clone()).par());
    let faulty = faulty_rt().histogram(64, from_vec(xs).par());
    assert_eq!(clean.value, faulty.value, "histogram counts changed under faults");
    assert_eq!(clean.value.iter().sum::<u64>(), 5000);
    assert_recovered(&faulty.stats);
}

#[test]
fn build_vec_preserves_order_under_faults() {
    // Order preservation is the hard case: a redispatched fragment is
    // computed on the "wrong" rank but must still land in its own slot.
    let xs: Vec<u32> = (0..2048).map(|i| (i * 2654435761u64 % 100_000) as u32).collect();
    let clean =
        clean_rt().build_vec(from_vec(xs.clone()).map(|x: u32| x as u64 * 3).par(), &(), |_, x| x);
    let faulty =
        faulty_rt().build_vec(from_vec(xs).map(|x: u32| x as u64 * 3).par(), &(), |_, x| x);
    assert_eq!(clean.value, faulty.value, "build_vec order or contents changed under faults");
    assert_recovered(&faulty.stats);
}

#[test]
fn build_array3_is_bit_identical_under_faults() {
    // A slab computed on a survivor still lands at its own depth: the
    // faulty grid equals the one a sequential run fills in row-major order.
    let dom = Dim3::new(9, 5, 7);
    let potential = |(x, y, z): (usize, usize, usize)| {
        1.0 / (1.0 + x as f64 * 0.37 + y as f64 * 1.3 + z as f64 * 0.011)
    };
    let seq = clean_rt().build_array3(indices(dom).map(potential));
    let faulty = faulty_rt().build_array3(indices(dom).map(potential).par());
    let bits = |g: &Array3<f64>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&seq.value), bits(&faulty.value), "build_array3 changed under faults");
    assert_eq!((seq.stats.messages, seq.stats.retries), (0, 0));
    assert_recovered(&faulty.stats);
}

#[test]
fn fault_runs_replay_identically() {
    // Same seed => identical results AND identical recovery accounting.
    let xs: Vec<i64> = (0..1000).collect();
    let run = || {
        faulty_rt().fold_reduce(
            from_vec(xs.clone()).par(),
            &(),
            || 0i64,
            |(), acc, x| acc + x,
            |a, b| a + b,
        )
    };
    let r1 = run();
    let r2 = run();
    assert_eq!(r1.value, r2.value);
    assert_eq!(r1.stats.retries, r2.stats.retries, "the fault schedule must replay exactly");
    assert_eq!(r1.stats.redispatches, r2.stats.redispatches);
    assert_eq!(r1.stats.messages, r2.stats.messages);
}

#[test]
fn traffic_counters_expose_fault_events() {
    let rt = faulty_rt();
    let xs: Vec<usize> = (0..4000).map(|i| i % 32).collect();
    let stats = rt.histogram(32, from_vec(xs).par()).stats;
    let traffic = rt.cluster().stats();
    assert!(traffic.snapshot().dropped > 0, "the schedule must actually drop attempts");
    assert_eq!(traffic.snapshot().retries, stats.retries, "RunStats and TrafficStats must agree");
    assert_eq!(traffic.snapshot().redispatches, stats.redispatches);
}
