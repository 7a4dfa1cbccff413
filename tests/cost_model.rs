//! Sanity properties of the virtual-time and traffic models: the modeled
//! quantities must move in the directions the paper's measurements move.

use triolet::prelude::*;
use triolet_apps::{sgemm, tpacf};
use triolet_baselines::eden::STRAGGLER_PER_NODE;
use triolet_baselines::{EdenRt, LowLevelRt};

/// A compute-heavy workload whose per-element cost is real CPU time.
fn busy_value(x: u64) -> u64 {
    let mut acc = x;
    for _ in 0..2_000 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    }
    acc % 1024 // keep sums far from overflow in debug builds
}

#[test]
fn more_cores_never_model_slower_compute() {
    let xs: Vec<u64> = (0..2_000).collect();
    let mut prev = f64::INFINITY;
    for (nodes, tpn) in [(1, 1), (1, 4), (2, 4), (4, 4), (8, 16)] {
        // Per-chunk costs are wall-measured, so take the best of two runs
        // per shape — a shared-tenancy host can steal a scheduling quantum
        // mid-measurement and skew a single run badly.
        let span = (0..2)
            .map(|_| {
                let cfg = ClusterConfig::virtual_cluster(nodes, tpn).with_cost(CostModel::free());
                let rt = Triolet::new(cfg);
                rt.sum(from_vec(xs.clone()).map(busy_value).par()).stats.compute_span_s()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            span <= prev * 1.35,
            "{nodes}x{tpn}: compute span {span} regressed badly from {prev}"
        );
        prev = prev.min(span);
    }
}

#[test]
fn comm_time_scales_with_payload() {
    let slow_net = CostModel::flat(0.0, 1e8);
    let rt = |n: usize| {
        Triolet::new(ClusterConfig::virtual_cluster(2, 1).with_cost(slow_net))
            .sum(from_vec(vec![1u8; n]).map(|x: u8| x as u64).par())
            .stats
            .comm_s
    };
    let small = rt(10_000);
    let large = rt(1_000_000);
    assert!(large > 50.0 * small, "large={large} small={small}");
}

#[test]
fn slicing_beats_full_copy_traffic() {
    // Triolet ships ~1 copy of the input total (each node gets its slice);
    // Eden's default full-copy semantics ship one complete copy per node.
    // The gap is the paper's §3.5 argument in byte counts.
    let data: Vec<f32> = (0..100_000).map(|i| i as f32).collect();
    let rt = Triolet::new(ClusterConfig::virtual_cluster(8, 2));
    let t_stats = rt.sum(from_vec(data.clone()).map(|x: f32| x as f64).par()).stats;

    let eden = EdenRt::new(8, 2).with_msg_limit(usize::MAX);
    let n = data.len();
    let (_, e_stats) = eden
        .map_reduce_full_copy(
            data,
            16,
            move |d, tid| {
                let chunk = n / 16;
                d[tid * chunk..(tid + 1) * chunk].iter().map(|&x| x as f64).sum::<f64>()
            },
            |a, b| a + b,
            || 0.0f64,
        )
        .expect("limit disabled");

    assert!(
        e_stats.bytes_out > 4 * t_stats.bytes_out,
        "eden={} triolet={}",
        e_stats.bytes_out,
        t_stats.bytes_out
    );
}

#[test]
fn two_level_ships_fewer_bytes_than_flat() {
    // The same tpacf reduction on 32 cores: 2 nodes x 16 shared-memory
    // threads against two flat organizations of the same machine, 32
    // single-threaded ranks and 32 Eden processes. The flat runs replicate
    // the data per rank (paper §3.4); the two-level run ships it per node.
    let input = tpacf::generate(128, 32, 16, 7);
    let two_level =
        tpacf::run_triolet(&Triolet::new(ClusterConfig::virtual_cluster(2, 16)), &input).stats;
    let (_, flat) =
        tpacf::run_lowlevel(&LowLevelRt::new(ClusterConfig::virtual_cluster(32, 1)), &input);
    let (_, eden) = tpacf::run_eden(&EdenRt::new(2, 16), &input).expect("fits Eden buffers");

    for (name, bytes) in [("lowlevel 32x1", flat.bytes_out), ("eden 2x16", eden.bytes_out)] {
        assert!(
            bytes as f64 > 1.5 * two_level.bytes_out as f64,
            "{name} shipped {bytes} bytes, two-level {}",
            two_level.bytes_out
        );
    }
    assert!(
        flat.messages > two_level.messages,
        "flat={} two-level={}",
        flat.messages,
        two_level.messages
    );
}

#[test]
fn sgemm_block_traffic_grows_sublinearly_in_nodes() {
    // With a 2-D block decomposition, going from 4 to 16 nodes doubles (not
    // quadruples) the shipped copies of each matrix: O(sqrt(p)).
    let input = sgemm::generate(64, 8);
    let bytes = |nodes: usize| {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, 1));
        sgemm::run_triolet(&rt, &input).stats.bytes_out as f64
    };
    let b4 = bytes(4);
    let b16 = bytes(16);
    assert!(b16 < 2.6 * b4, "b16={b16} b4={b4}: block slicing must be sublinear");
    assert!(b16 > 1.5 * b4, "more nodes must still cost more than fewer");
}

#[test]
fn virtual_total_includes_comm_and_compute() {
    let net = CostModel::flat(1e-3, 1e9);
    let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2).with_cost(net));
    let xs: Vec<u64> = (0..500).collect();
    let stats = rt.sum(from_vec(xs).map(busy_value).par()).stats;
    // comm_s is an aggregate over all links; the critical path includes the
    // root's serialized send chain (4 messages) plus one result return.
    assert!(stats.total_s >= stats.compute_span_s());
    assert!(stats.total_s >= 5.0 * 1e-3, "send chain + result return at 1ms each");
    assert!(stats.comm_s >= 8.0 * 1e-3, "8 messages x 1ms latency minimum");
}

#[test]
fn eden_straggler_penalty_visible_at_scale() {
    // The paper's delayed tasks: every Eden run's makespan carries
    // `STRAGGLER_PER_NODE × nodes × compute span` on top of its dispatch.
    // The makespan less that term still covers the compute span within
    // each run, whatever the host's load. Each task spins for at least
    // 5 ms, so the term outweighs every modeled transfer of the run and the
    // bound fails when the term is missing.
    let spin = |v: Vec<u64>| {
        let t0 = std::time::Instant::now();
        let mut acc = 0u64;
        while t0.elapsed().as_secs_f64() < 5e-3 {
            acc = v.iter().copied().map(busy_value).fold(acc, u64::wrapping_add);
        }
        acc
    };
    for nodes in [2, 8] {
        let inputs = (0..nodes).map(|i| vec![i as u64; 16]).collect::<Vec<_>>();
        let (_, s) =
            EdenRt::new(nodes, 1).map_reduce(inputs, spin, |a, b| a.wrapping_add(b), || 0).unwrap();
        let span = s.compute_span_s();
        let straggler = STRAGGLER_PER_NODE * nodes as f64 * span;
        assert!(straggler > s.comm_s, "{nodes} nodes: {straggler} <= comm {}", s.comm_s);
        let before = s.total_s - straggler;
        let slack = 1e-12 * s.total_s;
        assert!(before + slack >= span + s.root_s, "{nodes} nodes: {before} < span {span}");
    }
}
