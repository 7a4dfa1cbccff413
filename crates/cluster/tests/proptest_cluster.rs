//! Property tests for the cluster: results and traffic accounting must be
//! exact for arbitrary payload shapes and cluster sizes, and `Comm` must
//! deliver under arbitrary interleavings.

use proptest::prelude::*;
use triolet_cluster::{
    Cluster, ClusterConfig, Comm, CostModel, FaultPlan, NodeCtx, RawTask, ResidentSpec, Topology,
};
use triolet_serial::Wire;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn run_roundtrips_arbitrary_payloads(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..64),
            1..8,
        ),
    ) {
        let n = payloads.len();
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(n, 2));
        let expect: Vec<u64> =
            payloads.iter().map(|p| p.iter().fold(0u64, |a, b| a.wrapping_add(*b))).collect();
        let out = cluster.run(payloads, |_ctx, v: Vec<u64>| {
            v.iter().fold(0u64, |a, b| a.wrapping_add(*b))
        });
        prop_assert_eq!(out.results, expect);
    }

    #[test]
    fn traffic_accounts_exact_bytes(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<f32>().prop_filter("finite", |x| x.is_finite()), 0..64),
            1..6,
        ),
    ) {
        let n = payloads.len();
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(n, 1));
        let expect_out: u64 = payloads.iter().map(|p| p.packed_size() as u64).sum();
        let out = cluster.run(payloads, |_ctx, v: Vec<f32>| v.len() as u64);
        prop_assert_eq!(out.timing.bytes_out, expect_out);
        // Each result is one u64 (8 bytes).
        prop_assert_eq!(out.timing.bytes_back, 8 * n as u64);
        prop_assert_eq!(cluster.stats().messages(), 2 * n as u64);
    }

    #[test]
    fn virtual_comm_time_matches_model(
        sizes in proptest::collection::vec(1usize..5000, 1..6),
        latency_us in 0u64..200,
    ) {
        let cost = CostModel::flat(latency_us as f64 * 1e-6, 1e9);
        let n = sizes.len();
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(n, 1).with_cost(cost));
        let payloads: Vec<Vec<u8>> = sizes.iter().map(|&s| vec![0u8; s]).collect();
        let out = cluster.run(payloads, |_ctx, v: Vec<u8>| v.len() as u64);
        // comm_s = sum over all 2n messages of latency + bytes/bw.
        let mut expect = 0.0;
        for &s in &sizes {
            expect += cost.transfer_time((vec![0u8; s]).packed_size());
        }
        for _ in 0..n {
            expect += cost.transfer_time(8);
        }
        prop_assert!((out.timing.comm_s - expect).abs() < 1e-9);
    }

    /// Tasks that ride the environment in and tasks with a message of their
    /// own, piled onto shared ranks: exactly the empty ones with a live home
    /// ride, results keep their slots, and — this being a debug build —
    /// every dispatch passes the simulator's oracle, including on a free
    /// network where every arrival is a tie at time zero.
    #[test]
    fn riders_and_senders_share_ranks_under_the_oracle(
        specs in proptest::collection::vec((0usize..6, 0usize..3), 1..=6),
        (free, linear, crash) in (any::<bool>(), any::<bool>(), 0usize..12),
        seed in 0u64..500,
    ) {
        const NODES: usize = 6;
        let plan = match crash {
            rank if rank < NODES => FaultPlan::seeded(seed)
                .with_drop(0.1)
                .with_crash(rank)
                .with_timeout(std::time::Duration::from_millis(1)),
            _ => FaultPlan::none(),
        };
        let cost = if free { CostModel::free() } else { CostModel::flat(1e-5, 1e9) };
        let topology = if linear { Topology::Linear } else { Topology::Tree };
        let cfg = ClusterConfig::virtual_cluster(NODES, 1)
            .with_cost(cost)
            .with_topology(topology)
            .with_faults(plan)
            .with_trace(true);
        // Kind 0 has nothing to send, 1 carries a halo, 2 a descriptor.
        let tasks: Vec<RawTask<'_, u64>> = specs
            .iter()
            .enumerate()
            .map(|(i, &(home, kind))| RawTask {
                wire_bytes: if kind == 2 { 16 } else { 0 },
                pieces: Vec::new(),
                pack_s: 0.0,
                resident: Some(ResidentSpec {
                    id: 1,
                    home,
                    seg_bytes: 256,
                    halo_bytes: if kind == 1 { 8 } else { 0 },
                }),
                work: Box::new(move |_: &NodeCtx| i as u64),
            })
            .collect();
        let out = Cluster::new(cfg).run_raw_with_broadcast(tasks, 100);
        prop_assert_eq!(&out.results, &(0..specs.len() as u64).collect::<Vec<_>>());
        let rides = |&(home, kind): &(usize, usize)| kind == 0 && !plan.crashed(home);
        let riders = specs.iter().filter(|spec| rides(spec)).count();
        prop_assert_eq!(out.trace.count_events("task:ride"), riders);
        for (spec, &exec) in specs.iter().zip(&out.execs) {
            if rides(spec) {
                prop_assert_eq!(exec, spec.0);
            }
        }
    }
}

#[test]
fn comm_all_to_all_delivery() {
    // Every rank sends to every other rank with a distinct tag; all arrive.
    let n = 4;
    let handles = Comm::create(n);
    let results: Vec<u64> = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                s.spawn(move || {
                    let me = h.rank();
                    for to in 0..h.size() {
                        if to != me {
                            h.send(to, me as u32, &(me as u64 * 100)).unwrap();
                        }
                    }
                    let mut sum = 0u64;
                    for from in 0..h.size() {
                        if from != me {
                            sum += h.recv::<u64>(from, from as u32).unwrap();
                        }
                    }
                    sum
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    // Each rank receives 100*sum(others).
    let total: u64 = (0..n as u64).map(|r| r * 100).sum();
    for (me, sum) in results.into_iter().enumerate() {
        assert_eq!(sum, total - me as u64 * 100);
    }
}
