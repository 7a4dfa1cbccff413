//! Property tests for the cluster: results and traffic accounting must be
//! exact for arbitrary payload shapes and cluster sizes, and `Comm` must
//! deliver under arbitrary interleavings.

use proptest::prelude::*;
use triolet_cluster::{Cluster, ClusterConfig, Comm, CostModel, FaultPlan, NodeCtx, RawTask};
use triolet_serial::{Piece, Wire};

/// `bytes` that rank `holder` already holds: a resident segment.
fn held(holder: usize, bytes: usize) -> Piece {
    Piece { id: None, bytes, holder: Some(holder) }
}

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
        prop_assert_eq!(cluster.stats().snapshot().messages, 2 * n as u64);
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
    /// own, piled onto shared ranks, including on a free network where
    /// every arrival is a tie at time zero: exactly the empty ones with a
    /// live home ride, and results keep their slots.
    #[test]
    fn riders_and_senders_share_ranks_keeping_their_slots(
        specs in proptest::collection::vec((0usize..6, 0usize..3), 1..=6),
        (free, crash) in (any::<bool>(), 0usize..12),
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
        let cfg = ClusterConfig::virtual_cluster(NODES, 1)
            .with_cost(cost)
            .with_faults(plan)
            .with_trace(true);
        // Each task reads a segment its home holds. Kind 0 has nothing to
        // send, 1 carries a halo, 2 a descriptor.
        let tasks: Vec<RawTask<'_, u64>> = specs
            .iter()
            .enumerate()
            .map(|(i, &(home, kind))| RawTask {
                pieces: std::iter::once(held(home, 256))
                    .chain(Piece::anonymous(if kind == 1 { 8 } else { 0 }))
                    .chain(Piece::anonymous(if kind == 2 { 16 } else { 0 }))
                    .collect(),
                pack_s: 0.0,
                work: Box::new(move |_: &NodeCtx| i as u64),
            })
            .collect();
        let out = Cluster::new(cfg).dispatch(tasks, 100).unwrap();
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

    /// Every dispatch reaches the cluster-wide counters exactly as its own
    /// record counts it: over random tasks (private bytes, shared, private
    /// and anonymous pieces, held segments with and without halos, a held
    /// piece at a random, crashed or redispatch-target rank, result sizes),
    /// environments and fault plans, the counters move by
    /// precisely the dispatch's `DistTiming` — nothing counted twice,
    /// nothing missed — and every task with a held piece is one hit or one
    /// miss.
    #[test]
    fn cluster_counters_move_by_exactly_each_dispatch(
        calls in proptest::collection::vec(
            (
                proptest::collection::vec(
                    (0usize..64, 0usize..4, 0usize..3, 0usize..40, 0usize..4),
                    1..=5,
                ),
                0usize..300,
            ),
            1..4,
        ),
        (nodes, crash, seed) in (1usize..=5, 0usize..8, 0u64..1000),
        (drop_pct, dup_pct, corrupt_pct) in (0u32..30, 0u32..10, 0u32..10),
    ) {
        let mut faults = FaultPlan::seeded(seed)
            .with_drop(f64::from(drop_pct) / 100.0)
            .with_duplication(f64::from(dup_pct) / 100.0)
            .with_corruption(f64::from(corrupt_pct) / 100.0)
            .with_timeout(std::time::Duration::from_millis(1));
        if crash < nodes && nodes > 1 {
            faults = faults.with_crash(crash);
        }
        let cfg = ClusterConfig::virtual_cluster(nodes, 1).with_faults(faults);
        let cluster = Cluster::new(cfg);
        for (specs, bcast) in &calls {
            // A resident task (`resident > 0`) reads a segment held at its
            // home, with a halo when `resident == 2`. The extra held piece
            // (`extra > 0`) sits on a random rank, on the crashed one, or on
            // the survivor a task homed at the crashed rank moves to.
            let extra_holder = |i: usize, extra: usize| match extra {
                1 => (i * 7 + seed as usize) % nodes,
                2 => crash % nodes,
                _ => (crash + 1) % nodes,
            };
            let tasks: Vec<RawTask<'_, Vec<u8>>> = specs
                .iter()
                .take(nodes)
                .enumerate()
                .map(|(i, &(wire_bytes, piece, resident, len, extra))| {
                    let mut pieces: Vec<Piece> = match piece {
                        1 => vec![Piece { id: Some(7), bytes: 500, holder: None }],
                        2 => vec![Piece { id: Some(100 + i), bytes: 50, holder: None }],
                        3 => vec![Piece { id: None, bytes: 20, holder: None }],
                        _ => Vec::new(),
                    };
                    pieces.extend(Piece::anonymous(wire_bytes));
                    if resident > 0 {
                        pieces.push(held((i + seed as usize) % nodes, 256));
                        pieces.extend(Piece::anonymous(if resident == 2 { 8 } else { 0 }));
                    }
                    if extra > 0 {
                        pieces.push(held(extra_holder(i, extra), 64));
                    }
                    RawTask {
                        pieces,
                        pack_s: 0.0,
                        work: Box::new(move |_: &NodeCtx| vec![i as u8; len]),
                    }
                })
                .collect();
            let with_held = specs.iter().take(nodes).filter(|s| s.2 > 0 || s.4 > 0).count();
            let before = cluster.stats().snapshot();
            let out = cluster.dispatch(tasks, *bcast).unwrap();
            let d = cluster.stats().snapshot().since(&before);
            let t = &out.timing;
            prop_assert_eq!(d.messages, t.messages);
            prop_assert_eq!(d.bytes, t.bytes_out + t.bytes_back);
            prop_assert_eq!((d.retries, d.redispatches), (t.retries, t.redispatches));
            prop_assert_eq!(
                (d.resident_hits, d.resident_misses),
                (t.resident_hits, t.resident_misses)
            );
            prop_assert_eq!(t.resident_hits + t.resident_misses, with_held as u64);
            prop_assert_eq!(
                (d.unpack_copied, d.unpack_aliased),
                (t.unpack_copied, t.unpack_aliased)
            );
            prop_assert_eq!((d.env_packs, d.seg_scatters), (0, 0));
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
