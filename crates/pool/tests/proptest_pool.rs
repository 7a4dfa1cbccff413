//! Property and stress tests for the work-stealing pool: results must be
//! independent of thread count, grain size, and scheduling order.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use triolet_domain::{Domain, Seq, SeqPart};
use triolet_pool::parallel::parallel_for_part;
use triolet_pool::vtime::greedy_schedule;
use triolet_pool::ThreadPool;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_for_visits_each_exactly_once(
        len in 1usize..1500,
        threads in 1usize..5,
        grain in 1usize..100,
    ) {
        let pool = ThreadPool::new(threads);
        let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        parallel_for_part(&pool, Seq::new(len).whole_part(), grain, &|p: &SeqPart| {
            for i in p.range() {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn greedy_schedule_invariants(
        durations in proptest::collection::vec(0.0f64..0.1, 0..100),
        workers in 1usize..32,
    ) {
        let s = greedy_schedule(&durations, workers);
        let work: f64 = durations.iter().sum();
        let span = durations.iter().cloned().fold(0.0, f64::max);
        // Graham bounds for greedy list scheduling.
        prop_assert!(s.makespan <= work / workers as f64 + span + 1e-9);
        prop_assert!(s.makespan + 1e-9 >= work / workers as f64);
        prop_assert!(s.makespan + 1e-9 >= span);
        // Loads account for all work.
        prop_assert!((s.work() - work).abs() < 1e-9);
    }
}

#[test]
fn deep_nested_scopes_stress() {
    let pool = ThreadPool::new(3);
    let total = AtomicU64::new(0);
    pool.scope(|s| {
        for _ in 0..8 {
            s.spawn(|s| {
                for _ in 0..8 {
                    s.spawn(|s| {
                        for _ in 0..8 {
                            s.spawn(|_| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 512);
}

#[test]
fn many_small_scopes_stress() {
    let pool = ThreadPool::new(4);
    let mut sum = 0u64;
    for i in 0..500u64 {
        let (a, b) = pool.join(move || i * 2, move || i * 3);
        sum += a + b;
    }
    assert_eq!(sum, 5 * (0..500u64).sum::<u64>());
}
