//! Property tests for the pool crate: the scoped loop visits every index
//! once at any thread count and grain, and the virtual-time schedule keeps
//! Graham's bounds.

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
