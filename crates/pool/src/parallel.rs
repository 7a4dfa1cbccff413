//! Data-parallel loops over domain [`Part`]s.
//!
//! The low-level threaded skeleton of paper §3.4 on a real [`ThreadPool`]:
//! recursive part splitting down to a grain size, executed with work
//! stealing.

use triolet_domain::Part;

use crate::pool::{Scope, ThreadPool};

/// Default number of leaf tasks per worker thread. Oversubscribing by this
/// factor gives the stealer enough slack to balance irregular leaves (the
/// paper's tpacf triangular loops) without measurable scheduling overhead.
pub const CHUNKS_PER_THREAD: usize = 4;

/// Compute a grain size so `part` splits into roughly
/// `threads * CHUNKS_PER_THREAD` leaves.
pub fn default_grain<P: Part>(part: &P, threads: usize) -> usize {
    (part.count() / (threads.max(1) * CHUNKS_PER_THREAD)).max(1)
}

/// Run `body` over sub-parts of `part`, splitting recursively until each leaf
/// holds at most `grain` index points. Leaves execute in parallel with work
/// stealing.
pub fn parallel_for_part<P, F>(pool: &ThreadPool, part: P, grain: usize, body: &F)
where
    P: Part,
    F: Fn(&P) + Sync,
{
    if part.is_empty() {
        return;
    }
    let grain = grain.max(1);
    pool.scope(|s| split_for(s, part, grain, body));
}

fn split_for<'scope, P, F>(s: &Scope<'scope>, part: P, grain: usize, body: &'scope F)
where
    P: Part,
    F: Fn(&P) + Sync,
{
    if part.count() <= grain {
        body(&part);
        return;
    }
    match part.split_half() {
        Some((a, b)) => {
            s.spawn(move |s| split_for(s, a, grain, body));
            split_for(s, b, grain, body);
        }
        None => body(&part),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use triolet_domain::{Domain, Seq, SeqPart};

    #[test]
    fn parallel_for_visits_every_index_once() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_part(&pool, Seq::new(n).whole_part(), 16, &|p: &SeqPart| {
            for i in p.range() {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_part_is_noop() {
        let pool = ThreadPool::new(2);
        parallel_for_part(&pool, SeqPart::new(0, 0), 4, &|_: &SeqPart| {
            panic!("must not be called")
        });
    }

    #[test]
    fn default_grain_reasonable() {
        let part = Seq::new(1600).whole_part();
        let g = default_grain(&part, 4);
        assert_eq!(g, 100);
        assert_eq!(default_grain(&SeqPart::new(0, 1), 8), 1);
    }
}
