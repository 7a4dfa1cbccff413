//! Data-parallel loops over domain [`Part`]s on scoped OS threads.
//!
//! No skeleton runs here: node chunks execute one at a time and
//! [`greedy_schedule`](crate::greedy_schedule) models the pool. This loop
//! survives as the `pool.chunk_overhead_ns` benchmark probe's subject.

use std::sync::atomic::{AtomicUsize, Ordering};

use triolet_domain::Part;

/// Default number of leaf tasks per worker thread. Oversubscribing by this
/// factor gives the stealer enough slack to balance irregular leaves (the
/// paper's tpacf triangular loops) without measurable scheduling overhead.
pub const CHUNKS_PER_THREAD: usize = 4;

/// How many threads [`parallel_for_part`] may use (at least one). Threads
/// are started per call and joined before it returns.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        ThreadPool { threads: threads.max(1) }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Run `body` over sub-parts of `part`, halved recursively until each leaf
/// holds at most `grain` index points. Workers take the next leaf from a
/// shared counter; a panic in `body` reaches the caller once every worker
/// has stopped.
pub fn parallel_for_part<P, F>(pool: &ThreadPool, part: P, grain: usize, body: &F)
where
    P: Part,
    F: Fn(&P) + Sync,
{
    let mut leaves = Vec::new();
    split_leaves(part, grain.max(1), &mut leaves);
    // Relaxed: the counter only hands out indices into `leaves`, which no
    // worker writes, so it publishes no data.
    let next = AtomicUsize::new(0);
    let work = || {
        while let Some(leaf) = leaves.get(next.fetch_add(1, Ordering::Relaxed)) {
            body(leaf);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..pool.threads().min(leaves.len()) {
            s.spawn(work);
        }
        work();
    });
}

fn split_leaves<P: Part>(part: P, grain: usize, out: &mut Vec<P>) {
    match part.count() {
        0 => {}
        n if n <= grain => out.push(part),
        _ => match part.split_half() {
            Some((a, b)) => {
                split_leaves(a, grain, out);
                split_leaves(b, grain, out);
            }
            None => out.push(part),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;
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
    fn panic_in_body_propagates() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_for_part(&pool, SeqPart::new(0, 64), 1, &|p: &SeqPart| {
                assert_ne!(p.range().start, 37, "boom");
            });
        }));
        assert!(result.is_err(), "a leaf's panic must reach the caller");
        // The pool is only a count: the next loop runs as usual.
        let visited = AtomicU64::new(0);
        parallel_for_part(&pool, SeqPart::new(0, 64), 1, &|p: &SeqPart| {
            visited.fetch_add(p.count() as u64, Ordering::Relaxed);
        });
        assert_eq!(visited.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let visited = AtomicU64::new(0);
        parallel_for_part(&pool, SeqPart::new(0, 50), 1, &|p: &SeqPart| {
            visited.fetch_add(p.count() as u64, Ordering::Relaxed);
        });
        assert_eq!(visited.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }
}
