//! Data-parallel loops over domain [`Part`]s.
//!
//! These are the low-level threaded skeletons the high-level library invokes
//! for `localpar` iterators (paper §3.4): recursive part splitting down to a
//! grain size, executed with work stealing, and an order-preserving map over
//! explicit chunks. Reductions are built on the ordered map by the cluster's
//! `NodeCtx::map_reduce_chunks`, which folds partials in chunk order; nothing
//! here merges in completion order.

use std::cell::UnsafeCell;

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

/// Rank-indexed result slots where each task owns exactly one index.
///
/// No slot is written twice and no slot is read until the pool scope has
/// joined every task, so plain unsynchronized writes are sound: the scope
/// join is the happens-before edge between each write and the final read.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: every cell is written by exactly one task (its own index) and only
// read after `pool.scope` returns, which joins all tasks.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(n: usize) -> Self {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// Store `value` at `i`. Caller must be the unique writer of slot `i`.
    unsafe fn fill(&self, i: usize, value: T) {
        *self.0[i].get() = Some(value);
    }

    fn into_values(self) -> impl Iterator<Item = T> {
        self.0.into_iter().map(|c| c.into_inner().expect("every slot filled by its task"))
    }
}

/// Run `leaf` over an explicit list of work items in parallel, returning
/// results in input order. Items are opaque (domain parts, data chunks, …);
/// used when chunk boundaries must match the virtual-time executor exactly.
///
/// Each task writes its result into a slot it exclusively owns, so no lock
/// is taken per write; ordering comes from the scope join.
pub fn map_parts_ordered<P, T, L>(pool: &ThreadPool, parts: Vec<P>, leaf: &L) -> Vec<T>
where
    P: Send,
    T: Send,
    L: Fn(&P) -> T + Sync,
{
    let slots = Slots::new(parts.len());
    pool.scope(|s| {
        for (i, p) in parts.into_iter().enumerate() {
            let slots = &slots;
            s.spawn(move |_| {
                let value = leaf(&p);
                // SAFETY: task `i` is the only writer of slot `i`, and reads
                // happen only after the scope joins.
                unsafe { slots.fill(i, value) };
            });
        }
    });
    slots.into_values().collect()
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
    fn map_parts_ordered_preserves_order() {
        let pool = ThreadPool::new(4);
        let parts = Seq::new(100).split_parts(7);
        let firsts = map_parts_ordered(&pool, parts.clone(), &|p: &SeqPart| p.start);
        assert_eq!(firsts, parts.iter().map(|p| p.start).collect::<Vec<_>>());
    }

    #[test]
    fn default_grain_reasonable() {
        let part = Seq::new(1600).whole_part();
        let g = default_grain(&part, 4);
        assert_eq!(g, 100);
        assert_eq!(default_grain(&SeqPart::new(0, 1), 8), 1);
    }
}
