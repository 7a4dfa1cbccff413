//! Work-stealing thread pool: triolet-rs's intra-node parallelism substrate.
//!
//! The Triolet paper (§3.4) uses Threading Building Blocks for thread
//! parallelism inside each cluster node, with "work-stealing thread
//! parallelism in each node" and per-thread private accumulators for
//! reductions. This crate is that substrate:
//!
//! * [`ThreadPool`] — fixed-size pool of workers with Chase–Lev work-stealing
//!   deques ([`crossbeam_deque`]) and a shared injector. Blocked threads help
//!   by stealing, so nested `scope`s cannot deadlock the pool.
//! * [`ThreadPool::scope`] — structured task parallelism: spawn borrowing
//!   tasks; the scope does not return until every task (and every task they
//!   transitively spawn) has finished. Panics inside tasks are propagated to
//!   the caller.
//! * [`ThreadPool::join`] — binary fork-join.
//! * [`parallel`] — data-parallel loops over [`triolet_domain::Part`]s with
//!   recursive splitting down to a grain size.
//! * [`vtime`] — the *virtual-time* scheduler used for reproducing the
//!   paper's scaling figures on a host with fewer cores than the paper's
//!   cluster: leaf task durations are measured sequentially and replayed
//!   through a greedy earliest-available-worker schedule, which models
//!   work-stealing execution (greedy list scheduling) deterministically.
//!
//! # Example
//!
//! ```
//! use triolet_pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let (a, b) = pool.join(|| (0..1000).sum::<u64>(), || 21 * 2);
//! assert_eq!(a, 499500);
//! assert_eq!(b, 42);
//! ```

mod latch;
pub mod parallel;
mod pool;
pub mod vtime;

pub use parallel::parallel_for_part;
pub use pool::{Scope, ThreadPool};
pub use vtime::{greedy_schedule, Schedule};
