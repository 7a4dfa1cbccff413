//! Intra-node parallelism: triolet-rs's modeled TBB substrate.
//!
//! The Triolet paper (§3.4) uses Threading Building Blocks for "work-stealing
//! thread parallelism in each node", with per-thread private accumulators
//! for reductions. This reproduction models that pool instead of running it:
//!
//! * [`vtime`] — the *virtual-time* scheduler used for reproducing the
//!   paper's scaling figures on a host with fewer cores than the paper's
//!   cluster: leaf task durations are measured sequentially and replayed
//!   through a greedy earliest-available-worker schedule, which models
//!   work-stealing execution (greedy list scheduling) deterministically.
//! * [`parallel`] — [`CHUNKS_PER_THREAD`](parallel::CHUNKS_PER_THREAD), the
//!   leaf count per modeled worker, and a data-parallel loop over
//!   [`triolet_domain::Part`]s on scoped threads that only a benchmark probe
//!   calls.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use triolet_domain::{Domain, Part, Seq, SeqPart};
//! use triolet_pool::{greedy_schedule, parallel_for_part, ThreadPool};
//!
//! let visited = AtomicUsize::new(0);
//! parallel_for_part(&ThreadPool::new(2), Seq::new(1000).whole_part(), 64, &|p: &SeqPart| {
//!     visited.fetch_add(p.count(), Ordering::Relaxed);
//! });
//! assert_eq!(visited.into_inner(), 1000);
//!
//! // Four unit leaves on two modeled workers finish at time 2.
//! assert_eq!(greedy_schedule(&[1.0; 4], 2).makespan, 2.0);
//! ```

pub mod parallel;
pub mod vtime;

pub use parallel::{parallel_for_part, ThreadPool};
pub use vtime::{greedy_schedule, Schedule};
