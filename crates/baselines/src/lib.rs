//! Comparator runtimes for the Triolet evaluation (paper §4).
//!
//! The paper measures each benchmark three ways; this crate provides the two
//! non-Triolet programming models:
//!
//! * [`lowlevel`] — the **C+MPI+OpenMP analogue**: explicit, hand-written
//!   partitioning and node kernels over raw slices, driven directly by the
//!   cluster and pool substrates with no skeleton or iterator machinery.
//!   "As a highly efficient implementation layer, [it] serves as a useful
//!   reference point against which to evaluate the scalability and parallel
//!   overhead of the high-level languages."
//! * [`eden`] — the **Eden analogue**: a distributed functional skeleton
//!   runtime with Eden's documented cost structure — process-per-core flat
//!   parallelism with no shared heap (even co-located processes exchange
//!   serialized messages), full-copy data distribution unless the programmer
//!   chunks by hand, and a message-buffer size limit (the cause of Eden's
//!   sgemm failure at ≥2 nodes, §4.3).
//! * [`list`] — boxed-iterator pipelines, used by Eden-style kernels to
//!   reproduce the per-element overhead of list manipulation and
//!   unoptimized steppers ("using steppers was roughly a factor of two to
//!   five slower than imperative loop nests", §3.1).

pub mod eden;
pub mod list;
pub mod lowlevel;

pub use eden::{EdenError, EdenRt};
pub use list::boxed_pipeline;
pub use lowlevel::LowLevelRt;
