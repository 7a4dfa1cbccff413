//! Hybrid fusible iterators: the core contribution of the Triolet paper.
//!
//! The paper (§3.1–§3.3) observes that every known fusible loop encoding is
//! missing a feature (its Figure 1):
//!
//! | encoding  | parallel | zip | filter | nested traversal | mutation |
//! |-----------|----------|-----|--------|------------------|----------|
//! | indexer   | yes      | yes | no     | no               | no       |
//! | stepper   | no       | yes | yes    | slow             | no       |
//! | fold      | no       | no  | yes    | yes              | no       |
//! | collector | no       | no  | yes    | yes              | yes      |
//!
//! Triolet's fix is a *hybrid* representation: a loop nest with an indexer or
//! stepper encoding chosen per nesting level. The four shapes are
//! [`IdxFlat`], [`StepFlat`], [`IdxNest`] and [`StepNest`]; every combinator
//! (`map`, `zip`, `filter`, `concat_map`, …) is defined once per shape —
//! exactly the "four equations per function" of the paper's Figure 2 — and
//! the output shape is determined solely by the input shape, so compositions
//! resolve statically. In this reproduction the static resolution is Rust
//! monomorphization: combinators return concrete generic types and rustc's
//! inliner performs the loop fusion GHC's simplifier performs in the paper.
//!
//! The crucial property: irregular producers (`filter`, `concat_map`) do
//! **not** destroy outer-loop parallelism. `filter` over an indexer produces
//! an *indexer of steppers* ([`IdxNest`]): each input index yields zero or
//! one outputs, so the outer loop can still be partitioned across nodes and
//! threads while the variable-length inner part stays sequential and fused.
//!
//! Indexers also carry the paper's §3.5 *data source / extractor* split:
//! [`Indexer::slice`] extracts a new indexer owning only the data a
//! [`Part`](triolet_domain::Part) touches, which is how distributed skeletons
//! send each node exactly the sub-arrays it reads.
//!
//! # Example
//!
//! ```
//! use triolet_iter::prelude::*;
//!
//! let xs = vec![1i64, -2, -4, 1, 3, 4];
//! // sum of filter: fuses into one loop, stays partitionable on the outside.
//! let s: i64 = array_iter(&xs).filter(|x: &i64| *x > 0).sum_scalar();
//! assert_eq!(s, 9);
//! ```

pub mod array;
pub mod collector;
pub mod indexer;
pub mod shapes;
pub mod sources;
pub mod stepper;

pub use array::{Array2, Array3};
pub use collector::{Collector, CountHist, VecCollector, WeightHist};
pub use indexer::{
    ArrayIdx, FnIdx, Indexer, MapIdx, OuterProductIdx, RangeIdx, StripRef, StripsIdx, Zip3Idx,
    ZipIdx,
};
pub use shapes::{IdxFlat, IdxNest, ParHint, StepFlat, StepNest, TrioIter};
pub use sources::{
    array2_iter, array_iter, enumerate, from_vec, indices, outerproduct, range, range2d,
    row_strips, rows, zip, zip3,
};

/// Everything a user of the iterator library typically needs.
pub mod prelude {
    pub use crate::array::{Array2, Array3};
    pub use crate::collector::{Collector, CountHist, VecCollector, WeightHist};
    pub use crate::shapes::{IdxFlat, IdxNest, ParHint, StepFlat, StepNest, TrioIter};
    pub use crate::sources::{
        array2_iter, array_iter, enumerate, from_vec, indices, outerproduct, range, range2d,
        row_strips, rows, zip, zip3,
    };
    pub use triolet_domain::{Dim2, Dim3, Domain, Part, Seq};
}
