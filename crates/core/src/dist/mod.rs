//! Distributed data: partitionable iterators, persistent collections, and
//! the unified skeleton-input abstraction.
//!
//! Three layers build on each other:
//!
//! * [`DistIter`] — iterators whose outer loop can be partitioned and whose
//!   data sources can be sliced per part (the paper's §3.2/§3.5 machinery).
//! * [`DistVec`] / [`DistArray2`] — *persistent* collections whose segments
//!   are scattered once ([`Triolet::scatter`](crate::Triolet::scatter)) and
//!   stay resident across skeleton calls on the owners the collection's own
//!   per-segment cells name, with views ([`DistVec::slice`], [`DistVec::zip`],
//!   [`DistVec::enumerate`], [`DistVec::halo`]) that describe per-rank
//!   subranges without moving data.
//!   A view is itself an iterator per segment: the segment as the indexer
//!   it already is (an `ArrayIdx` window answering the collection's global
//!   indices, zipped with `RangeIdx` for an index or mapped over it for a
//!   window or a row).
//! * [`IntoDistInput`] / [`AsEnv`] — the unified input abstraction: every
//!   skeleton entry point has exactly one signature, accepting a local
//!   iterator, a resident collection view, and either a plain `&E`
//!   environment or a pre-packed [`PackedEnv`]. Either input resolves to a
//!   [`DistIter`] per part, so the engine's node bodies have one element
//!   protocol.

mod input;
mod iter;
mod vec;

pub(crate) use input::Owners;
pub use input::{AsEnv, DistInput, IntoDistInput, PackedEnv};
pub use iter::DistIter;
pub(crate) use vec::Seg;
pub use vec::{DistArray2, DistVec, EnumView, HaloView, RowsView, SliceView, ZipView};
