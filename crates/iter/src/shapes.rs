//! The four hybrid iterator shapes and the [`TrioIter`] trait.
//!
//! The paper's `Iter` GADT (§3.2):
//!
//! ```text
//! data Iter a where
//!   IdxFlat  :: Idx a          -> Iter a
//!   StepFlat :: Step a         -> Iter a
//!   IdxNest  :: Idx (Iter a)   -> Iter a
//!   StepNest :: Step (Iter a)  -> Iter a
//! ```
//!
//! Here each constructor is a generic struct and each Figure 2 equation is
//! one trait-impl method: "a function's output loop structure is always
//! determined solely by its input loop structure, ensuring that any
//! composition of known function calls can be simplified statically." In
//! Rust, "statically simplified" is monomorphization + inlining; the
//! recursion through nested shapes terminates because each impl consumes one
//! level of statically known nesting, mirroring the paper's constructor-aware
//! inlining control.

use triolet_domain::{Domain, Part};

use crate::collector::Collector;
use crate::indexer::{Indexer, MapIdx};
use crate::stepper::{
    ConcatMapInner, ElemFn, ElemPred, FilterInner, FilterStep, FilterToStep, IdxStepper, IterFn,
    IterFnAdapter, MapInner, MapStep,
};

/// Degree of parallelism requested for an iterator (paper §3.4): the flag
/// set by `par` (distributed + threaded), `localpar` (threads of one node),
/// or left at `Sequential`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ParHint {
    /// Execute sequentially (the default).
    #[default]
    Sequential,
    /// Parallelize across the threads of the local node only.
    LocalPar,
    /// Parallelize across all cluster nodes and their threads.
    Par,
}

/// A fusible, possibly nested loop: the paper's `Iter`.
///
/// Consuming methods ([`TrioIter::fold_items`], the derived `sum`/`reduce`/
/// `collect` family) turn every level of nesting into a loop. Transforming
/// methods (`map`, `filter`, `concat_map`) return a new shape determined by
/// the input shape. Conversions to the lower-control encodings of the
/// paper's Figure 1 are [`TrioIter::into_step`] (stepper) and
/// [`TrioIter::collect_into`] (collector).
pub trait TrioIter: Sized {
    /// Element type produced by the loop nest.
    type Item;

    /// The parallelism flag carried by the outermost level.
    fn hint(&self) -> ParHint;

    /// Replace the parallelism flag.
    fn with_hint(self, h: ParHint) -> Self;

    /// Fold every element in order. `g` is taken by `&mut` so nested shapes
    /// can thread one closure through all inner loops.
    fn fold_items<B, G: FnMut(B, Self::Item) -> B>(self, init: B, g: &mut G) -> B;

    /// Convert to a stepper: the paper's `toStep`. Loses parallelism, keeps
    /// fusion.
    fn into_step(self) -> impl Iterator<Item = Self::Item>;

    /// Exact element count if statically countable (flat indexers only):
    /// nested shapes produce data-dependent counts.
    fn size_hint_exact(&self) -> Option<usize> {
        None
    }

    /// Output shape of [`TrioIter::map`].
    type Mapped<F: ElemFn<Self::Item>>: TrioIter<Item = F::Out>;

    /// Apply `f` to every element; preserves shape and the parallelism hint.
    fn map<F: ElemFn<Self::Item>>(self, f: F) -> Self::Mapped<F>;

    /// Output shape of [`TrioIter::filter`].
    type Filtered<P: ElemPred<Self::Item>>: TrioIter<Item = Self::Item>;

    /// Keep only elements satisfying `p`. On a flat indexer this produces an
    /// indexer *of steppers* (each index yields zero or one elements), which
    /// keeps the outer loop partitionable — the paper's key fusion move.
    fn filter<P: ElemPred<Self::Item>>(self, p: P) -> Self::Filtered<P>;

    /// Output shape of [`TrioIter::concat_map`].
    type ConcatMapped<F: IterFn<Self::Item>>: TrioIter<Item = <F::OutIter as TrioIter>::Item>;

    /// Replace each element by a whole inner iterator and flatten one level:
    /// the nested-traversal skeleton.
    fn concat_map<F: IterFn<Self::Item>>(self, f: F) -> Self::ConcatMapped<F>;

    /// Flatten one level of nesting: `concat_map` with the identity
    /// (for iterators whose elements are themselves iterators).
    fn flatten(self) -> Self::ConcatMapped<crate::stepper::IdentityIter>
    where
        Self::Item: TrioIter,
    {
        self.concat_map(crate::stepper::IdentityIter)
    }

    // -- derived consumers --------------------------------------------------

    /// Run `g` on every element.
    fn for_each<G: FnMut(Self::Item)>(self, mut g: G) {
        self.fold_items((), &mut |(), x| g(x));
    }

    /// Number of elements produced.
    fn count_items(self) -> usize {
        self.fold_items(0usize, &mut |n, _| n + 1)
    }

    /// Sum the elements starting from `Default::default()`.
    fn sum_scalar(self) -> Self::Item
    where
        Self::Item: Default + std::ops::Add<Output = Self::Item>,
    {
        self.fold_items(Self::Item::default(), &mut |a, x| a + x)
    }

    /// Combine all elements with `g`; `None` when empty.
    fn reduce_items<G: FnMut(Self::Item, Self::Item) -> Self::Item>(
        self,
        mut g: G,
    ) -> Option<Self::Item> {
        self.fold_items(None, &mut |acc, x| match acc {
            None => Some(x),
            Some(a) => Some(g(a, x)),
        })
    }

    /// Materialize into a vector.
    fn collect_vec(self) -> Vec<Self::Item> {
        let mut out = Vec::with_capacity(self.size_hint_exact().unwrap_or(0));
        self.fold_items((), &mut |(), x| out.push(x));
        out
    }

    /// Drain into a collector (the paper's imperative encoding — the only
    /// one that supports mutation, §3.1).
    fn collect_into<C: Collector<Item = Self::Item>>(self, c: &mut C) {
        self.fold_items((), &mut |(), x| c.feed(x));
    }

    // -- parallelism hints --------------------------------------------------

    /// Request distributed + threaded execution (the paper's `par`).
    fn par(self) -> Self {
        self.with_hint(ParHint::Par)
    }

    /// Request single-node threaded execution (the paper's `localpar`).
    fn localpar(self) -> Self {
        self.with_hint(ParHint::LocalPar)
    }
}

// ===========================================================================
// IdxFlat
// ===========================================================================

/// A flat indexer: a regular, random-access, partitionable loop.
#[derive(Clone)]
pub struct IdxFlat<I> {
    idx: I,
    hint: ParHint,
}

impl<I: Indexer> IdxFlat<I> {
    /// Wrap an indexer as a sequential iterator.
    pub fn new(idx: I) -> Self {
        IdxFlat { idx, hint: ParHint::Sequential }
    }

    /// The underlying indexer.
    pub fn indexer(&self) -> &I {
        &self.idx
    }

    /// Unwrap into the underlying indexer, discarding the hint.
    pub fn into_indexer(self) -> I {
        self.idx
    }

    /// The iteration domain.
    pub fn domain(&self) -> I::Dom {
        self.idx.domain()
    }

    /// Restrict to a part of the domain, keeping only that part's data
    /// (paper §3.5). The distributed engine calls this per node.
    pub fn slice_part(&self, part: &<I::Dom as Domain>::Part) -> Self {
        IdxFlat { idx: self.idx.slice(part), hint: self.hint }
    }

    /// Fold the elements of one part only (a node's or thread's share).
    pub fn fold_part<B, G: FnMut(B, I::Out) -> B>(
        &self,
        part: &<I::Dom as Domain>::Part,
        init: B,
        g: &mut G,
    ) -> B {
        let mut acc = init;
        for k in 0..part.count() {
            acc = g(acc, self.idx.get(part.index_at(k)));
        }
        acc
    }

    /// Packed byte size of the data sources (what would cross the wire).
    pub fn source_bytes(&self) -> usize {
        self.idx.source_size()
    }

    /// Push all data sources through pack/unpack — the node-boundary
    /// crossing (see [`crate::indexer::Indexer::roundtrip_source`]).
    pub fn roundtrip_data(self) -> Self {
        IdxFlat { idx: self.idx.roundtrip_source(), hint: self.hint }
    }
}

impl<I: Indexer> TrioIter for IdxFlat<I> {
    type Item = I::Out;

    fn hint(&self) -> ParHint {
        self.hint
    }

    fn with_hint(self, h: ParHint) -> Self {
        IdxFlat { idx: self.idx, hint: h }
    }

    fn fold_items<B, G: FnMut(B, I::Out) -> B>(self, init: B, g: &mut G) -> B {
        let dom = self.idx.domain();
        let mut acc = init;
        for k in 0..dom.count() {
            acc = g(acc, self.idx.get(dom.index_at(k)));
        }
        acc
    }

    fn into_step(self) -> impl Iterator<Item = I::Out> {
        IdxStepper::over_all(self.idx)
    }

    fn size_hint_exact(&self) -> Option<usize> {
        Some(self.idx.domain().count())
    }

    type Mapped<F: ElemFn<I::Out>> = IdxFlat<MapIdx<I, F>>;
    fn map<F: ElemFn<I::Out>>(self, f: F) -> Self::Mapped<F> {
        IdxFlat { idx: MapIdx::new(self.idx, f), hint: self.hint }
    }

    type Filtered<P: ElemPred<I::Out>> = IdxNest<MapIdx<I, FilterToStep<P>>>;
    fn filter<P: ElemPred<I::Out>>(self, p: P) -> Self::Filtered<P> {
        IdxNest { idx: MapIdx::new(self.idx, FilterToStep { p }), hint: self.hint }
    }

    type ConcatMapped<F: IterFn<I::Out>> = IdxNest<MapIdx<I, IterFnAdapter<F>>>;
    fn concat_map<F: IterFn<I::Out>>(self, f: F) -> Self::ConcatMapped<F> {
        IdxNest { idx: MapIdx::new(self.idx, IterFnAdapter { f }), hint: self.hint }
    }
}

// ===========================================================================
// StepFlat
// ===========================================================================

/// A flat stepper: a sequential, variable-length loop.
pub struct StepFlat<S> {
    it: S,
    hint: ParHint,
}

impl<S: Iterator> StepFlat<S> {
    /// Wrap a stepper as a sequential iterator.
    pub fn new(it: S) -> Self {
        StepFlat { it, hint: ParHint::Sequential }
    }
}

impl<S: Iterator> TrioIter for StepFlat<S> {
    type Item = S::Item;

    fn hint(&self) -> ParHint {
        self.hint
    }

    fn with_hint(self, h: ParHint) -> Self {
        StepFlat { it: self.it, hint: h }
    }

    fn fold_items<B, G: FnMut(B, S::Item) -> B>(self, init: B, g: &mut G) -> B {
        let mut acc = init;
        for x in self.it {
            acc = g(acc, x);
        }
        acc
    }

    fn into_step(self) -> impl Iterator<Item = S::Item> {
        self.it
    }

    type Mapped<F: ElemFn<S::Item>> = StepFlat<MapStep<S, F>>;
    fn map<F: ElemFn<S::Item>>(self, f: F) -> Self::Mapped<F> {
        StepFlat { it: MapStep { inner: self.it, f }, hint: self.hint }
    }

    type Filtered<P: ElemPred<S::Item>> = StepFlat<FilterStep<S, P>>;
    fn filter<P: ElemPred<S::Item>>(self, p: P) -> Self::Filtered<P> {
        StepFlat { it: FilterStep { inner: self.it, p }, hint: self.hint }
    }

    type ConcatMapped<F: IterFn<S::Item>> = StepNest<MapStep<S, IterFnAdapter<F>>>;
    fn concat_map<F: IterFn<S::Item>>(self, f: F) -> Self::ConcatMapped<F> {
        StepNest { it: MapStep { inner: self.it, f: IterFnAdapter { f } }, hint: self.hint }
    }
}

// ===========================================================================
// IdxNest
// ===========================================================================

/// An indexer of inner iterators: a partitionable outer loop whose inner
/// loops may be irregular. This is the shape that lets `filter` and
/// `concat_map` fuse *and* parallelize (paper §3.2).
#[derive(Clone)]
pub struct IdxNest<I> {
    idx: I,
    hint: ParHint,
}

impl<I: Indexer> IdxNest<I>
where
    I::Out: TrioIter,
{
    /// Wrap an indexer whose elements are iterators.
    pub fn new(idx: I) -> Self {
        IdxNest { idx, hint: ParHint::Sequential }
    }

    /// The underlying outer indexer.
    pub fn indexer(&self) -> &I {
        &self.idx
    }

    /// The outer iteration domain (inner lengths are data-dependent).
    pub fn outer_domain(&self) -> I::Dom {
        self.idx.domain()
    }

    /// Restrict the outer loop to a part, keeping only that part's data.
    pub fn slice_part(&self, part: &<I::Dom as Domain>::Part) -> Self {
        IdxNest { idx: self.idx.slice(part), hint: self.hint }
    }

    /// Fold the elements generated by one outer part only.
    pub fn fold_part<B, G: FnMut(B, <I::Out as TrioIter>::Item) -> B>(
        &self,
        part: &<I::Dom as Domain>::Part,
        init: B,
        g: &mut G,
    ) -> B {
        let mut acc = init;
        for k in 0..part.count() {
            let inner = self.idx.get(part.index_at(k));
            acc = inner.fold_items(acc, g);
        }
        acc
    }

    /// Packed byte size of the data sources (what would cross the wire).
    pub fn source_bytes(&self) -> usize {
        self.idx.source_size()
    }

    /// Push all data sources through pack/unpack — the node-boundary
    /// crossing (see [`crate::indexer::Indexer::roundtrip_source`]).
    pub fn roundtrip_data(self) -> Self {
        IdxNest { idx: self.idx.roundtrip_source(), hint: self.hint }
    }
}

impl<I: Indexer> TrioIter for IdxNest<I>
where
    I::Out: TrioIter,
{
    type Item = <I::Out as TrioIter>::Item;

    fn hint(&self) -> ParHint {
        self.hint
    }

    fn with_hint(self, h: ParHint) -> Self {
        IdxNest { idx: self.idx, hint: h }
    }

    fn fold_items<B, G: FnMut(B, Self::Item) -> B>(self, init: B, g: &mut G) -> B {
        let dom = self.idx.domain();
        let mut acc = init;
        for k in 0..dom.count() {
            let inner = self.idx.get(dom.index_at(k));
            acc = inner.fold_items(acc, g);
        }
        acc
    }

    fn into_step(self) -> impl Iterator<Item = Self::Item> {
        IdxStepper::over_all(self.idx).flat_map(|inner| inner.into_step())
    }

    type Mapped<F: ElemFn<Self::Item>> = IdxNest<MapIdx<I, MapInner<F>>>;
    fn map<F: ElemFn<Self::Item>>(self, f: F) -> Self::Mapped<F> {
        IdxNest { idx: MapIdx::new(self.idx, MapInner { f }), hint: self.hint }
    }

    type Filtered<P: ElemPred<Self::Item>> = IdxNest<MapIdx<I, FilterInner<P>>>;
    fn filter<P: ElemPred<Self::Item>>(self, p: P) -> Self::Filtered<P> {
        IdxNest { idx: MapIdx::new(self.idx, FilterInner { p }), hint: self.hint }
    }

    type ConcatMapped<F: IterFn<Self::Item>> = IdxNest<MapIdx<I, ConcatMapInner<F>>>;
    fn concat_map<F: IterFn<Self::Item>>(self, f: F) -> Self::ConcatMapped<F> {
        IdxNest { idx: MapIdx::new(self.idx, ConcatMapInner { f }), hint: self.hint }
    }
}

// ===========================================================================
// StepNest
// ===========================================================================

/// A stepper of inner iterators: a fully sequential nested loop.
pub struct StepNest<S> {
    it: S,
    hint: ParHint,
}

impl<S: Iterator> StepNest<S>
where
    S::Item: TrioIter,
{
    /// Wrap a stepper whose elements are iterators.
    pub fn new(it: S) -> Self {
        StepNest { it, hint: ParHint::Sequential }
    }
}

impl<S: Iterator> TrioIter for StepNest<S>
where
    S::Item: TrioIter,
{
    type Item = <S::Item as TrioIter>::Item;

    fn hint(&self) -> ParHint {
        self.hint
    }

    fn with_hint(self, h: ParHint) -> Self {
        StepNest { it: self.it, hint: h }
    }

    fn fold_items<B, G: FnMut(B, Self::Item) -> B>(self, init: B, g: &mut G) -> B {
        let mut acc = init;
        for inner in self.it {
            acc = inner.fold_items(acc, g);
        }
        acc
    }

    fn into_step(self) -> impl Iterator<Item = Self::Item> {
        self.it.flat_map(|inner| inner.into_step())
    }

    type Mapped<F: ElemFn<Self::Item>> = StepNest<MapStep<S, MapInner<F>>>;
    fn map<F: ElemFn<Self::Item>>(self, f: F) -> Self::Mapped<F> {
        StepNest { it: MapStep { inner: self.it, f: MapInner { f } }, hint: self.hint }
    }

    type Filtered<P: ElemPred<Self::Item>> = StepNest<MapStep<S, FilterInner<P>>>;
    fn filter<P: ElemPred<Self::Item>>(self, p: P) -> Self::Filtered<P> {
        StepNest { it: MapStep { inner: self.it, f: FilterInner { p } }, hint: self.hint }
    }

    type ConcatMapped<F: IterFn<Self::Item>> = StepNest<MapStep<S, ConcatMapInner<F>>>;
    fn concat_map<F: IterFn<Self::Item>>(self, f: F) -> Self::ConcatMapped<F> {
        StepNest { it: MapStep { inner: self.it, f: ConcatMapInner { f } }, hint: self.hint }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexer::ArrayIdx;

    fn arr(v: Vec<i64>) -> IdxFlat<ArrayIdx<i64>> {
        IdxFlat::new(ArrayIdx::new(v))
    }

    #[test]
    fn idxflat_fold_and_sum() {
        let s: i64 = arr(vec![1, 2, 3, 4]).sum_scalar();
        assert_eq!(s, 10);
    }

    #[test]
    fn map_fuses_with_sum() {
        let s: i64 = arr((1..=5).collect()).map(|x: i64| x * x).sum_scalar();
        assert_eq!(s, 55);
    }

    #[test]
    fn filter_produces_partitionable_nest_with_right_elements() {
        // sum . filter over an indexer: the paper's running example (§3.2).
        let it = arr(vec![1, -2, -4, 1, 3, 4]).filter(|x: &i64| *x > 0);
        assert_eq!(it.collect_vec(), vec![1, 1, 3, 4]);
    }

    #[test]
    fn filter_then_sum() {
        let s: i64 = arr(vec![1, -2, -4, 1, 3, 4]).filter(|x: &i64| *x > 0).sum_scalar();
        assert_eq!(s, 9);
    }

    #[test]
    fn filter_part_folding_matches_partition() {
        // Partition the outer loop of a filtered iterator: the two halves'
        // results concatenate to the whole — the property that makes
        // irregular loops parallelizable.
        let it = arr(vec![1, -2, -4, 1, 3, 4]).filter(|x: &i64| *x > 0);
        let dom = it.outer_domain();
        let parts = dom.split_parts(2);
        let mut combined = Vec::new();
        for p in &parts {
            let sub = it.slice_part(p);
            sub.fold_part(p, (), &mut |(), x| combined.push(x));
        }
        assert_eq!(combined, vec![1, 1, 3, 4]);
    }

    #[test]
    fn concat_map_nested_traversal() {
        // Each x expands to [x, x, x] (a computed inner loop).
        let it = arr(vec![1, 2, 3])
            .concat_map(|x: i64| StepFlat::new(std::iter::repeat_n(x, x as usize)));
        assert_eq!(it.collect_vec(), vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn concat_map_then_filter_then_sum() {
        let s: i64 = arr(vec![1, 2, 3, 4])
            .concat_map(|x: i64| StepFlat::new((0..x).map(move |y| x * 10 + y)))
            .filter(|v: &i64| v % 2 == 0)
            .sum_scalar();
        // Elements: 10, 20,21, 30,31,32, 40,41,42,43 → even: 10,20,30,32,40,42
        assert_eq!(s, 174);
    }

    #[test]
    fn map_after_filter_recurses_into_nest() {
        let v =
            arr(vec![1, -1, 2, -2, 3]).filter(|x: &i64| *x > 0).map(|x: i64| x * 100).collect_vec();
        assert_eq!(v, vec![100, 200, 300]);
    }

    #[test]
    fn filter_after_filter() {
        let v = arr((0..20).collect())
            .filter(|x: &i64| x % 2 == 0)
            .filter(|x: &i64| x % 3 == 0)
            .collect_vec();
        assert_eq!(v, vec![0, 6, 12, 18]);
    }

    #[test]
    fn into_step_flattens_nests() {
        let steps: Vec<i64> =
            arr(vec![3, 1, 2]).concat_map(|x: i64| StepFlat::new(0..x)).into_step().collect();
        assert_eq!(steps, vec![0, 1, 2, 0, 0, 1]);
    }

    #[test]
    fn hints_propagate_through_map() {
        let it = arr(vec![1, 2]).par().map(|x: i64| x);
        assert_eq!(it.hint(), ParHint::Par);
        let it = arr(vec![1, 2]).localpar().filter(|_: &i64| true);
        assert_eq!(it.hint(), ParHint::LocalPar);
    }

    #[test]
    fn size_hint_exact_flat_only() {
        assert_eq!(arr(vec![1, 2, 3]).size_hint_exact(), Some(3));
        assert_eq!(arr(vec![1, 2, 3]).filter(|_: &i64| true).size_hint_exact(), None);
    }

    #[test]
    fn reduce_and_count() {
        assert_eq!(arr(vec![4, 7, 1]).reduce_items(i64::max), Some(7));
        assert_eq!(arr(vec![]).reduce_items(i64::max), None);
        assert_eq!(arr(vec![5, 5]).count_items(), 2);
        assert_eq!(arr(vec![1, -1, 1]).filter(|x: &i64| *x > 0).count_items(), 2);
    }

    #[test]
    fn stepflat_combinators() {
        let it = StepFlat::new(0i64..10);
        let v = it.map(|x: i64| x + 1).filter(|x: &i64| x % 2 == 0).collect_vec();
        assert_eq!(v, vec![2, 4, 6, 8, 10]);
    }

    #[test]
    fn stepnest_via_concat_map_on_stepflat() {
        let it =
            StepFlat::new(1i64..4).concat_map(|x: i64| StepFlat::new(std::iter::repeat_n(x, 2)));
        assert_eq!(it.collect_vec(), vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn flatten_equals_concat_map_identity() {
        let it = arr(vec![1, 2, 3]).map(|x: i64| StepFlat::new(0..x)).flatten();
        assert_eq!(it.collect_vec(), vec![0, 0, 1, 0, 1, 2]);
    }

    #[test]
    fn deep_nesting_three_levels() {
        // concat_map of concat_map: IdxNest of nested inner shapes.
        let v = arr(vec![2, 3])
            .concat_map(|x: i64| {
                StepFlat::new(0..x).concat_map(|y: i64| StepFlat::new(std::iter::once(y * 2)))
            })
            .collect_vec();
        assert_eq!(v, vec![0, 2, 0, 2, 4]);
    }
}
