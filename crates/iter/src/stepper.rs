//! The stepper encoding and the named function objects that drive fusion.
//!
//! A stepper is a coroutine that yields one element per step (paper §3.1) —
//! in Rust, exactly [`Iterator`]. This module provides:
//!
//! * [`ElemFn`] / [`ElemPred`] — statically dispatched function objects.
//!   Plain closures implement them via blanket impls; the library also
//!   defines *named* functors ([`MapInner`], [`FilterInner`], …) for the
//!   recursive equations of the paper's Figure 2, which stable Rust cannot
//!   express with closures (no user impls of the `Fn` traits).
//! * [`IdxStepper`] — drives an indexer over a domain [`Part`] as a stepper
//!   (the paper's `idxToStep` conversion).
//! * [`MapStep`] / [`FilterStep`] — fused stepper adapters used by the
//!   `StepFlat`/`StepNest` equations.

use triolet_domain::{Domain, Part};

use crate::indexer::Indexer;
use crate::shapes::TrioIter;

/// A cloneable, statically dispatched unary function. The analogue of the
/// functions Triolet's optimizer inlines during fusion: because the concrete
/// type is known, rustc inlines the body into the consuming loop.
pub trait ElemFn<In>: Clone + Send + Sync + 'static {
    /// Result type.
    type Out;
    /// Apply the function.
    fn call(&self, x: In) -> Self::Out;
}

impl<In, O, F> ElemFn<In> for F
where
    F: Fn(In) -> O + Clone + Send + Sync + 'static,
{
    type Out = O;
    #[inline]
    fn call(&self, x: In) -> O {
        self(x)
    }
}

/// A cloneable, statically dispatched function returning an *iterator* —
/// the argument of `concat_map`. The `TrioIter` bound lives on the
/// associated type, so downstream code never needs a separate
/// `F::Out: TrioIter` side-condition.
pub trait IterFn<In>: Clone + Send + Sync + 'static {
    /// The inner iterator produced per element.
    type OutIter: TrioIter;
    /// Apply the function.
    fn call_iter(&self, x: In) -> Self::OutIter;
}

impl<In, R, F> IterFn<In> for F
where
    R: TrioIter,
    F: Fn(In) -> R + Clone + Send + Sync + 'static,
{
    type OutIter = R;
    #[inline]
    fn call_iter(&self, x: In) -> R {
        self(x)
    }
}

/// The identity [`IterFn`]: `flatten` is `concat_map(IdentityIter)`.
#[derive(Clone, Copy, Default)]
pub struct IdentityIter;

impl<R: TrioIter> IterFn<R> for IdentityIter {
    type OutIter = R;
    #[inline]
    fn call_iter(&self, x: R) -> R {
        x
    }
}

/// Adapter presenting an [`IterFn`] as an [`ElemFn`] so it can live inside
/// `MapIdx`/`MapStep` (named functors cannot implement the `Fn` traits on
/// stable Rust).
#[derive(Clone)]
pub struct IterFnAdapter<F> {
    pub(crate) f: F,
}

impl<In, F> ElemFn<In> for IterFnAdapter<F>
where
    F: IterFn<In>,
{
    type Out = F::OutIter;
    #[inline]
    fn call(&self, x: In) -> F::OutIter {
        self.f.call_iter(x)
    }
}

/// A cloneable, statically dispatched predicate over borrowed elements.
pub trait ElemPred<T>: Clone + Send + Sync + 'static {
    /// Test the element.
    fn test(&self, x: &T) -> bool;
}

impl<T, F> ElemPred<T> for F
where
    F: Fn(&T) -> bool + Clone + Send + Sync + 'static,
{
    fn test(&self, x: &T) -> bool {
        self(x)
    }
}

// ---------------------------------------------------------------------------
// Named functors for the recursive Figure 2 equations
// ---------------------------------------------------------------------------

/// Functor mapping `f` over a *nested* iterator: the `mapIdx (map f)` /
/// `mapStep (map f)` halves of Figure 2's nested-shape equations.
#[derive(Clone)]
pub struct MapInner<F> {
    pub(crate) f: F,
}

impl<R, F> ElemFn<R> for MapInner<F>
where
    R: TrioIter,
    F: ElemFn<R::Item>,
{
    type Out = R::Mapped<F>;
    #[inline]
    fn call(&self, inner: R) -> Self::Out {
        inner.map(self.f.clone())
    }
}

/// Functor filtering a nested iterator: `mapIdx (filter f)` of Figure 2.
#[derive(Clone)]
pub struct FilterInner<P> {
    pub(crate) p: P,
}

impl<R, P> ElemFn<R> for FilterInner<P>
where
    R: TrioIter,
    P: ElemPred<R::Item>,
{
    type Out = R::Filtered<P>;
    #[inline]
    fn call(&self, inner: R) -> Self::Out {
        inner.filter(self.p.clone())
    }
}

/// Functor concat-mapping a nested iterator: `mapIdx (concatMap f)`.
#[derive(Clone)]
pub struct ConcatMapInner<F> {
    pub(crate) f: F,
}

impl<R, F> ElemFn<R> for ConcatMapInner<F>
where
    R: TrioIter,
    F: IterFn<R::Item>,
{
    type Out = R::ConcatMapped<F>;
    #[inline]
    fn call(&self, inner: R) -> Self::Out {
        inner.concat_map(self.f.clone())
    }
}

/// Functor turning one element into a zero-or-one-element stepper: the
/// `StepFlat . filterStep f . unitStep` composition in Figure 2's `filter`
/// equation for flat indexers. Each input index yields its element if the
/// predicate holds, else nothing — indices are never reassigned, which is
/// what keeps the outer loop partitionable.
#[derive(Clone)]
pub struct FilterToStep<P> {
    pub(crate) p: P,
}

impl<T, P> ElemFn<T> for FilterToStep<P>
where
    P: ElemPred<T>,
{
    type Out = crate::shapes::StepFlat<std::option::IntoIter<T>>;
    #[inline]
    fn call(&self, x: T) -> Self::Out {
        let keep = self.p.test(&x);
        crate::shapes::StepFlat::new(if keep { Some(x) } else { None }.into_iter())
    }
}

// ---------------------------------------------------------------------------
// Stepper adapters
// ---------------------------------------------------------------------------

/// Drive an indexer over a part as a stepper: the paper's `idxToStep`.
pub struct IdxStepper<I: Indexer> {
    idx: I,
    part: <I::Dom as Domain>::Part,
    k: usize,
}

impl<I: Indexer> IdxStepper<I> {
    /// Step through `idx` restricted to `part`, in the part's row-major
    /// order.
    pub fn over_part(idx: I, part: <I::Dom as Domain>::Part) -> Self {
        IdxStepper { idx, part, k: 0 }
    }

    /// Step through the whole domain of `idx`.
    pub fn over_all(idx: I) -> Self {
        let part = idx.domain().whole_part();
        IdxStepper { idx, part, k: 0 }
    }
}

impl<I: Indexer> Iterator for IdxStepper<I> {
    type Item = I::Out;

    #[inline]
    fn next(&mut self) -> Option<I::Out> {
        if self.k >= self.part.count() {
            return None;
        }
        let idx = self.part.index_at(self.k);
        self.k += 1;
        Some(self.idx.get(idx))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.part.count() - self.k;
        (rem, Some(rem))
    }
}

impl<I: Indexer> ExactSizeIterator for IdxStepper<I> {}

/// Fused `map` over a stepper using an [`ElemFn`] (std's `Map` requires a
/// closure type, which the named functors are not).
pub struct MapStep<S, F> {
    pub(crate) inner: S,
    pub(crate) f: F,
}

impl<S, F> Iterator for MapStep<S, F>
where
    S: Iterator,
    F: ElemFn<S::Item>,
{
    type Item = F::Out;

    #[inline]
    fn next(&mut self) -> Option<F::Out> {
        self.inner.next().map(|x| self.f.call(x))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Fused `filter` over a stepper using an [`ElemPred`] — the paper's
/// `filterStep`.
pub struct FilterStep<S, P> {
    pub(crate) inner: S,
    pub(crate) p: P,
}

impl<S, P> Iterator for FilterStep<S, P>
where
    S: Iterator,
    P: ElemPred<S::Item>,
{
    type Item = S::Item;

    #[inline]
    fn next(&mut self) -> Option<S::Item> {
        loop {
            let x = self.inner.next()?;
            if self.p.test(&x) {
                return Some(x);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.inner.size_hint().1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexer::ArrayIdx;
    use triolet_domain::SeqPart;

    #[test]
    fn idx_stepper_whole_domain() {
        let s = IdxStepper::over_all(ArrayIdx::new(vec![5u32, 6, 7]));
        assert_eq!(s.collect::<Vec<_>>(), vec![5, 6, 7]);
    }

    #[test]
    fn idx_stepper_part_only() {
        let idx = ArrayIdx::new((0..10i64).collect());
        let s = IdxStepper::over_part(idx, SeqPart::new(4, 3));
        assert_eq!(s.collect::<Vec<_>>(), vec![4, 5, 6]);
    }

    #[test]
    fn idx_stepper_exact_size() {
        let idx = ArrayIdx::new((0..10i64).collect());
        let mut s = IdxStepper::over_part(idx, SeqPart::new(0, 5));
        assert_eq!(s.len(), 5);
        s.next();
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn map_step_applies() {
        let m = MapStep { inner: vec![1, 2, 3].into_iter(), f: |x: i32| x * 10 };
        assert_eq!(m.collect::<Vec<_>>(), vec![10, 20, 30]);
    }

    #[test]
    fn filter_step_skips() {
        let f = FilterStep {
            inner: (0..10).collect::<Vec<i32>>().into_iter(),
            p: |x: &i32| x % 3 == 0,
        };
        assert_eq!(f.collect::<Vec<_>>(), vec![0, 3, 6, 9]);
    }
}
