//! User-facing constructors: the library functions application code calls to
//! start a loop (paper §2's `zip`, `rows`, `outerproduct`, `range`, …).

use triolet_domain::{Dim2, Domain, Seq};
use triolet_serial::Wire;

use crate::array::Array2;
use crate::indexer::{ArrayIdx, Indexer, OuterProductIdx, RangeIdx, StripsIdx, Zip3Idx, ZipIdx};
use crate::shapes::{IdxFlat, StepFlat, TrioIter};

/// Iterate an owned vector (becomes a shared, sliceable data source).
pub fn from_vec<T: Wire + Clone + Send + Sync + 'static>(v: Vec<T>) -> IdxFlat<ArrayIdx<T>> {
    IdxFlat::new(ArrayIdx::new(v))
}

/// Iterate a borrowed slice; the elements are copied once into a shared
/// source (a real cluster must own the data it ships anyway).
pub fn array_iter<T: Wire + Clone + Send + Sync + 'static>(xs: &[T]) -> IdxFlat<ArrayIdx<T>> {
    from_vec(xs.to_vec())
}

/// The integers `0..n` as a parallel-friendly iterator.
pub fn range(n: usize) -> IdxFlat<RangeIdx<Seq>> {
    IdxFlat::new(RangeIdx::new(Seq::new(n)))
}

/// All `(row, col)` pairs of an `rows x cols` space, row-major — the paper's
/// `arrayRange((0,0), (h, w))` for transpose-style loops.
pub fn range2d(rows: usize, cols: usize) -> IdxFlat<RangeIdx<Dim2>> {
    IdxFlat::new(RangeIdx::new(Dim2::new(rows, cols)))
}

/// All indices of an arbitrary domain — the paper's `indices(domain(xs))`.
pub fn indices<D: Domain>(dom: D) -> IdxFlat<RangeIdx<D>> {
    IdxFlat::new(RangeIdx::new(dom))
}

/// View a matrix as an iterator over its rows — the paper's `rows(A)` (§2):
/// [`row_strips`] one row high, so each element is a one-row
/// [`StripRef`](crate::indexer::StripRef).
pub fn rows<T: Wire + Clone + Send + Sync + 'static>(a: &Array2<T>) -> IdxFlat<StripsIdx<T>> {
    row_strips(a, 1)
}

/// View a matrix as an iterator over fixed-height row *strips*, the form
/// tiled block kernels consume. Each element is a
/// [`StripRef`](crate::indexer::StripRef) carrying its global row
/// coordinates. The backing data is shared once; slicing ships only the
/// addressed strips.
pub fn row_strips<T: Wire + Clone + Send + Sync + 'static>(
    a: &Array2<T>,
    strip_rows: usize,
) -> IdxFlat<StripsIdx<T>> {
    IdxFlat::new(StripsIdx::new(a.to_shared(), a.rows(), a.cols(), strip_rows))
}

/// Iterate a matrix's elements in row-major order with a `Dim2` domain.
#[allow(clippy::type_complexity)]
pub fn array2_iter<T: Wire + Clone + Send + Sync + 'static>(
    a: &Array2<T>,
) -> IdxFlat<crate::indexer::FnIdx<Dim2, impl Fn((usize, usize)) -> T + Clone>> {
    let data = a.to_shared();
    let cols = a.cols();
    IdxFlat::new(crate::indexer::FnIdx::new(a.domain(), move |(r, c): (usize, usize)| {
        data[r * cols + c].clone()
    }))
}

/// Pair two flat iterators index-by-index over the intersection of their
/// domains. Both data sources are sliced together when distributed.
pub fn zip<A, B>(a: IdxFlat<A>, b: IdxFlat<B>) -> IdxFlat<ZipIdx<A, B>>
where
    A: Indexer,
    B: Indexer<Dom = A::Dom>,
    A::Out: Send + 'static,
    B::Out: Send + 'static,
{
    let hint = a.hint();
    IdxFlat::new(ZipIdx::new(a.into_indexer(), b.into_indexer())).with_hint(hint)
}

/// Triple three flat iterators index-by-index (mri-q's `zip3(x, y, z)`).
pub fn zip3<A, B, C>(a: IdxFlat<A>, b: IdxFlat<B>, c: IdxFlat<C>) -> IdxFlat<Zip3Idx<A, B, C>>
where
    A: Indexer,
    B: Indexer<Dom = A::Dom>,
    C: Indexer<Dom = A::Dom>,
    A::Out: Send + 'static,
    B::Out: Send + 'static,
    C::Out: Send + 'static,
{
    let hint = a.hint();
    IdxFlat::new(Zip3Idx::new(a.into_indexer(), b.into_indexer(), c.into_indexer())).with_hint(hint)
}

/// Pair each element with its index: `zip(indices(domain(xs)), xs)` — the
/// idiom tpacf's Figure 6 uses to drive triangular loops.
pub fn enumerate<A>(a: IdxFlat<A>) -> IdxFlat<ZipIdx<RangeIdx<A::Dom>, A>>
where
    A: Indexer,
    A::Out: Send + 'static,
{
    let hint = a.hint();
    let dom = a.domain();
    IdxFlat::new(ZipIdx::new(RangeIdx::new(dom), a.into_indexer())).with_hint(hint)
}

/// Cross two 1-D iterators into a 2-D iterator of pairs — the paper's
/// `outerproduct(rows(A), rows(BT))` (§2). Slicing a 2-D block extracts only
/// the covering row/column ranges of the two inputs.
pub fn outerproduct<A, B>(a: IdxFlat<A>, b: IdxFlat<B>) -> IdxFlat<OuterProductIdx<A, B>>
where
    A: Indexer<Dom = Seq>,
    B: Indexer<Dom = Seq>,
    A::Out: Send + 'static,
    B::Out: Send + 'static,
{
    let hint = a.hint();
    IdxFlat::new(OuterProductIdx::new(a.into_indexer(), b.into_indexer())).with_hint(hint)
}

/// Zip two arbitrary-shape iterators sequentially via steppers: the fallback
/// equation of the paper's Figure 2 `zip` for non-indexer shapes. Loses
/// parallelism (steppers are sequential) but keeps fusion.
pub fn zip_seq<A, B>(
    a: A,
    b: B,
) -> StepFlat<std::iter::Zip<impl Iterator<Item = A::Item>, impl Iterator<Item = B::Item>>>
where
    A: TrioIter,
    B: TrioIter,
{
    StepFlat::new(a.into_step().zip(b.into_step()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::TrioIter;

    #[test]
    fn range_sums() {
        let s: usize = range(10).sum_scalar();
        assert_eq!(s, 45);
    }

    #[test]
    fn range2d_row_major() {
        let v = range2d(2, 2).collect_vec();
        assert_eq!(v, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn dot_product_via_zip_map_sum() {
        // The paper's §2 dot product: sum(x*y for (x,y) in zip(xs, ys)).
        let xs = vec![1.0f64, 2.0, 3.0];
        let ys = vec![4.0f64, 5.0, 6.0];
        let dot: f64 =
            zip(array_iter(&xs), array_iter(&ys)).map(|(x, y): (f64, f64)| x * y).sum_scalar();
        assert_eq!(dot, 32.0);
    }

    #[test]
    fn zip_truncates_to_intersection() {
        let v = zip(range(5), array_iter(&[10u64, 20])).collect_vec();
        assert_eq!(v, vec![(0, 10), (1, 20)]);
    }

    #[test]
    fn zip3_triples() {
        let v = zip3(range(2), range(2), range(2)).collect_vec();
        assert_eq!(v, vec![(0, 0, 0), (1, 1, 1)]);
    }

    #[test]
    fn rows_then_outerproduct_matmul_structure() {
        // 2x2 matrix product structure: outerproduct(rows(A), rows(Bt)).
        let a = Array2::from_vec(vec![1.0f64, 2.0, 3.0, 4.0], 2, 2);
        let b_t = Array2::from_vec(vec![5.0f64, 7.0, 6.0, 8.0], 2, 2); // B transposed
        let prod = outerproduct(rows(&a), rows(&b_t))
            .map(|(u, v): (crate::indexer::StripRef<f64>, crate::indexer::StripRef<f64>)| {
                u.as_slice().iter().zip(v.as_slice()).map(|(x, y)| x * y).sum::<f64>()
            })
            .collect_vec();
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]]  => AB = [[19,22],[43,50]]
        assert_eq!(prod, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn array2_iter_yields_elements() {
        let a = Array2::from_fn(2, 3, |r, c| (r * 3 + c) as i64);
        let s: i64 = array2_iter(&a).sum_scalar();
        assert_eq!(s, 15);
    }

    #[test]
    fn zip_seq_mixed_shapes() {
        // Zip a filtered (nested) iterator with a flat one: falls back to
        // sequential steppers, per Figure 2.
        let evens = range(10).map(|i: usize| i as i64).filter(|x: &i64| x % 2 == 0);
        let tags = array_iter(&[10i64, 20, 30, 40, 50]);
        let v = zip_seq(evens, tags).collect_vec();
        assert_eq!(v, vec![(0, 10), (2, 20), (4, 30), (6, 40), (8, 50)]);
    }

    #[test]
    fn enumerate_pairs_index_and_element() {
        let v = enumerate(array_iter(&[10i64, 20, 30])).collect_vec();
        assert_eq!(v, vec![(0, 10), (1, 20), (2, 30)]);
        // The triangular-loop idiom: suffix pairs per element.
        let n = enumerate(array_iter(&[5i64, 6, 7]))
            .concat_map(|(i, _x): (usize, i64)| StepFlat::new(i + 1..3))
            .count_items();
        assert_eq!(n, (2 + 1));
    }

    #[test]
    fn par_hint_survives_zip() {
        let it = zip(range(4).par(), range(4));
        assert_eq!(it.hint(), crate::shapes::ParHint::Par);
    }
}
