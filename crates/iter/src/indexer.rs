//! The indexer encoding: random-access virtual data structures.
//!
//! An indexer is the paper's `(domain, lookup-function)` pair (§3.1), with
//! the §3.5 refinement that the lookup function is split into a *data source*
//! (the arrays it reads — potentially large, shipped over the wire) and an
//! *extractor* (code — free to ship). The [`Indexer::slice`] method builds a
//! new indexer whose data source holds only the elements a
//! [`Part`](triolet_domain::Part) touches; distributed skeletons use it to
//! send each node exactly the data its tasks read, with no compile-time
//! array-reference analysis.
//!
//! Slices are values, so sharing is visible: every `slice` call of one
//! skeleton invocation goes through the same [`SliceMemo`], and two parts
//! that read the same window of the same buffer get the *same* `Arc`.
//! [`Indexer::pieces`] then lists each sliced buffer with that `Arc`'s
//! address as its identity, which is all the cluster needs to ship a window
//! two tasks share once instead of twice.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use triolet_domain::{Dim2, Dim2Part, Domain, Seq, SeqPart};
use triolet_serial::{packed, unpack_all, Piece, Wire};

/// A buffer of some element type, held only to share it or keep it alive.
type SharedBuf = Arc<dyn Any + Send + Sync>;

/// The windows already copied out during one skeleton call, keyed by
/// `(source buffer, offset, length)`.
///
/// The first part to read a window pays for the copy; every later part
/// reading the same window is handed the same `Arc`. Create one per call
/// and drop it with the call. A key names its source buffer by address, so
/// the memo keeps every source it has sliced alive beside the window: no
/// other buffer can take that address while the entry exists.
#[derive(Default)]
pub struct SliceMemo {
    windows: BTreeMap<(usize, usize, usize), (SharedBuf, SharedBuf)>,
}

impl SliceMemo {
    /// `src[lo..lo + len]` as an owned, shared buffer.
    fn window<T: Clone + Send + Sync + 'static>(
        &mut self,
        src: &Arc<Vec<T>>,
        lo: usize,
        len: usize,
    ) -> Arc<Vec<T>> {
        let key = (Arc::as_ptr(src) as usize, lo, len);
        let (_source, window) = self.windows.entry(key).or_insert_with(|| {
            (Arc::clone(src) as SharedBuf, Arc::new(src[lo..lo + len].to_vec()) as SharedBuf)
        });
        Arc::clone(window).downcast().expect("a live buffer has one element type")
    }
}

/// The piece for one array-backed data source: the buffer's packed elements
/// plus `header` bytes of coordinates, identified by the buffer.
fn buffer_piece<T: Wire>(data: &Arc<Vec<T>>, header: usize) -> Piece {
    let (id, bytes) = (Some(Arc::as_ptr(data) as usize), T::slice_packed_size(data) + header);
    Piece { id, bytes, holder: None }
}

/// Random-access virtual collection over a [`Domain`].
///
/// Cloning an indexer is cheap (data sources are reference-counted); slicing
/// copies out only the addressed window. `pieces`, `source_size` and
/// `roundtrip_source` exist for the distributed engine: the first two say
/// which buffers this indexer's data occupies on the wire and how many bytes
/// that is, the last actually pushes the data through pack/unpack — the
/// moment at which, in a real cluster, the bytes would cross the network.
pub trait Indexer: Clone + Send + Sync + 'static {
    /// The iteration space.
    type Dom: Domain;
    /// Element produced per index point.
    type Out;

    /// The domain this indexer answers.
    fn domain(&self) -> Self::Dom;

    /// Retrieve the element at `idx`. Indices use *global* coordinates even
    /// after slicing: a sliced indexer answers exactly the indices inside its
    /// part and must not be asked about others.
    fn get(&self, idx: <Self::Dom as Domain>::Index) -> Self::Out;

    /// Extract an indexer owning only the data `part` touches (paper §3.5).
    /// Windows already in `memo` are shared, not copied again.
    fn slice(&self, part: &<Self::Dom as Domain>::Part, memo: &mut SliceMemo) -> Self;

    /// Append this indexer's data sources to `out`, one [`Piece`] each.
    /// Combinators only forward to the indexers they wrap.
    fn pieces(&self, out: &mut Vec<Piece>);

    /// Packed byte size of the data sources (what the wire would carry):
    /// the sum of [`pieces`](Self::pieces).
    fn source_size(&self) -> usize {
        let mut pieces = Vec::new();
        self.pieces(&mut pieces);
        pieces.iter().map(|p| p.bytes).sum()
    }

    /// Push every data source through pack/unpack, yielding an equivalent
    /// indexer whose data provably survived serialization. The distributed
    /// engine calls this on the slice it ships to a node.
    fn roundtrip_source(self) -> Self;
}

// ---------------------------------------------------------------------------
// ArrayIdx: a 1-D array as an indexer
// ---------------------------------------------------------------------------

/// A one-dimensional array viewed as an indexer: the workhorse data source.
///
/// Holds the backing data behind an [`Arc`]; `base` is the global index of
/// `data[0]`, so a sliced `ArrayIdx` still answers global indices.
pub struct ArrayIdx<T> {
    data: Arc<Vec<T>>,
    base: usize,
    dom: Seq,
}

impl<T> Clone for ArrayIdx<T> {
    fn clone(&self) -> Self {
        ArrayIdx { data: Arc::clone(&self.data), base: self.base, dom: self.dom }
    }
}

impl<T: Clone + Send + Sync + 'static> ArrayIdx<T> {
    /// Wrap an owned vector; the domain is its full length.
    pub fn new(data: Vec<T>) -> Self {
        let dom = Seq::new(data.len());
        ArrayIdx { data: Arc::new(data), base: 0, dom }
    }

    /// Wrap an already shared vector without copying.
    pub fn from_arc(data: Arc<Vec<T>>) -> Self {
        let dom = Seq::new(data.len());
        ArrayIdx { data, base: 0, dom }
    }

    /// A window of a `len`-element array that is already cut: `data` holds
    /// the elements at global indices `base .. base + data.len()`, as a
    /// sliced `ArrayIdx` would.
    pub fn window(data: Arc<Vec<T>>, base: usize, len: usize) -> Self {
        debug_assert!(base + data.len() <= len);
        ArrayIdx { data, base, dom: Seq::new(len) }
    }

    /// Global index of the first locally held element.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Locally held elements (the current window).
    pub fn local_data(&self) -> &[T] {
        &self.data
    }
}

impl<T: Wire + Clone + Send + Sync + 'static> Indexer for ArrayIdx<T> {
    type Dom = Seq;
    type Out = T;

    fn domain(&self) -> Seq {
        self.dom
    }

    fn get(&self, idx: usize) -> T {
        debug_assert!(
            idx >= self.base && idx - self.base < self.data.len(),
            "index {idx} outside held window [{}, {})",
            self.base,
            self.base + self.data.len()
        );
        self.data[idx - self.base].clone()
    }

    fn slice(&self, part: &SeqPart, memo: &mut SliceMemo) -> Self {
        debug_assert!(part.start >= self.base && part.end() <= self.base + self.data.len());
        let data = memo.window(&self.data, part.start - self.base, part.len);
        ArrayIdx { data, base: part.start, dom: self.dom }
    }

    fn pieces(&self, out: &mut Vec<Piece>) {
        out.push(buffer_piece(&self.data, self.base.packed_size() + self.dom.packed_size()));
    }

    fn roundtrip_source(self) -> Self {
        let bytes = packed(&*self.data);
        let data: Vec<T> = unpack_all(bytes).expect("pack/unpack of own data cannot fail");
        ArrayIdx { data: Arc::new(data), base: self.base, dom: self.dom }
    }
}

// ---------------------------------------------------------------------------
// StripsIdx: a row-major 2-D array as a 1-D indexer of row strips
// ---------------------------------------------------------------------------

/// A cheap, shareable view of a contiguous band of matrix rows; what
/// [`row_strips`](crate::sources::row_strips) yields per element. Carries its
/// global row coordinates so consumers (tiled block kernels) know which
/// output block the strip covers.
pub struct StripRef<T> {
    data: Arc<Vec<T>>,
    offset: usize,
    row0: usize,
    rows: usize,
    cols: usize,
}

impl<T> Clone for StripRef<T> {
    fn clone(&self) -> Self {
        StripRef {
            data: Arc::clone(&self.data),
            offset: self.offset,
            row0: self.row0,
            rows: self.rows,
            cols: self.cols,
        }
    }
}

impl<T> StripRef<T> {
    /// Global index of the strip's first row.
    pub fn row0(&self) -> usize {
        self.row0
    }

    /// Number of rows in the strip.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row length.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The strip's elements as one contiguous row-major slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.offset..self.offset + self.rows * self.cols]
    }
}

/// A row-major matrix exposed as a `Seq` indexer over fixed-height row
/// *strips* (the last strip may be shorter). Strips of height 1 are the
/// paper's `rows(A)` (§2): "reinterpret the two-dimensional arrays as
/// one-dimensional iterators over array rows". Taller strips make
/// `outerproduct(row_strips(A), row_strips(BT))` the 2-D *block*
/// decomposition directly, with each cell holding exactly the input strips a
/// tiled block kernel consumes. Slicing by a strip range copies out only
/// those rows, so each node receives only the rows it needs.
pub struct StripsIdx<T> {
    data: Arc<Vec<T>>,
    base_strip: usize,
    strip_rows: usize,
    total_rows: usize,
    cols: usize,
    dom: Seq,
}

impl<T> Clone for StripsIdx<T> {
    fn clone(&self) -> Self {
        StripsIdx {
            data: Arc::clone(&self.data),
            base_strip: self.base_strip,
            strip_rows: self.strip_rows,
            total_rows: self.total_rows,
            cols: self.cols,
            dom: self.dom,
        }
    }
}

impl<T: Clone + Send + Sync + 'static> StripsIdx<T> {
    /// View `data` (row-major, `rows * cols` elements) as ceil(rows/h)
    /// strips of `h` rows each.
    pub fn new(data: Arc<Vec<T>>, rows: usize, cols: usize, strip_rows: usize) -> Self {
        assert!(strip_rows > 0, "strip height must be positive");
        assert_eq!(data.len(), rows * cols, "row-major data must fill the matrix");
        let nstrips = rows.div_ceil(strip_rows);
        StripsIdx {
            data,
            base_strip: 0,
            strip_rows,
            total_rows: rows,
            cols,
            dom: Seq::new(nstrips),
        }
    }

    /// Rows in strip `s` (global strip index): `strip_rows`, except a short
    /// final strip.
    fn rows_of(&self, s: usize) -> usize {
        self.strip_rows.min(self.total_rows - s * self.strip_rows)
    }
}

impl<T: Wire + Clone + Send + Sync + 'static> Indexer for StripsIdx<T> {
    type Dom = Seq;
    type Out = StripRef<T>;

    fn domain(&self) -> Seq {
        self.dom
    }

    fn get(&self, strip: usize) -> StripRef<T> {
        debug_assert!(strip >= self.base_strip);
        let offset = (strip - self.base_strip) * self.strip_rows * self.cols;
        let rows = self.rows_of(strip);
        debug_assert!(offset + rows * self.cols <= self.data.len());
        StripRef {
            data: Arc::clone(&self.data),
            offset,
            row0: strip * self.strip_rows,
            rows,
            cols: self.cols,
        }
    }

    fn slice(&self, part: &SeqPart, memo: &mut SliceMemo) -> Self {
        debug_assert!(part.start >= self.base_strip);
        let lo = (part.start - self.base_strip) * self.strip_rows * self.cols;
        let rows_covered: usize = (part.start..part.end()).map(|s| self.rows_of(s)).sum();
        StripsIdx {
            data: memo.window(&self.data, lo, rows_covered * self.cols),
            base_strip: part.start,
            strip_rows: self.strip_rows,
            total_rows: self.total_rows,
            cols: self.cols,
            dom: self.dom,
        }
    }

    fn pieces(&self, out: &mut Vec<Piece>) {
        out.push(buffer_piece(&self.data, 40)); // base_strip + strip_rows + total_rows + cols + dom
    }

    fn roundtrip_source(self) -> Self {
        let bytes = packed(&*self.data);
        let data: Vec<T> = unpack_all(bytes).expect("pack/unpack of own data cannot fail");
        StripsIdx {
            data: Arc::new(data),
            base_strip: self.base_strip,
            strip_rows: self.strip_rows,
            total_rows: self.total_rows,
            cols: self.cols,
            dom: self.dom,
        }
    }
}

// ---------------------------------------------------------------------------
// RangeIdx: a domain's own indices as elements
// ---------------------------------------------------------------------------

/// The identity indexer: element at index `i` is `i` itself. No data source,
/// so slicing is free — the paper's `indices(domain(...))` idiom.
#[derive(Clone)]
pub struct RangeIdx<D: Domain> {
    dom: D,
}

impl<D: Domain> RangeIdx<D> {
    /// Indexer over all indices of `dom`.
    pub fn new(dom: D) -> Self {
        RangeIdx { dom }
    }
}

impl<D: Domain> Indexer for RangeIdx<D> {
    type Dom = D;
    type Out = D::Index;

    fn domain(&self) -> D {
        self.dom.clone()
    }

    fn get(&self, idx: D::Index) -> D::Index {
        idx
    }

    fn slice(&self, _part: &D::Part, _memo: &mut SliceMemo) -> Self {
        self.clone()
    }

    fn pieces(&self, out: &mut Vec<Piece>) {
        out.extend(Piece::anonymous(self.dom.packed_size()));
    }

    fn roundtrip_source(self) -> Self {
        let dom: D = unpack_all(packed(&self.dom)).expect("domain roundtrip");
        RangeIdx { dom }
    }
}

// ---------------------------------------------------------------------------
// FnIdx: an arbitrary computed indexer (pure code, no shippable data)
// ---------------------------------------------------------------------------

/// An indexer computed by a function of the index. It carries no data source
/// (captured state rides with the code), so `slice` is the identity — used
/// for computed collections such as transpose views and stencil neighbour
/// generators.
#[derive(Clone)]
pub struct FnIdx<D: Domain, F> {
    dom: D,
    f: F,
}

impl<D: Domain, F> FnIdx<D, F> {
    /// Indexer whose element at `i` is `f(i)`.
    pub fn new(dom: D, f: F) -> Self {
        FnIdx { dom, f }
    }
}

impl<D, F, O> Indexer for FnIdx<D, F>
where
    D: Domain,
    F: Fn(D::Index) -> O + Clone + Send + Sync + 'static,
{
    type Dom = D;
    type Out = O;

    fn domain(&self) -> D {
        self.dom.clone()
    }

    fn get(&self, idx: D::Index) -> O {
        (self.f)(idx)
    }

    fn slice(&self, _part: &D::Part, _memo: &mut SliceMemo) -> Self {
        self.clone()
    }

    fn pieces(&self, out: &mut Vec<Piece>) {
        out.extend(Piece::anonymous(self.dom.packed_size()));
    }

    fn roundtrip_source(self) -> Self {
        self
    }
}

// ---------------------------------------------------------------------------
// MapIdx: the fused map
// ---------------------------------------------------------------------------

/// `map` over an indexer: the new lookup calls the old lookup then `f`
/// (the paper's `mapIdx`). Slicing passes through to the inner indexer; the
/// mapping function is code and ships for free.
#[derive(Clone)]
pub struct MapIdx<I, F> {
    inner: I,
    f: F,
}

impl<I, F> MapIdx<I, F> {
    /// Map `f` over `inner`.
    pub fn new(inner: I, f: F) -> Self {
        MapIdx { inner, f }
    }
}

impl<I, F> Indexer for MapIdx<I, F>
where
    I: Indexer,
    F: crate::stepper::ElemFn<I::Out>,
{
    type Dom = I::Dom;
    type Out = F::Out;

    fn domain(&self) -> I::Dom {
        self.inner.domain()
    }

    fn get(&self, idx: <I::Dom as Domain>::Index) -> F::Out {
        self.f.call(self.inner.get(idx))
    }

    fn slice(&self, part: &<I::Dom as Domain>::Part, memo: &mut SliceMemo) -> Self {
        MapIdx { inner: self.inner.slice(part, memo), f: self.f.clone() }
    }

    fn pieces(&self, out: &mut Vec<Piece>) {
        self.inner.pieces(out);
    }

    fn roundtrip_source(self) -> Self {
        MapIdx { inner: self.inner.roundtrip_source(), f: self.f }
    }
}

// ---------------------------------------------------------------------------
// ZipIdx / Zip3Idx: index-aligned pairing
// ---------------------------------------------------------------------------

/// `zip` of two indexers over the same domain shape: element `i` is
/// `(a[i], b[i])`, over the intersection of the two domains (the paper's
/// `zipIdx`). Both sources are sliced together — "data sources may involve
/// multiple arrays … without requiring a step of data copying and
/// reorganization" (§3.5).
#[derive(Clone)]
pub struct ZipIdx<A, B> {
    a: A,
    b: B,
}

impl<A, B> ZipIdx<A, B> {
    /// Pair `a` and `b` elementwise.
    pub fn new(a: A, b: B) -> Self {
        ZipIdx { a, b }
    }
}

impl<A, B> Indexer for ZipIdx<A, B>
where
    A: Indexer,
    B: Indexer<Dom = A::Dom>,
{
    type Dom = A::Dom;
    type Out = (A::Out, B::Out);

    fn domain(&self) -> A::Dom {
        self.a.domain().intersect(&self.b.domain())
    }

    fn get(&self, idx: <A::Dom as Domain>::Index) -> (A::Out, B::Out) {
        (self.a.get(idx), self.b.get(idx))
    }

    fn slice(&self, part: &<A::Dom as Domain>::Part, memo: &mut SliceMemo) -> Self {
        ZipIdx { a: self.a.slice(part, memo), b: self.b.slice(part, memo) }
    }

    fn pieces(&self, out: &mut Vec<Piece>) {
        self.a.pieces(out);
        self.b.pieces(out);
    }

    fn roundtrip_source(self) -> Self {
        ZipIdx { a: self.a.roundtrip_source(), b: self.b.roundtrip_source() }
    }
}

/// Three-way [`ZipIdx`] (the paper's mri-q uses `zip3(x, y, z)`).
#[derive(Clone)]
pub struct Zip3Idx<A, B, C> {
    a: A,
    b: B,
    c: C,
}

impl<A, B, C> Zip3Idx<A, B, C> {
    /// Triple `a`, `b` and `c` elementwise.
    pub fn new(a: A, b: B, c: C) -> Self {
        Zip3Idx { a, b, c }
    }
}

impl<A, B, C> Indexer for Zip3Idx<A, B, C>
where
    A: Indexer,
    B: Indexer<Dom = A::Dom>,
    C: Indexer<Dom = A::Dom>,
{
    type Dom = A::Dom;
    type Out = (A::Out, B::Out, C::Out);

    fn domain(&self) -> A::Dom {
        self.a.domain().intersect(&self.b.domain()).intersect(&self.c.domain())
    }

    fn get(&self, idx: <A::Dom as Domain>::Index) -> (A::Out, B::Out, C::Out) {
        (self.a.get(idx), self.b.get(idx), self.c.get(idx))
    }

    fn slice(&self, part: &<A::Dom as Domain>::Part, memo: &mut SliceMemo) -> Self {
        Zip3Idx {
            a: self.a.slice(part, memo),
            b: self.b.slice(part, memo),
            c: self.c.slice(part, memo),
        }
    }

    fn pieces(&self, out: &mut Vec<Piece>) {
        self.a.pieces(out);
        self.b.pieces(out);
        self.c.pieces(out);
    }

    fn roundtrip_source(self) -> Self {
        Zip3Idx {
            a: self.a.roundtrip_source(),
            b: self.b.roundtrip_source(),
            c: self.c.roundtrip_source(),
        }
    }
}

// ---------------------------------------------------------------------------
// OuterProductIdx: the 2-D cross of two 1-D indexers
// ---------------------------------------------------------------------------

/// The paper's `outerproduct(a, b)` (§2): a 2-D indexer whose element at
/// `(r, c)` is `(a[r], b[c])`.
///
/// Slicing by a 2-D block extracts the `a`-range covering the block's rows
/// and the `b`-range covering its columns — so a node computing one output
/// block of a matrix product receives only the `A` rows and `B^T` rows it
/// needs. This is the two-line sgemm decomposition.
#[derive(Clone)]
pub struct OuterProductIdx<A, B> {
    a: A,
    b: B,
}

impl<A, B> OuterProductIdx<A, B> {
    /// Cross `a` (rows) with `b` (columns).
    pub fn new(a: A, b: B) -> Self {
        OuterProductIdx { a, b }
    }
}

impl<A, B> Indexer for OuterProductIdx<A, B>
where
    A: Indexer<Dom = Seq>,
    B: Indexer<Dom = Seq>,
{
    type Dom = Dim2;
    type Out = (A::Out, B::Out);

    fn domain(&self) -> Dim2 {
        Dim2::new(self.a.domain().len(), self.b.domain().len())
    }

    fn get(&self, (r, c): (usize, usize)) -> (A::Out, B::Out) {
        (self.a.get(r), self.b.get(c))
    }

    fn slice(&self, part: &Dim2Part, memo: &mut SliceMemo) -> Self {
        OuterProductIdx {
            a: self.a.slice(&SeqPart::new(part.row0, part.rows), memo),
            b: self.b.slice(&SeqPart::new(part.col0, part.cols), memo),
        }
    }

    fn pieces(&self, out: &mut Vec<Piece>) {
        self.a.pieces(out);
        self.b.pieces(out);
    }

    fn roundtrip_source(self) -> Self {
        OuterProductIdx { a: self.a.roundtrip_source(), b: self.b.roundtrip_source() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_domain::Dim2;

    #[test]
    fn array_idx_global_indexing_after_slice() {
        let idx = ArrayIdx::new((0..100i64).collect());
        let part = SeqPart::new(40, 10);
        let sub = idx.slice(&part, &mut SliceMemo::default());
        assert_eq!(sub.base(), 40);
        assert_eq!(sub.local_data().len(), 10);
        for i in 40..50 {
            assert_eq!(sub.get(i), i as i64, "sliced indexer answers global indices");
        }
    }

    #[test]
    fn array_idx_roundtrip_preserves_data() {
        let idx = ArrayIdx::new(vec![1.5f32, 2.5, 3.5]).roundtrip_source();
        assert_eq!(idx.get(1), 2.5);
        assert_eq!(idx.domain(), Seq::new(3));
    }

    #[test]
    fn slice_of_slice_composes() {
        let idx = ArrayIdx::new((0..1000u32).collect());
        let sub = idx.slice(&SeqPart::new(100, 500), &mut SliceMemo::default());
        let subsub = sub.slice(&SeqPart::new(300, 50), &mut SliceMemo::default());
        for i in 300..350 {
            assert_eq!(subsub.get(i), i as u32);
        }
        assert_eq!(subsub.local_data().len(), 50, "only the window is held");
    }

    #[test]
    fn source_size_shrinks_with_slice() {
        let idx = ArrayIdx::new(vec![0f64; 1000]);
        let sub = idx.slice(&SeqPart::new(0, 10), &mut SliceMemo::default());
        assert!(sub.source_size() < idx.source_size() / 50);
    }

    #[test]
    fn rows_idx_yields_rows() {
        // 3x4 matrix 0..12, as `rows` views it: strips one row high.
        let m = StripsIdx::new(Arc::new((0..12i32).collect()), 3, 4, 1);
        assert_eq!(m.domain(), Seq::new(3));
        assert_eq!(m.get(1).as_slice(), &[4, 5, 6, 7]);
        assert_eq!((m.get(2).row0(), m.get(2).as_slice()[3]), (2, 11));
    }

    #[test]
    fn rows_idx_slice_holds_only_rows() {
        let m = StripsIdx::new(Arc::new((0..20i32).collect()), 5, 4, 1);
        let sub = m.slice(&SeqPart::new(2, 2), &mut SliceMemo::default());
        assert_eq!(sub.get(2).as_slice(), &[8, 9, 10, 11]);
        assert_eq!(sub.get(3).as_slice(), &[12, 13, 14, 15]);
        // Data footprint: exactly 2 rows of 4 i32 plus the 40-byte header.
        assert_eq!(sub.source_size(), 8 + 8 * 4 + 40);
    }

    #[test]
    fn map_idx_composes_and_slices() {
        let idx = MapIdx::new(ArrayIdx::new((0..10i64).collect()), |x: i64| x * x);
        assert_eq!(idx.get(3), 9);
        let sub = idx.slice(&SeqPart::new(5, 5), &mut SliceMemo::default());
        assert_eq!(sub.get(7), 49);
    }

    #[test]
    fn zip_idx_intersects_domains() {
        let a = ArrayIdx::new(vec![1u32, 2, 3, 4, 5]);
        let b = ArrayIdx::new(vec![10u32, 20, 30]);
        let z = ZipIdx::new(a, b);
        assert_eq!(z.domain(), Seq::new(3));
        assert_eq!(z.get(2), (3, 30));
    }

    #[test]
    fn zip3_idx() {
        let a = ArrayIdx::new(vec![1f32, 2.0]);
        let b = ArrayIdx::new(vec![3f32, 4.0]);
        let c = ArrayIdx::new(vec![5f32, 6.0]);
        let z = Zip3Idx::new(a, b, c);
        assert_eq!(z.get(1), (2.0, 4.0, 6.0));
        assert_eq!(z.roundtrip_source().get(0), (1.0, 3.0, 5.0));
    }

    #[test]
    fn outerproduct_block_slice_extracts_both_ranges() {
        // 4x4 outer product of rows 0..4 and cols 0..4.
        let a = ArrayIdx::new((0..4i64).collect());
        let b = ArrayIdx::new((10..14i64).collect());
        let op = OuterProductIdx::new(a, b);
        assert_eq!(op.domain(), Dim2::new(4, 4));
        let block = Dim2Part::new(1, 2, 2, 2);
        let sub = op.slice(&block, &mut SliceMemo::default());
        // The block covers rows {1,2} and cols {2,3}.
        assert_eq!(sub.get((1, 2)), (1, 12));
        assert_eq!(sub.get((2, 3)), (2, 13));
        // Sliced footprint is 4 elements instead of 8.
        assert!(sub.source_size() < op.source_size());
    }

    #[test]
    fn fn_idx_and_range_idx() {
        let sq = FnIdx::new(Seq::new(5), |i: usize| i * i);
        assert_eq!(sq.get(4), 16);
        let r = RangeIdx::new(Dim2::new(2, 2));
        assert_eq!(r.get((1, 0)), (1, 0));
        // Slicing data-free indexers is identity.
        let sub = sq.slice(&SeqPart::new(2, 2), &mut SliceMemo::default());
        assert_eq!(sub.get(3), 9);
    }

    fn ids<I: Indexer>(idx: &I) -> Vec<Option<usize>> {
        let mut out = Vec::new();
        idx.pieces(&mut out);
        out.iter().map(|p| p.id).collect()
    }

    #[test]
    fn parts_with_a_common_window_share_one_buffer_through_map_zip() {
        let a = ArrayIdx::new((0..100i64).collect());
        let b = ArrayIdx::new((100..200i64).collect());
        let it = MapIdx::new(ZipIdx::new(a, b), |(x, y): (i64, i64)| x + y);
        let mut memo = SliceMemo::default();
        let part = SeqPart::new(10, 20);
        let (s1, s2) = (it.slice(&part, &mut memo), it.slice(&part, &mut memo));
        assert!(Arc::ptr_eq(&s1.inner.a.data, &s2.inner.a.data));
        assert!(Arc::ptr_eq(&s1.inner.b.data, &s2.inner.b.data));
        assert_eq!(ids(&s1), ids(&s2));
        assert_eq!(s2.get(15), 15 + 115);
        // A different window of the same buffers is a different piece, and
        // so is the same window under another call's memo.
        let other = it.slice(&SeqPart::new(30, 20), &mut memo);
        assert!(ids(&other).iter().all(|id| !ids(&s1).contains(id)));
        let fresh = it.slice(&part, &mut SliceMemo::default());
        assert!(!Arc::ptr_eq(&s1.inner.a.data, &fresh.inner.a.data));
    }

    #[test]
    fn outerproduct_blocks_share_their_row_and_column_panels() {
        let a = StripsIdx::new(Arc::new((0..32i32).collect()), 8, 4, 1);
        let b = StripsIdx::new(Arc::new((0..24i32).collect()), 6, 4, 2);
        let op = OuterProductIdx::new(a, b);
        let mut memo = SliceMemo::default();
        // A 2x2 grid of blocks over 8 rows x 3 strips.
        let blocks: Vec<_> = [(0, 0), (0, 2), (4, 0), (4, 2)]
            .iter()
            .map(|&(r, c)| op.slice(&Dim2Part::new(r, 4, c, if c == 0 { 2 } else { 1 }), &mut memo))
            .collect();
        // Same grid row => same A panel; same grid column => same B panel.
        assert!(Arc::ptr_eq(&blocks[0].a.data, &blocks[1].a.data));
        assert!(Arc::ptr_eq(&blocks[2].a.data, &blocks[3].a.data));
        assert!(Arc::ptr_eq(&blocks[0].b.data, &blocks[2].b.data));
        assert!(Arc::ptr_eq(&blocks[1].b.data, &blocks[3].b.data));
        // Diagonal blocks read disjoint windows and share nothing.
        assert!(ids(&blocks[0]).iter().all(|id| !ids(&blocks[3]).contains(id)));
        // Four distinct buffers cover the eight the blocks list.
        let mut distinct: Vec<_> = blocks.iter().flat_map(ids).collect();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 4);
        assert_eq!(blocks[3].get((5, 2)).0.as_slice(), &[20, 21, 22, 23]);
    }

    #[test]
    fn pieces_sum_to_source_size_for_every_indexer() {
        fn check<I: Indexer>(idx: &I, expect_pieces: usize, expect_bytes: usize) {
            let mut out = Vec::new();
            idx.pieces(&mut out);
            assert_eq!(out.len(), expect_pieces);
            assert_eq!(out.iter().map(|p| p.bytes).sum::<usize>(), idx.source_size());
            assert_eq!(idx.source_size(), expect_bytes);
        }
        let arr = || ArrayIdx::new(vec![0f64; 10]); // 8 + 80 elements, 16 header
        let rows = StripsIdx::new(Arc::new(vec![0i32; 20]), 5, 4, 1);
        let strips = StripsIdx::new(Arc::new(vec![0i32; 20]), 5, 4, 2);
        check(&arr(), 1, 104);
        check(&rows, 1, 8 + 80 + 40);
        check(&strips, 1, 8 + 80 + 40);
        check(&RangeIdx::new(Seq::new(7)), 1, 8);
        check(&FnIdx::new(Dim2::new(2, 3), |i: (usize, usize)| i), 1, 16);
        check(&MapIdx::new(arr(), |x: f64| x), 1, 104);
        check(&ZipIdx::new(arr(), arr()), 2, 208);
        check(&Zip3Idx::new(arr(), arr(), arr()), 3, 312);
        check(&OuterProductIdx::new(rows.clone(), strips.clone()), 2, 128 + 128);
        // Data-free indexers name no buffer; array-backed ones do.
        assert_eq!(ids(&RangeIdx::new(Seq::new(7))), vec![None]);
        assert!(ids(&rows)[0].is_some());
    }
}
