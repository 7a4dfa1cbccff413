//! Persistent distributed collections: [`DistVec`], [`DistArray2`], and
//! their views.
//!
//! A `DistVec<T>` is created by
//! [`Triolet::scatter`](crate::Triolet::scatter): the vector splits into the
//! same per-node parts the shipped path would use
//! ([`Seq::split_parts`](triolet_domain::Domain::split_parts)), each segment
//! is sent once to its home rank, and the handle then feeds any number of
//! skeleton calls without moving input data again — a resident call ships
//! only the environment, whose arrival at a rank starts that rank's task,
//! plus any halo a view declares (with the unit environment, one zero-byte
//! task message per node). Views are cheap descriptions over the resident
//! segments; none of them move or copy segment data at construction.
//!
//! Residency is cooperative with fault injection: a crash that forces a
//! task off its segment's owner re-ships that segment to the survivor (a
//! `dist:resident-miss`) and the survivor owns it from then on (a
//! `dist:rehome`), so the crash is paid for once, not on every call. The
//! result is bit-identical because parts and chunk boundaries depend only
//! on lengths, never on the executing rank.

use std::ops::Range;
use std::sync::Arc;

use triolet_domain::{Seq, SeqPart};
use triolet_iter::indexer::{ArrayIdx, MapIdx, RangeIdx, ZipIdx};
use triolet_iter::shapes::IdxFlat;
use triolet_iter::stepper::ElemFn;
use triolet_serial::Wire;

use super::input::{DistInput, IntoDistInput, Owners, ResidentPart};
use super::DistIter;

/// One resident segment: contiguous rows of a collection. Its index in the
/// collection's segment list is its slot, whose owner cell in the
/// collection's [`Owners`] says where it lives.
pub(crate) struct Seg<T> {
    pub(crate) part: SeqPart,
    pub(crate) data: Arc<Vec<T>>,
    pub(crate) bytes: usize,
}

impl<T> Clone for Seg<T> {
    fn clone(&self) -> Self {
        Seg { part: self.part, data: Arc::clone(&self.data), bytes: self.bytes }
    }
}

impl<T: Wire + Clone + Send + Sync + 'static> Seg<T> {
    /// Estimated wire bytes per element (for pro-rata slice/halo costs).
    fn elem_bytes(&self) -> usize {
        self.bytes / self.part.len.max(1)
    }

    /// The segment as the indexer it is: a window of a `len`-element
    /// collection, answering the global indices it holds.
    fn array(&self, len: usize) -> ArrayIdx<T> {
        ArrayIdx::window(Arc::clone(&self.data), self.part.start, len)
    }
}

/// The element at global index `i`, looked up across segments (segments are
/// sorted by `part.start` and tile the index space).
fn element_at<T: Clone>(segs: &[Seg<T>], i: usize) -> T {
    let k = segs.partition_point(|s| s.part.end() <= i);
    let seg = &segs[k];
    seg.data[i - seg.part.start].clone()
}

/// A persistent distributed vector: segments scattered once, resident on
/// their owning ranks across skeleton calls. Dropping the last handle or
/// view frees the segments.
///
/// Pass `&dv` anywhere a skeleton takes an input, or build a view first:
/// [`slice`](DistVec::slice), [`enumerate`](DistVec::enumerate),
/// [`zip`](DistVec::zip), [`halo`](DistVec::halo).
pub struct DistVec<T> {
    owners: Arc<Owners>,
    len: usize,
    segs: Arc<Vec<Seg<T>>>,
}

impl<T> Clone for DistVec<T> {
    fn clone(&self) -> Self {
        DistVec { owners: Arc::clone(&self.owners), len: self.len, segs: Arc::clone(&self.segs) }
    }
}

impl<T> DistVec<T> {
    pub(crate) fn from_segments(owners: Arc<Owners>, len: usize, segs: Vec<Seg<T>>) -> Self {
        debug_assert!(segs.windows(2).all(|w| w[0].part.end() == w[1].part.start));
        DistVec { owners, len, segs: Arc::new(segs) }
    }

    /// This collection's id, unique within the runtime that scattered it:
    /// the label of its segments in traces.
    pub fn id(&self) -> u64 {
        self.owners.id()
    }

    /// The rank segment `slot` lives on now.
    #[cfg(test)]
    pub(crate) fn owner(&self, slot: usize) -> usize {
        self.owners.owner(slot)
    }

    /// Total elements across all segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the collection holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of resident segments (one per participating rank).
    pub fn segments(&self) -> usize {
        self.segs.len()
    }

    /// Total bytes resident across all segments.
    pub fn resident_bytes(&self) -> usize {
        self.segs.iter().map(|s| s.bytes).sum()
    }

    /// A view over `range` of the index space. Only segments overlapping
    /// the range participate in calls over the view; no data moves.
    pub fn slice(&self, range: Range<usize>) -> SliceView<T> {
        assert!(range.start <= range.end && range.end <= self.len, "slice out of bounds");
        let (owners, segs) = (Arc::clone(&self.owners), Arc::clone(&self.segs));
        SliceView { owners, segs, len: self.len, range }
    }

    /// A view yielding `(global_index, element)` pairs.
    pub fn enumerate(&self) -> EnumView<T> {
        EnumView { owners: Arc::clone(&self.owners), len: self.len, segs: Arc::clone(&self.segs) }
    }

    /// Zip with another resident vector of identical segmentation (same
    /// length, scattered on the same runtime). Panics when the
    /// segmentations differ — elements would not be segment-aligned. Where
    /// the two segments of a pair live is not compared: a pair split across
    /// ranks by an earlier move runs where the first operand lives, ships
    /// the other there, and stays together afterwards.
    pub fn zip<U>(&self, other: &DistVec<U>) -> ZipView<T, U> {
        assert_eq!(self.len, other.len, "zip of different-length collections");
        assert!(
            self.segs.len() == other.segs.len()
                && self.segs.iter().zip(other.segs.iter()).all(|(a, b)| a.part == b.part),
            "zip requires identical segmentation (scatter both on the same runtime)"
        );
        ZipView {
            owners: (Arc::clone(&self.owners), Arc::clone(&other.owners)),
            len: self.len,
            a: Arc::clone(&self.segs),
            b: Arc::clone(&other.segs),
        }
    }

    /// A ghost-cell view for stencils: yields `(global_index, window)` where
    /// `window` holds the elements at `i - radius ..= i + radius`, clamped
    /// to the collection bounds. Elements within `radius` of a segment
    /// boundary come from the neighboring segment; each call ships that
    /// halo (up to `radius` elements from each neighbouring side of a
    /// segment) — counted as input bytes, unlike the zero-byte interior.
    pub fn halo(&self, radius: usize) -> HaloView<T> {
        HaloView {
            owners: Arc::clone(&self.owners),
            len: self.len,
            radius,
            segs: Arc::clone(&self.segs),
        }
    }

    /// Assemble the full vector at the root (verification/debug only: the
    /// root retains segment references, so this models no gather traffic).
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len);
        for seg in self.segs.iter() {
            out.extend(seg.data.iter().cloned());
        }
        out
    }
}

/// The resident plan over the whole of `segs`: one part per segment, each
/// homed where its owner cell says the segment lives now, declaring
/// `halo_bytes(seg)` and folding `iter(seg)` over the segment's rows.
fn whole_run<T, It: DistIter<OuterDom = Seq>>(
    owners: &Arc<Owners>,
    segs: &[Seg<T>],
    halo_bytes: impl Fn(&Seg<T>) -> usize,
    iter: impl Fn(&Seg<T>) -> It,
) -> DistInput<It> {
    let parts = segs
        .iter()
        .enumerate()
        .map(|(slot, seg)| {
            let claims = vec![owners.claim(slot, seg.bytes)];
            ResidentPart::resolve(claims, seg.part, halo_bytes(seg), iter(seg))
        })
        .collect();
    DistInput::Resident(parts)
}

impl<T: Wire + Clone + Send + Sync + 'static> IntoDistInput for &DistVec<T> {
    type Item = T;
    type Iter = IdxFlat<ArrayIdx<T>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let len = self.len;
        whole_run(&self.owners, &self.segs, |_| 0, |seg| IdxFlat::new(seg.array(len)))
    }
}

/// A contiguous-range view of a [`DistVec`] (see [`DistVec::slice`]).
pub struct SliceView<T> {
    owners: Arc<Owners>,
    segs: Arc<Vec<Seg<T>>>,
    len: usize,
    range: Range<usize>,
}

impl<T: Wire + Clone + Send + Sync + 'static> IntoDistInput for SliceView<T> {
    type Item = T;
    type Iter = IdxFlat<ArrayIdx<T>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let (a, b) = (self.range.start, self.range.end);
        let mut parts = Vec::new();
        for (slot, seg) in self.segs.iter().enumerate() {
            let lo = seg.part.start.max(a);
            let hi = seg.part.end().min(b);
            if lo >= hi {
                continue;
            }
            // Parts keep global indices: chunking depends only on a part's
            // length, so the chunks are those of the range's own parts.
            parts.push(ResidentPart::resolve(
                vec![self.owners.claim(slot, seg.bytes)],
                SeqPart::new(lo, hi - lo),
                0,
                IdxFlat::new(seg.array(self.len)),
            ));
        }
        DistInput::Resident(parts)
    }
}

/// An index-carrying view of a [`DistVec`] (see [`DistVec::enumerate`]).
pub struct EnumView<T> {
    owners: Arc<Owners>,
    len: usize,
    segs: Arc<Vec<Seg<T>>>,
}

impl<T: Wire + Clone + Send + Sync + 'static> IntoDistInput for EnumView<T> {
    type Item = (usize, T);
    type Iter = IdxFlat<ZipIdx<RangeIdx<Seq>, ArrayIdx<T>>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let len = self.len;
        whole_run(
            &self.owners,
            &self.segs,
            |_| 0,
            |seg| IdxFlat::new(ZipIdx::new(RangeIdx::new(Seq::new(len)), seg.array(len))),
        )
    }
}

/// An element-aligned pairing of two identically-segmented [`DistVec`]s
/// (see [`DistVec::zip`]). A redispatch off-home ships the survivor each
/// segment it does not already hold, and both move to it.
pub struct ZipView<T, U> {
    owners: (Arc<Owners>, Arc<Owners>),
    len: usize,
    a: Arc<Vec<Seg<T>>>,
    b: Arc<Vec<Seg<U>>>,
}

impl<T, U> IntoDistInput for ZipView<T, U>
where
    T: Wire + Clone + Send + Sync + 'static,
    U: Wire + Clone + Send + Sync + 'static,
{
    type Item = (T, U);
    type Iter = IdxFlat<ZipIdx<ArrayIdx<T>, ArrayIdx<U>>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let (oa, ob) = &self.owners;
        let len = self.len;
        let parts = self
            .a
            .iter()
            .zip(self.b.iter())
            .enumerate()
            .map(|(slot, (sa, sb))| {
                ResidentPart::resolve(
                    vec![oa.claim(slot, sa.bytes), ob.claim(slot, sb.bytes)],
                    sa.part,
                    0,
                    IdxFlat::new(ZipIdx::new(sa.array(len), sb.array(len))),
                )
            })
            .collect();
        DistInput::Resident(parts)
    }
}

/// A ghost-cell stencil view of a [`DistVec`] (see [`DistVec::halo`]).
pub struct HaloView<T> {
    owners: Arc<Owners>,
    len: usize,
    radius: usize,
    segs: Arc<Vec<Seg<T>>>,
}

impl<T: Wire + Clone + Send + Sync + 'static> IntoDistInput for HaloView<T> {
    type Item = (usize, Vec<T>);
    type Iter = IdxFlat<MapIdx<RangeIdx<Seq>, Window<T>>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let (radius, len) = (self.radius, self.len);
        let window = Window { segs: Arc::clone(&self.segs), radius, len };
        whole_run(
            &self.owners,
            &self.segs,
            // Up to `radius` ghost elements from each side that has any.
            |seg| {
                (radius.min(seg.part.start) + radius.min(len - seg.part.end())) * seg.elem_bytes()
            },
            |_| IdxFlat::new(MapIdx::new(RangeIdx::new(Seq::new(len)), window.clone())),
        )
    }
}

/// Index `i` ↦ `(i, elements i - radius ..= i + radius)`, clamped to the
/// collection, read across segment boundaries: the element of a
/// [`HaloView`].
#[derive(Clone)]
pub struct Window<T> {
    segs: Arc<Vec<Seg<T>>>,
    radius: usize,
    len: usize,
}

impl<T: Clone + Send + Sync + 'static> ElemFn<usize> for Window<T> {
    type Out = (usize, Vec<T>);

    fn call(&self, i: usize) -> (usize, Vec<T>) {
        let lo = i.saturating_sub(self.radius);
        let hi = (i + self.radius + 1).min(self.len);
        (i, (lo..hi).map(|j| element_at(&self.segs, j)).collect())
    }
}

/// A persistent distributed matrix: row slabs scattered once, resident on
/// their owning ranks. `&da` iterates elements in row-major order;
/// [`rows`](DistArray2::rows) yields whole rows with their indices.
pub struct DistArray2<T> {
    owners: Arc<Owners>,
    rows: usize,
    cols: usize,
    /// Segments partition the *row* space; each holds its slab row-major.
    segs: Arc<Vec<Seg<T>>>,
}

impl<T> Clone for DistArray2<T> {
    fn clone(&self) -> Self {
        DistArray2 {
            owners: Arc::clone(&self.owners),
            rows: self.rows,
            cols: self.cols,
            segs: Arc::clone(&self.segs),
        }
    }
}

impl<T> DistArray2<T> {
    pub(crate) fn from_segments(
        owners: Arc<Owners>,
        rows: usize,
        cols: usize,
        segs: Vec<Seg<T>>,
    ) -> Self {
        DistArray2 { owners, rows, cols, segs: Arc::new(segs) }
    }

    /// This collection's id, unique within the runtime that scattered it:
    /// the label of its segments in traces.
    pub fn id(&self) -> u64 {
        self.owners.id()
    }

    /// Matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of resident row slabs.
    pub fn segments(&self) -> usize {
        self.segs.len()
    }

    /// A view yielding `(row_index, row)` pairs, one per matrix row.
    pub fn row_view(&self) -> RowsView<T> {
        RowsView {
            owners: Arc::clone(&self.owners),
            rows: self.rows,
            cols: self.cols,
            segs: Arc::clone(&self.segs),
        }
    }

    /// Assemble the full matrix at the root (verification/debug only; no
    /// gather traffic is modeled).
    pub fn to_array2(&self) -> triolet_iter::Array2<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for seg in self.segs.iter() {
            out.extend(seg.data.iter().cloned());
        }
        triolet_iter::Array2::from_vec(out, self.rows, self.cols)
    }
}

impl<T: Wire + Clone + Send + Sync + 'static> IntoDistInput for &DistArray2<T> {
    type Item = T;
    type Iter = IdxFlat<ArrayIdx<T>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let (cols, len) = (self.cols, self.rows * self.cols);
        // View space is the row-major element space: a row slab covering
        // rows [r0, r0 + k) covers elements [r0 * cols, (r0 + k) * cols).
        let parts = self
            .segs
            .iter()
            .enumerate()
            .map(|(slot, seg)| {
                let base = seg.part.start * cols;
                ResidentPart::resolve(
                    vec![self.owners.claim(slot, seg.bytes)],
                    SeqPart::new(base, seg.part.len * cols),
                    0,
                    IdxFlat::new(ArrayIdx::window(Arc::clone(&seg.data), base, len)),
                )
            })
            .collect();
        DistInput::Resident(parts)
    }
}

/// A whole-row view of a [`DistArray2`] (see [`DistArray2::row_view`]).
pub struct RowsView<T> {
    owners: Arc<Owners>,
    rows: usize,
    cols: usize,
    segs: Arc<Vec<Seg<T>>>,
}

impl<T: Wire + Clone + Send + Sync + 'static> IntoDistInput for RowsView<T> {
    type Item = (usize, Vec<T>);
    type Iter = IdxFlat<MapIdx<RangeIdx<Seq>, Row<T>>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let (rows, cols) = (self.rows, self.cols);
        whole_run(
            &self.owners,
            &self.segs,
            |_| 0,
            |seg| {
                let row = Row { data: Arc::clone(&seg.data), row0: seg.part.start, cols };
                IdxFlat::new(MapIdx::new(RangeIdx::new(Seq::new(rows)), row))
            },
        )
    }
}

/// Row index `r` ↦ `(r, row r)`, read from the row slab starting at row
/// `row0`: the element of a [`RowsView`].
#[derive(Clone)]
pub struct Row<T> {
    data: Arc<Vec<T>>,
    row0: usize,
    cols: usize,
}

impl<T: Clone + Send + Sync + 'static> ElemFn<usize> for Row<T> {
    type Out = (usize, Vec<T>);

    fn call(&self, r: usize) -> (usize, Vec<T>) {
        let off = (r - self.row0) * self.cols;
        (r, self.data[off..off + self.cols].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_domain::{Domain, Seq};

    /// A hand-built DistVec over `data` split into `n` segments (the engine
    /// normally does this through `Triolet::scatter`).
    fn dv(data: Vec<i64>, n: usize) -> DistVec<i64> {
        let len = data.len();
        let segs: Vec<Seg<i64>> = Seq::new(len)
            .split_parts(n)
            .into_iter()
            .map(|part| Seg {
                part,
                data: Arc::new(data[part.range()].to_vec()),
                bytes: part.len * 8,
            })
            .collect();
        DistVec::from_segments(Owners::new(0, segs.len()), len, segs)
    }

    fn collect_input<In: IntoDistInput>(input: In) -> Vec<In::Item> {
        let mut out = Vec::new();
        match input.into_dist_input() {
            DistInput::Iter(_) => unreachable!("resident view"),
            DistInput::Resident(parts) => {
                for p in &parts {
                    p.iter.fold_outer_part(&p.part, (), &mut |(), x| out.push(x));
                }
            }
        }
        out
    }

    #[test]
    fn whole_vec_enumerates_in_order() {
        let v = dv((0..100).collect(), 4);
        assert_eq!(collect_input(&v), (0..100).collect::<Vec<i64>>());
        assert_eq!(v.to_vec(), (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn slice_view_covers_exactly_the_range() {
        let v = dv((0..100).collect(), 4);
        let got = collect_input(v.slice(10..90));
        assert_eq!(got, (10..90).collect::<Vec<i64>>());
        // A slice inside one segment involves only that segment.
        if let DistInput::Resident(parts) = v.slice(2..20).into_dist_input() {
            assert_eq!(parts.len(), 1);
            assert_eq!(parts.iter().map(|p| p.part.len).sum::<usize>(), 18);
        }
    }

    #[test]
    fn the_last_handle_or_view_frees_the_segments() {
        let v = dv((0..100).collect(), 4);
        let segs = Arc::downgrade(&v.segs);
        let w = v.clone();
        drop(v);
        assert!(segs.upgrade().is_some(), "a handle is left");
        drop(w);
        assert!(segs.upgrade().is_none(), "the segment list dies with the last handle");

        let v = dv((0..100).collect(), 4);
        let segs = Arc::downgrade(&v.segs);
        let view = v.slice(10..90);
        drop(v);
        assert!(segs.upgrade().is_some(), "a view outliving its handle keeps the segments");
        assert_eq!(collect_input(view), (10..90).collect::<Vec<i64>>(), "and still sweeps");
        assert!(segs.upgrade().is_none(), "the swept view was the last holder");
    }

    #[test]
    fn enumerate_and_zip_align() {
        let v = dv((0..50).collect(), 3);
        let w = dv((0..50).map(|x| x * 10).collect(), 3);
        let pairs = collect_input(v.enumerate());
        assert!(pairs.iter().all(|&(i, x)| x == i as i64));
        let zipped = collect_input(v.zip(&w));
        assert!(zipped.iter().all(|&(a, b)| b == a * 10));
    }

    #[test]
    #[should_panic(expected = "identical segmentation")]
    fn zip_rejects_mismatched_segmentation() {
        let v = dv((0..50).collect(), 3);
        let w = dv((0..50).collect(), 4);
        let _ = v.zip(&w);
    }

    #[test]
    fn halo_windows_cross_segment_boundaries() {
        let v = dv((0..40).collect(), 4);
        let wins = collect_input(v.halo(2));
        assert_eq!(wins.len(), 40);
        // Interior point: full window centered on i.
        let (i, w) = &wins[17];
        assert_eq!(*i, 17);
        assert_eq!(*w, vec![15, 16, 17, 18, 19]);
        // Clamped at the edges.
        assert_eq!(wins[0].1, vec![0, 1, 2]);
        assert_eq!(wins[39].1, vec![37, 38, 39]);
        // Nonzero halo bytes are declared for the ghost exchange.
        let halo_bytes = |v: &DistVec<i64>| match v.halo(2).into_dist_input() {
            DistInput::Resident(parts) => {
                let ghosts = |p: &ResidentPart<_>| {
                    p.pieces.iter().filter(|q| q.holder.is_none()).map(|q| q.bytes).sum()
                };
                parts.iter().map(ghosts).collect()
            }
            DistInput::Iter(_) => unreachable!("resident view"),
        };
        let bytes: Vec<usize> = halo_bytes(&v);
        assert!(bytes.iter().all(|&b| b > 0));
        // An edge segment has one neighbour: `radius` 8-byte ghosts, not two
        // sides' worth.
        assert_eq!(bytes, vec![16, 32, 32, 16]);
        // A one-segment collection has no neighbour at all.
        let whole = dv((0..40).collect(), 1);
        assert_eq!(halo_bytes(&whole), vec![0]);
        assert_eq!(collect_input(whole.halo(2)), wins);
    }

    #[test]
    fn array2_iterates_row_major_and_by_rows() {
        let rows = 6;
        let cols = 4;
        let data: Vec<i64> = (0..(rows * cols) as i64).collect();
        let segs: Vec<Seg<i64>> = Seq::new(rows)
            .split_parts(3)
            .into_iter()
            .map(|part| Seg {
                part,
                data: Arc::new(data[part.start * cols..part.end() * cols].to_vec()),
                bytes: part.len * cols * 8,
            })
            .collect();
        let m = DistArray2::from_segments(Owners::new(0, segs.len()), rows, cols, segs);
        assert_eq!(collect_input(&m), data);
        let row_pairs = collect_input(m.row_view());
        assert_eq!(row_pairs.len(), rows);
        for (r, row) in &row_pairs {
            assert_eq!(row.len(), cols);
            assert_eq!(row[0], (r * cols) as i64);
        }
        assert_eq!(m.to_array2().as_slice(), &data[..]);
    }
}
