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

use triolet_domain::SeqPart;
use triolet_iter::indexer::ArrayIdx;
use triolet_iter::shapes::IdxFlat;
use triolet_serial::Wire;

use super::input::{DistInput, IntoDistInput, Lease, PartFold, ResidentPart, ResidentRun};

/// One resident segment: contiguous rows of a collection. Its index in the
/// collection's segment list is its slot in the
/// [`ResidentStore`](triolet_cluster::ResidentStore), which says where it
/// lives.
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

impl<T> Seg<T> {
    /// Estimated wire bytes per element (for pro-rata slice/halo costs).
    fn elem_bytes(&self) -> usize {
        self.bytes / self.part.len.max(1)
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
    lease: Arc<Lease>,
    len: usize,
    segs: Arc<Vec<Seg<T>>>,
}

impl<T> Clone for DistVec<T> {
    fn clone(&self) -> Self {
        DistVec { lease: Arc::clone(&self.lease), len: self.len, segs: Arc::clone(&self.segs) }
    }
}

impl<T> DistVec<T> {
    pub(crate) fn from_segments(lease: Arc<Lease>, len: usize, segs: Vec<Seg<T>>) -> Self {
        debug_assert!(segs.windows(2).all(|w| w[0].part.end() == w[1].part.start));
        DistVec { lease, len, segs: Arc::new(segs) }
    }

    /// The resident-store id of this collection.
    pub fn id(&self) -> u64 {
        self.lease.id()
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
        SliceView { lease: Arc::clone(&self.lease), segs: Arc::clone(&self.segs), range }
    }

    /// A view yielding `(global_index, element)` pairs.
    pub fn enumerate(&self) -> EnumView<T> {
        EnumView { lease: Arc::clone(&self.lease), len: self.len, segs: Arc::clone(&self.segs) }
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
            leases: (Arc::clone(&self.lease), Arc::clone(&other.lease)),
            len: self.len,
            a: Arc::clone(&self.segs),
            b: Arc::clone(&other.segs),
        }
    }

    /// A ghost-cell view for stencils: yields `(global_index, window)` where
    /// `window` holds the elements at `i - radius ..= i + radius`, clamped
    /// to the collection bounds. Elements within `radius` of a segment
    /// boundary come from the neighboring segment; each call ships that
    /// halo (`~2 * radius` elements per boundary) — counted as input bytes,
    /// unlike the zero-byte interior.
    pub fn halo(&self, radius: usize) -> HaloView<T> {
        HaloView {
            lease: Arc::clone(&self.lease),
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

/// Build the full-collection resident parts, one per segment, each homed
/// where the store says its segment lives now. `make` gives a segment's
/// item enumeration (the whole-vec and enumerated views differ only in the
/// emitted item).
fn whole_parts<T, Item>(
    lease: &Arc<Lease>,
    segs: &[Seg<T>],
    halo_bytes: impl Fn(&Seg<T>) -> usize,
    make: impl Fn(&Seg<T>) -> PartFold<Item>,
) -> Vec<ResidentPart<Item>> {
    segs.iter()
        .enumerate()
        .map(|(slot, seg)| {
            let claims = vec![lease.claim(slot, seg.bytes)];
            ResidentPart::resolve(claims, seg.part, halo_bytes(seg), make(seg))
        })
        .collect()
}

impl<T: Wire + Clone + Send + Sync + 'static> IntoDistInput for &DistVec<T> {
    type Item = T;
    type Iter = IdxFlat<ArrayIdx<T>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let parts = whole_parts(
            &self.lease,
            &self.segs,
            |_| 0,
            |seg| {
                let data = Arc::clone(&seg.data);
                let base = seg.part.start;
                Arc::new(move |start, len, f: &mut dyn FnMut(T)| {
                    for x in &data[start - base..start - base + len] {
                        f(x.clone());
                    }
                })
            },
        );
        DistInput::Resident(ResidentRun { id: self.lease.id(), len: self.len, parts })
    }
}

/// A contiguous-range view of a [`DistVec`] (see [`DistVec::slice`]).
pub struct SliceView<T> {
    lease: Arc<Lease>,
    segs: Arc<Vec<Seg<T>>>,
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
            let data = Arc::clone(&seg.data);
            let base = seg.part.start;
            // View index v maps to global index a + v.
            parts.push(ResidentPart::resolve(
                vec![self.lease.claim(slot, seg.bytes)],
                SeqPart::new(lo - a, hi - lo),
                0,
                Arc::new(move |start, len, f: &mut dyn FnMut(T)| {
                    let off = a + start - base;
                    for x in &data[off..off + len] {
                        f(x.clone());
                    }
                }),
            ));
        }
        DistInput::Resident(ResidentRun { id: self.lease.id(), len: b - a, parts })
    }
}

/// An index-carrying view of a [`DistVec`] (see [`DistVec::enumerate`]).
pub struct EnumView<T> {
    lease: Arc<Lease>,
    len: usize,
    segs: Arc<Vec<Seg<T>>>,
}

impl<T: Wire + Clone + Send + Sync + 'static> IntoDistInput for EnumView<T> {
    type Item = (usize, T);
    type Iter = IdxFlat<ArrayIdx<(usize, T)>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let parts = whole_parts(
            &self.lease,
            &self.segs,
            |_| 0,
            |seg| {
                let data = Arc::clone(&seg.data);
                let base = seg.part.start;
                Arc::new(move |start, len, f: &mut dyn FnMut((usize, T))| {
                    for (k, x) in data[start - base..start - base + len].iter().enumerate() {
                        f((start + k, x.clone()));
                    }
                })
            },
        );
        DistInput::Resident(ResidentRun { id: self.lease.id(), len: self.len, parts })
    }
}

/// An element-aligned pairing of two identically-segmented [`DistVec`]s
/// (see [`DistVec::zip`]). A redispatch off-home re-ships both segments, and
/// both move to the rank that received them.
pub struct ZipView<T, U> {
    leases: (Arc<Lease>, Arc<Lease>),
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
    type Iter = IdxFlat<ArrayIdx<(T, U)>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let (la, lb) = &self.leases;
        let parts = self
            .a
            .iter()
            .zip(self.b.iter())
            .enumerate()
            .map(|(slot, (sa, sb))| {
                let da = Arc::clone(&sa.data);
                let db = Arc::clone(&sb.data);
                let base = sa.part.start;
                ResidentPart::resolve(
                    vec![la.claim(slot, sa.bytes), lb.claim(slot, sb.bytes)],
                    sa.part,
                    0,
                    Arc::new(move |start, len, f: &mut dyn FnMut((T, U))| {
                        let off = start - base;
                        for k in off..off + len {
                            f((da[k].clone(), db[k].clone()));
                        }
                    }),
                )
            })
            .collect();
        DistInput::Resident(ResidentRun { id: la.id(), len: self.len, parts })
    }
}

/// A ghost-cell stencil view of a [`DistVec`] (see [`DistVec::halo`]).
pub struct HaloView<T> {
    lease: Arc<Lease>,
    len: usize,
    radius: usize,
    segs: Arc<Vec<Seg<T>>>,
}

impl<T: Wire + Clone + Send + Sync + 'static> IntoDistInput for HaloView<T> {
    type Item = (usize, Vec<T>);
    type Iter = IdxFlat<ArrayIdx<(usize, Vec<T>)>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let radius = self.radius;
        let n = self.len;
        let all = Arc::clone(&self.segs);
        let parts = whole_parts(
            &self.lease,
            &self.segs,
            // Each boundary needs up to `radius` ghost elements per side.
            |seg| 2 * radius * seg.elem_bytes(),
            |_seg| {
                let all = Arc::clone(&all);
                Arc::new(move |start, len, f: &mut dyn FnMut((usize, Vec<T>))| {
                    for i in start..start + len {
                        let lo = i.saturating_sub(radius);
                        let hi = (i + radius + 1).min(n);
                        let window: Vec<T> = (lo..hi).map(|j| element_at(&all, j)).collect();
                        f((i, window));
                    }
                })
            },
        );
        DistInput::Resident(ResidentRun { id: self.lease.id(), len: self.len, parts })
    }
}

/// A persistent distributed matrix: row slabs scattered once, resident on
/// their owning ranks. `&da` iterates elements in row-major order;
/// [`rows`](DistArray2::rows) yields whole rows with their indices.
pub struct DistArray2<T> {
    lease: Arc<Lease>,
    rows: usize,
    cols: usize,
    /// Segments partition the *row* space; each holds its slab row-major.
    segs: Arc<Vec<Seg<T>>>,
}

impl<T> Clone for DistArray2<T> {
    fn clone(&self) -> Self {
        DistArray2 {
            lease: Arc::clone(&self.lease),
            rows: self.rows,
            cols: self.cols,
            segs: Arc::clone(&self.segs),
        }
    }
}

impl<T> DistArray2<T> {
    pub(crate) fn from_segments(
        lease: Arc<Lease>,
        rows: usize,
        cols: usize,
        segs: Vec<Seg<T>>,
    ) -> Self {
        DistArray2 { lease, rows, cols, segs: Arc::new(segs) }
    }

    /// The resident-store id of this collection.
    pub fn id(&self) -> u64 {
        self.lease.id()
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
            lease: Arc::clone(&self.lease),
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
        let cols = self.cols;
        // View space is the row-major element space: a row slab covering
        // rows [r0, r0 + k) covers elements [r0 * cols, (r0 + k) * cols).
        let parts = self
            .segs
            .iter()
            .enumerate()
            .map(|(slot, seg)| {
                let data = Arc::clone(&seg.data);
                let base = seg.part.start * cols;
                ResidentPart::resolve(
                    vec![self.lease.claim(slot, seg.bytes)],
                    SeqPart::new(base, seg.part.len * cols),
                    0,
                    Arc::new(move |start, len, f: &mut dyn FnMut(T)| {
                        for x in &data[start - base..start - base + len] {
                            f(x.clone());
                        }
                    }),
                )
            })
            .collect();
        DistInput::Resident(ResidentRun { id: self.id(), len: self.rows * self.cols, parts })
    }
}

/// A whole-row view of a [`DistArray2`] (see [`DistArray2::row_view`]).
pub struct RowsView<T> {
    lease: Arc<Lease>,
    rows: usize,
    cols: usize,
    segs: Arc<Vec<Seg<T>>>,
}

impl<T: Wire + Clone + Send + Sync + 'static> IntoDistInput for RowsView<T> {
    type Item = (usize, Vec<T>);
    type Iter = IdxFlat<ArrayIdx<(usize, Vec<T>)>>;

    fn into_dist_input(self) -> DistInput<Self::Iter> {
        let cols = self.cols;
        let parts = whole_parts(
            &self.lease,
            &self.segs,
            |_| 0,
            |seg| {
                let data = Arc::clone(&seg.data);
                let base = seg.part.start;
                Arc::new(move |start, len, f: &mut dyn FnMut((usize, Vec<T>))| {
                    for r in start..start + len {
                        let off = (r - base) * cols;
                        f((r, data[off..off + cols].to_vec()));
                    }
                })
            },
        );
        DistInput::Resident(ResidentRun { id: self.lease.id(), len: self.rows, parts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_cluster::ResidentStore;
    use triolet_domain::{Domain, Seq};

    /// A lease on a fresh store with `segs` registered one per rank, as
    /// `Cluster::scatter_segments` would leave them.
    fn registered<T>(segs: &[Seg<T>]) -> Arc<Lease> {
        let store = Arc::new(ResidentStore::new());
        let lease = Lease::new(&store);
        for (slot, seg) in segs.iter().enumerate() {
            store.register(lease.id(), slot, slot, seg.bytes);
        }
        lease
    }

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
        DistVec::from_segments(registered(&segs), len, segs)
    }

    fn collect_input<In: IntoDistInput>(input: In) -> Vec<In::Item> {
        let mut out = Vec::new();
        match input.into_dist_input() {
            DistInput::Iter(_) => unreachable!("resident view"),
            DistInput::Resident(run) => {
                for p in &run.parts {
                    (p.fold)(p.part.start, p.part.len, &mut |x| out.push(x));
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
        if let DistInput::Resident(run) = v.slice(2..20).into_dist_input() {
            assert_eq!(run.parts.len(), 1);
            assert_eq!(run.len, 18);
        }
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
        if let DistInput::Resident(run) = v.halo(2).into_dist_input() {
            assert!(run.parts.iter().all(|p| p.halo_bytes > 0));
        }
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
        let m = DistArray2::from_segments(registered(&segs), rows, cols, segs);
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
