//! The collector encoding: imperative, mergeable sinks.
//!
//! A collector is the paper's imperative fold variant (§3.1): a worker that
//! updates its output value by side effect. It is the only encoding that
//! supports mutation — Triolet "uses collectors in sequential code for
//! histogramming and for packing variable-length output skeletons' results
//! into an array." Parallel skeletons give each chunk a *private* collector
//! and [`Collector::merge`] the partials in chunk order, so collectors never
//! need to be thread-safe themselves. The paper builds one histogram per
//! thread (§3.4); here a node cuts its part into four chunks per thread so
//! stealing can balance irregular work — 512 partials at 8×16.

/// An imperative accumulation sink.
pub trait Collector: Send {
    /// Element type consumed.
    type Item;
    /// Final result produced.
    type Out;

    /// Absorb one element.
    fn feed(&mut self, item: Self::Item);

    /// Absorb another collector of the same kind (parallel combination).
    fn merge(&mut self, other: Self);

    /// Finish and extract the result.
    fn finish(self) -> Self::Out;
}

/// Packs elements into a vector in arrival order — the paper's
/// variable-length output packing.
#[derive(Debug, Clone, Default)]
pub struct VecCollector<T> {
    items: Vec<T>,
}

impl<T> VecCollector<T> {
    /// Empty collector.
    pub fn new() -> Self {
        VecCollector { items: Vec::new() }
    }

    /// Empty collector with capacity reserved.
    pub fn with_capacity(cap: usize) -> Self {
        VecCollector { items: Vec::with_capacity(cap) }
    }

    /// Elements collected so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing collected yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T: Send> Collector for VecCollector<T> {
    type Item = T;
    type Out = Vec<T>;

    fn feed(&mut self, item: T) {
        self.items.push(item);
    }

    fn merge(&mut self, other: Self) {
        self.items.extend(other.items);
    }

    fn finish(self) -> Vec<T> {
        self.items
    }
}

/// Integer-count histogram over `bins` buckets (tpacf's accumulator).
///
/// Out-of-range bin indices are counted in an `overflow` cell rather than
/// dropped silently, so totals always balance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountHist {
    bins: Vec<u64>,
    overflow: u64,
}

impl CountHist {
    /// Histogram with `bins` buckets, all zero.
    pub fn new(bins: usize) -> Self {
        CountHist { bins: vec![0; bins], overflow: 0 }
    }

    /// Bucket counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Count of fed indices that were out of range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Sum of all buckets plus overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.overflow
    }
}

impl Collector for CountHist {
    type Item = usize;
    type Out = Vec<u64>;

    fn feed(&mut self, bin: usize) {
        match self.bins.get_mut(bin) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    fn merge(&mut self, other: Self) {
        assert_eq!(self.bins.len(), other.bins.len(), "histograms must have equal bin counts");
        for (a, b) in self.bins.iter_mut().zip(other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
    }

    fn finish(self) -> Vec<u64> {
        self.bins
    }
}

/// Floating-point weighted histogram / scatter-add grid (cutcp's
/// accumulator — the paper calls cutcp "essentially a floating-point
/// histogram") that holds only its *write section*: the one linear range of
/// cells it has written (HDArray's write sections, applied to partials).
///
/// A chunk or node that writes a slab of the grid allocates, merges and
/// ships that slab, not the whole grid: [`feed`](Collector::feed) grows
/// the range geometrically when a write falls outside it,
/// [`merge`](Collector::merge) adds only the other side's range, the
/// [`Wire`] form is `(cells, lo, range)` with the range trimmed to its
/// non-zero cells, and [`finish`](Collector::finish) expands it to the
/// dense grid.
/// Out-of-range cells are ignored (off-grid potential).
///
/// **Bits.** Every value equals the dense grid's bit for bit. A cell starts
/// at `+0.0` either way, and a cell outside a section stands for a dense
/// cell that was never written, `+0.0`. Adding or skipping that `+0.0`
/// gives the same bits for every value but `-0.0`, and a sum that starts at
/// `+0.0` is never `-0.0` (`+0.0 + -0.0` is `+0.0`, and `x + -x` is `+0.0`
/// under round-to-nearest). So trimming `+0.0` edge cells before a send is
/// bit-safe too.
///
/// The section is boxed: the leaf fold passes the collector by value through
/// each step, and one pointer moves as cheaply as the dense grid's `Vec` did.
#[derive(Debug, Clone)]
pub struct WeightHist(Box<Section>);

#[derive(Debug, Clone)]
struct Section {
    /// Cells in the dense grid.
    cells: usize,
    /// Grid index of `bins[0]`.
    lo: usize,
    /// Cells `lo .. lo + bins.len()`.
    bins: Vec<f64>,
}

impl WeightHist {
    /// Grid with `cells` cells, all zero; nothing is allocated until the
    /// first write.
    pub fn new(cells: usize) -> Self {
        WeightHist(Box::new(Section { cells, lo: 0, bins: Vec::new() }))
    }

    /// Cells in the dense grid. A decoded partial's comes off the wire, so
    /// a receiver that knows its grid checks this before
    /// [`merge`](Collector::merge) or [`finish`](Collector::finish) sizes
    /// anything from it.
    pub fn cells(&self) -> usize {
        self.0.cells
    }

    /// The written section with its `+0.0` edge cells trimmed: the grid
    /// index of its first cell and its values (`(0, [])` when nothing
    /// non-zero was written).
    fn trimmed(&self) -> (usize, &[f64]) {
        let bins = &self.0.bins;
        let Some(first) = bins.iter().position(|v| v.to_bits() != 0) else {
            return (0, &[]);
        };
        let last = bins.iter().rposition(|v| v.to_bits() != 0).unwrap_or(first);
        (self.0.lo + first, &bins[first..=last])
    }
}

impl Section {
    /// Widen the range to cover `lo .. hi` (within the grid), new cells
    /// `+0.0`.
    fn cover(&mut self, lo: usize, hi: usize) {
        let len = self.bins.len();
        if len == 0 {
            self.lo = lo;
            self.bins = vec![0.0; hi - lo];
        } else if lo < self.lo {
            let mut bins = vec![0.0; hi.max(self.lo + len) - lo];
            bins[self.lo - lo..][..len].copy_from_slice(&self.bins);
            (self.lo, self.bins) = (lo, bins);
        } else if hi > self.lo + len {
            self.bins.resize(hi - self.lo, 0.0);
        }
    }

    /// Add `w` at grid index `bin`, which lies outside the range. Growth is
    /// geometric, so a stream of new extremes costs amortised O(1) per
    /// write: the first write opens an eighth of the grid, a quarter of it
    /// before `bin`; later writes grow the range forwards by at least its
    /// length and backwards by at least a quarter of it, because a loop
    /// nest laid out like the grid mostly writes ascending cells.
    #[cold]
    #[inline(never)]
    fn grow_and_add(&mut self, bin: usize, w: f64) {
        if bin >= self.cells {
            return;
        }
        let len = self.bins.len();
        let (lo, hi) = if len == 0 {
            let first = (self.cells / 8).max(1);
            let lo = bin.saturating_sub(first / 4).min(self.cells - first);
            (lo, lo + first)
        } else if bin < self.lo {
            (bin.min(self.lo.saturating_sub(len / 4)), self.lo + len)
        } else {
            (self.lo, (bin + 1).max(self.lo + 2 * len).min(self.cells))
        };
        self.cover(lo, hi);
        self.bins[bin - self.lo] += w;
    }
}

impl Collector for WeightHist {
    type Item = (usize, f64);
    type Out = Vec<f64>;

    #[inline]
    fn feed(&mut self, (bin, w): (usize, f64)) {
        let s = &mut *self.0;
        match s.bins.get_mut(bin.wrapping_sub(s.lo)) {
            Some(b) => *b += w,
            None => s.grow_and_add(bin, w),
        }
    }

    fn merge(&mut self, other: Self) {
        let (a, b) = (&mut *self.0, *other.0);
        assert_eq!(a.cells, b.cells, "grids must have equal sizes");
        if a.bins.is_empty() {
            *a = b;
            return;
        }
        if b.bins.is_empty() {
            return;
        }
        a.cover(b.lo, b.lo + b.bins.len());
        for (x, y) in a.bins[b.lo - a.lo..].iter_mut().zip(b.bins) {
            *x += y;
        }
    }

    fn finish(self) -> Vec<f64> {
        let Section { cells, lo, bins } = *self.0;
        let mut grid = vec![0.0; cells];
        grid[lo..lo + bins.len()].copy_from_slice(&bins);
        grid
    }
}

// ---------------------------------------------------------------------------
// Wire framing: collectors are the partial results that nodes send back to
// the root (per-node histograms, packed output fragments), so they must be
// serializable.
// ---------------------------------------------------------------------------

use triolet_serial::{wire_struct, Wire, WireError, WireReader, WireResult, WireWriter};

wire_struct!(VecCollector<T> { items });
wire_struct!(CountHist { bins, overflow });

/// `(cells, lo, range)`, the range trimmed to its non-zero cells. The
/// decoder checks the range against the grid, as `Array2`'s checks its
/// length against its header.
impl Wire for WeightHist {
    fn pack(&self, w: &mut WireWriter) {
        let (lo, range) = self.trimmed();
        self.0.cells.pack(w);
        lo.pack(w);
        f64::pack_slice(range, w);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        let cells = usize::unpack(r)?;
        let lo = usize::unpack(r)?;
        let bins = Vec::<f64>::unpack(r)?;
        if lo.checked_add(bins.len()).is_none_or(|hi| hi > cells) {
            return Err(WireError::BadLength {
                len: bins.len(),
                remaining: cells.saturating_sub(lo),
            });
        }
        Ok(WeightHist(Box::new(Section { cells, lo, bins })))
    }
    fn packed_size(&self) -> usize {
        16 + f64::slice_packed_size(self.trimmed().1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_serial::{packed, unpack_all};

    #[test]
    fn collectors_wire_roundtrip() {
        let mut h = CountHist::new(3);
        h.feed(1);
        h.feed(5); // overflow
        let back = unpack_all::<CountHist>(packed(&h)).unwrap();
        assert_eq!(back, h);

        let mut g = WeightHist::new(2);
        g.feed((0, 1.5));
        assert_eq!(unpack_all::<WeightHist>(packed(&g)).unwrap().finish(), g.finish());

        let mut v = VecCollector::<f32>::new();
        v.feed(1.0);
        v.feed(2.0);
        assert_eq!(unpack_all::<VecCollector<f32>>(packed(&v)).unwrap().finish(), vec![1.0, 2.0]);
    }

    #[test]
    fn vec_collector_orders_and_merges() {
        let mut a = VecCollector::new();
        a.feed(1);
        a.feed(2);
        let mut b = VecCollector::new();
        b.feed(3);
        a.merge(b);
        assert_eq!(a.finish(), vec![1, 2, 3]);
    }

    #[test]
    fn count_hist_feeds_and_overflows() {
        let mut h = CountHist::new(3);
        for b in [0, 1, 1, 2, 2, 2, 99] {
            h.feed(b);
        }
        assert_eq!(h.bins(), &[1, 2, 3]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn count_hist_merge_is_elementwise_sum() {
        let mut a = CountHist::new(2);
        a.feed(0);
        let mut b = CountHist::new(2);
        b.feed(0);
        b.feed(1);
        a.merge(b);
        assert_eq!(a.bins(), &[2, 1]);
    }

    #[test]
    #[should_panic(expected = "equal bin counts")]
    fn count_hist_merge_size_mismatch_panics() {
        let mut a = CountHist::new(2);
        a.merge(CountHist::new(3));
    }

    #[test]
    fn weight_hist_scatter_add() {
        let mut g = WeightHist::new(4);
        g.feed((1, 0.5));
        g.feed((1, 0.25));
        g.feed((3, 2.0));
        g.feed((100, 9.0)); // out of range: ignored (off-grid potential)
        assert_eq!(g.finish(), [0.0, 0.75, 0.0, 2.0]);
    }

    #[test]
    fn weight_hist_merge() {
        let mut a = WeightHist::new(2);
        a.feed((0, 1.0));
        let mut b = WeightHist::new(2);
        b.feed((0, 2.0));
        b.feed((1, 3.0));
        a.merge(b);
        assert_eq!(a.finish(), [3.0, 3.0]);
    }

    /// A section's wire form, written field by field: `(cells, lo, range)`.
    fn section(cells: usize, lo: usize, range: &[f64]) -> (usize, usize, Vec<f64>) {
        (cells, lo, range.to_vec())
    }

    #[test]
    fn weight_hist_sends_its_trimmed_section() {
        let mut g = WeightHist::new(10_000);
        g.feed((5_000, 0.0)); // written, but +0.0: trimmed
        g.feed((5_001, 1.5));
        g.feed((5_003, -2.0));
        g.feed((5_004, 0.25));
        g.feed((5_004, -0.25)); // exact cancellation: +0.0, trimmed
        assert_eq!(packed(&g), packed(&section(10_000, 5_001, &[1.5, 0.0, -2.0])));
        let back = unpack_all::<WeightHist>(packed(&g)).unwrap().finish();
        assert_eq!(back, g.finish());
    }

    #[test]
    fn weight_hist_packed_size_is_its_length() {
        let empty = WeightHist::new(64);
        let mut one = WeightHist::new(64);
        one.feed((7, -1.0));
        let mut trimmed = WeightHist::new(64);
        for (bin, w) in [(3, 0.0), (9, 2.0), (20, 1.0), (20, -1.0)] {
            trimmed.feed((bin, w));
        }
        let mut full = WeightHist::new(64);
        for bin in (0..64).rev() {
            full.feed((bin, bin as f64 + 1.0));
        }
        for (name, h, range) in
            [("empty", empty, 0), ("one", one, 1), ("trimmed", trimmed, 1), ("full", full, 64)]
        {
            assert_eq!(h.packed_size(), packed(&h).len(), "{name}");
            assert_eq!(h.packed_size(), 24 + 8 * range, "{name}");
        }
    }

    #[test]
    fn weight_hist_refuses_hostile_sections() {
        let unpack = |fields: &dyn Fn(&mut WireWriter)| {
            let mut w = WireWriter::new();
            fields(&mut w);
            unpack_all::<WeightHist>(w.finish())
        };
        let bad_length = |r: WireResult<WeightHist>| matches!(r, Err(WireError::BadLength { .. }));
        // lo + len overflows.
        assert!(bad_length(unpack(&|w| section(8, usize::MAX, &[1.0]).pack(w))));
        // lo + len = cells + 1.
        assert!(bad_length(unpack(&|w| section(8, 6, &[1.0, 2.0, 3.0]).pack(w))));
        assert!(
            unpack(&|w| section(8, 5, &[1.0, 2.0, 3.0]).pack(w)).is_ok(),
            "lo + len = cells fits"
        );
        // A truncated range, at every cut.
        let whole = packed(&section(8, 2, &[1.0, 2.0, 3.0]));
        for cut in 0..whole.len() {
            assert!(unpack_all::<WeightHist>(whole.slice(..cut)).is_err(), "cut at {cut}");
        }
        // Trailing bytes.
        let err = unpack(&|w| (section(8, 2, &[1.0, 2.0, 3.0]), 0u8).pack(w)).err();
        assert_eq!(err, Some(WireError::TrailingBytes { remaining: 1 }));
    }

    /// Random `(bin, weight)` streams, cut into random chunks: one section
    /// per chunk, each sent through the wire and merged left to right, must
    /// give the dense fold's bits. The streams mix `±0.0` weights, exact
    /// cancellations, out-of-range bins and descending runs (front growth).
    #[test]
    fn sections_merge_to_the_dense_folds_bits() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        for case in 0..300 {
            let cells = 1 + next(5_000);
            let len = next(600);
            let mut stream = Vec::with_capacity(len);
            while stream.len() < len {
                let bin = match next(8) {
                    0 => cells + next(50),
                    1 => usize::MAX - next(3),
                    _ => next(cells as u64),
                };
                let w = match next(6) {
                    0 => -0.0,
                    1 => 0.0,
                    2 => 0.1 * (next(7) as f64 - 3.0),
                    _ => next(1 << 20) as f64 / 7.0 - 70_000.0,
                };
                match next(4) {
                    // An exact cancellation.
                    0 => stream.extend([(bin, w), (bin, -w)]),
                    // A descending run.
                    1 => stream
                        .extend((0..1 + next(40)).map(|k| (bin.saturating_sub(k * next(9)), w))),
                    _ => stream.push((bin, w)),
                }
            }
            let mut cuts: Vec<usize> =
                (0..next(6)).map(|_| next(stream.len() as u64 + 1)).collect();
            cuts.extend([0, stream.len()]);
            cuts.sort_unstable();

            let mut sections: Option<WeightHist> = None;
            let mut dense: Option<Vec<f64>> = None;
            for w in cuts.windows(2) {
                let chunk = &stream[w[0]..w[1]];
                let mut h = WeightHist::new(cells);
                let mut d = vec![0.0f64; cells];
                for &(bin, x) in chunk {
                    h.feed((bin, x));
                    if let Some(c) = d.get_mut(bin) {
                        *c += x;
                    }
                }
                let h = unpack_all::<WeightHist>(packed(&h)).unwrap();
                match (&mut sections, &mut dense) {
                    (Some(acc), Some(acc_d)) => {
                        acc.merge(h);
                        for (a, b) in acc_d.iter_mut().zip(d) {
                            *a += b;
                        }
                    }
                    _ => (sections, dense) = (Some(h), Some(d)),
                }
            }
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let (got, expect) = (sections.unwrap().finish(), dense.unwrap());
            assert_eq!(bits(got), bits(expect), "case {case}: {cells} cells, cuts {cuts:?}");
        }
    }
}
