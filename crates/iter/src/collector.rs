//! The collector encoding: imperative, mergeable sinks.
//!
//! A collector is the paper's imperative fold variant (§3.1): a worker that
//! updates its output value by side effect. It is the only encoding that
//! supports mutation — Triolet "uses collectors in sequential code for
//! histogramming and for packing variable-length output skeletons' results
//! into an array." Parallel skeletons give each thread a *private* collector
//! and [`Collector::merge`] the partials (the paper's per-thread histograms,
//! §3.4), so collectors never need to be thread-safe themselves.

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
/// histogram").
#[derive(Debug, Clone, PartialEq)]
pub struct WeightHist {
    bins: Vec<f64>,
}

impl WeightHist {
    /// Grid with `bins` cells, all zero.
    pub fn new(bins: usize) -> Self {
        WeightHist { bins: vec![0.0; bins] }
    }

    /// Wrap existing cell values.
    pub fn from_vec(bins: Vec<f64>) -> Self {
        WeightHist { bins }
    }

    /// Cell values.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }
}

impl Collector for WeightHist {
    type Item = (usize, f64);
    type Out = Vec<f64>;

    fn feed(&mut self, (bin, w): (usize, f64)) {
        if let Some(b) = self.bins.get_mut(bin) {
            *b += w;
        }
    }

    fn merge(&mut self, other: Self) {
        assert_eq!(self.bins.len(), other.bins.len(), "grids must have equal sizes");
        for (a, b) in self.bins.iter_mut().zip(other.bins) {
            *a += b;
        }
    }

    fn finish(self) -> Vec<f64> {
        self.bins
    }
}

// ---------------------------------------------------------------------------
// Wire framing: collectors are the partial results that nodes send back to
// the root (per-node histograms, packed output fragments), so they must be
// serializable.
// ---------------------------------------------------------------------------

use triolet_serial::{Wire, WireReader, WireResult, WireWriter};

impl<T: Wire + Send> Wire for VecCollector<T> {
    fn pack(&self, w: &mut WireWriter) {
        self.items.pack(w);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        Ok(VecCollector { items: Vec::<T>::unpack(r)? })
    }
    fn packed_size(&self) -> usize {
        self.items.packed_size()
    }
}

impl Wire for CountHist {
    fn pack(&self, w: &mut WireWriter) {
        self.bins.pack(w);
        self.overflow.pack(w);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        Ok(CountHist { bins: Vec::<u64>::unpack(r)?, overflow: u64::unpack(r)? })
    }
    fn packed_size(&self) -> usize {
        self.bins.packed_size() + 8
    }
}

impl Wire for WeightHist {
    fn pack(&self, w: &mut WireWriter) {
        self.bins.pack(w);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        Ok(WeightHist { bins: Vec::<f64>::unpack(r)? })
    }
    fn packed_size(&self) -> usize {
        self.bins.packed_size()
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
        assert_eq!(unpack_all::<WeightHist>(packed(&g)).unwrap(), g);

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
        assert_eq!(g.bins(), &[0.0, 0.75, 0.0, 2.0]);
    }

    #[test]
    fn weight_hist_merge() {
        let mut a = WeightHist::new(2);
        a.feed((0, 1.0));
        let mut b = WeightHist::new(2);
        b.feed((0, 2.0));
        b.feed((1, 3.0));
        a.merge(b);
        assert_eq!(a.bins(), &[3.0, 3.0]);
    }
}
