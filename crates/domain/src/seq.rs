//! One-dimensional domains: the paper's `Seq`.

use triolet_serial::wire_struct;

use crate::part::Part;
use crate::split::chunk_ranges;
use crate::Domain;

/// A one-dimensional iteration space holding an array length
/// (`data Seq = Seq Int` in the paper, §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub struct Seq(pub usize);

impl Seq {
    /// Domain over `len` points `0..len`.
    pub fn new(len: usize) -> Self {
        Seq(len)
    }

    /// The length of the underlying collection.
    pub fn len(&self) -> usize {
        self.0
    }

    /// True when the domain has no points.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// A contiguous range of a [`Seq`] domain: `start .. start + len`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct SeqPart {
    /// First index covered by the part.
    pub start: usize,
    /// Number of indices covered.
    pub len: usize,
}

impl SeqPart {
    /// Part covering `start .. start + len`.
    pub fn new(start: usize, len: usize) -> Self {
        SeqPart { start, len }
    }

    /// One-past-the-end index.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// The half-open range covered.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end()
    }
}

impl Part for SeqPart {
    type Index = usize;

    fn count(&self) -> usize {
        self.len
    }

    fn index_at(&self, k: usize) -> usize {
        debug_assert!(k < self.len);
        self.start + k
    }

    fn split(&self, n: usize) -> Vec<Self> {
        chunk_ranges(self.len, n)
            .into_iter()
            .map(|(off, l)| SeqPart::new(self.start + off, l))
            .collect()
    }

    fn split_half(&self) -> Option<(Self, Self)> {
        if self.len < 2 {
            return None;
        }
        let mid = self.len / 2;
        Some((SeqPart::new(self.start, mid), SeqPart::new(self.start + mid, self.len - mid)))
    }
}

impl Domain for Seq {
    type Index = usize;
    type Part = SeqPart;

    fn count(&self) -> usize {
        self.0
    }

    fn index_at(&self, k: usize) -> usize {
        debug_assert!(k < self.0);
        k
    }

    fn linear_of(&self, idx: usize) -> usize {
        idx
    }

    fn contains(&self, idx: usize) -> bool {
        idx < self.0
    }

    fn intersect(&self, other: &Self) -> Self {
        Seq(self.0.min(other.0))
    }

    fn whole_part(&self) -> SeqPart {
        SeqPart::new(0, self.0)
    }

    fn split_parts(&self, n: usize) -> Vec<SeqPart> {
        self.whole_part().split(n)
    }
}

wire_struct!(Seq { 0 });

wire_struct!(SeqPart { start, len });

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_serial::{packed, unpack_all};

    #[test]
    fn seq_linearization_is_identity() {
        let d = Seq::new(10);
        for k in 0..10 {
            assert_eq!(d.index_at(k), k);
            assert_eq!(d.linear_of(k), k);
        }
    }

    #[test]
    fn seq_intersect_is_min() {
        assert_eq!(Seq::new(5).intersect(&Seq::new(9)), Seq::new(5));
        assert_eq!(Seq::new(9).intersect(&Seq::new(5)), Seq::new(5));
    }

    #[test]
    fn part_split_covers() {
        let p = SeqPart::new(10, 25);
        let subs = p.split(4);
        assert_eq!(subs.iter().map(Part::count).sum::<usize>(), 25);
        assert_eq!(subs[0].start, 10);
        let all: Vec<usize> = subs.iter().flat_map(|s| s.indices()).collect();
        assert_eq!(all, (10..35).collect::<Vec<_>>());
    }

    #[test]
    fn part_split_half() {
        let p = SeqPart::new(0, 7);
        let (a, b) = p.split_half().unwrap();
        assert_eq!(a.count() + b.count(), 7);
        assert_eq!(a.end(), b.start);
        assert!(SeqPart::new(3, 1).split_half().is_none());
        assert!(SeqPart::new(3, 0).split_half().is_none());
    }

    #[test]
    fn wire_roundtrip() {
        let d = Seq::new(42);
        assert_eq!(unpack_all::<Seq>(packed(&d)).unwrap(), d);
        let p = SeqPart::new(7, 12);
        assert_eq!(unpack_all::<SeqPart>(packed(&p)).unwrap(), p);
        // Format pin: the fields in declaration order, nothing else.
        assert_eq!(packed(&p), packed(&(7usize, 12usize)));
    }

    #[test]
    fn split_parts_no_empty_parts() {
        // More workers than points: only 3 parts come back.
        let d = Seq::new(3);
        let parts = d.split_parts(16);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.count() == 1));
    }
}
