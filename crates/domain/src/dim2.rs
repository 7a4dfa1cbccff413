//! Two-dimensional domains: the paper's `Dim2`.

use triolet_serial::wire_struct;

use crate::part::Part;
use crate::split::{chunk_ranges, near_square_grid};
use crate::Domain;

/// A dense two-dimensional iteration space of `rows x cols` points
/// (`data Dim2 = Dim2 Int Int` in the paper, §3.3). Indices are
/// `(row, col)` pairs enumerated row-major.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub struct Dim2 {
    /// Number of rows (outer extent).
    pub rows: usize,
    /// Number of columns (inner extent).
    pub cols: usize,
}

impl Dim2 {
    /// Domain over `rows x cols` points.
    pub fn new(rows: usize, cols: usize) -> Self {
        Dim2 { rows, cols }
    }
}

/// A rectangular block of a [`Dim2`] domain: rows `row0 .. row0+rows` crossed
/// with columns `col0 .. col0+cols`.
///
/// Blocks are the unit of sgemm's 2-D decomposition: a block of the output
/// matrix determines the input rows of `A` (vertical extent) and rows of
/// `B^T` (horizontal extent) the computing node must receive (paper §2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Dim2Part {
    /// First row of the block.
    pub row0: usize,
    /// Number of rows.
    pub rows: usize,
    /// First column of the block.
    pub col0: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Dim2Part {
    /// Block covering `(row0..row0+rows) x (col0..col0+cols)`.
    pub fn new(row0: usize, rows: usize, col0: usize, cols: usize) -> Self {
        Dim2Part { row0, rows, col0, cols }
    }
}

impl Part for Dim2Part {
    type Index = (usize, usize);

    fn count(&self) -> usize {
        self.rows * self.cols
    }

    fn index_at(&self, k: usize) -> (usize, usize) {
        debug_assert!(k < self.count());
        (self.row0 + k / self.cols, self.col0 + k % self.cols)
    }

    fn split(&self, n: usize) -> Vec<Self> {
        if self.count() == 0 || n == 0 {
            return Vec::new();
        }
        let (pr, pc) = near_square_grid(n, self.rows, self.cols);
        let row_chunks = chunk_ranges(self.rows, pr);
        let col_chunks = chunk_ranges(self.cols, pc);
        let mut out = Vec::with_capacity(row_chunks.len() * col_chunks.len());
        for &(r0, nr) in &row_chunks {
            for &(c0, nc) in &col_chunks {
                out.push(Dim2Part::new(self.row0 + r0, nr, self.col0 + c0, nc));
            }
        }
        out
    }

    fn split_half(&self) -> Option<(Self, Self)> {
        // Split the longer axis to keep blocks near-square (better locality).
        if self.rows >= self.cols && self.rows >= 2 {
            let mid = self.rows / 2;
            Some((
                Dim2Part::new(self.row0, mid, self.col0, self.cols),
                Dim2Part::new(self.row0 + mid, self.rows - mid, self.col0, self.cols),
            ))
        } else if self.cols >= 2 {
            let mid = self.cols / 2;
            Some((
                Dim2Part::new(self.row0, self.rows, self.col0, mid),
                Dim2Part::new(self.row0, self.rows, self.col0 + mid, self.cols - mid),
            ))
        } else {
            None
        }
    }
}

impl Domain for Dim2 {
    type Index = (usize, usize);
    type Part = Dim2Part;

    fn count(&self) -> usize {
        self.rows * self.cols
    }

    fn index_at(&self, k: usize) -> (usize, usize) {
        debug_assert!(k < self.count());
        (k / self.cols, k % self.cols)
    }

    fn linear_of(&self, (r, c): (usize, usize)) -> usize {
        r * self.cols + c
    }

    fn contains(&self, (r, c): (usize, usize)) -> bool {
        r < self.rows && c < self.cols
    }

    fn intersect(&self, other: &Self) -> Self {
        Dim2::new(self.rows.min(other.rows), self.cols.min(other.cols))
    }

    fn whole_part(&self) -> Dim2Part {
        Dim2Part::new(0, self.rows, 0, self.cols)
    }

    fn split_parts(&self, n: usize) -> Vec<Dim2Part> {
        self.whole_part().split(n)
    }
}

wire_struct!(Dim2 { rows, cols });

wire_struct!(Dim2Part { row0, rows, col0, cols });

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use triolet_serial::{packed, unpack_all};

    #[test]
    fn linearization_bijection() {
        let d = Dim2::new(5, 7);
        for k in 0..d.count() {
            let idx = d.index_at(k);
            assert!(d.contains(idx));
            assert_eq!(d.linear_of(idx), k);
        }
    }

    #[test]
    fn row_major_order() {
        let d = Dim2::new(2, 3);
        let idxs: Vec<_> = (0..6).map(|k| d.index_at(k)).collect();
        assert_eq!(idxs, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn intersect_pointwise_min() {
        let a = Dim2::new(5, 9);
        let b = Dim2::new(7, 3);
        assert_eq!(a.intersect(&b), Dim2::new(5, 3));
    }

    #[test]
    fn blocks_partition_domain() {
        let d = Dim2::new(10, 12);
        for n in [1usize, 2, 3, 4, 6, 8, 16] {
            let blocks = d.split_parts(n);
            let mut seen = HashSet::new();
            for b in &blocks {
                assert!(!b.is_empty());
                for idx in b.indices() {
                    assert!(seen.insert(idx), "duplicate index {idx:?} with n={n}");
                    assert!(d.contains(idx));
                }
            }
            assert_eq!(seen.len(), d.count(), "n={n} must cover the domain");
        }
    }

    #[test]
    fn block_index_enumeration_is_local_row_major() {
        let b = Dim2Part::new(2, 2, 5, 3);
        assert_eq!(b.indices(), vec![(2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7)]);
    }

    #[test]
    fn split_half_covers_and_prefers_long_axis() {
        let b = Dim2Part::new(0, 8, 0, 2);
        let (t, u) = b.split_half().unwrap();
        assert_eq!(t.count() + u.count(), 16);
        assert_eq!(t.cols, 2, "rows axis (longer) must be the split axis");
        assert!(Dim2Part::new(0, 1, 0, 1).split_half().is_none());
    }

    #[test]
    fn four_way_split_of_square_is_2x2() {
        let d = Dim2::new(100, 100);
        let blocks = d.split_parts(4);
        assert_eq!(blocks.len(), 4);
        assert!(blocks.iter().all(|b| b.rows == 50 && b.cols == 50));
    }

    #[test]
    fn wire_roundtrip() {
        let d = Dim2::new(3, 4);
        assert_eq!(unpack_all::<Dim2>(packed(&d)).unwrap(), d);
        let b = Dim2Part::new(1, 2, 3, 4);
        assert_eq!(unpack_all::<Dim2Part>(packed(&b)).unwrap(), b);
        // Format pin: the fields in declaration order, nothing else.
        assert_eq!(packed(&b), packed(&(1usize, 2usize, 3usize, 4usize)));
    }
}
