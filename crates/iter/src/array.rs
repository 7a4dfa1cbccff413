//! Dense unboxed arrays: the in-memory data structures behind indexers.
//!
//! The paper's runtime "stor\[es\] data in arrays" and serializes pointer-free
//! arrays with a block copy. [`Array2`] and [`Array3`] are row-major dense
//! matrices/grids with [`Wire`] framing whose element payload takes the
//! block-copy fast path for pod element types.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

use triolet_domain::{Dim2, Dim3, Domain};
use triolet_serial::{Wire, WireError, WireReader, WireResult, WireWriter};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Array2<T> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
}

impl<T> Array2<T> {
    /// Build from row-major data; `data.len()` must equal `rows * cols`.
    pub fn from_vec(data: Vec<T>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data must fill the matrix");
        Array2 { data, rows, cols }
    }

    /// Build element-by-element from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Array2 { data, rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The matrix's iteration domain.
    pub fn domain(&self) -> Dim2 {
        Dim2::new(self.rows, self.cols)
    }

    /// Row `r` as a contiguous slice.
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// All elements, row-major.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// All elements, row-major, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the backing vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// A shared copy of the backing data, for sources that index into it
    /// ([`array2_iter`](crate::sources::array2_iter)).
    pub fn to_shared(&self) -> Arc<Vec<T>>
    where
        T: Clone,
    {
        Arc::new(self.data.clone())
    }
}

impl<T: Clone + Default> Array2<T> {
    /// Matrix of default-valued elements.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Array2 { data: vec![T::default(); rows * cols], rows, cols }
    }

    /// The transposed matrix (sgemm transposes `B` "for faster memory
    /// access" before multiplying, §2).
    pub fn transpose(&self) -> Array2<T> {
        let mut out = Array2::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)].clone();
            }
        }
        out
    }
}

impl<T> Index<(usize, usize)> for Array2<T> {
    type Output = T;
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for Array2<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Wire> Wire for Array2<T> {
    fn pack(&self, w: &mut WireWriter) {
        self.rows.pack(w);
        self.cols.pack(w);
        T::pack_slice(&self.data, w);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        let rows = usize::unpack(r)?;
        let cols = usize::unpack(r)?;
        let data = T::unpack_vec(r)?;
        if data.len() != rows * cols {
            return Err(WireError::BadLength { len: data.len(), remaining: r.remaining() });
        }
        Ok(Array2 { data, rows, cols })
    }
    fn packed_size(&self) -> usize {
        16 + T::slice_packed_size(&self.data)
    }
}

/// A dense 3-D grid, `z` innermost (cutcp's potential lattice).
#[derive(Debug, Clone, PartialEq)]
pub struct Array3<T> {
    data: Vec<T>,
    dom: Dim3,
}

impl<T> Array3<T> {
    /// Build from linearized data; length must equal the domain size.
    pub fn from_vec(data: Vec<T>, dom: Dim3) -> Self {
        assert_eq!(data.len(), dom.count(), "linearized data must fill the grid");
        Array3 { data, dom }
    }

    /// The grid's iteration domain.
    pub fn domain(&self) -> Dim3 {
        self.dom
    }

    /// All cells, linearized.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// All cells, linearized, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the backing vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Clone + Default> Array3<T> {
    /// Grid of default-valued cells.
    pub fn zeros(dom: Dim3) -> Self {
        Array3 { data: vec![T::default(); dom.count()], dom }
    }
}

impl<T> Index<(usize, usize, usize)> for Array3<T> {
    type Output = T;
    fn index(&self, idx: (usize, usize, usize)) -> &T {
        &self.data[self.dom.linear_of(idx)]
    }
}

impl<T> IndexMut<(usize, usize, usize)> for Array3<T> {
    fn index_mut(&mut self, idx: (usize, usize, usize)) -> &mut T {
        let k = self.dom.linear_of(idx);
        &mut self.data[k]
    }
}

impl<T: Wire> Wire for Array3<T> {
    fn pack(&self, w: &mut WireWriter) {
        self.dom.pack(w);
        T::pack_slice(&self.data, w);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        let dom = Dim3::unpack(r)?;
        let data = T::unpack_vec(r)?;
        if data.len() != dom.count() {
            return Err(WireError::BadLength { len: data.len(), remaining: r.remaining() });
        }
        Ok(Array3 { data, dom })
    }
    fn packed_size(&self) -> usize {
        self.dom.packed_size() + T::slice_packed_size(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_serial::{packed, unpack_all};

    #[test]
    fn array2_from_fn_and_index() {
        let a = Array2::from_fn(3, 4, |r, c| (r * 10 + c) as i32);
        assert_eq!(a[(0, 0)], 0);
        assert_eq!(a[(2, 3)], 23);
        assert_eq!(a.row(1), &[10, 11, 12, 13]);
    }

    #[test]
    fn array2_transpose() {
        let a = Array2::from_fn(2, 3, |r, c| (r, c));
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(t[(c, r)], a[(r, c)]);
            }
        }
    }

    #[test]
    fn array2_double_transpose_is_identity() {
        let a = Array2::from_fn(5, 7, |r, c| (r * 31 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn array2_wire_roundtrip() {
        let a = Array2::from_fn(4, 3, |r, c| (r + c) as f64 * 0.5);
        assert_eq!(unpack_all::<Array2<f64>>(packed(&a)).unwrap(), a);
    }

    #[test]
    fn array2_wire_rejects_inconsistent_shape() {
        let a = Array2::from_fn(2, 2, |r, c| (r + c) as u32);
        let mut w = WireWriter::new();
        // Corrupt: claim 3x3 but pack 4 elements.
        3usize.pack(&mut w);
        3usize.pack(&mut w);
        u32::pack_slice(a.as_slice(), &mut w);
        assert!(unpack_all::<Array2<u32>>(w.finish()).is_err());
    }

    #[test]
    fn array3_index_and_roundtrip() {
        let dom = Dim3::new(2, 3, 4);
        let mut g = Array3::<f32>::zeros(dom);
        g[(1, 2, 3)] = 7.5;
        g[(0, 0, 0)] = -1.0;
        assert_eq!(g[(1, 2, 3)], 7.5);
        assert_eq!(unpack_all::<Array3<f32>>(packed(&g)).unwrap(), g);
    }

    #[test]
    #[should_panic(expected = "fill the matrix")]
    fn array2_from_vec_wrong_len_panics() {
        let _ = Array2::from_vec(vec![1, 2, 3], 2, 2);
    }
}
