//! Triolet implementation: the paper's two-line 2-D block decomposition.
//!
//! ```python
//! zipped_AB = outerproduct(rows(A), rows(BT))
//! AB = [alpha * dot(u, v) for (u, v) in par(zipped_AB)]
//! ```
//!
//! `outerproduct(rows(A), rows(BT))` associates each 2-D output block with
//! exactly the `A` rows and `B^T` rows covering it; slicing per node ships
//! only those rows (§2, §3.5). Blocks of one grid row slice the *same* `A`
//! rows (and blocks of one grid column the same `B^T` rows): the engine's
//! slice memo hands them one buffer, and the cluster sends it from the root
//! once and relays it among the nodes that read it. The transpose runs
//! `localpar`: "Single-node parallelization leverages shared memory to
//! obtain speedup on loops that do very little work per byte of data, such
//! as matrix transposition."

use triolet::prelude::*;
use triolet::Array2;
use triolet_iter::{row_strips, RowRef, RowsIdx, StripRef};

use super::{dot_rows, gemm_tiled, SgemmInput, BLOCK_MC};

/// Shared-memory parallel transpose: `[B[x,y] for (y,x) in range2d(n, k)]`.
pub fn transpose_triolet(rt: &Triolet, b: &Array2<f32>) -> Run<Array2<f32>> {
    let data = b.to_shared();
    let (rows, cols) = (b.rows(), b.cols());
    let it = range2d(cols, rows).map(move |(y, x): (usize, usize)| data[x * cols + y]).localpar();
    rt.build_array2(it)
}

/// Run sgemm through the Triolet skeletons on `rt`.
pub fn run_triolet(rt: &Triolet, input: &SgemmInput) -> Run<Array2<f32>> {
    // Transpose on shared memory first (sequential bottleneck elsewhere).
    let t = transpose_triolet(rt, &input.b);
    let alpha = input.alpha;

    // The two-liner.
    let zipped_ab = outerproduct(rows(&input.a), rows(&t.value)).par();
    // The stats (and the trace timeline) include the transpose phase.
    t.then(rt.build_array2(zipped_ab.map(move |(u, v): (RowRef<f32>, RowRef<f32>)| {
        alpha * dot_rows(u.as_slice(), v.as_slice())
    })))
}

/// Run sgemm through the Triolet skeletons with the tiled node kernel.
///
/// Same two-liner shape as [`run_triolet`], lifted from rows to row
/// *strips*: `outerproduct(row_strips(A), row_strips(BT))` associates each
/// strip-grid cell with exactly the `A` and `B^T` row strips covering it,
/// each cell runs the register-blocked [`gemm_tiled`] kernel over its
/// strips, and the root flattens the grid of blocks into the dense output.
/// Results are bit-identical to [`run_triolet`] (the tiled kernel preserves
/// the naive accumulation order).
pub fn run_triolet_tiled(rt: &Triolet, input: &SgemmInput) -> Run<Array2<f32>> {
    let t = transpose_triolet(rt, &input.b);
    let alpha = input.alpha;
    let k = input.a.cols();
    let (m, n) = (input.a.rows(), input.b.cols());
    let strip = BLOCK_MC;

    let zipped = outerproduct(row_strips(&input.a, strip), row_strips(&t.value, strip)).par();
    let blocks = rt.build_array2(zipped.map(move |(u, v): (StripRef<f32>, StripRef<f32>)| {
        gemm_tiled(u.as_slice(), v.as_slice(), k, u.rows(), v.rows(), alpha)
    }));

    // Root: flatten the strip grid of blocks into the dense m x n output,
    // one contiguous row segment per block row.
    t.then(blocks).map(|blocks| {
        let mut c = Array2::<f32>::zeros(m, n);
        let data = c.as_mut_slice();
        for (si, row0) in (0..m).step_by(strip).enumerate() {
            let rows_here = strip.min(m - row0);
            for (sj, col0) in (0..n).step_by(strip).enumerate() {
                let cols_here = strip.min(n - col0);
                let block = &blocks[(si, sj)];
                for rr in 0..rows_here {
                    let d0 = (row0 + rr) * n + col0;
                    data[d0..d0 + cols_here]
                        .copy_from_slice(&block[rr * cols_here..(rr + 1) * cols_here]);
                }
            }
        }
        c
    })
}

/// Concrete type of the sgemm outer-product indexer.
pub type Dim2OuterProduct = triolet_iter::OuterProductIdx<RowsIdx<f32>, RowsIdx<f32>>;

/// The block-decomposed input iterator, exposed for tests and ablations.
pub fn zipped_ab(a: &Array2<f32>, bt: &Array2<f32>) -> IdxFlat<Dim2OuterProduct> {
    outerproduct(rows(a), rows(bt))
}
