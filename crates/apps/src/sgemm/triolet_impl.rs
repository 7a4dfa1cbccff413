//! Triolet implementation: the paper's two-line 2-D block decomposition,
//! over row *strips*.
//!
//! ```python
//! zipped_AB = outerproduct(rows(A), rows(BT))
//! AB = [alpha * dot(u, v) for (u, v) in par(zipped_AB)]
//! ```
//!
//! Here `rows` becomes `row_strips(.., BLOCK_MC)`: each element of
//! `outerproduct(row_strips(A), row_strips(BT))` is one output block with
//! exactly the `A` and `B^T` strips covering it, and `dot` becomes the
//! register-blocked [`gemm_tiled`] over the two strips. Slicing per node
//! ships only those strips (§2, §3.5). Blocks of one grid row slice the
//! *same* `A` strips (and blocks of one grid column the same `B^T` strips):
//! their slices are one window onto the input's buffer, so the root copies
//! no panel, and the cluster sends each from the root once and relays it
//! among the nodes that read it. `B^T` moves into its strips; `A`, which
//! the caller keeps, is cloned into its own once per call. The
//! row-level form, `rows(A)` being `row_strips(A, 1)`, is kept as
//! `examples/matmul.rs`. The transpose runs `localpar`: "Single-node
//! parallelization leverages shared memory to obtain speedup on loops that
//! do very little work per byte of data, such as matrix transposition."

use triolet::prelude::*;
use triolet::Array2;
use triolet_iter::{row_strips, StripRef};

use super::{gemm_tiled, SgemmInput, BLOCK_MC};

/// Shared-memory parallel transpose: `[B[x,y] for (y,x) in range2d(n, k)]`.
pub fn transpose_triolet(rt: &Triolet, b: &Array2<f32>) -> Run<Array2<f32>> {
    let data = b.to_shared();
    let (rows, cols) = (b.rows(), b.cols());
    let it = range2d(cols, rows).map(move |(y, x): (usize, usize)| data[x * cols + y]).localpar();
    rt.build_array2(it)
}

/// Run sgemm through the Triolet skeletons on `rt`.
///
/// Each strip-grid cell runs [`gemm_tiled`] over its two strips, and the
/// root flattens the grid of blocks into the dense output. Results are
/// bit-identical to [`run_seq`](super::run_seq): the tiled kernel keeps the
/// naive accumulation order.
pub fn run_triolet(rt: &Triolet, input: &SgemmInput) -> Run<Array2<f32>> {
    let alpha = input.alpha;
    let k = input.a.cols();
    let (m, n) = (input.a.rows(), input.b.cols());
    let strip = BLOCK_MC;
    // Transpose on shared memory first (sequential bottleneck elsewhere),
    // straight into its strips.
    let t = transpose_triolet(rt, &input.b).map(|bt| row_strips(bt, strip));

    // The two-liner.
    let zipped = outerproduct(row_strips(input.a.clone(), strip), t.value.clone()).par();
    let blocks = rt.build_array2(zipped.map(move |(u, v): (StripRef<f32>, StripRef<f32>)| {
        gemm_tiled(u.as_slice(), v.as_slice(), k, u.rows(), v.rows(), alpha)
    }));

    // Root: flatten the strip grid of blocks into the dense m x n output,
    // one contiguous row segment per block row. The stats (and the trace
    // timeline) include the transpose phase.
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
