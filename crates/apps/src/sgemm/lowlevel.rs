//! C+MPI+OpenMP-style sgemm: the hand-written 2-D block decomposition.
//!
//! The paper: "Similar decompositions are written as part of the parallel
//! C+MPI+OpenMP and Eden code. This took over 120 lines of code in each
//! language, adding development complexity and detracting from the code's
//! readability." This module is that code: grid selection, per-rank row
//! extraction, block kernels, and root-side block placement, all explicit.

use triolet::{Array2, NodeCtx, RunStats};
use triolet_baselines::LowLevelRt;
use triolet_domain::{chunk_ranges, near_square_grid, Dim2Part, Domain, Part, Seq, SeqPart};
use triolet_serial::{wire_struct, PodView};

use super::{gemm_tiled, transpose_seq, SgemmInput};

/// One rank's hand-built message: the `A` row band and `B^T` row band
/// covering its output block, plus the block coordinates.
///
/// The row bands are [`PodView`]s: on the node they alias the received wire
/// buffer instead of being copied out (zero-copy unpack), which matters
/// because they are by far the largest part of the payload.
#[derive(Clone)]
struct BlockPayload {
    block: Dim2Part,
    /// `A` rows `block.row0 .. block.row0 + block.rows`, row-major.
    a_rows: PodView<f32>,
    /// `B^T` rows `block.col0 .. block.col0 + block.cols`, row-major.
    bt_rows: PodView<f32>,
    /// Inner dimension (columns of `A` = columns of `B^T`).
    k: usize,
    alpha: f32,
}

wire_struct!(BlockPayload { block, a_rows, bt_rows, k, alpha });

/// Build the per-rank payloads: choose a process grid, slice row bands.
fn build_payloads(input: &SgemmInput, bt: &Array2<f32>, nodes: usize) -> Vec<BlockPayload> {
    let m = input.a.rows();
    let n = input.b.cols();
    let k = input.a.cols();
    let (pr, pc) = near_square_grid(nodes, m, n);
    let row_bands = chunk_ranges(m, pr);
    let col_bands = chunk_ranges(n, pc);
    let mut payloads = Vec::with_capacity(row_bands.len() * col_bands.len());
    for &(r0, nr) in &row_bands {
        for &(c0, nc) in &col_bands {
            let mut a_rows = Vec::with_capacity(nr * k);
            for r in r0..r0 + nr {
                a_rows.extend_from_slice(input.a.row(r));
            }
            let mut bt_rows = Vec::with_capacity(nc * k);
            for c in c0..c0 + nc {
                bt_rows.extend_from_slice(bt.row(c));
            }
            payloads.push(BlockPayload {
                block: Dim2Part::new(r0, nr, c0, nc),
                a_rows: PodView::from_vec(a_rows),
                bt_rows: PodView::from_vec(bt_rows),
                k,
                alpha: input.alpha,
            });
        }
    }
    payloads
}

/// The node kernel: compute one output block, threads over block rows.
/// Each thread strip runs the tiled kernel over its rows against the full
/// `B^T` band (registered-blocked tiles; bit-identical to the naive loop).
fn block_kernel(ctx: &NodeCtx, p: BlockPayload) -> (Dim2Part, PodView<f32>) {
    let BlockPayload { block, a_rows, bt_rows, k, alpha } = p;
    let chunks = Seq::new(block.rows).split_parts(ctx.threads() * 4);
    let row_strips = ctx.map_chunks(chunks, |strip: &SeqPart| {
        let a_band = &a_rows[strip.start * k..(strip.start + strip.count()) * k];
        gemm_tiled(a_band, &bt_rows, k, strip.count(), block.cols, alpha)
    });
    let data = ctx.sequential(|| row_strips.concat());
    (block, PodView::from_vec(data))
}

/// Run sgemm with hand-written partitioning on `rt`.
pub fn run_lowlevel(rt: &LowLevelRt, input: &SgemmInput) -> (Array2<f32>, RunStats) {
    // Transpose at the root over shared memory (same strategy as Triolet;
    // low-level code does it with an explicit OpenMP loop — here, the node
    // pool of rank 0 is the moral equivalent, but the transpose cost at this
    // scale is not the interesting part of the experiment, so it runs
    // sequentially and is charged to root time).
    let bt = transpose_seq(&input.b);
    let m = input.a.rows();
    let n = input.b.cols();
    let payloads = build_payloads(input, &bt, rt.nodes());
    let (c, stats) = rt.run(payloads, block_kernel, |blocks| {
        let mut c = Array2::<f32>::zeros(m, n);
        let data = c.as_mut_slice();
        for (block, result) in blocks {
            let result = result.as_slice();
            for rr in 0..block.rows {
                let src = &result[rr * block.cols..(rr + 1) * block.cols];
                let d0 = (block.row0 + rr) * n + block.col0;
                data[d0..d0 + block.cols].copy_from_slice(src);
            }
        }
        c
    });
    (c, stats)
}
