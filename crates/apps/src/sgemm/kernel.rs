//! The sgemm node kernels: naive reference and the cache-blocked,
//! register-blocked tile kernel.
//!
//! Both kernels compute `out[r*cols + c] = alpha * dot(A_row_r, BT_row_c)`
//! over row-major `A` rows and `B^T` rows. The tiled kernel restructures the
//! *i/j* loops only: each output element still accumulates its `k` products
//! in ascending-`k` order through a single `f32` chain, then scales by
//! `alpha` — exactly the operations [`dot_rows`](super::dot_rows) performs —
//! so the results are **bit-identical** to the naive kernel (asserted by
//! proptests and the ablation bench).
//!
//! The structure is the classic three-level GEMM blocking:
//!
//! * an outer *j* cache block of [`BLOCK_NC`] columns whose `B^T` rows are
//!   packed once into a `k x TILE_NR`-panel buffer (contiguous along the
//!   micro-kernel's access pattern),
//! * an *i* cache block of [`BLOCK_MC`] rows that keeps the active `A` rows
//!   hot while every packed panel of the column block is consumed,
//! * a [`TILE_MR`] x [`TILE_NR`] register micro-kernel holding a 4x4
//!   accumulator block in registers: 16 independent dependence chains per
//!   `k` step instead of the naive kernel's single latency-bound chain.
//!
//! Remainder rows/columns that do not fill a tile fall back to the naive
//! per-element dot product (same chain, same bits).

use super::dot_rows;

/// Register tile height (output rows per micro-kernel call).
pub const TILE_MR: usize = 4;
/// Register tile width (output columns per micro-kernel call).
pub const TILE_NR: usize = 4;
/// Rows per *i* cache block.
pub const BLOCK_MC: usize = 64;
/// Columns per *j* cache block (a multiple of [`TILE_NR`]).
pub const BLOCK_NC: usize = 256;

/// Naive reference kernel: one dot product per output element.
///
/// `a_rows` is `rows x k` row-major, `bt_rows` is `cols x k` row-major
/// (rows of `B^T`, i.e. columns of `B`).
pub fn gemm_naive(
    a_rows: &[f32],
    bt_rows: &[f32],
    k: usize,
    rows: usize,
    cols: usize,
    alpha: f32,
) -> Vec<f32> {
    debug_assert_eq!(a_rows.len(), rows * k);
    debug_assert_eq!(bt_rows.len(), cols * k);
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let a_row = &a_rows[r * k..(r + 1) * k];
        for c in 0..cols {
            out.push(alpha * dot_rows(a_row, &bt_rows[c * k..(c + 1) * k]));
        }
    }
    out
}

/// The tiled kernel: allocate and fill a `rows x cols` output block.
pub fn gemm_tiled(
    a_rows: &[f32],
    bt_rows: &[f32],
    k: usize,
    rows: usize,
    cols: usize,
    alpha: f32,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    gemm_tiled_into(a_rows, bt_rows, k, rows, cols, alpha, &mut out);
    out
}

/// The tiled kernel, writing into a caller-provided `rows x cols` buffer.
pub fn gemm_tiled_into(
    a_rows: &[f32],
    bt_rows: &[f32],
    k: usize,
    rows: usize,
    cols: usize,
    alpha: f32,
    out: &mut [f32],
) {
    debug_assert_eq!(a_rows.len(), rows * k);
    debug_assert_eq!(bt_rows.len(), cols * k);
    debug_assert_eq!(out.len(), rows * cols);

    // One reusable pack buffer for the column block's panels: panel `t`
    // occupies `packed[t*k*TILE_NR ..]` with layout `panel[kk*TILE_NR + c]`,
    // so the micro-kernel reads TILE_NR consecutive floats per k step.
    let mut packed = vec![0.0f32; k * BLOCK_NC];

    let mut jc = 0;
    while jc < cols {
        let ncb = (cols - jc).min(BLOCK_NC);
        let full_j = ncb - ncb % TILE_NR;

        // Pack the full tiles of this column block once; reused by every
        // i block below.
        for jt in (0..full_j).step_by(TILE_NR) {
            let panel = &mut packed[(jt / TILE_NR) * k * TILE_NR..][..k * TILE_NR];
            for c in 0..TILE_NR {
                let bt_row = &bt_rows[(jc + jt + c) * k..][..k];
                for (kk, &x) in bt_row.iter().enumerate() {
                    panel[kk * TILE_NR + c] = x;
                }
            }
        }

        let mut ic = 0;
        while ic < rows {
            let mcb = (rows - ic).min(BLOCK_MC);
            let full_i = mcb - mcb % TILE_MR;
            for jt in (0..full_j).step_by(TILE_NR) {
                let panel = &packed[(jt / TILE_NR) * k * TILE_NR..][..k * TILE_NR];
                for it in (0..full_i).step_by(TILE_MR) {
                    micro_kernel(a_rows, panel, k, ic + it, jc + jt, cols, alpha, out);
                }
                // Remainder rows of this i block against the packed panel:
                // same ascending-k chain through the panel's strided lane.
                for r in ic + full_i..ic + mcb {
                    let a_row = &a_rows[r * k..(r + 1) * k];
                    for c in 0..TILE_NR {
                        let mut acc = 0.0f32;
                        for kk in 0..k {
                            acc += a_row[kk] * panel[kk * TILE_NR + c];
                        }
                        out[r * cols + jc + jt + c] = alpha * acc;
                    }
                }
            }
            ic += mcb;
        }

        // Remainder columns of this block: naive per element.
        for c in jc + full_j..jc + ncb {
            let bt_row = &bt_rows[c * k..(c + 1) * k];
            for r in 0..rows {
                out[r * cols + c] = alpha * dot_rows(&a_rows[r * k..(r + 1) * k], bt_row);
            }
        }

        jc += ncb;
    }
}

/// The TILE_MR x TILE_NR register block: 16 independent accumulator chains,
/// each accumulating in ascending-k order (bit-identical to `dot_rows`).
#[inline]
#[allow(clippy::too_many_arguments)]
fn micro_kernel(
    a_rows: &[f32],
    panel: &[f32],
    k: usize,
    row0: usize,
    col0: usize,
    cols: usize,
    alpha: f32,
    out: &mut [f32],
) {
    let a0 = &a_rows[row0 * k..][..k];
    let a1 = &a_rows[(row0 + 1) * k..][..k];
    let a2 = &a_rows[(row0 + 2) * k..][..k];
    let a3 = &a_rows[(row0 + 3) * k..][..k];
    let mut acc = [[0.0f32; TILE_NR]; TILE_MR];
    for kk in 0..k {
        let b = &panel[kk * TILE_NR..][..TILE_NR];
        let av = [a0[kk], a1[kk], a2[kk], a3[kk]];
        for r in 0..TILE_MR {
            for c in 0..TILE_NR {
                acc[r][c] += av[r] * b[c];
            }
        }
    }
    for r in 0..TILE_MR {
        let dst = &mut out[(row0 + r) * cols + col0..][..TILE_NR];
        for c in 0..TILE_NR {
            dst[c] = alpha * acc[r][c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn randmat(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn assert_bits_equal(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn tiled_matches_naive_bitwise_on_tile_multiples() {
        let mut rng = StdRng::seed_from_u64(7);
        let (rows, cols, k) = (16, 8, 32);
        let a = randmat(&mut rng, rows * k);
        let bt = randmat(&mut rng, cols * k);
        assert_bits_equal(
            &gemm_naive(&a, &bt, k, rows, cols, 0.5),
            &gemm_tiled(&a, &bt, k, rows, cols, 0.5),
        );
    }

    #[test]
    fn tiled_matches_naive_bitwise_on_remainder_shapes() {
        let mut rng = StdRng::seed_from_u64(8);
        for &(rows, cols, k) in
            &[(1usize, 1usize, 1usize), (5, 3, 7), (7, 9, 1), (3, 66, 5), (66, 5, 3), (13, 13, 0)]
        {
            let a = randmat(&mut rng, rows * k);
            let bt = randmat(&mut rng, cols * k);
            assert_bits_equal(
                &gemm_naive(&a, &bt, k, rows, cols, -1.25),
                &gemm_tiled(&a, &bt, k, rows, cols, -1.25),
            );
        }
    }

    #[test]
    fn tiled_matches_naive_across_cache_block_boundaries() {
        let mut rng = StdRng::seed_from_u64(9);
        let (rows, cols, k) = (BLOCK_MC + 3, BLOCK_NC + 6, 17);
        let a = randmat(&mut rng, rows * k);
        let bt = randmat(&mut rng, cols * k);
        assert_bits_equal(
            &gemm_naive(&a, &bt, k, rows, cols, 2.0),
            &gemm_tiled(&a, &bt, k, rows, cols, 2.0),
        );
    }
}
