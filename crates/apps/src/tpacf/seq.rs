//! Sequential reference: plain nested loops and a mutable histogram.

use super::{hist_len, score, score_cos, AngularBins, Point, TpacfInput, TpacfOutput};

/// Self-correlation: all unique pairs `(i, j)` with `j > i`.
pub fn self_correlation(table: &AngularBins, set: &[Point], hist: &mut [u64]) {
    for i in 0..set.len() {
        let u = set[i];
        for &v in &set[i + 1..] {
            hist[score(table, u, v)] += 1;
        }
    }
}

/// Cross-correlation: all pairs from `a x b`.
pub fn cross_correlation(table: &AngularBins, a: &[Point], b: &[Point], hist: &mut [u64]) {
    for &u in a {
        for &v in b {
            hist[score(table, u, v)] += 1;
        }
    }
}

/// Points per i-tile in the tiled correlation loops: a tile of 3-f64 points
/// stays resident in L1 while the partner set streams past it once.
pub const CORR_TILE: usize = 32;

/// The tiled self-correlation: identical pair set to [`self_correlation`]
/// (every unique pair scored once with the same arithmetic as [`score`]),
/// so the histogram is bit-for-bit identical — u64 increments commute. The
/// i-loop is tiled; each streamed `v` computes its tile of dot products in
/// one batch (a vectorizable loop with no branches) before the table lookup
/// bins the batch.
pub fn self_correlation_tiled(table: &AngularBins, set: &[Point], hist: &mut [u64]) {
    self_correlation_rows_tiled(table, set, 0, set.len(), hist);
}

/// Batched inner step shared by the tiled loops: dot one streamed point
/// against a resident tile (vectorizable, branch-free), then bin the batch.
/// Each pair's cosine is `(u.0*v.0 + u.1*v.1 + u.2*v.2).clamp(-1, 1)` —
/// exactly [`score`]'s arithmetic — so the bins are identical.
#[inline]
fn score_tile(table: &AngularBins, tile: &[Point], v: Point, hist: &mut [u64]) {
    let mut dots = [0.0f64; CORR_TILE];
    let n = tile.len();
    for (d, &u) in dots[..n].iter_mut().zip(tile) {
        *d = (u.0 * v.0 + u.1 * v.1 + u.2 * v.2).clamp(-1.0, 1.0);
    }
    for &d in &dots[..n] {
        hist[score_cos(table, d)] += 1;
    }
}

/// The tiled self-correlation restricted to anchor rows `lo..hi`: all pairs
/// `(i, j)` with `lo <= i < hi` and `j > i`. The building block for both
/// [`self_correlation_tiled`] and thread-chunked distributed DD loops.
pub fn self_correlation_rows_tiled(
    table: &AngularBins,
    set: &[Point],
    lo: usize,
    hi: usize,
    hist: &mut [u64],
) {
    let mut ib = lo;
    while ib < hi {
        let ie = (ib + CORR_TILE).min(hi);
        // Pairs inside the tile: the small triangle.
        for i in ib..ie {
            let u = set[i];
            for &v in &set[i + 1..ie] {
                hist[score(table, u, v)] += 1;
            }
        }
        // Tile vs everything past it: stream each v across the hot tile,
        // batching the dots before the bin lookup.
        for &v in &set[ie..] {
            score_tile(table, &set[ib..ie], v, hist);
        }
        ib = ie;
    }
}

/// The tiled cross-correlation: same pair set as [`cross_correlation`], i-tiled
/// over `a` so each tile of `a` stays cache-resident while `b` streams by.
pub fn cross_correlation_tiled(table: &AngularBins, a: &[Point], b: &[Point], hist: &mut [u64]) {
    let mut ib = 0;
    while ib < a.len() {
        let ie = (ib + CORR_TILE).min(a.len());
        for &v in b {
            score_tile(table, &a[ib..ie], v, hist);
        }
        ib = ie;
    }
}

/// Compute the three histograms with sequential loops.
pub fn run_seq(input: &TpacfInput) -> TpacfOutput {
    let bins = hist_len(input);
    let mut dd = vec![0u64; bins];
    self_correlation(&input.bin_edges, &input.obs, &mut dd);

    let mut dr = vec![0u64; bins];
    let mut rr = vec![0u64; bins];
    for rand in &input.rands {
        cross_correlation(&input.bin_edges, &input.obs, rand, &mut dr);
        self_correlation(&input.bin_edges, rand, &mut rr);
    }
    TpacfOutput { dd, dr, rr }
}
