//! tpacf: the two-point angular correlation function (paper §4.4).
//!
//! "The tpacf application analyzes the angular distribution of observed
//! astronomical objects. It uses histogramming and nested traversals,
//! presenting a challenge for conventional fusion frameworks. Three
//! histograms are computed using different inputs. One loop compares an
//! observed data set with itself \[DD\]; one compares it with several random
//! data sets \[DR\]; and one compares each random data set with itself \[RR\].
//! We parallelize across data sets and across elements of a data set."
//!
//! Each comparison computes the angle between two unit vectors on the
//! celestial sphere and bins it into logarithmically spaced angular bins
//! through one [`AngularBins`] lookup table, in every formulation. Pairs
//! beyond the last edge (more than 90 degrees apart) fold into the last
//! bin: on uniform data that is half of all pairs, and the last bin (from
//! about 68 to 90 degrees and beyond) holds about two thirds of them.

mod eden;
mod lowlevel;
mod seq;
mod triolet_impl;

pub use eden::run_eden;
pub use lowlevel::run_lowlevel;
pub use seq::{
    cross_correlation, cross_correlation_tiled, run_seq, self_correlation,
    self_correlation_rows_tiled, self_correlation_tiled, CORR_TILE,
};
pub use triolet_impl::run_triolet;

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A point on the unit sphere (3-D Cartesian unit vector).
pub type Point = (f64, f64, f64);

/// Problem instance: the observed dataset and the random comparison sets.
#[derive(Debug, Clone, PartialEq)]
pub struct TpacfInput {
    /// Observed objects.
    pub obs: Vec<Point>,
    /// Random datasets, each the same length as `obs`.
    pub rands: Vec<Vec<Point>>,
    /// Angular bin edges in `cos(theta)`, descending (angle ascending),
    /// with their lookup table.
    pub bin_edges: AngularBins,
}

/// The three correlation histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpacfOutput {
    /// Observed-observed (data-data) histogram.
    pub dd: Vec<u64>,
    /// Observed-random (data-random) histogram, summed over random sets.
    pub dr: Vec<u64>,
    /// Random-random self-correlation histogram, summed over random sets.
    pub rr: Vec<u64>,
}

/// Number of angular bins used by the generator (Parboil uses a few dozen
/// logarithmic bins).
pub const DEFAULT_BINS: usize = 32;

/// Deterministic synthetic instance: `n` observed points and `n_rand` random
/// datasets of `n` points each, uniform on the sphere; logarithmic angular
/// bins from 0.01 to 90 degrees.
pub fn generate(n: usize, n_rand: usize, bins: usize, seed: u64) -> TpacfInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let sphere_points = |rng: &mut StdRng, n: usize| -> Vec<Point> {
        (0..n)
            .map(|_| {
                // Marsaglia's method for uniform sphere sampling.
                loop {
                    let a: f64 = rng.gen_range(-1.0..1.0);
                    let b: f64 = rng.gen_range(-1.0..1.0);
                    let s = a * a + b * b;
                    if s < 1.0 {
                        let t = 2.0 * (1.0 - s).sqrt();
                        break (a * t, b * t, 1.0 - 2.0 * s);
                    }
                }
            })
            .collect()
    };
    let obs = sphere_points(&mut rng, n);
    let rands = (0..n_rand).map(|_| sphere_points(&mut rng, n)).collect();
    TpacfInput { obs, rands, bin_edges: log_bins(bins) }
}

/// Logarithmically spaced bin edges in `cos(theta)`, descending: bin `i`
/// covers angles in `[edge_angle(i), edge_angle(i+1))` from 0.01 to 90
/// degrees.
pub fn log_bins(bins: usize) -> AngularBins {
    let min_deg = 0.01f64;
    let max_deg = 90.0f64;
    let ratio = (max_deg / min_deg).powf(1.0 / bins as f64);
    let mut edges = Vec::with_capacity(bins + 1);
    for i in 0..=bins {
        let angle_deg = min_deg * ratio.powi(i as i32);
        edges.push(angle_deg.to_radians().cos());
    }
    AngularBins::new(edges)
}

/// Bin index for a pair of unit vectors: the paper's `score(size, u, v)`.
///
/// Returns `bins` (the overflow cell) for angles below the smallest edge, so
/// no pair is silently dropped.
#[inline]
pub fn score(table: &AngularBins, u: Point, v: Point) -> usize {
    let dot = (u.0 * v.0 + u.1 * v.1 + u.2 * v.2).clamp(-1.0, 1.0);
    score_cos(table, dot)
}

/// Bin index for an already-computed (clamped) pair cosine: the lookup half
/// of [`score`]. The tiled correlation loops batch the dot products of one
/// tile (a vectorizable loop) and then bin the batch through this function,
/// so every pair takes exactly the same arithmetic path as [`score`].
#[inline]
pub fn score_cos(table: &AngularBins, dot: f64) -> usize {
    let e = &table.edges;
    if dot > e[0] {
        return e.len() - 1; // closer than the smallest angle: overflow cell
    }
    // Lower edges in cells above the dot's are >= dot and all count; of
    // the run sharing its cell, those the dot exceeds do not.
    let c = cell(dot);
    let (lo, hi) = (table.first[c + 1] as usize, table.first[c] as usize);
    let below = e[1 + lo..1 + hi].iter().filter(|&&edge| dot > edge).count();
    (hi - below).min(e.len() - 2)
}

/// Cells of the [`AngularBins`] lookup table over `cos(theta)` in `[-1, 1]`.
const CELLS: usize = 1024;

/// The table cell of a cosine: `min(((x + 1) * CELLS/2) as usize, CELLS)`.
/// Every step is monotone and `as usize` saturates (NaN goes to 0), so the
/// cell never decreases as `x` grows.
#[inline]
fn cell(x: f64) -> usize {
    (((x + 1.0) * (CELLS / 2) as f64) as usize).min(CELLS)
}

/// Angular bin edges with a lookup table that bins a cosine without a
/// search: what [`score`] and every correlation loop bin through.
///
/// Bin `i` covers `cos(theta)` in `(edges[i+1], edges[i]]`; a cosine above
/// `edges[0]` goes to the overflow cell `bins`, and one at or below the
/// last edge (an angle past it, e.g. beyond 90 degrees for [`log_bins`])
/// folds into the last bin `bins - 1`, as does NaN.
///
/// The bin of a cosine not above `edges[0]` is the number of lower edges
/// `edges[1..]` it does not exceed, clamped to `bins - 1`. Because `cell`
/// never decreases, a lower edge in a higher cell than the dot is `>=` it
/// and one in a lower cell is below it; only the contiguous run of edges
/// sharing the dot's cell is compared exactly. So each cell only needs the
/// bounds of its run, and the count is exact for every cosine.
#[derive(Clone, PartialEq)]
pub struct AngularBins {
    /// Bin edges in `cos(theta)`, non-increasing (angle ascending).
    edges: Vec<f64>,
    /// `first[c]`: how many lower edges lie in cell `c` or above. The run of
    /// cell `c` is `first[c + 1]..first[c]` in `edges[1..]`.
    first: Box<[u32; CELLS + 2]>,
}

impl AngularBins {
    /// Build the table for `edges` in O(`CELLS` + edges).
    ///
    /// # Panics
    /// Unless there are at least two edges (one bin) and they are
    /// non-increasing (which rules out NaN): the caller's contract.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "angular bins need at least two edges");
        assert!(edges.windows(2).all(|w| w[0] >= w[1]), "angular bin edges must be non-increasing");
        let mut first = Box::new([0u32; CELLS + 2]);
        for &edge in &edges[1..] {
            first[cell(edge)] += 1;
        }
        for c in (0..=CELLS).rev() {
            first[c] += first[c + 1];
        }
        AngularBins { edges, first }
    }

    /// The edges, non-increasing in `cos(theta)`.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }
}

impl fmt::Debug for AngularBins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AngularBins").field("edges", &self.edges).finish_non_exhaustive()
    }
}

/// Histogram bin count for an input (bins plus one overflow cell).
pub fn hist_len(input: &TpacfInput) -> usize {
    input.bin_edges.edges().len()
}

/// Validate two outputs exactly (histograms are integral).
pub fn validate(a: &TpacfOutput, b: &TpacfOutput) -> bool {
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet::prelude::*;
    use triolet_baselines::{EdenRt, LowLevelRt};

    fn small() -> TpacfInput {
        generate(60, 3, 16, 99)
    }

    #[test]
    fn generator_points_are_unit() {
        let input = small();
        for &(x, y, z) in input.obs.iter().chain(input.rands.iter().flatten()) {
            let norm = (x * x + y * y + z * z).sqrt();
            assert!((norm - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn score_bins_are_total() {
        // Every pair must land in some bin (including the overflow cell).
        let input = small();
        let bins = hist_len(&input);
        for &u in &input.obs[..10] {
            for &v in &input.obs[..10] {
                assert!(score(&input.bin_edges, u, v) < bins);
            }
        }
    }

    #[test]
    fn score_monotone_in_angle() {
        let edges = log_bins(16);
        // A pair at angle 1 degree must bin strictly below a pair at 45.
        let u = (1.0, 0.0, 0.0);
        let v1 = (1.0f64.to_radians().cos(), 1.0f64.to_radians().sin(), 0.0);
        let v45 = (45.0f64.to_radians().cos(), 45.0f64.to_radians().sin(), 0.0);
        assert!(score(&edges, u, v1) < score(&edges, u, v45));
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn angular_bins_reject_increasing_edges() {
        AngularBins::new(vec![0.5, 0.25, 0.75]);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn angular_bins_reject_nan_edges() {
        AngularBins::new(vec![1.0, f64::NAN, 0.0]);
    }

    #[test]
    fn seq_histogram_totals() {
        let input = small();
        let out = run_seq(&input);
        let n = input.obs.len() as u64;
        let nr = input.rands.len() as u64;
        // DD counts all unique pairs once.
        assert_eq!(out.dd.iter().sum::<u64>(), n * (n - 1) / 2);
        // DR counts n*n pairs per random set.
        assert_eq!(out.dr.iter().sum::<u64>(), nr * n * n);
        // RR counts unique pairs per random set.
        assert_eq!(out.rr.iter().sum::<u64>(), nr * n * (n - 1) / 2);
    }

    #[test]
    fn triolet_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(3, 2));
        let run = run_triolet(&rt, &input);
        assert!(validate(&expect, &run.value));
        assert!(run.stats.bytes_out > 0);
    }

    #[test]
    fn lowlevel_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = LowLevelRt::new(ClusterConfig::virtual_cluster(3, 2));
        let (got, _) = run_lowlevel(&rt, &input);
        assert!(validate(&expect, &got));
    }

    #[test]
    fn eden_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = EdenRt::new(2, 2);
        let (got, _) = run_eden(&rt, &input).expect("payloads fit Eden buffers");
        assert!(validate(&expect, &got));
    }

    #[test]
    fn tiled_correlations_match_naive() {
        use super::seq::{
            cross_correlation, cross_correlation_tiled, self_correlation, self_correlation_tiled,
        };
        let input = generate(75, 2, 16, 5); // not a CORR_TILE multiple
        let bins = hist_len(&input);
        let (mut a, mut b) = (vec![0u64; bins], vec![0u64; bins]);
        self_correlation(&input.bin_edges, &input.obs, &mut a);
        self_correlation_tiled(&input.bin_edges, &input.obs, &mut b);
        assert_eq!(a, b);
        let (mut a, mut b) = (vec![0u64; bins], vec![0u64; bins]);
        cross_correlation(&input.bin_edges, &input.obs, &input.rands[0], &mut a);
        cross_correlation_tiled(&input.bin_edges, &input.obs, &input.rands[0], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn node_count_does_not_change_histograms() {
        let input = small();
        let a = run_triolet(&Triolet::new(ClusterConfig::virtual_cluster(1, 1)), &input).value;
        let b = run_triolet(&Triolet::new(ClusterConfig::virtual_cluster(8, 4)), &input).value;
        assert!(validate(&a, &b));
    }
}
