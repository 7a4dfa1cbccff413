//! Property-based gate for the tiled node kernels: for random shapes
//! (including tile remainders), random cluster shapes and seeded fault
//! schedules, the register-blocked tiled kernels must be
//! **bit-identical** to the naive reference loops — the tiling only reorders
//! the i/j traversal, never the per-element ascending-k accumulation chain
//! (sgemm) or the set of scored pairs (tpacf). The tpacf bin lookup table
//! is held to the binary search it replaced on every probe that can tell
//! them apart.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triolet::prelude::*;
use triolet_apps::sgemm::{self, gemm_naive, gemm_tiled};
use triolet_apps::tpacf::{
    self, cross_correlation, cross_correlation_tiled, log_bins, score_cos, self_correlation,
    self_correlation_tiled, AngularBins,
};
use triolet_baselines::LowLevelRt;

mod common;
use common::{cluster, plan_for, shapes};

fn assert_f32_bits(a: &[f32], b: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "element {}: {} vs {}", i, x, y);
    }
    Ok(())
}

/// The binary search tpacf binned with before [`AngularBins`], verbatim:
/// the oracle the table must reproduce.
fn score_cos_search(bin_edges: &[f64], dot: f64) -> usize {
    // Edges descend in cos; find the first bin whose lower cos edge is
    // below the dot (i.e. whose angle exceeds the pair's angle).
    // bin i covers cos in (edges[i+1], edges[i]].
    let bins = bin_edges.len() - 1;
    if dot > bin_edges[0] {
        return bins; // closer than the smallest angle: overflow cell
    }
    // Binary search on the descending edge array.
    let mut lo = 0usize;
    let mut hi = bins;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if dot > bin_edges[mid + 1] {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo.min(bins - 1)
}

/// The finite `x` moved one ulp toward `+inf` (`up`) or `-inf`.
fn ulp_step(x: f64, up: bool) -> f64 {
    if x == 0.0 {
        let tiny = f64::from_bits(1);
        return if up { tiny } else { -tiny };
    }
    let bits = x.to_bits();
    f64::from_bits(if (x > 0.0) == up { bits + 1 } else { bits - 1 })
}

/// Table and oracle agree on ±0, ±1, ±2, NaN, every edge and its ±1-ulp
/// neighbours, and `random` uniform dots in [-1, 1].
fn assert_table_matches_search(edges: &[f64], random: usize, seed: u64) {
    let table = AngularBins::new(edges.to_vec());
    let mut probes = vec![0.0, -0.0, 1.0, -1.0, 2.0, -2.0, f64::NAN];
    for &e in edges {
        probes.extend([e, ulp_step(e, true), ulp_step(e, false)]);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    probes.extend((0..random).map(|_| rng.gen_range(-1.0..1.0)));
    for dot in probes {
        assert_eq!(
            score_cos(&table, dot),
            score_cos_search(edges, dot),
            "dot {dot:e} ({:#x}) with edges {edges:?}",
            dot.to_bits()
        );
    }
}

#[test]
fn angular_bins_match_the_search_on_log_bins() {
    for bins in 1..=64 {
        assert_table_matches_search(log_bins(bins).edges(), 4096, bins as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random non-increasing edge sets, with ties, edges on cell boundaries
    /// and runs packed into one cell near `cos = 1`.
    #[test]
    fn angular_bins_match_the_search_on_random_edges(
        raw in proptest::collection::vec((-1.0f64..1.0, 0u32..4), 2..48),
        seed in 0u64..1000,
    ) {
        let mut edges: Vec<f64> = Vec::with_capacity(raw.len());
        for &(x, kind) in &raw {
            let e = match (kind, edges.last()) {
                (1, Some(&prev)) => prev,
                (2, _) => (x * 512.0).round() / 512.0,
                (3, _) => 1.0 - x.abs() * 1e-6,
                _ => x,
            };
            edges.push(e);
        }
        edges.sort_by(|a, b| b.total_cmp(a));
        assert_table_matches_search(&edges, 512, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel-level: tiled == naive to the bit on arbitrary shapes,
    /// including shapes smaller than one tile and remainder fringes.
    #[test]
    fn gemm_tiled_is_bit_identical_to_naive(
        rows in 0usize..48,
        cols in 0usize..48,
        k in 0usize..24,
        seed in 0u64..1000,
        alpha in -2.0f32..2.0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..rows * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let bt: Vec<f32> = (0..cols * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let naive = gemm_naive(&a, &bt, k, rows, cols, alpha);
        let tiled = gemm_tiled(&a, &bt, k, rows, cols, alpha);
        assert_f32_bits(&naive, &tiled)?;
    }

    /// Distributed sgemm: the strip-level two-liner and the low-level
    /// decomposition, both on the tiled kernel, both reproduce the sequential result to the
    /// bit across cluster shapes and fault schedules.
    #[test]
    fn distributed_sgemm_tiled_is_bit_identical(
        m in 1usize..140,
        k in 1usize..20,
        n in 1usize..140,
        seed in 0u64..1000,
        shape in shapes(6, 4),
        fault_seed in 0u64..3000,
    ) {
        let input = sgemm::generate_rect(m, k, n, seed);
        let expect = sgemm::run_seq(&input);
        let cfg = cluster(shape, plan_for(fault_seed, shape.0));

        let rt = Triolet::new(cfg);
        let got = sgemm::run_triolet(&rt, &input).value;
        assert_f32_bits(expect.as_slice(), got.as_slice())?;

        let ll = LowLevelRt::new(cfg);
        let (got, _) = sgemm::run_lowlevel(&ll, &input);
        assert_f32_bits(expect.as_slice(), got.as_slice())?;
    }

    /// Kernel-level tpacf: the tiled correlation loops score exactly the
    /// same pair multiset, so histograms match exactly.
    #[test]
    fn tpacf_tiled_loops_match_naive(
        n in 0usize..80,
        bins in 2usize..24,
        seed in 0u64..1000,
    ) {
        let input = tpacf::generate(n, 1, bins, seed);
        let len = tpacf::hist_len(&input);

        let (mut a, mut b) = (vec![0u64; len], vec![0u64; len]);
        self_correlation(&input.bin_edges, &input.obs, &mut a);
        self_correlation_tiled(&input.bin_edges, &input.obs, &mut b);
        prop_assert_eq!(a, b);

        let (mut a, mut b) = (vec![0u64; len], vec![0u64; len]);
        cross_correlation(&input.bin_edges, &input.obs, &input.rands[0], &mut a);
        cross_correlation_tiled(&input.bin_edges, &input.obs, &input.rands[0], &mut b);
        prop_assert_eq!(a, b);
    }

    /// Distributed tpacf: the fused skeleton run and the tiled low-level run
    /// equal the sequential histograms exactly across shapes and faults.
    #[test]
    fn distributed_tpacf_tiled_matches_seq(
        n in 1usize..50,
        n_rand in 0usize..4,
        seed in 0u64..1000,
        shape in shapes(6, 4),
        fault_seed in 0u64..3000,
    ) {
        let input = tpacf::generate(n, n_rand, 12, seed);
        let expect = tpacf::run_seq(&input);
        let cfg = cluster(shape, plan_for(fault_seed, shape.0));

        let rt = Triolet::new(cfg);
        let run = tpacf::run_triolet(&rt, &input);
        prop_assert_eq!(&expect, &run.value);

        let ll = LowLevelRt::new(cfg);
        let (got, _) = tpacf::run_lowlevel(&ll, &input);
        prop_assert_eq!(&expect, &got);
    }
}
