//! Property-based gate for the tiled node kernels: for random shapes
//! (including tile remainders), random cluster shapes and seeded fault
//! schedules, the register-blocked tiled kernels must be
//! **bit-identical** to the naive reference loops — the tiling only reorders
//! the i/j traversal, never the per-element ascending-k accumulation chain
//! (sgemm) or the set of scored pairs (tpacf).

use proptest::prelude::*;
use triolet::prelude::*;
use triolet_apps::sgemm::{self, gemm_naive, gemm_tiled};
use triolet_apps::tpacf::{
    self, cross_correlation, cross_correlation_tiled, self_correlation, self_correlation_tiled,
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

    /// Distributed sgemm: the tiled strip-level two-liner and the tiled
    /// low-level decomposition both reproduce the sequential result to the
    /// bit across cluster shapes and fault schedules.
    #[test]
    fn distributed_sgemm_tiled_is_bit_identical(
        m in 1usize..40,
        k in 1usize..20,
        n in 1usize..40,
        seed in 0u64..1000,
        shape in shapes(6, 4),
        fault_seed in 0u64..3000,
    ) {
        let input = sgemm::generate_rect(m, k, n, seed);
        let expect = sgemm::run_seq(&input);
        let cfg = cluster(shape, Topology::Tree, plan_for(fault_seed, shape.0));

        let rt = Triolet::new(cfg);
        let got = sgemm::run_triolet_tiled(&rt, &input).value;
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

    /// Distributed tpacf: tiled skeleton and tiled low-level runs equal the
    /// sequential histograms exactly across shapes and faults.
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
        let cfg = cluster(shape, Topology::Tree, plan_for(fault_seed, shape.0));

        let rt = Triolet::new(cfg);
        let run = tpacf::run_triolet_tiled(&rt, &input);
        prop_assert_eq!(&expect, &run.value);

        let ll = LowLevelRt::new(cfg);
        let (got, _) = tpacf::run_lowlevel(&ll, &input);
        prop_assert_eq!(&expect, &got);
    }
}
