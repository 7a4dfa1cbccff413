//! sgemm: scaled dense matrix multiply `C = alpha * A * B` (paper §4.3).
//!
//! "We parallelize the multiplication after transposing matrices so that the
//! innermost loop accesses contiguous matrix elements. All three versions
//! use a 2D block-based parallel decomposition that sends each worker only
//! the input matrix rows that it needs to compute its output block."
//!
//! The Triolet version is the paper's two-liner (§2):
//!
//! ```python
//! zipped_AB = outerproduct(rows(A), rows(BT))
//! AB = [dot(u, v) for (u, v) in par(zipped_AB)]
//! ```
//!
//! written at strip level: `rows` becomes `row_strips(.., BLOCK_MC)` and
//! `dot` the tiled block kernel [`gemm_tiled`], so each element of the grid is
//! one `BLOCK_MC x BLOCK_MC` output block. The row-level form (`rows(A)` is
//! `row_strips(A, 1)`) is `examples/matmul.rs`.
//!
//! The transpose itself "does too little work to parallelize profitably on
//! distributed memory"; Triolet runs it `localpar` over shared memory, and
//! the Eden model pays it as a sequential bottleneck.

mod eden;
mod kernel;
mod lowlevel;
mod seq;
mod triolet_impl;

pub use eden::run_eden;
pub use kernel::{gemm_naive, gemm_tiled, gemm_tiled_into, BLOCK_MC, BLOCK_NC, TILE_MR, TILE_NR};
pub use lowlevel::run_lowlevel;
pub use seq::{run_seq, transpose_seq};
/// The name `perf/` still calls [`run_triolet`] by. The next change to the
/// benchmark calls `run_triolet` and deletes this alias (ROADMAP item 2a).
pub use triolet_impl::run_triolet as run_triolet_tiled;
pub use triolet_impl::{run_triolet, transpose_triolet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triolet::Array2;

/// Problem instance: `A` is `m x k`, `B` is `k x n`, output `m x n`.
#[derive(Debug, Clone, PartialEq)]
pub struct SgemmInput {
    /// Left operand.
    pub a: Array2<f32>,
    /// Right operand.
    pub b: Array2<f32>,
    /// Output scale factor.
    pub alpha: f32,
}

/// Deterministic synthetic instance with square `dim x dim` matrices (the
/// paper uses 4k x 4k; benchmarks here use scaled-down dims).
pub fn generate(dim: usize, seed: u64) -> SgemmInput {
    generate_rect(dim, dim, dim, seed)
}

/// Deterministic rectangular instance: `A` is `m x k`, `B` is `k x n`.
pub fn generate_rect(m: usize, k: usize, n: usize, seed: u64) -> SgemmInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen =
        |rows: usize, cols: usize| Array2::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0));
    let a = gen(m, k);
    let b = gen(k, n);
    SgemmInput { a, b, alpha: 0.5 }
}

/// Sequential dot product of two contiguous rows — the inner kernel shared
/// by every implementation.
#[inline]
pub fn dot_rows(u: &[f32], v: &[f32]) -> f32 {
    debug_assert_eq!(u.len(), v.len());
    let mut acc = 0.0f32;
    for (x, y) in u.iter().zip(v) {
        acc += x * y;
    }
    acc
}

/// Validate two outputs to a relative tolerance.
pub fn validate(a: &Array2<f32>, b: &Array2<f32>, tol: f32) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && crate::close_f32(a.as_slice(), b.as_slice(), tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet::prelude::*;
    use triolet_baselines::{EdenError, EdenRt, LowLevelRt};
    use triolet_serial::Wire;

    fn small() -> SgemmInput {
        generate(24, 11)
    }

    #[test]
    fn seq_known_product() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]], alpha = 0.5
        let input = SgemmInput {
            a: Array2::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2),
            b: Array2::from_vec(vec![5.0, 6.0, 7.0, 8.0], 2, 2),
            alpha: 0.5,
        };
        let c = run_seq(&input);
        assert_eq!(c.as_slice(), &[9.5, 11.0, 21.5, 25.0]);
    }

    #[test]
    fn rectangular_shapes() {
        let input = generate_rect(5, 7, 3, 9);
        let c = run_seq(&input);
        assert_eq!(c.rows(), 5);
        assert_eq!(c.cols(), 3);
    }

    #[test]
    fn triolet_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2));
        let run = run_triolet(&rt, &input);
        assert!(validate(&expect, &run.value, 1e-4));
        assert!(run.stats.bytes_out > 0);
    }

    #[test]
    fn triolet_block_slicing_bounds_traffic() {
        // 2-D block decomposition: total received bytes are O(sqrt(nodes))
        // copies of each matrix, far less than nodes x full copies.
        let input = generate(128, 3);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2));
        let full = 2 * (128 * 128 * 4) as u64;
        let stats = run_triolet(&rt, &input).stats;
        // A 2x2 grid of 64-row strips: each strip is read by 2 nodes, so
        // every matrix arrives twice over all links — but leaves the root
        // only once.
        assert!(stats.bytes_out < 3 * full, "bytes_out={} full={}", stats.bytes_out, full);
        assert!(stats.bytes_out as f64 > 1.5 * full as f64);
        assert!(stats.root_bytes_out < full + 1024, "root_bytes_out={}", stats.root_bytes_out);
    }

    /// Packed size of a `rows x k` f32 panel as `row_strips(..)` slices it:
    /// the element vector (length word + data) and `StripsIdx`'s 40-byte
    /// header.
    fn panel(rows: usize, k: usize) -> u64 {
        (8 + rows * k * 4 + 40) as u64
    }

    /// Bytes each rank received, read off the traced sends (`send` hops and
    /// `comm:tree` piece edges). One copy per span: for fault-free links.
    fn received(trace: &TraceData, nodes: usize) -> Vec<u64> {
        let mut got = vec![0u64; nodes];
        for s in trace.spans.iter().filter(|s| s.name == "send" || s.name == "comm:tree") {
            got[s.arg_u64("dest").expect("dest") as usize] += s.arg_u64("bytes").expect("bytes");
        }
        got
    }

    #[test]
    fn shared_panels_leave_the_root_once() {
        // 8 nodes over a 256^3 product: a 4 x 4 grid of strips split 2 x 4,
        // so each task is a 128 x 64 block. Every A panel (two strips) is
        // read by 4 tasks and every B^T panel (one strip) by 2.
        let input = generate(256, 3);
        let descriptors = 8 * Dim2::new(4, 4).whole_part().packed_size() as u64;
        let distinct = 2 * panel(128, 256) + 4 * panel(64, 256);
        let per_task = panel(128, 256) + panel(64, 256);
        let config = ClusterConfig::virtual_cluster(8, 2).with_trace(true);
        let run = run_triolet(&Triolet::new(config), &input);
        assert_eq!(run.value, run_seq(&input));
        // Every reader still receives each of its panels exactly once ...
        assert_eq!(run.stats.bytes_out, 8 * per_task + descriptors);
        assert_eq!(received(&run.trace, 8), vec![per_task + descriptors / 8; 8]);
        // ... but only one copy of each crosses the root link.
        assert_eq!(run.stats.root_bytes_out, distinct + descriptors);
    }

    #[test]
    fn tasks_redispatched_onto_one_rank_receive_a_shared_panel_once() {
        // 4 nodes, a 2 x 2 grid of strips; ranks 1 and 2 are down, so tasks
        // 1 (A0,B1) and 2 (A1,B0) both move to rank 3, which also runs task
        // 3 (A1,B1). B1 and A1 then have rank 3 as their only reader: each
        // rides with the first task that holds it and the second finds it
        // there. A0 and B0 are shared with rank 0 and relayed from it.
        let plan = FaultPlan::seeded(5).with_crash(1).with_crash(2);
        let config = ClusterConfig::virtual_cluster(4, 2).with_faults(plan).with_trace(true);
        let input = generate(128, 3);
        let run = run_triolet(&Triolet::new(config), &input);
        assert_eq!(run.value, run_seq(&input));
        assert_eq!(run.stats.redispatches, 2);
        let descriptor = Dim2::new(2, 2).whole_part().packed_size() as u64;
        assert_eq!(received(&run.trace, 4)[3], 4 * panel(64, 128) + 3 * descriptor);
    }

    #[test]
    fn lowlevel_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = LowLevelRt::new(ClusterConfig::virtual_cluster(4, 2));
        let (got, _) = run_lowlevel(&rt, &input);
        assert!(validate(&expect, &got, 1e-4));
    }

    #[test]
    fn lowlevel_matches_seq_bitwise() {
        // The tiled node kernel preserves the naive accumulation order, so
        // the distributed low-level result is bit-identical to run_seq.
        let input = generate_rect(37, 19, 23, 12);
        let expect = run_seq(&input);
        let rt = LowLevelRt::new(ClusterConfig::virtual_cluster(4, 2));
        let (got, _) = run_lowlevel(&rt, &input);
        assert_eq!(expect.rows(), got.rows());
        for (x, y) in expect.as_slice().iter().zip(got.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn triolet_matches_seq_bitwise() {
        // A 2 x 2 strip grid with short last strips: the tiled kernel keeps
        // the naive accumulation order, so the distributed result is
        // bit-identical to run_seq.
        let input = generate_rect(70, 33, 65, 21);
        let expect = run_seq(&input);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2));
        let run = run_triolet(&rt, &input);
        assert_eq!(expect.rows(), run.value.rows());
        assert_eq!(expect.cols(), run.value.cols());
        for (x, y) in expect.as_slice().iter().zip(run.value.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(run.stats.bytes_out > 0);
    }

    #[test]
    fn eden_matches_seq_on_one_node() {
        let input = small();
        let expect = run_seq(&input);
        let rt = EdenRt::new(1, 4);
        let (got, _) = run_eden(&rt, &input).expect("single node has no buffer limit");
        assert!(validate(&expect, &got, 1e-4));
    }

    #[test]
    fn eden_fails_at_two_nodes_on_large_input() {
        // Paper §4.3: "The Eden code fails at 2 nodes because the array data
        // is too large for Eden's message-passing runtime to buffer."
        let input = generate(384, 5);
        let rt = EdenRt::new(2, 8);
        match run_eden(&rt, &input) {
            Err(EdenError::MessageTooLarge { .. }) => {}
            other => panic!("expected buffer failure, got {:?}", other.map(|(c, _)| c.rows())),
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let input = small();
        let t = transpose_seq(&input.b);
        assert_eq!(t.transpose(), input.b);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(1, 4));
        let t2 = transpose_triolet(&rt, &input.b).value;
        assert_eq!(t, t2);
    }
}
