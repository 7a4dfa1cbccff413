//! Property-based gate for the sharing-aware scatter: the block-decomposed
//! matrix product is the workload whose tasks share input windows (every A
//! row panel with its grid row, every Bᵀ panel with its grid column), so for
//! random shapes, cluster sizes, topologies and seeded fault schedules —
//! including a crashed rank, which piles several tasks and their panels onto
//! one survivor — shipping each shared panel once and relaying it must
//! change nothing but *which link* carries a byte: values stay bit-equal to
//! the sequential run and every reader still receives each of its panels
//! exactly once.

use proptest::prelude::*;
use triolet::prelude::*;
use triolet_apps::sgemm;
use triolet_serial::Wire;

mod common;
use common::{cluster, plan_for, shapes, topology_from};

/// Bytes each rank received, read off the traced sends (`send` hops and
/// `comm:tree` piece edges). One copy per span: for fault-free links.
fn received(trace: &TraceData, nodes: usize) -> Vec<u64> {
    let mut got = vec![0u64; nodes];
    for s in trace.spans.iter().filter(|s| s.name == "send" || s.name == "comm:tree") {
        got[s.arg_u64("dest").expect("dest") as usize] += s.arg_u64("bytes").expect("bytes");
    }
    got
}

fn assert_bits(a: &Array2<f32>, b: &Array2<f32>) -> Result<(), TestCaseError> {
    prop_assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the schedule does, the product is the sequential product.
    #[test]
    fn multicast_changes_no_value_and_no_count(
        (m, k, n) in (1usize..40, 1usize..24, 1usize..40),
        shape in shapes(9, 3),
        topo_sel in 0u64..2,
        seed in 0u64..3000,
    ) {
        let input = sgemm::generate_rect(m, k, n, seed);
        let expect = sgemm::run_seq(&input);
        let cfg = cluster(shape, topology_from(topo_sel), plan_for(seed, shape.0));
        let run = sgemm::run_triolet(&Triolet::new(cfg), &input);
        assert_bits(&run.value, &expect)?;
        prop_assert!(run.stats.root_bytes_out <= run.stats.bytes_out);
    }

    /// Fault-free, the bytes on all links are what point-to-point slicing
    /// would ship — every task's whole slice plus its descriptor — and each
    /// rank receives the same bytes whether the readers relay a shared
    /// panel (`Tree`) or the root sends every copy (`Linear`).
    #[test]
    fn every_reader_receives_each_panel_once(
        (m, k, n) in (1usize..40, 1usize..24, 1usize..40),
        shape in shapes(9, 3),
        seed in 0u64..1000,
    ) {
        let input = sgemm::generate_rect(m, k, n, seed);
        let run = |topology| {
            let rt = Triolet::new(cluster(shape, topology, None).with_trace(true));
            sgemm::run_triolet(&rt, &input)
        };
        let (tree, linear) = (run(Topology::Tree), run(Topology::Linear));
        assert_bits(&tree.value, &linear.value)?;

        let it = sgemm::zipped_ab(&input.a, &sgemm::transpose_seq(&input.b));
        let parts = it.outer_domain().split_parts(shape.0);
        let sliced: usize =
            parts.iter().map(|p| it.slice_outer(p).source_bytes() + p.packed_size()).sum();
        prop_assert_eq!(tree.stats.bytes_out, sliced as u64);
        prop_assert_eq!(linear.stats.bytes_out, sliced as u64);
        prop_assert_eq!(received(&tree.trace, shape.0), received(&linear.trace, shape.0));
        // The root link carries everything under `Linear`; under `Tree`
        // strictly less as soon as there are two blocks, because two blocks
        // of a grid always share a row panel or a column panel.
        prop_assert_eq!(linear.stats.root_bytes_out, linear.stats.bytes_out);
        if parts.len() > 1 {
            prop_assert!(tree.stats.root_bytes_out < linear.stats.root_bytes_out);
            prop_assert!(tree.trace.count_spans("comm:tree") > 0);
        } else {
            prop_assert_eq!(tree.stats.root_bytes_out, linear.stats.root_bytes_out);
        }
    }

    /// The strip-level decomposition the benchmark runs shares panels the
    /// same way (one `StripsIdx` window per grid row/column).
    #[test]
    fn tiled_strips_share_their_panels_too(
        (m, k, n) in (65usize..200, 1usize..12, 65usize..200),
        nodes in 2usize..=9,
        seed in 0u64..3000,
    ) {
        let input = sgemm::generate_rect(m, k, n, seed);
        let expect = sgemm::run_seq(&input);
        let plan = plan_for(seed, nodes);
        let run = |topology| {
            sgemm::run_triolet_tiled(&Triolet::new(cluster((nodes, 2), topology, plan)), &input)
        };
        let (tree, linear) = (run(Topology::Tree), run(Topology::Linear));
        assert_bits(&tree.value, &expect)?;
        assert_bits(&linear.value, &expect)?;
        if plan.is_none() {
            prop_assert_eq!(tree.stats.bytes_out, linear.stats.bytes_out);
            prop_assert!(tree.stats.root_bytes_out < linear.stats.root_bytes_out);
        }
    }
}
