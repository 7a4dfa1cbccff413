//! Property-based gate for the sharing-aware scatter: the block-decomposed
//! matrix product is the workload whose tasks share input windows (every A
//! strip panel with its grid row, every Bᵀ panel with its grid column), so for
//! random shapes, cluster sizes and seeded fault schedules —
//! including a crashed rank, which piles several tasks and their panels onto
//! one survivor — shipping each shared panel once and relaying it must
//! change nothing but *which link* carries a byte: values stay bit-equal to
//! the sequential run and every reader still receives each of its panels
//! exactly once.

use std::collections::BTreeSet;

use proptest::prelude::*;
use triolet::prelude::*;
use triolet_apps::sgemm::{self, BLOCK_MC};
use triolet_serial::Wire;

mod common;
use common::{cluster, plan_for, shapes};

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
    /// Strips are `BLOCK_MC` = 64 rows, so `m` and `n` up to 200 give grids
    /// of 1 to 4 strips a side.
    #[test]
    fn multicast_changes_no_value_and_no_count(
        (m, k, n) in (1usize..200, 1usize..24, 1usize..200),
        shape in shapes(9, 3),
        seed in 0u64..3000,
    ) {
        let input = sgemm::generate_rect(m, k, n, seed);
        let expect = sgemm::run_seq(&input);
        let cfg = cluster(shape, plan_for(seed, shape.0));
        let run = sgemm::run_triolet(&Triolet::new(cfg), &input);
        assert_bits(&run.value, &expect)?;
        prop_assert!(run.stats.root_bytes_out <= run.stats.bytes_out);
    }

    /// Fault-free, the bytes on all links are what point-to-point slicing
    /// would ship — every task's whole slice plus its descriptor — each rank
    /// receives exactly its own task's slice and descriptor, and the root
    /// link carries one copy of each distinct panel plus every descriptor.
    #[test]
    fn every_reader_receives_each_panel_once(
        (m, k, n) in (1usize..200, 1usize..24, 1usize..200),
        shape in shapes(9, 3),
        seed in 0u64..1000,
    ) {
        let input = sgemm::generate_rect(m, k, n, seed);
        let rt = Triolet::new(cluster(shape, None).with_trace(true));
        let run = sgemm::run_triolet(&rt, &input);
        assert_bits(&run.value, &sgemm::run_seq(&input))?;

        let bt = sgemm::transpose_seq(&input.b);
        let it = outerproduct(row_strips(input.a.clone(), BLOCK_MC), row_strips(bt, BLOCK_MC));
        let parts = it.outer_domain().split_parts(shape.0);
        let per_part: Vec<u64> = parts
            .iter()
            .map(|p| (it.slice_outer(p).source_bytes() + p.packed_size()) as u64)
            .collect();
        let mut expect = vec![0u64; shape.0];
        expect[..per_part.len()].copy_from_slice(&per_part);
        prop_assert_eq!(run.stats.bytes_out, per_part.iter().sum::<u64>());
        prop_assert_eq!(received(&run.trace, shape.0), expect);
        // A block's slice is its A strip panel and its Bᵀ strip panel, each
        // a 48-byte frame (the element count and `StripsIdx`'s 40-byte
        // header) around its rows × k f32s. A part's rows are its strips,
        // the last one short when the matrix ends inside it. One copy of
        // every distinct panel leaves the root, beside every descriptor.
        let rows_in = |s0: usize, strips: usize, total: usize| {
            ((s0 + strips) * BLOCK_MC).min(total) - s0 * BLOCK_MC
        };
        let panel = |rows: usize| (48 + rows * k * 4) as u64;
        for (p, &bytes) in parts.iter().zip(&per_part) {
            let (a_rows, b_rows) = (rows_in(p.row0, p.rows, m), rows_in(p.col0, p.cols, n));
            prop_assert_eq!(bytes, panel(a_rows) + panel(b_rows) + p.packed_size() as u64);
        }
        let a_panels: BTreeSet<_> = parts.iter().map(|p| (p.row0, p.rows)).collect();
        let b_panels: BTreeSet<_> = parts.iter().map(|p| (p.col0, p.cols)).collect();
        let descriptors: usize = parts.iter().map(Wire::packed_size).sum();
        let distinct: u64 = (a_panels.iter().map(|&(s0, strips)| panel(rows_in(s0, strips, m))))
            .chain(b_panels.iter().map(|&(s0, strips)| panel(rows_in(s0, strips, n))))
            .sum();
        prop_assert_eq!(run.stats.root_bytes_out, distinct + descriptors as u64);
        // Two blocks of a grid always share a row panel or a column panel,
        // so as soon as there are two, pieces relay over the tree.
        prop_assert_eq!(parts.len() > 1, run.trace.count_spans("comm:tree") > 0);
    }
}
