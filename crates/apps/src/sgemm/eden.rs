//! Eden-style sgemm (paper §4.3).
//!
//! The Eden version hand-writes the same 2-D block decomposition, but pays
//! Eden's costs: the transpose is a *sequential bottleneck* ("Transposition
//! is a sequential bottleneck in Eden since it does too little work to
//! parallelize profitably on distributed memory. At 128 cores, transposition
//! takes 35% of Eden's execution time"), per-process messages carry whole
//! row bands, and — the headline failure — the row-band messages exceed the
//! runtime's buffer capacity beyond one node: "The Eden code fails at 2
//! nodes because the array data is too large for Eden's message-passing
//! runtime to buffer."

use triolet::{Array2, Dim2Part, Part, RunStats};
use triolet_baselines::{EdenError, EdenRt};
use triolet_cluster::clock::timed;
use triolet_domain::{chunk_ranges, near_square_grid};
use triolet_serial::wire_struct;

use super::{dot_rows, transpose_seq, SgemmInput};

/// One Eden task: an output block and the row bands covering it.
#[derive(Clone)]
pub struct EdenBlock {
    block: Dim2Part,
    a_rows: Vec<f32>,
    bt_rows: Vec<f32>,
    k: usize,
    alpha: f32,
}

wire_struct!(EdenBlock { block, a_rows, bt_rows, k, alpha });

/// Run sgemm through the Eden runtime.
pub fn run_eden(rt: &EdenRt, input: &SgemmInput) -> Result<(Array2<f32>, RunStats), EdenError> {
    // Sequential transpose: Eden cannot profitably parallelize it on
    // distributed memory (no shared heap), so the main process does it.
    let (bt, transpose_s) = timed(|| transpose_seq(&input.b));

    let m = input.a.rows();
    let n = input.b.cols();
    let k = input.a.cols();
    // One block per process across the whole machine (flat view).
    let total_procs = rt.nodes() * rt.procs_per_node();
    let (pr, pc) = near_square_grid(total_procs, m, n);
    let mut tasks = Vec::with_capacity(pr * pc);
    for &(r0, nr) in &chunk_ranges(m, pr) {
        for &(c0, nc) in &chunk_ranges(n, pc) {
            let mut a_rows = Vec::with_capacity(nr * k);
            for r in r0..r0 + nr {
                a_rows.extend_from_slice(input.a.row(r));
            }
            let mut bt_rows = Vec::with_capacity(nc * k);
            for c in c0..c0 + nc {
                bt_rows.extend_from_slice(bt.row(c));
            }
            tasks.push(EdenBlock {
                block: Dim2Part::new(r0, nr, c0, nc),
                a_rows,
                bt_rows,
                k,
                alpha: input.alpha,
            });
        }
    }

    let (blocks, mut stats) = rt.map_reduce(
        tasks,
        |t: EdenBlock| -> Vec<(Dim2Part, Vec<f32>)> {
            // Plain loops: sequential Eden sgemm is comparable to C (the
            // slow parts of Eden sgemm are the transpose and the messages).
            let mut out = Vec::with_capacity(t.block.count());
            for lr in 0..t.block.rows {
                let a_row = &t.a_rows[lr * t.k..(lr + 1) * t.k];
                for lc in 0..t.block.cols {
                    let bt_row = &t.bt_rows[lc * t.k..(lc + 1) * t.k];
                    out.push(t.alpha * dot_rows(a_row, bt_row));
                }
            }
            vec![(t.block, out)]
        },
        |mut a, mut b| {
            a.append(&mut b);
            a
        },
        Vec::new,
    )?;

    let mut c = Array2::<f32>::zeros(m, n);
    for (block, data) in blocks {
        for (kk, x) in data.into_iter().enumerate() {
            let (r, cc) = block.index_at(kk);
            c[(r, cc)] = x;
        }
    }
    stats.total_s += transpose_s;
    stats.root_s += transpose_s;
    Ok((c, stats))
}
