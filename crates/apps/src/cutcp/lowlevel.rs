//! C+MPI+OpenMP-style cutcp: atoms binned by x cell and partitioned in
//! that order, per-thread private grids, explicit grid reduction, and each
//! rank sending back only the slab of cells it wrote.

use triolet::{Domain, NodeCtx, RunStats};
use triolet_baselines::LowLevelRt;
use triolet_cluster::clock;

use super::{accumulate_atom, bin_by_x, Atom, CutcpInput};

/// The node kernel over one rank's atom slice: private grid per thread
/// chunk, explicit reduction, and the rank's non-zero slab `(lo, cells)`.
fn kernel(ctx: &NodeCtx, p: CutcpInput) -> (usize, Vec<f64>) {
    let cells = p.geom.dom.count();
    let chunk_count = ctx.threads() * 4;
    let chunk_size = p.atoms.len().div_ceil(chunk_count.max(1)).max(1);
    let chunks: Vec<Vec<Atom>> = p.atoms.chunks(chunk_size).map(|c| c.to_vec()).collect();
    let geom = p.geom;
    let mut grid = ctx
        .map_reduce_chunks(
            chunks,
            |atoms: &Vec<Atom>| {
                let mut grid = vec![0.0f64; cells];
                for a in atoms {
                    accumulate_atom(&mut grid, &geom, a);
                }
                grid
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        )
        .unwrap_or_default();
    let written = |v: &f64| v.to_bits() != 0;
    let (Some(lo), Some(last)) = (grid.iter().position(written), grid.iter().rposition(written))
    else {
        return (0, Vec::new());
    };
    grid.truncate(last + 1);
    grid.drain(..lo);
    (lo, grid)
}

/// Run cutcp with hand-written partitioning on `rt`.
pub fn run_lowlevel(rt: &LowLevelRt, input: &CutcpInput) -> (Vec<f64>, RunStats) {
    let geom = input.geom;
    let cells = geom.dom.count();
    let (atoms, bin_s) = clock::timed(|| bin_by_x(input));
    let payloads: Vec<CutcpInput> =
        rt.partition_slice(&atoms).into_iter().map(|atoms| CutcpInput { atoms, geom }).collect();
    let (grid, stats) = rt.run(payloads, kernel, move |slabs| {
        // Root: add each rank's slab at its offset (the gather of §4.5).
        let mut out = vec![0.0f64; cells];
        for (lo, slab) in slabs {
            for (a, b) in out[lo..].iter_mut().zip(slab) {
                *a += b;
            }
        }
        out
    });
    (grid, RunStats::local(bin_s).then(stats))
}
