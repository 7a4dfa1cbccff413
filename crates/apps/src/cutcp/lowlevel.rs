//! C+MPI+OpenMP-style cutcp: atom partitioning, per-thread private grids,
//! explicit grid reduction.

use triolet::{Domain, NodeCtx, RunStats};
use triolet_baselines::LowLevelRt;

use super::{accumulate_atom, Atom, CutcpInput};

/// The node kernel over one rank's atom slice: private grid per thread chunk, explicit reduction.
fn kernel(ctx: &NodeCtx, p: CutcpInput) -> Vec<f64> {
    let cells = p.geom.dom.count();
    let chunk_count = ctx.threads() * 4;
    let chunk_size = p.atoms.len().div_ceil(chunk_count.max(1)).max(1);
    let chunks: Vec<Vec<Atom>> = p.atoms.chunks(chunk_size).map(|c| c.to_vec()).collect();
    let geom = p.geom;
    ctx.map_reduce_chunks(
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
    .unwrap_or_else(|| vec![0.0f64; cells])
}

/// Run cutcp with hand-written partitioning on `rt`.
pub fn run_lowlevel(rt: &LowLevelRt, input: &CutcpInput) -> (Vec<f64>, RunStats) {
    let geom = input.geom;
    let cells = geom.dom.count();
    let payloads: Vec<CutcpInput> = rt
        .partition_slice(&input.atoms)
        .into_iter()
        .map(|atoms| CutcpInput { atoms, geom })
        .collect();
    rt.run(payloads, kernel, move |grids| {
        // Root: sum the per-node grids (the expensive gather of §4.5).
        let mut out = vec![0.0f64; cells];
        for g in grids {
            for (a, b) in out.iter_mut().zip(g) {
                *a += b;
            }
        }
        out
    })
}
