//! Eden-style cutcp (paper §4.5).
//!
//! Per-atom grid traversal through boxed pipelines (the 2–5x unfused-stepper
//! penalty of §3.1), one full private grid per process, grids merged by
//! message passing at every level. Atom chunks carry the geometry with them.

use triolet::{Domain, RunStats};
use triolet_baselines::{boxed_pipeline, EdenError, EdenRt};

use super::{axis_range, potential, CutcpInput};

/// Run cutcp through the Eden runtime.
pub fn run_eden(rt: &EdenRt, input: &CutcpInput) -> Result<(Vec<f64>, RunStats), EdenError> {
    let geom = input.geom;
    let cells = geom.dom.count();
    // One chunk per process across the machine.
    let total_procs = (rt.nodes() * rt.procs_per_node()).max(1);
    let chunk_size = input.atoms.len().div_ceil(total_procs).max(1);
    let tasks: Vec<CutcpInput> =
        input.atoms.chunks(chunk_size).map(|c| CutcpInput { atoms: c.to_vec(), geom }).collect();

    let (grid, stats) = rt.map_reduce(
        tasks,
        move |t: CutcpInput| -> Vec<f64> {
            let g = t.geom;
            let c2 = g.cutoff * g.cutoff;
            let mut grid = vec![0.0f64; cells];
            for a in &t.atoms {
                // The unfused stepper chain: candidates -> filter -> score,
                // each stage behind dynamic dispatch.
                let (x0, x1) = axis_range(a.x, g.cutoff, g.h, g.dom.nx);
                let (y0, y1) = axis_range(a.y, g.cutoff, g.h, g.dom.ny);
                let (z0, z1) = axis_range(a.z, g.cutoff, g.h, g.dom.nz);
                let candidates = boxed_pipeline((x0..=x1).flat_map(move |ix| {
                    (y0..=y1).flat_map(move |iy| (z0..=z1).map(move |iz| (ix, iy, iz)))
                }));
                let scored = boxed_pipeline(candidates.map(|(ix, iy, iz)| {
                    let dx = ix as f32 * g.h - a.x;
                    let dy = iy as f32 * g.h - a.y;
                    let dz = iz as f32 * g.h - a.z;
                    (g.dom.linear_of((ix, iy, iz)), dx * dx + dy * dy + dz * dz)
                }));
                let inside = boxed_pipeline(scored.filter(|&(_, r2)| r2 <= c2 && r2 > 0.0));
                for (cell, r2) in inside {
                    grid[cell] += potential(a.q, r2, c2);
                }
            }
            grid
        },
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        },
        move || vec![0.0f64; cells],
    )?;
    Ok((grid, stats))
}
