//! Triolet implementation: the irregular nested-traversal showpiece.
//!
//! The loop is written exactly as the paper's §1 list comprehension:
//!
//! ```text
//! floatHist [f a r | a <- atoms, r <- gridPts a]
//! ```
//!
//! `par(atoms)` is sliced across nodes; `concat_map` generates each atom's
//! nearby grid points (a dynamically sized inner loop); `filter` skips
//! points outside the cutoff; `map` computes the contribution; and the
//! `scatter_add` skeleton plays `floatHist`, building one private grid per
//! chunk (four chunks per thread: 512 grids at 8×16), merging per node, and
//! summing node grids at the root — the two-level floating-point histogram
//! of §3.4.

use triolet::prelude::*;
use triolet_iter::StepFlat;

use super::{axis_range, potential, Atom, CutcpInput, GridGeom};

/// Candidate contribution: cell index, squared distance, charge.
type Candidate = (usize, f32, f32);

/// Generate all grid-point candidates near one atom (the `gridPts a`
/// generator). Candidates still include points outside the cutoff — the
/// downstream `filter` skips them, exactly like the paper's loop.
fn grid_pts(geom: GridGeom, a: Atom) -> StepFlat<std::vec::IntoIter<Candidate>> {
    let (nx, ny, nz) = (geom.dom.nx, geom.dom.ny, geom.dom.nz);
    let (x0, x1) = axis_range(a.x, geom.cutoff, geom.h, nx);
    let (y0, y1) = axis_range(a.y, geom.cutoff, geom.h, ny);
    let (z0, z1) = axis_range(a.z, geom.cutoff, geom.h, nz);
    let mut out = Vec::with_capacity((x1 - x0 + 1) * (y1 - y0 + 1) * (z1 - z0 + 1));
    for ix in x0..=x1 {
        let dx = ix as f32 * geom.h - a.x;
        for iy in y0..=y1 {
            let dy = iy as f32 * geom.h - a.y;
            for iz in z0..=z1 {
                let dz = iz as f32 * geom.h - a.z;
                let r2 = dx * dx + dy * dy + dz * dz;
                out.push((geom.dom.linear_of((ix, iy, iz)), r2, a.q));
            }
        }
    }
    StepFlat::new(out.into_iter())
}

/// Run cutcp through the Triolet skeletons on `rt`.
pub fn run_triolet(rt: &Triolet, input: &CutcpInput) -> Run<Vec<f64>> {
    let geom = input.geom;
    let c2 = geom.cutoff * geom.cutoff;
    let contributions = from_vec(input.atoms.clone())
        .par()
        .concat_map(move |a: Atom| grid_pts(geom, a))
        .filter(move |&(_, r2, _): &Candidate| r2 <= c2 && r2 > 0.0)
        .map(move |(cell, r2, q): Candidate| (cell, potential(q, r2, c2)));
    rt.scatter_add(geom.dom.count(), contributions)
}
