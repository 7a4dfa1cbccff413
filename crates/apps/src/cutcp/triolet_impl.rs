//! Triolet implementation: the irregular nested-traversal showpiece.
//!
//! The loop is written exactly as the paper's §1 list comprehension:
//!
//! ```text
//! floatHist [f a r | a <- atoms, r <- gridPts a]
//! ```
//!
//! The atoms are first binned by x cell ([`bin_by_x`], charged to the model
//! as a root-local phase), so each node's part and each chunk's atoms are an
//! x-slab. `par(atoms)` is sliced across nodes; `concat_map` generates each
//! atom's nearby grid points (a fused x/y/z nest over its clamped box);
//! `filter` skips points outside the cutoff; `map` computes the
//! contribution; and the `scatter_add` skeleton plays `floatHist`, building
//! one private partial per chunk (four chunks per thread: 512 at 8×16),
//! merging per node, and summing node partials at the root — the two-level
//! floating-point histogram of §3.4. A partial holds only the range of
//! cells its atoms wrote (`WeightHist`), so a node ships its slab, about a
//! third of the grid at 8 nodes, not the whole grid.

use triolet::prelude::*;
use triolet::Run;
use triolet_cluster::clock;

use super::{axis_range, bin_by_x, potential, Atom, CutcpInput, GridGeom};

/// Candidate contribution: cell index, squared distance, charge.
type Candidate = (usize, f32, f32);

/// Generate all grid-point candidates near one atom (the `gridPts a`
/// generator) as an x/y/z nest over its clamped box that fuses with the
/// consumer: no candidate list is built. Candidates still include points
/// outside the cutoff — the downstream `filter` skips them, as in the paper.
fn grid_pts(geom: GridGeom, a: Atom) -> impl TrioIter<Item = Candidate> {
    let (x0, x1) = axis_range(a.x, geom.cutoff, geom.h, geom.dom.nx);
    let (y0, y1) = axis_range(a.y, geom.cutoff, geom.h, geom.dom.ny);
    let (z0, z1) = axis_range(a.z, geom.cutoff, geom.h, geom.dom.nz);
    range(x1 - x0 + 1).concat_map(move |i: usize| {
        let ix = x0 + i;
        let dx = ix as f32 * geom.h - a.x;
        range(y1 - y0 + 1).concat_map(move |j: usize| {
            let iy = y0 + j;
            let dy = iy as f32 * geom.h - a.y;
            range(z1 - z0 + 1).map(move |k: usize| {
                let iz = z0 + k;
                let dz = iz as f32 * geom.h - a.z;
                (geom.dom.linear_of((ix, iy, iz)), dx * dx + dy * dy + dz * dz, a.q)
            })
        })
    })
}

/// Run cutcp through the Triolet skeletons on `rt`.
pub fn run_triolet(rt: &Triolet, input: &CutcpInput) -> Run<Vec<f64>> {
    let geom = input.geom;
    let c2 = geom.cutoff * geom.cutoff;
    let (atoms, bin_s) = clock::timed(|| bin_by_x(input));
    let contributions = from_vec(atoms)
        .par()
        .concat_map(move |a: Atom| grid_pts(geom, a))
        .filter(move |&(_, r2, _): &Candidate| r2 <= c2 && r2 > 0.0)
        .map(move |(cell, r2, q): Candidate| (cell, potential(q, r2, c2)));
    Run::new((), RunStats::local(bin_s)).then(rt.scatter_add(geom.dom.count(), contributions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutcp::generate;

    /// Every candidate of `run_seq`'s loop nest (`accumulate_atom`) for one
    /// atom, in its visit order, before its cutoff test; `r²` and `q` as bits.
    fn loop_nest(g: GridGeom, a: Atom) -> Vec<(usize, u32, u32)> {
        let (x0, x1) = axis_range(a.x, g.cutoff, g.h, g.dom.nx);
        let (y0, y1) = axis_range(a.y, g.cutoff, g.h, g.dom.ny);
        let (z0, z1) = axis_range(a.z, g.cutoff, g.h, g.dom.nz);
        let mut out = Vec::new();
        for ix in x0..=x1 {
            let dx = ix as f32 * g.h - a.x;
            for iy in y0..=y1 {
                let dy = iy as f32 * g.h - a.y;
                for iz in z0..=z1 {
                    let dz = iz as f32 * g.h - a.z;
                    let r2 = dx * dx + dy * dy + dz * dz;
                    out.push((g.dom.linear_of((ix, iy, iz)), r2.to_bits(), a.q.to_bits()));
                }
            }
        }
        out
    }

    #[test]
    fn grid_pts_yields_the_loop_nests_candidates_in_its_order() {
        // A 24³ grid of spacing 0.5 spans 12 units. Unclamped, the cutoff
        // box spans 10 cells per axis, 9 when the atom sits on a grid plane;
        // at a face it is clamped to 6 (low side) or 5 (high side).
        let geom = generate(0, 24, 1).geom;
        let atom = |x, y, z| Atom { x, y, z, q: -0.37 };
        let cases = [
            ("corner", atom(0.1, 0.1, 0.1), 6 * 6 * 6),
            ("far corner", atom(11.9, 11.9, 11.9), 5 * 5 * 5),
            ("edge", atom(0.1, 6.3, 11.9), 6 * 10 * 5),
            ("centre", atom(6.3, 5.7, 6.1), 10 * 10 * 10),
            ("on a grid point", atom(6.0, 6.0, 6.0), 9 * 9 * 9),
        ];
        for (name, a, len) in cases {
            let expect = loop_nest(geom, a);
            let bits = |(cell, r2, q): Candidate| (cell, r2.to_bits(), q.to_bits());
            let got = grid_pts(geom, a).map(bits).collect_vec();
            assert_eq!(expect.len(), len, "{name}: box size");
            assert_eq!(got, expect, "{name}: candidates or their order differ");
        }
    }
}
