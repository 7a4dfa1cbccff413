//! cutcp: cutoff Coulombic potential (paper §4.5).
//!
//! "It computes the electrostatic potential induced by a collection of
//! charged atoms at all points on a grid. An atom's charge affects the
//! potential at grid points within a distance c. The body of the computation
//! is essentially a floating-point histogram: it loops over atoms, loops
//! over nearby grid points, skips points that are not within distance c, and
//! updates the grid at the remaining points."
//!
//! The smoothed cutoff kernel used (per atom of charge `q` at distance `r`):
//!
//! ```text
//! s(r) = q · (1/r) · (1 − (r/c)²)²   for 0 < r ≤ c, else 0
//! ```

mod eden;
mod lowlevel;
mod seq;
mod triolet_impl;

pub use eden::run_eden;
pub use lowlevel::run_lowlevel;
pub use seq::run_seq;
pub use triolet_impl::run_triolet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triolet::{Dim3, Domain};
use triolet_serial::wire_struct;

/// A charged atom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Position (world units).
    pub x: f32,
    /// Position (world units).
    pub y: f32,
    /// Position (world units).
    pub z: f32,
    /// Charge.
    pub q: f32,
}

wire_struct!(Atom { x, y, z, q });

/// Grid geometry: dimensions, spacing, cutoff radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridGeom {
    /// Grid dimensions.
    pub dom: Dim3,
    /// Grid spacing (world units per cell).
    pub h: f32,
    /// Cutoff radius (world units).
    pub cutoff: f32,
}

wire_struct!(GridGeom { dom, h, cutoff });

/// Problem instance. The low-level and Eden versions send chunks of it, an
/// atom slice plus the geometry, as their task messages.
#[derive(Debug, Clone, PartialEq)]
pub struct CutcpInput {
    /// The atoms.
    pub atoms: Vec<Atom>,
    /// Grid geometry.
    pub geom: GridGeom,
}

wire_struct!(CutcpInput { atoms, geom });

/// Deterministic synthetic instance: `n_atoms` atoms uniform in the grid's
/// bounding box, unit-ish charges, grid `dim³` with spacing 0.5 and cutoff
/// spanning a few cells (like Parboil's watbox).
pub fn generate(n_atoms: usize, dim: usize, seed: u64) -> CutcpInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = 0.5f32;
    let cutoff = 2.0f32; // 4 cells
    let extent = dim as f32 * h;
    let atoms = (0..n_atoms)
        .map(|_| Atom {
            x: rng.gen_range(0.0..extent),
            y: rng.gen_range(0.0..extent),
            z: rng.gen_range(0.0..extent),
            q: rng.gen_range(-1.0f32..1.0),
        })
        .collect();
    CutcpInput { atoms, geom: GridGeom { dom: Dim3::new(dim, dim, dim), h, cutoff } }
}

/// The atoms in ascending x cell, in input order within a cell: a stable
/// counting sort, O(atoms + nx). Parboil's cutcp bins its atoms the same
/// way before its kernel. `Dim3::linear_of` is x-major, so a contiguous run
/// of binned atoms writes one x-slab of the grid, one linear range of cells:
/// a node's partial is a slab, not the whole grid.
pub fn bin_by_x(input: &CutcpInput) -> Vec<Atom> {
    let slabs = input.geom.dom.nx.max(1);
    // `as` saturates: negative and NaN coordinates bin to slab 0.
    let slab = |a: &Atom| ((a.x / input.geom.h) as usize).min(slabs - 1);
    let mut next = vec![0usize; slabs + 1];
    for a in &input.atoms {
        next[slab(a) + 1] += 1;
    }
    for i in 1..=slabs {
        next[i] += next[i - 1];
    }
    let mut binned = input.atoms.clone();
    for a in &input.atoms {
        let at = &mut next[slab(a)];
        binned[*at] = *a;
        *at += 1;
    }
    binned
}

/// The cell index range along one axis touched by an atom at coordinate `p`.
#[inline]
pub fn axis_range(p: f32, cutoff: f32, h: f32, cells: usize) -> (usize, usize) {
    let lo = ((p - cutoff) / h).floor().max(0.0) as usize;
    let hi = (((p + cutoff) / h).ceil() as usize).min(cells.saturating_sub(1));
    (lo.min(cells.saturating_sub(1)), hi)
}

/// The smoothed cutoff kernel `s(r²)` premultiplied by the charge; zero
/// outside the cutoff or at the singular origin.
#[inline]
pub fn potential(q: f32, r2: f32, cutoff2: f32) -> f64 {
    if r2 <= 0.0 || r2 > cutoff2 {
        return 0.0;
    }
    let r = (r2 as f64).sqrt();
    let t = 1.0 - r2 as f64 / cutoff2 as f64;
    q as f64 * (1.0 / r) * t * t
}

/// Accumulate one atom into a raw grid: the C inner loop nest, shared by
/// the sequential reference and the low-level ranks.
#[inline]
fn accumulate_atom(grid: &mut [f64], geom: &GridGeom, a: &Atom) {
    let c2 = geom.cutoff * geom.cutoff;
    let (x0, x1) = axis_range(a.x, geom.cutoff, geom.h, geom.dom.nx);
    let (y0, y1) = axis_range(a.y, geom.cutoff, geom.h, geom.dom.ny);
    let (z0, z1) = axis_range(a.z, geom.cutoff, geom.h, geom.dom.nz);
    for ix in x0..=x1 {
        let dx = ix as f32 * geom.h - a.x;
        for iy in y0..=y1 {
            let dy = iy as f32 * geom.h - a.y;
            for iz in z0..=z1 {
                let dz = iz as f32 * geom.h - a.z;
                let r2 = dx * dx + dy * dy + dz * dz;
                if r2 > c2 || r2 <= 0.0 {
                    continue;
                }
                grid[geom.dom.linear_of((ix, iy, iz))] += potential(a.q, r2, c2);
            }
        }
    }
}

/// Validate two grids to a relative tolerance.
pub fn validate(a: &[f64], b: &[f64], tol: f64) -> bool {
    crate::close_f64(a, b, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet::prelude::*;
    use triolet_baselines::{EdenRt, LowLevelRt};

    fn small() -> CutcpInput {
        generate(100, 12, 5)
    }

    #[test]
    fn generator_deterministic_and_bounded() {
        let a = generate(50, 8, 1);
        assert_eq!(a, generate(50, 8, 1));
        let extent = 8.0 * a.geom.h;
        for at in &a.atoms {
            assert!(at.x >= 0.0 && at.x < extent);
        }
    }

    #[test]
    fn messages_frame_as_their_fields() {
        use triolet_serial::{packed, unpack_all};
        let a = Atom { x: 1.0, y: 2.0, z: 3.0, q: -0.5 };
        assert_eq!(packed(&a), packed(&(1.0f32, 2.0f32, 3.0f32, -0.5f32)));
        let input = small();
        let g = input.geom;
        let fields = (input.atoms.clone(), ((g.dom.nx, g.dom.ny, g.dom.nz), g.h, g.cutoff));
        assert_eq!(packed(&input), packed(&fields));
        assert_eq!(unpack_all::<CutcpInput>(packed(&input)).unwrap(), input);
    }

    #[test]
    fn potential_kernel_properties() {
        let c2 = 4.0;
        assert_eq!(potential(1.0, 0.0, c2), 0.0, "singularity excluded");
        assert_eq!(potential(1.0, 5.0, c2), 0.0, "outside cutoff");
        assert!(potential(1.0, 1.0, c2) > potential(1.0, 2.0, c2), "decays with r");
        assert!(potential(-1.0, 1.0, c2) < 0.0, "sign follows charge");
    }

    #[test]
    fn axis_range_clamps() {
        assert_eq!(axis_range(0.1, 2.0, 0.5, 12), (0, 5));
        let (lo, hi) = axis_range(5.9, 2.0, 0.5, 12);
        assert!(lo >= 7 && hi == 11);
    }

    #[test]
    fn binning_sorts_by_x_cell_and_keeps_input_order_within_one() {
        let mut input = generate(500, 12, 3);
        input.atoms.push(Atom { x: -1.0, y: 0.0, z: 0.0, q: 0.5 });
        input.atoms.push(Atom { x: f32::NAN, y: 0.0, z: 0.0, q: 0.25 });
        input.atoms.push(Atom { x: 99.0, y: 0.0, z: 0.0, q: 0.125 });
        let h = input.geom.h;
        let slab = |a: &Atom| ((a.x / h) as usize).min(11);
        let binned = bin_by_x(&input);
        assert_eq!(binned.len(), input.atoms.len());
        assert!(binned.windows(2).all(|w| slab(&w[0]) <= slab(&w[1])), "ascending x cell");
        for s in 0..12 {
            let bits = |a: &&Atom| (a.x.to_bits(), a.y.to_bits(), a.z.to_bits(), a.q.to_bits());
            let of = |atoms: &[Atom]| {
                atoms.iter().filter(|a| slab(a) == s).map(|a| bits(&a)).collect::<Vec<_>>()
            };
            assert_eq!(of(&binned), of(&input.atoms), "slab {s}: same atoms, same order");
        }
    }

    #[test]
    fn binned_partials_ship_their_slabs() {
        // 4096 atoms over 48 x cells, 512 a node: each node's atoms span at
        // most 6 + 1 x cells, plus 4 halo cells a side, so at most 16 of the
        // 48 x-slabs. Dense node grids would send 8 × 48³ × 8 bytes back.
        let input = generate(4096, 48, 11);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(8, 2));
        let run = run_triolet(&rt, &input);
        assert!(validate(&run_seq(&input), &run.value, 1e-9));
        let dense = 8.0 * 48f64.powi(3) * 8.0;
        assert!(
            (run.stats.bytes_back as f64) < 0.35 * dense,
            "{} of {dense} bytes back",
            run.stats.bytes_back
        );
    }

    #[test]
    fn seq_grid_nonzero_near_atoms() {
        let input = small();
        let grid = run_seq(&input);
        assert_eq!(grid.len(), input.geom.dom.count());
        assert!(grid.iter().any(|&v| v.abs() > 1e-9));
    }

    #[test]
    fn triolet_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2));
        let run = run_triolet(&rt, &input);
        assert!(validate(&expect, &run.value, 1e-9), "cutcp grids diverge");
        // The gathered per-node partials dominate the traffic (the paper's
        // saturation cause), slabs though they are.
        assert!(run.stats.bytes_back > run.stats.bytes_out);
    }

    #[test]
    fn lowlevel_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = LowLevelRt::new(ClusterConfig::virtual_cluster(4, 2));
        let (got, _) = run_lowlevel(&rt, &input);
        assert!(validate(&expect, &got, 1e-9));
    }

    #[test]
    fn eden_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = EdenRt::new(2, 2);
        let (got, _) = run_eden(&rt, &input).expect("payloads fit Eden buffers");
        assert!(validate(&expect, &got, 1e-9));
    }

    #[test]
    fn node_count_does_not_change_grid() {
        let input = small();
        let a = run_triolet(&Triolet::new(ClusterConfig::virtual_cluster(1, 1)), &input).value;
        let b = run_triolet(&Triolet::new(ClusterConfig::virtual_cluster(8, 2)), &input).value;
        assert!(validate(&a, &b, 1e-9));
    }
}
