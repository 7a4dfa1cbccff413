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
use triolet::Dim3;
use triolet_serial::{Wire, WireReader, WireResult, WireWriter};

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

impl Wire for Atom {
    fn pack(&self, w: &mut WireWriter) {
        self.x.pack(w);
        self.y.pack(w);
        self.z.pack(w);
        self.q.pack(w);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        Ok(Atom { x: f32::unpack(r)?, y: f32::unpack(r)?, z: f32::unpack(r)?, q: f32::unpack(r)? })
    }
    fn packed_size(&self) -> usize {
        16
    }
}

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

impl Wire for GridGeom {
    fn pack(&self, w: &mut WireWriter) {
        self.dom.pack(w);
        self.h.pack(w);
        self.cutoff.pack(w);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        Ok(GridGeom { dom: Dim3::unpack(r)?, h: f32::unpack(r)?, cutoff: f32::unpack(r)? })
    }
    fn packed_size(&self) -> usize {
        self.dom.packed_size() + 8
    }
}

/// Problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CutcpInput {
    /// The atoms.
    pub atoms: Vec<Atom>,
    /// Grid geometry.
    pub geom: GridGeom,
}

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
        // The gathered per-node grids dominate the traffic (the paper's
        // saturation cause).
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
