//! mri-q: non-uniform 3-D inverse Fourier transform (paper §4.2).
//!
//! "The main loop of mri-q computes a non-uniform 3D inverse Fourier
//! transform to create a 3D image. … This consists of a parallel map over
//! image pixels, summing contributions from all frequency-domain samples."
//!
//! For each pixel position `r = (x, y, z)` and each k-space sample
//! `k = (kx, ky, kz)` with magnitude `phiMag = phiR² + phiI²`:
//!
//! ```text
//! Q(r) = Σ_k phiMag(k) · ( cos(2π·k·r), sin(2π·k·r) )
//! ```
//!
//! The Triolet version is the paper's two-liner: a `par(zip3(x, y, z))` map
//! whose body sums over the (broadcast) sample arrays.

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
use triolet_serial::wire_struct;

/// Problem instance: pixel positions and k-space samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MriqInput {
    /// Pixel x coordinates.
    pub x: Vec<f32>,
    /// Pixel y coordinates.
    pub y: Vec<f32>,
    /// Pixel z coordinates.
    pub z: Vec<f32>,
    /// Sample kx coordinates.
    pub kx: Vec<f32>,
    /// Sample ky coordinates.
    pub ky: Vec<f32>,
    /// Sample kz coordinates.
    pub kz: Vec<f32>,
    /// Sample phi (real).
    pub phi_r: Vec<f32>,
    /// Sample phi (imaginary).
    pub phi_i: Vec<f32>,
}

impl MriqInput {
    /// Number of image pixels.
    pub fn num_pixels(&self) -> usize {
        self.x.len()
    }

    /// Number of k-space samples.
    pub fn num_samples(&self) -> usize {
        self.kx.len()
    }
}

/// The reconstructed image: real and imaginary parts per pixel.
#[derive(Debug, Clone, PartialEq)]
pub struct MriqOutput {
    /// Real part per pixel.
    pub qr: Vec<f32>,
    /// Imaginary part per pixel.
    pub qi: Vec<f32>,
}

/// The k-space sample arrays bundled as the broadcast environment of the
/// parallel pixel map (every pixel needs every sample).
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    /// kx per sample.
    pub kx: Vec<f32>,
    /// ky per sample.
    pub ky: Vec<f32>,
    /// kz per sample.
    pub kz: Vec<f32>,
    /// Precomputed phi magnitude per sample.
    pub phi_mag: Vec<f32>,
}

wire_struct!(Samples { kx, ky, kz, phi_mag });

impl MriqInput {
    /// Precompute the sample bundle (`phiMag = phiR² + phiI²`).
    pub fn samples(&self) -> Samples {
        Samples {
            kx: self.kx.clone(),
            ky: self.ky.clone(),
            kz: self.kz.clone(),
            phi_mag: self.phi_r.iter().zip(&self.phi_i).map(|(r, i)| r * r + i * i).collect(),
        }
    }
}

/// Deterministic synthetic instance: pixels on a jittered lattice in the
/// unit cube, samples on a jittered k-space shell — the same computational
/// shape as Parboil's scanner trajectories.
pub fn generate(num_pixels: usize, num_samples: usize, seed: u64) -> MriqInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let coord = |rng: &mut StdRng| rng.gen_range(-1.0f32..1.0);
    let mut input = MriqInput {
        x: Vec::with_capacity(num_pixels),
        y: Vec::with_capacity(num_pixels),
        z: Vec::with_capacity(num_pixels),
        kx: Vec::with_capacity(num_samples),
        ky: Vec::with_capacity(num_samples),
        kz: Vec::with_capacity(num_samples),
        phi_r: Vec::with_capacity(num_samples),
        phi_i: Vec::with_capacity(num_samples),
    };
    for _ in 0..num_pixels {
        input.x.push(coord(&mut rng));
        input.y.push(coord(&mut rng));
        input.z.push(coord(&mut rng));
    }
    for _ in 0..num_samples {
        input.kx.push(coord(&mut rng) * 4.0);
        input.ky.push(coord(&mut rng) * 4.0);
        input.kz.push(coord(&mut rng) * 4.0);
        input.phi_r.push(coord(&mut rng));
        input.phi_i.push(coord(&mut rng));
    }
    input
}

/// The per-(pixel, sample) contribution — the paper's `ftcoeff(k, r)`.
#[inline]
pub fn ftcoeff(samples: &Samples, k: usize, x: f32, y: f32, z: f32) -> (f32, f32) {
    let arg =
        2.0 * std::f32::consts::PI * (samples.kx[k] * x + samples.ky[k] * y + samples.kz[k] * z);
    let mag = samples.phi_mag[k];
    (mag * arg.cos(), mag * arg.sin())
}

/// Validate two outputs to a relative tolerance.
pub fn validate(a: &MriqOutput, b: &MriqOutput, tol: f32) -> bool {
    crate::close_f32(&a.qr, &b.qr, tol) && crate::close_f32(&a.qi, &b.qi, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet::prelude::*;
    use triolet_baselines::EdenRt;
    use triolet_baselines::LowLevelRt;

    fn small() -> MriqInput {
        generate(64, 32, 42)
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(generate(16, 8, 7), generate(16, 8, 7));
        assert_ne!(generate(16, 8, 7), generate(16, 8, 8));
    }

    #[test]
    fn seq_output_shape() {
        let input = small();
        let out = run_seq(&input);
        assert_eq!(out.qr.len(), 64);
        assert_eq!(out.qi.len(), 64);
        // Nontrivial output.
        assert!(out.qr.iter().any(|&v| v.abs() > 1e-6));
    }

    #[test]
    fn triolet_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 4));
        let run = run_triolet(&rt, &input);
        assert!(validate(&expect, &run.value, 1e-4), "triolet output diverges");
        assert!(run.stats.bytes_out > 0, "par run must ship data");
    }

    #[test]
    fn lowlevel_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = LowLevelRt::new(ClusterConfig::virtual_cluster(4, 2));
        let (got, _) = run_lowlevel(&rt, &input);
        assert!(validate(&expect, &got, 1e-4));
    }

    #[test]
    fn eden_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = EdenRt::new(2, 2);
        let (got, _) = run_eden(&rt, &input).expect("payloads fit Eden buffers");
        // Eden computes in f64 through a different code path; tolerance is
        // looser.
        assert!(validate(&expect, &got, 1e-3));
    }

    #[test]
    fn single_node_equals_multi_node() {
        let input = small();
        let rt1 = Triolet::new(ClusterConfig::virtual_cluster(1, 1));
        let rt8 = Triolet::new(ClusterConfig::virtual_cluster(8, 2));
        let a = run_triolet(&rt1, &input).value;
        let b = run_triolet(&rt8, &input).value;
        assert!(validate(&a, &b, 1e-6), "node count must not change results");
    }
}
