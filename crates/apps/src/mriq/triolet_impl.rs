//! Triolet implementation: the paper's two-liner (§4.2).
//!
//! ```python
//! [sum(ftcoeff(k, r) for k in ks)
//!  for r in par(zip3(x, y, z))]
//! ```
//!
//! A parallel map over pixels (`zip3` of the coordinate arrays, sliced per
//! node) with the sample arrays as broadcast environment, summing the
//! contribution of every sample per pixel. "Although this code contains only
//! a call to par to control parallelization, it yields parallel performance
//! nearly on par with manually written MPI and OpenMP."

use triolet::prelude::*;

use super::{ftcoeff, MriqInput, MriqOutput, Samples};

/// Run mri-q through the Triolet skeletons on `rt`.
pub fn run_triolet(rt: &Triolet, input: &MriqInput) -> Run<MriqOutput> {
    let samples = input.samples();
    let pixels =
        zip3(from_vec(input.x.clone()), from_vec(input.y.clone()), from_vec(input.z.clone())).par();
    rt.build_vec(pixels, &samples, pixel_value).map(|q| {
        let (qr, qi) = q.into_iter().unzip();
        MriqOutput { qr, qi }
    })
}

/// The fused pixel body: `sum(ftcoeff(k, r) for k in ks)`.
#[inline]
fn pixel_value(samples: &Samples, (x, y, z): (f32, f32, f32)) -> (f32, f32) {
    let mut sr = 0.0f32;
    let mut si = 0.0f32;
    for k in 0..samples.kx.len() {
        let (cr, ci) = ftcoeff(samples, k, x, y, z);
        sr += cr;
        si += ci;
    }
    (sr, si)
}
