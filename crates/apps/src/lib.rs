//! The four Parboil benchmarks of the Triolet evaluation (paper §4), each
//! a module with a seeded input generator, a sequential reference, its
//! Triolet, low-level (C+MPI+OpenMP) and Eden versions, and an output
//! validator. The [`table`] declares each app once, with the implementations
//! it has ([`table::Impl`]); the `triolet-app` binary, `repro` and the
//! equivalence tests read it.
//!
//! * [`mriq`] — non-uniform 3-D inverse Fourier transform (§4.2): a regular
//!   parallel map over pixels with an inner reduction over k-space samples.
//! * [`sgemm`] — scaled dense matrix multiply (§4.3): 2-D block
//!   decomposition via `rows`/`outerproduct`, shared-memory transpose.
//! * [`tpacf`] — angular correlation histograms (§4.4): triangular nested
//!   traversals feeding histograms, parallel over datasets.
//! * [`cutcp`] — cutoff Coulombic potential (§4.5): an irregular
//!   concat-map/filter nest scatter-adding into a large 3-D grid.
//!
//! [`kmeans`] is not from the paper's evaluation; it is the iterative
//! workload the persistent-collection (resident `DistVec`) ablation runs —
//! the same point set is swept many times, so residency pays off.

pub mod cli;
pub mod cutcp;
pub mod kmeans;
pub mod mriq;
pub mod sgemm;
pub mod table;
pub mod tpacf;

/// Relative-error comparison for floating-point outputs: `|a-b|` within
/// `tol * max(1, |a|, |b|)` elementwise.
pub fn close_f32(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&x, &y)| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0))
}

/// Relative-error comparison for `f64` outputs.
pub fn close_f64(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&x, &y)| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_checks_length_and_tolerance() {
        assert!(close_f32(&[1.0, 2.0], &[1.0, 2.0 + 1e-7], 1e-5));
        assert!(!close_f32(&[1.0], &[1.0, 2.0], 1e-5));
        assert!(!close_f32(&[1.0], &[1.1], 1e-5));
        assert!(close_f64(&[1e12], &[1e12 * (1.0 + 1e-10)], 1e-9));
    }
}
