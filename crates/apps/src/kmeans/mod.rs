//! k-means clustering: the iterative showcase for persistent distributed
//! collections.
//!
//! Lloyd's algorithm sweeps the full point set once per iteration; the
//! points never change, only the (tiny) centroid table does. With resident
//! `DistVec` segments the points cross the wire exactly once (the scatter)
//! and every subsequent sweep ships only the centroids — the re-broadcast
//! variant ships the whole point set again on every sweep. The ratio of
//! those per-sweep byte counts is the headline number of the residency
//! ablation (see `BENCH_distvec.json`).
//!
//! Each sweep is one `fold_reduce`: the per-point step assigns the point to
//! its nearest centroid and accumulates per-centroid coordinate sums and
//! counts; the merge adds accumulators elementwise. Both variants run the
//! identical step/merge over identical chunk boundaries, so their outputs
//! are bit-identical.

mod seq;
mod triolet_impl;

pub use seq::run_seq;
pub use triolet_impl::{run_rebroadcast, run_resident, KmeansRun};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Problem instance: 2-D points, cluster count, sweep count.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansInput {
    /// The points to cluster.
    pub points: Vec<(f64, f64)>,
    /// Number of centroids.
    pub k: usize,
    /// Number of Lloyd sweeps to run (fixed, for determinism).
    pub iters: usize,
}

impl KmeansInput {
    /// Initial centroids: the first `k` points (the classic Forgy-by-prefix
    /// choice, deterministic for a deterministic generator).
    pub fn initial_centroids(&self) -> Vec<(f64, f64)> {
        self.points.iter().take(self.k).copied().collect()
    }
}

/// Deterministic synthetic instance: `k` well-separated Gaussian-ish blobs
/// on a coarse grid, points round-robined across blobs.
pub fn generate(num_points: usize, k: usize, iters: usize, seed: u64) -> KmeansInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(num_points);
    let side = (k as f64).sqrt().ceil().max(1.0);
    for i in 0..num_points {
        let blob = i % k.max(1);
        let cx = (blob as f64 % side) * 10.0;
        let cy = (blob as f64 / side).floor() * 10.0;
        let jitter = |rng: &mut StdRng| rng.gen_range(-1.5f64..1.5);
        points.push((cx + jitter(&mut rng), cy + jitter(&mut rng)));
    }
    KmeansInput { points, k: k.max(1), iters }
}

/// Squared Euclidean distance.
#[inline]
pub fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    dx * dx + dy * dy
}

/// Index of the nearest centroid (first wins on ties, so the assignment is
/// deterministic).
#[inline]
pub fn nearest(centroids: &[(f64, f64)], p: (f64, f64)) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &c) in centroids.iter().enumerate() {
        let d = dist2(c, p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// One accumulator slot per centroid: coordinate sums and a count, kept flat
/// (`[sx, sy, n]` per centroid) so the wire format is a plain `Vec<f64>`.
pub const ACC_STRIDE: usize = 3;

/// Fold one point into the accumulator.
#[inline]
pub fn accumulate(centroids: &[(f64, f64)], mut acc: Vec<f64>, p: (f64, f64)) -> Vec<f64> {
    let i = nearest(centroids, p);
    acc[ACC_STRIDE * i] += p.0;
    acc[ACC_STRIDE * i + 1] += p.1;
    acc[ACC_STRIDE * i + 2] += 1.0;
    acc
}

/// Merge two accumulators elementwise.
#[inline]
pub fn merge_acc(mut a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// Turn an accumulator into the next centroid table (empty clusters keep
/// their previous centroid).
pub fn next_centroids(prev: &[(f64, f64)], acc: &[f64]) -> Vec<(f64, f64)> {
    prev.iter()
        .enumerate()
        .map(|(i, &old)| {
            let n = acc[ACC_STRIDE * i + 2];
            if n > 0.0 {
                (acc[ACC_STRIDE * i] / n, acc[ACC_STRIDE * i + 1] / n)
            } else {
                old
            }
        })
        .collect()
}

/// Validate two centroid tables to an absolute tolerance.
pub fn validate(a: &[(f64, f64)], b: &[(f64, f64)], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| (p.0 - q.0).abs() <= tol && (p.1 - q.1).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet::prelude::*;

    fn small() -> KmeansInput {
        generate(512, 4, 5, 42)
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(generate(64, 4, 3, 7), generate(64, 4, 3, 7));
        assert_ne!(generate(64, 4, 3, 7), generate(64, 4, 3, 8));
    }

    #[test]
    fn seq_converges_to_blob_centers() {
        let input = generate(2048, 4, 10, 1);
        let got = run_seq(&input);
        // Each blob center lies on the 10-grid; centroids should sit within
        // the jitter radius of one.
        for &(x, y) in &got {
            let rx = (x / 10.0).round() * 10.0;
            let ry = (y / 10.0).round() * 10.0;
            assert!((x - rx).abs() < 1.0 && (y - ry).abs() < 1.0, "centroid ({x},{y}) off-blob");
        }
    }

    #[test]
    fn resident_matches_seq() {
        let input = small();
        let expect = run_seq(&input);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2));
        let run = run_resident(&rt, &input);
        assert!(validate(&expect, &run.value.centroids, 1e-9), "resident diverges from seq");
    }

    #[test]
    fn resident_and_rebroadcast_are_bit_identical() {
        let input = small();
        let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2));
        let a = run_resident(&rt, &input).value;
        let b = run_rebroadcast(&rt, &input).value;
        assert_eq!(bits(&a.centroids), bits(&b.centroids));
    }

    /// The benchmark's `kmeans_crash` plan.
    fn crash_rt() -> Triolet {
        let plan = FaultPlan::seeded(7)
            .with_drop(0.05)
            .with_crash(3)
            .with_timeout(std::time::Duration::from_millis(1));
        Triolet::new(ClusterConfig::virtual_cluster(8, 2).with_faults(plan))
    }

    fn bits(cs: &[(f64, f64)]) -> Vec<(u64, u64)> {
        cs.iter().map(|c| (c.0.to_bits(), c.1.to_bits())).collect()
    }

    #[test]
    fn resident_run_pays_for_a_crashed_rank_once() {
        let input = generate(4096, 8, 6, 3);
        let clean = run_resident(&Triolet::new(ClusterConfig::virtual_cluster(8, 2)), &input);
        let run = run_resident(&crash_rt(), &input);
        assert_eq!((run.stats.resident_misses, run.stats.redispatches), (1, 1));
        assert_eq!(run.stats.resident_hits, 8 * input.iters as u64 - 1);
        assert_eq!(bits(&run.value.centroids), bits(&clean.value.centroids));
        assert!(validate(&run_seq(&input), &run.value.centroids, 1e-9));
    }

    #[test]
    fn rebroadcast_run_has_no_handle_to_remember_the_crash_with() {
        // An iterator input is sliced and shipped afresh by every sweep, so
        // each one finds the dead rank for itself: one redispatch per sweep,
        // as before, and still the fault-free bits.
        let input = generate(4096, 8, 6, 3);
        let clean = run_rebroadcast(&Triolet::new(ClusterConfig::virtual_cluster(8, 2)), &input);
        let run = run_rebroadcast(&crash_rt(), &input);
        assert_eq!(run.stats.redispatches, input.iters as u64);
        assert_eq!((run.stats.resident_hits, run.stats.resident_misses), (0, 0));
        assert_eq!(bits(&run.value.centroids), bits(&clean.value.centroids));
    }

    #[test]
    fn residency_slashes_per_sweep_traffic() {
        let input = generate(4096, 8, 4, 3);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(8, 2));
        let resident = run_resident(&rt, &input).value;
        let rebroadcast = run_rebroadcast(&rt, &input).value;
        assert!(
            rebroadcast.sweep_bytes >= 5 * resident.sweep_bytes.max(1),
            "resident sweeps must move >=5x fewer bytes: resident {} vs rebroadcast {}",
            resident.sweep_bytes,
            rebroadcast.sweep_bytes
        );
    }
}
