//! Triolet implementations of the Lloyd sweep, one per input-distribution
//! strategy.
//!
//! * [`run_resident`] — `rt.scatter(points)` once, then every sweep is
//!   `fold_reduce(&points, &centroids, …)` over the resident segments: the
//!   only bytes a sweep moves are the centroid table.
//! * [`run_rebroadcast`] — every sweep is
//!   `fold_reduce(from_vec(points.clone()).par(), &centroids, …)`: the full
//!   point set is sliced and shipped again each time.
//!
//! Both call the same skeleton with the same step/merge; the unified input
//! trait is the only thing that differs. The engine guarantees identical
//! chunk boundaries for both paths, so the centroid trajectories are
//! bit-identical.

use triolet::prelude::*;

use super::{accumulate, merge_acc, next_centroids, KmeansInput, ACC_STRIDE};

/// Result of a distributed k-means run, with the byte accounting the
/// residency ablation reports.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansRun {
    /// Final centroid table.
    pub centroids: Vec<(f64, f64)>,
    /// One-time input distribution cost (the scatter; zero when the input
    /// is re-broadcast instead).
    pub scatter_bytes: u64,
    /// Outbound bytes moved by the sweeps themselves (env + any input).
    pub sweep_bytes: u64,
    /// Number of sweeps those bytes are amortized over.
    pub iters: u64,
}

impl KmeansRun {
    /// Outbound bytes per sweep, the ablation's headline metric.
    pub fn bytes_per_iter(&self) -> f64 {
        self.sweep_bytes as f64 / (self.iters.max(1) as f64)
    }
}

/// One Lloyd sweep over any skeleton input: assign + accumulate + reduce.
fn sweep<In>(rt: &Triolet, input: In, centroids: &Vec<(f64, f64)>, k: usize) -> Run<Vec<f64>>
where
    In: IntoDistInput<Item = (f64, f64)>,
{
    rt.fold_reduce(
        input,
        centroids,
        move || vec![0.0f64; ACC_STRIDE * k],
        |cs: &Vec<(f64, f64)>, acc: Vec<f64>, p: (f64, f64)| accumulate(cs, acc, p),
        merge_acc,
    )
}

/// k-means over a resident `DistVec`: scatter once, sweep over the resident
/// segments.
pub fn run_resident(rt: &Triolet, input: &KmeansInput) -> Run<KmeansRun> {
    let scattered = rt.scatter(input.points.clone());
    let scatter_bytes = scattered.stats.bytes_out;

    // The sweeps' own timeline, carrying the centroids they have reached.
    let mut sweeps = Run::new(input.initial_centroids(), RunStats::local(0.0));
    let mut sweep_bytes = 0u64;
    for _ in 0..input.iters {
        let run = sweep(rt, &scattered.value, &sweeps.value, input.k);
        sweep_bytes += run.stats.bytes_out;
        let next = next_centroids(&sweeps.value, &run.value);
        sweeps = sweeps.then(run.map(|_| next));
    }
    let iters = input.iters as u64;
    scattered.then(sweeps).map(|centroids| KmeansRun {
        centroids,
        scatter_bytes,
        sweep_bytes,
        iters,
    })
}

/// k-means re-broadcasting the point set on every sweep (the pre-residency
/// baseline, kept as the ablation's control arm).
pub fn run_rebroadcast(rt: &Triolet, input: &KmeansInput) -> Run<KmeansRun> {
    let mut sweeps = Run::new(input.initial_centroids(), RunStats::local(0.0));
    let mut sweep_bytes = 0u64;
    for _ in 0..input.iters {
        let run = sweep(rt, from_vec(input.points.clone()).par(), &sweeps.value, input.k);
        sweep_bytes += run.stats.bytes_out;
        let next = next_centroids(&sweeps.value, &run.value);
        sweeps = sweeps.then(run.map(|_| next));
    }
    let iters = input.iters as u64;
    sweeps.map(|centroids| KmeansRun { centroids, scatter_bytes: 0, sweep_bytes, iters })
}
