//! Sweep machinery: core-count grids, timing helpers, speedup rows.

use std::time::Instant;

/// Workload scale: `Quick` for CI-speed smoke runs, `Paper` for the
/// evaluation-shaped runs recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long total runtime; tiny inputs.
    Quick,
    /// Minutes-long total runtime; the scaled-down Parboil shapes.
    Paper,
}

impl Scale {
    /// Parse from a CLI flag.
    pub fn from_flag(quick: bool) -> Self {
        if quick {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }
}

/// The paper's x-axis: core counts up to 8 nodes x 16 cores. Points below
/// 16 cores use one node with that many threads; beyond, full 16-thread
/// nodes.
pub fn core_points() -> Vec<(usize, usize)> {
    vec![(1, 1), (1, 2), (1, 4), (1, 8), (1, 16), (2, 16), (4, 16), (6, 16), (8, 16)]
}

/// Median of `reps` timed runs of `f` (seconds). The first run warms up
/// caches and is discarded when `reps > 1`.
pub fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let reps = reps.max(1);
    let mut times = Vec::with_capacity(reps);
    for i in 0..=reps {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        if i > 0 || reps == 1 {
            times.push(dt);
        }
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One row of a scaling figure: modeled times per implementation at one
/// core count.
///
/// Each row carries its own contemporaneous sequential reference: on a
/// shared host whose effective CPU speed drifts over minutes, dividing by a
/// reference measured at the same moment cancels the drift row-wise.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Total cores (nodes x threads).
    pub cores: usize,
    /// Nodes used.
    pub nodes: usize,
    /// Threads per node used.
    pub threads: usize,
    /// Sequential reference measured alongside this row.
    pub seq_s: f64,
    /// Modeled seconds for the low-level (C+MPI+OpenMP) version.
    pub lowlevel_s: f64,
    /// Modeled seconds for the Triolet version.
    pub triolet_s: f64,
    /// Modeled seconds for the Eden version; `None` when Eden failed (e.g.
    /// sgemm's buffer overflow at >= 2 nodes).
    pub eden_s: Option<f64>,
}

impl SweepRow {
    /// Speedups over this row's own sequential reference.
    pub fn speedups(&self) -> (f64, f64, Option<f64>) {
        (
            self.seq_s / self.lowlevel_s,
            self.seq_s / self.triolet_s,
            self.eden_s.map(|e| self.seq_s / e),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_points_cover_paper_axis() {
        let pts = core_points();
        assert_eq!(pts.first(), Some(&(1, 1)));
        assert_eq!(pts.last(), Some(&(8, 16)));
        assert!(pts.iter().all(|&(n, t)| n * t <= 128));
    }

    #[test]
    fn median_is_robust() {
        let mut calls = 0;
        let m = median_seconds(3, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(calls, 4, "warmup + reps");
        assert!(m >= 0.002);
    }

    #[test]
    fn speedups_divide() {
        let row = SweepRow {
            cores: 4,
            nodes: 1,
            threads: 4,
            seq_s: 4.0,
            lowlevel_s: 1.0,
            triolet_s: 2.0,
            eden_s: None,
        };
        let (ll, t, e) = row.speedups();
        assert_eq!(ll, 4.0);
        assert_eq!(t, 2.0);
        assert!(e.is_none());
    }
}
