//! The harness's own spans: recorded from the benchmark's files around the
//! calls into each layer, kept in memory, written out when the pass ends.

use std::time::Instant;

use triolet_obs::{ArgValue, TraceData, TraceHandle, Track};

/// Span arguments as `triolet-obs` takes them.
pub type Args = Vec<(&'static str, ArgValue)>;

/// A recording [`TraceHandle`] and the wall-clock origin its spans share.
pub struct Harness {
    handle: TraceHandle,
    epoch: Instant,
}

impl Harness {
    pub fn new() -> Self {
        Harness { handle: TraceHandle::recording(), epoch: Instant::now() }
    }

    /// Seconds since the harness started.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` under a root-track span named `name`.
    pub fn span<R>(&self, name: &str, args: Args, f: impl FnOnce() -> R) -> R {
        let t0 = self.now();
        let out = f();
        self.handle.span(name, "bench", Track::Root, t0, self.now(), args);
        out
    }

    /// Record a span whose interval the caller measured.
    pub fn span_at(&self, name: &str, args: Args, t0: f64, t1: f64) {
        self.handle.span(name, "bench", Track::Root, t0, t1, args);
    }

    /// Adopt a call's own timeline, shifted to start at `t0` (its parent
    /// span's start). The child's clock is the run's modeled time.
    pub fn absorb_at(&self, mut child: TraceData, t0: f64) {
        child.shift(t0);
        self.handle.absorb(child);
    }

    /// Everything recorded so far.
    pub fn take(&self) -> TraceData {
        self.handle.take()
    }
}

/// Self time of a parent interval `[t0, t1]`: its duration minus the part
/// the child intervals cover (their union, clipped to the parent).
pub fn self_time(t0: f64, t1: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> =
        children.iter().map(|&(a, b)| (a.max(t0), b.min(t1))).filter(|&(a, b)| b > a).collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut edge = t0;
    for (a, b) in clipped {
        if b > edge {
            covered += b - a.max(edge);
            edge = b;
        }
    }
    (t1 - t0 - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children and one outside the parent.
        let kids = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0), (-5.0, 0.5)];
        assert!((self_time(0.0, 10.0, &kids) - (10.0 - 3.0 - 1.0 - 0.5)).abs() < 1e-12);
        assert_eq!(self_time(0.0, 1.0, &[]), 1.0);
        assert_eq!(self_time(0.0, 1.0, &[(0.0, 5.0)]), 0.0);
    }

    #[test]
    fn absorbed_timelines_land_under_their_parent() {
        let h = Harness::new();
        let child = TraceHandle::recording();
        child.span("skeleton:sum", "skeleton", Track::Root, 0.0, 2.0, vec![]);
        h.absorb_at(child.take(), 10.0);
        h.span_at("bench:run", vec![("iter", 0u64.into())], 10.0, 13.0);
        let data = h.take();
        let s = data.spans.iter().find(|s| s.name == "skeleton:sum").expect("absorbed");
        assert_eq!((s.t0, s.t1), (10.0, 12.0));
        assert_eq!(data.count_spans("bench:run"), 1);
    }
}
