//! The [`Run`] wrapper every skeleton returns: value + stats + trace.

use triolet_obs::TraceData;

use crate::report::RunStats;

/// The result of one skeleton execution.
///
/// Replaces the old `(T, RunStats)` tuple so a third field — the recorded
/// span timeline — can ride along without widening every signature again.
/// `trace` is empty unless the runtime's cluster was configured with
/// [`ClusterConfig::with_trace`](triolet_cluster::ClusterConfig::with_trace).
#[derive(Debug, Clone)]
pub struct Run<T> {
    /// The skeleton's result.
    pub value: T,
    /// Timing and traffic breakdown.
    pub stats: RunStats,
    /// Recorded span/event timeline (empty when tracing is off).
    pub trace: TraceData,
}

impl<T> Run<T> {
    /// Wrap a value and stats with an empty trace.
    pub fn new(value: T, stats: RunStats) -> Self {
        Run { value, stats, trace: TraceData::default() }
    }

    /// Attach a recorded timeline.
    pub fn with_trace(mut self, trace: TraceData) -> Self {
        self.trace = trace;
        self
    }

    /// Split back into the old `(value, stats)` pair, dropping the trace.
    pub fn into_inner(self) -> (T, RunStats) {
        (self.value, self.stats)
    }

    /// Transform the value, keeping stats and trace.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Run<U> {
        Run { value: f(self.value), stats: self.stats, trace: self.trace }
    }

    /// Chain a phase that ran *after* this one: `next`'s value, the two
    /// phases' stats added ([`RunStats::then`]) and `next`'s timeline
    /// appended where this one ends ([`TraceData::then`]).
    pub fn then<U>(mut self, next: Run<U>) -> Run<U> {
        self.trace.then(next.trace);
        Run { value: next.value, stats: self.stats.then(next.stats), trace: self.trace }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_inner_and_map_keep_stats() {
        let r = Run::new(21u64, RunStats::local(1.0));
        let doubled = r.map(|v| v * 2);
        assert_eq!(doubled.value, 42);
        assert!(doubled.trace.is_empty());
        let (v, stats) = doubled.into_inner();
        assert_eq!(v, 42);
        assert_eq!(stats.total_s, 1.0);
    }

    #[test]
    fn then_adds_totals_and_shifts_the_second_trace_to_the_firsts_end() {
        use triolet_obs::{TraceHandle, Track};
        let phase = |value: u64, total_s: f64, messages: u64| {
            let h = TraceHandle::recording();
            h.span("skeleton:phase", "skeleton", Track::Root, 0.0, total_s, vec![]);
            let stats = RunStats { messages, ..RunStats::local(total_s) };
            Run::new(value, stats).with_trace(h.take())
        };
        let both = phase(1, 1.5, 3).then(phase(2, 0.25, 4));
        assert_eq!(both.value, 2, "the later phase's value");
        assert_eq!((both.stats.total_s, both.stats.messages), (1.75, 7));
        assert_eq!(both.stats.node_compute_s, vec![1.75]);
        let bounds: Vec<(f64, f64)> = both.trace.spans.iter().map(|s| (s.t0, s.t1)).collect();
        assert_eq!(bounds, vec![(0.0, 1.5), (1.5, 1.75)]);
    }
}
