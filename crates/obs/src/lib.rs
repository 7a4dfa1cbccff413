//! `triolet-obs`: span/event tracing for the Triolet runtime.
//!
//! The evaluation story of the paper (§4) is an attribution story: how much
//! of a run is compute, how much is communication, how much is root-side
//! assembly. `RunStats`-style aggregates answer that only in total; this
//! crate records the *timeline* — hierarchical spans
//! (skeleton → slice/pack → per-node dispatch → per-chunk leaf fold → merge →
//! unpack) plus point events (sends, acks, injected faults, retries,
//! redispatches) — stamped with either wall-clock or virtual time so both
//! execution modes produce comparable traces.
//!
//! The recording machinery is behind [`TraceHandle`]: a disabled handle is a
//! `None` and every record call is a single branch, so untraced runs pay
//! nothing measurable. Traces export to chrome://tracing JSON
//! ([`TraceData::to_chrome_json`]) loadable in Perfetto or
//! `chrome://tracing`.

pub mod chrome;
pub mod json;

use std::sync::{Arc, Mutex};

/// Where on the timeline a span or event lives. Maps to chrome://tracing's
/// process/thread tracks: the root is one process, each node another, and a
/// node's workers are threads within its process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The root rank's own timeline (slicing, sends, unpack, merges).
    Root,
    /// A node's task-level timeline.
    Node(usize),
    /// One worker thread (real or virtual) inside a node.
    Worker { rank: usize, worker: usize },
}

impl Track {
    /// chrome://tracing process id for this track.
    pub fn pid(&self) -> u64 {
        match *self {
            Track::Root => 0,
            Track::Node(r) | Track::Worker { rank: r, .. } => r as u64 + 1,
        }
    }

    /// chrome://tracing thread id for this track.
    pub fn tid(&self) -> u64 {
        match *self {
            Track::Root | Track::Node(_) => 0,
            Track::Worker { worker, .. } => worker as u64 + 1,
        }
    }

    /// Stable label with the run-to-run varying part (the worker id, which
    /// follows the timing-derived schedule) removed. Golden-file tests
    /// compare these.
    pub fn canonical(&self) -> String {
        match *self {
            Track::Root => "root".into(),
            Track::Node(r) => format!("node{r}"),
            Track::Worker { rank, .. } => format!("node{rank}/worker"),
        }
    }
}

/// A typed span/event argument (exported into the chrome `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    F64(f64),
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Argument list for a `comm:tree` span/event: one edge of a tree-routed
/// collective. `depth` is the receiving rank's depth in the binomial tree
/// and `fanout` the sender's child count, so a trace shows both the O(log N)
/// critical path and each sender's serialized send burst.
pub fn tree_edge_args(
    peer: usize,
    tag: u32,
    depth: u32,
    fanout: usize,
) -> Vec<(&'static str, ArgValue)> {
    vec![
        ("peer", peer.into()),
        ("tag", (tag as u64).into()),
        ("depth", (depth as u64).into()),
        ("fanout", fanout.into()),
    ]
}

/// A completed interval on some track. Times are seconds on the run's
/// timeline (virtual or wall, depending on the execution mode); the engine
/// rebases child timelines so every span in one trace shares an origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Coarse phase category: `"skeleton"`, `"prep"`, `"comm"`, `"compute"`,
    /// `"merge"`, `"idle"`. Per-phase rollups group by this.
    pub cat: &'static str,
    pub track: Track,
    pub t0: f64,
    pub t1: f64,
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.t1 - self.t0).max(0.0)
    }

    /// The integer argument recorded under `key`, if any.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    }
}

/// A point event (instant) on some track: a send attempt, an ack, an
/// injected fault, a retry, a redispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub name: String,
    pub cat: &'static str,
    pub track: Track,
    pub t: f64,
    pub args: Vec<(&'static str, ArgValue)>,
}

/// The `dist:rehome` event: after a dispatch ran `task` off the rank that
/// owned its resident segment, the root moved ownership of that segment (of
/// collection `seg`) from rank `from` to rank `to` — where its bytes landed
/// — so later calls route there. Stamped at `t`, the end of that dispatch.
pub fn rehome_event(task: usize, seg: u64, from: usize, to: usize, t: f64) -> Event {
    let args =
        vec![("task", task.into()), ("seg", seg.into()), ("from", from.into()), ("to", to.into())];
    Event { name: "dist:rehome".into(), cat: "dist", track: Track::Root, t, args }
}

/// Cheap cloneable handle the runtime threads through every layer.
///
/// `TraceHandle::disabled()` carries no allocation and makes every record
/// call a single `if let` on `None` — the "no-op default that compiles away".
/// `TraceHandle::recording()` shares one mutex-guarded [`TraceData`] across
/// clones (root, per-node contexts, worker threads).
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<Mutex<TraceData>>>);

impl TraceHandle {
    /// The no-op handle: all record calls are single-branch no-ops.
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A handle backed by a fresh shared recorder.
    pub fn recording() -> Self {
        TraceHandle(Some(Arc::default()))
    }

    /// Is anything listening? Use to skip argument construction.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record a completed span with explicit endpoints.
    #[inline]
    pub fn span(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        track: Track,
        t0: f64,
        t1: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(data) = &self.0 {
            let span = Span { name: name.into(), cat, track, t0, t1, args };
            data.lock().expect("trace mutex").spans.push(span);
        }
    }

    /// Record a point event.
    #[inline]
    pub fn event(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        track: Track,
        t: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(data) = &self.0 {
            let event = Event { name: name.into(), cat, track, t, args };
            data.lock().expect("trace mutex").events.push(event);
        }
    }

    /// Append an already-shifted child timeline (no-op when disabled).
    pub fn absorb(&self, child: TraceData) {
        if let Some(data) = &self.0 {
            data.lock().expect("trace mutex").merge(child);
        }
    }

    /// Drain the recorder (empty data for a disabled handle).
    pub fn take(&self) -> TraceData {
        match &self.0 {
            Some(data) => std::mem::take(&mut *data.lock().expect("trace mutex")),
            None => TraceData::default(),
        }
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.enabled() { "TraceHandle(recording)" } else { "TraceHandle(off)" })
    }
}

/// A recorded timeline: spans and events sharing one time origin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    pub spans: Vec<Span>,
    pub events: Vec<Event>,
}

impl TraceData {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }

    /// Latest timestamp in the trace (0.0 if empty).
    pub fn end(&self) -> f64 {
        let spans = self.spans.iter().map(|s| s.t1);
        let events = self.events.iter().map(|e| e.t);
        spans.chain(events).fold(0.0, f64::max)
    }

    /// Translate every timestamp by `dt` seconds (rebasing a child timeline
    /// onto the parent's origin).
    pub fn shift(&mut self, dt: f64) {
        for s in &mut self.spans {
            s.t0 += dt;
            s.t1 += dt;
        }
        for e in &mut self.events {
            e.t += dt;
        }
    }

    /// Append `other`, shifted to start where this trace ends — the trace
    /// analogue of `RunStats::then` for apps that chain skeleton calls.
    pub fn then(&mut self, mut other: TraceData) {
        other.shift(self.end());
        self.spans.append(&mut other.spans);
        self.events.append(&mut other.events);
    }

    /// Merge `other` onto the same origin (no shift).
    pub fn merge(&mut self, mut other: TraceData) {
        self.spans.append(&mut other.spans);
        self.events.append(&mut other.events);
    }

    /// Stamp every span and event with one extra argument — the job
    /// service's per-tenant attribution: a whole job timeline gets
    /// `("tenant", id)` / `("job", seq)` tags before it is absorbed into
    /// the service trace, so one merged timeline can still be filtered
    /// per tenant in chrome://tracing.
    pub fn tag(&mut self, key: &'static str, value: ArgValue) {
        for s in &mut self.spans {
            s.args.push((key, value.clone()));
        }
        for e in &mut self.events {
            e.args.push((key, value.clone()));
        }
    }

    /// How many spans carry this name.
    pub fn count_spans(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Distinct span names, in first-appearance order.
    pub fn span_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        names
    }

    /// How many events carry this name.
    pub fn count_events(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.name == name).count()
    }

    /// Total span seconds per category, in first-appearance order — the
    /// per-phase breakdown the bench report prints.
    pub fn phase_totals(&self) -> Vec<(&'static str, f64)> {
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for s in &self.spans {
            match totals.iter_mut().find(|(c, _)| *c == s.cat) {
                Some((_, t)) => *t += s.duration(),
                None => totals.push((s.cat, s.duration())),
            }
        }
        totals
    }

    /// Schedule-independent dump for golden-file comparison: record kind,
    /// category, name, and canonical track, in recording order. All numeric
    /// times and worker assignments (both timing-derived) are dropped.
    pub fn canonical_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.spans.len() + self.events.len());
        for s in &self.spans {
            lines.push(format!("span {} {} @{}", s.cat, s.name, s.track.canonical()));
        }
        for e in &self.events {
            lines.push(format!("event {} {} @{}", e.cat, e.name, e.track.canonical()));
        }
        lines
    }

    /// Serialize to chrome://tracing "JSON Object Format".
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceData {
        let h = TraceHandle::recording();
        h.span("skeleton:sum", "skeleton", Track::Root, 0.0, 2.0, vec![("items", 10u64.into())]);
        h.span("chunk", "compute", Track::Worker { rank: 1, worker: 0 }, 0.5, 1.0, vec![]);
        h.event("retry", "fault", Track::Root, 0.75, vec![("attempt", 2u64.into())]);
        h.take()
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let h = TraceHandle::disabled();
        h.span("x", "compute", Track::Root, 0.0, 1.0, vec![]);
        h.event("y", "comm", Track::Root, 0.5, vec![]);
        assert!(!h.enabled());
        assert!(h.take().is_empty());
    }

    #[test]
    fn recording_handle_shares_one_sink_across_clones() {
        let h = TraceHandle::recording();
        let h2 = h.clone();
        h.span("a", "compute", Track::Root, 0.0, 1.0, vec![]);
        h2.span("b", "compute", Track::Node(1), 1.0, 2.0, vec![]);
        let data = h.take();
        assert_eq!(data.spans.len(), 2);
        assert!(h2.take().is_empty(), "take drains the shared recorder");
    }

    #[test]
    fn shift_and_then_rebase_timelines() {
        let mut a = sample();
        let b = sample();
        let end = a.end();
        a.then(b);
        assert_eq!(a.spans.len(), 4);
        assert!((a.end() - (end + 2.0)).abs() < 1e-12);
        let retry_times: Vec<f64> =
            a.events.iter().filter(|e| e.name == "retry").map(|e| e.t).collect();
        assert_eq!(retry_times.len(), 2);
        assert!((retry_times[1] - (end + 0.75)).abs() < 1e-12);
    }

    #[test]
    fn phase_totals_group_by_category() {
        let data = sample();
        let totals = data.phase_totals();
        assert_eq!(totals[0].0, "skeleton");
        assert!((totals[0].1 - 2.0).abs() < 1e-12);
        assert_eq!(totals[1].0, "compute");
        assert!((totals[1].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn canonical_lines_drop_worker_ids_and_times() {
        let data = sample();
        let lines = data.canonical_lines();
        assert_eq!(
            lines,
            vec![
                "span skeleton skeleton:sum @root",
                "span compute chunk @node1/worker",
                "event fault retry @root",
            ]
        );
    }

    #[test]
    fn span_names_and_event_counts() {
        let data = sample();
        assert_eq!(data.span_names(), vec!["skeleton:sum", "chunk"]);
        assert_eq!(data.count_spans("chunk"), 1);
        assert_eq!(data.count_spans("missing"), 0);
        assert_eq!(data.count_events("retry"), 1);
        assert_eq!(data.count_events("missing"), 0);
    }

    #[test]
    fn tag_stamps_every_span_and_event() {
        let mut data = sample();
        data.tag("tenant", 7u64.into());
        for s in &data.spans {
            assert!(s.args.iter().any(|(k, v)| *k == "tenant" && *v == ArgValue::U64(7)));
        }
        for e in &data.events {
            assert!(e.args.iter().any(|(k, v)| *k == "tenant" && *v == ArgValue::U64(7)));
        }
        // Pre-existing args survive the tagging pass.
        assert!(data.spans[0].args.iter().any(|(k, _)| *k == "items"));
    }
}
