//! The cluster itself: scatter work to nodes, gather results, account time.
//!
//! With an active [`FaultPlan`] the dispatcher also *recovers*: a rank that
//! never acknowledges its task payload (scheduled drops, or a crash) is
//! detected by timeout after the plan's retry budget, and the task is
//! re-dispatched to the next surviving rank. Because the fault schedule is
//! a pure function of the plan's seed, the routing decisions are made
//! before any task executes, so each `FnOnce` task body runs exactly once —
//! on whichever rank finally receives it — and results come back in task
//! order, bit-identical to a fault-free run.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use triolet_obs::{tree_edge_args, ArgValue, TraceData, TraceHandle, Track};
use triolet_serial::{packed, unpack_all, unpack_counters, Piece, Wire, WireError};

use crate::cost::{CostModel, DistTiming, TrafficStats};
use crate::fault::FaultPlan;
use crate::node::{NodeCtx, ResidentStore};
use crate::sim::{self, SimEdge, SimProblem, SimTask};
use crate::tree;

/// Pseudo-rank of the root in fault-schedule coordinates (the root is not a
/// cluster rank; any value outside `0..nodes` works, this one is obvious).
pub(crate) const ROOT: usize = usize::MAX;
/// Fault-schedule tag for root -> node task payloads.
const FWD_TAG: u32 = 0;
/// Fault-schedule tag for node -> root results.
const RET_TAG: u32 = 1;
/// Fault-schedule tag for the broadcast-environment payload.
const ENV_TAG: u32 = 2;
/// Fault-schedule tag for resident-segment scatter payloads.
const SEG_TAG: u32 = 3;
/// Fault-schedule tag for input pieces shared by several executing ranks.
const PIECE_TAG: u32 = 4;
/// Attempt cap on transfers whose endpoints are both alive by construction
/// (environment and shared-piece edges go only to executing ranks, results
/// come from them, and a segment scatter treats its home as alive): the
/// sender never gives up, so only a drop rate of essentially 1.0 trips this.
const LIVE_ATTEMPT_CAP: u32 = 10_000;

/// Run `f` and return its result plus the `(copied, aliased)` unpack byte
/// deltas it produced on this thread — the root-side accounting hook for the
/// zero-copy unpack path. Must run on the thread doing the unpacking (the
/// counters are thread-local).
fn with_unpack_delta<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, a0) = unpack_counters();
    let out = f();
    let (c1, a1) = unpack_counters();
    (out, c1.wrapping_sub(c0), a1.wrapping_sub(a0))
}

/// How one-to-all payloads (the broadcast environment) are routed.
///
/// `Tree` sends over the contiguous-subtree binomial tree of [`tree`]: the
/// root transmits `O(log N)` copies and ranks that already hold the payload
/// relay it concurrently, so the last arrival is `O(log N)` edge times
/// behind the root instead of `O(N)`. Under `Linear` the root loops over
/// every destination itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Root sends every copy itself, serialized on its one NIC.
    Linear,
    /// Binomial-tree relay (the default).
    #[default]
    Tree,
}

/// A result payload gathered at the root failed to decode.
///
/// A damaged or mistyped result surfaces as a typed error through the
/// `try_*` entry points, not as a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchError {
    /// Task `task`'s result bytes did not decode as the expected type.
    Decode {
        /// Index of the task whose result failed to decode.
        task: usize,
        /// The underlying wire-format error.
        source: WireError,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Decode { task, source } => {
                write!(f, "task {task}'s result failed to decode at the root: {source}")
            }
        }
    }
}

impl std::error::Error for DispatchError {}

/// Cluster shape and cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes (MPI ranks).
    pub nodes: usize,
    /// Worker threads per node (the paper's 16 cores/node).
    pub threads_per_node: usize,
    /// Inter-node transfer cost model.
    pub cost: CostModel,
    /// Injected-fault schedule ([`FaultPlan::none`] by default).
    pub faults: FaultPlan,
    /// Record a span/event timeline for every dispatch (off by default;
    /// the disabled path is a single branch per record site).
    pub trace: bool,
    /// Route for one-to-all payloads (tree by default).
    pub topology: Topology,
}

impl ClusterConfig {
    /// Virtual-time cluster with the default (paper-like) network model.
    pub fn virtual_cluster(nodes: usize, threads_per_node: usize) -> Self {
        ClusterConfig {
            nodes: nodes.max(1),
            threads_per_node: threads_per_node.max(1),
            cost: CostModel::default(),
            faults: FaultPlan::none(),
            trace: false,
            topology: Topology::default(),
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replace the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enable or disable timeline recording.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Replace the one-to-all routing topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Total cores across the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.threads_per_node
    }
}

/// Results of one distributed operation, with its timing breakdown.
#[derive(Debug)]
pub struct DistOutcome<R> {
    /// One result per task, in task order (under faults a task's result may
    /// have been computed on a different rank than its index).
    pub results: Vec<R>,
    /// The rank each task executed on, in task order: its home unless the
    /// fault schedule redispatched it to a survivor.
    pub execs: Vec<usize>,
    /// When each task's result was unpacked and ready at the root, in task
    /// order, on the outcome's timeline: staggered arrival-order times (the
    /// streaming-merge consumer folds the completed prefix as it grows).
    pub arrivals: Vec<f64>,
    /// Timing and traffic breakdown.
    pub timing: DistTiming,
    /// Recorded timeline (empty unless [`ClusterConfig::trace`] is set).
    /// Times share one origin: the start of root-side preparation.
    pub trace: TraceData,
}

/// A task's claim on a resident segment of a persistent collection.
///
/// A task carrying one of these reads its input from node-local storage
/// rather than a root-shipped payload: dispatched to `home`, it pays zero
/// input bytes on the wire (a *resident hit*); forced onto any other rank —
/// a redispatch — the dispatcher re-ships the full `seg_bytes` to the
/// survivor (a *resident miss*), so recovery stays possible and its cost
/// stays visible. A hit with no halo under a broadcast environment is the
/// case in which the task has no message at all: the segment's owner
/// already knows its part, so the environment reaching `home` starts it
/// (see [`RawTask`]). A crashed `home` is never assumed dead — it is
/// probed with the task's message, timed out, and the task redispatched.
/// The dispatcher keeps no memory of either: `home` is
/// whatever the caller resolved from the [`ResidentStore`] when it built
/// the task, and [`DistOutcome::execs`] tells the caller where the segment
/// went, so it can move the store entry there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentSpec {
    /// Collection id in the cluster's [`ResidentStore`].
    pub id: u64,
    /// Rank owning the segment this task reads.
    pub home: usize,
    /// Bytes re-shipped if the task must execute off its home rank.
    pub seg_bytes: usize,
    /// Ghost/halo bytes fetched from neighbor segments on *every* call
    /// (zero for non-halo views).
    pub halo_bytes: usize,
}

/// One node's share of a distributed operation, in prepared form: the
/// payload it would occupy on the wire plus the work to run on the node.
///
/// A task normally travels in a message of its own, sent by the root. A
/// task whose message would be *empty* — `wire_bytes == 0`, no `pieces`,
/// `pack_s == 0.0`, and for a resident task a live `home` and no halo —
/// dispatched under a non-empty broadcast environment is not sent: it
/// *rides* the environment edge into its rank and starts when that edge
/// lands (one `task:ride` trace instant in place of a `send` span, no
/// message counted, no fault decision drawn). Any byte of its own, and the
/// task gets its send back: relaying non-empty descriptors down the tree
/// would put them on more links than the root's.
pub struct RawTask<'a, R> {
    /// Bytes of the input payload that belong to this task alone (the part
    /// descriptor of a sliced iterator; the whole payload of a hand-packed
    /// one). They travel in the task's own message.
    pub wire_bytes: usize,
    /// The rest of the input payload, one [`Piece`] per buffer. A piece
    /// only this task's rank reads rides in the task's own message like
    /// `wire_bytes`; a piece that tasks on several ranks hold is sent by
    /// the root once and relayed among its readers.
    pub pieces: Vec<Piece>,
    /// Root-side seconds spent slicing/packing this task's payload. Charged
    /// on the root clock immediately before the task's send, so later packs
    /// overlap earlier nodes' compute.
    pub pack_s: f64,
    /// Resident-segment claim: `Some` routes the task to the segment's home
    /// rank and makes its input bytes placement-dependent (zero on a hit,
    /// `seg_bytes` on a redispatch); `None` is the ordinary ship-the-slice
    /// path.
    pub resident: Option<ResidentSpec>,
    /// The node task; must route compute through the [`NodeCtx`].
    pub work: Box<dyn FnOnce(&NodeCtx) -> R + Send + 'a>,
}

impl<'a, R> RawTask<'a, R> {
    /// Private input bytes this task puts on the wire for a hop targeting
    /// `dest` (the pieces riding along are the planner's to add).
    ///
    /// Ordinary tasks ship `wire_bytes` to every candidate rank. Resident
    /// tasks ship only halo bytes to their home rank and additionally the
    /// full segment to anyone else.
    fn hop_bytes(&self, dest: usize) -> usize {
        match self.resident {
            None => self.wire_bytes,
            Some(spec) => {
                let base = self.wire_bytes + spec.halo_bytes;
                if dest == spec.home {
                    base
                } else {
                    base + spec.seg_bytes
                }
            }
        }
    }

    /// The rank this task is routed to first (its home).
    fn home(&self, i: usize) -> usize {
        self.resident.map_or(i, |spec| spec.home)
    }

    /// Whether this task has nothing to send to a live `home` that a
    /// `bcast_bytes`-sized environment is about to reach anyway: no private
    /// byte, halo or piece, and nothing packed for it. Such a task *rides*
    /// the environment edge into its rank instead of getting a message of
    /// its own (see [`Cluster::run_raw_with_broadcast`]).
    fn rides(&self, home: usize, plan: &FaultPlan, bcast_bytes: usize) -> bool {
        bcast_bytes > 0
            && self.pieces.is_empty()
            && self.pack_s == 0.0
            && self.hop_bytes(home) == 0
            && !plan.crashed(home)
    }
}

/// What the fault schedule did to one message: how many times it was
/// transmitted and what happened to the attempts.
///
/// This is the reliable-messaging protocol, modeled rather than executed:
///
/// * each message is keyed by `(from, to, tag, key)`, the coordinates of
///   its fault decisions;
/// * the sender retransmits until an attempt is acknowledged or its budget
///   is spent; a crashed destination receives but never acknowledges, so a
///   probe of it always spends the budget;
/// * the receiver discards a corrupted copy (a checksum mismatch, so it
///   counts like a loss and the intact retransmission is what arrives),
///   acknowledges every intact arrival, and drops replays, so a duplicate
///   costs wire bytes but is delivered once;
/// * acknowledgements are not subject to faults.
///
/// The dispatcher folds each message's copies and unacknowledged attempts
/// into its edge duration ([`Attempts::seconds`]), and the simulator lays
/// those on the virtual clock as send, receive, and retry-timer events.
#[derive(Clone, Copy, Default)]
struct Attempts {
    /// Transmission attempts (1 + retries).
    attempts: u32,
    /// Attempts that additionally arrived twice.
    dups: u32,
    /// Attempts lost in flight.
    drops: u32,
    /// Attempts damaged in flight.
    corrupts: u32,
}

impl Attempts {
    /// Walk `(from, to, tag, key)` through the schedule until an attempt is
    /// acknowledged or `budget` attempts are spent; the flag says which.
    /// `dest_acks` is false for a crashed destination, which receives but
    /// never acknowledges. An inactive plan delivers on the first attempt.
    fn plan(
        plan: &FaultPlan,
        (from, to): (usize, usize),
        (tag, key): (u32, u64),
        budget: u32,
        dest_acks: bool,
    ) -> (Attempts, bool) {
        if !plan.is_active() {
            return (Attempts { attempts: 1, ..Attempts::default() }, true);
        }
        let mut tx = Attempts::default();
        for attempt in 0..budget {
            tx.attempts += 1;
            let d = plan.decide(from, to, tag, key, attempt);
            if !d.deliver {
                tx.drops += 1;
                continue;
            }
            if d.duplicate {
                tx.dups += 1;
            }
            if d.corrupt {
                tx.corrupts += 1;
                continue;
            }
            if dest_acks {
                return (tx, true);
            }
        }
        (tx, false)
    }

    /// A transfer between two live endpoints: retried until it arrives.
    fn reliable(plan: &FaultPlan, ends: (usize, usize), tag: u32, key: u64) -> Attempts {
        let (tx, delivered) = Attempts::plan(plan, ends, (tag, key), LIVE_ATTEMPT_CAP, true);
        assert!(delivered, "fault plan never delivers message (tag {tag}, key {key}) to its peer");
        tx
    }

    /// Copies of the message that crossed the wire.
    fn copies(&self) -> u64 {
        (self.attempts + self.dups) as u64
    }

    /// Retransmissions.
    fn retries(&self) -> u32 {
        self.attempts - 1
    }

    /// Seconds the message occupies its sender's NIC: every copy pays the
    /// transfer time `dt`, every attempt that went unacknowledged an ack
    /// timeout.
    fn seconds(&self, dt: f64, timeout_s: f64, timeouts: u32) -> f64 {
        dt * self.copies() as f64 + timeout_s * timeouts as f64
    }
}

/// One dispatch's traffic totals, kept in step with the cluster-wide
/// [`TrafficStats`]: every message is counted in both by one call.
struct Tally<'s> {
    stats: &'s TrafficStats,
    /// The counts so far (times are filled in when the dispatch closes).
    totals: DistTiming,
}

impl<'s> Tally<'s> {
    fn new(stats: &'s TrafficStats) -> Self {
        Tally { stats, totals: DistTiming::default() }
    }

    /// Count one `bytes`-sized message from `from` to `to` (ranks, or
    /// [`ROOT`]) and everything the schedule did to it.
    fn message(&mut self, tx: &Attempts, bytes: usize, (from, to): (usize, usize)) {
        let copies = tx.copies();
        for _ in 0..copies {
            self.stats.record(bytes);
        }
        for _ in 0..tx.drops {
            self.stats.record_dropped();
        }
        for _ in 0..tx.corrupts {
            self.stats.record_corrupted();
        }
        for _ in 0..tx.dups {
            self.stats.record_duplicated();
        }
        for _ in 0..tx.retries() {
            self.stats.record_retry();
        }
        let t = &mut self.totals;
        t.messages += copies;
        t.retries += tx.retries() as u64;
        let total = bytes as u64 * copies;
        if to == ROOT {
            t.bytes_back += total;
        } else {
            // A relayed copy is outbound too, but not on the root's link.
            t.bytes_out += total;
            if from == ROOT {
                t.root_bytes_out += total;
            }
        }
    }

    /// Count where one task ended up: its redispatches and, for a resident
    /// task, whether it ran on its segment's home rank.
    fn placement(&mut self, route: &TaskRoute) {
        for _ in 0..route.redispatches {
            self.stats.record_redispatch();
        }
        self.totals.redispatches += route.redispatches;
        if let Some(spec) = route.resident {
            if route.exec == spec.home {
                self.stats.record_resident_hit();
                self.totals.resident_hits += 1;
            } else {
                self.stats.record_resident_miss();
                self.totals.resident_misses += 1;
            }
        }
    }

    /// Close the dispatch: the totals with its times, the root's unpack
    /// byte movement banked cluster-wide.
    fn timing(
        self,
        total_s: f64,
        comm_s: f64,
        node_compute_s: Vec<f64>,
        (unpack_copied, unpack_aliased): (u64, u64),
    ) -> DistTiming {
        self.stats.record_unpack(unpack_copied, unpack_aliased);
        DistTiming { total_s, comm_s, node_compute_s, unpack_copied, unpack_aliased, ..self.totals }
    }
}

/// How one task's payload traveled from the root: one entry per rank tried
/// (none for a task that rode the environment in).
struct Hop {
    /// The rank this hop targeted.
    dest: usize,
    /// What each copy carried: the task's private bytes for `dest` plus the
    /// pieces riding along. Set by the dispatcher's forward walk, once the
    /// scatter plan says which pieces those are.
    bytes: usize,
    tx: Attempts,
    /// Whether the final attempt arrived intact (false => moved on).
    delivered: bool,
}

impl Hop {
    /// Attempts the root waited out an ack timeout for.
    fn timeouts(&self) -> u32 {
        self.tx.attempts - u32::from(self.delivered)
    }
}

/// The full (pre-computed, deterministic) route of one task.
struct TaskRoute {
    /// The rank that finally executes the task.
    exec: usize,
    hops: Vec<Hop>,
    redispatches: u64,
    /// The task's resident claim, if it has one: `exec == home` is a hit.
    resident: Option<ResidentSpec>,
}

/// Decide, purely from the fault schedule, where task `i` ends up running.
/// Candidates are tried in order: the task's `home` rank first (its index
/// for ordinary tasks, its resident segment's rank for resident ones), then
/// the surviving ranks after it (wrapping), each with the plan's full retry
/// budget. Moving to the next candidate is one redispatch. The fault
/// schedule is keyed on the task index `i`, not the home rank, so a
/// resident and a re-broadcast run of the same call see the same faults.
fn plan_route<R>(plan: &FaultPlan, n_nodes: usize, t: &RawTask<'_, R>, i: usize) -> TaskRoute {
    let home = t.home(i);
    let mut candidates = vec![home];
    if plan.is_active() {
        candidates
            .extend((1..n_nodes).map(|off| (home + off) % n_nodes).filter(|&r| !plan.crashed(r)));
    }
    let mut hops = Vec::new();
    for (ci, &dest) in candidates.iter().enumerate() {
        let (tx, delivered) = Attempts::plan(
            plan,
            (ROOT, dest),
            (FWD_TAG, i as u64),
            plan.max_retries + 1,
            !plan.crashed(dest),
        );
        hops.push(Hop { dest, bytes: 0, tx, delivered });
        if delivered {
            return TaskRoute { exec: dest, hops, redispatches: ci as u64, resident: t.resident };
        }
    }
    panic!(
        "fault plan leaves no route for task {i}: \
         every surviving candidate exhausted its retry budget"
    );
}

/// Decorate a transfer's span with what the schedule did to it: its
/// `retry`, `drop`, `corrupt` and `duplicate` instants on `track`, `dt`
/// apart from `start`. Placement within the transfer is a model decoration;
/// the *counts* are exact.
fn trace_faults(
    tr: &TraceHandle,
    track: Track,
    tx: &Attempts,
    (start, dt): (f64, f64),
    args: &[(&'static str, ArgValue)],
) {
    let kinds = [
        ("retry", tx.retries()),
        ("drop", tx.drops),
        ("corrupt", tx.corrupts),
        ("duplicate", tx.dups),
    ];
    for (name, count) in kinds {
        for k in 0..count {
            tr.event(name, "fault", track, start + dt * (k + 1) as f64, args.to_vec());
        }
    }
}

/// Record task `i`'s trip from the root: one `send` span per rank tried,
/// over that hop's `(start, done)` in `bounds`, its fault events one
/// transfer time apart, a `redispatch` where the root moved on — or, for a
/// task that had no message, one `task:ride` instant on its rank's track —
/// and the resident hit/miss verdict, both at `settled`, the task's arrival.
fn trace_route(
    tr: &TraceHandle,
    cost: &CostModel,
    i: usize,
    route: &TaskRoute,
    bounds: &[(f64, f64)],
    settled: f64,
) {
    if route.hops.is_empty() {
        let args = vec![("task", i.into()), ("rank", route.exec.into())];
        tr.event("task:ride", "dispatch", Track::Node(route.exec), settled, args);
    }
    for (h, (hop, &(start, done))) in route.hops.iter().zip(bounds).enumerate() {
        let args = vec![
            ("task", i.into()),
            ("dest", hop.dest.into()),
            ("bytes", hop.bytes.into()),
            ("attempts", (hop.tx.attempts as u64).into()),
        ];
        tr.span("send", "comm", Track::Root, start, done, args);
        let dt = cost.edge_time(ROOT, hop.dest, hop.bytes);
        let args = [("task", i.into()), ("dest", hop.dest.into())];
        trace_faults(tr, Track::Root, &hop.tx, (start, dt), &args);
        if !hop.delivered && h + 1 < route.hops.len() {
            tr.event(
                "redispatch",
                "fault",
                Track::Root,
                done,
                vec![
                    ("task", i.into()),
                    ("from", hop.dest.into()),
                    ("to", route.hops[h + 1].dest.into()),
                ],
            );
        }
    }
    if let Some(spec) = route.resident {
        let name = if route.exec == spec.home { "dist:resident-hit" } else { "dist:resident-miss" };
        tr.event(
            name,
            "dist",
            Track::Root,
            settled,
            vec![
                ("task", i.into()),
                ("seg", spec.id.into()),
                ("home", spec.home.into()),
                ("exec", route.exec.into()),
            ],
        );
    }
}

/// One planned edge of a one-to-many payload: the broadcast environment, or
/// an input piece that tasks on several ranks read. Fault outcomes are
/// decided up front from the schedule, like task routes, so the edge list
/// is a pure function of the plan, ready for both traffic accounting and
/// virtual-time charging.
struct PayloadEdge {
    /// Sending rank, or [`ROOT`].
    sender: usize,
    /// Receiving rank (always an executing rank, so both ends are alive).
    dest: usize,
    /// The edge that brought the payload to `sender` (`None` for the root).
    feeder: Option<usize>,
    /// Destination's depth below the root.
    depth: u32,
    /// Sender's child count (its serialized send burst).
    fanout: usize,
    bytes: usize,
    /// Which shared piece of this dispatch; `None` for the environment.
    piece: Option<usize>,
    tx: Attempts,
}

impl PayloadEdge {
    /// Record the edge on the timeline: a `comm:tree` span over
    /// `start..done`, followed by the edge's fault events one transfer time
    /// apart.
    fn trace(&self, tr: &TraceHandle, cost: &CostModel, (start, done): (f64, f64)) {
        let track = if self.sender == ROOT { Track::Root } else { Track::Node(self.sender) };
        let tag = if self.piece.is_some() { PIECE_TAG } else { ENV_TAG };
        let mut args = tree_edge_args(self.dest, tag, self.depth, self.fanout);
        if let Some(piece) = self.piece {
            args.push(("piece", piece.into()));
            args.push(("dest", self.dest.into()));
        }
        args.push(("bytes", self.bytes.into()));
        args.push(("attempts", (self.tx.attempts as u64).into()));
        tr.span("comm:tree", "comm", track, start, done, args);
        let dt = cost.edge_time(self.sender, self.dest, self.bytes);
        trace_faults(tr, track, &self.tx, (start, dt), &[("dest", self.dest.into())]);
    }
}

/// Append the edges that carry one `bytes`-sized payload from the root to
/// every rank in `dests`, each retried through the fault schedule until it
/// delivers intact.
///
/// The environment (`piece == None`) enters the binomial tree at the root,
/// which therefore sends `O(log N)` copies. A shared piece is sent by the
/// root exactly **once**, to its first reader, and the readers relay it
/// among themselves over the tree rooted there — the root link is the
/// scarce one when a whole input fans out. Under [`Topology::Linear`] the
/// root sends every copy of either kind itself.
fn plan_payload(
    edges: &mut Vec<PayloadEdge>,
    plan: &FaultPlan,
    topology: Topology,
    dests: &[usize],
    bytes: usize,
    piece: Option<usize>,
) {
    let n = dests.len();
    // Positions: 0 is the root, `p >= 1` is `dests[p - 1]`.
    let shape: Vec<(usize, usize, u32, usize)> = match (topology, piece) {
        (Topology::Linear, _) => (1..=n).map(|c| (0, c, 1, n)).collect(),
        (Topology::Tree, None) => tree::edges(n + 1)
            .into_iter()
            .map(|(s, c)| (s, c, tree::depth(c), tree::fanout(s, n + 1)))
            .collect(),
        (Topology::Tree, Some(_)) => std::iter::once((0, 1, 1, 1))
            .chain(
                tree::edges(n)
                    .into_iter()
                    .map(|(s, c)| (s + 1, c + 1, tree::depth(c) + 1, tree::fanout(s, n))),
            )
            .collect(),
    };
    let rank_at = |pos: usize| if pos == 0 { ROOT } else { dests[pos - 1] };
    // The edge that delivered the payload to each position.
    let mut arrived_by: Vec<Option<usize>> = vec![None; n + 1];
    for (s, c, depth, fanout) in shape {
        let (sender, dest) = (rank_at(s), rank_at(c));
        let (tag, key) = match piece {
            None => (ENV_TAG, c as u64),
            Some(k) => (PIECE_TAG, k as u64),
        };
        arrived_by[c] = Some(edges.len());
        edges.push(PayloadEdge {
            sender,
            dest,
            feeder: arrived_by[s],
            depth,
            fanout,
            bytes,
            piece,
            tx: Attempts::reliable(plan, (sender, dest), tag, key),
        });
    }
}

/// What the scatter of one dispatch looks like once sharing is known.
struct ScatterPlan {
    /// Environment edges first, then each task's block of shared-piece
    /// edges (see [`TaskScatter::edges`]).
    edges: Vec<PayloadEdge>,
    /// How many leading `edges` carry the environment.
    env_edges: usize,
    tasks: Vec<TaskScatter>,
    /// Flattened per-task lists of the edges a task waits for.
    needs: Vec<usize>,
}

/// One task's part of a [`ScatterPlan`].
struct TaskScatter {
    /// Piece bytes that ride in the task's own message: pieces no buffer
    /// identifies, and pieces whose only reader is this task's rank (the
    /// first task on the rank to hold one carries it; later ones find it
    /// there).
    carried: usize,
    /// The edges of the shared pieces this task is the first to read.
    edges: std::ops::Range<usize>,
    /// This task's slice of [`ScatterPlan::needs`]: the edges delivering the
    /// environment and each shared piece it reads to its executing rank.
    needs: std::ops::Range<usize>,
}

/// Group every task's pieces by buffer over the ranks that will *execute*
/// (never a rank that only timed out: the environment's rule), and plan the
/// one-to-many payloads: the environment, then each piece with two or more
/// reader ranks, in the order tasks first read them.
fn plan_scatter<R>(
    plan: &FaultPlan,
    topology: Topology,
    n_nodes: usize,
    tasks: &[RawTask<'_, R>],
    routes: &[TaskRoute],
    bcast_bytes: usize,
) -> ScatterPlan {
    let mut edges = Vec::new();
    // Environment: one shared payload to every executing rank.
    let mut env_edge_to = Vec::new();
    if bcast_bytes > 0 && !tasks.is_empty() {
        let mut execs: Vec<usize> = routes.iter().map(|r| r.exec).collect();
        execs.sort_unstable();
        execs.dedup();
        plan_payload(&mut edges, plan, topology, &execs, bcast_bytes, None);
        env_edge_to = vec![usize::MAX; n_nodes];
        for (idx, e) in edges.iter().enumerate() {
            env_edge_to[e.dest] = idx;
        }
    }
    let env_edges = edges.len();

    /// Who reads one buffer.
    enum Readers {
        /// Every task holding it runs on this rank; the flag says whether
        /// one of them has carried it there yet.
        One { rank: usize, carried: bool },
        /// Tasks on several ranks hold it: its edges, once planned.
        Many(Option<std::ops::Range<usize>>),
    }
    let mut by_id: BTreeMap<usize, Readers> = BTreeMap::new();
    for (t, route) in tasks.iter().zip(routes) {
        for id in t.pieces.iter().filter_map(|p| p.id) {
            let readers =
                by_id.entry(id).or_insert(Readers::One { rank: route.exec, carried: false });
            if matches!(readers, Readers::One { rank, .. } if *rank != route.exec) {
                *readers = Readers::Many(None);
            }
        }
    }

    let mut needs = Vec::new();
    let mut shared = 0usize;
    let mut scatter = Vec::with_capacity(tasks.len());
    for (t, route) in tasks.iter().zip(routes) {
        let (edges0, needs0) = (edges.len(), needs.len());
        if env_edges > 0 {
            needs.push(env_edge_to[route.exec]);
        }
        let mut carried_bytes = 0usize;
        for p in &t.pieces {
            match p.id.map(|id| by_id.get_mut(&id).expect("grouped above")) {
                None => carried_bytes += p.bytes,
                Some(Readers::One { carried, .. }) => {
                    if !std::mem::replace(carried, true) {
                        carried_bytes += p.bytes;
                    }
                }
                Some(Readers::Many(block)) => {
                    let block = block.get_or_insert_with(|| {
                        // Its reader ranks, in the order tasks first read it.
                        let mut ranks: Vec<usize> = Vec::new();
                        for (t, route) in tasks.iter().zip(routes) {
                            let reads = t.pieces.iter().any(|q| q.id == p.id);
                            if reads && !ranks.contains(&route.exec) {
                                ranks.push(route.exec);
                            }
                        }
                        let start = edges.len();
                        plan_payload(&mut edges, plan, topology, &ranks, p.bytes, Some(shared));
                        shared += 1;
                        start..edges.len()
                    });
                    let arrival = block.clone().find(|&e| edges[e].dest == route.exec);
                    needs.push(arrival.expect("every reader rank is a destination of its piece"));
                }
            }
        }
        scatter.push(TaskScatter {
            carried: carried_bytes,
            edges: edges0..edges.len(),
            needs: needs0..needs.len(),
        });
    }
    ScatterPlan { edges, env_edges, tasks: scatter, needs }
}

/// A simulated cluster of multicore nodes.
///
/// `run` is the core collective: it ships one serialized payload to each
/// participating node, executes the task there (two-level: the task uses the
/// node's [`NodeCtx`] for thread parallelism), and gathers serialized
/// results back to the root — the fork-join pattern Triolet's distributed
/// skeletons compile to.
pub struct Cluster {
    config: ClusterConfig,
    stats: TrafficStats,
    resident: Arc<ResidentStore>,
    /// Reusable simulator state (clock vectors, event heap): capacity is
    /// retained across dispatches, so a collective step allocates no
    /// per-step `sender_clock` vectors.
    sim_scratch: Mutex<sim::SimScratch>,
}

impl Cluster {
    /// Bring up a cluster (no threads are spawned: node tasks run one at a
    /// time on the caller's thread, in virtual time).
    pub fn new(config: ClusterConfig) -> Self {
        Cluster {
            config,
            stats: TrafficStats::new(),
            resident: Arc::new(ResidentStore::new()),
            sim_scratch: Mutex::new(sim::SimScratch::new()),
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    /// Threads per node.
    pub fn threads_per_node(&self) -> usize {
        self.config.threads_per_node
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The ownership table of resident collection segments, shared with
    /// every collection handle (whose last drop evicts its entries).
    pub fn resident_store(&self) -> &Arc<ResidentStore> {
        &self.resident
    }

    /// A fresh timeline for one operation: recording iff the cluster was
    /// configured with [`ClusterConfig::trace`].
    fn tracer(&self) -> TraceHandle {
        if self.config.trace {
            TraceHandle::recording()
        } else {
            TraceHandle::disabled()
        }
    }

    /// Scatter the segments of a persistent collection to their home ranks:
    /// one `(rank, bytes)` send per segment (its index is its store slot),
    /// serialized on the root NIC, each retrying through the fault schedule
    /// until delivered intact.
    ///
    /// This is the *one-time* placement cost of a resident collection; every
    /// later skeleton call over it ships zero input bytes (see
    /// [`ResidentSpec`]). Segments land in the [`ResidentStore`] and each
    /// send is counted in [`TrafficStats::seg_scatters`] — deliberately not
    /// in `env_packs`, so environment accounting never double-counts the
    /// scatter. Returns the modeled timing and a trace rooted at a
    /// `dist:scatter` span.
    pub fn scatter_segments(&self, id: u64, segs: &[(usize, usize)]) -> (DistTiming, TraceData) {
        let plan = self.config.faults;
        let cost = self.config.cost;
        let timeout_s = plan.timeout.as_secs_f64();
        let tr = self.tracer();
        let mut tally = Tally::new(&self.stats);
        let mut clock = 0.0f64;
        for (slot, &(rank, bytes)) in segs.iter().enumerate() {
            self.resident.register(id, slot, rank, bytes);
            self.stats.record_seg_scatter();
            // Both endpoints are treated as alive: a crashed home interacts
            // at *call* time, via redispatch.
            let tx = Attempts::reliable(&plan, (ROOT, rank), SEG_TAG, rank as u64);
            tally.message(&tx, bytes, (ROOT, rank));
            let edge_s = tx.seconds(cost.edge_time(ROOT, rank, bytes), timeout_s, tx.retries());
            if tr.enabled() {
                tr.span(
                    "send",
                    "comm",
                    Track::Root,
                    clock,
                    clock + edge_s,
                    vec![
                        ("seg", id.into()),
                        ("dest", rank.into()),
                        ("bytes", bytes.into()),
                        ("attempts", (tx.attempts as u64).into()),
                    ],
                );
            }
            clock += edge_s;
        }
        if tr.enabled() {
            tr.span(
                "dist:scatter",
                "dist",
                Track::Root,
                0.0,
                clock,
                vec![
                    ("seg", id.into()),
                    ("segments", segs.len().into()),
                    ("bytes", tally.totals.bytes_out.into()),
                ],
            );
        }
        // The root NIC is busy for the whole scatter: all of it is comm.
        (tally.timing(clock, clock, vec![0.0; self.config.nodes], (0, 0)), tr.take())
    }

    /// Scatter `payloads` (one per node, at most `nodes()`), run `task` on
    /// each node, gather the results.
    ///
    /// Every payload genuinely crosses the node boundary as bytes: it is
    /// packed at the root, unpacked on the node, and the result travels back
    /// the same way. Transfer times come from the [`CostModel`] applied to
    /// the real byte counts.
    pub fn run<T, R, F>(&self, payloads: Vec<T>, task: F) -> DistOutcome<R>
    where
        T: Wire + Send,
        R: Wire + Send,
        F: Fn(&NodeCtx, T) -> R + Send + Sync,
    {
        self.try_run(payloads, task).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](Self::run), surfacing a result that fails to decode at the
    /// root as [`DispatchError::Decode`] instead of panicking.
    pub fn try_run<T, R, F>(
        &self,
        payloads: Vec<T>,
        task: F,
    ) -> Result<DistOutcome<R>, DispatchError>
    where
        T: Wire + Send,
        R: Wire + Send,
        F: Fn(&NodeCtx, T) -> R + Send + Sync,
    {
        assert!(
            payloads.len() <= self.config.nodes,
            "more payloads ({}) than nodes ({})",
            payloads.len(),
            self.config.nodes
        );
        // Root packs every outgoing message (the paper observed message
        // construction itself becoming a bottleneck for sgemm — we charge
        // it, per payload, so the streamed dispatcher can overlap rank k+1's
        // pack with rank k's compute).
        let task = &task;
        let tasks: Vec<RawTask<'_, R>> = payloads
            .into_iter()
            .map(|payload| {
                let t0 = Instant::now();
                let msg = packed(&payload);
                let pack_s = t0.elapsed().as_secs_f64();
                drop(payload);
                RawTask {
                    wire_bytes: msg.len(),
                    pieces: Vec::new(),
                    pack_s,
                    resident: None,
                    work: Box::new(move |ctx: &NodeCtx| {
                        // Deserialization happens on the node: charge it (and
                        // let the trace show how much of it was zero-copy).
                        let payload: T =
                            ctx.unpack_sequential(|| unpack_all(msg).expect("payload roundtrip"));
                        task(ctx, payload)
                    }),
                }
            })
            .collect();
        self.dispatch(tasks, 0)
    }

    /// Lowest-level collective: run one prepared task per node.
    ///
    /// Used by the skeleton engine, whose payloads are sliced indexers: the
    /// closure carries the data natively — code plus the sliced buffers it
    /// deserializes on the node — while `wire_bytes` and `pieces` declare
    /// what the payload occupies on the wire for the cost model and traffic
    /// accounting, and which of its buffers other tasks hold too (those are
    /// shipped once and relayed, see [`RawTask::pieces`]). Each task must
    /// route its compute through the provided [`NodeCtx`] so virtual time
    /// observes it.
    pub fn run_raw<'a, R>(&self, tasks: Vec<RawTask<'a, R>>) -> DistOutcome<R>
    where
        R: Wire + Send,
    {
        self.run_raw_with_broadcast(tasks, 0)
    }

    /// [`run_raw`](Self::run_raw), surfacing root-side decode failures as
    /// [`DispatchError`] instead of panicking.
    pub fn try_run_raw<'a, R>(
        &self,
        tasks: Vec<RawTask<'a, R>>,
    ) -> Result<DistOutcome<R>, DispatchError>
    where
        R: Wire + Send,
    {
        self.try_run_raw_with_broadcast(tasks, 0)
    }

    /// Like [`run_raw`](Self::run_raw), but additionally charges one
    /// `bcast_bytes`-sized shared payload (the packed closure environment)
    /// broadcast from the root to every *executing* rank over the
    /// configured [`Topology`] before any slice payload goes out.
    ///
    /// The environment is accounted once per broadcast edge — not once per
    /// task — and in virtual time a task cannot start before its rank
    /// holds the environment. `bcast_bytes == 0` (the unit environment)
    /// charges nothing.
    ///
    /// The environment's arrival is also the start signal for a task with
    /// nothing of its own to send (see [`RawTask`]): the root sends such a
    /// task no message, so a sweep of `n` resident hits costs the root its
    /// `⌈log₂(n+1)⌉` tree sends rather than those plus `n` empty ones.
    pub fn run_raw_with_broadcast<'a, R>(
        &self,
        tasks: Vec<RawTask<'a, R>>,
        bcast_bytes: usize,
    ) -> DistOutcome<R>
    where
        R: Wire + Send,
    {
        self.try_run_raw_with_broadcast(tasks, bcast_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_raw_with_broadcast`](Self::run_raw_with_broadcast), surfacing
    /// root-side decode failures as [`DispatchError`] instead of panicking.
    pub fn try_run_raw_with_broadcast<'a, R>(
        &self,
        tasks: Vec<RawTask<'a, R>>,
        bcast_bytes: usize,
    ) -> Result<DistOutcome<R>, DispatchError>
    where
        R: Wire + Send,
    {
        assert!(
            tasks.len() <= self.config.nodes,
            "more tasks ({}) than nodes ({})",
            tasks.len(),
            self.config.nodes
        );
        self.dispatch(tasks, bcast_bytes)
    }

    /// Run `work` on the root's own node: the `localpar` path.
    ///
    /// Shared memory only — no route is planned, nothing is packed, sent,
    /// returned or unpacked, so the timing reports zero bytes and messages,
    /// the [`FaultPlan`] has nothing to act on, and the result needs no
    /// [`Wire`] round trip. `work` sees a rank-0 [`NodeCtx`] and must route
    /// its compute through it so virtual time observes it.
    pub fn run_local<R>(&self, work: impl FnOnce(&NodeCtx) -> R) -> (R, DistTiming, TraceData) {
        let tr = self.tracer();
        let ctx = NodeCtx::new(0, self.config.threads_per_node).with_trace(self.tracer());
        let value = work(&ctx);
        let total_s = ctx.elapsed();
        tr.absorb(ctx.take_trace());
        tr.span(
            "node:task",
            "dispatch",
            Track::Node(0),
            0.0,
            total_s,
            vec![("task", 0usize.into())],
        );
        let mut node_compute = vec![0.0f64; self.config.nodes];
        node_compute[0] = total_s;
        (value, Tally::new(&self.stats).timing(total_s, 0.0, node_compute, (0, 0)), tr.take())
    }

    /// The one dispatcher behind `run` and `run_raw`, in four steps. *Plan*
    /// every task's route through the fault schedule, then the one-to-many
    /// payloads (the environment, and input pieces that tasks on several
    /// ranks share) over the ranks that will execute. *Execute* each task
    /// once, on its final rank. *Lay the timeline*: the simulator places
    /// every planned transfer and measured duration on the virtual clock.
    /// *Account* all traffic (including lost/duplicated attempts and
    /// retransmissions) and gather results in task order — a redispatched
    /// task's result still lands in its original task slot.
    ///
    /// The root's own pack/unpack work is pipelined against node compute:
    /// task k+1's pack is charged right before its send (so rank k already
    /// computes), and each result is unpacked the moment it arrives rather
    /// than after the slowest node.
    fn dispatch<'a, R>(
        &self,
        tasks: Vec<RawTask<'a, R>>,
        bcast_bytes: usize,
    ) -> Result<DistOutcome<R>, DispatchError>
    where
        R: Wire + Send,
    {
        let plan = self.config.faults;
        let n_nodes = self.config.nodes;
        let n_tasks = tasks.len();
        if plan.is_active() {
            assert!(
                (0..n_nodes).any(|r| !plan.crashed(r)),
                "fault plan crashes every node: nothing can recover"
            );
        }
        let mut routes: Vec<TaskRoute> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let home = t.home(i);
                if t.rides(home, &plan, bcast_bytes) {
                    // No message to route: the task executes at home, where
                    // the environment finds it, and draws nothing from the
                    // schedule.
                    TaskRoute { exec: home, hops: vec![], redispatches: 0, resident: t.resident }
                } else {
                    plan_route(&plan, n_nodes, t, i)
                }
            })
            .collect();
        let scatter =
            plan_scatter(&plan, self.config.topology, n_nodes, &tasks, &routes, bcast_bytes);

        let cost = self.config.cost;
        let timeout_s = plan.timeout.as_secs_f64();
        let tpn = self.config.threads_per_node;
        let tr = self.tracer();

        // --- One walk of the forward path: every payload edge, then every
        // task hop, is counted (the schedule, not the executor, decides what
        // happens on the wire) and reduced to the pure duration the
        // simulator needs. A hop carries the task's private bytes plus the
        // pieces riding with it; resident tasks pay per-hop bytes: the
        // control descriptor (plus any halo) to the home rank, the full
        // segment only when redispatch forces execution off-home. A task
        // riding the environment has no hop. comm_s accumulates in a fixed
        // order — payload edges, then task hops, then returns below — so the
        // breakdown is a pure function of the plan and the measured
        // durations. Each task's root-side pack seconds are charged right
        // before its own send, so rank k's compute overlaps the pack for
        // rank k+1.
        let mut tally = Tally::new(&self.stats);
        let mut comm_s = 0.0f64;
        let sim_edges: Vec<SimEdge> = scatter
            .edges
            .iter()
            .map(|e| {
                tally.message(&e.tx, e.bytes, (e.sender, e.dest));
                let dt = cost.edge_time(e.sender, e.dest, e.bytes);
                let edge_s = e.tx.seconds(dt, timeout_s, e.tx.retries());
                comm_s += edge_s;
                SimEdge { sender: e.sender, dest: e.dest, feeder: e.feeder, edge_s }
            })
            .collect();
        let mut hop_s: Vec<f64> = Vec::with_capacity(n_tasks);
        let mut sim_tasks: Vec<SimTask> = Vec::with_capacity(n_tasks);
        for ((t, route), sc) in tasks.iter().zip(&mut routes).zip(&scatter.tasks) {
            let h0 = hop_s.len();
            for hop in &mut route.hops {
                hop.bytes = t.hop_bytes(hop.dest) + sc.carried;
                tally.message(&hop.tx, hop.bytes, (ROOT, hop.dest));
                let dt = cost.edge_time(ROOT, hop.dest, hop.bytes);
                let s = hop.tx.seconds(dt, timeout_s, hop.timeouts());
                comm_s += s;
                hop_s.push(s);
            }
            tally.placement(route);
            sim_tasks.push(SimTask {
                pack_s: t.pack_s,
                exec: route.exec,
                elapsed: 0.0, // measured below, once the task has run
                ret_s: 0.0,   // filled once result sizes are known
                hops: h0..hop_s.len(),
                edges: sc.edges.clone(),
                needs: sc.needs.clone(),
            });
        }
        let execs: Vec<usize> = routes.iter().map(|r| r.exec).collect();

        // --- Execute every task once, in task order. Execution is
        // clockless: results and wall-measured node seconds feed the
        // simulator; they never depend on it.
        let mut node_compute = vec![0.0f64; n_nodes];
        let mut results_bytes = Vec::with_capacity(n_tasks);
        let mut sub_traces = Vec::with_capacity(n_tasks);
        for (i, t) in tasks.into_iter().enumerate() {
            let exec = routes[i].exec;
            let ctx = NodeCtx::new(exec, tpn).with_trace(self.tracer());
            let result = (t.work)(&ctx);
            let rb = ctx.sequential_labeled("pack", "prep", || packed(&result));
            let elapsed = ctx.elapsed();
            node_compute[exec] += elapsed;
            sim_tasks[i].elapsed = elapsed;
            sub_traces.push(ctx.take_trace());
            results_bytes.push(rb);
        }

        // Return trips, planned and accounted in task order (the third leg
        // of the comm_s order). Each attempt pays a transfer and each failed
        // attempt an ack timeout.
        let mut returns: Vec<(Attempts, f64)> = Vec::with_capacity(n_tasks);
        for (i, rb) in results_bytes.iter().enumerate() {
            let ret = Attempts::reliable(&plan, (routes[i].exec, ROOT), RET_TAG, i as u64);
            tally.message(&ret, rb.len(), (routes[i].exec, ROOT));
            let rdt = cost.edge_time(routes[i].exec, ROOT, rb.len());
            let path_s = ret.seconds(rdt, timeout_s, ret.retries());
            comm_s += path_s;
            sim_tasks[i].ret_s = path_s;
            returns.push((ret, rdt));
        }

        // --- Lay the dispatch on the virtual clock. Debug builds replay it
        // through the eager oracle and panic unless the two timelines agree
        // to the bit.
        let problem = SimProblem {
            n_nodes,
            edges: &sim_edges,
            env_edges: scatter.env_edges,
            hop_s: &hop_s,
            tasks: &sim_tasks,
            needs: &scatter.needs,
        };
        let times = {
            let mut scratch = self.sim_scratch.lock().expect("sim scratch poisoned");
            let times = sim::run_event(&problem, &mut scratch);
            #[cfg(debug_assertions)]
            sim::assert_cores_agree(&sim::run_eager(&problem, &mut scratch), &times);
            times
        };
        self.stats.record_sim(times.events, times.peak_heap as u64);
        let finish = times.ret_done.iter().fold(0.0f64, |a, &rd| a.max(rd));

        // --- Render the trace off the timeline in canonical record order
        // (golden traces pin it): the environment's edges, then per task its
        // pack, the shared pieces it is first to read, and its own sends.
        if tr.enabled() {
            let edge_span =
                |idx: usize| scatter.edges[idx].trace(&tr, &cost, times.edge_bounds[idx]);
            (0..scatter.env_edges).for_each(edge_span);
            for (i, route) in routes.iter().enumerate() {
                let pack_s = sim_tasks[i].pack_s;
                if pack_s > 0.0 {
                    tr.span(
                        "root:pack",
                        "prep",
                        Track::Root,
                        times.pack_start[i],
                        times.pack_start[i] + pack_s,
                        vec![("task", i.into())],
                    );
                }
                scatter.tasks[i].edges.clone().for_each(edge_span);
                let bounds = &times.hop_bounds[sim_tasks[i].hops.clone()];
                trace_route(&tr, &cost, i, route, bounds, times.send_done[i]);
            }
            for (i, mut sub) in sub_traces.into_iter().enumerate() {
                let (start, done) = times.node_bounds[i];
                sub.shift(start);
                tr.absorb(sub);
                tr.span(
                    "node:task",
                    "dispatch",
                    Track::Node(routes[i].exec),
                    start,
                    done,
                    vec![("task", i.into())],
                );
            }
            for (i, (ret, rdt)) in returns.iter().enumerate() {
                let done_at = times.node_bounds[i].1;
                tr.span(
                    "return",
                    "comm",
                    Track::Root,
                    done_at,
                    times.ret_done[i],
                    vec![
                        ("task", i.into()),
                        ("from", routes[i].exec.into()),
                        ("bytes", results_bytes[i].len().into()),
                        ("attempts", (ret.attempts as u64).into()),
                    ],
                );
                for k in 0..ret.retries() {
                    tr.event(
                        "retry",
                        "fault",
                        Track::Root,
                        done_at + rdt * (k + 1) as f64,
                        vec![("task", i.into()), ("from", routes[i].exec.into())],
                    );
                }
            }
        }

        // --- Streaming epilogue: the root (one core) unpacks results in
        // arrival order, each the moment it lands — early results are ready
        // while late nodes still compute, so most of the unpack cost hides
        // inside the network tail. Ties break on task index so the
        // processing order is deterministic.
        let ret_arrival = &times.ret_done;
        let mut order: Vec<usize> = (0..n_tasks).collect();
        order.sort_by(|&a, &b| ret_arrival[a].total_cmp(&ret_arrival[b]).then(a.cmp(&b)));
        let mut uclock = times.root_free; // root free after last send
        let mut arrivals = vec![0.0f64; n_tasks];
        let mut slots: Vec<Option<R>> = (0..n_tasks).map(|_| None).collect();
        let mut spans = vec![(0.0f64, 0.0f64); n_tasks];
        let mut moved = vec![(0u64, 0u64); n_tasks];
        for &i in &order {
            uclock = uclock.max(ret_arrival[i]);
            let rb = std::mem::take(&mut results_bytes[i]);
            let t1 = Instant::now();
            let (decoded, c, a) = with_unpack_delta(|| unpack_all(rb));
            let u = t1.elapsed().as_secs_f64();
            moved[i] = (c, a);
            match decoded {
                Ok(r) => slots[i] = Some(r),
                Err(source) => return Err(DispatchError::Decode { task: i, source }),
            }
            spans[i] = (uclock, uclock + u);
            uclock += u;
            arrivals[i] = uclock;
        }
        // Spans are emitted in task order (not arrival order) so the
        // recorded line order is a pure function of the inputs, independent
        // of measured unpack durations.
        if tr.enabled() {
            for (i, &(s0, s1)) in spans.iter().enumerate() {
                tr.span(
                    "root:unpack",
                    "prep",
                    Track::Root,
                    s0,
                    s1,
                    vec![
                        ("task", i.into()),
                        ("copied", moved[i].0.into()),
                        ("aliased", moved[i].1.into()),
                    ],
                );
            }
        }
        let unpacked = moved.iter().fold((0u64, 0u64), |(c, a), m| (c + m.0, a + m.1));
        Ok(DistOutcome {
            results: slots.into_iter().map(|s| s.expect("every task unpacked")).collect(),
            execs,
            arrivals,
            trace: tr.take(),
            timing: tally.timing(uclock.max(finish), comm_s, node_compute, unpacked),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn virtual_run_scatters_and_gathers() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(4, 2));
        let payloads: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64; 10]).collect();
        let out = cluster.run(payloads, |ctx, v: Vec<u64>| {
            assert_eq!(v.len(), 10);
            v.iter().sum::<u64>() + ctx.rank() as u64 * 1000
        });
        assert_eq!(out.results, vec![0, 1010, 2020, 3030]);
        assert_eq!(out.timing.messages, 8);
        assert_eq!(out.timing.retries, 0);
        assert_eq!(out.timing.redispatches, 0);
        assert!(out.timing.bytes_out > 0);
        assert_eq!(cluster.stats().messages(), 8);
    }

    #[test]
    fn fewer_payloads_than_nodes_is_fine() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(8, 2));
        let out = cluster.run(vec![1u64, 2], |_ctx, x: u64| x * 2);
        assert_eq!(out.results, vec![2, 4]);
    }

    #[test]
    #[should_panic(expected = "more payloads")]
    fn too_many_payloads_panics() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 1));
        let _ = cluster.run(vec![1u64, 2, 3], |_ctx, x: u64| x);
    }

    #[test]
    fn comm_cost_scales_with_bytes() {
        let cfg = ClusterConfig::virtual_cluster(2, 1).with_cost(CostModel::flat(0.0, 1e6));
        let cluster = Cluster::new(cfg);
        let big = vec![0u8; 1_000_000];
        let small = vec![0u8; 10];
        let t_big = cluster.run(vec![big], |_c, v: Vec<u8>| v.len() as u64).timing.comm_s;
        let t_small = cluster.run(vec![small], |_c, v: Vec<u8>| v.len() as u64).timing.comm_s;
        assert!(t_big > 50.0 * t_small, "1MB at 1MB/s must dominate: {t_big} vs {t_small}");
    }

    #[test]
    fn free_cost_model_zero_comm() {
        let cfg = ClusterConfig::virtual_cluster(2, 1).with_cost(CostModel::free());
        let out = Cluster::new(cfg)
            .run(vec![vec![0u8; 1000], vec![0u8; 1000]], |_c, v: Vec<u8>| v.len() as u64);
        assert_eq!(out.timing.comm_s, 0.0);
    }

    #[test]
    fn node_ctx_time_feeds_timing() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 4));
        let out = cluster.run(vec![5u64, 6], |ctx, x: u64| {
            ctx.sequential(|| std::thread::sleep(std::time::Duration::from_millis(3)));
            x
        });
        assert!(out.timing.node_compute_s.iter().all(|&t| t >= 0.003));
        assert!(out.timing.total_s >= 0.003);
    }

    fn lossy_plan(seed: u64) -> FaultPlan {
        FaultPlan::seeded(seed)
            .with_drop(0.3)
            .with_duplication(0.1)
            .with_corruption(0.05)
            .with_timeout(Duration::from_millis(1))
    }

    #[test]
    fn lossy_virtual_run_matches_fault_free_results() {
        let payloads: Vec<Vec<u64>> = (0..4).map(|i| (0..50u64).map(|x| x * i).collect()).collect();
        let task = |_ctx: &NodeCtx, v: Vec<u64>| v.iter().sum::<u64>();
        let clean = Cluster::new(ClusterConfig::virtual_cluster(4, 2)).run(payloads.clone(), task);
        let faulty = Cluster::new(ClusterConfig::virtual_cluster(4, 2).with_faults(lossy_plan(42)))
            .run(payloads, task);
        assert_eq!(clean.results, faulty.results, "faults must not change results");
        assert!(faulty.timing.retries > 0, "a 30% drop rate over 8 transfers must retry");
        assert!(faulty.timing.messages > clean.timing.messages);
        assert!(faulty.timing.bytes_out > clean.timing.bytes_out);
        assert!(faulty.timing.comm_s > clean.timing.comm_s, "faults must cost modeled time");
    }

    #[test]
    fn crashed_rank_tasks_are_redispatched() {
        let plan = FaultPlan::seeded(7).with_crash(1).with_timeout(Duration::from_millis(1));
        let cfg = ClusterConfig::virtual_cluster(4, 2).with_faults(plan);
        let cluster = Cluster::new(cfg);
        let out = cluster.run(vec![10u64, 20, 30, 40], |_ctx, x: u64| x * 2);
        assert_eq!(out.results, vec![20, 40, 60, 80], "task order survives redispatch");
        assert!(out.timing.redispatches >= 1, "rank 1's task must move to a survivor");
        assert_eq!(cluster.stats().redispatches(), out.timing.redispatches);
        // The crashed rank computed nothing.
        assert_eq!(out.timing.node_compute_s[1], 0.0);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let payloads: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64; 20]).collect();
        let task = |_ctx: &NodeCtx, v: Vec<u64>| v.iter().sum::<u64>();
        let cfg = ClusterConfig::virtual_cluster(4, 2).with_faults(lossy_plan(5));
        let a = Cluster::new(cfg).run(payloads.clone(), task);
        let b = Cluster::new(cfg).run(payloads, task);
        assert_eq!(a.results, b.results);
        assert_eq!(a.timing.messages, b.timing.messages);
        assert_eq!(a.timing.retries, b.timing.retries);
        assert_eq!(a.timing.redispatches, b.timing.redispatches);
    }

    #[test]
    fn untraced_dispatch_returns_empty_trace() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 2));
        let out = cluster.run(vec![1u64, 2], |_ctx, x: u64| x);
        assert!(out.trace.is_empty());
    }

    #[test]
    fn traced_virtual_dispatch_records_the_timeline() {
        let cfg = ClusterConfig::virtual_cluster(3, 2).with_trace(true);
        let out = Cluster::new(cfg)
            .run(vec![vec![1u64; 50], vec![2; 50], vec![3; 50]], |ctx, v: Vec<u64>| {
                ctx.sequential(|| v.iter().sum::<u64>())
            });
        let names = out.trace.span_names();
        for required in ["root:pack", "send", "node:task", "return", "root:unpack"] {
            assert!(names.contains(&required), "missing span {required:?} in {names:?}");
        }
        // One send + one exec envelope + one return per task.
        assert_eq!(out.trace.spans.iter().filter(|s| s.name == "send").count(), 3);
        assert_eq!(out.trace.spans.iter().filter(|s| s.name == "node:task").count(), 3);
        // Every span fits the run: no negative times, none past the total.
        for s in &out.trace.spans {
            assert!(s.t0 >= 0.0 && s.t1 <= out.timing.total_s + 1e-9, "{s:?}");
        }
    }

    #[test]
    fn traced_fault_run_shows_retries_and_redispatches() {
        let plan = FaultPlan::seeded(2024)
            .with_drop(0.2)
            .with_crash(1)
            .with_timeout(Duration::from_millis(1));
        let cfg = ClusterConfig::virtual_cluster(4, 2).with_faults(plan).with_trace(true);
        let out = Cluster::new(cfg).run(vec![1u64, 2, 3, 4], |_ctx, x: u64| x * 2);
        assert_eq!(out.results, vec![2, 4, 6, 8]);
        assert!(out.trace.count_events("retry") > 0);
        assert!(out.trace.count_events("redispatch") > 0);
        assert_eq!(out.trace.count_events("redispatch") as u64, out.timing.redispatches);
    }

    #[test]
    #[should_panic(expected = "crashes every node")]
    fn all_crashed_plan_is_rejected() {
        let plan = FaultPlan::seeded(1).with_crash(0).with_crash(1);
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 1).with_faults(plan));
        let _ = cluster.run(vec![1u64, 2], |_ctx, x: u64| x);
    }

    #[test]
    fn streamed_arrivals_are_staggered() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(4, 1));
        let payloads: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64; 100]).collect();
        let out = cluster.run(payloads, |_ctx, v: Vec<u64>| v.iter().sum::<u64>());
        assert_eq!(out.arrivals.len(), 4);
        // Equal-size payloads on an idle cluster return in task order; the
        // root's serialized sends stagger them.
        for w in out.arrivals.windows(2) {
            assert!(w[0] < w[1], "arrivals must be staggered: {:?}", out.arrivals);
        }
        assert!(out.arrivals[0] < out.timing.total_s);
        assert!(*out.arrivals.last().unwrap() <= out.timing.total_s + 1e-12);
    }

    /// Packs one word, demands two on unpack: every decode fails.
    #[derive(Debug)]
    struct Truncated(u64);

    impl Wire for Truncated {
        fn pack(&self, w: &mut triolet_serial::WireWriter) {
            self.0.pack(w);
        }
        fn unpack(r: &mut triolet_serial::WireReader) -> triolet_serial::WireResult<Self> {
            let a = u64::unpack(r)?;
            let _ = u64::unpack(r)?;
            Ok(Truncated(a))
        }
        fn packed_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn result_decode_failure_is_a_typed_error() {
        let err = Cluster::new(ClusterConfig::virtual_cluster(2, 1))
            .try_run(vec![1u64, 2], |_ctx, x: u64| Truncated(x))
            .expect_err("truncated results must not decode");
        assert!(matches!(err, DispatchError::Decode { task: 0, .. }), "unexpected error: {err}");
    }

    #[test]
    fn streamed_pack_overlaps_earlier_node_compute() {
        let cfg = ClusterConfig::virtual_cluster(3, 1).with_trace(true);
        let out = Cluster::new(cfg).run(
            vec![vec![1u64; 64], vec![2; 64], vec![3; 64]],
            |ctx, v: Vec<u64>| {
                // Every compute is long enough that a loaded host's
                // scheduling jitter in the wall-measured pack times cannot
                // push a pack span past it (a shared 1-vCPU host can steal a
                // whole scheduling quantum mid-measurement), and later tasks
                // run progressively longer so arrivals are staggered by tens
                // of milliseconds — not just by the µs-scale pack/send
                // stagger — keeping the unpack-overlap assertion below
                // robust to the same jitter.
                let ms = 60 * v[0];
                ctx.sequential(|| std::thread::sleep(std::time::Duration::from_millis(ms)));
                v.iter().sum::<u64>()
            },
        );
        let span_for = |name: &str, task: u64| {
            out.trace
                .spans
                .iter()
                .find(|s| {
                    s.name == name
                        && s.args.iter().any(|(k, v)| {
                            *k == "task" && matches!(v, triolet_obs::ArgValue::U64(t) if *t == task)
                        })
                })
                .unwrap_or_else(|| panic!("missing {name} span for task {task}"))
        };
        // One pack and one unpack span per task.
        assert_eq!(out.trace.spans.iter().filter(|s| s.name == "root:pack").count(), 3);
        assert_eq!(out.trace.spans.iter().filter(|s| s.name == "root:unpack").count(), 3);
        // The tentpole overlap: while node 0 computes, the root is already
        // packing (and sending) task 1.
        let node0 = span_for("node:task", 0);
        let pack1 = span_for("root:pack", 1);
        assert!(
            pack1.t0 >= node0.t0 && pack1.t1 <= node0.t1,
            "root:pack for task 1 ({}..{}) must sit inside node 0's compute ({}..{})",
            pack1.t0,
            pack1.t1,
            node0.t0,
            node0.t1
        );
        // And the first result is unpacked before the last one arrives.
        let unpack0 = span_for("root:unpack", 0);
        let unpack2 = span_for("root:unpack", 2);
        assert!(unpack0.t1 <= unpack2.t0, "streamed unpacks must not wait for stragglers");
    }

    /// Four tasks that all read buffer `7` (1000 bytes) and each a buffer
    /// of their own (100 bytes), behind a 16-byte descriptor.
    fn sharing_tasks<'a>() -> Vec<RawTask<'a, u64>> {
        (0..4usize)
            .map(|i| RawTask {
                wire_bytes: 16,
                pieces: vec![
                    Piece { id: Some(7), bytes: 1000 },
                    Piece { id: Some(100 + i), bytes: 100 },
                ],
                pack_s: 0.0,
                resident: None,
                work: Box::new(move |ctx: &NodeCtx| ctx.rank() as u64),
            })
            .collect()
    }

    #[test]
    fn a_piece_four_ranks_read_leaves_the_root_once() {
        let run = |topology| {
            let cfg = ClusterConfig::virtual_cluster(4, 1).with_topology(topology).with_trace(true);
            Cluster::new(cfg).run_raw_with_broadcast(sharing_tasks(), 500)
        };
        let (tree, linear) = (run(Topology::Tree), run(Topology::Linear));
        for out in [&tree, &linear] {
            assert_eq!(out.results, vec![0, 1, 2, 3]);
            // Every rank receives the environment, the shared piece, its own
            // piece and its descriptor: the same bytes on all links.
            assert_eq!(out.timing.bytes_out, 4 * (500 + 1000 + 100 + 16));
            // 4 env edges + 4 piece edges + 4 hops + 4 returns.
            assert_eq!(out.timing.messages, 16);
        }
        assert_eq!(linear.timing.root_bytes_out, linear.timing.bytes_out);
        // Tree: the environment enters the 5-participant tree at the root
        // (3 copies), the shared piece goes to its first reader only.
        assert_eq!(tree.timing.root_bytes_out, 3 * 500 + 1000 + 4 * (100 + 16));
        let piece_edges = |out: &DistOutcome<u64>| {
            let tagged = |s: &&triolet_obs::Span| s.args.iter().any(|(k, _)| *k == "piece");
            out.trace.spans.iter().filter(|s| s.name == "comm:tree").filter(tagged).count()
        };
        assert_eq!((piece_edges(&tree), piece_edges(&linear)), (4, 4));
        // A single-reader piece rides its task's own message.
        let hop = tree.trace.spans.iter().find(|s| s.name == "send").expect("a send");
        assert!(hop.args.contains(&("bytes", 116usize.into())), "{hop:?}");
    }

    #[test]
    fn shared_pieces_follow_redispatched_tasks_and_never_reach_dead_ranks() {
        // Rank 1 is down: task 1 moves to rank 2, which then holds two
        // readers of the shared piece and must receive it once.
        let plan = FaultPlan::seeded(3).with_crash(1).with_timeout(Duration::from_millis(1));
        let cfg = ClusterConfig::virtual_cluster(4, 1).with_faults(plan).with_trace(true);
        let out = Cluster::new(cfg).run_raw(sharing_tasks());
        assert_eq!(out.results, vec![0, 2, 2, 3]);
        let edges_to = |rank: usize| {
            let to_rank = |s: &&triolet_obs::Span| s.args.contains(&("dest", rank.into()));
            out.trace.spans.iter().filter(|s| s.name == "comm:tree").filter(to_rank).count()
        };
        assert_eq!(out.trace.count_spans("comm:tree"), 3, "one edge per executing rank");
        assert_eq!(edges_to(1), 0, "nothing for the dead rank");
        assert_eq!(edges_to(2), 1, "once for two readers");
        // The timed-out hop to rank 1 carried task 1's private bytes
        // (descriptor + own piece) on each of its 9 attempts.
        assert_eq!(out.timing.bytes_out, 3 * 1000 + 4 * 116 + 9 * 116);
        assert_eq!(out.timing.redispatches, 1);
    }

    /// Modeled seconds per message in the riding tests: large enough that
    /// the wall-measured node and unpack times are noise beside it.
    const LATENCY: f64 = 0.05;

    /// One resident task per rank of an `n`-rank cluster, each with `halo`
    /// halo bytes and the given pieces, returning the rank it ran on.
    fn resident_tasks<'a>(n: usize, halo: usize, pieces: &[Piece]) -> Vec<RawTask<'a, u64>> {
        (0..n)
            .map(|home| RawTask {
                wire_bytes: 0,
                pieces: pieces.to_vec(),
                pack_s: 0.0,
                resident: Some(ResidentSpec { id: 1, home, seg_bytes: 4096, halo_bytes: halo }),
                work: Box::new(move |ctx: &NodeCtx| ctx.rank() as u64),
            })
            .collect()
    }

    /// Eight [`resident_tasks`] behind an `env_bytes`-byte environment (0
    /// for none), on a flat network where every message costs [`LATENCY`].
    fn resident_sweep(
        plan: FaultPlan,
        env_bytes: usize,
        halo: usize,
        pieces: &[Piece],
    ) -> DistOutcome<u64> {
        let tasks = resident_tasks(8, halo, pieces);
        let cfg = ClusterConfig::virtual_cluster(8, 1)
            .with_cost(CostModel::flat(LATENCY, f64::INFINITY))
            .with_faults(plan)
            .with_trace(true);
        Cluster::new(cfg).run_raw_with_broadcast(tasks, env_bytes)
    }

    #[test]
    fn empty_task_messages_ride_the_environment() {
        let out = resident_sweep(FaultPlan::none(), 264, 0, &[]);
        assert_eq!(out.results, (0..8).collect::<Vec<u64>>());
        assert_eq!(out.execs, (0..8).collect::<Vec<usize>>());
        // 8 environment edges + 8 returns; the tasks themselves send nothing.
        assert_eq!(out.timing.messages, 16);
        assert_eq!(out.timing.bytes_out, 8 * 264);
        assert_eq!((out.timing.resident_hits, out.timing.resident_misses), (8, 0));
        // The root's four tree sends, one compute, one return — where eight
        // more sends on its NIC made this 13 latencies.
        assert!(out.timing.total_s >= 5.0 * LATENCY, "{}", out.timing.total_s);
        assert!(out.timing.total_s < 6.0 * LATENCY, "{}", out.timing.total_s);
        assert_eq!(out.trace.count_spans("send"), 0);
        assert_eq!(out.trace.count_events("task:ride"), 8);
        assert_eq!(out.trace.count_events("dist:resident-hit"), 8);
        // Every rank starts the moment its own environment edge lands.
        for edge in out.trace.spans.iter().filter(|s| s.name == "comm:tree") {
            let rank = edge.arg_u64("peer").expect("a tree edge names its peer") as usize;
            let on_rank = |s: &&triolet_obs::Span| s.track == Track::Node(rank);
            let task = out.trace.spans.iter().filter(|s| s.name == "node:task").find(on_rank);
            assert_eq!(task.expect("every rank ran a task").t0, edge.t1, "rank {rank}");
        }
    }

    #[test]
    fn linear_topology_rides_its_direct_environment_sends() {
        let cfg = ClusterConfig::virtual_cluster(4, 1).with_topology(Topology::Linear);
        let out = Cluster::new(cfg).run_raw_with_broadcast(resident_tasks(4, 0, &[]), 100);
        assert_eq!(out.results, vec![0, 1, 2, 3]);
        assert_eq!((out.timing.messages, out.timing.bytes_out), (8, 400));
        assert_eq!(out.timing.root_bytes_out, 400);
    }

    #[test]
    fn a_task_with_anything_to_send_keeps_its_own_message() {
        // 8 environment edges (none without an environment) + 8 task
        // messages + 8 returns, the task messages serialized on the root's
        // NIC behind its four tree sends: what every variant cost before
        // empty messages rode, and still does.
        let piece = [Piece { id: None, bytes: 1 }];
        for (env, halo, pieces) in [(0, 0, &[][..]), (264, 1, &[][..]), (264, 0, &piece[..])] {
            let out = resident_sweep(FaultPlan::none(), env, halo, pieces);
            let env_edges = if env > 0 { 8 } else { 0 };
            assert_eq!(out.timing.messages, env_edges + 16, "env {env} halo {halo}");
            let sends = env_edges / 2 + 8 + 1;
            assert!(out.timing.total_s >= sends as f64 * LATENCY, "env {env} halo {halo}");
            assert_eq!(out.trace.count_spans("send"), 8);
            assert_eq!(out.trace.count_events("task:ride"), 0);
            assert_eq!(out.timing.bytes_out, 8 * (env + halo + pieces.len()) as u64);
        }
    }

    #[test]
    fn a_crashed_home_is_still_probed_timed_out_and_redispatched() {
        let plan = FaultPlan::seeded(11).with_crash(3).with_timeout(Duration::from_millis(1));
        let out = resident_sweep(plan, 264, 0, &[]);
        assert_eq!(out.execs, vec![0, 1, 2, 4, 4, 5, 6, 7]);
        // 7 environment edges (rank 3 executes nothing) + the 9 attempts on
        // the dead home + the redispatch to rank 4 + 8 returns.
        assert_eq!(out.timing.messages, 7 + 9 + 1 + 8);
        assert_eq!((out.timing.retries, out.timing.redispatches), (8, 1));
        assert_eq!((out.timing.resident_hits, out.timing.resident_misses), (7, 1));
        // The probes are empty; the survivor is shipped the segment.
        assert_eq!(out.timing.bytes_out, 7 * 264 + 4096);
        assert_eq!(out.trace.count_spans("send"), 2);
        assert_eq!(out.trace.count_events("task:ride"), 7);
        assert_eq!(out.trace.count_events("redispatch"), 1);
        assert_eq!(out.trace.count_events("retry") as u64, out.timing.retries);
    }

    #[test]
    fn fault_events_on_hops_and_tree_edges_match_the_schedule() {
        // Eight ranks, so the environment and the piece every task reads
        // are both relayed rank to rank: fault events land on the root's
        // track (task hops, the tree's first edges) and on relay tracks.
        let tasks: Vec<RawTask<'_, u64>> = (0..8usize)
            .map(|i| RawTask {
                wire_bytes: 16,
                pieces: vec![Piece { id: Some(7), bytes: 1000 }],
                pack_s: 0.0,
                resident: None,
                work: Box::new(move |_: &NodeCtx| i as u64),
            })
            .collect();
        let cfg = ClusterConfig::virtual_cluster(8, 1).with_faults(lossy_plan(13)).with_trace(true);
        let out = Cluster::new(cfg).run_raw_with_broadcast(tasks, 500);
        assert_eq!(out.results, (0..8).collect::<Vec<u64>>());
        assert_eq!((out.trace.count_events("retry") as u64, out.timing.retries), (16, 16));
        let count = |name: &str, on_root: bool| {
            let events = out.trace.events.iter().filter(|e| e.name == name);
            events.filter(|e| (e.track == Track::Root) == on_root).count()
        };
        let on = |on_root| ["drop", "corrupt", "duplicate"].map(|name| count(name, on_root));
        // Recorded at the commit before hops and tree edges shared one
        // `trace_faults`, for this seed.
        assert_eq!((on(true), on(false)), ([6, 1, 1], [2, 2, 2]));
    }

    #[test]
    fn run_local_touches_no_wire() {
        let plan = FaultPlan::seeded(1).with_drop(0.5).with_crash(0);
        let cfg = ClusterConfig::virtual_cluster(3, 2).with_faults(plan).with_trace(true);
        let cluster = Cluster::new(cfg);
        let (value, timing, trace) = cluster.run_local(|ctx| {
            assert_eq!((ctx.rank(), ctx.threads()), (0, 2));
            ctx.map_reduce_chunks(vec![1u64, 2, 3, 4], |x| x * 10, |a, b| a + b)
        });
        assert_eq!(value, Some(100));
        assert_eq!((timing.bytes_out, timing.bytes_back, timing.messages), (0, 0, 0));
        assert_eq!(cluster.stats().snapshot(), Default::default());
        assert_eq!(trace.count_spans("node:task"), 1);
        assert_eq!(trace.count_spans("send") + trace.count_spans("return"), 0);
    }

    #[test]
    fn redispatched_result_lands_in_original_slot_mid_stream() {
        // Rank 1 crashes, so its task is redispatched and returns out of
        // step with the stream — its result must still occupy slot 1.
        let plan = FaultPlan::seeded(9).with_crash(1).with_timeout(Duration::from_millis(1));
        let cfg = ClusterConfig::virtual_cluster(4, 2).with_faults(plan);
        let out = Cluster::new(cfg).run(vec![10u64, 20, 30, 40], |_ctx, x: u64| x * 2);
        assert_eq!(out.results, vec![20, 40, 60, 80], "slot order broken");
        assert!(out.timing.redispatches >= 1);
    }
}
