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

use bytes::Bytes;
use triolet_obs::{tree_edge_args, ArgValue, TraceData, TraceHandle, Track};
use triolet_serial::{packed, unpack_counted, Piece, Wire, WireError};

use crate::clock::timed;
use crate::cost::{CostModel, DistTiming, TrafficSnapshot, TrafficStats};
use crate::fault::FaultPlan;
use crate::node::NodeCtx;
use crate::sim::{self, SimEdge, SimProblem, SimTask, SimTimes};
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

/// Why a dispatch could not complete.
///
/// More tasks than nodes, or a fault plan that leaves a task nowhere to run,
/// is known before anything is sent or any task body runs; a damaged or
/// mistyped result only once it reaches the root. All surface as typed
/// errors from [`Cluster::dispatch`] and [`Cluster::try_run`], not as
/// panics.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchError {
    /// More tasks than nodes: a dispatch runs at most one task per node.
    TooManyTasks {
        /// Tasks handed to the dispatch.
        tasks: usize,
        /// Nodes in the cluster.
        nodes: usize,
    },
    /// The fault plan crashes every node, so no task can run anywhere.
    AllCrashed,
    /// Every surviving candidate for task `task` exhausted its retry budget,
    /// or a transfer the task needs (the environment or a shared piece to
    /// its rank, its result back to the root) never delivers.
    Unroutable {
        /// Index of the task the plan found no rank for.
        task: usize,
    },
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
            DispatchError::TooManyTasks { tasks, nodes } => {
                write!(f, "more tasks ({tasks}) than nodes ({nodes})")
            }
            DispatchError::AllCrashed => {
                write!(f, "fault plan crashes every node: nothing can recover")
            }
            DispatchError::Unroutable { task } => write!(
                f,
                "fault plan leaves no route for task {task}: every surviving candidate \
                 exhausted its retry budget, or a transfer it needs never delivers"
            ),
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
}

/// Results of one distributed operation, with its timing breakdown.
#[derive(Debug)]
pub struct DistOutcome<R> {
    /// One result per task, in task order (under faults a task's result may
    /// have been computed on a different rank than its index).
    pub results: Vec<R>,
    /// The rank each task executed on, in task order: its home unless the
    /// fault schedule redispatched it to a survivor, which then holds every
    /// piece the task listed.
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

/// One node's share of a distributed operation, in prepared form: the
/// pieces its input occupies on the wire plus the work to run on the node.
///
/// Every input byte is a [`Piece`], and a hop to a rank carries the task's
/// pieces minus those the rank already holds. A piece held by a rank (a
/// resident segment at its owner) makes that rank the task's *home* — the
/// holder of its first rank-held piece, or else its index — and routes the
/// task there: executed at home it is a *resident hit* and ships none of
/// those bytes; forced onto any other rank by a redispatch it is a
/// *resident miss*, and the root ships the survivor every piece it does
/// not hold, so recovery stays possible and its cost visible. A crashed
/// home is never assumed dead: it is probed with the task's message, timed
/// out, and the task redispatched. The dispatcher keeps no memory of
/// either: holders are whatever the caller named when it built the task,
/// and [`DistOutcome::execs`] tells the caller where the bytes went, so it
/// can record the segment's new owner. The cluster knows nothing else of
/// collections.
///
/// A task normally travels in a message of its own, sent by the root. A
/// task with nothing packed (`pack_s == 0.0`) whose live home holds every
/// piece it lists, dispatched under a non-empty broadcast environment, is
/// not sent: it *rides* the environment edge into its home and starts when
/// that edge lands (one `task:ride` trace instant in place of a `send`
/// span, no message counted, no fault decision drawn). Any byte to ship,
/// and the task gets its send back: relaying non-empty messages down the
/// tree would put them on more links than the root's.
pub struct RawTask<'a, R> {
    /// The input payload, one [`Piece`] per run of bytes: the part
    /// descriptor or packed payload (anonymous, root-held), each buffer of
    /// a sliced iterator (root-held; one that tasks on several ranks read
    /// is sent by the root once and relayed among its readers), each
    /// resident segment (held at its owner) and any halo strip
    /// (anonymous). The other pieces ride in the task's own message.
    pub pieces: Vec<Piece>,
    /// Root-side seconds spent slicing/packing this task's payload. Charged
    /// on the root clock immediately before the task's send, so later packs
    /// overlap earlier nodes' compute.
    pub pack_s: f64,
    /// The node task; must route compute through the [`NodeCtx`].
    pub work: Box<dyn FnOnce(&NodeCtx) -> R + Send + 'a>,
}

impl<'a, R> RawTask<'a, R> {
    /// The holder of the task's first rank-held piece, if it lists one:
    /// its home. A task without one is homed at its index.
    fn home(&self) -> Option<usize> {
        self.pieces.iter().find_map(|p| p.holder)
    }

    /// Whether this task has nothing to send to a live `home` that a
    /// `bcast_bytes`-sized environment is about to reach anyway: nothing
    /// packed for it, and every piece already held there. Such a task
    /// *rides* the environment edge into its rank instead of getting a
    /// message of its own (see [`Cluster::dispatch`]).
    fn rides(&self, home: usize, plan: &FaultPlan, bcast_bytes: usize) -> bool {
        bcast_bytes > 0
            && self.pack_s == 0.0
            && !plan.crashed(home)
            && self.pieces.iter().all(|p| p.holder == Some(home))
    }
}

/// The buffer a piece is relayed by: tasks on several ranks that read one
/// root-held buffer share its relay tree. Anonymous pieces and rank-held
/// ones (shipped from the root on a miss) ride their task's own message.
fn relay_id(p: &Piece) -> Option<(usize, usize)> {
    p.id.filter(|_| p.holder.is_none())
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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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

    /// A transfer between two live endpoints: retried until it arrives, or
    /// `None` if the plan never delivers it.
    fn reliable(plan: &FaultPlan, ends: (usize, usize), tag: u32, key: u64) -> Option<Attempts> {
        let (tx, delivered) = Attempts::plan(plan, ends, (tag, key), LIVE_ATTEMPT_CAP, true);
        delivered.then_some(tx)
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

/// One operation's message counts: what it adds to its [`DistTiming`], and
/// the per-attempt fault outcomes only the cluster-wide [`TrafficStats`]
/// keeps. A plain value, banked cluster-wide in one write.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    /// The counts (times are filled in when the operation closes).
    timing: DistTiming,
    dropped: u64,
    duplicated: u64,
    corrupted: u64,
}

impl Counts {
    /// Count one `bytes`-sized message from `from` to `to` (ranks, or
    /// [`ROOT`]) and everything the schedule did to it.
    fn message(&mut self, tx: &Attempts, bytes: usize, (from, to): (usize, usize)) {
        self.dropped += tx.drops as u64;
        self.duplicated += tx.dups as u64;
        self.corrupted += tx.corrupts as u64;
        let t = &mut self.timing;
        let copies = tx.copies();
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

    /// Count where one task ended up: its redispatches and, for a task
    /// with a rank-held piece, whether it ran at its home.
    fn placement(&mut self, route: &TaskRoute) {
        self.timing.redispatches += route.hops.len().saturating_sub(1) as u64;
        if let Some(home) = route.home {
            if route.exec == home {
                self.timing.resident_hits += 1;
            } else {
                self.timing.resident_misses += 1;
            }
        }
    }

    /// The counts in the cluster-wide ledger's terms.
    fn traffic(&self) -> TrafficSnapshot {
        let t = &self.timing;
        TrafficSnapshot {
            messages: t.messages,
            bytes: t.bytes_out + t.bytes_back,
            dropped: self.dropped,
            duplicated: self.duplicated,
            corrupted: self.corrupted,
            retries: t.retries,
            redispatches: t.redispatches,
            resident_hits: t.resident_hits,
            resident_misses: t.resident_misses,
            unpack_copied: t.unpack_copied,
            unpack_aliased: t.unpack_aliased,
            ..TrafficSnapshot::default()
        }
    }
}

/// How one task's payload traveled from the root: one entry per rank tried
/// (none for a task that rode the environment in).
#[derive(Debug, Clone, PartialEq)]
struct Hop {
    /// The rank this hop targeted.
    dest: usize,
    /// What each copy carried: the pieces riding in the task's message
    /// that `dest` does not hold.
    bytes: usize,
    tx: Attempts,
}

/// The full (pre-computed, deterministic) route of one task.
#[derive(Debug, Clone, PartialEq)]
struct TaskRoute {
    /// The rank that finally executes the task.
    exec: usize,
    /// Every rank tried, in order: all but the last timed out, and each
    /// move to the next is one redispatch.
    hops: Vec<Hop>,
    /// The result's trip back, decided like every other transfer: only its
    /// size waits for the body.
    ret: Attempts,
    /// The task's home if it lists a rank-held piece: executing there is a
    /// resident hit, anywhere else a miss.
    home: Option<usize>,
}

/// Decide, purely from the fault schedule, where task `i` ends up running:
/// the rank, and each rank tried with what the schedule did to the attempts
/// sent there (the last of them delivered). Candidates are tried in order:
/// the task's home first (the holder of its first rank-held piece, or else
/// its index), then the surviving ranks after it
/// (wrapping), each with the plan's full retry budget. Moving to the next
/// candidate is one redispatch. The fault schedule is keyed on the task
/// index `i`, not the home rank, so a resident and a re-broadcast run of
/// the same call see the same faults. A task that rides a `bcast_bytes`
/// environment has no message to route: it executes at home, where the
/// environment finds it, and draws nothing from the schedule.
fn plan_route<R>(
    plan: &FaultPlan,
    n_nodes: usize,
    (i, t): (usize, &RawTask<'_, R>),
    bcast_bytes: usize,
) -> Result<(usize, Vec<(usize, Attempts)>), DispatchError> {
    let home = t.home().unwrap_or(i);
    if t.rides(home, plan, bcast_bytes) {
        return Ok((home, Vec::new()));
    }
    let mut candidates = vec![home];
    if plan.is_active() {
        candidates
            .extend((1..n_nodes).map(|off| (home + off) % n_nodes).filter(|&r| !plan.crashed(r)));
    }
    let mut tries = Vec::new();
    for dest in candidates {
        let (tx, delivered) = Attempts::plan(
            plan,
            (ROOT, dest),
            (FWD_TAG, i as u64),
            plan.max_retries + 1,
            !plan.crashed(dest),
        );
        tries.push((dest, tx));
        if delivered {
            return Ok((dest, tries));
        }
    }
    Err(DispatchError::Unroutable { task: i })
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
        if h + 1 < route.hops.len() {
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
    if let Some(home) = route.home {
        let name = if route.exec == home { "dist:resident-hit" } else { "dist:resident-miss" };
        let args = vec![("task", i.into()), ("home", home.into()), ("exec", route.exec.into())];
        tr.event(name, "dist", Track::Root, settled, args);
    }
}

/// One planned edge of a one-to-many payload: the broadcast environment, or
/// an input piece that tasks on several ranks read. Fault outcomes are
/// decided up front from the schedule, like task routes, so the edge list
/// is a pure function of the plan, ready for both traffic accounting and
/// virtual-time charging.
#[derive(Debug, Clone, PartialEq)]
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
/// delivers intact; `Err(rank)` if the edge to `rank` never does.
///
/// The environment (`piece == None`) enters the binomial tree at the root,
/// which therefore sends `O(log N)` copies. A shared piece is sent by the
/// root exactly **once**, to its first reader, and the readers relay it
/// among themselves over the tree rooted there — the root link is the
/// scarce one when a whole input fans out.
fn plan_payload(
    edges: &mut Vec<PayloadEdge>,
    plan: &FaultPlan,
    dests: &[usize],
    bytes: usize,
    piece: Option<usize>,
) -> Result<(), usize> {
    let n = dests.len();
    // Positions: 0 is the root, `p >= 1` is `dests[p - 1]`.
    let shape: Vec<(usize, usize, u32, usize)> = match piece {
        None => tree::edges(n + 1)
            .into_iter()
            .map(|(s, c)| (s, c, tree::depth(c), tree::fanout(s, n + 1)))
            .collect(),
        Some(_) => std::iter::once((0, 1, 1, 1))
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
        let tx = Attempts::reliable(plan, (sender, dest), tag, key).ok_or(dest)?;
        arrived_by[c] = Some(edges.len());
        edges.push(PayloadEdge {
            sender,
            dest,
            feeder: arrived_by[s],
            depth,
            fanout,
            bytes,
            piece,
            tx,
        });
    }
    Ok(())
}

/// What the scatter of one dispatch looks like once sharing is known.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
struct TaskScatter {
    /// The pieces that ride in the task's own message: anonymous and
    /// rank-held pieces, and root-held buffers whose only reader is this
    /// task's rank (the first task on the rank to read one carries it;
    /// later ones find it there). A hop carries those its destination does
    /// not hold.
    carried: Vec<Piece>,
    /// The edges of the shared pieces this task is the first to read.
    edges: std::ops::Range<usize>,
    /// This task's slice of [`ScatterPlan::needs`]: the edges delivering the
    /// environment and each shared piece it reads to its executing rank.
    needs: std::ops::Range<usize>,
}

/// Group every task's root-held buffers over the ranks that will *execute*
/// them (`execs`, in task order; never a rank that only timed out: the
/// environment's rule), and plan the one-to-many payloads: the environment,
/// then each piece with two or more reader ranks, in the order tasks first
/// read them. An edge that never delivers strands the first task on its
/// rank that reads the payload: it is [`DispatchError::Unroutable`].
fn plan_scatter<R>(
    plan: &FaultPlan,
    n_nodes: usize,
    tasks: &[RawTask<'_, R>],
    execs: &[usize],
    bcast_bytes: usize,
) -> Result<ScatterPlan, DispatchError> {
    // Piece `id` (`None`: the environment) never reaches `rank`.
    let stranded = |rank: usize, id: Option<(usize, usize)>| {
        let reads = |t: &RawTask<'_, R>| id.is_none() || t.pieces.iter().any(|q| relay_id(q) == id);
        let task = (tasks.iter().zip(execs)).position(|(t, &exec)| exec == rank && reads(t));
        DispatchError::Unroutable { task: task.expect("a payload goes only to its readers") }
    };
    let mut edges = Vec::new();
    // Environment: one shared payload to every executing rank.
    let mut env_edge_to = Vec::new();
    if bcast_bytes > 0 && !tasks.is_empty() {
        let mut ranks = execs.to_vec();
        ranks.sort_unstable();
        ranks.dedup();
        plan_payload(&mut edges, plan, &ranks, bcast_bytes, None)
            .map_err(|rank| stranded(rank, None))?;
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
    let mut by_id: BTreeMap<(usize, usize), Readers> = BTreeMap::new();
    for (t, &exec) in tasks.iter().zip(execs) {
        for id in t.pieces.iter().filter_map(relay_id) {
            let readers = by_id.entry(id).or_insert(Readers::One { rank: exec, carried: false });
            if matches!(readers, Readers::One { rank, .. } if *rank != exec) {
                *readers = Readers::Many(None);
            }
        }
    }

    let mut needs = Vec::new();
    let mut shared = 0usize;
    let mut scatter = Vec::with_capacity(tasks.len());
    for (t, &exec) in tasks.iter().zip(execs) {
        let (edges0, needs0) = (edges.len(), needs.len());
        if env_edges > 0 {
            needs.push(env_edge_to[exec]);
        }
        let mut carried_pieces = Vec::new();
        for p in &t.pieces {
            match relay_id(p).map(|id| by_id.get_mut(&id).expect("grouped above")) {
                None => carried_pieces.push(*p),
                Some(Readers::One { carried, .. }) => {
                    if !std::mem::replace(carried, true) {
                        carried_pieces.push(*p);
                    }
                }
                Some(Readers::Many(block)) => {
                    if block.is_none() {
                        // Its reader ranks, in the order tasks first read it.
                        let mut ranks: Vec<usize> = Vec::new();
                        for (t, &exec) in tasks.iter().zip(execs) {
                            let reads = t.pieces.iter().any(|q| relay_id(q) == p.id);
                            if reads && !ranks.contains(&exec) {
                                ranks.push(exec);
                            }
                        }
                        let start = edges.len();
                        plan_payload(&mut edges, plan, &ranks, p.bytes, Some(shared))
                            .map_err(|rank| stranded(rank, p.id))?;
                        shared += 1;
                        *block = Some(start..edges.len());
                    }
                    let arrival =
                        block.clone().and_then(|mut b| b.find(|&e| edges[e].dest == exec));
                    needs.push(arrival.expect("every reader rank is a destination of its piece"));
                }
            }
        }
        scatter.push(TaskScatter {
            carried: carried_pieces,
            edges: edges0..edges.len(),
            needs: needs0..needs.len(),
        });
    }
    Ok(ScatterPlan { edges, env_edges, tasks: scatter, needs })
}

/// Everything a dispatch decides before any task body runs: the routes,
/// the scatter, each forward transfer's duration and the forward counts.
/// A pure function of the tasks' descriptors (pieces and pack seconds),
/// the environment size and the cluster's configuration:
/// [`Plan::new`] borrows the tasks, and a boxed `FnOnce` body cannot be
/// called through a shared reference.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Plan {
    routes: Vec<TaskRoute>,
    scatter: ScatterPlan,
    /// `scatter.edges`, timed.
    edges: Vec<SimEdge>,
    /// Every hop's seconds, task-major ([`SimTask::hops`] slices it).
    hop_s: Vec<f64>,
    tasks: Vec<SimTask>,
    /// Forward comm seconds, summed over the payload edges and then the
    /// hops; the returns follow in task order, so the breakdown is a pure
    /// function of the plan and the measured durations.
    comm_s: f64,
    /// The forward path's counts, and every task's placement.
    counts: Counts,
}

impl Plan {
    /// Plan `tasks` behind a `bcast_bytes`-sized environment (0 for none).
    /// A fault plan that crashes every node, or leaves a task no rank that
    /// acknowledges it, is an error here, before anything runs.
    pub(crate) fn new<R>(
        tasks: &[RawTask<'_, R>],
        bcast_bytes: usize,
        config: &ClusterConfig,
    ) -> Result<Plan, DispatchError> {
        let (faults, n_nodes) = (&config.faults, config.nodes);
        if faults.is_active() && (0..n_nodes).all(|r| faults.crashed(r)) {
            return Err(DispatchError::AllCrashed);
        }
        let tried = (tasks.iter().enumerate())
            .map(|task| plan_route(faults, n_nodes, task, bcast_bytes))
            .collect::<Result<Vec<_>, _>>()?;
        let execs: Vec<usize> = tried.iter().map(|&(exec, _)| exec).collect();
        let scatter = plan_scatter(faults, n_nodes, tasks, &execs, bcast_bytes)?;

        // Every payload edge, then every task hop, is counted (the schedule,
        // not the executor, decides what happens on the wire) and reduced to
        // the pure duration the simulator needs. A hop carries the pieces
        // riding with the task minus those its destination holds: a
        // resident segment costs nothing at home and is shipped to a
        // survivor. A task riding the environment has no hop.
        let (cost, timeout_s) = (config.cost, faults.timeout.as_secs_f64());
        let mut counts = Counts::default();
        let mut comm_s = 0.0f64;
        let edges = scatter
            .edges
            .iter()
            .map(|e| {
                counts.message(&e.tx, e.bytes, (e.sender, e.dest));
                let dt = cost.edge_time(e.sender, e.dest, e.bytes);
                let edge_s = e.tx.seconds(dt, timeout_s, e.tx.retries());
                comm_s += edge_s;
                SimEdge { sender: e.sender, dest: e.dest, feeder: e.feeder, edge_s }
            })
            .collect();
        let mut hop_s = Vec::with_capacity(tasks.len());
        let mut routes = Vec::with_capacity(tasks.len());
        let mut sim_tasks = Vec::with_capacity(tasks.len());
        for (i, ((t, (exec, tries)), sc)) in tasks.iter().zip(tried).zip(&scatter.tasks).enumerate()
        {
            let h0 = hop_s.len();
            let last = tries.len().saturating_sub(1);
            let hops = (tries.into_iter().enumerate())
                .map(|(k, (dest, tx))| {
                    let carried = sc.carried.iter().filter(|p| p.holder != Some(dest));
                    let bytes = carried.map(|p| p.bytes).sum();
                    counts.message(&tx, bytes, (ROOT, dest));
                    // The root waits out an ack timeout for every attempt
                    // but the one that delivered.
                    let timeouts = tx.attempts - u32::from(k == last);
                    let s = tx.seconds(cost.edge_time(ROOT, dest, bytes), timeout_s, timeouts);
                    comm_s += s;
                    hop_s.push(s);
                    Hop { dest, bytes, tx }
                })
                .collect();
            let ret = Attempts::reliable(faults, (exec, ROOT), RET_TAG, i as u64)
                .ok_or(DispatchError::Unroutable { task: i })?;
            let route = TaskRoute { exec, hops, ret, home: t.home() };
            counts.placement(&route);
            routes.push(route);
            sim_tasks.push(SimTask {
                pack_s: t.pack_s,
                exec,
                hops: h0..hop_s.len(),
                edges: sc.edges.clone(),
                needs: sc.needs.clone(),
            });
        }
        Ok(Plan { routes, scatter, edges, hop_s, tasks: sim_tasks, comm_s, counts })
    }

    /// Each task's return-trip seconds once its packed result is known:
    /// every copy pays the transfer, every retry an ack timeout.
    fn return_s(&self, results: &[Bytes], config: &ClusterConfig) -> Vec<f64> {
        let timeout_s = config.faults.timeout.as_secs_f64();
        (self.routes.iter().zip(results))
            .map(|(route, rb)| {
                let dt = config.cost.edge_time(route.exec, ROOT, rb.len());
                route.ret.seconds(dt, timeout_s, route.ret.retries())
            })
            .collect()
    }
}

/// What a dispatch's task bodies produced, in task order.
struct Executed {
    /// Each task's packed result.
    results: Vec<Bytes>,
    /// Each task's wall-measured node seconds (compute + result pack).
    node_s: Vec<f64>,
    /// Each task's node timeline, from its own start.
    traces: Vec<TraceData>,
}

/// Record a dispatch's timeline in canonical record order (golden traces
/// pin it): the environment's edges; per task its pack, the shared pieces
/// it is first to read and its own sends; each task's node timeline inside
/// its `node:task` span; then each return with its retries.
fn trace_timeline(
    tr: &TraceHandle,
    cost: &CostModel,
    plan: &Plan,
    node_traces: Vec<TraceData>,
    results: &[Bytes],
    times: &SimTimes,
) {
    let scatter = &plan.scatter;
    let edge_span = |idx: usize| scatter.edges[idx].trace(tr, cost, times.edge_bounds[idx]);
    (0..scatter.env_edges).for_each(edge_span);
    for (i, (route, task)) in plan.routes.iter().zip(&plan.tasks).enumerate() {
        if task.pack_s > 0.0 {
            let start = times.pack_start[i];
            let args = vec![("task", i.into())];
            tr.span("root:pack", "prep", Track::Root, start, start + task.pack_s, args);
        }
        scatter.tasks[i].edges.clone().for_each(edge_span);
        let bounds = &times.hop_bounds[task.hops.clone()];
        trace_route(tr, cost, i, route, bounds, times.send_done[i]);
    }
    for (i, (mut sub, route)) in node_traces.into_iter().zip(&plan.routes).enumerate() {
        let (start, done) = times.node_bounds[i];
        sub.shift(start);
        tr.absorb(sub);
        let args = vec![("task", i.into())];
        tr.span("node:task", "dispatch", Track::Node(route.exec), start, done, args);
    }
    for (i, route) in plan.routes.iter().enumerate() {
        let done_at = times.node_bounds[i].1;
        tr.span(
            "return",
            "comm",
            Track::Root,
            done_at,
            times.ret_done[i],
            vec![
                ("task", i.into()),
                ("from", route.exec.into()),
                ("bytes", results[i].len().into()),
                ("attempts", (route.ret.attempts as u64).into()),
            ],
        );
        let rdt = cost.edge_time(route.exec, ROOT, results[i].len());
        for k in 0..route.ret.retries() {
            tr.event(
                "retry",
                "fault",
                Track::Root,
                done_at + rdt * (k + 1) as f64,
                vec![("task", i.into()), ("from", route.exec.into())],
            );
        }
    }
}

/// A simulated cluster of multicore nodes.
///
/// [`dispatch`](Self::dispatch) is the one way work enters it: it ships
/// one prepared task to each participating node, executes it there
/// (two-level: the task uses the node's [`NodeCtx`] for thread
/// parallelism), and gathers serialized results back to the root — the
/// fork-join pattern Triolet's distributed skeletons compile to.
/// [`run`](Self::run) and [`try_run`](Self::try_run) are its
/// payload-packing form.
pub struct Cluster {
    config: ClusterConfig,
    stats: TrafficStats,
}

impl Cluster {
    /// Bring up a cluster (no threads are spawned: node tasks run one at a
    /// time on the caller's thread, in virtual time).
    pub fn new(config: ClusterConfig) -> Self {
        Cluster { config, stats: TrafficStats::new() }
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
    /// one `(rank, bytes)` send per segment, serialized on the root NIC, each
    /// retrying through the fault schedule until delivered intact. `id`
    /// only labels the sends in the trace.
    ///
    /// This is the *one-time* placement cost of a resident collection; every
    /// later skeleton call over it ships zero input bytes (see
    /// [`Piece::holder`]). Each send is counted in
    /// [`TrafficSnapshot::seg_scatters`] — deliberately not in `env_packs`,
    /// so environment accounting never double-counts the scatter. Returns
    /// the modeled timing and a trace rooted at a `dist:scatter` span.
    ///
    /// # Panics
    ///
    /// If the fault plan never delivers a segment (e.g. it drops every
    /// message): the caller's contract is a plan under which the root can
    /// reach every home rank.
    pub fn scatter_segments(&self, id: u64, segs: &[(usize, usize)]) -> (DistTiming, TraceData) {
        let plan = self.config.faults;
        let cost = self.config.cost;
        let timeout_s = plan.timeout.as_secs_f64();
        let tr = self.tracer();
        let mut counts = Counts::default();
        let mut clock = 0.0f64;
        for &(rank, bytes) in segs {
            // Both endpoints are treated as alive: a crashed home interacts
            // at *call* time, via redispatch.
            let tx = Attempts::reliable(&plan, (ROOT, rank), SEG_TAG, rank as u64)
                .expect("fault plan never delivers a segment to its home rank");
            counts.message(&tx, bytes, (ROOT, rank));
            let dt = cost.edge_time(ROOT, rank, bytes);
            let edge_s = tx.seconds(dt, timeout_s, tx.retries());
            if tr.enabled() {
                let args = [("seg", id.into()), ("dest", rank.into())];
                trace_faults(&tr, Track::Root, &tx, (clock, dt), &args);
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
                    ("bytes", counts.timing.bytes_out.into()),
                ],
            );
        }
        let seg_scatters = segs.len() as u64;
        self.stats.add(TrafficSnapshot { seg_scatters, ..counts.traffic() });
        // The root NIC is busy for the whole scatter: all of it is comm.
        let node_compute_s = vec![0.0; self.config.nodes];
        (DistTiming { total_s: clock, comm_s: clock, node_compute_s, ..counts.timing }, tr.take())
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

    /// [`run`](Self::run), surfacing more payloads than nodes (before any is
    /// packed), a fault plan that leaves a task nowhere to run, or a result
    /// that fails to decode at the root, as a [`DispatchError`] instead of
    /// panicking: the payload-packing form of [`dispatch`](Self::dispatch),
    /// each payload one anonymous piece.
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
        self.fits(payloads.len())?;
        // Root packs every outgoing message (the paper observed message
        // construction itself becoming a bottleneck for sgemm — we charge
        // it, per payload, so the streamed dispatcher can overlap rank k+1's
        // pack with rank k's compute).
        let task = &task;
        let tasks: Vec<RawTask<'_, R>> = payloads
            .into_iter()
            .map(|payload| {
                let (msg, pack_s) = timed(|| packed(&payload));
                drop(payload);
                RawTask {
                    pieces: Piece::anonymous(msg.len()).into_iter().collect(),
                    pack_s,
                    work: Box::new(move |ctx: &NodeCtx| {
                        // Deserialization happens on the node: charge it (and
                        // let the trace show how much of it was zero-copy).
                        let payload: T = ctx.unpack(msg).expect("payload roundtrip");
                        task(ctx, payload)
                    }),
                }
            })
            .collect();
        self.dispatch(tasks, 0)
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
        let mut node_compute_s = vec![0.0f64; self.config.nodes];
        node_compute_s[0] = total_s;
        (value, DistTiming { total_s, node_compute_s, ..DistTiming::default() }, tr.take())
    }

    /// Run one prepared task per node (at most `nodes()`): the one
    /// dispatcher, behind `run` and every skeleton.
    ///
    /// The skeleton engine's payloads are sliced indexers: each closure
    /// carries its data natively — code plus the sliced buffers it
    /// deserializes on the node — while `pieces` declare what the payload
    /// occupies on the wire for the cost model and traffic accounting,
    /// which of its buffers other tasks read too (those are shipped once and
    /// relayed) and which a rank already holds (see [`RawTask`]). Each task must
    /// route its compute through the provided [`NodeCtx`] so virtual time
    /// observes it.
    ///
    /// `env_bytes` is one shared payload (the packed closure environment)
    /// broadcast from the root to every *executing* rank over a binomial
    /// tree before any task payload goes out. It is accounted once per
    /// broadcast edge — not once per task — and in virtual time a task
    /// cannot start before its rank holds it; `0` (the unit environment)
    /// charges nothing. Its arrival is also the start signal for a task
    /// with nothing of its own to send (see [`RawTask`]): the root sends
    /// such a task no message, so a sweep of `n` resident hits costs the
    /// root its `⌈log₂(n+1)⌉` tree sends rather than those plus `n` empty
    /// ones.
    ///
    /// The composition of four values. The `Plan` routes every task
    /// through the fault schedule, then the one-to-many payloads (the
    /// environment, and input pieces that tasks on several ranks share)
    /// over the ranks that will execute, before any body runs; more tasks
    /// than nodes, or a plan that leaves a task nowhere to run or a
    /// transfer it needs undelivered, is a [`DispatchError`] and sends
    /// nothing and runs no body.
    /// `execute` runs each task once, on its final rank. The `timeline`
    /// places every planned transfer and measured duration on the virtual
    /// clock. The `account` renders the trace, gathers results in task
    /// order — a redispatched task's result still lands in its original
    /// slot — and totals the traffic (lost and duplicated attempts and
    /// retransmissions included), which the cluster-wide [`TrafficStats`]
    /// receives in one write. A result that fails to decode at the root is
    /// a [`DispatchError`] too.
    ///
    /// The root's own pack/unpack work is pipelined against node compute:
    /// task k+1's pack is charged right before its send (so rank k already
    /// computes), and each result is unpacked the moment it arrives rather
    /// than after the slowest node.
    pub fn dispatch<R: Wire + Send>(
        &self,
        tasks: Vec<RawTask<'_, R>>,
        env_bytes: usize,
    ) -> Result<DistOutcome<R>, DispatchError> {
        self.fits(tasks.len())?;
        let plan = Plan::new(&tasks, env_bytes, &self.config)?;
        let executed = self.execute(tasks, &plan);
        let ret_s = plan.return_s(&executed.results, &self.config);
        let times = self.timeline(&plan, &executed.node_s, &ret_s);
        let (traffic, outcome) = self.account(plan, executed, &ret_s, &times);
        let sim_events = times.events;
        self.stats.add(TrafficSnapshot { sim_events, ..traffic });
        outcome
    }

    /// At most one task per node.
    fn fits(&self, tasks: usize) -> Result<(), DispatchError> {
        let nodes = self.config.nodes;
        if tasks > nodes {
            return Err(DispatchError::TooManyTasks { tasks, nodes });
        }
        Ok(())
    }

    /// Run every task body once, in task order, on the rank the plan
    /// executes it on: the only place a dispatch runs a body. Execution is
    /// clockless: the seconds it measures feed the timeline, never the
    /// other way round.
    fn execute<R: Wire>(&self, tasks: Vec<RawTask<'_, R>>, plan: &Plan) -> Executed {
        let n_tasks = tasks.len();
        let mut executed = Executed {
            results: Vec::with_capacity(n_tasks),
            node_s: Vec::with_capacity(n_tasks),
            traces: Vec::with_capacity(n_tasks),
        };
        for (t, route) in tasks.into_iter().zip(&plan.routes) {
            let ctx =
                NodeCtx::new(route.exec, self.config.threads_per_node).with_trace(self.tracer());
            let result = (t.work)(&ctx);
            executed.results.push(ctx.sequential_labeled("pack", "prep", || packed(&result)));
            executed.node_s.push(ctx.elapsed());
            executed.traces.push(ctx.take_trace());
        }
        executed
    }

    /// Lay the plan, the measured node seconds and the return trips on the
    /// virtual clock.
    fn timeline(&self, plan: &Plan, node_s: &[f64], ret_s: &[f64]) -> SimTimes {
        let problem = SimProblem {
            n_nodes: self.config.nodes,
            edges: &plan.edges,
            env_edges: plan.scatter.env_edges,
            hop_s: &plan.hop_s,
            tasks: &plan.tasks,
            node_s,
            ret_s,
            needs: &plan.scatter.needs,
        };
        sim::run(&problem)
    }

    /// Close a dispatch off its timeline: render the trace, unpack the
    /// results as they arrive, and fold the plan's counts, the returns and
    /// the unpacked bytes into the outcome's timing. The dispatch's traffic
    /// comes back beside the outcome, for the one write that banks it (a
    /// result that fails to decode banks all of it but the unpack).
    fn account<R: Wire>(
        &self,
        plan: Plan,
        executed: Executed,
        ret_s: &[f64],
        times: &SimTimes,
    ) -> (TrafficSnapshot, Result<DistOutcome<R>, DispatchError>) {
        let Executed { mut results, node_s, traces } = executed;
        let tr = self.tracer();
        if tr.enabled() {
            trace_timeline(&tr, &self.config.cost, &plan, traces, &results, times);
        }
        let Plan { routes, mut counts, mut comm_s, .. } = plan;
        let mut node_compute_s = vec![0.0f64; self.config.nodes];
        for (i, route) in routes.iter().enumerate() {
            counts.message(&route.ret, results[i].len(), (route.exec, ROOT));
            comm_s += ret_s[i];
            node_compute_s[route.exec] += node_s[i];
        }

        // The streamed epilogue: the root (one core) unpacks results in
        // arrival order, each the moment it lands — early results are ready
        // while late nodes still compute, so most of the unpack cost hides
        // inside the network tail. Ties break on task index so the
        // processing order is deterministic.
        let n_tasks = routes.len();
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
            let rb = std::mem::take(&mut results[i]);
            let (decoded, u) = timed(|| unpack_counted(rb));
            match decoded {
                Ok((r, split)) => (slots[i], moved[i]) = (Some(r), split),
                Err(source) => {
                    return (counts.traffic(), Err(DispatchError::Decode { task: i, source }))
                }
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
        for &(c, a) in &moved {
            counts.timing.unpack_copied += c;
            counts.timing.unpack_aliased += a;
        }
        let finish = ret_arrival.iter().fold(0.0f64, |a, &rd| a.max(rd));
        let timing = DistTiming {
            total_s: uclock.max(finish),
            comm_s,
            node_compute_s,
            ..counts.timing.clone()
        };
        let outcome = DistOutcome {
            results: slots.into_iter().map(|s| s.expect("every task unpacked")).collect(),
            execs: routes.iter().map(|r| r.exec).collect(),
            arrivals,
            trace: tr.take(),
            timing,
        };
        (counts.traffic(), Ok(outcome))
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
        assert_eq!(cluster.stats().snapshot().messages, 8);
    }

    #[test]
    fn fewer_payloads_than_nodes_is_fine() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(8, 2));
        let out = cluster.run(vec![1u64, 2], |_ctx, x: u64| x * 2);
        assert_eq!(out.results, vec![2, 4]);
    }

    #[test]
    #[should_panic(expected = "more tasks")]
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
        assert_eq!(cluster.stats().snapshot().redispatches, out.timing.redispatches);
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
    fn plan_errors_are_typed_and_run_no_body() {
        let ran = std::sync::atomic::AtomicBool::new(false);
        let body = |_: &NodeCtx, x: u64| {
            ran.store(true, std::sync::atomic::Ordering::Relaxed);
            x
        };
        let rows = [
            // No rank is alive.
            (FaultPlan::seeded(1).with_crash(0).with_crash(1), 2, DispatchError::AllCrashed),
            // Every attempt to every rank is lost: task 0 has no route.
            (FaultPlan::seeded(1).with_drop(1.0), 2, DispatchError::Unroutable { task: 0 }),
            // Refused before any payload is packed.
            (FaultPlan::none(), 3, DispatchError::TooManyTasks { tasks: 3, nodes: 2 }),
        ];
        for (faults, n, want) in rows {
            let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 1).with_faults(faults));
            let err = cluster.try_run((1..=n).collect(), body).expect_err("the plan must fail");
            assert_eq!(err, want);
            assert_eq!(cluster.stats().snapshot(), Default::default(), "nothing was sent");
        }
        assert!(!ran.load(std::sync::atomic::Ordering::Relaxed), "a body ran under a failed plan");
    }

    #[test]
    fn dispatch_errors_are_typed_under_an_environment() {
        let ran = std::sync::atomic::AtomicBool::new(false);
        // A resident task on rank 1: with a halo it has a message of its own
        // to route; without one it rides the environment in.
        let task = |halo_bytes| RawTask {
            pieces: [held(1, 4096)].into_iter().chain(Piece::anonymous(halo_bytes)).collect(),
            pack_s: 0.0,
            work: Box::new(|_: &NodeCtx| ran.store(true, std::sync::atomic::Ordering::Relaxed)),
        };
        let all_crashed = FaultPlan::seeded(1).with_crash(0).with_crash(1);
        let lost = FaultPlan::seeded(1).with_drop(1.0);
        let cases = [
            (all_crashed, vec![task(8)], DispatchError::AllCrashed),
            (lost, vec![task(8)], DispatchError::Unroutable { task: 0 }),
            // The environment edge to the rider's rank never delivers.
            (lost, vec![task(0)], DispatchError::Unroutable { task: 0 }),
            (
                FaultPlan::none(),
                vec![task(8), task(8), task(8)],
                DispatchError::TooManyTasks { tasks: 3, nodes: 2 },
            ),
        ];
        for (faults, tasks, want) in cases {
            let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 1).with_faults(faults));
            let err = cluster.dispatch(tasks, 264).expect_err("the plan must fail");
            assert_eq!(err, want);
            assert_eq!(cluster.stats().snapshot(), Default::default(), "nothing was sent");
        }
        assert!(!ran.load(std::sync::atomic::Ordering::Relaxed), "a body ran under a failed plan");
    }

    #[test]
    fn a_plan_is_a_pure_function_of_the_descriptors() {
        // Three tasks share piece 7; rank 2 is down, so task 2 is
        // redispatched; the resident task has nothing to send and rides the
        // environment into its live home. No body may run while planning.
        let faults = FaultPlan::seeded(5).with_drop(0.2).with_crash(2);
        let cfg = ClusterConfig::virtual_cluster(4, 1).with_faults(faults);
        let untouchable = || -> Box<dyn FnOnce(&NodeCtx) -> u64 + Send> {
            Box::new(|_| panic!("planning ran a task body"))
        };
        let mut tasks: Vec<RawTask<'_, u64>> = (0..3usize)
            .map(|i| RawTask {
                pieces: vec![anonymous(16), shared(7, 1000), shared(100 + i, 100)],
                pack_s: 0.0,
                work: untouchable(),
            })
            .collect();
        tasks.push(RawTask { pieces: vec![held(3, 4096)], pack_s: 0.0, work: untouchable() });
        let plan = Plan::new(&tasks, 264, &cfg).expect("survivors route every task");
        assert_eq!(plan, Plan::new(&tasks, 264, &cfg).expect("the same plan"));
        let counts = &plan.counts;
        assert_eq!((counts.timing.redispatches, counts.timing.resident_hits), (1, 1));
        assert!(counts.dropped > 0, "the schedule must drop something");
        assert!(plan.scatter.edges.iter().any(|e| e.piece.is_some()), "piece 7 is shared");
        assert!(plan.routes[3].hops.is_empty(), "the resident task rides");
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

    /// `bytes` only the root holds, in no shared buffer.
    fn anonymous(bytes: usize) -> Piece {
        Piece::anonymous(bytes).expect("a non-empty piece")
    }

    /// `bytes` of the root-held buffer at address `id`.
    fn shared(id: usize, bytes: usize) -> Piece {
        Piece { id: Some((id, bytes)), bytes, holder: None }
    }

    /// `bytes` that rank `holder` already holds: a resident segment.
    fn held(holder: usize, bytes: usize) -> Piece {
        Piece { id: None, bytes, holder: Some(holder) }
    }

    /// A task over `pieces` returning the rank it ran on.
    fn rank_task<'a>(pieces: Vec<Piece>) -> RawTask<'a, u64> {
        RawTask { pieces, pack_s: 0.0, work: Box::new(|ctx: &NodeCtx| ctx.rank() as u64) }
    }

    /// Four tasks that all read buffer `7` (1000 bytes) and each a buffer
    /// of their own (100 bytes), behind a 16-byte descriptor.
    fn sharing_tasks<'a>() -> Vec<RawTask<'a, u64>> {
        (0..4usize)
            .map(|i| rank_task(vec![anonymous(16), shared(7, 1000), shared(100 + i, 100)]))
            .collect()
    }

    #[test]
    fn a_piece_four_ranks_read_leaves_the_root_once() {
        let cfg = ClusterConfig::virtual_cluster(4, 1).with_trace(true);
        let out = Cluster::new(cfg).dispatch(sharing_tasks(), 500).unwrap();
        assert_eq!(out.results, vec![0, 1, 2, 3]);
        // Every rank receives the environment, the shared piece, its own
        // piece and its descriptor.
        assert_eq!(out.timing.bytes_out, 4 * (500 + 1000 + 100 + 16));
        // 4 env edges + 4 piece edges + 4 hops + 4 returns.
        assert_eq!(out.timing.messages, 16);
        // The environment enters the 5-participant tree at the root (3
        // copies), the shared piece goes to its first reader only.
        assert_eq!(out.timing.root_bytes_out, 3 * 500 + 1000 + 4 * (100 + 16));
        let tagged = |s: &&triolet_obs::Span| s.args.iter().any(|(k, _)| *k == "piece");
        let piece_edges = out.trace.spans.iter().filter(|s| s.name == "comm:tree").filter(tagged);
        assert_eq!(piece_edges.count(), 4);
        // A single-reader piece rides its task's own message.
        let hop = out.trace.spans.iter().find(|s| s.name == "send").expect("a send");
        assert!(hop.args.contains(&("bytes", 116usize.into())), "{hop:?}");
    }

    #[test]
    fn shared_pieces_follow_redispatched_tasks_and_never_reach_dead_ranks() {
        // Rank 1 is down: task 1 moves to rank 2, which then holds two
        // readers of the shared piece and must receive it once.
        let plan = FaultPlan::seeded(3).with_crash(1).with_timeout(Duration::from_millis(1));
        let cfg = ClusterConfig::virtual_cluster(4, 1).with_faults(plan).with_trace(true);
        let out = Cluster::new(cfg).dispatch(sharing_tasks(), 0).unwrap();
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

    /// One resident task per rank of an 8-rank cluster, each reading a
    /// 4096-byte segment its rank holds, `halo` halo bytes and the given
    /// pieces and returning the rank it ran on, behind an `env_bytes`-byte
    /// environment (0 for none), on a flat network where every message
    /// costs [`LATENCY`].
    fn resident_sweep(
        plan: FaultPlan,
        env_bytes: usize,
        halo: usize,
        pieces: &[Piece],
    ) -> DistOutcome<u64> {
        let tasks = (0..8)
            .map(|home| {
                let halo = Piece::anonymous(halo);
                rank_task(
                    [held(home, 4096)].into_iter().chain(halo).chain(pieces.to_vec()).collect(),
                )
            })
            .collect();
        let cfg = ClusterConfig::virtual_cluster(8, 1)
            .with_cost(CostModel::flat(LATENCY, f64::INFINITY))
            .with_faults(plan)
            .with_trace(true);
        Cluster::new(cfg).dispatch(tasks, env_bytes).unwrap()
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
    fn a_task_with_anything_to_send_keeps_its_own_message() {
        // 8 environment edges (none without an environment) + 8 task
        // messages + 8 returns, the task messages serialized on the root's
        // NIC behind its four tree sends: what every variant cost before
        // empty messages rode, and still does.
        let piece = [anonymous(1)];
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
    fn each_hop_carries_the_pieces_its_destination_does_not_hold() {
        // One task on four ranks behind a 264-byte environment; rank 1 holds
        // a 4096-byte segment, and under `crashed` rank 1 is down, so its
        // task moves on to rank 2.
        let crashed = FaultPlan::seeded(11).with_crash(1).with_timeout(Duration::from_millis(1));
        let none = FaultPlan::none();
        let (seg, other) = (held(1, 4096), 1024);
        // (what, faults, pieces, each hop's (dest, bytes), (hits, misses))
        let cases = [
            ("a hit that rides", none, vec![seg], vec![], (1, 0)),
            ("a hit with a halo", none, vec![seg, anonymous(8)], vec![(1, 8)], (1, 0)),
            // The probe of the dead home carries no segment bytes; the
            // survivor is shipped exactly the segment.
            ("a crashed home", crashed, vec![seg], vec![(1, 0), (2, 4096)], (0, 1)),
            // The operand away from home travels on every call.
            ("a zipped split pair", none, vec![seg, held(3, other)], vec![(1, other)], (1, 0)),
            // Rank 2 holds the other operand already: only the segment moves.
            (
                "a pair redispatched onto the other operand's holder",
                crashed,
                vec![seg, held(2, other)],
                vec![(1, other), (2, 4096)],
                (0, 1),
            ),
            ("a private descriptor", none, vec![anonymous(16)], vec![(0, 16)], (0, 0)),
            ("an empty input", none, Piece::anonymous(0).into_iter().collect(), vec![], (0, 0)),
        ];
        for (what, faults, pieces, want_hops, want_placement) in cases {
            let cfg = ClusterConfig::virtual_cluster(4, 1).with_faults(faults).with_trace(true);
            let out = Cluster::new(cfg).dispatch(vec![rank_task(pieces)], 264).unwrap();
            let hops: Vec<(usize, usize)> = (out.trace.spans.iter())
                .filter(|s| s.name == "send")
                .map(|s| {
                    (s.arg_u64("dest").unwrap() as usize, s.arg_u64("bytes").unwrap() as usize)
                })
                .collect();
            assert_eq!(hops, want_hops, "{what}");
            assert_eq!(out.trace.count_events("task:ride"), usize::from(hops.is_empty()), "{what}");
            let placement = (out.timing.resident_hits, out.timing.resident_misses);
            assert_eq!(placement, want_placement, "{what}");
            let events =
                ["dist:resident-hit", "dist:resident-miss"].map(|e| out.trace.count_events(e));
            assert_eq!(events.map(|n| n as u64), [placement.0, placement.1], "{what}");
        }
    }

    #[test]
    fn fault_events_on_hops_and_tree_edges_match_the_schedule() {
        // Eight ranks, so the environment and the piece every task reads
        // are both relayed rank to rank: fault events land on the root's
        // track (task hops, the tree's first edges) and on relay tracks.
        let tasks: Vec<RawTask<'_, u64>> = (0..8usize)
            .map(|i| RawTask {
                pieces: vec![anonymous(16), shared(7, 1000)],
                pack_s: 0.0,
                work: Box::new(move |_: &NodeCtx| i as u64),
            })
            .collect();
        let cfg = ClusterConfig::virtual_cluster(8, 1).with_faults(lossy_plan(13)).with_trace(true);
        let out = Cluster::new(cfg).dispatch(tasks, 500).unwrap();
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
    fn a_traced_scatter_shows_every_fault_its_stats_count() {
        let cfg = ClusterConfig::virtual_cluster(8, 1).with_faults(lossy_plan(5)).with_trace(true);
        let cluster = Cluster::new(cfg);
        let segs: Vec<(usize, usize)> = (0..8).map(|rank| (rank, 4096)).collect();
        let (_, trace) = cluster.scatter_segments(7, &segs);
        let s = cluster.stats().snapshot();
        let counted = [s.retries, s.dropped, s.corrupted, s.duplicated];
        let traced =
            ["retry", "drop", "corrupt", "duplicate"].map(|n| trace.count_events(n) as u64);
        assert_eq!(traced, counted);
        assert!(s.retries > 0 && s.dropped > 0, "the plan must fault this scatter: {s:?}");
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
