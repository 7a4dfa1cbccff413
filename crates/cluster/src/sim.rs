//! The virtual-time simulator: a discrete-event heap, and its eager oracle.
//!
//! A dispatch is composed of four values: its `Plan` (routes, the scatter,
//! every forward transfer's duration — decided before any task body runs),
//! what `execute` returns (result bytes, node seconds), the timeline, and
//! the account rendered off it. This module lays the timeline: given a
//! [`SimProblem`] — the plan's timed pieces (the edges of every one-to-many
//! payload — the broadcast environment and the input pieces several ranks
//! share — per-task root pack times, send hops with their ack/retry
//! timeouts folded in) borrowed beside the node seconds and return trips
//! the executed bodies determine — [`run_event`] produces the full
//! [`SimTimes`] timeline.
//!
//! The model of a shared payload: the root's one NIC sends it in plan
//! order; a rank that has received it relays it onward, each relay starting
//! at `max(that rank's NIC free, the payload's arrival there)`. A task
//! *arrives* at its rank when its own last hop is done — or, when it has no
//! message of its own (an empty [`SimTask::hops`]), when the first payload
//! it reads lands there: the environment's arrival is its start signal and
//! the root's NIC never sees it. A rank queues tasks in `(arrival, task
//! index)` order and starts the head of the queue at `max(its arrival, the
//! rank free, the arrival of every payload it reads)`.
//!
//! The timeline is laid by a single binary event heap of timestamped sends,
//! receives, ack/retry-extended hops, and task completions, popped in
//! deterministic `(time, arrivals last, push-order)` order: a skeleton call
//! is processed in `O(E log E)` heap operations with `O(ranks)` heap entries
//! in flight. It is the core kept because its per-event handlers are where a
//! contended resource (a root ingress queue, a shared link) can be modeled —
//! a walk in fixed phase order cannot reorder around one — and because its
//! `events` / `peak_heap` counters are what the benchmark's
//! `cluster.sim_events*` rows read.
//!
//! The eager walk — chain every send on the root NIC, replay the relays over
//! a per-rank NIC clock vector, then sweep tasks in arrival order — is
//! compiled into debug builds only, as the oracle: the dispatcher replays
//! every dispatch through [`run_eager`] and [`assert_cores_agree`] panics
//! unless every `f64` in the two [`SimTimes`] agrees to the last bit (both
//! perform the same additions and `max` chains on the same operands).
//! Release builds pay nothing for it.
//!
//! Both run against reusable [`SimScratch`] buffers owned by the cluster,
//! so a collective step allocates no per-step clock vectors (capacity is
//! retained across dispatches).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cluster::ROOT;

/// One edge of a one-to-many payload — the broadcast environment or an
/// input piece several ranks read — reduced to what the timeline needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimEdge {
    /// Sending rank, or [`ROOT`].
    pub sender: usize,
    /// Receiving rank.
    pub dest: usize,
    /// The earlier edge that brought this payload to `sender`; `None` when
    /// the root sends (it holds everything it has packed).
    pub feeder: Option<usize>,
    /// Seconds the edge occupies its sender's NIC (every transmission copy
    /// plus every ack timeout).
    pub edge_s: f64,
}

/// One task, reduced to the timed pieces known before it runs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimTask {
    /// Root-side pack seconds charged immediately before this task's first
    /// send.
    pub pack_s: f64,
    /// Rank that finally executes the task.
    pub exec: usize,
    /// This task's slice of [`SimProblem::hop_s`]. Empty when the task has
    /// no message of its own and rides the first edge of its `needs` into
    /// its rank (it then has no pack time and no `edges` either).
    pub hops: std::ops::Range<usize>,
    /// The edges of the shared pieces this task is the first to read, as a
    /// slice of [`SimProblem::edges`]: the root sends its share of them
    /// after packing the task and before the task's hops.
    pub edges: std::ops::Range<usize>,
    /// This task's slice of [`SimProblem::needs`].
    pub needs: std::ops::Range<usize>,
}

/// Everything a core needs to lay one dispatch on the virtual clock.
pub(crate) struct SimProblem<'a> {
    /// Cluster size (per-rank state is sized by this).
    pub n_nodes: usize,
    /// Payload edges in plan order: the environment's, then each task's
    /// block. An edge's feeder always precedes it, and a NIC transmits its
    /// edges in this order.
    pub edges: &'a [SimEdge],
    /// How many leading `edges` belong to the environment broadcast (sent
    /// before the root packs any task).
    pub env_edges: usize,
    /// Durations of every task hop, flattened task-major.
    pub hop_s: &'a [f64],
    /// The tasks, in dispatch order.
    pub tasks: &'a [SimTask],
    /// Per task, its wall-measured node seconds (compute + result pack).
    pub node_s: &'a [f64],
    /// Per task, its return-trip seconds (every copy plus every ack
    /// timeout).
    pub ret_s: &'a [f64],
    /// Per task, the edges that deliver the payloads it reads to its
    /// executing rank: it cannot start before the last of them is done.
    pub needs: &'a [usize],
}

/// The complete timeline of one dispatch, in seconds from its start. Every
/// field is a pure function of the [`SimProblem`]; the event core and its
/// oracle must agree on all of it bitwise.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimTimes {
    /// `(start, done)` of each payload edge, in edge order.
    pub edge_bounds: Vec<(f64, f64)>,
    /// When the root began packing each task (== first send start when the
    /// task has no pack time, == `send_done` when it has no send).
    pub pack_start: Vec<f64>,
    /// `(start, done)` of every hop, aligned with [`SimProblem::hop_s`].
    pub hop_bounds: Vec<(f64, f64)>,
    /// When each task arrived at its executing rank: its last hop done, or
    /// for a task without hops the done time of the edge it rides.
    pub send_done: Vec<f64>,
    /// `(start, done)` of each task's node execution.
    pub node_bounds: Vec<(f64, f64)>,
    /// When each task's result reached the root.
    pub ret_done: Vec<f64>,
    /// Root clock after its last send (where the streamed unpacker starts).
    pub root_free: f64,
    /// Heap events processed (0 from the eager oracle).
    pub events: u64,
    /// Peak event-heap length (0 from the eager oracle).
    pub peak_heap: usize,
}

impl SimTimes {
    fn zeroed(p: &SimProblem<'_>) -> Self {
        let n_tasks = p.tasks.len();
        SimTimes {
            edge_bounds: vec![(0.0, 0.0); p.edges.len()],
            pack_start: vec![0.0; n_tasks],
            hop_bounds: vec![(0.0, 0.0); p.hop_s.len()],
            send_done: vec![0.0; n_tasks],
            node_bounds: vec![(0.0, 0.0); n_tasks],
            ret_done: vec![0.0; n_tasks],
            root_free: 0.0,
            events: 0,
            peak_heap: 0,
        }
    }
}

/// One heap entry: a timestamped state change. Ordering is `(time,
/// arrivals last and by task index, push-order)` — `total_cmp` on the time,
/// monotonic sequence number as the final tie-break — so the pop order is
/// fully deterministic and independent of heap internals. Task arrivals
/// wait out every other event of their instant (none of which an arrival
/// can cause) so that all of them are in the heap before the first pops:
/// a rank's queue order is then `(arrival time, task index)` whatever mix
/// of hops and ridden edges delivered its tasks.
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

enum EventKind {
    /// A payload edge finished transmitting (receive at its dest).
    EdgeDone { edge: usize },
    /// The root NIC is free to pack and send the next task.
    RootSend { task: usize },
    /// One send hop — all its retries and ack timeouts — completed.
    HopDone { task: usize, hop: usize },
    /// A task's payload arrived intact at its executing rank.
    TaskArrive { task: usize },
    /// A task's node execution completed.
    TaskDone { task: usize },
    /// A task's result arrived back at the root.
    ReturnArrive,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time.to_bits() == other.time.to_bits() && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Event {
    /// The arriving task, for [`EventKind::TaskArrive`] (`None` sorts first).
    fn arrival(&self) -> Option<usize> {
        match self.kind {
            EventKind::TaskArrive { task } => Some(task),
            _ => None,
        }
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.arrival().cmp(&other.arrival()))
            .then(self.seq.cmp(&other.seq))
    }
}

/// "No edge" / "no task" in the intrusive queues below.
const NONE: usize = usize::MAX;

/// Reusable per-dispatch state, owned by the cluster so collective steps
/// allocate no fresh clock vectors: `clear` + `resize` retain capacity, and
/// the event heap keeps its backing storage across calls. Everything here
/// is `O(ranks + edges)` resident.
#[derive(Default)]
pub(crate) struct SimScratch {
    /// When each rank's NIC finishes its current relay.
    nic_free: Vec<f64>,
    /// Whether each rank's NIC has an edge in flight (event core).
    nic_busy: Vec<bool>,
    /// Per rank: the next edge its NIC will send, then the last one queued
    /// (event core; `NONE` when empty).
    out_head: Vec<usize>,
    out_tail: Vec<usize>,
    /// Per edge: the edge its sender transmits next (event core).
    out_next: Vec<usize>,
    /// Whether each edge has been received yet (event core).
    edge_done: Vec<bool>,
    /// Per edge: the first task riding it; per task: the next one riding
    /// the same edge, in task order (event core).
    rider_head: Vec<usize>,
    rider_next: Vec<usize>,
    /// When each rank finishes its current task.
    node_free: Vec<f64>,
    /// Per rank: arrived tasks in arrival order, and how many of them have
    /// started (a rank runs its tasks in order, so only the first unstarted
    /// one can be waiting on a payload).
    pending: Vec<Vec<usize>>,
    pending_head: Vec<usize>,
    /// The event heap (`Reverse` turns `BinaryHeap`'s max order into the
    /// min-time order a simulator pops in).
    heap: BinaryHeap<Reverse<Event>>,
}

fn refill<T: Clone>(v: &mut Vec<T>, n: usize, val: T) {
    v.clear();
    v.resize(n, val);
}

impl SimScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n_nodes: usize, n_edges: usize, n_tasks: usize) {
        refill(&mut self.nic_free, n_nodes, 0.0);
        refill(&mut self.nic_busy, n_nodes, false);
        refill(&mut self.out_head, n_nodes, NONE);
        refill(&mut self.out_tail, n_nodes, NONE);
        refill(&mut self.out_next, n_edges, NONE);
        refill(&mut self.edge_done, n_edges, false);
        refill(&mut self.rider_head, n_edges, NONE);
        refill(&mut self.rider_next, n_tasks, NONE);
        refill(&mut self.node_free, n_nodes, 0.0);
        refill(&mut self.pending_head, n_nodes, 0);
        if self.pending.len() < n_nodes {
            self.pending.resize_with(n_nodes, Vec::new);
        }
        for p in &mut self.pending {
            p.clear();
        }
        self.heap.clear();
    }
}

/// The edge that stands in for the message of a task without hops: the
/// first payload it reads (the dispatcher lists the environment first).
fn ridden_edge(p: &SimProblem<'_>, t: &SimTask) -> usize {
    debug_assert!(t.pack_s == 0.0 && t.edges.is_empty(), "a riding task sends nothing");
    debug_assert!(!t.needs.is_empty(), "a riding task needs an edge to ride");
    p.needs[t.needs.start]
}

/// The oracle walk: chain everything the root sends on its one NIC, replay
/// the relays over per-rank NIC clocks, then sweep tasks in arrival order.
#[cfg(any(debug_assertions, test))]
pub(crate) fn run_eager(p: &SimProblem<'_>, s: &mut SimScratch) -> SimTimes {
    s.reset(p.n_nodes, p.edges.len(), p.tasks.len());
    let mut times = SimTimes::zeroed(p);
    let mut clock = 0.0f64;

    // Root phase: the environment leaves first; then, per task, the root
    // packs (streamed), sends the shared pieces that task is first to read,
    // and transmits the task's own payload — back to back on its single NIC,
    // each hop paying every retry and ack timeout before the next begins.
    let root_edges = |range: std::ops::Range<usize>, clock: &mut f64, times: &mut SimTimes| {
        for e in range {
            if p.edges[e].sender == ROOT {
                let done = *clock + p.edges[e].edge_s;
                times.edge_bounds[e] = (*clock, done);
                *clock = done;
            }
        }
    };
    root_edges(0..p.env_edges, &mut clock, &mut times);
    for (i, t) in p.tasks.iter().enumerate() {
        if t.hops.is_empty() {
            continue;
        }
        times.pack_start[i] = clock;
        if t.pack_s > 0.0 {
            clock += t.pack_s;
        }
        root_edges(t.edges.clone(), &mut clock, &mut times);
        for h in t.hops.clone() {
            let start = clock;
            clock += p.hop_s[h];
            times.hop_bounds[h] = (start, clock);
        }
        times.send_done[i] = clock;
    }

    // Relay phase: a rank forwards a payload once it holds it and its NIC is
    // free; ranks relay concurrently, each NIC in plan order.
    for (e, edge) in p.edges.iter().enumerate() {
        if let Some(f) = edge.feeder {
            let start = s.nic_free[edge.sender].max(times.edge_bounds[f].1);
            let done = start + edge.edge_s;
            s.nic_free[edge.sender] = done;
            times.edge_bounds[e] = (start, done);
        }
    }

    // A task with no message of its own arrives with the edge it rides.
    for (i, t) in p.tasks.iter().enumerate() {
        if t.hops.is_empty() {
            let arrival = times.edge_bounds[ridden_edge(p, t)].1;
            times.pack_start[i] = arrival;
            times.send_done[i] = arrival;
        }
    }

    // Node phase: a task starts when its payload, its rank, and every
    // payload it reads (environment, shared pieces) are all present; tasks
    // landing on the same rank serialize on its clock in arrival order.
    let mut order: Vec<usize> = (0..p.tasks.len()).collect();
    order.sort_by(|&a, &b| times.send_done[a].total_cmp(&times.send_done[b]).then(a.cmp(&b)));
    for i in order {
        let t = &p.tasks[i];
        let mut start = times.send_done[i].max(s.node_free[t.exec]);
        for &e in &p.needs[t.needs.clone()] {
            start = start.max(times.edge_bounds[e].1);
        }
        let done = start + p.node_s[i];
        s.node_free[t.exec] = done;
        times.node_bounds[i] = (start, done);
    }

    // Return phase: results stream back independently.
    for (i, ret_s) in p.ret_s.iter().enumerate() {
        times.ret_done[i] = times.node_bounds[i].1 + ret_s;
    }
    times.root_free = clock;
    times
}

/// The discrete-event core: one heap, popped in [`Event`] order.
///
/// Per-rank state replaces the eager walk's full passes: a rank holds its
/// NIC clock, a queue of the edges it will relay, and a (normally empty)
/// list of tasks parked awaiting a payload. Values are bit-identical to the
/// eager walk because every handler performs the same additions and `max`
/// chains on the same operands — the heap only decides *when* a handler
/// runs, never what it computes: a NIC sends its edges in plan order and a
/// rank starts its tasks in `(arrival, task index)` order, exactly as the
/// eager passes do.
pub(crate) fn run_event(p: &SimProblem<'_>, s: &mut SimScratch) -> SimTimes {
    let n_tasks = p.tasks.len();
    s.reset(p.n_nodes, p.edges.len(), n_tasks);
    let mut times = SimTimes::zeroed(p);

    // Thread each rank's outgoing edges into its send queue, in plan order.
    for (idx, e) in p.edges.iter().enumerate() {
        if e.sender == ROOT {
            continue;
        }
        match s.out_tail[e.sender] {
            NONE => s.out_head[e.sender] = idx,
            tail => s.out_next[tail] = idx,
        }
        s.out_tail[e.sender] = idx;
    }
    // Thread the tasks without a message of their own onto the edge each
    // rides (back to front, so every list reads in task order).
    for (i, t) in p.tasks.iter().enumerate().rev() {
        if t.hops.is_empty() {
            let e = ridden_edge(p, t);
            s.rider_next[i] = s.rider_head[e];
            s.rider_head[e] = i;
        }
    }
    // The next task at or after `from` that the root has to send.
    let next_send = |from: usize| (from..n_tasks).find(|&t| !p.tasks[t].hops.is_empty());

    // The block of `edges` the root is working through — the environment's,
    // then each task's in turn — and the task it belongs to.
    let mut root_block_end = p.env_edges;
    let mut root_task: Option<usize> = None;

    let mut seq = 0u64;
    macro_rules! push {
        ($time:expr, $kind:expr) => {{
            seq += 1;
            s.heap.push(Reverse(Event { time: $time, seq, kind: $kind }));
            if s.heap.len() > times.peak_heap {
                times.peak_heap = s.heap.len();
            }
        }};
    }
    // A task's first hop leaves once the root has packed it and sent the
    // pieces it is first to read.
    macro_rules! start_hops {
        ($task:expr, $clock:expr) => {{
            let task = $task;
            let clock = $clock;
            // `plan_route` tries the task's home rank first.
            let h = p.tasks[task].hops.start;
            let done = clock + p.hop_s[h];
            times.hop_bounds[h] = (clock, done);
            push!(done, EventKind::HopDone { task, hop: h });
        }};
    }
    // The root's NIC moves on: to its next edge at or after `from` in the
    // current block, else past the block (first task after the environment,
    // the task's hops after its pieces).
    macro_rules! root_continue {
        ($from:expr, $now:expr) => {{
            let now = $now;
            match ($from..root_block_end).find(|&e| p.edges[e].sender == ROOT) {
                Some(e) => {
                    let done = now + p.edges[e].edge_s;
                    times.edge_bounds[e] = (now, done);
                    push!(done, EventKind::EdgeDone { edge: e });
                }
                None => match root_task {
                    None => {
                        times.root_free = now;
                        if let Some(task) = next_send(0) {
                            push!(now, EventKind::RootSend { task });
                        }
                    }
                    Some(task) => start_hops!(task, now),
                },
            }
        }};
    }
    // A rank's NIC takes the next edge of its queue once it is idle and the
    // payload has arrived — the `max` the eager relay pass evaluates.
    macro_rules! try_relay {
        ($rank:expr) => {{
            let r = $rank;
            let e = s.out_head[r];
            if e != NONE && !s.nic_busy[r] {
                let f = p.edges[e].feeder.expect("a relayed edge has a feeder");
                if s.edge_done[f] {
                    let start = s.nic_free[r].max(times.edge_bounds[f].1);
                    let done = start + p.edges[e].edge_s;
                    times.edge_bounds[e] = (start, done);
                    s.nic_busy[r] = true;
                    push!(done, EventKind::EdgeDone { edge: e });
                }
            }
        }};
    }
    // A rank starts its arrived tasks in order, each once every payload it
    // reads is present — the identical `max` chain the eager core evaluates.
    macro_rules! start_ready_tasks {
        ($rank:expr) => {{
            let r = $rank;
            while let Some(&i) = s.pending[r].get(s.pending_head[r]) {
                let needs = &p.needs[p.tasks[i].needs.clone()];
                if !needs.iter().all(|&e| s.edge_done[e]) {
                    break;
                }
                let mut start = times.send_done[i].max(s.node_free[r]);
                for &e in needs {
                    start = start.max(times.edge_bounds[e].1);
                }
                let done = start + p.node_s[i];
                s.node_free[r] = done;
                times.node_bounds[i] = (start, done);
                s.pending_head[r] += 1;
                push!(done, EventKind::TaskDone { task: i });
            }
        }};
    }

    // Kick off: the root's NIC either relays the environment first or, with
    // no broadcast, turns straight to task sends.
    root_continue!(0, 0.0);

    while let Some(Reverse(ev)) = s.heap.pop() {
        times.events += 1;
        let now = ev.time;
        match ev.kind {
            EventKind::EdgeDone { edge } => {
                let e = &p.edges[edge];
                s.edge_done[edge] = true;
                // Sender's NIC moves to its next queued edge.
                if e.sender == ROOT {
                    root_continue!(edge + 1, now);
                } else {
                    s.nic_free[e.sender] = now;
                    s.nic_busy[e.sender] = false;
                    s.out_head[e.sender] = s.out_next[edge];
                    try_relay!(e.sender);
                }
                // The destination now holds the payload: it starts its own
                // relays, releases any tasks parked on it, and the tasks
                // riding the edge have arrived.
                try_relay!(e.dest);
                start_ready_tasks!(e.dest);
                let mut task = s.rider_head[edge];
                while task != NONE {
                    times.pack_start[task] = now;
                    times.send_done[task] = now;
                    push!(now, EventKind::TaskArrive { task });
                    task = s.rider_next[task];
                }
            }
            EventKind::RootSend { task } => {
                times.pack_start[task] = now;
                let mut clock = now;
                if p.tasks[task].pack_s > 0.0 {
                    clock += p.tasks[task].pack_s;
                }
                root_task = Some(task);
                root_block_end = p.tasks[task].edges.end;
                root_continue!(p.tasks[task].edges.start, clock);
            }
            EventKind::HopDone { task, hop } => {
                if hop + 1 < p.tasks[task].hops.end {
                    // Timed out on a dead rank: the root redispatches to
                    // the next candidate, back on its own NIC.
                    let done = now + p.hop_s[hop + 1];
                    times.hop_bounds[hop + 1] = (now, done);
                    push!(done, EventKind::HopDone { task, hop: hop + 1 });
                } else {
                    times.send_done[task] = now;
                    times.root_free = now;
                    push!(now, EventKind::TaskArrive { task });
                    if let Some(task) = next_send(task + 1) {
                        push!(now, EventKind::RootSend { task });
                    }
                }
            }
            EventKind::TaskArrive { task } => {
                let exec = p.tasks[task].exec;
                s.pending[exec].push(task);
                start_ready_tasks!(exec);
            }
            EventKind::TaskDone { task } => {
                let done = now + p.ret_s[task];
                times.ret_done[task] = done;
                push!(done, EventKind::ReturnArrive);
            }
            EventKind::ReturnArrive => {}
        }
    }
    times
}

/// Panic unless two timelines agree to the last bit — the gate every
/// debug-build dispatch passes its event timeline through.
#[cfg(any(debug_assertions, test))]
pub(crate) fn assert_cores_agree(eager: &SimTimes, event: &SimTimes) {
    fn pairs(name: &str, a: &[(f64, f64)], b: &[(f64, f64)]) {
        assert_eq!(a.len(), b.len(), "sim-check: {name} length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits(),
                "sim-check: {name}[{i}] diverged: eager {x:?} vs event {y:?}"
            );
        }
    }
    fn scalars(name: &str, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len(), "sim-check: {name} length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "sim-check: {name}[{i}] diverged: eager {x} vs event {y}"
            );
        }
    }
    pairs("edge_bounds", &eager.edge_bounds, &event.edge_bounds);
    scalars("pack_start", &eager.pack_start, &event.pack_start);
    pairs("hop_bounds", &eager.hop_bounds, &event.hop_bounds);
    scalars("send_done", &eager.send_done, &event.send_done);
    pairs("node_bounds", &eager.node_bounds, &event.node_bounds);
    scalars("ret_done", &eager.ret_done, &event.ret_done);
    assert!(
        eager.root_free.to_bits() == event.root_free.to_bits(),
        "sim-check: root_free diverged: eager {} vs event {}",
        eager.root_free,
        event.root_free
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(p: &SimProblem<'_>) -> (SimTimes, SimTimes) {
        let mut scratch = SimScratch::new();
        let eager = run_eager(p, &mut scratch);
        let event = run_event(p, &mut scratch);
        assert_cores_agree(&eager, &event);
        (eager, event)
    }

    fn edge(sender: usize, dest: usize, feeder: Option<usize>, edge_s: f64) -> SimEdge {
        SimEdge { sender, dest, feeder, edge_s }
    }

    /// A task that reads no shared payload.
    fn task(pack_s: f64, exec: usize, hop: usize) -> SimTask {
        SimTask { pack_s, exec, hops: hop..hop + 1, edges: 0..0, needs: 0..0 }
    }

    #[test]
    fn trivial_two_tasks_chain_on_the_root_nic() {
        let hop_s = vec![0.5, 0.25];
        let tasks = vec![task(0.1, 0, 0), task(0.1, 1, 1)];
        let p = SimProblem {
            n_nodes: 2,
            edges: &[],
            env_edges: 0,
            hop_s: &hop_s,
            tasks: &tasks,
            node_s: &[2.0, 1.0],
            ret_s: &[0.5, 0.5],
            needs: &[],
        };
        let (t, _) = check(&p);
        // Root: pack .1 +hop .5 => send_done[0]; +pack .1 +hop .25 =>
        // send_done[1]. Expected values use the same chained additions.
        let s0 = 0.1 + 0.5;
        let s1 = s0 + 0.1 + 0.25;
        assert_eq!(t.send_done, vec![s0, s1]);
        assert_eq!(t.node_bounds, vec![(s0, s0 + 2.0), (s1, s1 + 1.0)]);
        assert_eq!(t.ret_done, vec![s0 + 2.0 + 0.5, s1 + 1.0 + 0.5]);
        assert_eq!(t.root_free, s1);
    }

    #[test]
    fn same_rank_tasks_serialize_on_its_clock() {
        let hop_s = vec![0.1, 0.1, 0.1];
        let tasks: Vec<SimTask> = (0..3).map(|i| task(0.0, 0, i)).collect();
        let p = SimProblem {
            n_nodes: 1,
            edges: &[],
            env_edges: 0,
            hop_s: &hop_s,
            tasks: &tasks,
            node_s: &[1.0; 3],
            ret_s: &[0.0; 3],
            needs: &[],
        };
        let (t, _) = check(&p);
        // Arrivals at 0.1/0.2/0.3 but rank 0 runs them back to back.
        assert_eq!(t.node_bounds, vec![(0.1, 1.1), (1.1, 2.1), (2.1, 3.1)]);
    }

    #[test]
    fn late_environment_parks_early_arrivals() {
        // Env relays down a slow chain (root -> r0 -> r1 -> r2) while task
        // payloads leave the root the moment its own relay is done: tasks
        // for r1 and r2 arrive *before* their environment and must park
        // until the relay reaches them.
        let env =
            vec![edge(ROOT, 0, None, 1.0), edge(0, 1, Some(0), 1.0), edge(1, 2, Some(1), 1.0)];
        let hop_s = vec![0.01, 0.01, 0.01];
        let tasks: Vec<SimTask> =
            (0..3).map(|i| SimTask { needs: i..i + 1, ..task(0.0, i, i) }).collect();
        let p = SimProblem {
            n_nodes: 3,
            edges: &env,
            env_edges: 3,
            hop_s: &hop_s,
            tasks: &tasks,
            node_s: &[0.1; 3],
            ret_s: &[0.2; 3],
            needs: &[0, 1, 2],
        };
        let (t, ev) = check(&p);
        // The root is free after its single relay at 1.0; payloads land at
        // 1.01/1.02/1.03, but the environment reaches r1 at 2.0 and r2 at
        // 3.0 — those tasks start at their env arrival, not their payload.
        assert_eq!(t.edge_bounds, vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        assert_eq!(t.send_done, vec![1.01, 1.02, 1.03]);
        assert_eq!(t.node_bounds[0].0, 1.01);
        assert_eq!(t.node_bounds[1].0, 2.0);
        assert_eq!(t.node_bounds[2].0, 3.0);
        assert!(ev.events > 0 && ev.peak_heap > 0);
    }

    #[test]
    fn relayed_tree_broadcast_matches_between_cores() {
        // A 5-participant binomial-ish shape: root sends to r0 and r1; r0
        // relays to r2 and r3 concurrently with the root's second send.
        let env = vec![
            edge(ROOT, 0, None, 1.0),
            edge(ROOT, 1, None, 1.0),
            edge(0, 2, Some(0), 1.0),
            edge(0, 3, Some(0), 1.0),
        ];
        let hop_s = vec![0.5; 4];
        let tasks: Vec<SimTask> =
            (0..4).map(|i| SimTask { needs: i..i + 1, ..task(0.05, i, i) }).collect();
        let p = SimProblem {
            n_nodes: 4,
            edges: &env,
            env_edges: 4,
            hop_s: &hop_s,
            tasks: &tasks,
            node_s: &[0.3; 4],
            ret_s: &[0.1; 4],
            needs: &[0, 1, 2, 3],
        };
        let (t, _) = check(&p);
        // Root's NIC: edges at (0,1) and (1,2); r0 relays at (1,2),(2,3).
        assert_eq!(t.edge_bounds, vec![(0.0, 1.0), (1.0, 2.0), (1.0, 2.0), (2.0, 3.0)]);
        // Rank 3's payload can arrive before its env (sends start at 2.0);
        // its task start is gated on the 3.0 arrival.
        assert!(t.node_bounds[3].0 >= 3.0);
    }

    #[test]
    fn one_relay_serves_two_shared_pieces() {
        // Three ranks, no environment. Piece P (1.0 s an edge) is read by
        // r0, r1 and r2; piece Q (0.5 s) by r0 and r1. Task 0 is the first
        // reader of both, so the root sends P then Q to r0 before task 0's
        // hop, and r0 alone relays: P -> r1, P -> r2, then Q -> r1, its NIC
        // serializing the three in plan order. Hops cost 0.25 s, nothing is
        // packed, every task computes 0.125 s and returns in 0.0625 s (all
        // binary fractions, so the hand arithmetic below is exact).
        let edges = vec![
            edge(ROOT, 0, None, 1.0), // 0: P root -> r0
            edge(0, 1, Some(0), 1.0), // 1: P r0 -> r1
            edge(0, 2, Some(0), 1.0), // 2: P r0 -> r2
            edge(ROOT, 0, None, 0.5), // 3: Q root -> r0
            edge(0, 1, Some(3), 0.5), // 4: Q r0 -> r1
        ];
        let hop_s = vec![0.25; 3];
        let needs = [0, 3, 1, 4, 2];
        let tasks = vec![
            SimTask { edges: 0..5, needs: 0..2, ..task(0.0, 0, 0) },
            SimTask { edges: 5..5, needs: 2..4, ..task(0.0, 1, 1) },
            SimTask { edges: 5..5, needs: 4..5, ..task(0.0, 2, 2) },
        ];
        let p = SimProblem {
            n_nodes: 3,
            edges: &edges,
            env_edges: 0,
            hop_s: &hop_s,
            tasks: &tasks,
            node_s: &[0.125; 3],
            ret_s: &[0.0625; 3],
            needs: &needs,
        };
        let (t, _) = check(&p);
        // Root NIC: P 0..1, Q 1..1.5, then the three hops back to back.
        // r0's NIC: P->r1 starts when P lands (1.0), P->r2 follows (2.0),
        // and Q->r1 — in hand since 1.5 — waits for the NIC until 3.0.
        assert_eq!(t.edge_bounds, vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (1.0, 1.5), (3.0, 3.5)]);
        assert_eq!(t.hop_bounds, vec![(1.5, 1.75), (1.75, 2.0), (2.0, 2.25)]);
        // Task 0 has everything at its hop; task 1 waits for Q (3.5), the
        // last of its pieces; task 2 for P (3.0).
        assert_eq!(t.node_bounds, vec![(1.75, 1.875), (3.5, 3.625), (3.0, 3.125)]);
        assert_eq!(t.ret_done, vec![1.9375, 3.6875, 3.1875]);
        assert_eq!(t.root_free, 2.25);
    }

    #[test]
    fn a_rank_runs_its_tasks_in_order_even_when_a_later_one_is_ready_first() {
        // Tasks 0 and 1 both run on r1. Task 0 waits for a piece relayed
        // late by r0; task 1 needs nothing. The rank still runs 0 then 1.
        let edges = vec![edge(ROOT, 0, None, 0.5), edge(0, 1, Some(0), 4.0)];
        let hop_s = vec![0.25, 0.25];
        let tasks = vec![SimTask { edges: 0..2, needs: 0..1, ..task(0.0, 1, 0) }, task(0.0, 1, 1)];
        let p = SimProblem {
            n_nodes: 2,
            edges: &edges,
            env_edges: 0,
            hop_s: &hop_s,
            tasks: &tasks,
            node_s: &[1.0, 1.0],
            ret_s: &[0.0, 0.0],
            needs: &[1],
        };
        let (t, _) = check(&p);
        assert_eq!(t.node_bounds, vec![(4.5, 5.5), (5.5, 6.5)]);
    }

    /// A task with no message of its own, riding edge `needs[need]`.
    fn rider(exec: usize, need: usize) -> SimTask {
        SimTask { hops: 0..0, needs: need..need + 1, ..task(0.0, exec, 0) }
    }

    #[test]
    fn riding_tasks_start_in_environment_arrival_order_not_task_order() {
        // The environment reaches r3 first, then r2 and r0, r1 last. Tasks
        // 0..4 ride it into ranks 0..4 and start the instant it lands; task
        // 4 has a message of its own, the only thing the root sends after
        // the environment.
        let env = vec![
            edge(ROOT, 3, None, 1.0),  // 0: 0.0 .. 1.0
            edge(ROOT, 0, None, 1.0),  // 1: 1.0 .. 2.0
            edge(3, 2, Some(0), 0.5),  // 2: 1.0 .. 1.5
            edge(3, 1, Some(0), 1.0),  // 3: 1.5 .. 2.5
            edge(ROOT, 4, None, 0.25), // 4: 2.0 .. 2.25
        ];
        let hop_s = vec![0.25];
        let needs = [1, 3, 2, 0, 4];
        let tasks = vec![
            rider(0, 0),
            rider(1, 1),
            rider(2, 2),
            rider(3, 3),
            SimTask { needs: 4..5, ..task(0.0, 4, 0) },
        ];
        let p = SimProblem {
            n_nodes: 5,
            edges: &env,
            env_edges: 5,
            hop_s: &hop_s,
            tasks: &tasks,
            node_s: &[0.5; 5],
            ret_s: &[0.125; 5],
            needs: &needs,
        };
        let (t, ev) = check(&p);
        assert_eq!(
            t.edge_bounds,
            vec![(0.0, 1.0), (1.0, 2.0), (1.0, 1.5), (1.5, 2.5), (2.0, 2.25)]
        );
        assert_eq!(t.send_done, vec![2.0, 2.5, 1.5, 1.0, 2.5]);
        assert_eq!(t.pack_start, vec![2.0, 2.5, 1.5, 1.0, 2.25]);
        assert_eq!(t.hop_bounds, vec![(2.25, 2.5)]);
        let starts: Vec<f64> = t.node_bounds.iter().map(|b| b.0).collect();
        assert_eq!(starts, vec![2.0, 2.5, 1.5, 1.0, 2.5]);
        assert_eq!(t.ret_done, vec![2.625, 3.125, 2.125, 1.625, 3.125]);
        // The root's clock stops at its last send; riders never touch it.
        assert_eq!(t.root_free, 2.5);
        // 5 edges, then per rider arrive/done/return, and the sender's
        // send/hop/arrive/done/return.
        assert_eq!(ev.events, 5 + 4 * 3 + 5);
    }

    #[test]
    fn a_rank_queues_riders_and_sent_tasks_by_arrival_then_task_index() {
        // Both tasks run on r1. Task 1 rides the environment in at 1.0; task
        // 0's own message lands at 1.0 + hop. A rank works through what it
        // has in hand: the rider first when the hop takes time, task order
        // when the two arrive at the same instant.
        let env = vec![edge(ROOT, 1, None, 1.0)];
        let run = |hop: f64| {
            let hop_s = vec![hop];
            let tasks = vec![SimTask { needs: 0..1, ..task(0.0, 1, 0) }, rider(1, 1)];
            let p = SimProblem {
                n_nodes: 2,
                edges: &env,
                env_edges: 1,
                hop_s: &hop_s,
                tasks: &tasks,
                node_s: &[1.0, 2.0],
                ret_s: &[0.0, 0.0],
                needs: &[0, 0],
            };
            check(&p).0.node_bounds
        };
        assert_eq!(run(0.5), vec![(3.0, 4.0), (1.0, 3.0)]);
        assert_eq!(run(0.0), vec![(1.0, 2.0), (2.0, 4.0)]);
    }

    #[test]
    fn empty_problem_is_fine() {
        let p = SimProblem {
            n_nodes: 4,
            edges: &[],
            env_edges: 0,
            hop_s: &[],
            tasks: &[],
            node_s: &[],
            ret_s: &[],
            needs: &[],
        };
        let (t, _) = check(&p);
        assert_eq!(t.root_free, 0.0);
        assert!(t.send_done.is_empty());
    }

    #[test]
    #[should_panic(expected = "sim-check: ret_done[1] diverged")]
    fn the_oracle_trips_on_a_single_flipped_bit() {
        let hop_s = vec![0.5, 0.25];
        let tasks = vec![task(0.1, 0, 0), task(0.1, 1, 1)];
        let p = SimProblem {
            n_nodes: 2,
            edges: &[],
            env_edges: 0,
            hop_s: &hop_s,
            tasks: &tasks,
            node_s: &[2.0, 1.0],
            ret_s: &[0.5, 0.5],
            needs: &[],
        };
        let (eager, mut event) = check(&p);
        event.ret_done[1] = f64::from_bits(event.ret_done[1].to_bits() ^ 1);
        assert_cores_agree(&eager, &event);
    }

    #[test]
    fn scratch_reuse_is_clean_across_calls() {
        // Run a big problem, then a small one, on the same scratch: stale
        // state must not leak.
        let mut scratch = SimScratch::new();
        let hop_big: Vec<f64> = (0..64).map(|i| 0.01 * (i + 1) as f64).collect();
        let tasks_big: Vec<SimTask> = (0..64).map(|i| task(0.001, i % 8, i)).collect();
        let big = SimProblem {
            n_nodes: 8,
            edges: &[],
            env_edges: 0,
            hop_s: &hop_big,
            tasks: &tasks_big,
            node_s: &[0.5; 64],
            ret_s: &[0.01; 64],
            needs: &[],
        };
        let _ = run_event(&big, &mut scratch);
        let hop_small = vec![1.0];
        let tasks_small = vec![task(0.0, 0, 0)];
        let small = SimProblem {
            n_nodes: 1,
            edges: &[],
            env_edges: 0,
            hop_s: &hop_small,
            tasks: &tasks_small,
            node_s: &[1.0],
            ret_s: &[1.0],
            needs: &[],
        };
        let reused = run_event(&small, &mut scratch);
        let fresh = run_event(&small, &mut SimScratch::new());
        assert_cores_agree(&fresh, &reused);
    }
}
