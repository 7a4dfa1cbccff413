//! The virtual-time simulator: one walk over a dispatch's plan.
//!
//! A dispatch is composed of four values: its `Plan` (routes, the scatter,
//! every forward transfer's duration — decided before any task body runs),
//! what `execute` returns (result bytes, node seconds), the timeline, and
//! the account rendered off it. This module lays the timeline: given a
//! [`SimProblem`] — the plan's timed pieces (the edges of every one-to-many
//! payload — the broadcast environment and the input pieces several ranks
//! share — per-task root pack times, send hops with their ack/retry
//! timeouts folded in) borrowed beside the node seconds and return trips
//! the executed bodies determine — [`run`] produces the full [`SimTimes`]
//! timeline, a pure function of the problem.
//!
//! The model of a shared payload: the root's one NIC sends it in plan
//! order; a rank that has received it relays it onward, each relay starting
//! at `max(that rank's NIC free, the payload's arrival there)`. A task
//! *arrives* at its rank when its own last hop is done — or, when it has no
//! message of its own (an empty [`SimTask::hops`]), when the first payload
//! it reads lands there: the environment's arrival is its start signal and
//! the root's NIC never sees it. A rank runs tasks in `(arrival, task
//! index)` order and starts each at `max(its arrival, the rank free, the
//! arrival of every payload it reads)`.
//!
//! Each resource only ever waits on resources laid before it — the root
//! NIC on nothing, a relaying NIC on the root and earlier relays, a rank on
//! all of those — so the timeline is laid phase by phase, in one pass each
//! (see [`run`]). No phase reorders around a later one, so no event queue
//! is needed.

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

/// Everything the walk needs to lay one dispatch on the virtual clock.
pub(crate) struct SimProblem<'a> {
    /// Cluster size (per-rank clocks are sized by this).
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
/// field is a pure function of the [`SimProblem`].
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
    /// Timestamps the timeline assigned, one per state change: every edge
    /// done, every root send begun, every hop done, and each task's
    /// arrival, completion and return — `edges + tasks with a message +
    /// hops + 3 × tasks`. The benchmark's `cluster.sim_events` rows sum it.
    pub events: u64,
}

/// The edge that stands in for the message of a task without hops: the
/// first payload it reads (the dispatcher lists the environment first).
fn ridden_edge(p: &SimProblem<'_>, t: &SimTask) -> usize {
    debug_assert!(t.pack_s == 0.0 && t.edges.is_empty(), "a riding task sends nothing");
    debug_assert!(!t.needs.is_empty(), "a riding task needs an edge to ride");
    p.needs[t.needs.start]
}

/// Lay one dispatch on the virtual clock, in four passes.
///
/// 1. **Root.** The environment's root edges leave first; then, per task
///    with a message, the root packs it (streamed), sends the shared pieces
///    that task is first to read, and transmits the task's own hops — back
///    to back on its single NIC, each hop paying every retry and ack
///    timeout before the next begins.
/// 2. **Relays**, in plan order. A relayed edge starts at `max(its sender's
///    NIC free, its feeder's done)`; ranks relay concurrently, each NIC in
///    plan order. A feeder precedes its edge and a root edge is laid in
///    pass 1, so every operand is final when it is read.
/// 3. **Nodes**, in `(send_done, task index)` order — a task riding an edge
///    arrives when that edge is done. A task starts at `max(send_done, its
///    rank free, every edge it needs done)`; tasks on one rank serialize in
///    that order, even when a later one is ready first.
/// 4. **Returns.** Results stream back independently: `ret_done = node
///    done + ret_s`.
///
/// `O(edges + hops + tasks log tasks)` time and `O(ranks + tasks)` space.
/// A contended resource downstream of every pass fits as one more pass: a
/// root receive queue (ROADMAP item 6(a)) feeds nothing back into the send,
/// relay or node passes, so it would sort the returns by `(node done, task)`
/// and chain them on one root-ingress clock.
pub(crate) fn run(p: &SimProblem<'_>) -> SimTimes {
    let n_tasks = p.tasks.len();
    let mut times = SimTimes {
        edge_bounds: vec![(0.0, 0.0); p.edges.len()],
        pack_start: vec![0.0; n_tasks],
        hop_bounds: vec![(0.0, 0.0); p.hop_s.len()],
        send_done: vec![0.0; n_tasks],
        node_bounds: vec![(0.0, 0.0); n_tasks],
        ret_done: vec![0.0; n_tasks],
        root_free: 0.0,
        events: 0,
    };

    // 1. Root.
    let mut clock = 0.0f64;
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
    let mut sent = 0;
    for (i, t) in p.tasks.iter().enumerate() {
        if t.hops.is_empty() {
            continue;
        }
        sent += 1;
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
    times.root_free = clock;

    // 2. Relays.
    let mut nic_free = vec![0.0f64; p.n_nodes];
    for (e, edge) in p.edges.iter().enumerate() {
        if let Some(f) = edge.feeder {
            let start = nic_free[edge.sender].max(times.edge_bounds[f].1);
            let done = start + edge.edge_s;
            nic_free[edge.sender] = done;
            times.edge_bounds[e] = (start, done);
        }
    }

    // 3. Nodes.
    for (i, t) in p.tasks.iter().enumerate() {
        if t.hops.is_empty() {
            let arrival = times.edge_bounds[ridden_edge(p, t)].1;
            times.pack_start[i] = arrival;
            times.send_done[i] = arrival;
        }
    }
    let mut order: Vec<usize> = (0..n_tasks).collect();
    order.sort_by(|&a, &b| times.send_done[a].total_cmp(&times.send_done[b]).then(a.cmp(&b)));
    let mut node_free = vec![0.0f64; p.n_nodes];
    for i in order {
        let t = &p.tasks[i];
        let mut start = times.send_done[i].max(node_free[t.exec]);
        for &e in &p.needs[t.needs.clone()] {
            start = start.max(times.edge_bounds[e].1);
        }
        let done = start + p.node_s[i];
        node_free[t.exec] = done;
        times.node_bounds[i] = (start, done);
    }

    // 4. Returns.
    for (i, ret_s) in p.ret_s.iter().enumerate() {
        times.ret_done[i] = times.node_bounds[i].1 + ret_s;
    }
    times.events = (p.edges.len() + sent + p.hop_s.len() + 3 * n_tasks) as u64;
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Lay `p` and hold the timeline to every invariant below.
    fn check(p: &SimProblem<'_>) -> SimTimes {
        let t = run(p);
        assert_invariants(p, &t);
        t
    }

    /// The properties every timeline has, whatever the problem:
    ///
    /// - the root's sends (environment block, then per task: pack, piece
    ///   edges, hops) are back to back from 0, and `root_free` is the last;
    /// - every relaying NIC transmits its edges in plan order without
    ///   overlap, each as soon as its NIC is free and its feeder is done;
    /// - a rank runs its tasks without overlap in `(send_done, index)`
    ///   order, each at `max(send_done, rank free, every need done)`;
    /// - `ret_done == node done + ret_s`;
    /// - `events == edges + tasks with a message + hops + 3 × tasks`.
    fn assert_invariants(p: &SimProblem<'_>, t: &SimTimes) {
        let done_after = |(start, done): (f64, f64), s: f64| assert_eq!(done, start + s);
        let mut clock = 0.0f64;
        let mut on_root = |(start, done): (f64, f64), s: f64| {
            assert_eq!(start, clock, "the root's sends are back to back");
            done_after((start, done), s);
            clock = done;
        };
        let root_edges = |range: std::ops::Range<usize>,
                          on_root: &mut dyn FnMut((f64, f64), f64)| {
            for e in range.filter(|&e| p.edges[e].sender == ROOT) {
                on_root(t.edge_bounds[e], p.edges[e].edge_s);
            }
        };
        root_edges(0..p.env_edges, &mut on_root);
        for (i, task) in p.tasks.iter().enumerate() {
            if task.hops.is_empty() {
                let arrival = t.edge_bounds[ridden_edge(p, task)].1;
                assert_eq!((t.pack_start[i], t.send_done[i]), (arrival, arrival), "task {i} rides");
                continue;
            }
            let pack_s = task.pack_s.max(0.0);
            on_root((t.pack_start[i], t.pack_start[i] + pack_s), pack_s);
            root_edges(task.edges.clone(), &mut on_root);
            for h in task.hops.clone() {
                on_root(t.hop_bounds[h], p.hop_s[h]);
            }
            assert_eq!(t.send_done[i], t.hop_bounds[task.hops.end - 1].1);
        }
        assert_eq!(t.root_free, clock);

        let mut nic_free = vec![0.0f64; p.n_nodes];
        for (e, edge) in p.edges.iter().enumerate() {
            if let Some(f) = edge.feeder {
                let (start, done) = t.edge_bounds[e];
                assert!(start >= nic_free[edge.sender], "NIC {} overlaps at edge {e}", edge.sender);
                assert!(start >= t.edge_bounds[f].1, "edge {e} leaves before its payload lands");
                assert_eq!(start, nic_free[edge.sender].max(t.edge_bounds[f].1), "edge {e} idles");
                done_after((start, done), edge.edge_s);
                nic_free[edge.sender] = done;
            }
        }

        let mut order: Vec<usize> = (0..p.tasks.len()).collect();
        order.sort_by(|&a, &b| t.send_done[a].total_cmp(&t.send_done[b]).then(a.cmp(&b)));
        let mut node_free = vec![0.0f64; p.n_nodes];
        for i in order {
            let (start, done) = t.node_bounds[i];
            let exec = p.tasks[i].exec;
            assert!(start >= node_free[exec], "rank {exec} overlaps at task {i}");
            assert!(start >= t.send_done[i], "task {i} starts before it arrives");
            let mut ready = t.send_done[i].max(node_free[exec]);
            for &e in &p.needs[p.tasks[i].needs.clone()] {
                assert!(start >= t.edge_bounds[e].1, "task {i} starts before edge {e} lands");
                ready = ready.max(t.edge_bounds[e].1);
            }
            assert_eq!(start, ready, "task {i} idles");
            done_after((start, done), p.node_s[i]);
            node_free[exec] = done;
            assert_eq!(t.ret_done[i], done + p.ret_s[i]);
        }

        let sent = p.tasks.iter().filter(|task| !task.hops.is_empty()).count();
        let events = p.edges.len() + sent + p.hop_s.len() + 3 * p.tasks.len();
        assert_eq!(t.events, events as u64);
    }

    /// Edge, hop, pack, node and return seconds: zero (ties at one
    /// instant), binary fractions, and decimals no sum keeps exact.
    const SECONDS: [f64; 6] = [0.0, 0.125, 0.25, 0.1, 0.3, 1.0];

    /// A random edge: `(dest, feeder, seconds)` selectors.
    type EdgeSpec = (usize, usize, usize);

    /// A random task: `((exec, ride, pack), hop seconds, its block, (needs
    /// mask, node, ret))` selectors.
    type TaskSpec = ((usize, bool, usize), Vec<usize>, Vec<EdgeSpec>, (u8, usize, usize));

    /// A random problem, owned; [`Self::problem`] borrows it.
    struct Owned {
        n_nodes: usize,
        edges: Vec<SimEdge>,
        env_edges: usize,
        hop_s: Vec<f64>,
        tasks: Vec<SimTask>,
        node_s: Vec<f64>,
        ret_s: Vec<f64>,
        needs: Vec<usize>,
    }

    impl Owned {
        /// Append an edge to `dest`, fed by any earlier edge (a relay, so
        /// chains form) or sent by the root.
        fn push_edge(&mut self, &(dest, feeder, secs): &EdgeSpec) {
            let dest = dest % self.n_nodes;
            let pick = feeder % (self.edges.len() + 1);
            let relay = self.edges.get(pick).map(|f| (f.dest, pick)).filter(|&(s, _)| s != dest);
            let (sender, feeder) = match relay {
                Some((sender, f)) => (sender, Some(f)),
                None => (ROOT, None),
            };
            self.edges.push(SimEdge { sender, dest, feeder, edge_s: SECONDS[secs] });
        }

        /// Build from selectors: the environment's edges, then the tasks. A
        /// task rides when asked to and an edge reaches its rank; more than
        /// one hop is a send that timed out on dead ranks.
        fn build(n_nodes: usize, env: &[EdgeSpec], specs: &[TaskSpec]) -> Self {
            let mut o = Owned {
                n_nodes,
                edges: Vec::new(),
                env_edges: env.len(),
                hop_s: Vec::new(),
                tasks: Vec::new(),
                node_s: Vec::new(),
                ret_s: Vec::new(),
                needs: Vec::new(),
            };
            env.iter().for_each(|e| o.push_edge(e));
            for ((exec, ride, pack), hops, block, (mask, node, ret)) in specs {
                let exec = exec % n_nodes;
                let reaching = |o: &Owned| -> Vec<usize> {
                    (0..o.edges.len()).filter(|&e| o.edges[e].dest == exec).collect()
                };
                let rides = *ride && !reaching(&o).is_empty();
                let first_edge = o.edges.len();
                let first_hop = o.hop_s.len();
                let first_need = o.needs.len();
                if rides {
                    let ridden = reaching(&o);
                    o.needs.push(ridden[*mask as usize % ridden.len()]);
                } else {
                    block.iter().for_each(|e| o.push_edge(e));
                    o.hop_s.extend(hops.iter().map(|&h| SECONDS[h]));
                }
                for (k, e) in reaching(&o).into_iter().enumerate() {
                    if mask >> (k % 8) & 1 == 1 && !o.needs[first_need..].contains(&e) {
                        o.needs.push(e);
                    }
                }
                o.tasks.push(SimTask {
                    pack_s: if rides { 0.0 } else { SECONDS[*pack] },
                    exec,
                    hops: first_hop..o.hop_s.len(),
                    edges: first_edge..o.edges.len(),
                    needs: first_need..o.needs.len(),
                });
                o.node_s.push(SECONDS[*node]);
                o.ret_s.push(SECONDS[*ret]);
            }
            o
        }

        fn problem(&self) -> SimProblem<'_> {
            SimProblem {
                n_nodes: self.n_nodes,
                edges: &self.edges,
                env_edges: self.env_edges,
                hop_s: &self.hop_s,
                tasks: &self.tasks,
                node_s: &self.node_s,
                ret_s: &self.ret_s,
                needs: &self.needs,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Feeder chains, ranks shared by several tasks, riders, multi-hop
        /// sends, zero-second ties and empty problems: every timeline keeps
        /// the invariants of [`assert_invariants`].
        #[test]
        fn random_problems_keep_every_timeline_invariant(
            n_nodes in 1usize..6,
            env in vec((0usize..8, 0usize..8, 0usize..6), 0..6),
            specs in vec(
                (
                    (0usize..8, any::<bool>(), 0usize..6),
                    vec(0usize..6, 1..4),
                    vec((0usize..8, 0usize..8, 0usize..6), 0..3),
                    (any::<u8>(), 0usize..6, 0usize..6),
                ),
                0..7,
            ),
        ) {
            let o = Owned::build(n_nodes, &env, &specs);
            check(&o.problem());
        }
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
        let t = check(&p);
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
        let t = check(&p);
        // Arrivals at 0.1/0.2/0.3 but rank 0 runs them back to back.
        assert_eq!(t.node_bounds, vec![(0.1, 1.1), (1.1, 2.1), (2.1, 3.1)]);
    }

    #[test]
    fn late_environment_parks_early_arrivals() {
        // Env relays down a slow chain (root -> r0 -> r1 -> r2) while task
        // payloads leave the root the moment its own relay is done: tasks
        // for r1 and r2 arrive *before* their environment and must wait
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
        let t = check(&p);
        // The root is free after its single relay at 1.0; payloads land at
        // 1.01/1.02/1.03, but the environment reaches r1 at 2.0 and r2 at
        // 3.0 — those tasks start at their env arrival, not their payload.
        assert_eq!(t.edge_bounds, vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        assert_eq!(t.send_done, vec![1.01, 1.02, 1.03]);
        assert_eq!(t.node_bounds[0].0, 1.01);
        assert_eq!(t.node_bounds[1].0, 2.0);
        assert_eq!(t.node_bounds[2].0, 3.0);
        // 3 edges, then per task its send, hop, arrival, done and return.
        assert_eq!(t.events, 3 + 3 * 5);
    }

    #[test]
    fn relayed_tree_broadcast_gates_a_task_on_its_relay() {
        // A binomial-ish shape: root sends to r0 and r1; r0 relays to r2 and
        // r3 while the root's second send is in flight. Packs, hops, node
        // and return seconds are binary fractions, so the hand arithmetic
        // below is exact.
        let env = vec![
            edge(ROOT, 0, None, 1.0),
            edge(ROOT, 1, None, 1.0),
            edge(0, 2, Some(0), 1.0),
            edge(0, 3, Some(0), 1.0),
        ];
        let hop_s = vec![0.125; 4];
        let tasks: Vec<SimTask> =
            (0..4).map(|i| SimTask { needs: i..i + 1, ..task(0.0625, i, i) }).collect();
        let p = SimProblem {
            n_nodes: 4,
            edges: &env,
            env_edges: 4,
            hop_s: &hop_s,
            tasks: &tasks,
            node_s: &[0.25; 4],
            ret_s: &[0.125; 4],
            needs: &[0, 1, 2, 3],
        };
        let t = check(&p);
        // Root's NIC: edges at (0,1) and (1,2); r0 relays at (1,2),(2,3).
        assert_eq!(t.edge_bounds, vec![(0.0, 1.0), (1.0, 2.0), (1.0, 2.0), (2.0, 3.0)]);
        // From 2.0 the root packs (1/16) and sends (1/8) each task in turn.
        assert_eq!(t.pack_start, vec![2.0, 2.1875, 2.375, 2.5625]);
        assert_eq!(
            t.hop_bounds,
            vec![(2.0625, 2.1875), (2.25, 2.375), (2.4375, 2.5625), (2.625, 2.75)]
        );
        assert_eq!(t.send_done, vec![2.1875, 2.375, 2.5625, 2.75]);
        // Rank 3's payload lands at 2.75, before its relayed environment
        // (3.0): that task starts at 3.0, the others as they arrive.
        assert_eq!(
            t.node_bounds,
            vec![(2.1875, 2.4375), (2.375, 2.625), (2.5625, 2.8125), (3.0, 3.25)]
        );
        assert_eq!(t.ret_done, vec![2.5625, 2.75, 2.9375, 3.375]);
        assert_eq!(t.root_free, 2.75);
        assert_eq!(t.events, 4 + 4 * 5);
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
        let t = check(&p);
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
        let t = check(&p);
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
        let t = check(&p);
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
        assert_eq!(t.events, 5 + 4 * 3 + 5);
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
            check(&p).node_bounds
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
        let t = check(&p);
        assert_eq!(t.root_free, 0.0);
        assert!(t.send_done.is_empty());
    }
}
