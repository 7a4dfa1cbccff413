//! The [`Triolet`] runtime: hint-directed skeleton execution.
//!
//! "A skeleton in the library consists of code that, depending on the input
//! iterator's parallelism hint, invokes low-level skeletons for distributing
//! work across nodes, cores within a node, and/or sequential loop iterations
//! in a task" (paper §2). This module is that dispatch layer:
//!
//! * `Sequential` — fold on the calling thread.
//! * `LocalPar` — split across the local node's threads only; no data ships.
//! * `Par` — split the outer domain across nodes (slicing each node's data,
//!   §3.5), split each node's part across its threads, fold with per-thread
//!   private accumulators, merge per node, merge node partials at the root
//!   (§3.4's distributed → threaded → sequential reduction chain).
//! * Resident — the input is a [`DistVec`]/[`DistArray2`] view whose
//!   segments were scattered once by [`Triolet::scatter`]; tasks dispatch to
//!   the ranks already holding their data and ship zero input bytes.
//!
//! Every skeleton takes one `input` (anything implementing
//! [`IntoDistInput`]) and, where it has an environment, one `env` (anything
//! implementing [`AsEnv`]). The argument's type — not the method's name —
//! selects the execution path.
//!
//! The arms differ in how they *reach* a node — in place on the root's
//! threads, or as a dispatched task that carries a shipped slice or is
//! routed to the rank holding a resident segment — and in nothing else.
//! Every node body reads a [`DistIter`] over its part: the input itself, the
//! slice the root shipped, or the segment as the indexer it already is
//! (answering the same global indices). What a node does once reached is
//! written once over it, `node_fold` (chunks → partials → chunk-order merge
//! → the task's result), and every skeleton is one `Reducer` through it:
//! the identity fold under reductions, the fragment monoid under
//! `build_vec` / `build_array3`, the tile monoid under `build_array2`.
//! Chunking and merge order are thus one function of a part's index range
//! on every path, which is why a resident, a shipped and a `localpar` run
//! over the same part agree to the bit.
//!
//! Every skeleton returns a [`Run`]: the value, its [`RunStats`], and — when
//! the cluster is built with
//! [`ClusterConfig::with_trace`](triolet_cluster::ClusterConfig::with_trace)
//! — a recorded span/event timeline rooted at a `skeleton:<name>` span.
//!
//! The dispatch timeline under every `Par` call is laid by the cluster's
//! simulator, one per-rank walk over the call's plan in
//! `O(edges + hops + tasks log tasks)` time and `O(ranks + tasks)` space, so
//! 1k-rank shapes are usable from the skeleton API. The root's own work is pipelined against it: slices
//! are packed task by task and partials fold in task order as they arrive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use triolet_cluster::clock::timed;
use triolet_cluster::{
    Cluster, ClusterConfig, DistOutcome, NodeCtx, RawTask, TraceData, TraceHandle, Track,
};
use triolet_domain::{Dim2, Dim2Part, Domain, Part, Seq};
use triolet_iter::collector::Collector;
use triolet_iter::shapes::{ParHint, TrioIter};
use triolet_iter::{Array2, WeightHist};
use triolet_obs::rehome_event;
use triolet_pool::parallel::CHUNKS_PER_THREAD;
use triolet_serial::{Piece, PodView, Wire};

use crate::dist::{
    AsEnv, DistArray2, DistInput, DistIter, DistVec, IntoDistInput, Owners, PackedEnv, Seg,
};
use crate::report::RunStats;
use crate::run::Run;

/// The part type of an iterator's outer domain.
type PartOf<It> = <<It as DistIter>::OuterDom as Domain>::Part;

/// A skeleton as one reduction of `It`'s items under an environment `E`
/// (paper §3.4: "a distributed reduction, which performs one threaded
/// reduction per node, which sequentially builds one histogram per thread").
///
/// A chunk folds from `seed(chunk)` by `step` into an `Acc`; a node merges
/// its chunks' partials in chunk order and ships the result; the root
/// absorbs task results in task order, from the first (`None` before it),
/// and `finish`es (`None`: there was no task). `merge` and `absorb` must be
/// associative, as chunk and task boundaries follow the cluster shape, but
/// need not be commutative: partials combine left to right, never in the
/// order the schedule finishes them.
trait Reducer<It: DistIter, E>: Sync {
    type Acc: Send;
    /// A node's partial as it crosses the wire.
    type Shipped: Wire + Send;
    type Value;
    fn seed(&self, chunk: &PartOf<It>) -> Self::Acc;
    fn step(&self, env: &E, acc: Self::Acc, x: It::Item) -> Self::Acc;
    fn merge(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;
    /// `part`'s partial as its task's result, on `ctx`'s clock.
    fn ship(&self, ctx: &NodeCtx, part: &PartOf<It>, acc: Self::Acc) -> Self::Shipped;
    fn absorb(&self, value: Option<Self::Value>, shipped: Self::Shipped) -> Self::Value;
    fn finish(&self, value: Option<Self::Value>) -> Self::Value;
}

/// The identity reducer, under every reduction: a partial is the caller's
/// `B` at every level, and the root fold starts from the first partial.
struct Fold<Seed, Step, Merge>(Seed, Step, Merge);

impl<It, E, B, Seed, Step, Merge> Reducer<It, E> for Fold<Seed, Step, Merge>
where
    It: DistIter,
    B: Wire + Send,
    Seed: Fn() -> B + Sync,
    Step: Fn(&E, B, It::Item) -> B + Sync,
    Merge: Fn(B, B) -> B + Sync,
{
    type Acc = B;
    type Shipped = B;
    type Value = B;
    fn seed(&self, _: &PartOf<It>) -> B {
        (self.0)()
    }
    fn step(&self, env: &E, acc: B, x: It::Item) -> B {
        (self.1)(env, acc, x)
    }
    fn merge(&self, a: B, b: B) -> B {
        (self.2)(a, b)
    }
    fn ship(&self, _: &NodeCtx, _: &PartOf<It>, acc: B) -> B {
        acc
    }
    fn absorb(&self, value: Option<B>, shipped: B) -> B {
        if let Some(a) = value {
            (self.2)(a, shipped)
        } else {
            shipped
        }
    }
    fn finish(&self, value: Option<B>) -> B {
        value.unwrap_or_else(&self.0)
    }
}

/// `scatter_add`'s fold over [`WeightHist`] partials. A decoded partial's
/// grid size comes off the wire and only the call knows what it should be,
/// so the root refuses a received partial of another grid before merging
/// or finishing sizes anything from it.
struct ScatterAdd(usize);

impl<It: DistIter<Item = (usize, f64)>, E> Reducer<It, E> for ScatterAdd {
    type Acc = WeightHist;
    type Shipped = WeightHist;
    type Value = WeightHist;
    fn seed(&self, _: &PartOf<It>) -> WeightHist {
        WeightHist::new(self.0)
    }
    fn step(&self, _: &E, mut acc: WeightHist, x: (usize, f64)) -> WeightHist {
        acc.feed(x);
        acc
    }
    fn merge(&self, mut a: WeightHist, b: WeightHist) -> WeightHist {
        a.merge(b);
        a
    }
    fn ship(&self, _: &NodeCtx, _: &PartOf<It>, acc: WeightHist) -> WeightHist {
        acc
    }
    fn absorb(&self, value: Option<WeightHist>, shipped: WeightHist) -> WeightHist {
        let (cells, got) = (self.0, shipped.cells());
        assert!(got == cells, "scatter_add over {cells} cells received a partial of {got} cells");
        match value {
            Some(a) => Reducer::<It, E>::merge(self, a, shipped),
            None => shipped,
        }
    }
    fn finish(&self, value: Option<WeightHist>) -> WeightHist {
        value.unwrap_or_else(|| WeightHist::new(self.0))
    }
}

/// The fragment monoid, under ordered assembly: a partial is the run of
/// `f`'s values its part covers and merging appends, so parts must be
/// contiguous in the output's row-major order ([`Seq`] ranges,
/// [`Dim3`](triolet_domain::Dim3) slabs). A pod fragment's root-side unpack
/// aliases the received buffer, so the root's append is its one copy.
struct Fragments<F>(F);

impl<It, E, U, F> Reducer<It, E> for Fragments<F>
where
    It: DistIter,
    U: Wire + Send + Sync + Clone,
    F: Fn(&E, It::Item) -> U + Sync,
{
    type Acc = Vec<U>;
    type Shipped = PodView<U>;
    type Value = Vec<U>;
    fn seed(&self, chunk: &PartOf<It>) -> Vec<U> {
        Vec::with_capacity(chunk.count())
    }
    fn step(&self, env: &E, mut acc: Vec<U>, x: It::Item) -> Vec<U> {
        acc.push((self.0)(env, x));
        acc
    }
    fn merge(&self, mut a: Vec<U>, mut b: Vec<U>) -> Vec<U> {
        a.append(&mut b);
        a
    }
    fn ship(&self, _: &NodeCtx, _: &PartOf<It>, acc: Vec<U>) -> PodView<U> {
        PodView::from_vec(acc)
    }
    fn absorb(&self, value: Option<Vec<U>>, shipped: PodView<U>) -> Vec<U> {
        let Some(mut value) = value else { return shipped.into_vec() };
        value.extend_from_slice(&shipped);
        value
    }
    fn finish(&self, value: Option<Vec<U>>) -> Vec<U> {
        value.unwrap_or_default()
    }
}

/// The tile monoid, under `build_array2` of a matrix this shape: chunks
/// are 2-D tiles ([`Dim2Part::split`]), so a partial is a list of (tile,
/// row-major contents) and merging appends to the list. A node places its
/// tiles into its block, and the root places each block in the matrix.
struct Tiles(Dim2);

impl<It, T> Reducer<It, ()> for Tiles
where
    It: DistIter<OuterDom = Dim2, Item = T>,
    T: Wire + Send + Sync + Clone + Default,
{
    type Acc = Vec<(Dim2Part, Vec<T>)>;
    type Shipped = (Dim2Part, PodView<T>);
    type Value = Array2<T>;
    fn seed(&self, chunk: &Dim2Part) -> Self::Acc {
        vec![(*chunk, Vec::with_capacity(chunk.count()))]
    }
    fn step(&self, _: &(), mut acc: Self::Acc, x: T) -> Self::Acc {
        // A chunk folds into the one tile its seed made.
        acc[0].1.push(x);
        acc
    }
    fn merge(&self, mut a: Self::Acc, mut b: Self::Acc) -> Self::Acc {
        a.append(&mut b);
        a
    }
    fn ship(&self, ctx: &NodeCtx, part: &Dim2Part, acc: Self::Acc) -> Self::Shipped {
        let block = ctx.sequential(|| {
            let mut block = vec![T::default(); part.count()];
            acc.into_iter().for_each(|(tile, data)| place(&mut block, part, &tile, data));
            block
        });
        (*part, PodView::from_vec(block))
    }
    fn absorb(&self, value: Option<Array2<T>>, (part, block): Self::Shipped) -> Array2<T> {
        let whole = self.0.whole_part();
        if value.is_none() && part == whole {
            // A block covering the matrix is the matrix.
            return Array2::from_vec(block.into_vec(), whole.rows, whole.cols);
        }
        let mut value = value.unwrap_or_else(|| Array2::zeros(whole.rows, whole.cols));
        place(value.as_mut_slice(), &whole, &part, block.into_vec());
        value
    }
    fn finish(&self, value: Option<Array2<T>>) -> Array2<T> {
        value.unwrap_or_else(|| Array2::zeros(self.0.rows, self.0.cols))
    }
}

/// Move `tile`'s row-major `data` into `block`, the row-major contents of
/// `within` (which contains `tile`), one row at a time.
fn place<T>(block: &mut [T], within: &Dim2Part, tile: &Dim2Part, data: Vec<T>) {
    let mut data = data.into_iter();
    for r in tile.row0 - within.row0..tile.row0 - within.row0 + tile.rows {
        let d0 = r * within.cols + tile.col0 - within.col0;
        block[d0..d0 + tile.cols].iter_mut().zip(&mut data).for_each(|(d, x)| *d = x);
    }
}

/// The node body of every skeleton (paper §3.4: "one threaded reduction per
/// node"): `part`'s chunks fold from their own seeds and merge in chunk
/// order, and the node's partial ships as its task's result.
///
/// The chunking depends only on `part`'s index range and the node's thread
/// count, and the merge order only on the chunking — never on which arm got
/// here or where the data lives — so a resident run is bit-identical to a
/// shipped one by construction. `step` is `Copy` (a `move` closure over
/// references) so each chunk's fold owns one rather than borrowing ours.
fn node_fold<It: DistIter, E: Sync, R: Reducer<It, E>>(
    ctx: &NodeCtx,
    src: &It,
    part: &PartOf<It>,
    env: &E,
    r: &R,
) -> R::Shipped {
    let chunks = part.split(ctx.threads() * CHUNKS_PER_THREAD);
    let step = move |acc, x| r.step(env, acc, x);
    let fold = |chunk: &PartOf<It>| src.fold_outer_part(chunk, r.seed(chunk), &mut { step });
    let acc = ctx.map_reduce_chunks(chunks, fold, |a, b| r.merge(a, b));
    r.ship(ctx, part, acc.unwrap_or_else(|| r.seed(part)))
}

/// The Triolet runtime: a cluster plus the skeleton dispatch logic.
///
/// Construct one per program (like initializing MPI + the thread runtime)
/// and call skeletons on it. Every skeleton returns a [`Run`].
pub struct Triolet {
    cluster: Cluster,
    /// The id of the next collection this runtime scatters.
    next_id: AtomicU64,
}

impl Triolet {
    /// Bring up a runtime on the given cluster shape.
    pub fn new(config: ClusterConfig) -> Self {
        Triolet { cluster: Cluster::new(config), next_id: AtomicU64::new(0) }
    }

    /// Wrap this runtime in a multi-tenant [`JobService`](crate::JobService): a bounded
    /// submission queue, policy-driven dispatch, and per-tenant accounting
    /// over this cluster. Consumes the runtime — all subsequent skeleton
    /// calls go through submitted jobs.
    pub fn into_service(self, config: crate::service::ServiceConfig) -> crate::service::JobService {
        crate::service::JobService::new(self, config)
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.cluster.nodes()
    }

    /// Threads per node.
    pub fn threads_per_node(&self) -> usize {
        self.cluster.threads_per_node()
    }

    /// Is span/event recording on for this runtime's cluster?
    pub fn traced(&self) -> bool {
        self.cluster.config().trace
    }

    /// Pack a broadcast environment once, for reuse across skeleton calls:
    /// the returned [`PackedEnv`] is accepted anywhere a skeleton takes an
    /// environment. Counted in
    /// [`TrafficSnapshot::env_packs`](triolet_cluster::TrafficSnapshot::env_packs):
    /// with a `PackedEnv`, N consecutive skeleton calls over M nodes cost
    /// one serialization total, not N (let alone N·M).
    pub fn pack_env<E: Wire>(&self, env: E) -> PackedEnv<E> {
        PackedEnv::new(env, self.cluster.stats())
    }

    // ======================================================================
    // Persistent distributed collections
    // ======================================================================

    /// Scatter a vector across the cluster once, returning a persistent
    /// [`DistVec`] whose segments stay resident on their home ranks.
    ///
    /// The vector splits into the same per-node parts the shipped path would
    /// use, so resident and re-broadcast executions fold in identical order
    /// (bit-identical results). Each segment ships exactly once here —
    /// counted as a `dist:scatter` — and every later skeleton call over the
    /// handle (or a view of it) moves only task descriptors, the
    /// environment, and any declared halo.
    pub fn scatter<T>(&self, data: Vec<T>) -> Run<DistVec<T>>
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let len = data.len();
        self.scatter_cut(len, 1, &data)
            .map(|(owners, segs)| DistVec::from_segments(owners, len, segs))
    }

    /// Scatter a matrix across the cluster once as row slabs, returning a
    /// persistent [`DistArray2`] (see [`Triolet::scatter`]).
    pub fn scatter_array2<T>(&self, m: Array2<T>) -> Run<DistArray2<T>>
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let (rows, cols) = (m.rows(), m.cols());
        self.scatter_cut(rows, cols, &m.into_vec())
            .map(|(owners, segs)| DistArray2::from_segments(owners, rows, cols, segs))
    }

    /// Cut `data` — `rows` rows of `width` items — into one row-range
    /// segment per node (the parts the shipped path would use; cutting is
    /// the root's prep time) and ship segment `k` to rank `k`, where a fresh
    /// [`Owners`] starts its cell.
    fn scatter_cut<T>(
        &self,
        rows: usize,
        width: usize,
        data: &[T],
    ) -> Run<(Arc<Owners>, Vec<Seg<T>>)>
    where
        T: Wire + Clone,
    {
        let (segs, pack_s) = timed(|| {
            Seq::new(rows)
                .split_parts(self.nodes())
                .into_iter()
                .map(|part| {
                    let seg: Vec<T> = data[part.start * width..part.end() * width].to_vec();
                    let bytes = seg.packed_size();
                    Seg { part, data: Arc::new(seg), bytes }
                })
                .collect::<Vec<Seg<T>>>()
        });
        let owners = Owners::new(self.next_id.fetch_add(1, Ordering::Relaxed), segs.len());
        let sizes: Vec<(usize, usize)> =
            segs.iter().enumerate().map(|(rank, s)| (rank, s.bytes)).collect();
        let (timing, dist_trace) = self.cluster.scatter_segments(owners.id(), &sizes);
        let trace = self.skeleton_trace("scatter", Some(pack_s), dist_trace, timing.total_s, &[]);
        Run::new((owners, segs), RunStats::from_dist(timing, pack_s)).with_trace(trace)
    }

    // ======================================================================
    // Trace assembly
    // ======================================================================

    /// Assemble the skeleton-level timeline around a cluster dispatch:
    /// root-side slicing (`root:slice`), the dispatch trace rebased past it,
    /// and each task's root-side fold as its own `root:merge:streamed` span
    /// interleaved with the dispatch timeline, all under one covering
    /// `skeleton:<name>` span (`end_s`, on the dispatch clock, already
    /// covers the last fold). `prep` is `None` for hints that do no
    /// root-side work (so that span is absent, not zero-width); a sequential
    /// run has no dispatch either and is the covering span alone.
    fn skeleton_trace(
        &self,
        name: &str,
        prep: Option<f64>,
        mut dist: TraceData,
        end_s: f64,
        merge_spans: &[(f64, f64)],
    ) -> TraceData {
        if !self.traced() {
            return TraceData::default();
        }
        let prep_s = prep.unwrap_or(0.0);
        let total = prep_s + end_s;
        let h = TraceHandle::recording();
        h.span(format!("skeleton:{name}"), "skeleton", Track::Root, 0.0, total, vec![]);
        if prep.is_some() {
            h.span("root:slice", "prep", Track::Root, 0.0, prep_s, vec![]);
        }
        for (i, &(s0, s1)) in merge_spans.iter().enumerate() {
            let args = vec![("task", i.into())];
            h.span("root:merge:streamed", "merge", Track::Root, prep_s + s0, prep_s + s1, args);
        }
        dist.shift(prep_s);
        h.absorb(dist);
        h.take()
    }

    /// The tasks of every distributed arm: one per part of `input`.
    /// `body(sub, part, shipped)` is the node-side work over the part's
    /// iterator `sub` either way.
    ///
    /// An iterator is cut down to each part's data (paper §3.5) and `sub`
    /// is that slice, `shipped`: it crosses serialization on arrival. A
    /// slice is windows onto the input's own buffers, so the root copies
    /// no element here. The task lists its windows as [`RawTask::pieces`],
    /// each named by its address range, so a window two parts read (an
    /// sgemm row panel its grid neighbours share) is one piece and the
    /// cluster ships it once. Only the part descriptor, one more anonymous
    /// piece, is private to the task. The slice is wall-measured into
    /// `pack_s`, so the dispatcher can overlap task k+1's slicing with task
    /// k's compute.
    ///
    /// A resident part's `sub` is its segment, read in place: its task
    /// lists the part's pieces (each segment held by the rank its owner cell
    /// named when the view was resolved, then any halo), so it is
    /// routed to the first segment's owner; the descriptor is
    /// control-plane. The environment still broadcasts, and its arrival at
    /// a rank is what starts that rank's task: a part whose live owner
    /// holds every piece is sent no message of its own (see [`RawTask`]).
    /// With the unit environment, or a halo to carry, each task still gets
    /// its send.
    fn part_tasks<'a, It: DistIter, R>(
        &self,
        input: &DistInput<It>,
        body: impl Fn(It, PartOf<It>, bool) -> Box<dyn FnOnce(&NodeCtx) -> R + Send + 'a>,
    ) -> Vec<RawTask<'a, R>> {
        match input {
            DistInput::Iter(it) => (it.outer_domain().split_parts(self.nodes()).into_iter())
                .map(|part| {
                    let ((sub, pieces), pack_s) = timed(|| {
                        let sub = it.slice_outer(&part);
                        let mut pieces = sub.source_pieces();
                        pieces.extend(Piece::anonymous(part.packed_size()));
                        (sub, pieces)
                    });
                    let work = body(sub, part, true);
                    RawTask { pieces, pack_s, work }
                })
                .collect(),
            DistInput::Resident(parts) => (parts.iter())
                .map(|p| {
                    let work = body(p.iter.clone(), p.part.clone(), false);
                    RawTask { pieces: p.pieces.clone(), pack_s: 0.0, work }
                })
                .collect(),
        }
    }

    /// Dispatch `input`'s [`part_tasks`](Self::part_tasks) under an
    /// `env_bytes` broadcast: the one place a skeleton turns a
    /// [`DispatchError`](triolet_cluster::DispatchError) (a fault plan that
    /// leaves a task nowhere to run, a result that fails to decode) into a
    /// panic.
    ///
    /// A task forced off its segment's owner has the segment shipped to
    /// whichever rank executed it (counted by the cluster as a
    /// `dist:resident-miss`). The bytes are there now, so ownership follows
    /// them: the segment's owner cell moves (a `dist:rehome`), and every
    /// later call over the collection routes that part straight to its new
    /// owner. The dispatcher itself remembers nothing — it is handed owners
    /// and reports executing ranks.
    fn dispatch<It: DistIter, R: Wire + Send>(
        &self,
        input: &DistInput<It>,
        tasks: Vec<RawTask<'_, R>>,
        env_bytes: usize,
    ) -> DistOutcome<R> {
        let mut out = self.cluster.dispatch(tasks, env_bytes).unwrap_or_else(|e| panic!("{e}"));
        let DistInput::Resident(parts) = input else { return out };
        for (task, (p, &exec)) in parts.iter().zip(&out.execs).enumerate() {
            for claim in &p.claims {
                if let Some(from) = claim.rehome(exec) {
                    if self.traced() {
                        let at = out.timing.total_s;
                        out.trace.events.push(rehome_event(task, claim.id(), from, exec, at));
                    }
                }
            }
        }
        out
    }

    // ======================================================================
    // The master skeleton
    // ======================================================================

    /// Run `r` over `input` under `env`: the one arm match under every
    /// skeleton. `Sequential` folds on the calling thread as one chunk;
    /// `LocalPar` runs the node body in place on the root node's threads,
    /// shipping nothing; anything else is one task per part.
    ///
    /// The root's prep is all it does before the dispatch but the slices'
    /// packing, which the dispatcher charges per task: packing the
    /// environment once (its transport is charged per broadcast edge) and
    /// building the tasks. The input drops after, untimed. The root then
    /// absorbs results in task order, each once unpacked (`arrivals[i]`)
    /// and after the one before, so most of the fold hides inside the
    /// arrival stream; each absorb is one wall-measured
    /// `root:merge:streamed` span, and the stats report the root's busy
    /// seconds apart from the makespan they overlap.
    fn run_reducer<In, Env, R>(&self, name: &str, input: In, env: Env, r: R) -> Run<R::Value>
    where
        In: IntoDistInput,
        Env: AsEnv,
        R: Reducer<In::Iter, Env::Env>,
    {
        let (r, env) = (&r, env.env_arg());
        match input.into_dist_input() {
            DistInput::Iter(it) if it.hint() == ParHint::Sequential => {
                let (env, part) = (env.value(), it.outer_domain().whole_part());
                let (value, total_s) = timed(|| {
                    let acc =
                        it.fold_outer_part(&part, r.seed(&part), &mut |a, x| r.step(env, a, x));
                    // The calling thread is a one-thread node off the clock.
                    r.absorb(None, r.ship(&NodeCtx::new(0, 1), &part, acc))
                });
                let trace = self.skeleton_trace(name, None, TraceData::default(), total_s, &[]);
                Run::new(value, RunStats::local(total_s)).with_trace(trace)
            }
            DistInput::Iter(it) if it.hint() == ParHint::LocalPar => {
                let (env, part) = (env.value(), it.outer_domain().whole_part());
                let (value, timing, trace) = (self.cluster)
                    .run_local(|ctx| r.absorb(None, node_fold(ctx, &it, &part, env, r)));
                let trace = self.skeleton_trace(name, None, trace, timing.total_s, &[]);
                Run::new(value, timing).with_trace(trace)
            }
            input => {
                let ((payload, tasks), prep_s) = timed(|| {
                    let payload = env.payload(self.cluster.stats());
                    let tasks = self.part_tasks(&input, |sub, part, shipped| {
                        let payload = payload.clone();
                        Box::new(move |ctx: &NodeCtx| {
                            // Node side: a shipped slice arrives as bytes.
                            let sub =
                                if shipped { ctx.sequential(|| sub.roundtrip()) } else { sub };
                            let env: Env::Env =
                                ctx.sequential(|| payload.unpack().expect("environment roundtrip"));
                            node_fold(ctx, &sub, &part, &env, r)
                        })
                    });
                    (payload, tasks)
                });
                let root_prep_s = prep_s - tasks.iter().map(|t| t.pack_s).sum::<f64>();
                let out = self.dispatch(&input, tasks, payload.len());
                let (mut clock, mut busy, mut value) = (0.0f64, 0.0f64, None);
                let mut spans = Vec::with_capacity(out.arrivals.len());
                for (&arrival, shipped) in out.arrivals.iter().zip(out.results) {
                    clock = clock.max(arrival);
                    let (absorbed, u) = timed(|| r.absorb(value.take(), shipped));
                    value = Some(absorbed);
                    spans.push((clock, clock + u));
                    clock += u;
                    busy += u;
                }
                let end_s = out.timing.total_s.max(clock);
                let trace = self.skeleton_trace(name, Some(root_prep_s), out.trace, end_s, &spans);
                let stats =
                    RunStats::overlapped(out.timing, root_prep_s + busy, root_prep_s + end_s);
                Run::new(r.finish(value), stats).with_trace(trace)
            }
        }
    }

    /// Parallel fold-reduce: the skeleton every consumer is built on.
    ///
    /// Each leaf task folds a chunk of the outer domain into a private `B`
    /// started from `seed()`; partials merge pairwise with `merge` up the
    /// thread → node → root hierarchy, and the root's fold starts from the
    /// first node partial, not from `seed()`. `B` must be serializable
    /// (node partials cross the network). Every other skeleton is this
    /// same fold over a different reducer.
    ///
    /// `input` is anything implementing [`IntoDistInput`]: a local iterator
    /// (sliced and shipped per node, §3.5) or a resident collection view
    /// (`&DistVec`, a slice/zip/enumerate/halo view, `&DistArray2`) whose
    /// segments already live on their home ranks and ship nothing.
    ///
    /// `env` is a broadcast read-only *environment*: data every task needs
    /// in full (mri-q's k-space samples, tpacf's observed dataset). The
    /// paper's runtime reaches such data through serialized closure captures
    /// ("serializing an object transitively serializes all objects that it
    /// references", §3.4); here the environment is explicit so its bytes are
    /// accounted: one copy ships to every node. Pass `&e` to pack per call,
    /// a [`PackedEnv`] (from [`Triolet::pack_env`]) to pack once across
    /// calls, or `&()` when there is no shared data (zero wire bytes).
    ///
    /// `merge` must be associative (where the chunk and task boundaries fall
    /// depends on the cluster shape) but need not be commutative: partials
    /// always combine left to right, in chunk order within a node and in
    /// task order at the root, never in the order the schedule finishes
    /// them. For a given cluster shape the merge tree is therefore fixed,
    /// so even an approximately-associative `f64` merge gives the same bits
    /// on every run and fault seed. To assemble elements in order without a
    /// merge, use [`Triolet::build_vec`] / [`Triolet::build_array2`].
    pub fn fold_reduce<In, Env, B, Seed, Step, Merge>(
        &self,
        input: In,
        env: Env,
        seed: Seed,
        step: Step,
        merge: Merge,
    ) -> Run<B>
    where
        In: IntoDistInput,
        Env: AsEnv,
        B: Wire + Send,
        Seed: Fn() -> B + Send + Sync,
        Step: Fn(&Env::Env, B, In::Item) -> B + Send + Sync,
        Merge: Fn(B, B) -> B + Send + Sync,
    {
        self.run_reducer("fold_reduce", input, env, Fold(seed, step, merge))
    }

    // ======================================================================
    // Derived consumers (the paper's user-facing skeletons)
    // ======================================================================

    /// Parallel sum (mri-q's inner reduction, dot products, …).
    pub fn sum<In>(&self, input: In) -> Run<In::Item>
    where
        In: IntoDistInput,
        In::Item: Wire + Send + Default + std::ops::Add<Output = In::Item>,
    {
        self.run_reducer(
            "sum",
            input,
            &(),
            Fold(In::Item::default, |_: &(), a, x| a + x, |a, b| a + b),
        )
    }

    /// Parallel reduction with an arbitrary associative operator.
    pub fn reduce<In, Op>(&self, input: In, op: Op) -> Run<Option<In::Item>>
    where
        In: IntoDistInput,
        In::Item: Wire + Send,
        Op: Fn(In::Item, In::Item) -> In::Item + Send + Sync,
    {
        self.reduce_named("reduce", input, op)
    }

    fn reduce_named<In, Op>(&self, name: &str, input: In, op: Op) -> Run<Option<In::Item>>
    where
        In: IntoDistInput,
        In::Item: Wire + Send,
        Op: Fn(In::Item, In::Item) -> In::Item + Send + Sync,
    {
        self.run_reducer(
            name,
            input,
            &(),
            Fold(
                || None,
                |_: &(), acc: Option<In::Item>, x| match acc {
                    None => Some(x),
                    Some(a) => Some(op(a, x)),
                },
                |a, b| match (a, b) {
                    (Some(a), Some(b)) => Some(op(a, b)),
                    (a, None) => a,
                    (None, b) => b,
                },
            ),
        )
    }

    /// Parallel element count (useful for filtered iterators).
    pub fn count<In>(&self, input: In) -> Run<u64>
    where
        In: IntoDistInput,
    {
        self.run_reducer("count", input, &(), Fold(|| 0u64, |_: &(), n, _| n + 1, |a, b| a + b))
    }

    /// Parallel minimum (by `PartialOrd`; NaNs lose).
    pub fn min<In>(&self, input: In) -> Run<Option<In::Item>>
    where
        In: IntoDistInput,
        In::Item: Wire + Send + PartialOrd,
    {
        self.reduce_named("min", input, |a, b| if b < a { b } else { a })
    }

    /// Parallel maximum (by `PartialOrd`; NaNs lose).
    pub fn max<In>(&self, input: In) -> Run<Option<In::Item>>
    where
        In: IntoDistInput,
        In::Item: Wire + Send + PartialOrd,
    {
        self.reduce_named("max", input, |a, b| if b > a { b } else { a })
    }

    /// Parallel arithmetic mean of an `f64` input; `None` when empty.
    pub fn mean<In>(&self, input: In) -> Run<Option<f64>>
    where
        In: IntoDistInput<Item = f64>,
    {
        self.run_reducer(
            "mean",
            input,
            &(),
            Fold(
                || (0.0f64, 0u64),
                |_: &(), (s, n), x| (s + x, n + 1),
                |(s1, n1), (s2, n2)| (s1 + s2, n1 + n2),
            ),
        )
        .map(|(sum, count)| if count == 0 { None } else { Some(sum / count as f64) })
    }

    /// Drain the input into per-task private collectors and merge them:
    /// the generic mutation skeleton (paper §3.4: "a distributed-parallel
    /// histogram performs a distributed reduction, which performs one
    /// threaded reduction per node, which sequentially builds one histogram
    /// per thread"). `env` is broadcast to every node like
    /// [`Triolet::fold_reduce`]'s; pass `&()` when there is none.
    pub fn collect<In, Env, C, Make>(&self, input: In, env: Env, make: Make) -> Run<C::Out>
    where
        In: IntoDistInput,
        Env: AsEnv,
        C: Collector<Item = In::Item> + Wire + Send,
        Make: Fn() -> C + Send + Sync,
    {
        self.collect_named("collect", input, env, make)
    }

    fn collect_named<In, Env, C, Make>(
        &self,
        name: &str,
        input: In,
        env: Env,
        make: Make,
    ) -> Run<C::Out>
    where
        In: IntoDistInput,
        Env: AsEnv,
        C: Collector<Item = In::Item> + Wire + Send,
        Make: Fn() -> C + Send + Sync,
    {
        self.run_reducer(
            name,
            input,
            env,
            Fold(
                make,
                |_: &Env::Env, mut c: C, x| {
                    c.feed(x);
                    c
                },
                |mut a: C, b| {
                    a.merge(b);
                    a
                },
            ),
        )
        .map(|c| c.finish())
    }

    /// Integer-count histogram over `bins` buckets (tpacf's skeleton).
    pub fn histogram<In>(&self, bins: usize, input: In) -> Run<Vec<u64>>
    where
        In: IntoDistInput<Item = usize>,
    {
        self.collect_named("histogram", input, &(), || triolet_iter::CountHist::new(bins))
    }

    /// Floating-point scatter-add over `cells` cells (cutcp's skeleton: a
    /// "floating-point histogram"). Each partial is a [`WeightHist`]
    /// holding only the range of cells its items wrote, so a part whose
    /// items write a slab of the grid merges and ships that slab; the value
    /// is the dense grid. A received partial of another grid size is
    /// refused with a panic naming both sizes, before anything is allocated
    /// from it.
    pub fn scatter_add<In>(&self, cells: usize, input: In) -> Run<Vec<f64>>
    where
        In: IntoDistInput<Item = (usize, f64)>,
    {
        self.run_reducer("scatter_add", input, &(), ScatterAdd(cells)).map(|h| h.finish())
    }

    /// Materialize a 1-D input into a vector of `f(env, item)`, preserving
    /// element order (mri-q's pixel map).
    ///
    /// Works for irregular iterators too: this is [`Triolet::fold_reduce`]
    /// over the fragment monoid, where a partial is the variable-length run
    /// of values its part covers (the paper's variable-length output
    /// packing) and merging appends. Like any fold's partials, fragments
    /// join in chunk order on a node and in part order at the root, never
    /// in the order the schedule finishes them. Identity materialization is
    /// `build_vec(it, &(), |_, x| x)`.
    pub fn build_vec<In, Env, U, F>(&self, input: In, env: Env, f: F) -> Run<Vec<U>>
    where
        In: IntoDistInput,
        In::Iter: DistIter<OuterDom = Seq>,
        Env: AsEnv,
        U: Wire + Send + Sync + Clone,
        F: Fn(&Env::Env, In::Item) -> U + Send + Sync,
    {
        self.run_reducer("build_vec", input, env, Fragments(f))
    }

    /// Materialize a 3-D iterator into a dense grid (cutcp-style outputs
    /// when computed per grid point rather than scatter-added).
    ///
    /// [`Dim3`](triolet_domain::Dim3) distribution uses slab parts, which
    /// are contiguous in row-major linearization, so assembly is ordered
    /// concatenation like [`Triolet::build_vec`].
    pub fn build_array3<It>(&self, it: It) -> Run<triolet_iter::Array3<It::Item>>
    where
        It: DistIter<OuterDom = triolet_domain::Dim3>,
        It::Item: Wire + Send + Sync + Clone,
    {
        let dom = it.outer_domain();
        self.run_reducer("build_array3", it, &(), Fragments(|_: &(), x: It::Item| x))
            .map(|data| triolet_iter::Array3::from_vec(data, dom))
    }

    /// Materialize a 2-D iterator into a dense matrix (sgemm's output
    /// assembly): nodes compute rectangular blocks, the root places them.
    pub fn build_array2<It>(&self, it: It) -> Run<Array2<It::Item>>
    where
        It: DistIter<OuterDom = Dim2>,
        It::Item: Wire + Send + Sync + Clone + Default,
    {
        let dom = it.outer_domain();
        self.run_reducer("build_array2", it, &(), Tiles(dom))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_iter::prelude::*;
    use triolet_iter::sources::from_vec;

    fn rt(nodes: usize, tpn: usize) -> Triolet {
        Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn))
    }

    #[test]
    fn sum_matches_sequential_all_hints() {
        let xs: Vec<i64> = (0..10_000).collect();
        let expect: i64 = xs.iter().sum();
        let rt = rt(4, 4);
        for hinted in
            [from_vec(xs.clone()), from_vec(xs.clone()).localpar(), from_vec(xs.clone()).par()]
        {
            assert_eq!(rt.sum(hinted).value, expect);
        }
    }

    #[test]
    fn distributed_sum_ships_sliced_data() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let rt = rt(4, 2);
        let full_bytes = from_vec(xs.clone()).source_bytes() as u64;
        let stats = rt.sum(from_vec(xs).par()).stats;
        // Each node receives ~1/4 of the data; the total outgoing bytes are
        // about one full copy (plus part headers), NOT nodes x full copy.
        assert!(
            stats.bytes_out < full_bytes + 1024,
            "bytes_out={} full={}",
            stats.bytes_out,
            full_bytes
        );
        assert!(stats.bytes_out as f64 > 0.9 * full_bytes as f64);
        assert_eq!(stats.messages, 8);
    }

    #[test]
    fn sum_of_filtered_distributes() {
        let xs: Vec<i64> = (0..999).collect();
        let expect: i64 = xs.iter().filter(|&&x| x % 7 == 0).sum();
        let s = rt(3, 2).sum(from_vec(xs).filter(|x: &i64| x % 7 == 0).par()).value;
        assert_eq!(s, expect);
    }

    #[test]
    fn fold_reduce_with_environment() {
        let xs: Vec<i64> = (0..200).collect();
        let scale: i64 = 3;
        let expect: i64 = xs.iter().map(|x| x * scale).sum();
        let run = rt(4, 2).fold_reduce(
            from_vec(xs).par(),
            &scale,
            || 0i64,
            |k, a, x| a + k * x,
            |a, b| a + b,
        );
        assert_eq!(run.value, expect);
        // The environment ships once per node on top of the sliced data.
        assert!(run.stats.bytes_out > 0);
    }

    #[test]
    fn unit_environment_ships_no_extra_bytes() {
        let xs: Vec<i64> = (0..256).collect();
        let rt = rt(2, 2);
        let plain = rt.sum(from_vec(xs.clone()).par()).stats.bytes_out;
        let with_unit = rt
            .fold_reduce(from_vec(xs).par(), &(), || 0i64, |(), a, x| a + x, |a, b| a + b)
            .stats
            .bytes_out;
        assert_eq!(plain, with_unit);
    }

    #[test]
    fn packed_env_is_accepted_by_the_same_signature() {
        let xs: Vec<i64> = (0..200).collect();
        let rt = rt(3, 2);
        let packed = rt.pack_env(5i64);
        let a = rt
            .fold_reduce(
                from_vec(xs.clone()).par(),
                &packed,
                || 0i64,
                |k, a, x| a + k * x,
                |a, b| a + b,
            )
            .value;
        let b = rt
            .fold_reduce(from_vec(xs).par(), &5i64, || 0i64, |k, a, x| a + k * x, |a, b| a + b)
            .value;
        assert_eq!(a, b);
    }

    #[test]
    fn reduce_max() {
        let xs: Vec<i64> = (0..500).map(|i| (i * 37) % 251).collect();
        let expect = xs.iter().copied().max();
        assert_eq!(rt(4, 2).reduce(from_vec(xs).par(), i64::max).value, expect);
    }

    #[test]
    fn reduce_empty_is_none() {
        let m = rt(2, 2).reduce(from_vec(Vec::<i64>::new()).par(), i64::max).value;
        assert!(m.is_none());
    }

    #[test]
    fn count_filtered() {
        let n = rt(4, 4).count(range(1000).filter(|i: &usize| i.is_multiple_of(3)).par()).value;
        assert_eq!(n, 334);
    }

    #[test]
    fn histogram_matches_sequential() {
        let xs: Vec<u32> = (0..5000).map(|i| (i * 31 + 7) % 10).collect();
        let it = from_vec(xs.clone()).map(|x: u32| x as usize);
        let hist = rt(4, 4).histogram(10, it.par()).value;
        let mut expect = vec![0u64; 10];
        for x in xs {
            expect[x as usize] += 1;
        }
        assert_eq!(hist, expect);
    }

    #[test]
    fn scatter_add_matches_sequential() {
        let pairs: Vec<(usize, f64)> = (0..2000).map(|i| (i % 16, (i as f64) * 0.25)).collect();
        let grid = rt(2, 4).scatter_add(16, from_vec(pairs.clone()).par()).value;
        let mut expect = vec![0.0f64; 16];
        for (b, w) in pairs {
            expect[b] += w;
        }
        for (a, b) in grid.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn scatter_add_refuses_a_partial_of_another_grid() {
        type It = IdxFlat<triolet_iter::ArrayIdx<(usize, f64)>>;
        // A partial as a node ships it, `(cells, lo, range)`, written by hand.
        let partial = |cells: usize| -> WeightHist {
            triolet_serial::unpack_all(triolet_serial::packed(&(cells, 3usize, vec![1.0f64])))
                .expect("a well-formed section")
        };
        let refusal = |value: Option<WeightHist>, shipped: WeightHist| {
            let r = std::panic::catch_unwind(|| {
                Reducer::<It, ()>::absorb(&ScatterAdd(16), value, shipped).cells()
            });
            *r.expect_err("refused").downcast::<String>().expect("a formatted message")
        };
        // A 2^40-cell claim would have `finish` ask for 8 TiB; a second
        // partial one cell short would fail `merge`'s assertion.
        let huge = refusal(None, partial(1 << 40));
        assert_eq!(huge, "scatter_add over 16 cells received a partial of 1099511627776 cells");
        let short = refusal(Some(partial(16)), partial(15));
        assert_eq!(short, "scatter_add over 16 cells received a partial of 15 cells");
        let fits = Reducer::<It, ()>::absorb(&ScatterAdd(16), Some(partial(16)), partial(16));
        assert_eq!(fits.finish()[3], 2.0);
    }

    #[test]
    fn build_vec_preserves_order() {
        let v = rt(4, 2).build_vec(range(100).map(|i: usize| i * 3).par(), &(), |_, x| x).value;
        assert_eq!(v, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn build_vec_irregular_preserves_order() {
        let it = range(50).map(|i: usize| i as i64).filter(|x: &i64| x % 2 == 0).par();
        let v = rt(4, 2).build_vec(it, &(), |_, x| x).value;
        assert_eq!(v, (0..50).filter(|x| x % 2 == 0).map(|x| x as i64).collect::<Vec<_>>());
    }

    #[test]
    fn build_array2_blocks_assemble() {
        let it = range2d(8, 6).map(|(r, c): (usize, usize)| (r * 100 + c) as i64).par();
        let m = rt(4, 2).build_array2(it).value;
        assert_eq!(m.rows(), 8);
        assert_eq!(m.cols(), 6);
        for r in 0..8 {
            for c in 0..6 {
                assert_eq!(m[(r, c)], (r * 100 + c) as i64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "crashes every node")]
    fn a_skeleton_over_an_all_crashed_cluster_panics() {
        let plan = triolet_cluster::FaultPlan::seeded(1).with_crash(0).with_crash(1);
        let rt = Triolet::new(ClusterConfig::virtual_cluster(2, 2).with_faults(plan));
        let _ = rt.sum(from_vec((0..64i64).collect()).par());
    }

    #[test]
    fn localpar_runs_in_place_whatever_the_fault_plan() {
        // Shared memory only: nothing crosses the wire in either direction,
        // so a plan that drops messages and crashes rank 0 has nothing to
        // act on.
        let plan = triolet_cluster::FaultPlan::seeded(7).with_drop(0.3).with_crash(0);
        let xs: Vec<i64> = (0..512).collect();
        for config in [
            ClusterConfig::virtual_cluster(4, 4),
            ClusterConfig::virtual_cluster(4, 4).with_faults(plan),
        ] {
            let rt = Triolet::new(config);
            let before = rt.cluster().stats().snapshot();
            let run = rt.sum(from_vec(xs.clone()).localpar());
            assert_eq!(run.value, xs.iter().sum::<i64>());
            let s = &run.stats;
            assert_eq!(
                (s.bytes_out, s.bytes_back, s.messages, s.retries, s.redispatches),
                (0, 0, 0, 0, 0)
            );
            assert_eq!(rt.cluster().stats().snapshot().since(&before), Default::default());
        }
    }

    #[test]
    fn more_nodes_than_elements() {
        let s = rt(8, 2).sum(from_vec(vec![1i64, 2, 3]).par()).value;
        assert_eq!(s, 6);
    }

    #[test]
    fn build_array3_direct_potential() {
        // A per-grid-point (gather-style) computation over a Dim3 domain.
        let dom = triolet_domain::Dim3::new(4, 3, 5);
        let engine = rt(3, 2);
        let g = engine
            .build_array3(
                triolet_iter::indices(dom)
                    .map(|(x, y, z): (usize, usize, usize)| (x * 100 + y * 10 + z) as i64)
                    .par(),
            )
            .value;
        for x in 0..4 {
            for y in 0..3 {
                for z in 0..5 {
                    assert_eq!(g[(x, y, z)], (x * 100 + y * 10 + z) as i64);
                }
            }
        }
        // LocalPar agrees.
        let run = engine.build_array3(
            triolet_iter::indices(dom)
                .map(|(x, y, z): (usize, usize, usize)| (x * 100 + y * 10 + z) as i64)
                .localpar(),
        );
        assert_eq!(g, run.value);
        assert_eq!(run.stats.bytes_out, 0);
    }

    #[test]
    fn min_max_mean() {
        let engine = rt(3, 2);
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 101) as f64).collect();
        assert_eq!(engine.min(from_vec(xs.clone()).par()).value, Some(0.0));
        assert_eq!(engine.max(from_vec(xs.clone()).par()).value, Some(100.0));
        let avg = engine.mean(from_vec(xs.clone()).par()).value;
        let expect = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((avg.unwrap() - expect).abs() < 1e-12);
        assert!(engine.mean(from_vec(Vec::<f64>::new()).par()).value.is_none());
    }

    #[test]
    fn empty_input_par_sum_is_zero() {
        let s = rt(4, 4).sum(from_vec(Vec::<i64>::new()).par()).value;
        assert_eq!(s, 0);
    }

    #[test]
    fn untraced_run_has_empty_trace() {
        let run = rt(4, 2).sum(from_vec((0..100i64).collect::<Vec<_>>()).par());
        assert!(run.trace.is_empty());
    }

    #[test]
    fn traced_sum_records_skeleton_hierarchy() {
        let engine = Triolet::new(ClusterConfig::virtual_cluster(3, 2).with_trace(true));
        assert!(engine.traced());
        let xs: Vec<i64> = (0..3000).collect();
        let run = engine.sum(from_vec(xs.clone()).par());
        assert_eq!(run.value, xs.iter().sum::<i64>());
        let names = run.trace.span_names();
        for want in
            ["skeleton:sum", "root:slice", "root:merge:streamed", "send", "node:task", "chunk"]
        {
            assert!(names.contains(&want), "missing span {want:?} in {names:?}");
        }
        // The skeleton span opens the trace and covers every other span.
        let skel = &run.trace.spans[0];
        assert_eq!(skel.name, "skeleton:sum");
        assert_eq!(skel.t0, 0.0);
        for s in &run.trace.spans {
            assert!(s.t0 >= -1e-12 && s.t1 <= skel.t1 + 1e-9, "{s:?} outside skeleton span");
        }
        // The trace agrees with the aggregate stats on total time.
        assert!((skel.t1 - run.stats.total_s).abs() < 1e-9);
    }

    #[test]
    fn traced_sequential_run_records_one_span() {
        let engine = Triolet::new(ClusterConfig::virtual_cluster(2, 2).with_trace(true));
        let run = engine.sum(from_vec((0..50i64).collect::<Vec<_>>()));
        assert_eq!(run.trace.span_names(), vec!["skeleton:sum"]);
    }

    #[test]
    fn scatter_then_sum_matches_iterator_path() {
        let xs: Vec<i64> = (0..1000).collect();
        let rt = rt(4, 2);
        let dv = rt.scatter(xs.clone()).value;
        assert_eq!(dv.len(), 1000);
        assert_eq!(dv.segments(), 4);
        assert_eq!(rt.sum(&dv).value, xs.iter().sum::<i64>());
        assert_eq!(rt.sum(from_vec(xs).par()).value, rt.sum(&dv).value);
    }

    #[test]
    fn resident_calls_ship_no_input_bytes() {
        let xs: Vec<i64> = (0..2000).collect();
        let rt = rt(4, 2);
        let dv = rt.scatter(xs).value;
        let run = rt.sum(&dv);
        // Unit environment + resident input: nothing crosses the wire out.
        assert_eq!(run.stats.bytes_out, 0);
        assert_eq!(run.stats.resident_hits, 4);
        assert_eq!(run.stats.resident_misses, 0);
    }

    #[test]
    fn resident_build_vec_preserves_order() {
        let xs: Vec<i64> = (0..300).collect();
        let rt = rt(4, 2);
        let dv = rt.scatter(xs.clone()).value;
        let doubled = rt.build_vec(&dv, &(), |_, x: i64| x * 2).value;
        assert_eq!(doubled, xs.iter().map(|x| x * 2).collect::<Vec<_>>());
        // Views feed the same unified signature.
        let mid = rt.build_vec(dv.slice(100..200), &(), |_, x| x).value;
        assert_eq!(mid, (100..200).collect::<Vec<i64>>());
    }

    #[test]
    fn resident_fold_is_bit_identical_to_rebroadcast() {
        let xs: Vec<f64> = (0..4321).map(|i| (i as f64) * 0.123 - 17.0).collect();
        let rt = rt(4, 2);
        let dv = rt.scatter(xs.clone()).value;
        let a = rt.sum(&dv).value;
        let b = rt.sum(from_vec(xs).par()).value;
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn one_node_body_gives_every_arm_the_same_bits_and_trace_shape() {
        /// The multiset of per-node (`chunk`, `merge`) span counts.
        fn spans<T>(run: &Run<T>, nodes: usize) -> Vec<(usize, usize)> {
            let on = |rank: usize, name: &str| {
                let spans = run.trace.spans.iter().filter(|s| s.name == name);
                spans
                    .filter(|s| matches!(s.track, Track::Worker { rank: r, .. } if r == rank))
                    .count()
            };
            let mut per_node: Vec<_> =
                (0..nodes).map(|r| (on(r, "chunk"), on(r, "merge"))).collect();
            per_node.sort_unstable();
            per_node
        }
        /// The sum's bits and its span counts.
        fn shape(run: &Run<f64>, nodes: usize) -> (u64, Vec<(usize, usize)>) {
            (run.value.to_bits(), spans(run, nodes))
        }
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        let xs: Vec<f64> = (0..4321).map(|i| (i as f64) * 0.123 - 17.0).collect();
        // On one node all three arms cover the same part, so the shared body
        // must cut the same chunks and merge them in the same order.
        let rt = Triolet::new(ClusterConfig::virtual_cluster(1, 3).with_trace(true));
        let dv = rt.scatter(xs.clone()).value;
        let local = shape(&rt.sum(from_vec(xs.clone()).localpar()), 1);
        let chunks = 3 * CHUNKS_PER_THREAD;
        assert_eq!(local.1, vec![(chunks, chunks)]);
        assert_eq!(shape(&rt.sum(from_vec(xs.clone()).par()), 1), local, "par vs localpar");
        assert_eq!(shape(&rt.sum(&dv), 1), local, "resident vs localpar");
        // Ordered assembly folds through the same body: every arm gives the
        // same values, and each node-side arm merges once per chunk.
        let f = |_: &(), x: f64| x * 0.75 - 1.5;
        let seq = bits(&rt.build_vec(from_vec(xs.clone()), &(), f).value);
        let local = rt.build_vec(from_vec(xs.clone()).localpar(), &(), f);
        assert_eq!(spans(&local, 1), vec![(chunks, chunks)]);
        for (arm, run) in [
            ("localpar", local),
            ("par", rt.build_vec(from_vec(xs.clone()).par(), &(), f)),
            ("resident", rt.build_vec(&dv, &(), f)),
        ] {
            assert_eq!(bits(&run.value), seq, "build_vec {arm} vs sequential");
            assert_eq!(spans(&run, 1), vec![(chunks, chunks)], "build_vec {arm}");
        }
        let cell = |(r, c): (usize, usize)| (r * 1000 + c) as f64 * 0.1;
        let seq = rt.build_array2(range2d(37, 29).map(cell)).value;
        let local = rt.build_array2(range2d(37, 29).map(cell).localpar());
        let par = rt.build_array2(range2d(37, 29).map(cell).par());
        let tiles = spans(&local, 1);
        assert!(tiles[0].0 > 1 && tiles[0].0 == tiles[0].1, "one merge per tile: {tiles:?}");
        assert_eq!(spans(&par, 1), tiles, "build_array2 par vs localpar");
        assert_eq!(bits(local.value.as_slice()), bits(seq.as_slice()), "build_array2 localpar");
        assert_eq!(bits(par.value.as_slice()), bits(seq.as_slice()), "build_array2 par");
        // Across nodes the shipped and resident arms still agree.
        let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2).with_trace(true));
        let dv = rt.scatter(xs.clone()).value;
        assert_eq!(shape(&rt.sum(&dv), 4), shape(&rt.sum(from_vec(xs).par()), 4));
    }

    #[test]
    fn a_segment_follows_its_data_off_a_live_rank() {
        // Nobody is crashed: with a one-attempt budget, drops alone push
        // tasks off live owners. The segment crossed the wire all the same,
        // so it belongs to the rank that received it.
        let plan = triolet_cluster::FaultPlan::seeded(5)
            .with_drop(0.3)
            .with_max_retries(0)
            .with_timeout(std::time::Duration::from_millis(1));
        let lossy =
            Triolet::new(ClusterConfig::virtual_cluster(4, 2).with_faults(plan).with_trace(true));
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25 - 3.0).collect();
        let dv = lossy.scatter(xs.clone()).value;
        let first = lossy.sum(&dv);
        assert!(first.stats.resident_misses > 0, "seed 5 drops the only attempt of two tasks");
        let moves: Vec<&triolet_obs::Event> =
            first.trace.events.iter().filter(|e| e.name == "dist:rehome").collect();
        assert_eq!(moves.len() as u64, first.stats.resident_misses, "one move per miss");
        for e in moves {
            let arg = |key| match e.args.iter().find(|(k, _)| *k == key) {
                Some((_, triolet_obs::ArgValue::U64(v))) => *v as usize,
                other => panic!("dist:rehome has no integer {key:?}: {other:?}"),
            };
            // A whole-collection call's task index is its segment's slot.
            assert_eq!(arg("from"), arg("task"), "segments start on the rank of their slot");
            assert_eq!(dv.owner(arg("task")), arg("to"));
        }
        // The same hops now lead to the new owners: the same attempts that
        // delivered the segments deliver the descriptors.
        let second = lossy.sum(&dv);
        assert_eq!((second.stats.resident_misses, second.stats.resident_hits), (0, 4));
        assert_eq!(second.trace.count_events("dist:rehome"), 0);
        let clean = rt(4, 2);
        let expect = clean.sum(&clean.scatter(xs).value).value.to_bits();
        assert_eq!((first.value.to_bits(), second.value.to_bits()), (expect, expect));
    }

    #[test]
    fn scatter_of_empty_vec_works() {
        let rt = rt(4, 2);
        let dv = rt.scatter(Vec::<i64>::new()).value;
        assert!(dv.is_empty());
        assert_eq!(rt.sum(&dv).value, 0);
    }
}
