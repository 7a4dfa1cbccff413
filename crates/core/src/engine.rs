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
//! threads, behind a sliced and shipped payload, or as a descriptor to the
//! rank that owns the segment — and in nothing else. What a node does once
//! reached is written once, over a private `PartSource` that a `DistIter`
//! slice and a resident part both implement: `node_fold` (chunks → private
//! accumulators → chunk-order merge) under every reduction, `node_collect`
//! (chunks → pieces → chunk-order concat) under `build_vec` and
//! `build_array3`. Chunking and merge order are thus one function of a
//! part's index range on every path, which is why a resident, a shipped and
//! a `localpar` run over the same part agree to the bit.
//!
//! Every skeleton returns a [`Run`]: the value, its [`RunStats`], and — when
//! the cluster is built with
//! [`ClusterConfig::with_trace`](triolet_cluster::ClusterConfig::with_trace)
//! — a recorded span/event timeline rooted at a `skeleton:<name>` span.
//!
//! The dispatch timeline under every `Par` call is laid by the cluster's
//! discrete-event simulator, which processes a call in `O(E log E)` heap
//! events with `O(ranks)` resident state, so 1k-rank shapes are usable from
//! the skeleton API. The root's own work is pipelined against it: slices
//! are packed task by task and partials fold in task order as they arrive.

use std::sync::Arc;

use triolet_cluster::clock::timed;
use triolet_cluster::{
    Cluster, ClusterConfig, DistOutcome, NodeCtx, RawTask, ResidentSpec, TraceData, TraceHandle,
    Track,
};
use triolet_domain::{Dim2, Domain, Part, Seq, SeqPart};
use triolet_iter::collector::Collector;
use triolet_iter::shapes::ParHint;
use triolet_iter::{Array2, SliceMemo};
use triolet_obs::rehome_event;
use triolet_pool::parallel::CHUNKS_PER_THREAD;
use triolet_serial::{PackedPayload, PodView, Wire};

use crate::dist::{
    AsEnv, DistArray2, DistInput, DistIter, DistVec, EnvArg, IntoDistInput, Lease, PackedEnv,
    PartFold, ResidentRun, Seg,
};
use crate::report::RunStats;
use crate::run::Run;

/// The slicing step of every `Par` arm: cut `it` down to each part's data
/// (paper §3.5) and wrap `body(sub, part)` — the node-side work over that
/// slice — as the part's task.
///
/// One [`SliceMemo`] spans the call, so a window two parts read (an sgemm
/// row panel its grid neighbours share) is copied once and both slices hold
/// the same buffer; the task lists its buffers as [`RawTask::pieces`] and the
/// cluster ships each shared one once. Only the part descriptor is private
/// to the task. The slice is wall-measured into `pack_s`, so the streamed
/// dispatcher can overlap task k+1's slicing with task k's compute — the
/// first reader of a shared window pays for it, later readers find it.
fn slice_tasks<'a, It: DistIter, R>(
    it: &It,
    parts: Vec<<It::OuterDom as Domain>::Part>,
    body: impl Fn(It, <It::OuterDom as Domain>::Part) -> Box<dyn FnOnce(&NodeCtx) -> R + Send + 'a>,
) -> Vec<RawTask<'a, R>> {
    let mut memo = SliceMemo::default();
    parts
        .into_iter()
        .map(|part| {
            let ((sub, pieces, wire_bytes), pack_s) = timed(|| {
                let sub = it.slice_outer_shared(&part, &mut memo);
                let pieces = sub.source_pieces();
                (sub, pieces, part.packed_size())
            });
            RawTask { wire_bytes, pieces, pack_s, resident: None, work: body(sub, part) }
        })
        .collect()
}

/// Where a node body reads its elements from: a slice of an iterator the
/// root shipped (or, under `LocalPar`, the iterator itself), or a resident
/// part's segment in place. The node bodies below are written against this,
/// once, so every way of reaching a node runs the same chunks in the same
/// order — statically dispatched: the shipped path gains no indirection, the
/// resident path keeps the one per-element call its [`PartFold`] always was.
trait PartSource: Sync {
    type Item;
    type Part: Part;

    /// Fold the elements of `chunk`, a sub-range of this source's part.
    fn fold_chunk<B>(&self, chunk: &Self::Part, init: B, g: impl FnMut(B, Self::Item) -> B) -> B;
}

impl<It: DistIter> PartSource for It {
    type Item = It::Item;
    type Part = <It::OuterDom as Domain>::Part;

    fn fold_chunk<B>(&self, chunk: &Self::Part, init: B, mut g: impl FnMut(B, It::Item) -> B) -> B {
        self.fold_outer_part(chunk, init, &mut g)
    }
}

impl<T> PartSource for PartFold<T> {
    type Item = T;
    type Part = SeqPart;

    fn fold_chunk<B>(&self, chunk: &SeqPart, init: B, mut g: impl FnMut(B, T) -> B) -> B {
        let mut acc = Some(init);
        let slot = &mut acc;
        // `g` moves into the per-element callback, so what it captured (the
        // environment) is one load away there. Reached through a chain of
        // closure references, the same loop ran ~10% slower per k-means point.
        self(chunk.start, chunk.len, &mut move |x| {
            let a = slot.take().expect("accumulator present");
            *slot = Some(g(a, x));
        });
        acc.expect("accumulator present")
    }
}

/// The node body of every reduction (paper §3.4: "one threaded reduction per
/// node, which sequentially builds one histogram per thread"): split `part`
/// into chunks, fold each into a private accumulator, merge the partials in
/// chunk order.
///
/// The chunking depends only on `part`'s index range and the node's thread
/// count, and the merge order only on the chunking — never on which arm got
/// here or where the data lives — so a resident run is bit-identical to a
/// shipped one by construction. `step` is `Copy` (a `move` closure over
/// references) so each chunk's fold owns one rather than borrowing ours.
fn node_fold<S: PartSource, B: Send>(
    ctx: &NodeCtx,
    src: &S,
    part: &S::Part,
    seed: impl Fn() -> B + Sync,
    step: impl Fn(B, S::Item) -> B + Sync + Copy,
    merge: impl Fn(B, B) -> B,
) -> B {
    let chunks = part.split(ctx.threads() * CHUNKS_PER_THREAD);
    ctx.map_reduce_chunks(chunks, |chunk| src.fold_chunk(chunk, seed(), step), merge)
        .unwrap_or_else(seed)
}

/// The node body of every ordered assembly: split `part` into chunks, map
/// each into a piece, concatenate the pieces in chunk order (sequential
/// packing on the node). For parts that are contiguous in their output's
/// row-major order ([`Seq`] ranges, [`Dim3`](triolet_domain::Dim3) slabs).
fn node_collect<S: PartSource, U: Send>(
    ctx: &NodeCtx,
    src: &S,
    part: &S::Part,
    f: impl Fn(S::Item) -> U + Sync,
) -> Vec<U> {
    let chunks = part.split(ctx.threads() * CHUNKS_PER_THREAD);
    let pieces = ctx.map_chunks(chunks, |chunk| {
        let mut v = Vec::with_capacity(chunk.count());
        src.fold_chunk(chunk, (), |(), x| v.push(f(x)));
        v
    });
    ctx.sequential(|| {
        let mut out = Vec::with_capacity(pieces.iter().map(Vec::len).sum());
        for piece in pieces {
            out.extend(piece);
        }
        out
    })
}

/// The Triolet runtime: a cluster plus the skeleton dispatch logic.
///
/// Construct one per program (like initializing MPI + the thread runtime)
/// and call skeletons on it. Every skeleton returns a [`Run`].
pub struct Triolet {
    cluster: Cluster,
}

impl Triolet {
    /// Bring up a runtime on the given cluster shape.
    pub fn new(config: ClusterConfig) -> Self {
        Triolet { cluster: Cluster::new(config) }
    }

    /// Wrap this runtime in a multi-tenant [`JobService`]: a bounded
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

    /// Total cores (the x-axis of the paper's scaling figures).
    pub fn total_cores(&self) -> usize {
        self.nodes() * self.threads_per_node()
    }

    /// Is span/event recording on for this runtime's cluster?
    pub fn traced(&self) -> bool {
        self.cluster.config().trace
    }

    /// Pack a broadcast environment once, for reuse across skeleton calls:
    /// the returned [`PackedEnv`] is accepted anywhere a skeleton takes an
    /// environment. Counted in
    /// [`TrafficStats::env_packs`](triolet_cluster::TrafficStats::env_packs):
    /// with a `PackedEnv`, N consecutive skeleton calls over M nodes cost
    /// one serialization total, not N (let alone N·M).
    pub fn pack_env<E: Wire>(&self, env: E) -> PackedEnv<E> {
        let payload = PackedPayload::pack(&env);
        if !payload.is_empty() {
            self.cluster.stats().record_env_pack();
        }
        PackedEnv::new(env, payload)
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
            .map(|(lease, segs)| DistVec::from_segments(lease, len, segs))
    }

    /// Scatter a matrix across the cluster once as row slabs, returning a
    /// persistent [`DistArray2`] (see [`Triolet::scatter`]).
    pub fn scatter_array2<T>(&self, m: Array2<T>) -> Run<DistArray2<T>>
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let (rows, cols) = (m.rows(), m.cols());
        self.scatter_cut(rows, cols, &m.into_vec())
            .map(|(lease, segs)| DistArray2::from_segments(lease, rows, cols, segs))
    }

    /// Cut `data` — `rows` rows of `width` items — into one row-range
    /// segment per node (the parts the shipped path would use; cutting is
    /// the root's prep time), ship segment `k` to rank `k` and register it
    /// there under a fresh lease.
    fn scatter_cut<T>(
        &self,
        rows: usize,
        width: usize,
        data: &[T],
    ) -> Run<(Arc<Lease>, Vec<Seg<T>>)>
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
        let lease = Lease::new(self.cluster.resident_store());
        let sizes: Vec<(usize, usize)> =
            segs.iter().enumerate().map(|(rank, s)| (rank, s.bytes)).collect();
        let (timing, dist_trace) = self.cluster.scatter_segments(lease.id(), &sizes);
        let trace = self.skeleton_trace("scatter", Some(pack_s), dist_trace, timing.total_s, &[]);
        Run::new((lease, segs), RunStats::from_dist(timing, pack_s)).with_trace(trace)
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
            h.span(
                "root:merge:streamed",
                "merge",
                Track::Root,
                prep_s + s0,
                prep_s + s1,
                vec![("task", i.into())],
            );
        }
        dist.shift(prep_s);
        h.absorb(dist);
        h.take()
    }

    /// The `Sequential` arm of every skeleton: run `work` on the calling
    /// thread, wall-timed, under one `skeleton:<name>` span.
    fn run_sequential<R>(&self, name: &str, work: impl FnOnce() -> R) -> Run<R> {
        let (value, total_s) = timed(work);
        let trace = self.skeleton_trace(name, None, TraceData::default(), total_s, &[]);
        Run::new(value, RunStats::local(total_s)).with_trace(trace)
    }

    /// The root-side preamble of every dispatching arm: the environment is
    /// packed at most once here (its seconds are the call's root prep);
    /// every task shares the buffer, and the cluster charges its transport
    /// per broadcast edge rather than per task.
    fn timed_payload<E: Wire>(&self, env: &EnvArg<'_, E>) -> (PackedPayload, f64) {
        timed(|| env.payload(self.cluster.stats()))
    }

    /// The `LocalPar` arm of every skeleton: run `work` over the root node's
    /// threads, in place. Nothing ships and nothing comes back over the
    /// wire, so the result is used as computed.
    fn run_localpar<R>(&self, name: &str, work: impl FnOnce(&NodeCtx) -> R) -> Run<R> {
        let (value, timing, trace) = self.cluster.run_local(work);
        let trace = self.skeleton_trace(name, None, trace, timing.total_s, &[]);
        Run::new(value, timing).with_trace(trace)
    }

    /// The resident mirror of [`slice_tasks`], dispatch included: one task
    /// per [`ResidentPart`](crate::dist::ResidentPart), routed to the rank
    /// the store said owns the part's segment when the view was resolved,
    /// running `body(part, fold)` there. Tasks declare zero wire bytes (the
    /// descriptor is control-plane); the environment still broadcasts, and
    /// its arrival at a rank is what starts that rank's task: a part with no
    /// halo whose owner is alive is sent no message of its own (the owner
    /// already knows its part — see [`RawTask`]), so a sweep costs the root
    /// its tree sends and nothing per task. With the unit environment, or a
    /// halo to carry, each task still gets its send.
    ///
    /// A task forced off that rank has its segment re-shipped to whichever
    /// rank executed it (counted by the cluster as a `dist:resident-miss`).
    /// The bytes are there now, so ownership follows them: the store entry
    /// moves (a `dist:rehome`), and every later call over the collection
    /// routes that part straight to its new owner. The dispatcher itself
    /// remembers nothing — it is handed owners and reports executing ranks.
    fn run_resident_tasks<'a, T, R: Wire + Send>(
        &self,
        run: ResidentRun<T>,
        env_bytes: usize,
        body: impl Fn(SeqPart, PartFold<T>) -> Box<dyn FnOnce(&NodeCtx) -> R + Send + 'a>,
    ) -> DistOutcome<R> {
        let id = run.id;
        let (tasks, claims): (Vec<_>, Vec<_>) = run
            .parts
            .into_iter()
            .map(|p| {
                let spec = ResidentSpec {
                    id,
                    home: p.home,
                    seg_bytes: p.seg_bytes,
                    halo_bytes: p.halo_bytes,
                };
                let task = RawTask {
                    wire_bytes: 0,
                    pieces: Vec::new(),
                    pack_s: 0.0,
                    resident: Some(spec),
                    work: body(p.part, p.fold),
                };
                (task, p.claims)
            })
            .unzip();
        let mut out = self.cluster.run_raw_with_broadcast(tasks, env_bytes);
        for (task, (claims, &exec)) in claims.iter().zip(&out.execs).enumerate() {
            for claim in claims {
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
    // Root-side epilogues (shared by the iterator and resident paths)
    // ======================================================================

    /// Close a `Par` call at the root: the rank-ordered streaming merge,
    /// modeled against the dispatch timeline.
    ///
    /// `step` folds one task's result into `value` and is wall-measured
    /// here. On the modeled clock, step `i` cannot start before task `i`'s
    /// result is unpacked at the root (`arrivals[i]`) nor before step `i-1`
    /// finished — the completed prefix folds as it grows, in fixed task
    /// order, so the merged value is that of a plain left fold while most
    /// of its cost hides inside the arrival stream. Each step is one
    /// `root:merge:streamed` span; the stats report the root's busy seconds
    /// apart from the makespan they overlap.
    fn merge_epilogue<R, V>(
        &self,
        name: &str,
        root_prep_s: f64,
        out: DistOutcome<R>,
        mut value: V,
        mut step: impl FnMut(&mut V, R),
    ) -> Run<V> {
        let mut clock = 0.0f64;
        let mut busy = 0.0f64;
        let mut spans = Vec::with_capacity(out.arrivals.len());
        for (&arrival, result) in out.arrivals.iter().zip(out.results) {
            clock = clock.max(arrival);
            let ((), u) = timed(|| step(&mut value, result));
            spans.push((clock, clock + u));
            clock += u;
            busy += u;
        }
        let end_s = out.timing.total_s.max(clock);
        let trace = self.skeleton_trace(name, Some(root_prep_s), out.trace, end_s, &spans);
        Run::new(value, RunStats::overlapped(out.timing, root_prep_s + busy, root_prep_s + end_s))
            .with_trace(trace)
    }

    /// Fold task partials at the root, in task order.
    fn fold_epilogue<B, Empty, Merge>(
        &self,
        name: &str,
        root_prep_s: f64,
        out: DistOutcome<B>,
        empty: Empty,
        merge: Merge,
    ) -> Run<B>
    where
        B: Wire + Send,
        Empty: Fn() -> B,
        Merge: Fn(B, B) -> B,
    {
        self.merge_epilogue(name, root_prep_s, out, None, |acc: &mut Option<B>, r| {
            *acc = Some(match acc.take() {
                None => r,
                Some(a) => merge(a, r),
            });
        })
        .map(|acc| acc.unwrap_or_else(empty))
    }

    /// Concatenate ordered per-task fragments at the root (build_vec-style
    /// assembly), extending in task order.
    ///
    /// Fragments arrive as [`PodView`]s: for pod element types the root-side
    /// unpack aliased the received buffer, so the only copy left is this
    /// merge's `extend_from_slice` into the final vector.
    fn concat_epilogue<U>(
        &self,
        name: &str,
        root_prep_s: f64,
        out: DistOutcome<PodView<U>>,
    ) -> Run<Vec<U>>
    where
        U: Wire + Send + Sync + Clone,
    {
        let total: usize = out.results.iter().map(PodView::len).sum();
        self.merge_epilogue(name, root_prep_s, out, Vec::with_capacity(total), |value, frag| {
            value.extend_from_slice(&frag);
        })
    }

    // ======================================================================
    // The master skeleton
    // ======================================================================

    /// Parallel fold-reduce: the skeleton every consumer is built on.
    ///
    /// Each leaf task folds a chunk of the outer domain into a private `B`
    /// started from `seed()`; partials merge pairwise with `merge` up the
    /// thread → node → root hierarchy. `B` must be serializable (node
    /// partials cross the network).
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
    /// on every run and fault seed. To assemble elements in
    /// order without a merge, use [`Triolet::build_vec`] /
    /// [`Triolet::build_array2`].
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
        self.fold_reduce_named(
            "fold_reduce",
            input.into_dist_input(),
            env.env_arg(),
            seed,
            step,
            merge,
        )
    }

    /// [`Triolet::fold_reduce`] with an explicit skeleton name, so derived
    /// consumers label their traces `skeleton:sum`, `skeleton:histogram`, …
    fn fold_reduce_named<It, E, B, Seed, Step, Merge>(
        &self,
        name: &str,
        input: DistInput<It>,
        env: EnvArg<'_, E>,
        seed: Seed,
        step: Step,
        merge: Merge,
    ) -> Run<B>
    where
        It: DistIter,
        E: Wire + Send + Sync,
        B: Wire + Send,
        Seed: Fn() -> B + Send + Sync,
        Step: Fn(&E, B, It::Item) -> B + Send + Sync,
        Merge: Fn(B, B) -> B + Send + Sync,
    {
        let (seed, step, merge) = (&seed, &step, &merge);
        let it = match input {
            DistInput::Resident(run) => {
                let (env_payload, root_prep_s) = self.timed_payload(&env);
                let out = self.run_resident_tasks(run, env_payload.len(), |part, fold| {
                    let penv = env_payload.clone();
                    Box::new(move |ctx: &NodeCtx| {
                        let env: E =
                            ctx.sequential(|| penv.unpack().expect("environment roundtrip"));
                        let env = &env;
                        node_fold(ctx, &fold, &part, seed, move |b, x| step(env, b, x), merge)
                    })
                });
                return self.fold_epilogue(name, root_prep_s, out, seed, merge);
            }
            DistInput::Iter(it) => it,
        };
        let dom = it.outer_domain();
        match it.hint() {
            ParHint::Sequential => {
                let env = env.value();
                self.run_sequential(name, || {
                    it.fold_outer_part(&dom.whole_part(), seed(), &mut |b, x| step(env, b, x))
                })
            }
            ParHint::LocalPar => {
                // No node boundary: use the environment in place.
                let (env, part) = (env.value(), dom.whole_part());
                self.run_localpar(name, |ctx| {
                    node_fold(ctx, &it, &part, seed, move |b, x| step(env, b, x), merge)
                })
            }
            ParHint::Par => {
                // Slicing each node's data (paper §3.5) is measured per
                // task into `pack_s`, so the dispatcher can overlap task
                // k+1's slice/pack with task k's compute.
                let (env_payload, root_prep_s) = self.timed_payload(&env);
                let tasks = slice_tasks(&it, dom.split_parts(self.nodes()), |sub, part| {
                    let penv = env_payload.clone();
                    Box::new(move |ctx: &NodeCtx| {
                        // Node side: data arrives as bytes.
                        let sub = ctx.sequential(|| sub.roundtrip());
                        let env: E =
                            ctx.sequential(|| penv.unpack().expect("environment roundtrip"));
                        let env = &env;
                        node_fold(ctx, &sub, &part, seed, move |b, x| step(env, b, x), merge)
                    })
                });
                let out = self.cluster.run_raw_with_broadcast(tasks, env_payload.len());
                self.fold_epilogue(name, root_prep_s, out, seed, merge)
            }
        }
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
        self.fold_reduce_named(
            "sum",
            input.into_dist_input(),
            EnvArg::Plain(&()),
            In::Item::default,
            |_, a, x| a + x,
            |a, b| a + b,
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
        self.fold_reduce_named(
            name,
            input.into_dist_input(),
            EnvArg::Plain(&()),
            || None,
            |_, acc: Option<In::Item>, x| match acc {
                None => Some(x),
                Some(a) => Some(op(a, x)),
            },
            |a, b| match (a, b) {
                (Some(a), Some(b)) => Some(op(a, b)),
                (a, None) => a,
                (None, b) => b,
            },
        )
    }

    /// Parallel element count (useful for filtered iterators).
    pub fn count<In>(&self, input: In) -> Run<u64>
    where
        In: IntoDistInput,
    {
        self.fold_reduce_named(
            "count",
            input.into_dist_input(),
            EnvArg::Plain(&()),
            || 0u64,
            |_, n, _| n + 1,
            |a, b| a + b,
        )
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
        self.fold_reduce_named(
            "mean",
            input.into_dist_input(),
            EnvArg::Plain(&()),
            || (0.0f64, 0u64),
            |_, (s, n), x| (s + x, n + 1),
            |(s1, n1), (s2, n2)| (s1 + s2, n1 + n2),
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
        self.collect_named("collect", input.into_dist_input(), env.env_arg(), make)
    }

    fn collect_named<It, E, C, Make>(
        &self,
        name: &str,
        input: DistInput<It>,
        env: EnvArg<'_, E>,
        make: Make,
    ) -> Run<C::Out>
    where
        It: DistIter,
        E: Wire + Send + Sync,
        C: Collector<Item = It::Item> + Wire + Send,
        Make: Fn() -> C + Send + Sync,
    {
        self.fold_reduce_named(
            name,
            input,
            env,
            make,
            |_env, mut c: C, x| {
                c.feed(x);
                c
            },
            |mut a, b| {
                a.merge(b);
                a
            },
        )
        .map(|c| c.finish())
    }

    /// Integer-count histogram over `bins` buckets (tpacf's skeleton).
    pub fn histogram<In>(&self, bins: usize, input: In) -> Run<Vec<u64>>
    where
        In: IntoDistInput<Item = usize>,
    {
        self.collect_named("histogram", input.into_dist_input(), EnvArg::Plain(&()), || {
            triolet_iter::CountHist::new(bins)
        })
    }

    /// Floating-point scatter-add over `cells` cells (cutcp's skeleton: a
    /// "floating-point histogram").
    pub fn scatter_add<In>(&self, cells: usize, input: In) -> Run<Vec<f64>>
    where
        In: IntoDistInput<Item = (usize, f64)>,
    {
        self.collect_named("scatter_add", input.into_dist_input(), EnvArg::Plain(&()), || {
            triolet_iter::WeightHist::new(cells)
        })
    }

    /// Materialize a 1-D input into a vector of `f(env, item)`, preserving
    /// element order (mri-q's pixel map).
    ///
    /// Works for irregular iterators too: each node packs its variable-length
    /// fragment (the paper's variable-length output packing) and the root
    /// concatenates fragments in part order: like [`Triolet::fold_reduce`]'s
    /// partials, fragments are reassembled in chunk order at every level,
    /// never in the order the schedule finishes them. Identity materialization
    /// is `build_vec(it, &(), |_, x| x)`.
    pub fn build_vec<In, Env, U, F>(&self, input: In, env: Env, f: F) -> Run<Vec<U>>
    where
        In: IntoDistInput,
        In::Iter: DistIter<OuterDom = Seq>,
        Env: AsEnv,
        U: Wire + Send + Sync + Clone,
        F: Fn(&Env::Env, In::Item) -> U + Send + Sync,
    {
        let (env, f) = (env.env_arg(), &f);
        let it = match input.into_dist_input() {
            DistInput::Resident(run) => {
                // Resident assembly: each owning rank materializes its
                // part's fragment in place; only fragments travel back.
                let (env_payload, root_prep_s) = self.timed_payload(&env);
                let out = self.run_resident_tasks(run, env_payload.len(), |part, fold| {
                    let penv = env_payload.clone();
                    Box::new(move |ctx: &NodeCtx| {
                        let env: Env::Env =
                            ctx.unpack_sequential(|| penv.unpack().expect("environment roundtrip"));
                        PodView::from_vec(node_collect(ctx, &fold, &part, |x| f(&env, x)))
                    })
                });
                return self.concat_epilogue("build_vec", root_prep_s, out);
            }
            DistInput::Iter(it) => it,
        };
        self.build_ordered("build_vec", it, env, f)
    }

    /// The iterator driver of the ordered-assembly skeletons: materialize
    /// `f(env, item)` for every item of `it` in row-major order of its outer
    /// domain, whose parts must be contiguous in that order.
    fn build_ordered<It, E, U, F>(
        &self,
        name: &str,
        it: It,
        env: EnvArg<'_, E>,
        f: F,
    ) -> Run<Vec<U>>
    where
        It: DistIter,
        E: Wire + Send + Sync,
        U: Wire + Send + Sync + Clone,
        F: Fn(&E, It::Item) -> U + Send + Sync,
    {
        let f = &f;
        let dom = it.outer_domain();
        match it.hint() {
            ParHint::Sequential => {
                let env = env.value();
                self.run_sequential(name, || {
                    let mut out = Vec::with_capacity(dom.count());
                    it.fold_outer_part(&dom.whole_part(), (), &mut |(), x| out.push(f(env, x)));
                    out
                })
            }
            ParHint::LocalPar => {
                let (env, part) = (env.value(), dom.whole_part());
                self.run_localpar(name, |ctx| node_collect(ctx, &it, &part, |x| f(env, x)))
            }
            ParHint::Par => {
                let (env_payload, root_prep_s) = self.timed_payload(&env);
                let tasks = slice_tasks(&it, dom.split_parts(self.nodes()), |sub, part| {
                    let penv = env_payload.clone();
                    Box::new(move |ctx: &NodeCtx| {
                        let sub = ctx.unpack_sequential(|| sub.roundtrip());
                        let env: E =
                            ctx.unpack_sequential(|| penv.unpack().expect("environment roundtrip"));
                        PodView::from_vec(node_collect(ctx, &sub, &part, |x| f(&env, x)))
                    })
                });
                let out = self.cluster.run_raw_with_broadcast(tasks, env_payload.len());
                self.concat_epilogue(name, root_prep_s, out)
            }
        }
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
        self.build_ordered("build_array3", it, EnvArg::Plain(&()), |_, x| x)
            .map(|data| triolet_iter::Array3::from_vec(data, dom))
    }

    /// Materialize a 2-D iterator into a dense matrix (sgemm's output
    /// assembly): nodes compute rectangular blocks, the root places them.
    pub fn build_array2<It>(&self, it: It) -> Run<Array2<It::Item>>
    where
        It: DistIter<OuterDom = Dim2>,
        It::Item: Wire + Send + Sync + Clone + Default,
    {
        /// Compute one block's row-major contents from ordered chunk pieces.
        fn assemble_block<It>(
            ctx: &NodeCtx,
            sub: &It,
            part: &triolet_domain::Dim2Part,
        ) -> Vec<It::Item>
        where
            It: DistIter<OuterDom = Dim2>,
            It::Item: Send + Clone + Default,
        {
            let chunks = part.split(ctx.threads() * CHUNKS_PER_THREAD);
            let pieces = ctx.map_chunks(chunks.clone(), |chunk| {
                let mut v = Vec::with_capacity(chunk.count());
                sub.fold_outer_part(chunk, (), &mut |(), x| v.push(x));
                v
            });
            // Place chunk pieces into the block (sequential on the node).
            ctx.sequential(|| {
                let mut block = vec![It::Item::default(); part.count()];
                for (chunk, piece) in chunks.iter().zip(pieces) {
                    for (k, x) in piece.into_iter().enumerate() {
                        let (r, c) = chunk.index_at(k);
                        let local = (r - part.row0) * part.cols + (c - part.col0);
                        block[local] = x;
                    }
                }
                block
            })
        }

        /// Place one row-major block at its part's coordinates with row-wise
        /// slice copies (no per-element index arithmetic).
        fn place_block<T: Clone>(
            result: &mut Array2<T>,
            result_cols: usize,
            part: &triolet_domain::Dim2Part,
            block: &[T],
        ) {
            let data = result.as_mut_slice();
            for rr in 0..part.rows {
                let src = &block[rr * part.cols..(rr + 1) * part.cols];
                let d0 = (part.row0 + rr) * result_cols + part.col0;
                data[d0..d0 + part.cols].clone_from_slice(src);
            }
        }

        let dom = it.outer_domain();
        match it.hint() {
            ParHint::Sequential => self
                .run_sequential("build_array2", || {
                    // Elements arrive in row-major order; fill directly.
                    let mut data = Vec::with_capacity(dom.count());
                    it.fold_outer_part(&dom.whole_part(), (), &mut |(), x| data.push(x));
                    data
                })
                .map(|data| Array2::from_vec(data, dom.rows, dom.cols)),
            ParHint::LocalPar => {
                let part = dom.whole_part();
                self.run_localpar("build_array2", |ctx| assemble_block(ctx, &it, &part))
                    .map(|data| Array2::from_vec(data, dom.rows, dom.cols))
            }
            ParHint::Par => {
                let parts = dom.split_parts(self.nodes());
                let (tasks, slice_s) = timed(|| {
                    slice_tasks(&it, parts, |sub, part| {
                        Box::new(move |ctx: &NodeCtx| {
                            let sub = ctx.unpack_sequential(|| sub.roundtrip());
                            let block = assemble_block(ctx, &sub, &part);
                            (part, PodView::from_vec(block))
                        })
                    })
                });
                let root_prep_s = slice_s - tasks.iter().map(|t| t.pack_s).sum::<f64>();
                let out = self.cluster.run_raw(tasks);
                // Blocks land at disjoint coordinates, so each is placed
                // as it arrives.
                let result = Array2::zeros(dom.rows, dom.cols);
                self.merge_epilogue(
                    "build_array2",
                    root_prep_s,
                    out,
                    result,
                    |result, (part, block)| place_block(result, dom.cols, &part, &block),
                )
            }
        }
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
        /// The sum's bits and the multiset of per-node (`chunk`, `merge`)
        /// span counts.
        fn shape(run: &Run<f64>, nodes: usize) -> (u64, Vec<(usize, usize)>) {
            let on = |rank: usize, name: &str| {
                let spans = run.trace.spans.iter().filter(|s| s.name == name);
                spans
                    .filter(|s| matches!(s.track, Track::Worker { rank: r, .. } if r == rank))
                    .count()
            };
            let mut per_node: Vec<_> =
                (0..nodes).map(|r| (on(r, "chunk"), on(r, "merge"))).collect();
            per_node.sort_unstable();
            (run.value.to_bits(), per_node)
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
        let store = lossy.cluster().resident_store();
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
            assert_eq!(store.owner(dv.id(), arg("task")), Some(arg("to")));
        }
        assert_eq!(store.segment_count(), 4, "the stale entry is gone: still one per segment");
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
