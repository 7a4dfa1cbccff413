//! Per-node execution context: where two-level parallelism meets the clock.

use std::cell::Cell;

use bytes::Bytes;
use triolet_obs::{TraceData, TraceHandle, Track};
use triolet_pool::vtime::greedy_schedule;
use triolet_serial::{unpack_counted, Wire, WireResult};

use crate::clock::{timed, Laps};

/// The context a node task receives: its rank, its modeled thread count,
/// and a virtual clock.
///
/// All compute inside a node task must go through the context's helpers
/// ([`NodeCtx::map_chunks`], [`NodeCtx::map_reduce_chunks`],
/// [`NodeCtx::sequential`]) so the virtual clock observes it: they run
/// sequentially, time every leaf, and charge the greedy-schedule makespan
/// for the configured thread count — the deterministic replay of a
/// work-stealing execution.
pub struct NodeCtx {
    rank: usize,
    threads: usize,
    vclock: Cell<f64>,
    trace: TraceHandle,
}

impl NodeCtx {
    /// Build a context (the cluster does this; tests may too).
    pub fn new(rank: usize, threads: usize) -> Self {
        NodeCtx {
            rank,
            threads: threads.max(1),
            vclock: Cell::new(0.0),
            trace: TraceHandle::disabled(),
        }
    }

    /// Attach a trace sink; spans are recorded on this node's timeline
    /// (origin = node-task start; the dispatcher rebases them).
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Drain the node-local timeline recorded so far.
    pub fn take_trace(&self) -> TraceData {
        self.trace.take()
    }

    fn node_track(&self) -> Track {
        Track::Node(self.rank)
    }

    fn worker_track(&self, worker: usize) -> Track {
        Track::Worker { rank: self.rank, worker }
    }

    /// This node's rank in the cluster.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Worker threads this node models.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Seconds of node time charged so far.
    ///
    /// This is the task's whole timed footprint: the dispatcher reads it
    /// once after the task body returns and hands it to the simulator's
    /// per-rank walk as the task's node-execution duration, so a rank's
    /// timeline is a chain of these, each gated on payload arrival, rank
    /// availability, and the broadcast environment.
    pub fn elapsed(&self) -> f64 {
        self.vclock.get()
    }

    fn charge(&self, seconds: f64) {
        self.vclock.set(self.vclock.get() + seconds);
    }

    /// Charge modeled (not measured) seconds to this node — used by
    /// baseline runtimes to account costs our substrate does not incur
    /// physically, e.g. Eden's intra-node message copies.
    pub fn charge_seconds(&self, seconds: f64) {
        self.charge(seconds.max(0.0));
    }

    /// Run a sequential section (runs on one thread; charged at full cost).
    pub fn sequential<R>(&self, f: impl FnOnce() -> R) -> R {
        let (r, s) = timed(f);
        self.charge(s);
        r
    }

    /// [`sequential`](Self::sequential) with a labeled span on the node's
    /// timeline (e.g. `"unpack"`/`"pack"` with category `"prep"`).
    pub fn sequential_labeled<R>(
        &self,
        name: &'static str,
        cat: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = self.elapsed();
        let r = self.sequential(f);
        self.trace.span(name, cat, self.node_track(), t0, self.elapsed(), vec![]);
        r
    }

    /// Decode `payload` on this node's clock, emitting an `"unpack"` span
    /// annotated with how many of its slice bytes were memcpy'd vs aliased
    /// in place ([`PodView`](triolet_serial::PodView) fields alias the
    /// received buffer; everything else copies).
    pub fn unpack<T: Wire>(&self, payload: Bytes) -> WireResult<T> {
        let t0 = self.elapsed();
        let decoded = self.sequential(|| unpack_counted(payload));
        let (copied, aliased) = decoded.as_ref().map_or((0, 0), |(_, moved)| *moved);
        self.trace.span(
            "unpack",
            "prep",
            self.node_track(),
            t0,
            self.elapsed(),
            vec![("copied", copied.into()), ("aliased", aliased.into())],
        );
        decoded.map(|(value, _)| value)
    }

    /// Map `leaf` over explicit chunks, preserving order, and charge the
    /// parallel schedule of their measured durations.
    ///
    /// The leaves run one at a time on the calling thread; only their
    /// schedule over [`threads`](Self::threads) workers is modeled. The chunk
    /// list is the thread-level work decomposition (the paper's second level,
    /// §3.4); pass ~4 chunks per thread so the modeled stealing can balance
    /// irregular chunk costs.
    pub fn map_chunks<P, T>(&self, chunks: Vec<P>, leaf: impl Fn(&P) -> T + Sync) -> Vec<T>
    where
        P: Send,
        T: Send,
    {
        let mut durations = Vec::with_capacity(chunks.len());
        let mut out = Vec::with_capacity(chunks.len());
        let mut laps = Laps::start();
        for c in &chunks {
            let (value, d) = laps.lap(|| leaf(c));
            out.push(value);
            durations.push(d.as_secs_f64());
        }
        let sched = greedy_schedule(&durations, self.threads);
        self.trace_schedule(&sched, &durations, &sched.worker_loads, sched.makespan);
        self.charge(sched.makespan);
        out
    }

    /// Emit per-chunk compute spans and per-worker idle spans for a virtual
    /// schedule, placed on the node's timeline starting at the current
    /// virtual clock. Span *names* and ordering are schedule-independent
    /// (chunk order, then worker order) so golden traces stay deterministic;
    /// only the timestamps and worker assignments follow the measured
    /// durations.
    fn trace_schedule(
        &self,
        sched: &triolet_pool::Schedule,
        durations: &[f64],
        final_loads: &[f64],
        span_end: f64,
    ) {
        if !self.trace.enabled() {
            return;
        }
        let base = self.elapsed();
        for (c, &d) in durations.iter().enumerate() {
            let w = sched.assignment[c];
            let s = sched.start_times[c];
            self.trace.span(
                "chunk",
                "compute",
                self.worker_track(w),
                base + s,
                base + s + d,
                vec![("chunk", c.into())],
            );
        }
        for (w, &load) in final_loads.iter().enumerate() {
            self.trace.span(
                "idle",
                "idle",
                self.worker_track(w),
                base + load,
                base + span_end,
                vec![],
            );
        }
    }

    /// Map chunks to private partial results and merge them: the paper's
    /// per-thread private accumulation (each thread builds its own sum or
    /// histogram) followed by a per-node merge.
    ///
    /// The merge always folds partials in chunk order. The virtual schedule
    /// (like a real work-stealing pool) is timing-dependent, so it only
    /// decides what the merges *cost*, never the merge tree — otherwise
    /// floating-point results would vary run to run, and fault recovery
    /// could not promise bit-identical output.
    ///
    /// The fold is streamed: each partial is merged the moment its leaf
    /// returns, so a node never holds more than two live partials (the
    /// accumulator and the one just produced) however many chunks it runs.
    pub fn map_reduce_chunks<P, T>(
        &self,
        chunks: Vec<P>,
        leaf: impl Fn(&P) -> T + Sync,
        mut merge: impl FnMut(T, T) -> T,
    ) -> Option<T>
    where
        P: Send,
        T: Send,
    {
        if chunks.is_empty() {
            return None;
        }
        // Stream: fold each partial into the accumulator as soon as its
        // leaf returns, so at most two partials are ever live. The fold is
        // in chunk order and must not follow the schedule: the greedy
        // assignment depends on *measured* durations, so a schedule-shaped
        // merge tree would reassociate floating-point merges from run to
        // run. A leaf and its merge share a boundary read.
        let mut durations = Vec::with_capacity(chunks.len());
        let mut merge_durations = Vec::with_capacity(chunks.len());
        let mut acc: Option<T> = None;
        let mut laps = Laps::start();
        for c in &chunks {
            let (value, d) = laps.lap(|| leaf(c));
            durations.push(d.as_secs_f64());
            let (merged, d) = laps.lap(|| match acc.take() {
                None => value,
                Some(a) => merge(a, value),
            });
            acc = Some(merged);
            merge_durations.push(d.as_secs_f64());
        }
        // The schedule only decides what the merges *cost*: each is charged
        // to the virtual thread its chunk was assigned to.
        let sched = greedy_schedule(&durations, self.threads);
        let mut worker_loads = sched.worker_loads.clone();
        let mut merge_bounds = Vec::with_capacity(chunks.len());
        for (&w, &d) in sched.assignment.iter().zip(&merge_durations) {
            let pre = worker_loads[w];
            worker_loads[w] += d;
            merge_bounds.push((w, pre, worker_loads[w]));
        }
        let thread_span = worker_loads.iter().cloned().fold(0.0, f64::max);
        self.trace_schedule(&sched, &durations, &worker_loads, thread_span);
        if self.trace.enabled() {
            let base = self.elapsed();
            for (w, pre, post) in merge_bounds {
                self.trace.span(
                    "merge",
                    "merge",
                    self.worker_track(w),
                    base + pre,
                    base + post,
                    vec![],
                );
            }
        }
        self.charge(thread_span);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use triolet_domain::{Domain, Seq, SeqPart};

    fn vctx(threads: usize) -> NodeCtx {
        NodeCtx::new(0, threads)
    }

    #[test]
    fn sequential_charges_time() {
        let ctx = vctx(4);
        let r = ctx.sequential(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(r, 42);
        assert!(ctx.elapsed() >= 0.004);
    }

    #[test]
    fn virtual_map_chunks_results_in_order() {
        let ctx = vctx(4);
        let chunks = Seq::new(100).split_parts(10);
        let firsts = ctx.map_chunks(chunks.clone(), |p: &SeqPart| p.start);
        assert_eq!(firsts, chunks.iter().map(|p| p.start).collect::<Vec<_>>());
    }

    #[test]
    fn virtual_map_reduce_matches_sequential() {
        let ctx = vctx(3);
        let xs: Vec<u64> = (0..1000).collect();
        let chunks = Seq::new(xs.len()).split_parts(12);
        let total = ctx
            .map_reduce_chunks(
                chunks,
                |p: &SeqPart| p.range().map(|i| xs[i]).sum::<u64>(),
                |a, b| a + b,
            )
            .unwrap();
        assert_eq!(total, xs.iter().sum::<u64>());
    }

    #[test]
    fn virtual_merge_tree_ignores_the_schedule() {
        // The greedy schedule is built from measured durations, which
        // jitter run to run. If the merge tree followed it, this f64 fold
        // would reassociate and the bits would disagree across repeats.
        let xs: Vec<f64> = (0..4096).map(|i| (i as f64) * 0.1 + 0.3).collect();
        let run = || {
            let ctx = vctx(3);
            let chunks = Seq::new(xs.len()).split_parts(24);
            ctx.map_reduce_chunks(
                chunks,
                |p: &SeqPart| p.range().map(|i| xs[i]).sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        let bits: Vec<u64> = (0..8).map(|_| run().to_bits()).collect();
        assert!(
            bits.iter().all(|&b| b == bits[0]),
            "virtual-mode merge must be bit-deterministic, got {bits:?}"
        );
    }

    #[test]
    fn traced_reduce_emits_chunk_idle_merge_in_canonical_order() {
        let (threads, n_chunks) = (3, 12);
        let ctx = vctx(threads).with_trace(TraceHandle::recording());
        let chunks = Seq::new(1200).split_parts(n_chunks);
        ctx.map_reduce_chunks(
            chunks,
            |p: &SeqPart| p.range().map(|i| (i as f64).sqrt()).sum::<f64>(),
            |a, b| a + b,
        )
        .unwrap();
        let spans = ctx.take_trace().spans;
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        let mut expect = vec!["chunk"; n_chunks];
        expect.extend(vec!["idle"; threads]);
        expect.extend(vec!["merge"; n_chunks]);
        assert_eq!(names, expect);
        for (c, span) in spans[..n_chunks].iter().enumerate() {
            assert_eq!(span.args, vec![("chunk", c.into())]);
        }
        for (w, span) in spans[n_chunks..n_chunks + threads].iter().enumerate() {
            assert_eq!(span.track, Track::Worker { rank: 0, worker: w });
        }
        // A chunk's merge is charged to the worker that ran the chunk.
        for (chunk, merge) in spans[..n_chunks].iter().zip(&spans[n_chunks + threads..]) {
            assert_eq!(chunk.track, merge.track);
            assert!(merge.t0 >= chunk.t1, "a merge cannot start before its chunk ends");
        }
        let longest_leaf = spans[..n_chunks].iter().map(|s| s.duration()).fold(0.0, f64::max);
        assert!(
            ctx.elapsed() >= longest_leaf,
            "charged {} s, less than the longest leaf {longest_leaf} s",
            ctx.elapsed()
        );
    }

    #[test]
    fn more_virtual_threads_less_charged_time() {
        // Charge a deliberate per-chunk cost and check modeled scaling.
        let busy = |_p: &SeqPart| {
            let t0 = Instant::now();
            let mut x = 0u64;
            while t0.elapsed().as_secs_f64() < 0.002 {
                x = x.wrapping_add(1);
                std::hint::black_box(x);
            }
            x
        };
        // The per-chunk costs are wall-measured, so a shared-tenancy host
        // can skew one arm of the comparison; the modeled speedup only has
        // to be achievable, not hit on every single attempt.
        let chunks = Seq::new(64).split_parts(16);
        let (mut best1, mut best8) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let ctx1 = vctx(1);
            ctx1.map_chunks(chunks.clone(), busy);
            let ctx8 = vctx(8);
            ctx8.map_chunks(chunks.clone(), busy);
            best1 = best1.min(ctx1.elapsed());
            best8 = best8.min(ctx8.elapsed());
            if best8 < best1 / 4.0 {
                break;
            }
        }
        assert!(
            best8 < best1 / 4.0,
            "8 virtual threads must model at least 4x speedup over 1 ({best8} vs {best1})"
        );
    }

    #[test]
    fn empty_chunk_list_is_none() {
        let ctx = vctx(2);
        let r = ctx.map_reduce_chunks(Vec::<SeqPart>::new(), |_| 1u32, |a, b| a + b);
        assert!(r.is_none());
    }
}
