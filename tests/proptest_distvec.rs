//! Property-based gate for resident execution: for random data, random
//! cluster shapes and seeded fault schedules (including
//! whole-rank crashes that force resident segments to re-ship), a skeleton
//! over a resident `DistVec` must be **bit-identical** to the same skeleton
//! over a re-broadcast iterator — and a crash must be paid for once per
//! collection, through every view, however many sweeps follow. Under a
//! non-empty environment a resident hit has no message of its own: the
//! last suite pins what that may and may not change.

use proptest::prelude::*;
use triolet::prelude::*;
use triolet::{Track, Wire};

mod common;
use common::{cluster, lossy, plan_for, shapes};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// f64 sums: addition is not associative in floating point, so bit
    /// equality here proves resident chunking replays the iterator
    /// chunking exactly.
    #[test]
    fn resident_f64_fold_is_bit_identical(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..400),
        shape in shapes(8, 4),
        seed in 0u64..3000,
    ) {
        let faults = plan_for(seed, shape.0);
        let rt = Triolet::new(cluster(shape, faults));
        let fold = |input: DistInputOf<f64>, rt: &Triolet| {
            match input {
                DistInputOf::Resident(dv) => rt.fold_reduce(
                    &dv, &(), || 0.0f64, |(), a, x: f64| a + x * 0.5 + 1.0, |a, b| a + b,
                ),
                DistInputOf::Iter(xs) => rt.fold_reduce(
                    from_vec(xs).par(), &(), || 0.0f64, |(), a, x: f64| a + x * 0.5 + 1.0,
                    |a, b| a + b,
                ),
            }
        };
        let dv = rt.scatter(xs.clone()).value;
        let resident = fold(DistInputOf::Resident(dv), &rt);
        let rebroadcast = fold(DistInputOf::Iter(xs), &rt);
        prop_assert_eq!(resident.value.to_bits(), rebroadcast.value.to_bits());
        if faults.is_none() {
            prop_assert_eq!(resident.stats.bytes_out, 0);
            prop_assert_eq!(resident.stats.resident_misses, 0);
        }
    }

    /// A non-commutative merge (list concatenation): resident execution
    /// must preserve global element order exactly, even when a crashed
    /// rank forces its segment to re-ship and re-run elsewhere.
    #[test]
    fn resident_concat_fold_preserves_order(
        xs in proptest::collection::vec(any::<u32>(), 1..300),
        shape in shapes(8, 4),
        seed in 0u64..3000,
    ) {
        let rt = Triolet::new(cluster(shape, plan_for(seed, shape.0)));
        let concat = |rt: &Triolet, dv: &DistVec<u32>| {
            rt.fold_reduce(
                dv,
                &(),
                Vec::new,
                |(), mut acc: Vec<u32>, x: u32| { acc.push(x); acc },
                |mut a, mut b| { a.append(&mut b); a },
            )
        };
        let dv = rt.scatter(xs.clone()).value;
        let got = concat(&rt, &dv);
        prop_assert_eq!(got.value, xs);
    }

    /// build_vec over resident segments and views preserves order under
    /// every shape.
    #[test]
    fn resident_build_vec_matches_map(
        xs in proptest::collection::vec(any::<u32>(), 1..300),
        shape in shapes(8, 4),
        seed in 0u64..3000,
    ) {
        let rt = Triolet::new(cluster(shape, plan_for(seed, shape.0)));
        let dv = rt.scatter(xs.clone()).value;
        let got = rt.build_vec(&dv, &(), |_, x: u32| x as u64 * 3 + 1);
        let expect: Vec<u64> = xs.iter().map(|&x| x as u64 * 3 + 1).collect();
        prop_assert_eq!(got.value, expect);

        let lo = xs.len() / 4;
        let hi = xs.len() - xs.len() / 4;
        let got = rt.build_vec(dv.slice(lo..hi), &(), |_, x: u32| x as u64 + 9);
        let expect: Vec<u64> = xs[lo..hi].iter().map(|&x| x as u64 + 9).collect();
        prop_assert_eq!(got.value, expect);
    }
}

/// The three resident collections the healing property sweeps over, on one
/// runtime: two vectors of identical segmentation and a 3-column matrix.
struct Collections {
    a: DistVec<f64>,
    b: DistVec<f64>,
    m: DistArray2<f64>,
}

const COLS: usize = 3;
const VIEWS: u64 = 6;
const ZIP: u64 = 3;

impl Collections {
    fn scatter(rt: &Triolet, xs: &[f64]) -> Self {
        let rows = xs.len() / COLS;
        Collections {
            a: rt.scatter(xs.to_vec()).value,
            b: rt.scatter(xs.iter().map(|x| x * 0.5 - 1.0).collect()).value,
            m: rt.scatter_array2(Array2::from_vec(xs[..rows * COLS].to_vec(), rows, COLS)).value,
        }
    }

    /// One sweep through view number `view`; returns the result's bits
    /// (every element's, for `build_vec`) and the sweep's stats.
    fn sweep(&self, rt: &Triolet, view: u64, build: bool) -> (Vec<u64>, RunStats) {
        let n = self.a.len();
        let window = |(i, w): (usize, Vec<f64>)| w.iter().sum::<f64>() + i as f64;
        match view {
            0 => run_view(rt, &self.a, build, |x: f64| x),
            1 => run_view(rt, self.a.slice(n / 4..n - n / 4), build, |x: f64| x),
            2 => run_view(rt, self.a.enumerate(), build, |(i, x): (usize, f64)| x * i as f64),
            ZIP => run_view(rt, self.a.zip(&self.b), build, |(x, y): (f64, f64)| x * y),
            4 => run_view(rt, self.a.halo(2), build, window),
            _ => run_view(rt, self.m.row_view(), build, window),
        }
    }
}

/// `fold_reduce` (an f64 sum: not associative, so equal bits mean equal
/// association) or `build_vec` of `g` over `input`.
fn run_view<In>(
    rt: &Triolet,
    input: In,
    build: bool,
    g: impl Fn(In::Item) -> f64 + Send + Sync,
) -> (Vec<u64>, RunStats)
where
    In: IntoDistInput,
    In::Iter: DistIter<OuterDom = Seq>,
{
    if build {
        let run = rt.build_vec(input, &(), |(), x| g(x));
        (run.value.iter().map(|v| v.to_bits()).collect(), run.stats)
    } else {
        let run = rt.fold_reduce(input, &(), || 0.0f64, |(), acc, x| acc + g(x), |a, b| a + b);
        (vec![run.value.to_bits()], run.stats)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each view is the iterator it stands for: `fold_reduce` and
    /// `build_vec` over `&dv`, `enumerate()`, `zip(&w)` and `halo(r)` give
    /// the bits of the same skeleton over the equivalent `.par()` iterator,
    /// under any shape and fault schedule. Unlike a faulty run
    /// against a clean one, this fails for a view that yields a wrong
    /// element, index or window.
    #[test]
    fn each_view_equals_its_iterator(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
        shape in shapes(8, 4),
        seed in 0u64..3000,
        radius in 0usize..4,
    ) {
        let rt = Triolet::new(cluster(shape, plan_for(seed, shape.0)));
        let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 - 1.0).collect();
        let (dv, dw) = (rt.scatter(xs.clone()).value, rt.scatter(ys.clone()).value);
        let n = xs.len();
        let all = std::sync::Arc::new(xs.clone());
        let halo = range(n).map(move |i: usize| {
            let (lo, hi) = (i.saturating_sub(radius), (i + radius + 1).min(all.len()));
            (i, all[lo..hi].to_vec())
        });
        let window = |(i, w): (usize, Vec<f64>)| {
            w.iter().enumerate().map(|(k, x)| x * (k + 1) as f64).sum::<f64>() + i as f64
        };
        let at = |(i, x): (usize, f64)| x + i as f64 * 0.25;
        let dot = |(x, y): (f64, f64)| x * y;
        for build in [false, true] {
            let bits = |(bits, _): (Vec<u64>, RunStats)| bits;
            prop_assert_eq!(
                bits(run_view(&rt, &dv, build, |x: f64| x)),
                bits(run_view(&rt, from_vec(xs.clone()).par(), build, |x: f64| x)),
                "&dv, build {}", build
            );
            prop_assert_eq!(
                bits(run_view(&rt, dv.enumerate(), build, at)),
                bits(run_view(&rt, enumerate(from_vec(xs.clone())).par(), build, at)),
                "enumerate, build {}", build
            );
            prop_assert_eq!(
                bits(run_view(&rt, dv.zip(&dw), build, dot)),
                bits(run_view(&rt, zip(from_vec(xs.clone()), from_vec(ys.clone())).par(), build, dot)),
                "zip, build {}", build
            );
            prop_assert_eq!(
                bits(run_view(&rt, dv.halo(radius), build, window)),
                bits(run_view(&rt, halo.clone().par(), build, window)),
                "halo({}), build {}", radius, build
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Healing: with a crashed rank, sweeping any view any number of times
    /// gives the fault-free bits every time, misses at most once per
    /// segment that started on the dead rank, and never again after the
    /// sweep that detected the crash.
    #[test]
    fn a_crash_is_paid_for_once_through_every_view(
        xs in proptest::collection::vec(-1e6f64..1e6, COLS..300),
        (nodes, tpn) in (2usize..=9, 1usize..=3),
        (seed, crash) in (0u64..1000, 0usize..8),
        (view, build, sweeps) in (0..VIEWS, 0u8..2, 1usize..=6),
    ) {
        // Rank 0 is the root's own node and the redispatch target of last
        // resort, so the crash hits ranks 1+.
        let crash = 1 + crash % (nodes - 1);
        let faulty_rt =
            Triolet::new(cluster((nodes, tpn), Some(lossy(seed).with_crash(crash))));
        let clean_rt = Triolet::new(cluster((nodes, tpn), None));
        let faulty = Collections::scatter(&faulty_rt, &xs);
        let clean = Collections::scatter(&clean_rt, &xs);

        // Segments that start on the dead rank, among the collections the
        // view reads (short inputs split into fewer segments than ranks).
        let on_dead = |segments: usize| usize::from(segments > crash) as u64;
        let mut budget = match view {
            ZIP => 2 * on_dead(faulty.a.segments()),
            5 => on_dead(faulty.m.segments()),
            _ => on_dead(faulty.a.segments()),
        };
        let mut healed = false;
        if view == ZIP {
            // Move one operand alone first: the zipped sweeps then meet a
            // pair whose segments live on different ranks.
            let (_, stats) = faulty.sweep(&faulty_rt, 0, false);
            healed = stats.resident_misses > 0;
            budget -= stats.resident_misses.min(budget);
        }
        for sweep in 0..sweeps {
            let (got, stats) = faulty.sweep(&faulty_rt, view, build == 1);
            let (expect, _) = clean.sweep(&clean_rt, view, build == 1);
            prop_assert_eq!(got, expect, "sweep {} diverged from the fault-free bits", sweep);
            prop_assert!(
                stats.resident_misses <= budget,
                "sweep {} missed {} times with {} unhealed segments",
                sweep, stats.resident_misses, budget
            );
            prop_assert!(
                !(healed && stats.resident_misses > 0),
                "sweep {} missed after the crash was already paid for", sweep
            );
            healed |= stats.resident_misses > 0;
            budget -= stats.resident_misses;
        }
    }
}

/// `(Σ attempts, Σ bytes × attempts)` over the message spans called `name`:
/// under a plan that never duplicates, the copies of those messages that
/// crossed the wire and the bytes they carried.
fn wire_of(trace: &TraceData, name: &str) -> (u64, u64) {
    let spans = trace.spans.iter().filter(|s| s.name == name);
    spans.fold((0, 0), |(copies, bytes), s| {
        let attempts = s.arg_u64("attempts").expect("a message span");
        (copies + attempts, bytes + attempts * s.arg_u64("bytes").expect("a message span"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The environment's arrival is the start signal: a resident task with
    /// a live home and nothing to send gets no message of its own. That
    /// must change no bit (resident == re-broadcast, element order ==
    /// sequential), no byte (the skipped messages were empty: bytes are
    /// still the environment's edge copies plus the one segment a crash
    /// re-ships), and exactly the messages it removes — every message left
    /// is an environment edge, a return, or a hop that did not ride, and
    /// the only hops that do not ride are the probes of a dead home and the
    /// redispatch that follows them.
    #[test]
    fn resident_hits_ride_the_environment_without_moving_a_bit_or_a_byte(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
        env in proptest::collection::vec(-2.0f64..2.0, 1..40),
        shape in shapes(8, 3),
        seed in 0u64..3000,
    ) {
        // A third of seeds run clean, a third over a dropping link, a third
        // with a crashed rank besides (never duplicating: see `wire_of`).
        let nodes = shape.0;
        let crash = (seed % 3 == 2 && nodes > 1).then_some((seed as usize / 3) % nodes);
        let plan = match (seed % 3, crash) {
            (0, _) => None,
            (_, Some(rank)) => Some(lossy(seed).with_crash(rank)),
            _ => Some(lossy(seed)),
        };
        let rt = Triolet::new(cluster(shape, plan).with_trace(true));
        // An f64 sum (association-sensitive) beside the elements in fold
        // order (order-sensitive), both reading the environment.
        type Acc = (f64, Vec<u64>);
        let step = |w: &Vec<f64>, (sum, mut seen): Acc, x: f64| {
            seen.push(x.to_bits());
            (sum + x * w[0] + w[w.len() - 1], seen)
        };
        let merge = |(a, mut left): Acc, (b, mut right): Acc| {
            left.append(&mut right);
            (a + b, left)
        };
        let seed_acc = || (0.0f64, Vec::new());
        let dv = rt.scatter(xs.clone()).value;
        let segments = dv.segments() as u64;
        let first = rt.fold_reduce(&dv, &env, seed_acc, step, merge);
        let healed = rt.fold_reduce(&dv, &env, seed_acc, step, merge);
        let rebroadcast = rt.fold_reduce(from_vec(xs.clone()).par(), &env, seed_acc, step, merge);

        let in_order: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        for run in [&first, &healed] {
            prop_assert_eq!(run.value.0.to_bits(), rebroadcast.value.0.to_bits());
            prop_assert_eq!(&run.value.1, &in_order);
        }
        prop_assert_eq!(&rebroadcast.value.1, &in_order);

        let env_bytes = env.packed_size() as u64;
        // Segments start on the rank of their slot: the dead rank's task is
        // the one probed and redispatched, on the first sweep only.
        let on_dead = crash.map_or(0, |rank| u64::from(segments > rank as u64));
        for (run, unhealed) in [(&first, on_dead), (&healed, 0)] {
            let (t, stats) = (&run.trace, &run.stats);
            let edges = t.spans.iter().filter(|s| s.name == "comm:tree");
            prop_assert!(edges.clone().all(|s| s.arg_u64("bytes") == Some(env_bytes)));
            // One edge per executing rank (a survivor may hold two tasks).
            let on_node = |s: &triolet_obs::Span| match s.track {
                Track::Node(rank) if s.name == "node:task" => Some(rank),
                _ => None,
            };
            let mut ranks: Vec<usize> = t.spans.iter().filter_map(on_node).collect();
            ranks.sort_unstable();
            ranks.dedup();
            prop_assert_eq!(edges.count(), ranks.len());
            let (tree, sent, returned) =
                (wire_of(t, "comm:tree"), wire_of(t, "send"), wire_of(t, "return"));
            prop_assert_eq!(stats.messages, tree.0 + sent.0 + returned.0);
            prop_assert_eq!(stats.bytes_out, env_bytes * tree.0 + sent.1);
            prop_assert_eq!(t.count_events("task:ride") as u64, segments - unhealed);
            prop_assert_eq!(
                (stats.resident_hits, stats.resident_misses),
                (segments - unhealed, unhealed)
            );
            // Probes of the dead home are empty; the survivor's copy of the
            // segment is the only task byte on the wire.
            let sends: Vec<_> = t.spans.iter().filter(|s| s.name == "send").collect();
            prop_assert_eq!(sends.len() as u64, 2 * unhealed);
            let dead = crash.map(|rank| rank as u64);
            let mut probes = sends.iter().filter(|s| s.arg_u64("dest") == dead);
            prop_assert!(probes.all(|s| s.arg_u64("bytes") == Some(0)));
            prop_assert_eq!(stats.retries as usize, t.count_events("retry"));
            if plan.is_none() {
                prop_assert_eq!(
                    (stats.messages, stats.bytes_out),
                    (2 * segments, env_bytes * segments)
                );
            }
        }
    }
}

/// Helper enum so one closure body drives both arms (keeps the step
/// expressions textually identical, which is the point of the test).
enum DistInputOf<T> {
    Resident(DistVec<T>),
    Iter(Vec<T>),
}
