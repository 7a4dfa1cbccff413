//! Tests for the node-level streamed reduction
//! (`NodeCtx::map_reduce_chunks`): whatever the chunk count,
//! the modeled thread count and the per-leaf cost (which together decide
//! the greedy schedule), the value is the plain chunk-order left fold, and
//! the node never holds more than two partials at once. Fixed shapes first,
//! then property tests over random ones.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use triolet_cluster::NodeCtx;
use triolet_domain::{Domain, Part, Seq, SeqPart};

/// Counts the [`Tracked`] partials alive at once (one gauge per case).
#[derive(Default)]
struct LiveGauge {
    live: AtomicUsize,
    max: AtomicUsize,
}

struct Tracked<'g> {
    gauge: &'g LiveGauge,
    value: f64,
}

impl<'g> Tracked<'g> {
    fn new(gauge: &'g LiveGauge, value: f64) -> Self {
        let live = gauge.live.fetch_add(1, Ordering::SeqCst) + 1;
        gauge.max.fetch_max(live, Ordering::SeqCst);
        Tracked { gauge, value }
    }
}

impl Drop for Tracked<'_> {
    fn drop(&mut self) {
        self.gauge.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One chunk of work: the values its leaf sums and how long the leaf spins,
/// so chunk durations (and with them the greedy schedule) vary per case.
type Chunk = (Vec<f64>, u32);

fn spin(iters: u32) {
    let mut x = 0u64;
    for i in 0..iters {
        x = std::hint::black_box(x.wrapping_add(i as u64));
    }
}

/// The oracle, and the body the streaming fold replaced: materialize every
/// partial, then left-fold in chunk order.
fn collect_then_reduce<P, T>(
    chunks: &[P],
    leaf: impl Fn(&P) -> T,
    merge: impl FnMut(T, T) -> T,
) -> Option<T> {
    chunks.iter().map(leaf).collect::<Vec<T>>().into_iter().reduce(merge)
}

fn vctx(threads: usize) -> NodeCtx {
    NodeCtx::new(0, threads)
}

#[test]
fn sixty_four_chunks_keep_at_most_two_partials_live() {
    for threads in [1, 4, 16] {
        let gauge = LiveGauge::default();
        let chunks = Seq::new(6400).split_parts(64);
        assert_eq!(chunks.len(), 64);
        let total = vctx(threads)
            .map_reduce_chunks(
                chunks,
                |p: &SeqPart| Tracked::new(&gauge, p.count() as f64),
                |mut a, b| {
                    a.value += b.value;
                    a
                },
            )
            .unwrap();
        assert_eq!(total.value, 6400.0);
        let max = gauge.max.load(Ordering::SeqCst);
        assert!(max <= 2, "{max} partials live at once at {threads} threads (want <= 2)");
        drop(total);
        assert_eq!(gauge.live.load(Ordering::SeqCst), 0, "a partial leaked");
    }
}

#[test]
fn streaming_fold_equals_the_oracle_on_fixed_shapes() {
    let xs: Vec<f64> = (0..5000).map(|i| ((i * 37 % 101) as f64) * 0.1 + 1e-3).collect();
    for (threads, n_chunks) in [(1, 1), (1, 7), (3, 24), (16, 64), (4, 5000)] {
        let chunks = Seq::new(xs.len()).split_parts(n_chunks);
        // Non-commutative: any reordering of the fold changes the string.
        let name = |p: &SeqPart| format!("[{}+{}]", p.start, p.count());
        let cat = |a: String, b: String| a + &b;
        assert_eq!(
            vctx(threads).map_reduce_chunks(chunks.clone(), name, cat),
            collect_then_reduce(&chunks, name, cat)
        );
        // Approximately associative: any re-association changes the bits.
        let sum = |p: &SeqPart| p.range().map(|i| xs[i]).sum::<f64>();
        let add = |a: f64, b: f64| a + b;
        assert_eq!(
            vctx(threads).map_reduce_chunks(chunks.clone(), sum, add).map(f64::to_bits),
            collect_then_reduce(&chunks, sum, add).map(f64::to_bits)
        );
    }
}

fn chunks_strategy() -> impl Strategy<Value = Vec<Chunk>> {
    proptest::collection::vec(
        (proptest::collection::vec(-1.0e6f64..1.0e6, 0..40), 0u32..20_000),
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn float_sum_is_bit_equal_to_the_oracle_with_two_partials_live(
        chunks in chunks_strategy(),
        threads in 1usize..20,
    ) {
        let sum = |c: &Chunk| {
            spin(c.1);
            c.0.iter().sum::<f64>()
        };
        let expect = collect_then_reduce(&chunks, sum, |a, b| a + b).map(f64::to_bits);

        let gauge = LiveGauge::default();
        let got = vctx(threads).map_reduce_chunks(
            chunks,
            |c: &Chunk| Tracked::new(&gauge, sum(c)),
            |mut a, b| {
                a.value += b.value;
                a
            },
        );
        prop_assert_eq!(got.map(|t| t.value.to_bits()), expect);
        prop_assert!(gauge.max.load(Ordering::SeqCst) <= 2);
        prop_assert_eq!(gauge.live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn non_commutative_merges_keep_chunk_order(
        chunks in chunks_strategy(),
        threads in 1usize..20,
    ) {
        let ctx = vctx(threads);

        let bits = |c: &Chunk| {
            spin(c.1);
            c.0.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
        };
        let append = |mut a: Vec<u64>, b: Vec<u64>| {
            a.extend(b);
            a
        };
        prop_assert_eq!(
            ctx.map_reduce_chunks(chunks.clone(), bits, append),
            collect_then_reduce(&chunks, bits, append)
        );

        let label = |c: &Chunk| format!("<{}:{}>", c.0.len(), c.1);
        let concat = |a: String, b: String| a + &b;
        prop_assert_eq!(
            ctx.map_reduce_chunks(chunks.clone(), label, concat),
            collect_then_reduce(&chunks, label, concat)
        );
    }
}
