//! C+MPI+OpenMP-style tpacf: explicit dataset distribution and explicit
//! histogram privatization.
//!
//! "The C+MPI+OpenMP code examines the number of threads in order to
//! privatize histograms" — the kernel below allocates one private histogram
//! per thread chunk and reduces them by hand, which is exactly the code a
//! programmer writes after "one or more iterations of performance
//! optimization" (paper §4.4).

use triolet::{NodeCtx, RunStats, SeqPart};
use triolet_baselines::LowLevelRt;
use triolet_domain::{chunk_ranges, Domain, Seq};
use triolet_serial::{wire_struct, PodView};

use super::seq::{cross_correlation_tiled, self_correlation_rows_tiled, self_correlation_tiled};
use super::{hist_len, AngularBins, Point, TpacfInput, TpacfOutput};

/// One rank's hand-built message: its random datasets plus copies of the
/// observed set and the bin edges (the kernel builds the lookup table).
#[derive(Clone)]
struct RankPayload {
    rands: Vec<Vec<Point>>,
    obs: Vec<Point>,
    /// Zero-copy on the node: aliases the received wire buffer when aligned.
    bin_edges: PodView<f64>,
    /// Whether this rank also computes the DD histogram (rank 0 only).
    compute_dd: bool,
}

wire_struct!(RankPayload { rands, obs, bin_edges, compute_dd });

type ThreeHists = (Vec<u64>, Vec<u64>, Vec<u64>);

/// The node kernel: private histograms per thread chunk, reduced by hand.
fn kernel(ctx: &NodeCtx, p: RankPayload) -> ThreeHists {
    let bins = p.bin_edges.len();
    let table = AngularBins::new(p.bin_edges.to_vec());
    // DR + RR: one task per random set, each with private histograms.
    let per_set = ctx.map_chunks(p.rands.clone(), |rand: &Vec<Point>| {
        let mut dr = vec![0u64; bins];
        let mut rr = vec![0u64; bins];
        cross_correlation_tiled(&table, &p.obs, rand, &mut dr);
        self_correlation_tiled(&table, rand, &mut rr);
        (dr, rr)
    });
    // DD on the designated rank: thread-chunked triangular loop with
    // explicitly privatized histograms.
    let dd = if p.compute_dd {
        let n = p.obs.len();
        let chunks = Seq::new(n).split_parts(ctx.threads() * 4);
        let privates = ctx.map_chunks(chunks, |c: &SeqPart| {
            let mut h = vec![0u64; bins];
            self_correlation_rows_tiled(&table, &p.obs, c.start, c.end(), &mut h);
            h
        });
        ctx.sequential(|| {
            let mut dd = vec![0u64; bins];
            for h in privates {
                for (a, b) in dd.iter_mut().zip(h) {
                    *a += b;
                }
            }
            dd
        })
    } else {
        vec![0u64; bins]
    };
    // Per-node reduction of the per-set histograms.
    ctx.sequential(|| {
        let mut dr = vec![0u64; bins];
        let mut rr = vec![0u64; bins];
        for (d, r) in per_set {
            for (a, b) in dr.iter_mut().zip(d) {
                *a += b;
            }
            for (a, b) in rr.iter_mut().zip(r) {
                *a += b;
            }
        }
        (dd, dr, rr)
    })
}

/// Run tpacf with hand-written partitioning on `rt`.
pub fn run_lowlevel(rt: &LowLevelRt, input: &TpacfInput) -> (TpacfOutput, RunStats) {
    let bins = hist_len(input);
    // Root: distribute random sets across ranks; rank 0 also gets DD.
    let ranges = chunk_ranges(input.rands.len(), rt.nodes());
    let payloads: Vec<RankPayload> = ranges
        .iter()
        .enumerate()
        .map(|(rank, &(s, l))| RankPayload {
            rands: input.rands[s..s + l].to_vec(),
            obs: input.obs.clone(),
            bin_edges: PodView::from_vec(input.bin_edges.edges().to_vec()),
            compute_dd: rank == 0,
        })
        .collect();
    // Handle the degenerate no-random-sets case: rank 0 still does DD.
    let payloads = if payloads.is_empty() {
        vec![RankPayload {
            rands: Vec::new(),
            obs: input.obs.clone(),
            bin_edges: PodView::from_vec(input.bin_edges.edges().to_vec()),
            compute_dd: true,
        }]
    } else {
        payloads
    };

    rt.run(payloads, kernel, move |partials| {
        let mut dd = vec![0u64; bins];
        let mut dr = vec![0u64; bins];
        let mut rr = vec![0u64; bins];
        for (d1, d2, d3) in partials {
            for (a, b) in dd.iter_mut().zip(d1) {
                *a += b;
            }
            for (a, b) in dr.iter_mut().zip(d2) {
                *a += b;
            }
            for (a, b) in rr.iter_mut().zip(d3) {
                *a += b;
            }
        }
        TpacfOutput { dd, dr, rr }
    })
}
