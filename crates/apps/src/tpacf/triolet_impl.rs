//! Triolet implementation: the paper's Figure 6, transcribed.
//!
//! ```python
//! def correlation(size, pairs):
//!     values = (score(size, u, v) for (u, v) in pairs)
//!     return histogram(size, values)
//!
//! def randomSetsCorrelation(size, corr1, rands):
//!     return reduce(add, empty, par(corr1(r) for r in rands))
//!
//! def selfCorrelations(size, obs, rands):
//!     def corr1(rand):
//!         indexed_rand = zip(indices(domain(rand)), rand)
//!         pairs = localpar((u, v) for (i, u) in indexed_rand
//!                                 for v in rand[i+1:])
//!         return correlation(size, pairs)
//!     return randomSetsCorrelation(size, corr1, rands)
//! ```
//!
//! The outer loop parallelizes across random datasets (`par`), slicing the
//! dataset array so each node receives only its datasets; the triangular
//! inner pair loop is the hybrid-iterator showpiece — `zip` + `concat_map`
//! over suffixes fused straight into the histogram collector. The DD loop
//! runs the same pair iterator `localpar` over the observed set.

use std::sync::Arc;

use triolet::prelude::*;
use triolet::{Collector, CountHist};
use triolet_iter::StepFlat;

use super::{hist_len, score, AngularBins, Point, TpacfInput, TpacfOutput};

/// The fused triangular pair loop of Figure 6 lines 15–18, drained into a
/// histogram (the `correlation` function): runs inside one task.
fn corr1_self(table: &Arc<AngularBins>, rand: &[Point], bins: usize) -> CountHist {
    let data = Arc::new(rand.to_vec());
    let inner_data = Arc::clone(&data);
    let table = Arc::clone(table);
    let pairs = zip(range(data.len()), from_vec(rand.to_vec()))
        .concat_map(move |(i, u): (usize, Point)| {
            let rand = Arc::clone(&inner_data);
            StepFlat::new((i + 1..rand.len()).map(move |j| (u, rand[j])))
        })
        .map(move |(u, v): (Point, Point)| score(&table, u, v));
    let mut h = CountHist::new(bins);
    pairs.collect_into(&mut h);
    h
}

/// Cross-correlation pair loop for one dataset against the observed set.
fn corr1_cross(table: &Arc<AngularBins>, obs: &[Point], rand: &[Point], bins: usize) -> CountHist {
    let obs = Arc::new(obs.to_vec());
    let table = Arc::clone(table);
    let pairs = from_vec(rand.to_vec())
        .concat_map(move |v: Point| {
            let obs = Arc::clone(&obs);
            StepFlat::new((0..obs.len()).map(move |i| (obs[i], v)))
        })
        .map(move |(u, v): (Point, Point)| score(&table, u, v));
    let mut h = CountHist::new(bins);
    pairs.collect_into(&mut h);
    h
}

/// Run tpacf through the Triolet skeletons on `rt`.
pub fn run_triolet(rt: &Triolet, input: &TpacfInput) -> Run<TpacfOutput> {
    let bins = hist_len(input);
    let table = Arc::new(input.bin_edges.clone());

    // --- DD: self-correlation of the observed set, localpar --------------
    let dd_table = Arc::clone(&table);
    let obs_data = Arc::new(input.obs.clone());
    let inner_obs = Arc::clone(&obs_data);
    let dd_pairs = zip(range(input.obs.len()), from_vec(input.obs.clone()))
        .concat_map(move |(i, u): (usize, Point)| {
            let obs = Arc::clone(&inner_obs);
            StepFlat::new((i + 1..obs.len()).map(move |j| (u, obs[j])))
        })
        .map(move |(u, v): (Point, Point)| score(&dd_table, u, v))
        .localpar();
    let mut dd = rt.histogram(bins, dd_pairs);

    // --- Scatter the random sets once; RR and DR run over the resident
    // segments, so the datasets cross the wire a single time for both
    // correlation phases instead of once per phase.
    let rands = rt.scatter(input.rands.clone());

    // --- RR: self-correlation of each random set, par over sets ----------
    let rr_table = Arc::clone(&table);
    let rr = rt.fold_reduce(
        &rands.value,
        &(),
        move || CountHist::new(bins),
        move |(), mut h: CountHist, rand: Vec<Point>| {
            h.merge(corr1_self(&rr_table, &rand, bins));
            h
        },
        |mut a, b| {
            a.merge(b);
            a
        },
    );

    // --- DR: each random set against the observed set (broadcast env) ----
    // The observed set is packed to wire bytes exactly once here; the
    // skeleton reuses the shared buffer for every node and retransmission.
    let obs_env = rt.pack_env(input.obs.clone());
    let dr_table = Arc::clone(&table);
    let dr = rt.fold_reduce(
        &rands.value,
        &obs_env,
        move || CountHist::new(bins),
        move |obs: &Vec<Point>, mut h: CountHist, rand: Vec<Point>| {
            h.merge(corr1_cross(&dr_table, obs, &rand, bins));
            h
        },
        |mut a, b| {
            a.merge(b);
            a
        },
    );

    // Four phases back to back: stats add, traces concatenate in time. The
    // chain keeps the last phase's value, so the earlier histograms are
    // taken out first.
    let mut rr = rr.map(CountHist::finish);
    let (dd_hist, rr_hist) = (std::mem::take(&mut dd.value), std::mem::take(&mut rr.value));
    dd.then(rands).then(rr).then(dr).map(|dr| TpacfOutput {
        dd: dd_hist,
        dr: dr.finish(),
        rr: rr_hist,
    })
}
