//! Eden-style tpacf (paper §4.4).
//!
//! "The Eden code subdivides data in order to produce enough work to occupy
//! all threads" and pays "somewhat worse sequential performance and a higher
//! communication overhead": every task input carries its own copy of the
//! observed set (input data "unnecessarily replicated for use in multiple
//! loop iterations", §1), and the pair loops run through boxed stepper
//! pipelines — the 2–5x nested-traversal penalty of §3.1.

use triolet::RunStats;
use triolet_baselines::{boxed_pipeline, EdenError, EdenRt};
use triolet_serial::wire_struct;

use super::{hist_len, score, AngularBins, Point, TpacfInput, TpacfOutput};

/// One Eden task: a random set (or a DD marker) plus replicated context.
#[derive(Clone)]
pub struct EdenTask {
    /// `None`: compute DD over `obs`; `Some(rand)`: compute DR and RR for
    /// one random set.
    rand: Option<Vec<Point>>,
    obs: Vec<Point>,
    bin_edges: Vec<f64>,
}

wire_struct!(EdenTask { rand, obs, bin_edges });

type ThreeHists = (Vec<u64>, Vec<u64>, Vec<u64>);

/// Self-correlation through boxed pipelines (the unfused stepper chain).
fn boxed_self(table: &AngularBins, set: &[Point], hist: &mut [u64]) {
    let pairs = boxed_pipeline((0..set.len()).flat_map(|i| {
        let u = set[i];
        boxed_pipeline(set[i + 1..].iter().map(move |&v| (u, v)))
    }));
    let scored = boxed_pipeline(pairs.map(|(u, v)| score(table, u, v)));
    for bin in scored {
        hist[bin] += 1;
    }
}

/// Cross-correlation through boxed pipelines.
fn boxed_cross(table: &AngularBins, a: &[Point], b: &[Point], hist: &mut [u64]) {
    let pairs =
        boxed_pipeline(a.iter().flat_map(|&u| boxed_pipeline(b.iter().map(move |&v| (u, v)))));
    let scored = boxed_pipeline(pairs.map(|(u, v)| score(table, u, v)));
    for bin in scored {
        hist[bin] += 1;
    }
}

/// Run tpacf through the Eden runtime.
pub fn run_eden(rt: &EdenRt, input: &TpacfInput) -> Result<(TpacfOutput, RunStats), EdenError> {
    let bins = hist_len(input);
    let mut tasks: Vec<EdenTask> = vec![EdenTask {
        rand: None,
        obs: input.obs.clone(),
        bin_edges: input.bin_edges.edges().to_vec(),
    }];
    for rand in &input.rands {
        tasks.push(EdenTask {
            rand: Some(rand.clone()),
            obs: input.obs.clone(), // replicated per task
            bin_edges: input.bin_edges.edges().to_vec(),
        });
    }

    let (out, stats) = rt.map_reduce(
        tasks,
        move |t: EdenTask| -> ThreeHists {
            let mut dd = vec![0u64; bins];
            let mut dr = vec![0u64; bins];
            let mut rr = vec![0u64; bins];
            let table = AngularBins::new(t.bin_edges);
            match &t.rand {
                None => boxed_self(&table, &t.obs, &mut dd),
                Some(rand) => {
                    boxed_cross(&table, &t.obs, rand, &mut dr);
                    boxed_self(&table, rand, &mut rr);
                }
            }
            (dd, dr, rr)
        },
        |mut a, b| {
            for (x, y) in a.0.iter_mut().zip(b.0) {
                *x += y;
            }
            for (x, y) in a.1.iter_mut().zip(b.1) {
                *x += y;
            }
            for (x, y) in a.2.iter_mut().zip(b.2) {
                *x += y;
            }
            a
        },
        move || (vec![0u64; bins], vec![0u64; bins], vec![0u64; bins]),
    )?;

    Ok((TpacfOutput { dd: out.0, dr: out.1, rr: out.2 }, stats))
}
