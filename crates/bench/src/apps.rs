//! The paper's apps at `repro`'s scales, and the speedup sweeps over them,
//! read from the app table.

use triolet::prelude::*;
use triolet_apps::table::{Impl, Instance, Scale, APPS};

use crate::sweep::{core_points, median_seconds, SweepRow};

/// The inputs at `scale` of the paper's four apps (the table's first four);
/// the `i`-th app's input has seed `i + 1`.
pub fn workloads(scale: Scale) -> Vec<Box<dyn Instance>> {
    APPS[..4].iter().zip(1..).map(|(app, seed)| app.at(scale, seed)).collect()
}

/// The input of the app named `name`.
pub fn find<'a>(set: &'a [Box<dyn Instance>], name: &str) -> &'a dyn Instance {
    &**set.iter().find(|input| input.app().name() == name).expect("a paper app")
}

/// Median host seconds of `reps` runs of the sequential ("C") version.
pub fn seq_seconds(input: &dyn Instance, reps: usize) -> f64 {
    let cfg = ClusterConfig::virtual_cluster(1, 1);
    median_seconds(reps, || {
        std::hint::black_box(
            input.run(Impl::Seq, cfg).expect("every app has a sequential version"),
        );
    })
}

/// Modeled seconds of `imp` on a `nodes x threads` virtual cluster; `None`
/// when the runtime fails (sgemm's Eden buffer overflow beyond one node).
pub fn modeled_seconds(
    input: &dyn Instance,
    imp: Impl,
    nodes: usize,
    threads: usize,
) -> Option<f64> {
    let cfg = ClusterConfig::virtual_cluster(nodes, threads);
    input.run(imp, cfg).ok().map(|out| out.stats.total_s)
}

/// Minimum over `reps` runs, `None` as soon as one fails: modeled times are
/// deterministic up to host noise, which is strictly additive, so the
/// minimum is the robust estimator.
fn min_of(reps: usize, mut f: impl FnMut() -> Option<f64>) -> Option<f64> {
    (0..reps.max(1)).try_fold(f64::INFINITY, |best, _| Some(best.min(f()?)))
}

/// The full speedup sweep for one application: the data behind the paper's
/// Figures 4, 5, 7 and 8. Each point takes the best of three runs per
/// implementation *and* re-measures the sequential reference, so host CPU
/// drift cancels row-wise.
pub fn sweep_app(input: &dyn Instance) -> Vec<SweepRow> {
    core_points()
        .into_iter()
        .map(|(nodes, threads)| {
            let best = |imp| min_of(3, || modeled_seconds(input, imp, nodes, threads));
            let runs = "a paper app's Triolet and low-level versions run on every shape";
            SweepRow {
                cores: nodes * threads,
                nodes,
                threads,
                seq_s: (0..2).map(|_| seq_seconds(input, 1)).fold(f64::INFINITY, f64::min),
                lowlevel_s: best(Impl::Lowlevel).expect(runs),
                triolet_s: best(Impl::Triolet).expect(runs),
                eden_s: best(Impl::Eden),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workloads_run_everywhere() {
        for input in workloads(Scale::Quick) {
            assert!(seq_seconds(&*input, 1) > 0.0);
            let t = modeled_seconds(&*input, Impl::Triolet, 2, 2).unwrap();
            let ll = modeled_seconds(&*input, Impl::Lowlevel, 2, 2).unwrap();
            assert!(t > 0.0 && ll > 0.0, "{}", input.app().title());
        }
    }

    #[test]
    fn eden_sgemm_fails_at_two_nodes_paper_scale_only() {
        let quick = workloads(Scale::Quick);
        // Quick sgemm (120x120, 2x2 strips) fits the buffers even at 2 nodes.
        assert!(modeled_seconds(find(&quick, "sgemm"), Impl::Eden, 2, 4).is_some());
    }

    #[test]
    fn sweep_produces_all_core_points() {
        let rows = sweep_app(find(&workloads(Scale::Quick), "cutcp"));
        assert_eq!(rows.len(), core_points().len());
        assert!(rows.iter().all(|r| r.triolet_s > 0.0));
    }
}
