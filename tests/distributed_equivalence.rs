//! Cross-implementation, cross-configuration equivalence: every benchmark
//! must produce the same answer in every programming model, on every cluster
//! shape. This is the correctness backbone of the
//! reproduction — the paper's comparisons are only meaningful because all
//! three versions compute the same thing.

use triolet::prelude::*;
use triolet_apps::table::{app, Impl};
use triolet_apps::{cutcp, mriq, sgemm, tpacf};

const SHAPES: &[(usize, usize)] = &[(1, 1), (1, 4), (2, 2), (4, 2), (8, 16)];

/// The app's Triolet, low-level and Eden versions on every shape of
/// `SHAPES` against its sequential reference, each within the tolerance the
/// table gives it.
fn equivalent_across_shapes_and_models(name: &str, sizes: &[usize], seed: u64) {
    let input = app(name).expect("in the table").generate(sizes, seed);
    let expect = input.run(Impl::Seq, ClusterConfig::virtual_cluster(1, 1)).unwrap();
    for imp in [Impl::Triolet, Impl::Lowlevel, Impl::Eden] {
        // Eden runs sgemm on one node only at this size class (buffer limit).
        let shapes = if (name, imp) == ("sgemm", Impl::Eden) { &[(1, 8)][..] } else { SHAPES };
        for &(nodes, tpn) in shapes {
            let got = input.run(imp, ClusterConfig::virtual_cluster(nodes, tpn));
            let got = got.unwrap_or_else(|e| panic!("{imp:?} {nodes}x{tpn}: {e}"));
            assert!(input.validate(&expect, &got), "{name} {imp:?} {nodes}x{tpn}");
        }
    }
}

#[test]
fn mriq_equivalent_across_shapes_and_models() {
    equivalent_across_shapes_and_models("mriq", &[96, 48], 11);
}

#[test]
fn sgemm_equivalent_across_shapes_and_models() {
    equivalent_across_shapes_and_models("sgemm", &[130], 22);
}

#[test]
fn tpacf_equivalent_across_shapes_and_models() {
    equivalent_across_shapes_and_models("tpacf", &[48, 5, 16], 33);
}

#[test]
fn cutcp_equivalent_across_shapes_and_models() {
    equivalent_across_shapes_and_models("cutcp", &[80, 10], 77);
}

#[test]
fn traffic_accounting_is_consistent() {
    // Cluster-level stats must agree with the per-run stats, for every
    // phase of every app: sgemm used to add only its transpose phase's
    // seconds and drop that phase's bytes and messages.
    fn check(name: &str, run: impl Fn(&Triolet) -> RunStats) {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 2));
        let before = rt.cluster().stats().snapshot();
        let stats = run(&rt);
        let delta = rt.cluster().stats().snapshot().since(&before);
        assert_eq!(delta.bytes, stats.bytes_out + stats.bytes_back, "{name}: bytes");
        assert_eq!(delta.messages, stats.messages, "{name}: messages");
        assert!(stats.root_bytes_out <= stats.bytes_out, "{name}: root link");
    }
    let mriq_in = mriq::generate(64, 32, 9);
    let sgemm_in = sgemm::generate(128, 9);
    let tpacf_in = tpacf::generate(48, 5, 16, 9);
    let cutcp_in = cutcp::generate(96, 8, 9);
    check("mriq", |rt| mriq::run_triolet(rt, &mriq_in).stats);
    check("sgemm", |rt| sgemm::run_triolet(rt, &sgemm_in).stats);
    check("tpacf", |rt| tpacf::run_triolet(rt, &tpacf_in).stats);
    check("cutcp", |rt| cutcp::run_triolet(rt, &cutcp_in).stats);
}
