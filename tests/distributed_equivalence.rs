//! Cross-implementation, cross-configuration equivalence: every benchmark
//! must produce the same answer in every programming model, on every cluster
//! shape. This is the correctness backbone of the
//! reproduction — the paper's comparisons are only meaningful because all
//! three versions compute the same thing.

use triolet::prelude::*;
use triolet_apps::{cutcp, mriq, sgemm, tpacf};
use triolet_baselines::{EdenRt, LowLevelRt};

const SHAPES: &[(usize, usize)] = &[(1, 1), (1, 4), (2, 2), (4, 2), (8, 16)];

#[test]
fn mriq_equivalent_across_shapes_and_models() {
    let input = mriq::generate(96, 48, 11);
    let expect = mriq::run_seq(&input);
    for &(nodes, tpn) in SHAPES {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let got = mriq::run_triolet(&rt, &input);
        assert!(mriq::validate(&expect, &got.value, 1e-4), "triolet {nodes}x{tpn}");

        let ll = LowLevelRt::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let (got, _) = mriq::run_lowlevel(&ll, &input);
        assert!(mriq::validate(&expect, &got, 1e-4), "lowlevel {nodes}x{tpn}");

        let eden = EdenRt::new(nodes, tpn);
        let (got, _) = mriq::run_eden(&eden, &input).expect("fits buffers");
        assert!(mriq::validate(&expect, &got, 1e-3), "eden {nodes}x{tpn}");
    }
}

#[test]
fn sgemm_equivalent_across_shapes_and_models() {
    let input = sgemm::generate(32, 22);
    let expect = sgemm::run_seq(&input);
    for &(nodes, tpn) in SHAPES {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let got = sgemm::run_triolet(&rt, &input);
        assert!(sgemm::validate(&expect, &got.value, 1e-4), "triolet {nodes}x{tpn}");

        let ll = LowLevelRt::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let (got, _) = sgemm::run_lowlevel(&ll, &input);
        assert!(sgemm::validate(&expect, &got, 1e-4), "lowlevel {nodes}x{tpn}");
    }
    // Eden only runs on one node at this size class (buffer limit).
    let eden = EdenRt::new(1, 8);
    let (got, _) = sgemm::run_eden(&eden, &input).expect("single node");
    assert!(sgemm::validate(&expect, &got, 1e-4), "eden 1x8");
}

#[test]
fn tpacf_equivalent_across_shapes_and_models() {
    let input = tpacf::generate(48, 5, 16, 33);
    let expect = tpacf::run_seq(&input);
    for &(nodes, tpn) in SHAPES {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let got = tpacf::run_triolet(&rt, &input);
        assert!(tpacf::validate(&expect, &got.value), "triolet {nodes}x{tpn}");

        let ll = LowLevelRt::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let (got, _) = tpacf::run_lowlevel(&ll, &input);
        assert!(tpacf::validate(&expect, &got), "lowlevel {nodes}x{tpn}");

        let eden = EdenRt::new(nodes, tpn);
        let (got, _) = tpacf::run_eden(&eden, &input).expect("fits buffers");
        assert!(tpacf::validate(&expect, &got), "eden {nodes}x{tpn}");
    }
}

#[test]
fn cutcp_equivalent_across_shapes_and_models() {
    let input = cutcp::generate(80, 10, 77);
    let expect = cutcp::run_seq(&input);
    for &(nodes, tpn) in SHAPES {
        let rt = Triolet::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let got = cutcp::run_triolet(&rt, &input);
        assert!(cutcp::validate(&expect, &got.value, 1e-9), "triolet {nodes}x{tpn}");

        let ll = LowLevelRt::new(ClusterConfig::virtual_cluster(nodes, tpn));
        let (got, _) = cutcp::run_lowlevel(&ll, &input);
        assert!(cutcp::validate(&expect, &got, 1e-9), "lowlevel {nodes}x{tpn}");

        let eden = EdenRt::new(nodes, tpn);
        let (got, _) = cutcp::run_eden(&eden, &input).expect("fits buffers");
        assert!(cutcp::validate(&expect, &got, 1e-9), "eden {nodes}x{tpn}");
    }
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
    let sgemm_in = sgemm::generate(48, 9);
    let tpacf_in = tpacf::generate(48, 5, 16, 9);
    let cutcp_in = cutcp::generate(96, 8, 9);
    check("mriq", |rt| mriq::run_triolet(rt, &mriq_in).stats);
    check("sgemm", |rt| sgemm::run_triolet(rt, &sgemm_in).stats);
    check("sgemm tiled", |rt| sgemm::run_triolet_tiled(rt, &sgemm_in).stats);
    check("tpacf", |rt| tpacf::run_triolet(rt, &tpacf_in).stats);
    check("cutcp", |rt| cutcp::run_triolet(rt, &cutcp_in).stats);
}
