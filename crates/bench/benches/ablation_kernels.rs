//! Ablation: register-blocked tiled node kernels + zero-copy POD unpack.
//!
//! ```text
//! cargo bench --bench ablation_kernels -- [--smoke] [--out FILE]
//! ```
//!
//! Three arms, each asserting bit-identity while measuring the optimization:
//!
//! 1. **sgemm node kernel** — the naive per-element dot-product loop vs the
//!    cache-blocked, register-blocked tiled kernel on one node-sized block.
//!    The tiled kernel preserves the ascending-k accumulation chain, so the
//!    outputs are bit-identical; the full-size run must show >= 2x.
//! 2. **tpacf histogram kernel** — naive vs i-tiled correlation loops, both
//!    binning through the input's `AngularBins` table, so the ratio is what
//!    the tiling buys; the histograms are exactly equal (same pair multiset).
//! 3. **POD unpack** — decoding the same wire bytes as a copying `Vec<f32>`
//!    vs a zero-copy `PodView<f32>`, with the serial layer's byte counters
//!    showing the memcpy traffic collapsing to zero; plus a distributed
//!    sgemm run reporting the end-to-end `RunStats` unpack split.
//!
//! `--out` writes the table as JSON (BENCH_kernels.json is the committed
//! capture); `--smoke` shrinks the workload for CI and skips the speedup
//! floor (tiny kernels fit in L1 either way, so the ratio is noisy there).

use std::io::Write;
use std::time::Instant;

use triolet::prelude::*;
use triolet_apps::{sgemm, tpacf};
use triolet_baselines::LowLevelRt;
use triolet_serial::{packed, unpack_counted, PodView};

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned();
    let reps = if smoke { 3 } else { 5 };

    println!("# Ablation: tiled node kernels + zero-copy POD unpack");

    // --- Arm 1: sgemm node kernel, naive vs tiled ------------------------
    let dim = if smoke { 96 } else { 288 };
    let input = sgemm::generate(dim, 11);
    let bt = sgemm::transpose_seq(&input.b);
    let (a_rows, bt_rows, k) = (input.a.as_slice(), bt.as_slice(), input.a.cols());

    let (naive_s, naive_out) =
        best_of(reps, || sgemm::gemm_naive(a_rows, bt_rows, k, dim, dim, input.alpha));
    let (tiled_s, tiled_out) =
        best_of(reps, || sgemm::gemm_tiled(a_rows, bt_rows, k, dim, dim, input.alpha));
    for (x, y) in naive_out.iter().zip(&tiled_out) {
        assert_eq!(x.to_bits(), y.to_bits(), "tiled sgemm kernel must be bit-identical");
    }
    let sgemm_speedup = naive_s / tiled_s;
    println!("| sgemm {dim}x{dim}x{dim} | naive {naive_s:.6}s | tiled {tiled_s:.6}s | speedup {sgemm_speedup:.2}x |");
    if !smoke {
        assert!(
            sgemm_speedup >= 2.0,
            "tiled sgemm kernel must be >= 2x at {dim}^3: got {sgemm_speedup:.2}x"
        );
    }

    // --- Arm 2: tpacf histogram kernel, naive vs tiled -------------------
    let n_pts = if smoke { 400 } else { 1600 };
    let tp = tpacf::generate(n_pts, 1, tpacf::DEFAULT_BINS, 7);
    let bins = tpacf::hist_len(&tp);
    let (tpacf_naive_s, h_naive) = best_of(reps, || {
        let mut h = vec![0u64; bins];
        tpacf::self_correlation(&tp.bin_edges, &tp.obs, &mut h);
        tpacf::cross_correlation(&tp.bin_edges, &tp.obs, &tp.rands[0], &mut h);
        h
    });
    let (tpacf_tiled_s, h_tiled) = best_of(reps, || {
        let mut h = vec![0u64; bins];
        tpacf::self_correlation_tiled(&tp.bin_edges, &tp.obs, &mut h);
        tpacf::cross_correlation_tiled(&tp.bin_edges, &tp.obs, &tp.rands[0], &mut h);
        h
    });
    assert_eq!(h_naive, h_tiled, "tiled tpacf kernels must produce identical histograms");
    let tpacf_speedup = tpacf_naive_s / tpacf_tiled_s;
    println!(
        "| tpacf {n_pts} pts | naive {tpacf_naive_s:.6}s | tiled {tpacf_tiled_s:.6}s | speedup {tpacf_speedup:.2}x |"
    );

    // --- Arm 3: POD unpack, copying Vec vs zero-copy PodView -------------
    let n_floats = if smoke { 1 << 16 } else { 1 << 22 };
    let payload: Vec<f32> = (0..n_floats).map(|i| i as f32 * 0.25).collect();
    let bytes = packed(&payload);
    let decode_reps = if smoke { 8 } else { 16 };

    // Each decode's `(copied, aliased)` bytes, summed over every rep.
    let (mut vec_copied, mut vec_aliased) = (0, 0);
    let (vec_s, vec_out) = best_of(decode_reps, || -> Vec<f32> {
        let (v, (c, a)) = unpack_counted(bytes.clone()).expect("payload roundtrip");
        (vec_copied, vec_aliased) = (vec_copied + c, vec_aliased + a);
        v
    });
    assert_eq!(vec_aliased, 0, "Vec decode never aliases");

    let (mut view_copied, mut view_aliased) = (0, 0);
    let (view_s, view_out) = best_of(decode_reps, || -> PodView<f32> {
        let (v, (c, a)) = unpack_counted(bytes.clone()).expect("payload roundtrip");
        (view_copied, view_aliased) = (view_copied + c, view_aliased + a);
        v
    });

    assert_eq!(vec_out.len(), view_out.len());
    for (x, y) in vec_out.iter().zip(view_out.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "zero-copy unpack must be bit-identical");
    }
    assert!(view_out.is_aliased(), "whole-payload f32 window is 4-aligned");
    assert_eq!(view_copied, 0, "aliased decode must memcpy nothing");
    assert!(
        vec_copied >= (n_floats * 4 * decode_reps) as u64,
        "copying decode must memcpy the payload every rep"
    );
    let unpack_speedup = vec_s / view_s;
    println!(
        "| unpack {} MiB | vec {:.6}s ({} B copied) | view {:.6}s ({} B aliased) | speedup {:.2}x |",
        (n_floats * 4) >> 20,
        vec_s,
        vec_copied,
        view_s,
        view_aliased,
        unpack_speedup
    );

    // End-to-end: a distributed sgemm whose node payloads and results ride
    // PodView; the RunStats split shows where the memcpys went.
    let e2e_dim = if smoke { 64 } else { 192 };
    let e2e = sgemm::generate(e2e_dim, 3);
    let rt = LowLevelRt::new(ClusterConfig::virtual_cluster(4, 2));
    let (c_ll, ll_stats) = sgemm::run_lowlevel(&rt, &e2e);
    let trt = Triolet::new(ClusterConfig::virtual_cluster(4, 2));
    let run = sgemm::run_triolet(&trt, &e2e);
    for (x, y) in c_ll.as_slice().iter().zip(run.value.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "lowlevel and triolet paths must agree");
    }
    assert!(
        ll_stats.unpack_aliased > 0,
        "root unpack of flat POD results must alias: {:?}",
        (ll_stats.unpack_copied, ll_stats.unpack_aliased)
    );
    let aliased_frac =
        ll_stats.unpack_aliased as f64 / (ll_stats.unpack_copied + ll_stats.unpack_aliased) as f64;
    println!(
        "| e2e lowlevel sgemm {e2e_dim}^2 | root unpack copied {} B | aliased {} B ({:.1}% aliased) |",
        ll_stats.unpack_copied,
        ll_stats.unpack_aliased,
        100.0 * aliased_frac
    );
    println!(
        "| e2e triolet sgemm {e2e_dim}^2 | root unpack copied {} B | aliased {} B |",
        run.stats.unpack_copied, run.stats.unpack_aliased
    );
    assert!(aliased_frac > 0.5, "most root-unpack bytes must be zero-copy: {:.3}", aliased_frac);

    if let Some(path) = out_path {
        let mut json = String::from("{\n  \"bench\": \"ablation_kernels\",\n");
        json.push_str(&format!("  \"smoke\": {},\n", smoke));
        json.push_str(&format!(
            "  \"sgemm\": {{\"dim\": {}, \"naive_s\": {:.9}, \"tiled_s\": {:.9}, \"speedup\": {:.3}, \"bit_identical\": true}},\n",
            dim, naive_s, tiled_s, sgemm_speedup
        ));
        json.push_str(&format!(
            "  \"tpacf\": {{\"points\": {}, \"naive_s\": {:.9}, \"tiled_s\": {:.9}, \"speedup\": {:.3}, \"hist_identical\": true}},\n",
            n_pts, tpacf_naive_s, tpacf_tiled_s, tpacf_speedup
        ));
        json.push_str(&format!(
            "  \"unpack\": {{\"payload_bytes\": {}, \"vec_s\": {:.9}, \"vec_copied_bytes\": {}, \"view_s\": {:.9}, \"view_aliased_bytes\": {}, \"speedup\": {:.3}, \"bit_identical\": true}},\n",
            n_floats * 4, vec_s, vec_copied, view_s, view_aliased, unpack_speedup
        ));
        json.push_str(&format!(
            "  \"e2e_sgemm\": {{\"dim\": {}, \"lowlevel_unpack_copied_bytes\": {}, \"lowlevel_unpack_aliased_bytes\": {}, \"lowlevel_aliased_frac\": {:.3}, \"triolet_tiled_unpack_copied_bytes\": {}, \"triolet_tiled_unpack_aliased_bytes\": {}}}\n",
            e2e_dim,
            ll_stats.unpack_copied,
            ll_stats.unpack_aliased,
            aliased_frac,
            run.stats.unpack_copied,
            run.stats.unpack_aliased
        ));
        json.push_str("}\n");
        let mut f = std::fs::File::create(&path).expect("create --out file");
        f.write_all(json.as_bytes()).expect("write --out file");
        println!("wrote {path}");
    }
}
