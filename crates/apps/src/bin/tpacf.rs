//! Run the tpacf benchmark from the command line.
//!
//! ```text
//! cargo run --release -p triolet-apps --bin tpacf -- \
//!     --impl triolet --nodes 8 --threads 16 --points 512 --sets 128 --bins 32
//! ```

use std::time::Instant;

use triolet_apps::cli::{print_seq_time, print_stats, Impl, Opts};
use triolet_apps::tpacf;
use triolet_baselines::{EdenRt, LowLevelRt};

fn main() {
    let opts = Opts::parse("tpacf", &[("points", 512), ("sets", 16), ("bins", 32)]);
    opts.banner("tpacf");
    let input =
        tpacf::generate(opts.size("points"), opts.size("sets"), opts.size("bins"), opts.seed);

    let out = match opts.imp {
        Impl::Seq => {
            let t0 = Instant::now();
            let out = tpacf::run_seq(&input);
            print_seq_time(t0.elapsed().as_secs_f64());
            out
        }
        Impl::Triolet => {
            let rt = opts.triolet_rt();
            let run = tpacf::run_triolet(&rt, &input);
            print_stats(&run.stats);
            opts.write_trace(&run.trace);
            run.value
        }
        Impl::Tiled => {
            let rt = opts.triolet_rt();
            let run = tpacf::run_triolet_tiled(&rt, &input);
            print_stats(&run.stats);
            opts.write_trace(&run.trace);
            run.value
        }
        Impl::Lowlevel => {
            let rt = LowLevelRt::new(opts.cluster_config());
            let (out, stats) = tpacf::run_lowlevel(&rt, &input);
            print_stats(&stats);
            out
        }
        Impl::Eden => {
            let rt = EdenRt::new(opts.nodes, opts.threads);
            match tpacf::run_eden(&rt, &input) {
                Ok((out, stats)) => {
                    print_stats(&stats);
                    out
                }
                Err(e) => {
                    eprintln!("eden runtime failure: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    println!(
        "pairs: dd={} dr={} rr={}",
        out.dd.iter().sum::<u64>(),
        out.dr.iter().sum::<u64>(),
        out.rr.iter().sum::<u64>()
    );
    // The estimator the application exists to compute (Landy-Szalay-ish
    // per-bin ratio), over the first few bins.
    let nr = input.rands.len().max(1) as f64;
    let preview: Vec<String> = out
        .dd
        .iter()
        .zip(&out.dr)
        .zip(&out.rr)
        .take(8)
        .map(|((&dd, &dr), &rr)| {
            let rr = (rr as f64 / nr).max(1.0);
            format!("{:.2}", (dd as f64 - 2.0 * dr as f64 / nr + rr) / rr)
        })
        .collect();
    println!("w(theta) first bins: [{}]", preview.join(", "));
}
