//! Run the sgemm benchmark from the command line.
//!
//! ```text
//! cargo run --release -p triolet-apps --bin sgemm -- \
//!     --impl lowlevel --nodes 8 --threads 16 --dim 384
//! ```

use std::time::Instant;

use triolet_apps::cli::{print_seq_time, print_stats, Impl, Opts};
use triolet_apps::sgemm;
use triolet_baselines::{EdenRt, LowLevelRt};

fn main() {
    let opts = Opts::parse("sgemm", &[("dim", 256)]);
    opts.banner("sgemm");
    let input = sgemm::generate(opts.size("dim"), opts.seed);

    let c = match opts.imp {
        Impl::Seq => {
            let t0 = Instant::now();
            let c = sgemm::run_seq(&input);
            print_seq_time(t0.elapsed().as_secs_f64());
            c
        }
        Impl::Triolet => {
            let rt = opts.triolet_rt();
            let run = sgemm::run_triolet(&rt, &input);
            print_stats(&run.stats);
            opts.write_trace(&run.trace);
            run.value
        }
        Impl::Tiled => {
            let rt = opts.triolet_rt();
            let run = sgemm::run_triolet_tiled(&rt, &input);
            print_stats(&run.stats);
            opts.write_trace(&run.trace);
            run.value
        }
        Impl::Lowlevel => {
            let rt = LowLevelRt::new(opts.cluster_config());
            let (c, stats) = sgemm::run_lowlevel(&rt, &input);
            print_stats(&stats);
            c
        }
        Impl::Eden => {
            let rt = EdenRt::new(opts.nodes, opts.threads);
            match sgemm::run_eden(&rt, &input) {
                Ok((c, stats)) => {
                    print_stats(&stats);
                    c
                }
                Err(e) => {
                    // The paper's documented Eden failure mode for sgemm.
                    eprintln!("eden runtime failure: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    let frob: f64 = c.as_slice().iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt();
    println!("output={}x{} frobenius_norm={frob:.3}", c.rows(), c.cols());
}
