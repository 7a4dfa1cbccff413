//! Run the mri-q benchmark from the command line.
//!
//! ```text
//! cargo run --release -p triolet-apps --bin mriq -- \
//!     --impl triolet --nodes 8 --threads 16 --pixels 16384 --samples 2048
//! ```

use std::time::Instant;

use triolet_apps::cli::{print_seq_time, print_stats, Impl, Opts};
use triolet_apps::mriq;
use triolet_baselines::{EdenRt, LowLevelRt};

fn main() {
    let opts = Opts::parse("mriq", &[("pixels", 4096), ("samples", 512)]);
    opts.banner("mri-q");
    let input = mriq::generate(opts.size("pixels"), opts.size("samples"), opts.seed);

    let out = match opts.imp {
        Impl::Seq => {
            let t0 = Instant::now();
            let out = mriq::run_seq(&input);
            print_seq_time(t0.elapsed().as_secs_f64());
            out
        }
        Impl::Triolet => {
            let rt = opts.triolet_rt();
            let run = mriq::run_triolet(&rt, &input);
            print_stats(&run.stats);
            opts.write_trace(&run.trace);
            run.value
        }
        Impl::Tiled => {
            eprintln!("mriq has no tiled-kernel variant; use --impl triolet");
            std::process::exit(2);
        }
        Impl::Lowlevel => {
            let rt = LowLevelRt::new(opts.cluster_config());
            let (out, stats) = mriq::run_lowlevel(&rt, &input);
            print_stats(&stats);
            out
        }
        Impl::Eden => {
            let rt = EdenRt::new(opts.nodes, opts.threads);
            match mriq::run_eden(&rt, &input) {
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
    let energy: f64 =
        out.qr.iter().zip(&out.qi).map(|(r, i)| (*r as f64).powi(2) + (*i as f64).powi(2)).sum();
    println!("pixels={} image_energy={energy:.3}", out.qr.len());
}
