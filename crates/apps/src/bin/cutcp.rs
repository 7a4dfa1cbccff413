//! Run the cutcp benchmark from the command line.
//!
//! ```text
//! cargo run --release -p triolet-apps --bin cutcp -- \
//!     --impl triolet --nodes 8 --threads 16 --atoms 32768 --dim 48
//! ```

use std::time::Instant;

use triolet_apps::cli::{print_seq_time, print_stats, Impl, Opts};
use triolet_apps::cutcp;
use triolet_baselines::{EdenRt, LowLevelRt};

fn main() {
    let opts = Opts::parse("cutcp", &[("atoms", 4096), ("dim", 32)]);
    opts.banner("cutcp");
    let input = cutcp::generate(opts.size("atoms"), opts.size("dim"), opts.seed);

    let grid = match opts.imp {
        Impl::Seq => {
            let t0 = Instant::now();
            let g = cutcp::run_seq(&input);
            print_seq_time(t0.elapsed().as_secs_f64());
            g
        }
        Impl::Triolet => {
            let rt = opts.triolet_rt();
            let run = cutcp::run_triolet(&rt, &input);
            print_stats(&run.stats);
            opts.write_trace(&run.trace);
            run.value
        }
        Impl::Tiled => {
            eprintln!("cutcp has no tiled-kernel variant; use --impl triolet");
            std::process::exit(2);
        }
        Impl::Lowlevel => {
            let rt = LowLevelRt::new(opts.cluster_config());
            let (g, stats) = cutcp::run_lowlevel(&rt, &input);
            print_stats(&stats);
            g
        }
        Impl::Eden => {
            let rt = EdenRt::new(opts.nodes, opts.threads);
            match cutcp::run_eden(&rt, &input) {
                Ok((g, stats)) => {
                    print_stats(&stats);
                    g
                }
                Err(e) => {
                    eprintln!("eden runtime failure: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    let nonzero = grid.iter().filter(|v| v.abs() > 1e-12).count();
    let peak = grid.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
    let total: f64 = grid.iter().sum();
    println!(
        "grid_cells={} nonzero={nonzero} peak_abs={peak:.4} total_potential={total:.4}",
        grid.len()
    );
}
