//! `perf`: the repository's layered benchmark.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one measured run (BENCHMARK.json's command)
//! perf all | run | trace  [--seed N] [--quick] [--out FILE]
//! perf layers [--quick]
//! perf list
//! perf compare A.json B.json
//! ```
//!
//! See `perf/README.md` for the workloads, the metric glossary and how the
//! layers are expected to move the end-to-end numbers.

mod harness;
mod layers;
mod measure;
mod report;
mod spec;
mod stats;
mod suite;
mod sys;
mod workloads;

use std::process::ExitCode;

use measure::Options;
use suite::{Passes, SuiteOptions};
use workloads::Scale;

const USAGE: &str = "usage:
  perf --workload NAME --seed N --seconds S --trace 0|1 [--quick]
  perf all|run|trace [--seed N] [--quick] [--out FILE]
  perf layers [--quick]
  perf list
  perf compare A.json B.json";

/// `--flag value` pairs and bare `--quick`, after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("bad value for {flag}: {v:?}")),
        }
    }

    fn scale(&self) -> Scale {
        if self.has("--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// One measured run of one workload, ending in the contract's result line.
fn single_run(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.value("--workload").ok_or("--workload needs a value")?.to_string();
    if !spec::workload_names().any(|n| n == workload) {
        return Err(format!("unknown workload {workload:?} (see `perf list`)"));
    }
    let seconds: f64 = flags.parsed("--seconds")?.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let opts = Options {
        workload,
        seed: flags.parsed("--seed")?.ok_or("--seed is required")?,
        seconds,
        scale: flags.scale(),
    };
    let trace = match flags.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let outcome = if trace { measure::per_layer(&opts) } else { measure::end_to_end(&opts) };
    if outcome.attempted == outcome.failed {
        return Err(format!("{}: all {} calls failed", opts.workload, outcome.attempted));
    }
    println!(
        "{} seed {} ({}): attempted {} failed {}",
        opts.workload,
        opts.seed,
        if trace { "per-layer, traced pass" } else { "end-to-end, tracing off" },
        outcome.attempted,
        outcome.failed
    );
    report::print_metrics(&outcome.metrics);
    if trace {
        println!(
            "  serial.* buffer {} MiB, caches {} (cache-resident, not DRAM bandwidth)",
            layers::serial_buffer_bytes(opts.scale) >> 20,
            sys::cache_sizes()
        );
        let spec = spec::WORKLOADS.iter().find(|w| w.name == opts.workload).expect("checked above");
        // The arguments `trace_check` (crates/obs) accepts this file with.
        println!(
            "trace_check {} bench:setup bench:run bench:validate bench:seq {}",
            measure::trace_path(&opts.workload).display(),
            spec.skeleton_span
        );
    }
    if flags.has("--samples") {
        let samples = outcome.samples.iter().map(|(name, v)| {
            (*name, triolet_obs::json::Value::Arr(v.iter().map(|x| report::num(*x)).collect()))
        });
        println!("samples {}", report::to_json(&report::obj(samples)));
    }
    println!("{}", report::result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

fn suite_run(passes: Passes, flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.parsed("--seed")?.unwrap_or(1);
    let opts = SuiteOptions::new(seed, flags.has("--quick"));
    let out = flags.value("--out").map_or_else(|| sys::out_dir().join("result.json"), Into::into);
    suite::measure(passes, &opts, &out)?;
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let Some(first) = args.first() else { return Err("no command".into()) };
    if first.starts_with("--") {
        return single_run(&Flags(args.to_vec()));
    }
    let flags = Flags(args[1..].to_vec());
    match first.as_str() {
        "all" => suite_run(Passes::All, &flags),
        "run" => suite_run(Passes::Run, &flags),
        "trace" => suite_run(Passes::Trace, &flags),
        "layers" => {
            let probes = layers::run_all(flags.scale(), &harness::Harness::new());
            report::print_metrics(&probes);
            Ok(ExitCode::SUCCESS)
        }
        "list" => {
            report::print_list();
            Ok(ExitCode::SUCCESS)
        }
        "compare" => match &args[1..] {
            [a, b] => Ok(if suite::compare(a, b)? { ExitCode::SUCCESS } else { ExitCode::FAILURE }),
            _ => Err("compare takes two result files".into()),
        },
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("perf: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
