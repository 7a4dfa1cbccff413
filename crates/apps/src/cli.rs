//! Argument parsing and printing for the `triolet-app` binary (no external
//! dependencies: the offline crate policy applies to binaries too).

use std::time::Duration;

use triolet::prelude::*;
use triolet::RunStats;
use triolet::TraceData;

use crate::table::Impl;

/// The fault-injection flags: `--crash RANK`, `--drop P`, `--fault-seed S`,
/// `--timeout-ms T`. With none given the run is fault-free.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultFlags {
    crash: Option<usize>,
    drop: Option<f64>,
    seed: Option<u64>,
    timeout_ms: Option<u64>,
}

impl FaultFlags {
    /// The plan the flags describe ([`FaultPlan::none`] when none was given:
    /// a seed or timeout alone injects nothing).
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::seeded(self.seed.unwrap_or(0));
        if let Some(p) = self.drop {
            plan = plan.with_drop(p);
        }
        if let Some(rank) = self.crash {
            plan = plan.with_crash(rank);
        }
        if let Some(ms) = self.timeout_ms {
            plan = plan.with_timeout(Duration::from_millis(ms));
        }
        plan
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Implementation selector (`--impl seq|triolet|lowlevel|eden`).
    pub imp: Impl,
    /// Cluster nodes (`--nodes N`).
    pub nodes: usize,
    /// Threads (or Eden processes) per node (`--threads T`).
    pub threads: usize,
    /// Generator seed (`--seed S`).
    pub seed: u64,
    /// Write a chrome://tracing JSON timeline here (`--trace-out FILE`);
    /// also switches span recording on in the runtime.
    pub trace_out: Option<String>,
    /// Injected faults, applied to the [`cluster_config`](Opts::cluster_config).
    pub faults: FaultFlags,
    /// Command-specific sizes, each set by its own `--key N`.
    pub sizes: Vec<(&'static str, usize)>,
}

impl Opts {
    /// The defaults (`--impl triolet`, a 4x4 cluster, seed 1, no trace, no
    /// faults) with these size keys at their default values.
    pub fn new(sizes: impl IntoIterator<Item = (&'static str, usize)>) -> Opts {
        Opts {
            imp: Impl::Triolet,
            nodes: 4,
            threads: 4,
            seed: 1,
            trace_out: None,
            faults: FaultFlags::default(),
            sizes: sizes.into_iter().collect(),
        }
    }

    /// Apply the flags in `args` (the command line after the command name)
    /// over these options. `Err` says which flag was malformed or unknown.
    pub fn parse(mut self, args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let text = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("{flag}: cannot parse {text:?}");
            let faults = &mut self.faults;
            match flag.as_str() {
                "--impl" => {
                    let imp = Impl::ALL.into_iter().find(|imp| imp.flag() == text);
                    self.imp =
                        imp.ok_or_else(|| format!("--impl {text}: no such implementation"))?;
                }
                "--nodes" => self.nodes = text.parse().map_err(|_| bad())?,
                "--threads" => self.threads = text.parse().map_err(|_| bad())?,
                "--seed" => self.seed = text.parse().map_err(|_| bad())?,
                "--trace-out" => self.trace_out = Some(text),
                "--crash" => match text.parse().map_err(|_| bad())? {
                    rank if rank >= 64 => {
                        return Err(format!("--crash {rank}: the fault plan covers ranks 0..64"))
                    }
                    rank => faults.crash = Some(rank),
                },
                "--drop" => match text.parse().map_err(|_| bad())? {
                    p if !(0.0..=1.0).contains(&p) => {
                        return Err(format!("--drop {p}: not a probability"))
                    }
                    p => faults.drop = Some(p),
                },
                "--fault-seed" => faults.seed = Some(text.parse().map_err(|_| bad())?),
                "--timeout-ms" => faults.timeout_ms = Some(text.parse().map_err(|_| bad())?),
                _ => {
                    let key = flag.strip_prefix("--");
                    let slot = self.sizes.iter_mut().find(|(k, _)| key == Some(*k));
                    slot.ok_or_else(|| format!("{flag}: unknown flag"))?.1 =
                        text.parse().map_err(|_| bad())?;
                }
            }
        }
        Ok(self)
    }

    /// The size values, in key order.
    pub fn values(&self) -> Vec<usize> {
        self.sizes.iter().map(|&(_, v)| v).collect()
    }

    /// The virtual cluster these options describe: fault flags applied, span
    /// recording on exactly when `--trace-out` was given.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::virtual_cluster(self.nodes, self.threads)
            .with_faults(self.faults.plan())
            .with_trace(self.trace_out.is_some())
    }

    /// Write a recorded timeline as chrome://tracing JSON to the
    /// `--trace-out` path (no-op when the flag is absent), and print a
    /// per-phase breakdown.
    pub fn write_trace(&self, trace: &TraceData) {
        let Some(path) = &self.trace_out else { return };
        std::fs::write(path, trace.to_chrome_json()).unwrap_or_else(|e| {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(1);
        });
        let phases: Vec<String> =
            trace.phase_totals().iter().map(|(c, t)| format!("{c}={t:.4}s")).collect();
        println!(
            "trace: {} spans, {} events -> {path} [{}]",
            trace.spans.len(),
            trace.events.len(),
            phases.join(" ")
        );
    }

    /// The run header, with the cluster shape that runs (a requested 0 nodes
    /// or threads runs as 1), and a second line naming any faults.
    pub fn banner(&self, title: &str) -> String {
        let cfg = self.cluster_config();
        let mut text = format!(
            "{title}: impl={:?} cluster={}x{} seed={} sizes={:?}",
            self.imp, cfg.nodes, cfg.threads_per_node, self.seed, self.sizes
        );
        if self.faults != FaultFlags::default() {
            text += &format!("\n{title}: faults={:?}", self.faults);
        }
        text
    }
}

/// A [`RunStats`] as one line. What recovery cost (`retries`,
/// `redispatches`, `resident_misses`) is appended only when there was some,
/// so a fault-free line reads as it always has.
pub fn stats_line(stats: &RunStats) -> String {
    let mut line = format!(
        "time={:.4}s comm={:.4}s root={:.4}s span={:.4}s out={}B back={}B msgs={}",
        stats.total_s,
        stats.comm_s,
        stats.root_s,
        stats.compute_span_s(),
        stats.bytes_out,
        stats.bytes_back,
        stats.messages
    );
    let (retries, redispatches, misses) =
        (stats.retries, stats.redispatches, stats.resident_misses);
    if retries + redispatches + misses > 0 {
        line += &format!(" retries={retries} redispatches={redispatches} resident_misses={misses}");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Opts, String> {
        Opts::new([("pixels", 4096), ("samples", 512)]).parse(args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> Result<FaultFlags, String> {
        opts(args).map(|o| o.faults)
    }

    #[test]
    fn stats_line_shows_recovery_only_when_there_was_some() {
        let clean = RunStats { bytes_out: 64, bytes_back: 8, messages: 2, ..RunStats::local(0.5) };
        let quiet = "time=0.5000s comm=0.0000s root=0.0000s span=0.5000s out=64B back=8B msgs=2";
        assert_eq!(stats_line(&clean), quiet);
        let crashed = RunStats { retries: 9, redispatches: 1, resident_misses: 1, ..clean.clone() };
        let tail = " retries=9 redispatches=1 resident_misses=1";
        assert_eq!(stats_line(&crashed), format!("{quiet}{tail}"));
        // Any one of the three is enough.
        let missed = RunStats { resident_misses: 2, ..clean };
        assert!(stats_line(&missed).ends_with(" retries=0 redispatches=0 resident_misses=2"));
    }

    #[test]
    fn no_fault_flags_means_no_plan() {
        assert_eq!(parse(&[]).unwrap().plan(), FaultPlan::none());
        assert!(!parse(&["--fault-seed", "9", "--timeout-ms", "3"]).unwrap().plan().is_active());
    }

    #[test]
    fn fault_flags_build_the_plan_they_name() {
        let flags =
            parse(&["--crash", "3", "--drop", "0.05", "--fault-seed", "7", "--timeout-ms", "1"]);
        let expect = FaultPlan::seeded(7)
            .with_drop(0.05)
            .with_crash(3)
            .with_timeout(Duration::from_millis(1));
        assert_eq!(flags.unwrap().plan(), expect);
    }

    #[test]
    fn malformed_fault_values_are_refused() {
        for bad in [
            &["--crash", "64"][..],
            &["--crash", "x"],
            &["--drop", "1.5"],
            &["--drop", "nan"],
            &["--timeout-ms"],
            &["--fault-seed", "-1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn impl_takes_every_value() {
        for imp in Impl::ALL {
            assert_eq!(opts(&["--impl", &imp.flag()]).unwrap().imp, imp);
        }
        for gone in ["fast", "tiled"] {
            let why = format!("--impl {gone}: no such implementation");
            assert_eq!(opts(&["--impl", gone]).unwrap_err(), why);
        }
    }

    #[test]
    fn a_size_key_overrides_its_default() {
        let o = opts(&["--samples", "64"]).unwrap();
        assert_eq!(o.sizes, [("pixels", 4096), ("samples", 64)]);
        assert_eq!(o.values(), [4096, 64]);
        assert!(opts(&["--samples", "-1"]).is_err());
    }

    #[test]
    fn an_unknown_key_is_refused() {
        assert_eq!(opts(&["--bogus", "3"]).unwrap_err(), "--bogus: unknown flag");
        assert_eq!(opts(&["pixels", "3"]).unwrap_err(), "pixels: unknown flag");
    }

    #[test]
    fn a_flag_without_a_value_is_refused() {
        for flag in
            ["--impl", "--nodes", "--threads", "--seed", "--trace-out", "--pixels", "--crash"]
        {
            assert_eq!(opts(&[flag]).unwrap_err(), format!("{flag} needs a value"));
        }
    }

    #[test]
    fn fault_flags_mix_with_size_keys() {
        let o = opts(&["--pixels", "128", "--crash", "3", "--nodes", "8", "--drop", "0.05"]);
        let o = o.and_then(|o| o.parse(["--samples", "16", "--fault-seed", "7"].map(String::from)));
        let o = o.unwrap();
        assert_eq!((o.nodes, o.threads), (8, 4));
        assert_eq!(o.sizes, [("pixels", 128), ("samples", 16)]);
        assert_eq!(o.faults.plan(), FaultPlan::seeded(7).with_drop(0.05).with_crash(3));
    }

    #[test]
    fn the_banner_reports_the_cluster_that_runs() {
        let sizes = r#"sizes=[("pixels", 4096), ("samples", 512)]"#;
        let o = opts(&["--nodes", "0"]).unwrap();
        assert_eq!(o.banner("mri-q"), format!("mri-q: impl=Triolet cluster=1x4 seed=1 {sizes}"));
        let o = opts(&["--impl", "eden", "--threads", "2", "--crash", "1"]).unwrap();
        let faults = "FaultFlags { crash: Some(1), drop: None, seed: None, timeout_ms: None }";
        assert_eq!(
            o.banner("mri-q"),
            format!("mri-q: impl=Eden cluster=4x2 seed=1 {sizes}\nmri-q: faults={faults}")
        );
    }
}
