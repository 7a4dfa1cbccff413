//! Tiny argument parsing shared by the benchmark binaries (no external
//! dependencies: the offline crate policy applies to binaries too).

use std::time::Duration;

use triolet::prelude::*;
use triolet::RunStats;
use triolet::TraceData;

/// Which implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impl {
    /// Plain sequential loops.
    Seq,
    /// Triolet skeletons.
    Triolet,
    /// Triolet skeletons with tiled node kernels (sgemm/tpacf only).
    Tiled,
    /// Hand-partitioned C+MPI+OpenMP style.
    Lowlevel,
    /// Eden-style skeletons.
    Eden,
}

/// The fault-injection flags every binary that takes `--nodes` accepts:
/// `--crash RANK`, `--drop P`, `--fault-seed S`, `--timeout-ms T`. With
/// none given the run is fault-free.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultFlags {
    crash: Option<usize>,
    drop: Option<f64>,
    seed: Option<u64>,
    timeout_ms: Option<u64>,
}

impl FaultFlags {
    /// The flags, for a usage line.
    pub const USAGE: &'static str = "[--crash RANK] [--drop P] [--fault-seed S] [--timeout-ms T]";

    /// If `flag` is a fault flag, parse the value `next` yields into it.
    /// `Ok(false)` means the flag is somebody else's; `Err` carries why the
    /// value was refused.
    pub fn accept(
        &mut self,
        flag: &str,
        next: &mut dyn FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        fn value<T: std::str::FromStr>(flag: &str, text: Option<String>) -> Result<T, String> {
            let text = text.ok_or_else(|| format!("{flag} needs a value"))?;
            text.parse().map_err(|_| format!("{flag}: cannot parse {text:?}"))
        }
        match flag {
            "--crash" => {
                let rank: usize = value(flag, next())?;
                if rank >= 64 {
                    return Err(format!("--crash {rank}: the fault plan covers ranks 0..64"));
                }
                self.crash = Some(rank);
            }
            "--drop" => {
                let p: f64 = value(flag, next())?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("--drop {p}: not a probability"));
                }
                self.drop = Some(p);
            }
            "--fault-seed" => self.seed = Some(value(flag, next())?),
            "--timeout-ms" => self.timeout_ms = Some(value(flag, next())?),
            _ => return Ok(false),
        }
        Ok(true)
    }

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

/// Parsed common options.
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
    /// Injected faults (`--crash`, `--drop`, `--fault-seed`, `--timeout-ms`);
    /// applied to every runtime built from a
    /// [`cluster_config`](Opts::cluster_config).
    pub faults: FaultFlags,
    /// App-specific sizes, filled from the remaining `--key value` pairs.
    pub sizes: Vec<(String, usize)>,
}

impl Opts {
    /// Parse `std::env::args`, with app-specific size keys and defaults.
    ///
    /// Exits with a usage message on `--help` or malformed input.
    pub fn parse(app: &str, size_keys: &[(&str, usize)]) -> Opts {
        let mut imp = Impl::Triolet;
        let mut nodes = 4usize;
        let mut threads = 4usize;
        let mut seed = 1u64;
        let mut trace_out = None;
        let mut faults = FaultFlags::default();
        let mut sizes: Vec<(String, usize)> =
            size_keys.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let usage = || {
                let keys: Vec<String> =
                    size_keys.iter().map(|(k, v)| format!("[--{k} N (default {v})]")).collect();
                eprintln!(
                    "usage: {app} [--impl seq|triolet|tiled|lowlevel|eden] [--nodes N] \
                     [--threads T] [--seed S] [--trace-out FILE] {} {}",
                    FaultFlags::USAGE,
                    keys.join(" ")
                );
                std::process::exit(2);
            };
            let value = |args: &mut dyn Iterator<Item = String>| -> String {
                args.next().unwrap_or_else(|| {
                    usage();
                    unreachable!()
                })
            };
            match arg.as_str() {
                "--impl" => {
                    imp = match value(&mut args).as_str() {
                        "seq" => Impl::Seq,
                        "triolet" => Impl::Triolet,
                        "tiled" => Impl::Tiled,
                        "lowlevel" => Impl::Lowlevel,
                        "eden" => Impl::Eden,
                        _ => {
                            usage();
                            unreachable!()
                        }
                    }
                }
                "--nodes" => {
                    nodes = value(&mut args).parse().unwrap_or_else(|_| {
                        usage();
                        unreachable!()
                    })
                }
                "--threads" => {
                    threads = value(&mut args).parse().unwrap_or_else(|_| {
                        usage();
                        unreachable!()
                    })
                }
                "--seed" => {
                    seed = value(&mut args).parse().unwrap_or_else(|_| {
                        usage();
                        unreachable!()
                    })
                }
                "--trace-out" => trace_out = Some(value(&mut args)),
                other => {
                    match faults.accept(other, &mut || args.next()) {
                        Ok(true) => continue,
                        Ok(false) => {}
                        Err(why) => {
                            eprintln!("{app}: {why}");
                            usage();
                        }
                    }
                    let key = other.strip_prefix("--").unwrap_or_else(|| {
                        usage();
                        unreachable!()
                    });
                    let slot = sizes.iter_mut().find(|(k, _)| k == key);
                    match slot {
                        Some((_, v)) => {
                            *v = value(&mut args).parse().unwrap_or_else(|_| {
                                usage();
                                unreachable!()
                            })
                        }
                        None => {
                            usage();
                            unreachable!()
                        }
                    }
                }
            }
        }
        Opts { imp, nodes, threads, seed, trace_out, faults, sizes }
    }

    /// Look up an app-specific size by key.
    pub fn size(&self, key: &str) -> usize {
        self.sizes
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("size key {key} not registered"))
    }

    /// The virtual cluster these options describe, fault flags applied.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::virtual_cluster(self.nodes, self.threads).with_faults(self.faults.plan())
    }

    /// Build the Triolet runtime for these options. Span recording is on
    /// exactly when `--trace-out` was given.
    pub fn triolet_rt(&self) -> Triolet {
        Triolet::new(self.cluster_config().with_trace(self.trace_out.is_some()))
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

    /// Print the run header.
    pub fn banner(&self, app: &str) {
        println!(
            "{app}: impl={:?} cluster={}x{} seed={} sizes={:?}",
            self.imp, self.nodes, self.threads, self.seed, self.sizes
        );
        if self.faults != FaultFlags::default() {
            println!("{app}: faults={:?}", self.faults);
        }
    }
}

/// A [`RunStats`] as one line. What recovery cost (`retries`,
/// `redispatches`, `resident_misses`) is appended only when there was some,
/// so a fault-free line reads as it always has.
fn stats_line(stats: &RunStats) -> String {
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

/// Print a [`RunStats`] in one line.
pub fn print_stats(stats: &RunStats) {
    println!("{}", stats_line(stats));
}

/// Print a sequential-run timing in the same format.
pub fn print_seq_time(seconds: f64) {
    println!("time={seconds:.4}s (sequential)");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FaultFlags, String> {
        let mut flags = FaultFlags::default();
        let mut it = args.iter().map(|s| s.to_string());
        while let Some(flag) = it.next() {
            if !flags.accept(&flag, &mut || it.next())? {
                return Err(format!("{flag}: not a fault flag"));
            }
        }
        Ok(flags)
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
            &["--nodes", "4"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
