//! The whole set in one command: `run` (end-to-end, tracing off), `trace`
//! (per-layer) and `all` (both), each workload in child processes of this
//! same binary, and `compare` over two result files.
//!
//! `run` makes [`SuiteOptions::rounds`] rounds and in each spawns one child
//! per workload, so the workloads are interleaved across the whole window
//! (machine drift hits them alike) and each child's peak memory is its
//! workload's own. One process runs at a time.

use std::path::Path;
use std::process::Command;

use triolet_obs::json::{parse, Value};

use crate::report::{header, metric_named, num, obj, text, to_json};
use crate::spec::{probe_names, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, summary, Summary};
use crate::sys;

pub struct SuiteOptions {
    pub seed: u64,
    pub rounds: usize,
    /// `--seconds` of each end-to-end child.
    pub seconds: f64,
    /// `--seconds` of each per-layer child.
    pub trace_seconds: f64,
    pub quick: bool,
}

impl SuiteOptions {
    pub fn new(seed: u64, quick: bool) -> Self {
        if quick {
            SuiteOptions { seed, rounds: 1, seconds: 1.0, trace_seconds: 1.0, quick }
        } else {
            SuiteOptions { seed, rounds: 5, seconds: 2.0, trace_seconds: 6.0, quick }
        }
    }
}

/// What one child printed: its result object and, for an end-to-end child,
/// the samples behind it.
struct ChildOutput {
    result: Value,
    samples: Option<Value>,
    /// A per-layer child's `trace_check ...` line, passed on for scripts.
    trace_check: Option<String>,
}

fn run_child(workload: &str, opts: &SuiteOptions, trace: bool) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seconds = if trace { opts.trace_seconds } else { opts.seconds };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(["--samples", "1"]);
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("child for {workload} exited with {}: {stdout}", out.status));
    }
    let last =
        stdout.lines().last().ok_or_else(|| format!("child for {workload} printed nothing"))?;
    let result = parse(last).map_err(|e| format!("child for {workload}: bad result line: {e}"))?;
    let samples = stdout
        .lines()
        .find_map(|l| l.strip_prefix("samples "))
        .map(|l| parse(l).map_err(|e| format!("child for {workload}: bad samples line: {e}")))
        .transpose()?;
    let trace_check = stdout.lines().find(|l| l.starts_with("trace_check ")).map(str::to_string);
    Ok(ChildOutput { result, samples, trace_check })
}

fn field_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn summary_value(s: Summary, unit: &str) -> Value {
    obj([
        ("median", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("n", num(s.n as f64)),
        ("unit", text(unit)),
    ])
}

/// End-to-end results of every workload: `rounds` interleaved rounds of one
/// child each, samples pooled over the rounds.
fn run_end_to_end(opts: &SuiteOptions) -> Result<Vec<(String, Value)>, String> {
    struct Pooled {
        attempted: f64,
        failed: f64,
        samples: Vec<Vec<f64>>,
    }
    let mut pooled: Vec<Pooled> = WORKLOADS
        .iter()
        .map(|_| Pooled {
            attempted: 0.0,
            failed: 0.0,
            samples: vec![Vec::new(); END_TO_END.len()],
        })
        .collect();
    for round in 0..opts.rounds {
        for (w, pool) in WORKLOADS.iter().zip(&mut pooled) {
            let child = run_child(w.name, opts, false)?;
            pool.attempted += field_f64(&child.result, "attempted");
            pool.failed += field_f64(&child.result, "failed");
            let samples = child.samples.ok_or_else(|| format!("{}: no samples line", w.name))?;
            for (m, into) in END_TO_END.iter().zip(&mut pool.samples) {
                let values = samples.get(m.name).and_then(Value::as_array);
                into.extend(values.into_iter().flatten().filter_map(Value::as_f64));
            }
            println!(
                "round {}/{} {:<13} host_run_s median so far {:.6}",
                round + 1,
                opts.rounds,
                w.name,
                median(&pool.samples[1])
            );
        }
    }
    Ok(WORKLOADS
        .iter()
        .zip(pooled)
        .map(|(w, pool)| {
            let metrics = END_TO_END
                .iter()
                .zip(&pool.samples)
                .map(|(m, s)| (m.name, summary_value(summary(s), m.unit)));
            let entry = obj([
                ("attempted", num(pool.attempted)),
                ("failed", num(pool.failed)),
                ("end_to_end", obj(metrics)),
            ]);
            (w.name.to_string(), entry)
        })
        .collect())
}

/// Per-layer results: one traced child per workload. Returns each
/// workload's own metrics and the probe figures (median over the children).
fn run_per_layer(opts: &SuiteOptions) -> Result<(Vec<(String, Value)>, Value), String> {
    let probes: Vec<&str> = probe_names().collect();
    let mut probe_values: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
    let mut per_workload = Vec::new();
    for w in &WORKLOADS {
        let child = run_child(w.name, opts, true)?;
        let metrics =
            child.result.get("metrics").ok_or_else(|| format!("{}: no metrics", w.name))?;
        let value_of = |name: &str| metrics.get(name).map(|m| field_f64(m, "value"));
        for (name, into) in probes.iter().zip(&mut probe_values) {
            into.extend(value_of(name));
        }
        let own = PER_LAYER
            .iter()
            .filter(|m| !probes.contains(&m.name))
            .filter_map(|m| Some((m.name, num(value_of(m.name)?))));
        per_workload.push((w.name.to_string(), obj(own)));
        println!("traced {:<13} failed {}", w.name, field_f64(&child.result, "failed"));
        println!("{}", child.trace_check.unwrap_or_default());
    }
    let layers = obj(probes.iter().zip(&probe_values).map(|(name, v)| (*name, num(median(v)))));
    Ok((per_workload, layers))
}

/// One line per plain-valued metric of a result object's section.
fn print_values(section: Option<&Value>) {
    for (metric, v) in section.and_then(Value::as_object).into_iter().flatten() {
        let m = metric_named(metric).expect("declared");
        println!(
            "  {metric:<36} {:>16.6} {:<6} {} is better",
            v.as_f64().unwrap_or(0.0),
            m.unit,
            m.better.as_str()
        );
    }
}

fn print_results(result: &Value) {
    let Some(workloads) = result.get("workloads").and_then(Value::as_object) else { return };
    for (name, entry) in workloads {
        println!(
            "{name}: attempted {} failed {}",
            field_f64(entry, "attempted"),
            field_f64(entry, "failed")
        );
        for (metric, s) in entry.get("end_to_end").and_then(Value::as_object).into_iter().flatten()
        {
            let m = metric_named(metric).expect("declared");
            println!(
                "  {metric:<36} {:>16.6} {:<6} [q1 {:.6} q3 {:.6} n {}] {} is better  bound {}",
                field_f64(s, "median"),
                m.unit,
                field_f64(s, "q1"),
                field_f64(s, "q3"),
                field_f64(s, "n"),
                m.better.as_str(),
                m.bound
            );
        }
        print_values(entry.get("per_layer"));
    }
    if let Some(layers) = result.get("layers") {
        println!(
            "layers (isolation probes; serial.* buffer is cache-resident: caches {}):",
            sys::cache_sizes()
        );
        print_values(Some(layers));
    }
}

/// Which passes a suite command makes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    Run,
    Trace,
    All,
}

/// `run`, `trace` or `all`: measure, print every metric by name, write the
/// result file. Errors if a child could not be run; failed calls inside a
/// child are counted, not fatal.
pub fn measure(passes: Passes, opts: &SuiteOptions, out: &Path) -> Result<(), String> {
    let mut workloads: Vec<(String, Value)> = if passes != Passes::Trace {
        run_end_to_end(opts)?
    } else {
        WORKLOADS.iter().map(|w| (w.name.to_string(), obj::<String>([]))).collect()
    };
    let mut fields =
        vec![("header".to_string(), header(opts.seed, opts.rounds, opts.seconds, opts.quick))];
    let mut layers = None;
    if passes != Passes::Run {
        let (per_workload, probe_medians) = run_per_layer(opts)?;
        for ((_, entry), (_, own)) in workloads.iter_mut().zip(per_workload) {
            if let Value::Obj(f) = entry {
                f.push(("per_layer".to_string(), own));
            }
        }
        layers = Some(probe_medians);
    }
    fields.push(("workloads".to_string(), Value::Obj(workloads)));
    fields.extend(layers.map(|l| ("layers".to_string(), l)));
    let result = Value::Obj(fields);
    print_results(&result);
    sys::write_out(out, &(to_json(&result) + "\n"));
    println!("wrote {}", out.display());
    Ok(())
}

// -- compare ----------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Either side's quartile spread is wider than the bound: the pair
    /// cannot show a difference of that size.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative
/// when `b` is better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(a: Summary, b: Summary, better: Better, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worsening(a.median, b.median, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn summary_at(doc: &Value, workload: &str, metric: &str) -> Option<Summary> {
    let s = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    Some(Summary {
        median: s.get("median")?.as_f64()?,
        q1: s.get("q1")?.as_f64()?,
        q3: s.get("q3")?.as_f64()?,
        n: s.get("n")?.as_f64()? as usize,
    })
}

/// `compare A.json B.json`: per workload x end-to-end metric, both medians
/// and quartiles, the relative difference, the bound and a verdict.
/// `Ok(true)` when nothing is worse and no name is missing.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!(
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | B vs A | bound | verdict |"
    );
    println!("|---|---|---|---|---:|---:|---|");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) =
                (summary_at(&a, w.name, m.name), summary_at(&b, w.name, m.name))
            else {
                println!(
                    "| {} | {} | missing | missing | | {} | missing |",
                    w.name, m.name, m.bound
                );
                clean = false;
                continue;
            };
            let v = verdict(sa, sb, m.better, m.bound);
            clean &= v != Verdict::Worse;
            println!(
                "| {} | {} | {:.6} [{:.6}, {:.6}] | {:.6} [{:.6}, {:.6}] | {:+.2}% | {} | {} |",
                w.name,
                m.name,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                100.0 * worsening(sa.median, sb.median, m.better),
                m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for side in [&a, &b] {
            let failed =
                side.get("workloads").and_then(|ws| ws.get(w.name)).map(|e| field_f64(e, "failed"));
            if failed != Some(0.0) {
                println!("| {} | failed calls | {failed:?} | | | 0 | worse |", w.name);
                clean = false;
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, half_iqr: f64) -> Summary {
        Summary { median, q1: median - half_iqr, q3: median + half_iqr, n: 40 }
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        // Within the bound either way.
        assert_eq!(verdict(s(1.0, 0.01), s(1.05, 0.01), Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(s(1.0, 0.01), s(0.5, 0.01), Better::Lower, 0.10), Verdict::Ok);
        // Past the bound, in the metric's own direction.
        assert_eq!(verdict(s(1.0, 0.01), s(1.2, 0.01), Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(s(1.0, 0.01), s(1.2, 0.01), Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(verdict(s(1.0, 0.01), s(0.8, 0.01), Better::Higher, 0.10), Verdict::Worse);
        // A spread wider than the bound resolves nothing, whatever the medians.
        assert_eq!(verdict(s(1.0, 0.08), s(1.5, 0.01), Better::Lower, 0.10), Verdict::Unresolved);
        // A count must repeat: any growth is worse at a (near-)zero bound.
        assert_eq!(verdict(s(1000.0, 0.0), s(1000.0, 0.0), Better::Lower, 0.001), Verdict::Ok);
        assert_eq!(verdict(s(1000.0, 0.0), s(1002.0, 0.0), Better::Lower, 0.001), Verdict::Worse);
    }

    #[test]
    fn worsening_is_relative_to_the_first_side() {
        assert!((worsening(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, Better::Higher) + 0.25).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }
}
