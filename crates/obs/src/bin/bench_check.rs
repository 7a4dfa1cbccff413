//! Offline validator for the committed `BENCH_*.json` trajectory.
//!
//! ```text
//! bench_check BENCH_scale.json BENCH_tenancy.json ...
//! ```
//!
//! Every committed capture must stay loadable by downstream tooling, so
//! each file is checked for:
//!
//! - valid JSON with a top-level object and a `"bench"` name string;
//! - if a `"points"` array exists: non-empty, all elements objects, every
//!   point carrying exactly the same key set as the first (schema drift
//!   inside one capture is the classic silent-breakage mode), and only
//!   scalar values (numbers, strings, booleans);
//! - known benches additionally checked against a required-field registry,
//!   so renaming or dropping a reported metric fails CI instead of
//!   silently orphaning the plot scripts.
//!
//! Exits non-zero with a diagnostic naming the first offending file/field.

use std::process::ExitCode;

use triolet_obs::json::{parse, Value};

/// Required fields per known bench: `(bench_name, top_level, point_fields)`.
/// `point_fields` is checked against each element of `points`; benches
/// without a `points` array list their required top-level sections instead.
const REGISTRY: &[(&str, &[&str], &[&str])] = &[
    (
        "ablation_distvec",
        &["points"],
        &["nodes", "input", "total_s", "bytes_per_iter", "resident_hits", "scatter_bytes"],
    ),
    ("ablation_kernels", &["sgemm", "tpacf", "unpack", "e2e_sgemm"], &[]),
    ("ablation_scale", &["points"], &["ranks", "call_wall_s", "events", "total_s"]),
    (
        "ablation_tenancy",
        &["nodes", "queue_cap", "points"],
        &[
            "policy",
            "tenant",
            "weight",
            "jobs",
            "share_cost",
            "share_busy",
            "share_err",
            "p50_s",
            "p99_s",
            "utilization",
        ],
    ),
];

fn is_scalar(v: &Value) -> bool {
    matches!(v, Value::Num(_) | Value::Str(_) | Value::Bool(_))
}

fn check_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let Some(obj) = doc.as_object() else {
        return Err(format!("{path}: top level is not an object"));
    };
    let Some(bench) = doc.get("bench").and_then(Value::as_str) else {
        return Err(format!("{path}: missing \"bench\" name string"));
    };

    let mut n_points = 0usize;
    if let Some(points) = doc.get("points") {
        let Some(points) = points.as_array() else {
            return Err(format!("{path}: \"points\" is not an array"));
        };
        if points.is_empty() {
            return Err(format!("{path}: \"points\" is empty"));
        }
        let Some(first) = points[0].as_object() else {
            return Err(format!("{path}: points[0] is not an object"));
        };
        let mut schema: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
        schema.sort_unstable();
        for (i, p) in points.iter().enumerate() {
            let Some(p) = p.as_object() else {
                return Err(format!("{path}: points[{i}] is not an object"));
            };
            let mut keys: Vec<&str> = p.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            if keys != schema {
                return Err(format!(
                    "{path}: schema drift at points[{i}]: {keys:?} != points[0] {schema:?}"
                ));
            }
            for (k, v) in p {
                if !is_scalar(v) {
                    return Err(format!("{path}: points[{i}].{k} is not a scalar"));
                }
            }
        }
        n_points = points.len();
    }

    if let Some(&(_, top, point_fields)) = REGISTRY.iter().find(|(name, _, _)| *name == bench) {
        for field in top {
            if doc.get(field).is_none() {
                return Err(format!("{path}: bench {bench:?} missing required field {field:?}"));
            }
        }
        if !point_fields.is_empty() {
            let points = doc.get("points").and_then(Value::as_array).expect("checked above");
            for (i, p) in points.iter().enumerate() {
                for field in point_fields {
                    if p.get(field).is_none() {
                        return Err(format!(
                            "{path}: bench {bench:?} missing point field {field:?} at points[{i}]"
                        ));
                    }
                }
            }
        }
    } else {
        // Unknown bench names still get the generic checks above, but the
        // registry should grow with the trajectory: say so loudly.
        eprintln!(
            "bench_check: note: {path}: bench {bench:?} not in registry (generic checks only)"
        );
    }
    let _ = obj;
    Ok(format!("{path}: bench {bench:?} ok ({n_points} points)"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: bench_check BENCH_FILE.json ...");
        return ExitCode::FAILURE;
    }
    for path in &args {
        match check_file(path) {
            Ok(msg) => println!("bench_check: OK: {msg}"),
            Err(msg) => {
                eprintln!("bench_check: FAIL: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
