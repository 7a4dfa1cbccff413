//! Output: the JSON the harness emits (built as `triolet_obs::json::Value`,
//! the same type it is parsed back into) and the by-name metric listing.

use triolet::CostModel;
use triolet_obs::json::Value;

use crate::measure::Outcome;
use crate::spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::sys;

pub fn num(v: f64) -> Value {
    Value::Num(if v.is_finite() { v } else { 0.0 })
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn write_json(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Rust's shortest round-trip form: every digit that was measured.
        Value::Num(n) => out.push_str(&format!("{n}")),
        Value::Str(s) => {
            out.push('"');
            escape(s, out);
            out.push('"');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                escape(k, out);
                out.push_str("\": ");
                write_json(item, out);
            }
            out.push('}');
        }
    }
}

/// Serialize on one line.
pub fn to_json(v: &Value) -> String {
    let mut out = String::new();
    write_json(v, &mut out);
    out
}

/// The declaration of a reported metric, wherever it is declared.
pub fn metric_named(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One line per metric: name, value, unit, direction and (end-to-end) bound.
pub fn print_metrics(metrics: &[(&'static str, f64)]) {
    for (name, value) in metrics {
        let m = metric_named(name).expect("reported metric is declared");
        let bound = if m.bound > 0.0 { format!("  bound {}", m.bound) } else { String::new() };
        println!("  {name:<36} {value:>16.6} {:<6} {} is better{bound}", m.unit, m.better.as_str());
    }
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value and unit.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome.metrics.iter().map(|(name, value)| {
        let unit = metric_named(name).expect("reported metric is declared").unit;
        (*name, obj([("value", num(*value)), ("unit", text(unit))]))
    });
    to_json(&obj([
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", obj(metrics)),
    ]))
}

/// `perf list`: every name with unit, direction, bound and definition.
pub fn print_list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload, tracing off):");
    for m in &END_TO_END {
        println!(
            "  {:<36} {:<6} {} is better  bound {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in PER_LAYER {
        println!("  {:<36} {:<6} {} is better  {}", m.name, m.unit, m.better.as_str(), m.what);
    }
}

/// Where and how a result set was measured.
pub fn header(seed: u64, rounds: usize, seconds: f64, quick: bool) -> Value {
    let cost = CostModel::default();
    obj([
        ("git_commit", text(sys::first_line_of("git", &["rev-parse", "HEAD"]))),
        ("rustc", text(sys::first_line_of("rustc", &["-V"]))),
        ("nproc", num(sys::nproc() as f64)),
        ("cpu_model", text(sys::cpu_model())),
        ("cache_sizes", text(sys::cache_sizes())),
        ("seed", num(seed as f64)),
        ("rounds", num(rounds as f64)),
        ("seconds_per_child", num(seconds)),
        ("quick", Value::Bool(quick)),
        (
            "cost_model",
            obj([
                ("latency_s", num(cost.latency_s)),
                ("bandwidth_bps", num(cost.bandwidth_bps)),
                ("ranks_per_rack", num(cost.ranks_per_rack as f64)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_obs::json::parse;

    #[test]
    fn emitted_json_parses_back_to_the_same_value() {
        let v = obj([
            ("name", text("a \"quoted\"\\ line\nbreak")),
            ("n", num(0.1 + 0.2)),
            ("bad", num(f64::NAN)),
            ("list", Value::Arr(vec![num(1.0), Value::Bool(true), Value::Null])),
        ]);
        let back = parse(&to_json(&v)).expect("valid JSON");
        assert_eq!(back.get("n").and_then(Value::as_f64), Some(0.1 + 0.2));
        assert_eq!(back.get("bad").and_then(Value::as_f64), Some(0.0));
        assert_eq!(back.get("name").and_then(Value::as_str), Some("a \"quoted\"\\ line\nbreak"));
        assert_eq!(back.get("list").and_then(Value::as_array).map(Vec::len), Some(3));
    }
}
