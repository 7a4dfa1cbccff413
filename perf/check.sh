#!/usr/bin/env bash
# Repeatability gate: build, run the end-to-end set twice with one seed, and
# compare the two result files against the benchmark's own bounds. Then run
# the traced pass at --quick and hand every trace to trace_check.
#
#   perf/check.sh [--quick] [SEED]
#
# Exits non-zero if any metric is `worse`, a name is missing, or a trace is
# refused. `unresolved` rows (spread wider than the bound) do not fail the
# gate; they say the machine was too noisy to tell.
set -euo pipefail

cd "$(dirname "$0")/.."
quick=()
if [[ "${1:-}" == "--quick" ]]; then
    quick=(--quick)
    shift
fi
seed="${1:-1}"

cargo build --release --offline --manifest-path perf/Cargo.toml
cargo build --release --offline -p triolet-obs --bin trace_check

# Both builds honour CARGO_TARGET_DIR; without it each workspace has its own.
perf="${CARGO_TARGET_DIR:-perf/target}/release/perf"
trace_check="${CARGO_TARGET_DIR:-target}/release/trace_check"

"$perf" run "${quick[@]}" --seed "$seed" --out perf/out/check_a.json
"$perf" run "${quick[@]}" --seed "$seed" --out perf/out/check_b.json
"$perf" compare perf/out/check_a.json perf/out/check_b.json

# The traced pass prints one `trace_check FILE SPAN...` line per workload.
"$perf" trace --quick --seed "$seed" --out perf/out/check_trace.json |
    grep '^trace_check ' |
    while read -r _ args; do
        # shellcheck disable=SC2086  # the line is a file and span names
        "$trace_check" $args
    done
echo "perf/check.sh: ok"
