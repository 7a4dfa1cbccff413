#!/usr/bin/env bash
# Run one `triolet-app` command with --trace-out and validate the exported
# chrome://tracing JSON with trace_check — the one observability gate every
# CI job shares instead of six copy-pasted run-then-check blocks.
#
# Usage:
#   ci/trace_gate.sh <app> [app args...] -- <trace_check args...>
#
# <app> is an app of the table (mriq, sgemm, tpacf, cutcp, kmeans) or `jobs`.
# Everything before `--` is passed to `triolet-app <app>` (the script appends
# --trace-out itself); everything after it is passed to trace_check after
# the trace path, so required spans, `--events NAME...`, and
# `--tagged SPAN KEY...` all work unchanged.
set -euo pipefail

usage() {
  echo "usage: $0 <app> [app args...] -- <trace_check args...>" >&2
  exit 2
}

[[ $# -ge 3 ]] || usage
BIN=$1
shift

APP_ARGS=()
while [[ $# -gt 0 && $1 != "--" ]]; do
  APP_ARGS+=("$1")
  shift
done
[[ $# -gt 0 ]] || { echo "trace_gate: missing '--' separator" >&2; usage; }
shift

TRACE="${BIN}.gate.trace.json"
cargo run --offline --release -p triolet-apps --bin triolet-app -- "$BIN" \
  "${APP_ARGS[@]}" --trace-out "$TRACE"
cargo run --offline --release -p triolet-obs --bin trace_check -- "$TRACE" "$@"
