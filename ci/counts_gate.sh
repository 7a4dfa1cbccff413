#!/usr/bin/env bash
# "Every count exactly equal" as a command: the gate for refactors of
# cluster.rs / engine.rs (the last row of perf/README.md § Interactions).
#
# Usage:
#   ci/counts_gate.sh BASE_REF
#
# Checks BASE_REF out into a scratch directory, builds perf/ there and in
# this tree (separate target dirs; the base's is target/counts_gate_base, so
# a second run rebuilds only what changed), runs the traced pass
# `perf trace --quick --seed 1` on both, and fails listing every per-layer
# row whose unit in BENCHMARK.json is `count` or `bytes` that differs
# (bytes_out + bytes_back is wire_bytes). Timing and ratio rows are host
# measurements and are ignored. Nothing is downloaded.
set -euo pipefail

[[ $# -eq 1 ]] || { echo "usage: $0 BASE_REF" >&2; exit 2; }
cd "$(dirname "$0")/.."
root=$PWD
base_commit=$(git rev-parse --verify "$1^{commit}")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base_commit" | tar -x -C "$work/base"

traced_pass() { # MANIFEST OUT [ENV=VALUE...]
    local manifest=$1 out=$2
    shift 2
    env "$@" cargo run --release --offline --quiet --manifest-path "$manifest" -- \
        trace --quick --seed 1 --out "$out" >/dev/null
}
traced_pass "$work/base/perf/Cargo.toml" "$work/base.json" \
    CARGO_TARGET_DIR="$root/target/counts_gate_base"
traced_pass perf/Cargo.toml "$work/head.json"

python3 - BENCHMARK.json "$work/base.json" "$work/head.json" "$base_commit" <<'PY'
import json, sys

bench, base, head = (json.load(open(p)) for p in sys.argv[1:4])
exact = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")]
rows, moved = 0, []
for workload in (w["name"] for w in bench["workloads"]):
    b, h = (side["workloads"][workload]["per_layer"] for side in (base, head))
    for name in exact:
        if name in b or name in h:
            rows += 1
            if b.get(name) != h.get(name):
                moved.append(f"  {workload:13} {name:30} {b.get(name)} -> {h.get(name)}")
if moved:
    print(f"counts_gate: {len(moved)} of {rows} count rows differ from {sys.argv[4][:12]}:")
    print("\n".join(moved))
    sys.exit(1)
print(f"counts_gate: ok, {rows} count rows exactly equal to {sys.argv[4][:12]}")
PY
