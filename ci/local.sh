#!/usr/bin/env bash
# Run the steps of .github/workflows/ci.yml that need no network, on this
# checkout. The lint job's steps call this script, so each bound below is
# written once.
#
# Usage:
#   ci/local.sh                  lint, test, repro and traces
#   ci/local.sh SECTION...       the named sections, in order
#   ci/local.sh counts BASE_REF  e.g. `ci/local.sh lint counts HEAD~1`
#
# Sections:
#   lint      fmt, clippy, doc, unsafe, loc and instant
#   fmt       rustfmt --check
#   clippy    clippy over every target with warnings denied
#   doc       rustdoc over the workspace with warnings denied
#   unsafe    `unsafe` sites in crates/*/src stay at the audited count
#   loc       non-test lines in crates/*/src (ci/loc.sh) stay at the bound
#   instant   host time enters the model only through triolet_cluster::clock
#   test      Tier-1: the release build, then the whole test suite
#   repro     repro --quick prints all nine tables
#   traces    the nine ci/trace_gate.sh runs of the CI jobs
#   counts    ci/counts_gate.sh BASE: every traced count equals BASE's
set -euo pipefail
cd "$(dirname "$0")/.."

# The seven `unsafe` sites in serial/{pod,view}.rs are the audited set; a new
# one must raise this bound on purpose. Comment lines are not counted.
unsafe_sites() {
  local n
  n=$(grep -rnw unsafe crates/*/src | grep -cvE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
  echo "unsafe sites: $n"
  test "$n" -le 7
}

# A change that grows the count raises this bound and says why in
# CHANGES.md; a change that shrinks it may lower it.
loc() {
  local n
  n=$(ci/loc.sh)
  echo "non-test lines: $n"
  test "$n" -le 14220
}

# Every modeled host reading in the runtime and the apps goes through
# crates/cluster/src/clock.rs. crates/apps/src/bin stays exempt for timers
# whose readings are CLI output only. Comment lines and everything from a
# file's first #[cfg(test)] are skipped, as for the unsafe bound.
instant() {
  local hits
  hits=$(find crates/cluster/src crates/core/src crates/baselines/src crates/apps/src \
      -name '*.rs' ! -path crates/cluster/src/clock.rs ! -path 'crates/apps/src/bin/*' -print0 |
    xargs -0 awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 }
      !t && !/^[[:space:]]*\/\// && /Instant::now/ { print FILENAME ":" FNR ": " $0 }')
  if [ -n "$hits" ]; then
    echo "$hits"
    echo "read host time through triolet_cluster::clock"
    return 1
  fi
}

repro() {
  local out
  cargo build --offline --release -q -p triolet-bench --bin repro
  out=$(mktemp)
  ./target/release/repro --quick | tee "$out"
  test "$(grep -c '^### ' "$out")" -eq 9
  rm -f "$out"
}

# The same nine runs, with the same arguments, as the CI jobs that export a
# trace: trace-export (two), collectives (three), distvec (two), kernels
# and tenancy (one each).
traces() {
  ci/trace_gate.sh mriq --impl triolet --nodes 4 --threads 4 -- \
    skeleton:build_vec root:slice node:task chunk pack root:unpack
  ci/trace_gate.sh mriq --impl triolet --nodes 8 --threads 2 -- \
    skeleton:build_vec root:pack node:task chunk root:unpack \
    root:merge:streamed
  ci/trace_gate.sh tpacf --impl triolet --nodes 8 --threads 2 \
    --points 128 --sets 8 --bins 16 -- \
    skeleton:fold_reduce comm:tree node:task chunk
  ci/trace_gate.sh sgemm --impl triolet --nodes 8 --threads 2 --dim 384 -- \
    skeleton:build_array2 comm:tree send node:task --tagged comm:tree piece
  ci/trace_gate.sh mriq --impl triolet --nodes 256 --threads 2 -- \
    skeleton:build_vec root:slice node:task chunk pack root:unpack \
    comm:tree
  ci/trace_gate.sh kmeans --impl triolet --nodes 8 --threads 2 \
    --points 4096 --k 8 --iters 4 -- \
    skeleton:scatter dist:scatter skeleton:fold_reduce node:task chunk \
    --events dist:resident-hit task:ride
  ci/trace_gate.sh kmeans --impl triolet --nodes 8 --threads 2 \
    --points 4096 --k 8 --iters 4 --crash 3 --drop 0.05 --fault-seed 7 -- \
    skeleton:fold_reduce node:task \
    --events dist:resident-miss dist:rehome dist:resident-hit redispatch task:ride
  ci/trace_gate.sh sgemm --impl triolet --nodes 4 --threads 2 --dim 96 -- \
    skeleton:build_array2 root:slice root:unpack node:task chunk pack
  ci/trace_gate.sh jobs --nodes 8 --threads 2 --tenants 3 --jobs 60 \
    --policy fair -- \
    service:job skeleton:sum node:task chunk --events service:admit \
    --tagged service:job tenant skeleton:sum tenant
}

[[ $# -gt 0 ]] || set -- lint test repro traces
while [[ $# -gt 0 ]]; do
  echo "== ci/local.sh $1"
  case $1 in
    lint) "$0" fmt clippy doc unsafe loc instant ;;
    fmt) cargo fmt --all -- --check ;;
    clippy) cargo clippy --offline --workspace --all-targets -- -D warnings ;;
    doc) RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace ;;
    unsafe) unsafe_sites ;;
    loc) loc ;;
    instant) instant ;;
    test) cargo build --offline --release && cargo test --offline -q ;;
    repro) repro ;;
    traces) traces ;;
    counts)
      [[ $# -ge 2 ]] || { echo "usage: $0 counts BASE_REF" >&2; exit 2; }
      ci/counts_gate.sh "$2"
      shift
      ;;
    *) echo "ci/local.sh: unknown section $1 (see the header of $0)" >&2; exit 2 ;;
  esac
  shift
done
