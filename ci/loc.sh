#!/usr/bin/env bash
# Print the workspace's non-test line count: every line of every .rs file
# under crates/*/src above that file's first column-0 `#[cfg(test)]`, the
# test module (a file without one counts whole). An indented `#[cfg(test)]`
# on a test-only item inside non-test code does not end the count. This is the size ROADMAP.md tracks; the CI lint job
# bounds it, so a change that grows it raises the bound on purpose.
#
# Usage:
#   ci/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
# xargs may split a long file list over several awk runs: sum their counts.
find crates/*/src -name '*.rs' -print0 |
  xargs -0 awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' |
  awk '{ s += $1 } END { print s + 0 }'
