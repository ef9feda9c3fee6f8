#!/usr/bin/env bash
# Runs the full gated set twice on the same build and seed, prints every
# (workload, metric) relative difference beside its bound, and exits
# non-zero if a gated metric disagrees by more than its bound, if any
# request failed, or if a workload did not do what its reason says
# (cache hit ratio, checkpoints).
#
#   benchmark/repeat.sh [--seed N] [--seconds S] [--smoke]
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/target}"

for pass in 1 2; do
  mkdir -p "benchmark/out/repeat-$pass"
  for w in short-cached adhoc-plan analytic-scan durable-writes; do
    echo "pass $pass: $w" >&2
    benchmark/run.sh --workload "$w" --trace 0 "$@" > "benchmark/out/repeat-$pass/$w.txt"
  done
done
"$CARGO_TARGET_DIR/release/sqlpp-benchmark" compare benchmark/out/repeat-1 benchmark/out/repeat-2
