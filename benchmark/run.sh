#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark crate (offline,
# path-only dependencies) and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]    all four workloads, gated run
#   benchmark/run.sh --trace [...]                          all four, traced run
#   benchmark/run.sh --workload <name> --trace <0|1> [...]  one workload (the driver's form)
#
# The last line of each workload's output is its machine-readable result.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

# Build products go to the repo's target/ unless the caller says otherwise.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
BIN="$CARGO_TARGET_DIR/release/sqlpp-benchmark"

args=()
workload=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --trace)
      # `--trace 0|1` is passed through; a bare `--trace` means 1.
      if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        args+=(--trace "$2"); shift 2
      else
        args+=(--trace 1); shift
      fi ;;
    *) args+=("$1"); shift ;;
  esac
done

if [ -n "$workload" ]; then
  exec "$BIN" --workload "$workload" --out benchmark/out ${args[@]+"${args[@]}"}
fi
# One process per workload: peak RSS is a per-process high-water mark.
for w in short-cached adhoc-plan analytic-scan durable-writes; do
  "$BIN" --workload "$w" --out benchmark/out ${args[@]+"${args[@]}"}
  echo
done
