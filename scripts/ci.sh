#!/usr/bin/env bash
# Hermetic CI: everything here must pass offline, with an empty cargo
# registry — the workspace has no crates.io dependencies by policy
# (DESIGN.md §7). Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt check =="
cargo fmt --all --check

echo "== clippy (all targets, warnings are errors) =="
cargo clippy --all-targets --offline -- -D warnings

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== timing tests (release, one at a time) =="
# The checks that compare wall times: governed vs ungoverned, spilled vs
# in-memory sort, top-k vs sort-then-limit, cached vs cold request,
# per-session fairness under mixed load, batched vs one-row pulls. Each is
# a median of 7 runs; one test at a time, so none times another's work.
cargo test -q --release --test timing -- --test-threads=1
echo "timing OK"

echo "== out-of-core differential gate =="
# Spill-on vs spill-off twins: external sort ≡ in-memory sort ≡ a Rust
# oracle (exact order, both typing modes), Grace join/GROUP BY ≡ their
# in-memory paths as multisets, top-k ≡ ORDER BY + LIMIT across offsets
# and edge limits, a budget sweep straddling partition boundaries, no
# leaked temp files, and bytecode-compiled sort keys.
cargo test -q --release --test out_of_core
echo "out-of-core differential OK"

echo "== crash-recovery gate =="
# Deterministic crash-point sweep: the engine is killed at every
# injectable point in the WAL append / fsync / snapshot write / rename
# paths during a seeded DML workload, then recovered. Every crash point
# must recover to exactly the pre- or post-commit state of the
# interrupted statement, every acknowledged commit must survive, no
# temp files may leak, and zero panics — plus torn-tail truncation,
# mid-log corruption reporting, and the WAL prefix-differential.
cargo test -q --release --test crash_recovery
echo "crash recovery OK"

echo "== serving chaos gate (threaded) =="
# Real TCP clients hammering one engine from many threads: concurrent
# reads, schema-violating DML (refused atomically — guarded collection
# byte-identical after the storm), succeeding DML (exact count), and
# budget-tripped queries (shed, never errors), with zero caught panics.
cargo test -q --release --test serving
echo "serving chaos OK"

echo "== frontend fuzz smoke (seeded) =="
# Fixed-seed fuzz of the error-recovering front end: byte soup, token
# soup, and mutation-corrupted corpus queries — 500 cases per property
# (~2000 inputs total) must produce zero panics, only well-formed
# spanned diagnostics, and bit-identical ASTs for valid input in strict
# vs recovering mode. Regression seeds persist under
# tests/regression-seeds/ and are replayed first on every run.
SQLPP_PROP_PERSIST_DIR=tests/regression-seeds SQLPP_PROP_CASES=500 \
  cargo test -q --release --test fuzz_frontend
echo "frontend fuzz OK"

echo "== binary decoder fuzz (seeded, release) =="
# ion_lite and wire-frame decoders under byte soup, bit flips,
# truncations and an attribute-name flood past the intern table's cap —
# built with release overflow behaviour, which the debug tier-1 run
# does not exercise.
cargo test -q --release -p sqlpp-formats --test ion_fuzz
echo "binary decoder fuzz OK"

echo "== spine differential gate (seeded) =="
# The fused spine's consumers against the binding stream and the
# paper-literal plan: pushdown below UNNEST (a correlate's left filter)
# and late materialization (top-k, the inner hash join's probe side),
# under optimize on/off x batch 1/2/1024 x both typing modes — equal
# answers or the identical error — plus the FROM-source policy axis
# (every kind of source, with and without AT, stats on and off, checked
# against a transcription of the policy). 20000 cases per property take
# about 20 s on two cores. A divergence is persisted as a regression seed under
# tests/regression-seeds/, replayed first on every run.
SQLPP_PROP_PERSIST_DIR=tests/regression-seeds SQLPP_PROP_CASES=20000 \
  cargo test -q --release --test pushdown --test spine_consumers
echo "spine differential OK"

echo "== allocation ledger gate =="
# Predicate scans, a hash-join build and a folded GROUP BY over 64 and
# 256 rows must make the same number of heap allocations: none per row
# they read but do not keep. Counted in the release build, the one the
# benchmark measures.
cargo test -q --release --test allocs
echo "allocation ledger OK"

echo "== diagnostics golden gate =="
# Caret-underlined multi-error reports are pinned byte-for-byte under
# tests/golden/diagnostics/; regenerate intentionally with
# SQLPP_UPDATE_GOLDEN=1 and review the diff.
cargo test -q --release --test diagnostics
echo "diagnostics goldens OK"

echo "== chaos gate (seeded fault injection) =="
# 352 fixed-seed fault-injection runs across SELECT, DML, and the
# out-of-core sites (temp-file create / spill write / spill read): zero
# panics across the API boundary, byte-identical catalog after every
# failed DML, no leaked temp files, engine usable after every failure.
# Deterministic seeds — a failure here reproduces exactly.
cargo test -q --release --test chaos
echo "chaos OK"

echo "== compat-kit regression gate =="
# The corpus pass count is checked in here; a drop means an engine
# regression, a rise means this number needs bumping alongside the fix.
expected_compat_passes=89
compat_out="$(cargo run --release -q -p sqlpp-compat-kit --bin compat_report)"
summary="$(printf '%s\n' "$compat_out" | grep -E '[0-9]+ passed, [0-9]+ failed, [0-9]+ total' | tail -n 1)"
passed="$(printf '%s\n' "$summary" | sed -E 's/^([0-9]+) passed.*/\1/')"
failed="$(printf '%s\n' "$summary" | sed -E 's/.* ([0-9]+) failed.*/\1/')"
if [ -z "$passed" ] || [ "$failed" != "0" ] || [ "$passed" -lt "$expected_compat_passes" ]; then
  printf '%s\n' "$compat_out" >&2
  echo "compat regression: want >= $expected_compat_passes passed / 0 failed, got '$summary'" >&2
  exit 1
fi
echo "compat OK: $summary"

echo "== explain analyze smoke =="
# The example asserts its annotations — and that the GROUP BY breaker's
# time covers its child's (a breaker's build is its own work).
cargo run --release -q --example explain_analyze

echo "== benchmark smoke (public-API + correctness gate) =="
# benchmark/ is a package of its own, outside the workspace: nothing
# above builds it, so a public-API break that would fail the PR gate is
# invisible without this stage. --smoke runs all four workloads briefly
# (offline; writes only to the git-ignored benchmark/out), one paragraph
# of output each, ending in the workload's machine-readable result line.
bash benchmark/run.sh --smoke | awk -v RS= -F'\n' '
  { seen++; if ($NF !~ /"correct": true/) { print "benchmark smoke: " $1 > "/dev/stderr"; bad = 1 } }
  END { if (seen != 4) print "benchmark smoke: " seen + 0 " of 4 workloads reported" > "/dev/stderr"
        exit !(seen == 4 && !bad) }'
echo "benchmark smoke OK: 4 workloads correct"

echo "== benchmark unit tests (generator model vs engine) =="
# The benchmark's own tests check its generator's model of every shape's
# answer against the engine, so a shape whose plan changes is caught here
# rather than by a refused benchmark run. Like run.sh, build products go
# to the repo's target/ unless CARGO_TARGET_DIR says otherwise.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" \
  cargo test --offline --release -q --manifest-path benchmark/Cargo.toml
echo "benchmark unit tests OK"

echo "== one front door gate (no print -> re-parse between layers) =="
# Layers hand each other ASTs. The pretty-printer is for people and for
# round-trip tests; engine and server code must never call it to build
# text for another layer to parse again.
if grep -rnE 'print_expr|print_query' crates/core/src crates/server/src; then
  echo "print_expr/print_query used in crates/core/src or crates/server/src" >&2
  exit 1
fi
echo "front door OK"

echo "== one way to yield a collection gate =="
# Value operators are streams, the fused spine is one stream built in one
# place, and COLL_* always streams its subquery: the knob and the second
# paths it selected must not come back. Every FROM scan is the one
# positional scan, which alone decides the source policy: the shared and
# owned binding scans it replaced must not come back either. Observers
# (stats, EXPLAIN ANALYZE, fault injection) watch the spine production
# runs: the switch that turned it off under them must not come back.
if grep -rnE 'pipeline_aggregates|try_fused_project|coll_agg_pipelined|SharedScan|OwnedScan|scan_value_stream|source_stream|spine_on' crates tests examples; then
  echo "a deleted materializing path or second scan is referenced again" >&2
  exit 1
fi
echo "one collection path and one scan OK"

echo "== one child walker per tree gate =="
# Lowering and every optimizer pass recurse through one child enumeration
# per tree (`Expr::for_each_child*` in the AST, the `CoreOp`/`CoreFrom`/
# `CoreExpr` walkers in `plan::core`). The hand-written full-tree walks
# they replaced, which disagreed on what they reached, must not come back.
if grep -rnE 'collect_expr_plans|collect_from_plans|expr_has_sql_aggregate|substitute_captured|op_refs|from_refs' crates tests examples; then
  echo "a deleted hand-written tree walk is referenced again" >&2
  exit 1
fi
echo "one walker per tree OK"

echo "== one counter record gate =="
# The evaluator counts straight into `ExecStats`, so a counter is an
# `ExecStats` field, its `counters()` entry and its call sites. The
# collector's per-counter mirror (a method per counter and per operator
# field) and the quadratic DISTINCT-aggregate scan beside the DISTINCT
# table must not come back.
if grep -rnE 'distinct_elements|next_op_index|record_op_batches|record_peak_rows|add_rows_scanned|add_dedupe_probes' crates tests examples; then
  echo "a deleted stats mirror or DISTINCT scan is referenced again" >&2
  exit 1
fi
echo "one counter record OK"

echo "== one consumer loop gate =="
# Every consumer — projection, DISTINCT, PIVOT, sort, top-k, GROUP BY, a
# standalone WHERE, a correlate's left filter, a hash join's probe and
# build sides, a DELETE or UPDATE — reads its input through the one row
# loop (`FusedScan`), off the slice or off any binding stream. The
# binding-stream twins it replaced, the probe-side variants, the per-row
# join-key evaluator, the generic filter-map adapter, the nested loop's
# per-row test and DML's own row loop (`row_matches`, binding an `Env`
# per row) must not come back.
if grep -rnE '\bjoin_key\b|ProbeSide|into_bindings|\bprobe_side\b|\bspine_probe\b|\bfused_left\b|\bfused_scan\b|fused_group_input|ScanSource|\bspine_scan\b|\bMapRows\b|\bRowTest\b|\brow_matches\b' crates tests examples; then
  echo "a deleted consumer twin or probe-side variant is referenced again" >&2
  exit 1
fi
if grep -nE '\bEnv\b' crates/core/src/dml.rs; then
  echo "DML binds its rows itself again instead of reading them through the row loop" >&2
  exit 1
fi
echo "one consumer loop OK"

echo "== one leaf reader gate =="
# A leaf operand — a constant, a parameter, a variable or a static path
# off one — is read in place by `Evaluator::operand`, and `Push` is the one
# instruction that copies it onto the stack. The six push instructions it
# replaced must not come back.
if grep -rnE 'Instr::(Const|Var|Param|Field|RootVar|RootField)\b' crates tests examples; then
  echo "a deleted push instruction is referenced again" >&2
  exit 1
fi
echo "one leaf reader OK"

echo "== one ORDER BY gate =="
# An ORDER BY above a set operation is the block over its elements
# (`SELECT VALUE $out FROM (set-op) AS $out ORDER BY …`), sorted by the one
# binding sort or top-k. The value sort, the value top-k, their key loop
# and their spill codec must not come back.
if grep -rnE 'SortValues|on_values|each_keyed_value|ValueCodec|sort-values|top-k-values' crates tests examples; then
  echo "a deleted value sort or value top-k is referenced again" >&2
  exit 1
fi
echo "one ORDER BY OK"

echo "== one benchmark harness gate =="
# benchmark/ is the one harness that times this engine end to end; every
# check the per-operator suites beside it made is a test under tests/. Their
# crate, its report writer, its CI step and its report directory must not
# come back. (The bracketed letters keep this line from matching itself.)
if grep -rnE 'sqlpp[-_]bench\b|bench[_]gate|SQLPP_BENCH[_]DIR|Bench[C]onfig|testkit::[b]ench\b' crates tests examples scripts Cargo.toml; then
  echo "the deleted per-operator benchmark harness is referenced again" >&2
  exit 1
fi
echo "one benchmark harness OK"

echo "== ci green =="
