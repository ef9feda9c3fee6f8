//! Execution statistics — the observability layer under `EXPLAIN ANALYZE`.
//!
//! The paper stresses *inspectable* semantics; [`ExecStats`] is the
//! inspectable counterpart for performance: per-phase wall times
//! (parse/lower/optimize/eval) plus per-operator and engine-wide counters
//! (rows scanned, bindings produced, groups built, dedupe/set-op probes,
//! MISSING propagations, subquery invocations, peak live bindings).
//!
//! Collection is gated by [`crate::EvalConfig::collect_stats`] and costs
//! nothing when off: the evaluator holds an `Option<StatsCollector>` and
//! every counter update sits behind that single discriminant check.
//! Per-operator entries are keyed by the operator's *pre-order plan index*
//! (its position in [`sqlpp_plan::CoreQuery::preorder_ops`]), which is
//! stable across plan clones and optimizer rewrites — unlike node
//! addresses, which alias after drops. The evaluator registers the plan it
//! is about to run ([`StatsCollector::register_plan`]); any operator
//! evaluated outside a registered plan (direct `value_op` calls in tests)
//! gets a fresh index past the registered range.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Duration;

use sqlpp_plan::{CoreOp, CoreQuery};

/// Counters for one operator node (inclusive of its children).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// How many times the operator was evaluated (re-invocations under
    /// correlation count individually).
    pub calls: u64,
    /// Total rows (bindings or values) the operator emitted across calls.
    pub rows_out: u64,
    /// Total wall time across calls, in nanoseconds, including children.
    pub ns: u64,
    /// High-water mark of rows this operator held materialized at once
    /// (zero for fully streaming operators).
    pub peak_rows: u64,
    /// Non-empty batches the operator emitted through its stream (zero
    /// for operators that only ever materialize a value).
    pub batches: u64,
    /// Whether this pipeline breaker spilled part of its working set to
    /// disk (always `false` for streaming operators and for breakers that
    /// stayed within budget).
    pub spilled: bool,
    /// Whether the operator ran on the fused scan spine: a `From` and
    /// the `Filter`s the spine evaluates on borrowed rows, and the
    /// operator that consumes them.
    pub fused: bool,
}

/// A finished statistics snapshot: phase wall times plus counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Wall time spent parsing, in nanoseconds (filled by the engine).
    pub parse_ns: u64,
    /// Wall time spent lowering to Core, in nanoseconds.
    pub lower_ns: u64,
    /// Wall time spent in the optimizer, in nanoseconds.
    pub optimize_ns: u64,
    /// Wall time spent evaluating, in nanoseconds.
    pub eval_ns: u64,
    /// Elements iterated by FROM scans (including UNPIVOT pairs). Under
    /// the streaming executor this counts *pulled* elements, so a
    /// short-circuited `LIMIT k` scan reports O(k), not the source size.
    pub rows_scanned: u64,
    /// Bindings emitted by FROM operators.
    pub bindings_produced: u64,
    /// Groups materialized by GROUP BY (and window partitions).
    pub groups_built: u64,
    /// `deep_eq` confirmations performed by DISTINCT/UNION dedup.
    pub dedupe_probes: u64,
    /// `deep_eq` confirmations performed by INTERSECT/EXCEPT matching.
    pub setop_probes: u64,
    /// Type errors absorbed as MISSING in permissive mode (§IV-B case 2).
    pub missing_propagations: u64,
    /// Nested-plan executions (subqueries, EXISTS, coerced SQL
    /// subqueries).
    pub subquery_invocations: u64,
    /// Join probe work: ON evaluations (nested-loop joins) plus hash
    /// bucket candidate confirmations (hash joins). An uncorrelated
    /// equi-join should show `join_probes ≤ L + R`.
    pub join_probes: u64,
    /// Rows inserted into hash-join build tables.
    pub join_build_rows: u64,
    /// Times a join's right side was re-evaluated beyond its first
    /// evaluation — zero for a hash join, `L - 1` for a nested loop.
    pub right_rescans: u64,
    /// High-water mark of rows held live across *all* pipeline-breaker
    /// buffers simultaneously — the number a spill policy would act on.
    /// Streaming plans keep this far below the source cardinality.
    pub peak_live_bindings: u64,
    /// Buffer admissions the resource governor refused over the memory
    /// budget (zero when no budget is set).
    pub budget_denials: u64,
    /// Real deadline/cancellation inspections the governor performed
    /// (the amortized skips between them are not counted).
    pub cancel_checks: u64,
    /// The wall-clock deadline in effect (milliseconds), if one was set.
    pub time_budget_ms: Option<u64>,
    /// The memory budget in effect (estimated bytes), if one was set —
    /// lets `EXPLAIN ANALYZE` render `used/limit`.
    pub mem_bytes_budget: Option<u64>,
    /// High-water mark of estimated bytes the governor had admitted at
    /// once. Maintained by the governor, so budgets work with stats
    /// collection off; zero when no budget (or fault hook) was attached.
    pub peak_budget_bytes: u64,
    /// Spill files (Grace partitions + sorted runs) created by this run.
    pub spill_partitions: u64,
    /// Total bytes written to spill files by this run.
    pub spill_bytes_written: u64,
    /// K-way merge passes performed by external sorts, the final pass
    /// included — at least 1 whenever a sort spilled, more when the
    /// run count exceeded the merge fan-in (zero without spilling).
    pub merge_passes: u64,
    /// Non-empty batches emitted across all instrumented operators (at
    /// `batch_size: 1`, one per row).
    pub batches_produced: u64,
    /// Expressions compiled to bytecode by this run (each once, on first
    /// evaluation).
    pub exprs_compiled: u64,
    /// Always zero: every expression compiles. Kept so existing report
    /// consumers keep reading a value.
    pub exprs_fallback: u64,
    /// Per-operator counters, keyed by pre-order plan index (see
    /// [`sqlpp_plan::CoreQuery::preorder_ops`]).
    pub ops: HashMap<u32, OpStats>,
}

impl ExecStats {
    /// Per-operator counters for the node at pre-order plan index
    /// `index`, if it ran.
    pub fn op_at(&self, index: u32) -> Option<&OpStats> {
        self.ops.get(&index)
    }

    /// The engine-wide counters as stable `(name, value)` pairs — the
    /// export format benches attach to their JSON reports.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("rows_scanned", self.rows_scanned),
            ("bindings_produced", self.bindings_produced),
            ("groups_built", self.groups_built),
            ("dedupe_probes", self.dedupe_probes),
            ("setop_probes", self.setop_probes),
            ("missing_propagations", self.missing_propagations),
            ("subquery_invocations", self.subquery_invocations),
            ("join_probes", self.join_probes),
            ("join_build_rows", self.join_build_rows),
            ("right_rescans", self.right_rescans),
            ("peak_live_bindings", self.peak_live_bindings),
            ("budget_denials", self.budget_denials),
            ("cancel_checks", self.cancel_checks),
            ("peak_budget_bytes", self.peak_budget_bytes),
            ("batches_produced", self.batches_produced),
            ("exprs_compiled", self.exprs_compiled),
            ("exprs_fallback", self.exprs_fallback),
            ("spill_partitions", self.spill_partitions),
            ("spill_bytes_written", self.spill_bytes_written),
            ("merge_passes", self.merge_passes),
        ]
    }

    /// Renders the phase times and counters as the two-line summary that
    /// `EXPLAIN ANALYZE` appends under the operator tree.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "phases: parse {} | lower {} | optimize {} | eval {}\n",
            fmt_ns(self.parse_ns),
            fmt_ns(self.lower_ns),
            fmt_ns(self.optimize_ns),
            fmt_ns(self.eval_ns),
        ));
        out.push_str("counters:");
        for (name, value) in self.counters() {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
        let budgets: Vec<String> = [
            self.mem_bytes_budget.map(|limit| {
                format!(
                    "mem {}/{} bytes (denials {})",
                    self.peak_budget_bytes, limit, self.budget_denials
                )
            }),
            self.time_budget_ms
                .map(|ms| format!("deadline {}ms (checks {})", ms, self.cancel_checks)),
        ]
        .into_iter()
        .flatten()
        .collect();
        if !budgets.is_empty() {
            out.push_str(&format!("budget: {}\n", budgets.join(" | ")));
        }
        if self.spill_partitions > 0 || self.spill_bytes_written > 0 || self.merge_passes > 0 {
            out.push_str(&format!(
                "spill: {} partition(s), {} byte(s) written, {} merge pass(es)\n",
                self.spill_partitions, self.spill_bytes_written, self.merge_passes
            ));
        }
        out
    }
}

/// Formats nanoseconds human-readably (`1.23ms`, `45.6us`, `789ns`).
pub fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// The evaluator-side accumulator. Interior-mutable (`Cell`/`RefCell`)
/// because the interpreter threads `&self`; single-threaded by
/// construction (the evaluator is not `Sync`).
#[derive(Debug, Default)]
pub struct StatsCollector {
    rows_scanned: Cell<u64>,
    bindings_produced: Cell<u64>,
    groups_built: Cell<u64>,
    dedupe_probes: Cell<u64>,
    setop_probes: Cell<u64>,
    missing_propagations: Cell<u64>,
    subquery_invocations: Cell<u64>,
    join_probes: Cell<u64>,
    join_build_rows: Cell<u64>,
    right_rescans: Cell<u64>,
    /// Rows currently held live across all tracked buffers.
    live_bindings: Cell<u64>,
    /// High-water mark of `live_bindings`.
    peak_live_bindings: Cell<u64>,
    /// Node address → pre-order plan index, filled by [`register_plan`]
    /// (plus overflow entries for unregistered nodes). The address is
    /// only ever used as a lookup handle while the plan is alive; the
    /// *index* is what snapshots carry.
    ///
    /// [`register_plan`]: StatsCollector::register_plan
    op_index: RefCell<HashMap<usize, u32>>,
    next_op_index: Cell<u32>,
    ops: RefCell<HashMap<u32, OpStats>>,
    batches_produced: Cell<u64>,
    exprs_compiled: Cell<u64>,
}

impl StatsCollector {
    /// Assigns every operator of `plan` its pre-order index. Called by
    /// the evaluator once per top-level run, before any operator
    /// executes, so recorded keys match what
    /// [`CoreQuery::preorder_ops`] enumerates.
    pub fn register_plan(&self, plan: &CoreQuery) {
        let mut map = self.op_index.borrow_mut();
        for op in plan.preorder_ops() {
            let next = map.len() as u32;
            map.entry(std::ptr::from_ref(op) as usize).or_insert(next);
        }
        self.next_op_index.set(map.len() as u32);
    }

    /// The stats key for an operator node: its registered pre-order
    /// index, or a fresh index past the registered range when the node
    /// was never registered (operators run outside a `CoreQuery`).
    pub fn key_for(&self, op: &CoreOp) -> u32 {
        let ptr = std::ptr::from_ref(op) as usize;
        if let Some(&i) = self.op_index.borrow().get(&ptr) {
            return i;
        }
        let i = self.next_op_index.get();
        self.next_op_index.set(i + 1);
        self.op_index.borrow_mut().insert(ptr, i);
        i
    }

    /// Records one operator evaluation: `rows` emitted over `elapsed`.
    pub fn record_op(&self, key: u32, rows: u64, elapsed: Duration) {
        let mut ops = self.ops.borrow_mut();
        let e = ops.entry(key).or_default();
        e.calls += 1;
        e.rows_out += rows;
        e.ns += elapsed.as_nanos() as u64;
    }

    /// Counts `batches` non-empty batched pulls emitted by an operator.
    pub fn record_op_batches(&self, key: u32, batches: u64) {
        let mut ops = self.ops.borrow_mut();
        let e = ops.entry(key).or_default();
        e.batches += batches;
    }

    /// Marks an operator as having spilled part of its working set to
    /// disk (sticky for the run).
    pub fn record_op_spilled(&self, key: u32) {
        let mut ops = self.ops.borrow_mut();
        let e = ops.entry(key).or_default();
        e.spilled = true;
    }

    /// Marks an operator as run on the fused scan spine (sticky for the
    /// run).
    pub fn record_op_fused(&self, key: u32) {
        let mut ops = self.ops.borrow_mut();
        ops.entry(key).or_default().fused = true;
    }

    /// Raises an operator's materialization high-water mark to at least
    /// `rows`.
    pub fn record_peak_rows(&self, key: u32, rows: u64) {
        let mut ops = self.ops.borrow_mut();
        let e = ops.entry(key).or_default();
        e.peak_rows = e.peak_rows.max(rows);
    }

    /// Counts `n` rows entering a tracked materialization buffer.
    pub fn buffer_grow(&self, n: u64) {
        let live = self.live_bindings.get() + n;
        self.live_bindings.set(live);
        if live > self.peak_live_bindings.get() {
            self.peak_live_bindings.set(live);
        }
    }

    /// Counts `n` rows leaving a tracked materialization buffer.
    pub fn buffer_shrink(&self, n: u64) {
        self.live_bindings
            .set(self.live_bindings.get().saturating_sub(n));
    }

    /// Counts elements iterated by a FROM scan.
    pub fn add_rows_scanned(&self, n: u64) {
        self.rows_scanned.set(self.rows_scanned.get() + n);
    }

    /// Counts bindings emitted by FROM operators.
    pub fn add_bindings_produced(&self, n: u64) {
        self.bindings_produced.set(self.bindings_produced.get() + n);
    }

    /// Counts groups (or window partitions) materialized.
    pub fn add_groups_built(&self, n: u64) {
        self.groups_built.set(self.groups_built.get() + n);
    }

    /// Counts one dedup `deep_eq` confirmation.
    pub fn add_dedupe_probes(&self, n: u64) {
        self.dedupe_probes.set(self.dedupe_probes.get() + n);
    }

    /// Counts one set-op `deep_eq` confirmation.
    pub fn add_setop_probes(&self, n: u64) {
        self.setop_probes.set(self.setop_probes.get() + n);
    }

    /// Counts a type error absorbed as MISSING (permissive mode).
    pub fn add_missing_propagation(&self) {
        self.missing_propagations
            .set(self.missing_propagations.get() + 1);
    }

    /// Counts a nested-plan execution.
    pub fn add_subquery_invocation(&self) {
        self.subquery_invocations
            .set(self.subquery_invocations.get() + 1);
    }

    /// Counts join probe work (ON evaluations / hash candidate checks).
    pub fn add_join_probes(&self, n: u64) {
        self.join_probes.set(self.join_probes.get() + n);
    }

    /// Counts rows inserted into a hash-join build table.
    pub fn add_join_build_rows(&self, n: u64) {
        self.join_build_rows.set(self.join_build_rows.get() + n);
    }

    /// Counts a re-evaluation of a join's right side.
    pub fn add_right_rescans(&self, n: u64) {
        self.right_rescans.set(self.right_rescans.get() + n);
    }

    /// Counts non-empty batches emitted through the batch pull protocol.
    pub fn add_batches_produced(&self, n: u64) {
        self.batches_produced.set(self.batches_produced.get() + n);
    }

    /// Counts an expression compiled to bytecode.
    pub fn add_expr_compiled(&self) {
        self.exprs_compiled.set(self.exprs_compiled.get() + 1);
    }

    /// Snapshots the counters into an [`ExecStats`] (phase times zeroed —
    /// the engine fills those).
    pub fn snapshot(&self) -> ExecStats {
        ExecStats {
            parse_ns: 0,
            lower_ns: 0,
            optimize_ns: 0,
            eval_ns: 0,
            rows_scanned: self.rows_scanned.get(),
            bindings_produced: self.bindings_produced.get(),
            groups_built: self.groups_built.get(),
            dedupe_probes: self.dedupe_probes.get(),
            setop_probes: self.setop_probes.get(),
            missing_propagations: self.missing_propagations.get(),
            subquery_invocations: self.subquery_invocations.get(),
            join_probes: self.join_probes.get(),
            join_build_rows: self.join_build_rows.get(),
            right_rescans: self.right_rescans.get(),
            peak_live_bindings: self.peak_live_bindings.get(),
            batches_produced: self.batches_produced.get(),
            exprs_compiled: self.exprs_compiled.get(),
            ops: self.ops.borrow().clone(),
            // Governor counters are filled by the evaluator (the governor
            // owns them so budgets work with stats collection off).
            ..ExecStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates_and_snapshots() {
        let c = StatsCollector::default();
        c.add_rows_scanned(10);
        c.add_rows_scanned(5);
        c.add_dedupe_probes(3);
        c.add_missing_propagation();
        c.record_op(42, 7, Duration::from_nanos(100));
        c.record_op(42, 7, Duration::from_nanos(50));
        let s = c.snapshot();
        assert_eq!(s.rows_scanned, 15);
        assert_eq!(s.dedupe_probes, 3);
        assert_eq!(s.missing_propagations, 1);
        let op = s.op_at(42).unwrap();
        assert_eq!((op.calls, op.rows_out, op.ns), (2, 14, 150));
    }

    #[test]
    fn summary_lists_every_counter() {
        let c = StatsCollector::default();
        c.add_setop_probes(9);
        let s = c.snapshot();
        let text = s.render_summary();
        assert!(text.contains("setop_probes=9"));
        assert!(text.contains("phases: parse"));
        for (name, _) in s.counters() {
            assert!(text.contains(name), "missing {name}");
        }
    }

    #[test]
    fn budget_line_renders_only_when_limits_are_set() {
        let mut s = StatsCollector::default().snapshot();
        assert!(!s.render_summary().contains("budget:"));
        s.mem_bytes_budget = Some(1000);
        s.peak_budget_bytes = 400;
        s.budget_denials = 2;
        let text = s.render_summary();
        assert!(
            text.contains("budget: mem 400/1000 bytes (denials 2)"),
            "{text}"
        );
        s.time_budget_ms = Some(250);
        s.cancel_checks = 7;
        let text = s.render_summary();
        assert!(text.contains("| deadline 250ms (checks 7)"), "{text}");
    }

    #[test]
    fn spill_line_renders_only_when_spilling_happened() {
        let mut s = StatsCollector::default().snapshot();
        assert!(!s.render_summary().contains("spill:"));
        s.spill_partitions = 4;
        s.spill_bytes_written = 2048;
        s.merge_passes = 1;
        let text = s.render_summary();
        assert!(
            text.contains("spill: 4 partition(s), 2048 byte(s) written, 1 merge pass(es)"),
            "{text}"
        );
    }

    #[test]
    fn buffer_gauge_tracks_the_high_water_mark_not_the_sum() {
        let c = StatsCollector::default();
        c.buffer_grow(10);
        c.buffer_shrink(10); // first buffer released before the second fills
        c.buffer_grow(4);
        c.buffer_grow(3);
        c.buffer_shrink(7);
        let s = c.snapshot();
        assert_eq!(s.peak_live_bindings, 10);
        c.record_peak_rows(0, 4);
        c.record_peak_rows(0, 2); // lower water never shrinks the peak
        assert_eq!(c.snapshot().op_at(0).unwrap().peak_rows, 4);
    }

    #[test]
    fn plan_registration_assigns_stable_preorder_indices() {
        use sqlpp_plan::{CoreExpr, CoreFrom, CoreQuery};
        let q = CoreQuery {
            op: CoreOp::Project {
                input: Box::new(CoreOp::From {
                    item: CoreFrom::Scan {
                        expr: CoreExpr::Global(vec!["c".into()]),
                        as_var: "x".into(),
                        at_var: None,
                    },
                }),
                expr: CoreExpr::Var("x".into()),
                distinct: false,
            },
        };
        let c = StatsCollector::default();
        c.register_plan(&q);
        let ops = q.preorder_ops();
        assert_eq!(c.key_for(ops[0]), 0, "root Project is index 0");
        assert_eq!(c.key_for(ops[1]), 1, "From child is index 1");
        // An unregistered node lands past the registered range.
        let stray = CoreOp::Single;
        assert_eq!(c.key_for(&stray), 2);
        assert_eq!(c.key_for(&stray), 2, "and keeps its index");
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
