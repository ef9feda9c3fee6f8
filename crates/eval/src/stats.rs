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
//! every counter update sits behind that single discriminant check. The
//! collector counts straight into the `ExecStats` it hands back — one
//! updater for the engine-wide counters (`count`), one for an operator's
//! [`OpStats`] (`op`) — so a counter is an `ExecStats` field, its
//! [`ExecStats::counters`] entry and its call sites, and nothing more.
//! Per-operator entries are keyed by the operator's *pre-order plan index*
//! (its position in [`sqlpp_plan::CoreQuery::preorder_ops`]), which is
//! stable across plan clones and optimizer rewrites — unlike node
//! addresses, which alias after drops. The evaluator registers the plan it
//! is about to run; any operator evaluated outside a registered plan
//! (direct `value_op` calls in tests) gets a fresh index past the
//! registered range.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

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
    /// `deep_eq` confirmations performed by dedup: DISTINCT, UNION and
    /// DISTINCT aggregates (`COUNT(DISTINCT …)`, `COLL_*` with DISTINCT).
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
    /// export format tests and reports read.
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

/// The evaluator-side accumulator: the run's [`ExecStats`], counted in
/// place, beside the working state only the collector needs (the live
/// row gauge and the operator index). Interior-mutable because the interpreter threads
/// `&self`; single-threaded by construction (the evaluator is not
/// `Sync`).
#[derive(Debug, Default)]
pub(crate) struct StatsCollector {
    /// The counters [`StatsCollector::snapshot`] hands back. Phase times
    /// stay zero (the engine fills them), and so do the governor's
    /// counters (the evaluator merges them in).
    stats: RefCell<ExecStats>,
    /// Rows currently held live across all tracked buffers, whose
    /// high-water mark is `peak_live_bindings`.
    live_bindings: Cell<u64>,
    /// Node address → pre-order plan index, filled by [`register_plan`]
    /// (plus overflow entries for unregistered nodes). The address is
    /// only ever used as a lookup handle while the plan is alive; the
    /// *index* is what snapshots carry.
    ///
    /// [`register_plan`]: StatsCollector::register_plan
    op_index: RefCell<HashMap<usize, u32>>,
}

impl StatsCollector {
    /// Assigns every operator of `plan` its pre-order index. Called by
    /// the evaluator once per top-level run, before any operator
    /// executes, so recorded keys match what
    /// [`CoreQuery::preorder_ops`] enumerates.
    pub(crate) fn register_plan(&self, plan: &CoreQuery) {
        for op in plan.preorder_ops() {
            self.key_for(op);
        }
    }

    /// The stats key for an operator node: its registered pre-order
    /// index, or a fresh index past the registered range when the node
    /// was never registered (operators run outside a `CoreQuery`).
    pub(crate) fn key_for(&self, op: &CoreOp) -> u32 {
        let mut map = self.op_index.borrow_mut();
        let next = map.len() as u32;
        *map.entry(std::ptr::from_ref(op) as usize).or_insert(next)
    }

    /// Updates the engine-wide counters.
    pub(crate) fn count(&self, update: impl FnOnce(&mut ExecStats)) {
        update(&mut self.stats.borrow_mut());
    }

    /// Updates the counters of the operator keyed `key`.
    pub(crate) fn op(&self, key: u32, update: impl FnOnce(&mut OpStats)) {
        update(self.stats.borrow_mut().ops.entry(key).or_default());
    }

    /// Counts `n` rows entering a tracked materialization buffer.
    pub(crate) fn buffer_grow(&self, n: u64) {
        let live = self.live_bindings.get() + n;
        self.live_bindings.set(live);
        self.count(|s| s.peak_live_bindings = s.peak_live_bindings.max(live));
    }

    /// Counts `n` rows leaving a tracked materialization buffer.
    pub(crate) fn buffer_shrink(&self, n: u64) {
        self.live_bindings
            .set(self.live_bindings.get().saturating_sub(n));
    }

    /// The counters so far.
    pub(crate) fn snapshot(&self) -> ExecStats {
        self.stats.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates_and_snapshots() {
        let c = StatsCollector::default();
        c.count(|s| s.rows_scanned += 10);
        c.count(|s| s.rows_scanned += 5);
        c.count(|s| s.dedupe_probes += 3);
        c.count(|s| s.missing_propagations += 1);
        for ns in [100, 50] {
            c.op(42, |o| {
                o.calls += 1;
                o.rows_out += 7;
                o.ns += ns;
            });
        }
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
        c.count(|s| s.setop_probes += 9);
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
        let mut s = ExecStats::default();
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
        let mut s = ExecStats::default();
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
        assert_eq!(c.snapshot().peak_live_bindings, 10);
        // An operator's peak is a high-water mark too: rows released and
        // fewer admitted again never lower it.
        let op = CoreOp::Single;
        let mut gauge = crate::stream::MatGauge::new(Some(&c), None, Some(&op));
        gauge.add(4, 0).unwrap();
        gauge.remove(2, 0);
        gauge.add(1, 0).unwrap();
        drop(gauge);
        assert_eq!(c.snapshot().op_at(c.key_for(&op)).unwrap().peak_rows, 4);
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
