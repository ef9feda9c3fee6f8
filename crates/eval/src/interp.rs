//! The Core-plan interpreter: clause-operators over binding streams.
//!
//! Semantics follow the paper's pipeline model (§V-B) and Pseudocodes 1–2:
//! FROM produces bindings of variables to *arbitrarily typed* values
//! (§III-A), each subsequent clause is a function over the binding stream,
//! and `SELECT VALUE` constructs the output collection. The
//! permissive/strict typing dichotomy (§IV) is threaded through every
//! operation via [`TypingMode`].

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use sqlpp_catalog::Catalog;
use sqlpp_plan::{
    AggFunc, Coercion, CompatMode, CoreExpr, CoreFrom, CoreJoinKind, CoreOp, CoreQuery, CoreSetOp,
    CoreSortKey, GroupFold, WindowDef, WindowFunc, SET_OP_ELEMENT,
};
use sqlpp_syntax::ast::{BinOp, IsTest, UnOp};
use sqlpp_value::cmp::{deep_eq, sql_compare, sql_eq};
use sqlpp_value::hash::{hash_value, GroupKey};
use sqlpp_value::{AttrName, Tuple, Value};

use crate::agg;
use crate::arith::{num_binop, num_neg, NumError, NumOp};
use crate::bytecode::{self, produces_elements, Arg, Instr, Operand, Program};
use crate::cast::cast;
use crate::env::Env;
use crate::error::{EvalError, TypingMode};
use crate::functions;
use crate::govern::{FaultInjector, FaultSite, Limits, ResourceGovernor};
use crate::like::like_match;
use crate::spill::{
    approx_value_bytes, cmp_sort_keys, keyed_build, keys_bytes, ExternalSorter, KeyedSink,
    KeyedSource, KeyedTable, SpillCodec, SpillConfig, SpillCtx,
};
use crate::stats::{ExecStats, StatsCollector};
use crate::stream::{
    boxed, collect, drain_batched, empty, failed, from_vec, next_one, BindingStream, Concat,
    Governed, Instrumented, Limited, MatGauge, Stream, TrackedBuffer, ValueStream, BATCH_TICK_ROWS,
    DEFAULT_BATCH_SIZE,
};

/// Evaluator configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Permissive (type error → MISSING) vs stop-on-error (§IV).
    pub typing: TypingMode,
    /// SQL-compatibility mode: enables the COALESCE/MISSING exception and
    /// MISSING→NULL canonicalization of grouping keys (§IV-B).
    pub compat: CompatMode,
    /// Collect [`ExecStats`] while evaluating (`EXPLAIN ANALYZE`). Off by
    /// default; when off the evaluator carries no collector and every
    /// instrumentation point is a single `Option` discriminant check.
    pub collect_stats: bool,
    /// Per-query resource limits (memory budget, deadline, cancellation,
    /// nesting depth). Unlimited by default; enforcement points are gated
    /// like `collect_stats`, so the unlimited path stays zero-cost.
    pub limits: Limits,
    /// Fault-injection hook for chaos testing. `None` in production.
    pub fault: Option<FaultInjector>,
    /// How many bindings each pipeline pull moves at once. `1` is the
    /// row-at-a-time engine — the same operators pulling one-row batches,
    /// with the fused scan spine off (the differential baseline); the
    /// default amortizes dynamic dispatch, governor ticks, and stat
    /// increments across [`DEFAULT_BATCH_SIZE`] rows.
    pub batch_size: usize,
    /// Out-of-core execution policy. `None` (the default) keeps the PR 5
    /// contract: a memory-budget overrun is a hard
    /// [`EvalError::ResourceExhausted`] refusal. `Some` lets every
    /// pipeline breaker spill to temp files instead — ORDER BY becomes an
    /// external merge-sort, GROUP BY and hash-join builds partition
    /// Grace-style (see `spill`).
    pub spill: Option<SpillConfig>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            typing: TypingMode::Permissive,
            compat: CompatMode::SqlCompat,
            collect_stats: false,
            limits: Limits::default(),
            fault: None,
            batch_size: DEFAULT_BATCH_SIZE,
            spill: None,
        }
    }
}

/// The plan interpreter. `'a` is the lifetime of everything it reads:
/// the catalog and every plan or expression handed to [`Evaluator::run`] /
/// [`Evaluator::expr`], which must outlive the evaluator's use.
pub struct Evaluator<'a> {
    catalog: &'a Catalog,
    config: EvalConfig,
    params: Vec<Value>,
    stats: Option<StatsCollector>,
    /// Per-query resource enforcement. Always present; every check inside
    /// it is gated on whether the corresponding limit is actually set.
    /// The deadline clock starts here, at construction.
    govern: ResourceGovernor,
    /// Bytecode programs keyed by expression identity (the `&'a CoreExpr`
    /// address — the key cannot dangle or alias because each program
    /// borrows its expression for `'a`) and the slice row variable it is
    /// specialized for (`""`: none). Filled on first sight, so an
    /// expression compiles once per evaluator however often it runs.
    programs: RefCell<HashMap<(usize, &'a str), Rc<Program<'a>>>>,
    /// The VM's value stack, reused across expression evaluations (taken
    /// and restored around each run, so a call instruction that re-enters
    /// the VM gets a fresh stack rather than a poisoned borrow — and an
    /// error unwinding through a call leaves a usable stack behind).
    vm_stack: Cell<Vec<Value>>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over a catalog.
    pub fn new(catalog: &'a Catalog, config: EvalConfig) -> Self {
        let stats = config.collect_stats.then(StatsCollector::default);
        let govern = ResourceGovernor::new(&config.limits, config.fault.clone());
        Evaluator {
            catalog,
            config,
            params: Vec::new(),
            stats,
            govern,
            programs: RefCell::new(HashMap::new()),
            vm_stack: Cell::new(Vec::new()),
        }
    }

    /// The governor enforcing this query's limits (counter visibility for
    /// tests and benches).
    pub fn governor(&self) -> &ResourceGovernor {
        &self.govern
    }

    /// Supplies positional parameter values.
    pub fn with_params(mut self, params: Vec<Value>) -> Self {
        self.params = params;
        self
    }

    /// Runs a query, producing its result value (a bag for SELECT
    /// queries, a tuple for top-level PIVOT).
    pub fn run(&self, q: &'a CoreQuery) -> Result<Value, EvalError> {
        if let Some(st) = &self.stats {
            // Per-operator stats are keyed by pre-order plan index.
            st.register_plan(q);
        }
        self.value_op(&q.op, &Env::new())
    }

    /// Snapshots the statistics collected so far (phase times zeroed —
    /// the engine layers those in), merged with the governor's counters
    /// (budget denials, cancel checks, peak budget usage, limits in
    /// effect). `None` unless [`EvalConfig::collect_stats`] was set.
    pub fn stats_snapshot(&self) -> Option<ExecStats> {
        self.stats.as_ref().map(|st| {
            let mut s = st.snapshot();
            self.govern.fill_stats(&mut s);
            s
        })
    }

    /// Dynamic type error handling (§IV-B case 2): MISSING in permissive
    /// mode, an error in stop-on-error mode. The message is built lazily:
    /// in permissive mode — the hot path over dirty data — producing
    /// MISSING must cost no more than the operation it replaces, so no
    /// formatting or allocation happens there.
    fn type_err<M: FnOnce() -> String>(&self, msg: M) -> Result<Value, EvalError> {
        match self.config.typing {
            TypingMode::Permissive => {
                if let Some(st) = &self.stats {
                    st.count(|s| s.missing_propagations += 1);
                }
                Ok(Value::Missing)
            }
            TypingMode::StrictError => Err(EvalError::Type(msg())),
        }
    }

    /// MISSING under permissive typing, `err()` under strict typing: a
    /// failure that is not a type error, so no `missing_propagations`.
    fn missing_or(&self, err: impl FnOnce() -> EvalError) -> Result<Value, EvalError> {
        match self.config.typing {
            TypingMode::Permissive => Ok(Value::Missing),
            TypingMode::StrictError => Err(err()),
        }
    }

    // =================================================================
    // Operators
    // =================================================================

    /// Evaluates a value-producing operator, recording per-operator
    /// counters when stats collection is on. Times are inclusive of
    /// children (the renderer shows the tree, so self-time is derivable).
    ///
    /// This is also the governor's nesting choke point: every operator
    /// evaluation (including each per-row subquery invocation) passes
    /// through here, so the depth guard and the [`FaultSite::OperatorEval`]
    /// hook live in exactly one place, with the exit paired on all paths.
    fn value_op(&self, op: &'a CoreOp, env: &Env) -> Result<Value, EvalError> {
        self.govern.enter_nested()?;
        let result = if self.govern.injects_faults() {
            self.govern
                .fault_at(FaultSite::OperatorEval)
                .and_then(|()| self.value_op_timed(op, env))
        } else {
            self.value_op_timed(op, env)
        };
        self.govern.exit_nested();
        result
    }

    fn value_op_timed(&self, op: &'a CoreOp, env: &Env) -> Result<Value, EvalError> {
        let Some(st) = &self.stats else {
            return self.value_op_inner(op, env);
        };
        let start = Instant::now();
        let result = self.value_op_inner(op, env);
        let ns = start.elapsed().as_nanos() as u64;
        let rows = match &result {
            Ok(Value::Bag(items)) | Ok(Value::Array(items)) => items.len() as u64,
            Ok(_) => 1,
            Err(_) => 0,
        };
        st.op(st.key_for(op), |o| {
            o.calls += 1;
            o.rows_out += rows;
            o.ns += ns;
        });
        result
    }

    /// Every operator with a streaming shape is built once, as its element
    /// stream, and collected here; only the operators that must
    /// materialize (DISTINCT, PIVOT) have arms of their own.
    fn value_op_inner(&self, op: &'a CoreOp, env: &Env) -> Result<Value, EvalError> {
        if let Some(stream) = self.try_value_stream_inner(op, env) {
            let mut items = collect(stream, self.batch_size())?;
            // A WITH whose body is a PIVOT streams its one tuple.
            return Ok(match produces_elements(op) {
                true => Value::Bag(items),
                false => items.pop().expect("a PIVOT yields one tuple"),
            });
        }
        match op {
            CoreOp::Project {
                input,
                expr,
                distinct: true,
            } => {
                // DISTINCT is a pipeline breaker: the projected rows
                // materialize through a tracked buffer, then dedupe.
                let mut buf = TrackedBuffer::new(self.gauge(op), approx_value_bytes);
                let rows = self.input_rows(op, input, &[expr], env)?;
                drain_batched(Box::new(rows), self.batch_size(), |v| buf.push(v))?;
                Ok(Value::Bag(dedupe(buf.into_vec(), self.stats.as_ref())))
            }
            CoreOp::Pivot { input, value, name } => {
                let scan = self.input_rows(op, input, &[name, value], env)?;
                let mut rows = FusedRows::new(scan, self.batch_size());
                let (mut t, mut pair) = (Tuple::new(), Vec::with_capacity(2));
                while rows.next_at(&mut pair)?.is_some() {
                    let v = pair.pop().expect("a PIVOT row yields its value");
                    match pair.pop().expect("and its name") {
                        Value::Str(s) => t.insert(s, v),
                        Value::Missing | Value::Null => {}
                        other => {
                            // Permissive mode skips the pair; strict errors.
                            let _ = self.type_err(|| {
                                format!(
                                    "PIVOT attribute name must be a string, found {}",
                                    other.kind().name()
                                )
                            })?;
                        }
                    }
                }
                Ok(Value::Tuple(t))
            }
            // A binding-producing operator in value position only happens
            // for degenerate plans; expose the bindings as tuples.
            other => {
                let mut out = Vec::new();
                drain_batched(self.binding_stream(other, env), self.batch_size(), |_| {
                    out.push(Value::Tuple(Tuple::new()));
                    Ok(())
                })?;
                Ok(Value::Bag(out))
            }
        }
    }

    // =================================================================
    // Streams
    // =================================================================

    /// A fresh materialization gauge attributed to `op`. It reaches the
    /// governor only when buffer admissions must consult it (memory budget
    /// or fault hook active); otherwise an admission is one `Option` check
    /// and rows are never sized.
    fn gauge(&self, op: &CoreOp) -> MatGauge<'_> {
        MatGauge::new(self.stats.as_ref(), self.govern.as_memory_guard(), Some(op))
    }

    /// The spill context, iff the session opted into out-of-core
    /// execution. `None` keeps budget refusals hard.
    fn spill_ctx(&self) -> Option<SpillCtx<'_>> {
        self.config.spill.as_ref().map(|config| SpillCtx {
            config,
            govern: &self.govern,
        })
    }

    /// Marks a breaker as having spilled in the per-operator stats (the
    /// `EXPLAIN ANALYZE` `spilled` tag).
    fn mark_spilled(&self, whole: &CoreOp) {
        if let Some(st) = &self.stats {
            st.op(st.key_for(whole), |o| o.spilled = true);
        }
    }

    /// The elements of a value-producing operator as a lazy stream.
    /// Operators with a streaming shape (projection, LIMIT, UNION ALL,
    /// WITH bodies, set-op probe sides) yield elements as they are
    /// pulled; everything else falls back to [`Self::value_op`] and
    /// streams the materialized result.
    fn element_stream<'s>(&'s self, op: &'a CoreOp, env: &Env) -> ValueStream<'s> {
        if let Some(stream) = self.try_value_stream(op, env) {
            return stream;
        }
        match self.value_op(op, env) {
            Err(e) => failed(e),
            Ok(Value::Bag(items)) | Ok(Value::Array(items)) => from_vec(items),
            Ok(single) => boxed(std::iter::once(Ok(single))),
        }
    }

    /// A lazy element stream for operators that can produce one, or
    /// `None` when the operator must materialize (sort, pivot, grouping
    /// inputs, …) and [`Self::value_op`] should run instead.
    fn try_value_stream<'s>(&'s self, op: &'a CoreOp, env: &Env) -> Option<ValueStream<'s>> {
        let inner = match &self.stats {
            None => self.try_value_stream_inner(op, env)?,
            Some(st) => {
                let built = Instant::now();
                let inner = self.try_value_stream_inner(op, env)?;
                Box::new(Instrumented::new(inner, st, op, false, built)) as ValueStream<'s>
            }
        };
        Some(match self.govern.as_watcher() {
            None => inner,
            Some(g) => Box::new(Governed::new(inner, g)),
        })
    }

    fn try_value_stream_inner<'s>(&'s self, op: &'a CoreOp, env: &Env) -> Option<ValueStream<'s>> {
        match op {
            CoreOp::Project {
                input,
                expr,
                distinct: false,
            } => Some(match self.input_rows(op, input, &[expr], env) {
                Ok(rows) => Box::new(rows),
                Err(e) => failed(e),
            }),
            CoreOp::LimitOffset {
                input,
                limit,
                offset,
            } => Some(
                match self.limit_offset(limit.as_ref(), offset.as_ref(), env) {
                    Err(e) => failed(e),
                    Ok((Some(0), _)) => empty(),
                    Ok((lim, off)) => {
                        Box::new(Limited::new(self.element_stream(input, env), off, lim))
                    }
                },
            ),
            CoreOp::SetOp {
                op: set_op,
                all,
                left,
                right,
            } => Some(self.set_op_stream(*set_op, *all, left, right, op, env)),
            CoreOp::With { bindings, body } => {
                let mut inner_env = env.clone();
                for (name, q) in bindings {
                    match self.value_op(&q.op, &inner_env) {
                        Ok(v) => inner_env = inner_env.bind(name.clone(), v),
                        Err(e) => return Some(failed(e)),
                    }
                }
                Some(self.element_stream(body, &inner_env))
            }
            _ => None,
        }
    }

    /// UNION/INTERSECT/EXCEPT as a stream. `UNION ALL` is fully streaming
    /// (left chained to right); every other shape materializes the build
    /// side (the right operand, or for de-duplicated UNION the whole
    /// input) through a tracked buffer, but INTERSECT/EXCEPT ALL still
    /// stream their probe (left) side.
    fn set_op_stream<'s>(
        &'s self,
        set_op: CoreSetOp,
        all: bool,
        left: &'a CoreOp,
        right: &'a CoreOp,
        whole: &CoreOp,
        env: &Env,
    ) -> ValueStream<'s> {
        match (set_op, all) {
            (CoreSetOp::Union, true) => {
                let env = env.clone();
                let mut sides = [left, right].into_iter();
                Box::new(Concat::new(move || {
                    sides.next().map(|side| self.element_stream(side, &env))
                }))
            }
            (CoreSetOp::Union, false) => {
                let mut buf = TrackedBuffer::new(self.gauge(whole), approx_value_bytes);
                for side in [left, right] {
                    if let Err(e) =
                        drain_batched(self.element_stream(side, env), self.batch_size(), |v| {
                            buf.push(v)
                        })
                    {
                        return failed(e);
                    }
                }
                from_vec(dedupe(buf.into_vec(), self.stats.as_ref()))
            }
            (CoreSetOp::Intersect, _) | (CoreSetOp::Except, _) => {
                // Build the right multiset, then stream the left through
                // it: INTERSECT keeps elements that consume a right
                // occurrence, EXCEPT keeps the ones that don't.
                let mut gauge = self.gauge(whole);
                let mut rvals = Vec::new();
                if let Err(e) =
                    drain_batched(self.element_stream(right, env), self.batch_size(), |v| {
                        gauge.add(1, gauge.size(|| approx_value_bytes(&v)))?;
                        rvals.push(v);
                        Ok(())
                    })
                {
                    return failed(e);
                }
                let probe = Box::new(SetOpProbe {
                    left: self.element_stream(left, env),
                    pool: RightMultiset::new(rvals, self.stats.as_ref()),
                    keep_matched: set_op == CoreSetOp::Intersect,
                    _held: gauge,
                    buf: Vec::new(),
                });
                if all {
                    probe
                } else {
                    match collect(probe, self.batch_size()) {
                        Ok(out) => from_vec(dedupe(out, self.stats.as_ref())),
                        Err(e) => failed(e),
                    }
                }
            }
        }
    }

    /// The bindings of a binding-producing operator as a lazy stream.
    /// Scans, filters, joins, LET, and Append stream row by row; Sort,
    /// Group, and Window are pipeline breakers that materialize through
    /// tracked buffers at construction and then stream the result — so
    /// an operator's time starts when its stream starts being built.
    fn binding_stream<'s>(&'s self, op: &'a CoreOp, env: &Env) -> BindingStream<'s> {
        let inner = match &self.stats {
            None => self.binding_stream_inner(op, env),
            Some(st) => {
                let built = Instant::now();
                let inner = self.binding_stream_inner(op, env);
                let is_from = matches!(op, CoreOp::From { .. });
                Box::new(Instrumented::new(inner, st, op, is_from, built)) as BindingStream<'s>
            }
        };
        // Deadline/cancellation: tick per pull, only when a deadline or
        // token is attached — the ungoverned path takes the `None` arm.
        match self.govern.as_watcher() {
            None => inner,
            Some(g) => Box::new(Governed::new(inner, g)),
        }
    }

    fn binding_stream_inner<'s>(&'s self, op: &'a CoreOp, env: &Env) -> BindingStream<'s> {
        match op {
            CoreOp::Single => boxed(std::iter::once(Ok(env.clone()))),
            CoreOp::From { item } => self.from_stream(item, op, env),
            CoreOp::Filter { input, pred } => {
                Box::new(self.bound_rows(self.binding_stream(input, env), &[pred], &[]))
            }
            CoreOp::Group {
                input,
                keys,
                folds,
                emit_empty_group,
            } => match self.group(op, input, keys, folds, *emit_empty_group, env) {
                Ok(rows) => from_vec(rows),
                Err(e) => failed(e),
            },
            CoreOp::Append { inputs } => {
                let env = env.clone();
                let mut inputs = inputs.iter();
                Box::new(Concat::new(move || {
                    inputs.next().map(|i| self.binding_stream(i, &env))
                }))
            }
            CoreOp::Sort { input, keys } => match self.sort_bindings(op, input, keys, env) {
                Ok(rows) => from_vec(rows),
                Err(e) => failed(e),
            },
            CoreOp::TopK {
                input,
                keys,
                limit,
                offset,
            } => {
                let rows = self.topk_bindings(op, input, keys, limit, offset, env);
                match rows {
                    Ok(rows) => from_vec(rows),
                    Err(e) => failed(e),
                }
            }
            CoreOp::LimitOffset {
                input,
                limit,
                offset,
            } => match self.limit_offset(limit.as_ref(), offset.as_ref(), env) {
                Err(e) => failed(e),
                Ok((Some(0), _)) => empty(),
                Ok((lim, off)) => Box::new(Limited::new(self.binding_stream(input, env), off, lim)),
            },
            CoreOp::Window { input, defs } => {
                // Window functions see whole partitions: materialize the
                // input, then rewrite rows def by def.
                let mut buf = TrackedBuffer::new(self.gauge(op), env_bytes);
                let drained = self.input_rows(op, input, &[], env).and_then(|rows| {
                    drain_batched(Box::new(rows), self.batch_size(), |b| buf.push(b))
                });
                if let Err(e) = drained {
                    return failed(e);
                }
                let mut rows = buf.into_vec();
                for def in defs {
                    match self.window(rows, def) {
                        Ok(r) => rows = r,
                        Err(e) => return failed(e),
                    }
                }
                from_vec(rows)
            }
            other => failed(EvalError::Type(format!(
                "operator {other:?} does not produce bindings"
            ))),
        }
    }

    /// ORDER BY over bindings: a pipeline breaker — the row loop yields
    /// each row's key values, and the row, bound, joins them in a
    /// gauge-tracked [`ExternalSorter`]. Without spilling (or when the
    /// budget is never hit) this is a buffer and a stable sort; under
    /// budget pressure with spilling enabled it becomes an external
    /// merge-sort over sorted runs.
    fn sort_bindings(
        &self,
        whole: &'a CoreOp,
        input: &'a CoreOp,
        keys: &'a [CoreSortKey],
        env: &Env,
    ) -> Result<Vec<Env>, EvalError> {
        let key_exprs: Vec<&'a CoreExpr> = keys.iter().map(|k| &k.expr).collect();
        let scan = self.input_rows(whole, input, &key_exprs, env)?;
        let mut rows = FusedRows::new(scan, self.batch_size());
        let codec = EnvCodec { base: env.clone() };
        let mut sorter = ExternalSorter::new(self.spill_ctx(), keys, codec, self.gauge(whole));
        let mut kv = Vec::with_capacity(keys.len());
        while let Some((row, _)) = rows.next_at(&mut kv)? {
            sorter.push(std::mem::take(&mut kv), rows.scan.bind_row(row), env_bytes)?;
        }
        if sorter.spilled() {
            self.mark_spilled(whole);
        }
        sorter.finish()
    }

    /// ORDER BY + LIMIT over bindings: a bounded top-k heap (see
    /// [`TopK`]). The keys are evaluated on each row, the heap holds the
    /// row — on the slice, its position, so only the survivors are cloned
    /// and bound. Each row is charged what its binding weighs, so a
    /// memory budget admits and refuses at the same row on either source.
    /// LIMIT 0 pulls nothing, like [`CoreOp::LimitOffset`]: not one key is
    /// evaluated.
    fn topk_bindings(
        &self,
        whole: &'a CoreOp,
        input: &'a CoreOp,
        keys: &'a [CoreSortKey],
        limit: &'a CoreExpr,
        offset: &'a Option<CoreExpr>,
        env: &Env,
    ) -> Result<Vec<Env>, EvalError> {
        let (lim, off) = self.limit_offset(Some(limit), offset.as_ref(), env)?;
        let n = lim
            .expect("top-k always carries a LIMIT")
            .saturating_add(off);
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut top = TopK {
            keys,
            n,
            off,
            gauge: self.gauge(whole),
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
        };
        let key_exprs: Vec<&'a CoreExpr> = keys.iter().map(|k| &k.expr).collect();
        let scan = self.input_rows(whole, input, &key_exprs, env)?;
        let mut rows = FusedRows::new(scan, self.batch_size());
        let mut kv = Vec::with_capacity(keys.len());
        while let Some((row, _)) = rows.next_at(&mut kv)? {
            top.offer(&mut kv, row, |row| rows.scan.bound_bytes(row))?;
        }
        Ok(top
            .into_rows()
            .into_iter()
            .map(|row| rows.scan.bind(&row))
            .collect())
    }

    fn limit_offset(
        &self,
        limit: Option<&'a CoreExpr>,
        offset: Option<&'a CoreExpr>,
        env: &Env,
    ) -> Result<(Option<usize>, usize), EvalError> {
        let eval_count = |e: Option<&'a CoreExpr>| -> Result<Option<usize>, EvalError> {
            match e {
                None => Ok(None),
                Some(e) => match self.expr(e, env)? {
                    Value::Int(i) if i >= 0 => Ok(Some(i as usize)),
                    other => Err(EvalError::Type(format!(
                        "LIMIT/OFFSET must be a non-negative integer, found {other}"
                    ))),
                },
            }
        };
        Ok((eval_count(limit)?, eval_count(offset)?.unwrap_or(0)))
    }

    /// GROUP BY: partitions the input by key values and folds each
    /// group's rows into one state per fold — a member bag for GROUP AS,
    /// an [`agg::Accumulator`] per folded aggregate — then emits one
    /// binding per group with the key aliases and each fold's value.
    ///
    /// Each row's keys and fold items are made into two buffers the build
    /// reuses: a row that joins a group it finds by its borrowed keys
    /// pushes each item into that group's state and allocates nothing for
    /// an aggregate; only a row that makes its group hands its keys over.
    ///
    /// Grouping is a pipeline breaker: the groups are live until they
    /// are emitted, tracked by the build's gauge, which charges a group
    /// when it is created and a member bag or aggregate state as it
    /// grows, never a row that folds without growing anything (see
    /// [`GroupTable`]'s `insert`). Under budget pressure with spilling enabled the keyed
    /// build scatters the held partial states and the rest of the input
    /// to Grace partitions and regroups each one, merging the states, so
    /// peak tracked memory never exceeds the budget. The spilled path
    /// loses the in-memory path's insertion order, which GROUP BY (a bag
    /// producer) never promised.
    fn group(
        &self,
        whole: &'a CoreOp,
        input: &'a CoreOp,
        keys: &'a [(String, CoreExpr)],
        folds: &'a [(String, GroupFold)],
        emit_empty_group: bool,
        env: &Env,
    ) -> Result<Vec<Env>, EvalError> {
        // The row loop yields the keys, then each aggregate body: a body's
        // data error waits in its state, a key's fails the loop. A GROUP
        // AS member is taken from the row, bound, once the keys are in.
        let outs: Vec<&'a CoreExpr> = (keys.iter().map(|(_, e)| e))
            .chain(folds.iter().filter_map(|(_, fold)| match fold {
                GroupFold::Agg { body, .. } => Some(body),
                GroupFold::Members { .. } => None,
            }))
            .collect();
        let scan = self.input_rows(whole, input, &outs, env)?;
        let park_from = keys.len();
        let mut rows = FusedRows::new(FusedScan { park_from, ..scan }, self.batch_size());
        // Each GROUP AS member's attribute names, made once here rather
        // than once per captured row.
        let member_names: Vec<Vec<AttrName>> = folds
            .iter()
            .map(|(_, fold)| match fold {
                GroupFold::Members { captured } => {
                    captured.iter().map(|var| AttrName::new(var)).collect()
                }
                GroupFold::Agg { .. } => Vec::new(),
            })
            .collect();
        let mut outputs = Vec::with_capacity(outs.len());
        let mut source = |kv: &mut Vec<Value>, items: &mut Vec<FoldItem>| {
            let Some((row, _)) = rows.next_at(&mut outputs)? else {
                return Ok(false);
            };
            let mut outputs = outputs.drain(..);
            kv.clear();
            for v in outputs.by_ref().take(park_from) {
                kv.push(group_key(v?));
            }
            items.clear();
            for ((_, fold), names) in folds.iter().zip(&member_names) {
                items.push(match fold {
                    GroupFold::Members { captured } => {
                        // Listing 14's {e: …, p: …} element shape.
                        let b = rows.scan.bind(&row);
                        let mut elem = Tuple::with_capacity(captured.len());
                        for (var, name) in captured.iter().zip(names) {
                            if let Some(v) = b.get(var) {
                                elem.insert(name.clone(), v.clone());
                            }
                        }
                        FoldItem::Member(Value::Tuple(elem))
                    }
                    GroupFold::Agg { .. } => {
                        FoldItem::Input(outputs.next().expect("an item per aggregate"))
                    }
                });
            }
            Ok(true)
        };
        let codec = GroupCodec { folds };
        let mut tables = self.build_groups(whole, &codec, &mut source)?;
        // Ungrouped aggregation and the grand-total grouping set yield
        // exactly one group even over empty input (SQL).
        if emit_empty_group && tables.iter().all(|t| t.chains.len() == 0) {
            // The group's key values: whatever the (constant) key
            // expressions evaluate to with no rows — NULL placeholders
            // and GROUPING flags.
            let mut kv = (keys.iter())
                .map(|(_, ke)| match ke {
                    CoreExpr::Const(v) => v.clone(),
                    _ => Value::Null,
                })
                .collect();
            let mut states = (folds.iter())
                .map(|(_, fold)| FoldItem::State(FoldState::empty(fold)))
                .collect();
            let mut table = GroupTable::default();
            table.insert(
                &mut kv,
                &mut states,
                &codec,
                &MatGauge::new(None, None, None),
            );
            tables = vec![table];
        }
        let groups: usize = tables.iter().map(|t| t.chains.len()).sum();
        if let Some(st) = &self.stats {
            st.count(|s| s.groups_built += groups as u64);
        }
        // The names every group binds, made once.
        let key_names: Vec<Rc<str>> = keys
            .iter()
            .map(|(alias, _)| alias.as_str().into())
            .collect();
        let fold_names: Vec<Rc<str>> = folds.iter().map(|(var, _)| var.as_str().into()).collect();
        let mut out = Vec::with_capacity(groups);
        for table in tables {
            let count = table.chains.len();
            let (mut key_vals, mut states) = (table.keys.into_iter(), table.states.into_iter());
            for _ in 0..count {
                let mut genv = env.clone();
                for (alias, v) in key_names.iter().zip(key_vals.by_ref()) {
                    genv = genv.bind(alias.clone(), v);
                }
                for (var, state) in fold_names.iter().zip(states.by_ref()) {
                    let value = match state {
                        FoldState::Members(elems) => Ok(Value::Bag(elems)),
                        FoldState::Agg(acc) => acc.finish().or_else(|e| self.agg_err(e)),
                    };
                    genv = match value {
                        Ok(v) => genv.bind(var.clone(), v),
                        // Raised only if the plan reads the aggregate — when
                        // the paper-literal plan would have computed it.
                        Err(e) => genv.bind(parked_error_var(var), e.to_value()),
                    };
                }
                out.push(genv);
            }
        }
        Ok(out)
    }

    /// The one grouping keyed build: drains the `(key values, fold
    /// items)` records `source` makes into a [`GroupTable`], spilling per
    /// [`keyed_build`], and hands back every group: the one table, or
    /// each spilled partition's in turn.
    fn build_groups(
        &self,
        whole: &CoreOp,
        codec: &GroupCodec<'_>,
        source: &mut KeyedSource<'_, Vec<FoldItem>>,
    ) -> Result<Vec<GroupTable>, EvalError> {
        let mut tables = Vec::new();
        let built = keyed_build(
            self.spill_ctx().as_ref(),
            &|| self.gauge(whole),
            codec,
            source,
            None,
            0,
            &mut |part: GroupTable, _held, _| {
                tables.push(part);
                Ok(())
            },
        )?;
        match built {
            Some((table, _held)) => tables = vec![table],
            None => self.mark_spilled(whole),
        }
        Ok(tables)
    }

    /// Evaluates one window definition over the binding stream, returning
    /// the stream (original order preserved) with `def.var` bound on each
    /// row. SQL default frame semantics: whole partition without ORDER
    /// BY; RANGE UNBOUNDED PRECEDING..CURRENT ROW (peers included) with
    /// it.
    fn window(&self, rows: Vec<Env>, def: &'a WindowDef) -> Result<Vec<Env>, EvalError> {
        let partition = self.programs(&def.partition);
        let order = self.programs(def.order.iter().map(|k| &k.expr));
        let args = self.programs(&def.args);
        // Partition: insertion-ordered buckets of row indices.
        let mut index: HashMap<GroupKey, usize> = HashMap::new();
        let mut partitions: Vec<Vec<usize>> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let mut key = Vec::with_capacity(partition.len());
            for p in &partition {
                let mut v = self.run_program(p, row)?;
                if v.is_missing() {
                    v = Value::Null; // absent keys partition together
                }
                key.push(v);
            }
            match index.entry(GroupKey(key)) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    partitions[*o.get()].push(i);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(partitions.len());
                    partitions.push(vec![i]);
                }
            }
        }
        if let Some(st) = &self.stats {
            // Window partitions are groups in the §V-B sense.
            st.count(|s| s.groups_built += partitions.len() as u64);
        }
        let mut computed: Vec<Value> = vec![Value::Null; rows.len()];
        for partition in &partitions {
            // Order within the partition.
            let mut ordered: Vec<(Vec<Value>, usize)> = Vec::with_capacity(partition.len());
            for &i in partition {
                let mut ks = Vec::with_capacity(order.len());
                for k in &order {
                    ks.push(self.run_program(k, &rows[i])?);
                }
                ordered.push((ks, i));
            }
            sort_annotated(&mut ordered, &def.order);
            // Peer groups under the ordering (all one group when
            // unordered).
            let peers_equal = |a: &[Value], b: &[Value]| {
                def.order.is_empty() || a.iter().zip(b).all(|(x, y)| deep_eq(x, y))
            };
            match def.func {
                WindowFunc::RowNumber => {
                    for (pos, (_, i)) in ordered.iter().enumerate() {
                        computed[*i] = Value::Int(pos as i64 + 1);
                    }
                }
                WindowFunc::Rank | WindowFunc::DenseRank => {
                    let mut rank = 0i64;
                    let mut dense = 0i64;
                    for (pos, (keys, i)) in ordered.iter().enumerate() {
                        let new_peer_group = pos == 0 || !peers_equal(keys, &ordered[pos - 1].0);
                        if new_peer_group {
                            rank = pos as i64 + 1;
                            dense += 1;
                        }
                        computed[*i] = Value::Int(match def.func {
                            WindowFunc::Rank => rank,
                            _ => dense,
                        });
                    }
                }
                WindowFunc::Lag | WindowFunc::Lead => {
                    let offset = match args.get(1) {
                        None => 1i64,
                        Some(p) => match self.run_program(p, &rows[ordered[0].1])? {
                            Value::Int(o) if o >= 0 => o,
                            other => {
                                return Err(EvalError::Type(format!(
                                    "LAG/LEAD offset must be a non-negative \
                                     integer, found {other}"
                                )));
                            }
                        },
                    };
                    for (pos, (_, i)) in ordered.iter().enumerate() {
                        let neighbor = match def.func {
                            WindowFunc::Lag => (pos as i64) - offset,
                            _ => (pos as i64) + offset,
                        };
                        computed[*i] = if neighbor >= 0 && (neighbor as usize) < ordered.len() {
                            let j = ordered[neighbor as usize].1;
                            self.run_program(&args[0], &rows[j])?
                        } else if let Some(default) = args.get(2) {
                            self.run_program(default, &rows[*i])?
                        } else {
                            Value::Null
                        };
                    }
                }
                WindowFunc::Agg(func) => {
                    if def.order.is_empty() {
                        // Whole-partition aggregate, computed once.
                        let mut acc = agg::Accumulator::new(func);
                        for (_, i) in &ordered {
                            acc.push(&self.window_agg_input(&args, &rows[*i])?);
                        }
                        let value = match acc.finish() {
                            Ok(v) => v,
                            Err(e) => self.agg_err(e)?,
                        };
                        for (_, i) in &ordered {
                            computed[*i] = value.clone();
                        }
                    } else {
                        // Running aggregate with peers included: compute
                        // at each peer-group boundary.
                        let mut acc = agg::Accumulator::new(func);
                        let mut pos = 0usize;
                        while pos < ordered.len() {
                            let mut end = pos + 1;
                            while end < ordered.len()
                                && peers_equal(&ordered[end].0, &ordered[pos].0)
                            {
                                end += 1;
                            }
                            for (_, i) in &ordered[pos..end] {
                                acc.push(&self.window_agg_input(&args, &rows[*i])?);
                            }
                            let value = match acc.clone().finish() {
                                Ok(v) => v,
                                Err(e) => self.agg_err(e)?,
                            };
                            for (_, i) in &ordered[pos..end] {
                                computed[*i] = value.clone();
                            }
                            pos = end;
                        }
                    }
                }
            }
        }
        let var: std::rc::Rc<str> = def.var.as_str().into();
        Ok(rows
            .into_iter()
            .zip(computed)
            .map(|(row, v)| row.bind(var.clone(), v))
            .collect())
    }

    /// The per-row input of a windowed aggregate: its argument program
    /// run on `row`, or — for `COUNT(*) OVER (…)` — a constant that counts
    /// every row.
    fn window_agg_input(&self, args: &[Rc<Program<'a>>], row: &Env) -> Result<Value, EvalError> {
        match args.first() {
            Some(arg) => self.run_program(arg, row),
            None => Ok(Value::Int(1)),
        }
    }

    // =================================================================
    // FROM
    // =================================================================

    /// The binding stream of a FROM-item tree. `whole` is the enclosing
    /// `CoreOp::From`, used to attribute materialization (hash-join
    /// builds) to an operator in the stats.
    #[allow(clippy::wrong_self_convention)] // "from" is the SQL clause, not a conversion
    fn from_stream<'s>(
        &'s self,
        item: &'a CoreFrom,
        whole: &'a CoreOp,
        env: &Env,
    ) -> BindingStream<'s> {
        match item {
            // A set operation's elements reach its ORDER BY as it yields
            // them: the sort's tracked buffer holds them, not a value
            // collected first, and each one's keys run before the next.
            CoreFrom::Scan {
                expr: CoreExpr::Subquery { plan, .. },
                as_var,
                ..
            } if as_var == SET_OP_ELEMENT => Box::new(ElementRows {
                elements: self.element_stream(&plan.op, env),
                var: as_var.as_str().into(),
                env: env.clone(),
                buf: Vec::new(),
            }),
            CoreFrom::Scan {
                expr,
                as_var,
                at_var,
            } => match self.open_scan(expr, as_var, at_var.as_deref(), env) {
                Ok(scan) => Box::new(scan),
                Err(e) => failed(e),
            },
            CoreFrom::Unpivot {
                expr,
                value_var,
                name_var,
            } => self.unpivot_stream(expr, value_var, name_var, env),
            CoreFrom::Let { expr, var } => match self.expr(expr, env) {
                Ok(v) => boxed(std::iter::once(Ok(env.bind(var.clone(), v)))),
                Err(e) => failed(e),
            },
            // Left-correlated product (comma lists, UNNEST): the right item
            // re-opens in each left row's environment. Left rows are pulled
            // one at a time so a LIMIT above stops the left scan too.
            CoreFrom::Correlate {
                left,
                right,
                left_pred,
            } => {
                let mut left = self.correlate_left(left, left_pred.as_ref(), whole, env);
                Box::new(Concat::new(move || match next_one(&mut left) {
                    Ok(l) => l.map(|l| self.from_stream(right, whole, &l)),
                    Err(e) => Some(failed(e)),
                }))
            }
            CoreFrom::Join {
                kind,
                left,
                right,
                on,
                right_vars,
            } => Box::new(NestedLoop::new(
                self,
                *kind,
                self.from_stream(left, whole, env),
                right,
                whole,
                right_vars.iter().map(|v| v.as_str().into()).collect(),
                vec![(self.program(on), None)],
            )),
            CoreFrom::HashJoin {
                kind,
                left,
                right,
                keys,
                left_pred,
                right_pred,
                residual,
                right_vars,
            } => {
                let names: Vec<Rc<str>> = right_vars.iter().map(|v| v.as_str().into()).collect();
                // Like the nested loop, which never opens its right side
                // without a left row: with no probe row at all, build
                // nothing — a right-side error must not surface where the
                // plan it was derived from answers `{{}}`. No left
                // predicate or key runs before the build.
                let probe = self.probe_rows(whole, *kind, left, keys, left_pred.as_ref(), env);
                let mut left_rows = match probe {
                    Ok(Some(probe)) => Some(probe),
                    Ok(None) => return empty(),
                    Err(e) => return failed(e),
                };
                let joined = self.hash_join(
                    *kind,
                    &mut left_rows,
                    matches!(**left, CoreFrom::Scan { .. }),
                    right,
                    whole,
                    keys,
                    right_pred.as_ref(),
                    residual.as_ref(),
                    &names,
                    env,
                );
                match (joined, left_rows) {
                    (Ok(stream), _) => stream,
                    // The optimizer's uncorrelated analysis is static and
                    // conservative, but a runtime `Global` can still
                    // resolve through the environment (dynamic
                    // disambiguation). If the right side fails to *resolve*
                    // in the outer environment, reconstruct the exact
                    // per-left-row nested loop the plan was derived from,
                    // over the left rows the build left unread. Only that
                    // resolution failure is recoverable: an error once the
                    // probe side is read, and any other build error (a
                    // governed budget refusal, a deadline, an injected
                    // fault, a strict-mode error) must surface, not
                    // trigger a silent retry. The original ON is exactly
                    // `left_pred ∧ right_pred ∧ keys ∧ residual`, re-checked
                    // per (left, right) pair in that order.
                    (Err(EvalError::UnknownName(_)), Some(left_rows)) => {
                        let holds = |p| (self.program(p), None);
                        let equal = |(l, r): &'a _| (self.program(l), Some(self.program(r)));
                        let tests = ([left_pred, right_pred].into_iter().flatten().map(holds))
                            .chain(keys.iter().map(equal))
                            .chain(residual.iter().map(holds))
                            .collect();
                        Box::new(NestedLoop::new(
                            self,
                            *kind,
                            Box::new(left_rows.unjudged()),
                            right,
                            whole,
                            names,
                            tests,
                        ))
                    }
                    (Err(e), _) => failed(e),
                }
            }
        }
    }

    /// A hash join's probe side: the one row loop over `left`, with the
    /// probe filter as its predicates and the left keys as its outputs,
    /// or `None` when it holds no row. An inner join's bare scan runs on
    /// the slice where eligible (see [`Self::spine_parts`]); any other
    /// left side on its binding stream. A LEFT join's rows the filter or
    /// an absent key rejects come back flagged, to be padded. A bare scan
    /// tells whether it holds a row by looking at its source, and no row
    /// of it raises once it is open (a strict AT over a bag raises at its
    /// first pull, taken here), so an inner join over an empty build
    /// reads none of them. Any other side pulls its first row here and,
    /// over an empty build, every other one later: its rows may raise, as
    /// they do in the nested loop the join came from.
    fn probe_rows<'s>(
        &'s self,
        whole: &'a CoreOp,
        kind: CoreJoinKind,
        left: &'a CoreFrom,
        keys: &'a [(CoreExpr, CoreExpr)],
        left_pred: Option<&'a CoreExpr>,
        env: &Env,
    ) -> Result<Option<FusedScan<'s, 'a>>, EvalError> {
        let preds = left_pred.as_slice();
        let outs: Vec<&'a CoreExpr> = keys.iter().map(|(lk, _)| lk).collect();
        let scan = match left {
            CoreFrom::Scan {
                expr,
                as_var,
                at_var,
            } => {
                let parts = (self.spine_parts(whole, left, preds, &outs))
                    .filter(|_| kind == CoreJoinKind::Inner);
                let on_slice = parts.is_some();
                let mut scan = match parts {
                    Some(parts) => self.spine(parts, env)?,
                    None => self.open_scan(expr, as_var, at_var.as_deref(), env)?,
                };
                if scan.bag_at_error {
                    next_one::<Env>(&mut scan)?;
                }
                if scan.source.items().is_empty() {
                    return Ok(None);
                }
                match on_slice {
                    true => scan,
                    false => self.bound_rows(Box::new(scan), preds, &outs),
                }
            }
            _ => {
                let mut rows = self.from_stream(left, whole, env);
                let Some(first) = next_one(&mut rows)? else {
                    return Ok(None);
                };
                let mut parts = [from_vec(vec![first]), rows].into_iter();
                self.bound_rows(Box::new(Concat::new(move || parts.next())), preds, &outs)
            }
        };
        Ok(Some(FusedScan {
            join_keys: true,
            pads: kind == CoreJoinKind::Left,
            ..scan
        }))
    }

    /// A correlate's left rows. Under permissive typing its left filter
    /// (see [`CoreFrom::Correlate`]) drops each row it evaluates to FALSE
    /// before that row's right side opens — on the slice when the left is
    /// an eligible bare scan, so a dropped row costs one predicate on a
    /// borrowed element. Strict typing opens every row's right side:
    /// navigating a non-tuple or scanning a non-collection raises there,
    /// and a row the filter rejects must not skip that error.
    fn correlate_left<'s>(
        &'s self,
        left: &'a CoreFrom,
        left_pred: Option<&'a CoreExpr>,
        whole: &'a CoreOp,
        env: &Env,
    ) -> BindingStream<'s> {
        let Some(pred) = left_pred.filter(|_| self.config.typing == TypingMode::Permissive) else {
            return self.from_stream(left, whole, env);
        };
        let scan = match self.spine_parts(whole, left, &[pred], &[]) {
            Some(parts) => self.spine(parts, env),
            None => Ok(self.bound_rows(self.from_stream(left, whole, env), &[pred], &[])),
        };
        match scan {
            Ok(scan) => Box::new(FusedScan {
                left_filter: true,
                ..scan
            }),
            Err(e) => failed(e),
        }
    }

    /// A hash join. The right side is the join's pipeline breaker: it is
    /// evaluated once and built into a [`JoinTable`] through the keyed
    /// build, its rows tracked live by a gauge attributed to the enclosing
    /// FROM operator. Rows failing a side's filter — or with any
    /// NULL/MISSING key, which can never compare equal (3VL) — never enter
    /// the table (build side) or resolve without probing (probe side).
    /// Both sides' filters and keys run in their row loops. A build that
    /// is an eligible bare scan (see [`Self::spine_parts`]) runs on the
    /// slice; over a stored collection it keeps its rows by position: a
    /// build row is bound only when a probe row matches it
    /// ([`BuildRows`]), and is charged what its binding would weigh.
    ///
    /// A build that fits yields the streaming [`HashProbe`]. One that
    /// exceeds the memory budget with spilling enabled runs Grace-style
    /// instead: the built rows scatter to key-hash partitions — as their
    /// right-variable bindings, all a probe match reads back — and the
    /// *same* right stream continues straight to disk; the left side
    /// scatters alongside as whole binding rows; then each partition pair
    /// joins in memory. That output arrives partition by partition — a
    /// different order than the streaming probe, which a join (a bag
    /// producer) never promised.
    ///
    /// `left_rows` is the probe side (see [`Self::probe_rows`]), holding
    /// at least one row. It stays in place, unread, until the build has
    /// drained the right side. `quiet` says its rows cannot raise (a bare
    /// scan's): an inner join over an empty build then reads none.
    #[allow(clippy::too_many_arguments)]
    fn hash_join<'s>(
        &'s self,
        kind: CoreJoinKind,
        left_rows: &mut Option<FusedScan<'s, 'a>>,
        quiet: bool,
        right: &'a CoreFrom,
        whole: &'a CoreOp,
        keys: &'a [(CoreExpr, CoreExpr)],
        right_pred: Option<&'a CoreExpr>,
        residual: Option<&'a CoreExpr>,
        names: &[Rc<str>],
        env: &Env,
    ) -> Result<BindingStream<'s>, EvalError> {
        let residual = residual.map(|p| self.program(p));
        // Both sides are consumed at stream *construction* (before the
        // first wrapped pull), so they tick the deadline themselves —
        // still per row: build and scatter rows do real per-row work.
        let watcher = self.govern.as_watcher();
        let tick = || watcher.map_or(Ok(()), ResourceGovernor::tick);
        let right_keys: Vec<&'a CoreExpr> = keys.iter().map(|(_, rk)| rk).collect();
        let preds = right_pred.as_slice();
        let rights = match self.spine_parts(whole, right, preds, &right_keys) {
            Some(parts) => self.spine(parts, env)?,
            None => self.bound_rows(self.from_stream(right, whole, env), preds, &right_keys),
        };
        let rows = BuildRows {
            slice: match &rights.source {
                RowSource::Shared(slice) => Some(slice.clone()),
                _ => None,
            },
            as_var: rights.as_var.clone(),
            env: rights.env.clone(),
            names: names.to_vec(),
            due: Cell::new(0),
        };
        let rights = FusedScan {
            join_keys: true,
            ..rights
        };
        let mut rights = FusedRows::new(rights, self.batch_size());
        let mut build_rows = |kv: &mut Vec<Value>, row: &mut Row| {
            kv.clear();
            let Some((at, _)) = rights.next_at(kv)? else {
                return Ok(false);
            };
            rows.due.set(rights.pending() + 1);
            tick()?;
            // Only a stored collection's snapshot outlives the build: a
            // computed source's rows are moved out and kept bound, and
            // the rest go with the scan.
            *row = match at {
                Row::At(_) if rows.slice.is_none() => Row::Bound(rights.scan.bind_row(at)),
                at => at,
            };
            Ok(true)
        };
        // The probe side as spillable records — read only if the build
        // overflows. Rows that can never match resolve here: dropped, or
        // padded for LEFT joins.
        let mut lefts = None;
        let mut pads = Vec::new();
        let mut probe_rows = |kv: &mut Vec<Value>, payload: &mut Value| {
            let lefts = lefts.get_or_insert_with(|| {
                let rows = left_rows.take().expect("the probe side is read once");
                FusedRows::new(rows, self.batch_size())
            });
            kv.clear();
            while let Some((row, passed)) = lefts.next_at(kv)? {
                tick()?;
                let l = lefts.scan.bind(&row);
                if passed {
                    *payload = encode_env(&l);
                    return Ok(true);
                }
                pads.push(pad_left(&l, names));
            }
            Ok(false)
        };
        let mut out = Vec::new();
        let mut probe_partition =
            |table: JoinTable, _held, probes: Option<&mut KeyedSource<'_, Value>>| {
                let probes = probes.expect("a join partition has its probe run");
                if let Some(st) = &self.stats {
                    st.count(|s| s.join_build_rows += table.rows.len() as u64);
                }
                let (mut kv, mut payload) = (Vec::new(), Value::Missing);
                while probes(&mut kv, &mut payload)? {
                    let l = decode_env(std::mem::take(&mut payload), env)?;
                    let matched = table.probe(
                        self,
                        &kv,
                        &|| l.clone(),
                        &rows,
                        residual.as_deref(),
                        &mut |row| out.push(row),
                    )?;
                    if !matched && kind == CoreJoinKind::Left {
                        out.push(pad_left(&l, names));
                    }
                }
                Ok(())
            };
        let built = keyed_build(
            self.spill_ctx().as_ref(),
            &|| self.gauge(whole),
            &rows,
            &mut build_rows,
            Some(&mut probe_rows),
            0,
            &mut probe_partition,
        )?;
        let Some((table, held)) = built else {
            self.mark_spilled(whole);
            pads.append(&mut out);
            return Ok(from_vec(pads));
        };
        if let Some(st) = &self.stats {
            st.count(|s| s.join_build_rows += table.rows.len() as u64);
        }
        let mut left = (left_rows.take()).expect("an in-memory build leaves the probe side unread");
        if table.rows.is_empty() {
            // An empty build matches nothing and, like the nested loop
            // over an empty right side, runs no left predicate or key: an
            // inner join whose left rows cannot raise reads none of them.
            if quiet && kind == CoreJoinKind::Inner {
                return Ok(empty());
            }
            left = left.unjudged();
        }
        Ok(Box::new(HashProbe {
            ev: self,
            kind,
            residual,
            rows,
            build: table,
            _held: held,
            left: FusedRows::new(left, 1),
            kv: Vec::new(),
            pending: VecDeque::new(),
            done: false,
        }))
    }

    /// Opens a FROM scan — the one place the §III source policy lives.
    /// A fully-resolved catalog name scans the stored collection
    /// *shared* (its `Arc` snapshot: a row is cloned only when it is
    /// bound); anything else evaluates to a value the scan owns, whose
    /// rows its binding form moves out. Collections iterate and MISSING
    /// scans as empty. Any other value is a singleton under permissive
    /// typing ("aliases may bind to any value, not just tuples") and an
    /// error under strict typing — as is an AT variable over a bag, at
    /// the first pull, once it has counted that row.
    fn open_scan<'s>(
        &'s self,
        expr: &'a CoreExpr,
        as_var: &str,
        at_var: Option<&str>,
        env: &Env,
    ) -> Result<FusedScan<'s, 'a>, EvalError> {
        let stored = match expr {
            CoreExpr::Global(segments) => {
                self.govern.fault_at(FaultSite::CatalogRead)?;
                self.catalog
                    .resolve_prefix(segments)
                    .filter(|(_, used)| *used == segments.len())
            }
            _ => None,
        };
        let mut source = match stored {
            Some((value, _)) => RowSource::Shared(value),
            None => RowSource::Owned(self.expr(expr, env)?),
        };
        let strict = self.config.typing == TypingMode::StrictError;
        match source.value() {
            Some(Value::Bag(_) | Value::Array(_)) | None => {}
            Some(Value::Missing) => source = RowSource::Owned(Value::Bag(Vec::new())),
            Some(other) if strict => {
                return Err(EvalError::Type(format!(
                    "FROM source must be a collection, found {}",
                    other.kind().name()
                )));
            }
            _ => {}
        }
        Ok(FusedScan {
            at_var: at_var.map(Into::into),
            bag_at_error: strict
                && at_var.is_some()
                && matches!(source.value(), Some(Value::Bag(_))),
            as_var: Some(as_var.into()),
            ..FusedScan::new(self, source, env.clone())
        })
    }

    /// UNPIVOT (§VI-A): a tuple's attribute/value pairs become data. A
    /// non-tuple coerces to `{'_1': v}` in permissive mode (PartiQL's
    /// rule); MISSING unpivots to nothing.
    fn unpivot_stream<'s>(
        &'s self,
        expr: &'a CoreExpr,
        value_var: &str,
        name_var: &str,
        env: &Env,
    ) -> BindingStream<'s> {
        let tuple = match self.expr(expr, env) {
            Err(e) => return failed(e),
            Ok(Value::Tuple(t)) => t,
            Ok(Value::Missing) => return empty(),
            Ok(other) if self.config.typing == TypingMode::Permissive => {
                Tuple::from_pairs([("_1", other)])
            }
            Ok(other) => {
                return failed(EvalError::Type(format!(
                    "UNPIVOT source must be a tuple, found {}",
                    other.kind().name()
                )))
            }
        };
        let value_var: Rc<str> = value_var.into();
        let name_var: Rc<str> = name_var.into();
        let env = env.clone();
        boxed(tuple.into_iter().map(move |(name, value)| {
            if let Some(st) = &self.stats {
                st.count(|s| s.rows_scanned += 1);
            }
            Ok(env
                .bind(value_var.clone(), value)
                .bind(name_var.clone(), Value::Str(name.into_string())))
        }))
    }

    // =================================================================
    // The row loop
    // =================================================================

    /// The effective batch size (configured, floored at one row).
    fn batch_size(&self) -> usize {
        self.config.batch_size.max(1)
    }

    /// The one row loop (see [`FusedScan`]) over `input`, the operator
    /// feeding `consumer`, with `outs` as its outputs: on the slice when
    /// `input` is an eligible `Filter* → Scan` chain (see
    /// [`Self::spine_input`]), else over `input`'s binding stream.
    fn input_rows<'s>(
        &'s self,
        consumer: &'a CoreOp,
        input: &'a CoreOp,
        outs: &[&'a CoreExpr],
        env: &Env,
    ) -> Result<FusedScan<'s, 'a>, EvalError> {
        match self.spine_input(consumer, input, outs) {
            Some(parts) => self.spine(parts, env),
            None => Ok(self.bound_rows(self.binding_stream(input, env), &[], outs)),
        }
    }

    /// The row loop over any binding stream: each row runs `preds` and
    /// `outs`, unspecialized, against its own environment. Every
    /// predicate must be TRUE, and every output's error fails the loop;
    /// callers adjust the policy fields.
    fn bound_rows<'s>(
        &'s self,
        input: BindingStream<'s>,
        preds: &[&'a CoreExpr],
        outs: &[&'a CoreExpr],
    ) -> FusedScan<'s, 'a> {
        let (buf, pulled) = (Vec::new(), Ok(()));
        FusedScan {
            preds: self.programs(preds.iter().copied()),
            outs: self.programs(outs.iter().copied()),
            ..FusedScan::new(self, RowSource::Bound { input, buf, pulled }, Env::new())
        }
    }

    /// The slice's parts for a `Filter* → Scan` input with `outs` as its
    /// outputs, or `None` when ineligible. The `From` and the `Filter`s
    /// are the operators the slice stands in for.
    fn spine_input(
        &self,
        consumer: &'a CoreOp,
        input: &'a CoreOp,
        outs: &[&'a CoreExpr],
    ) -> Option<SpineParts<'a>> {
        // Peel WHERE filters down to a plain scan.
        let mut preds: Vec<&'a CoreExpr> = Vec::new();
        let mut op = input;
        let item = loop {
            match op {
                CoreOp::Filter { input, pred } => {
                    preds.push(pred);
                    op = input;
                }
                CoreOp::From { item } => break item,
                _ => return None,
            }
        };
        // Peeled outermost-first; they must run scan-side-first.
        preds.reverse();
        Some(SpineParts {
            input: Some(input),
            ..self.spine_parts(consumer, item, &preds, outs)?
        })
    }

    /// The slice's parts over `item`, or `None` when ineligible: at batch
    /// 1, the binding stream's reference configuration, when `item` is not
    /// a bare scan with no AT variable, when it scans a set operation's
    /// streamed elements, or when a program is not root-safe.
    fn spine_parts(
        &self,
        consumer: &'a CoreOp,
        item: &'a CoreFrom,
        preds: &[&'a CoreExpr],
        outs: &[&'a CoreExpr],
    ) -> Option<SpineParts<'a>> {
        let CoreFrom::Scan {
            expr,
            as_var,
            at_var: None,
        } = item
        else {
            return None;
        };
        if as_var == SET_OP_ELEMENT {
            return None;
        }
        Some(SpineParts {
            scan: expr,
            as_var,
            preds: self.rooted(preds, as_var)?,
            outs: self.rooted(outs, as_var)?,
            consumer,
            input: None,
        })
    }

    /// Each expression's program specialized for the slice's root
    /// variable — paths off the root variable become direct root reads,
    /// so the hot loop never compares variable names — or `None` at batch
    /// 1 or unless every one is safe to run against a borrowed root.
    fn rooted(&self, exprs: &[&'a CoreExpr], root: &'a str) -> Option<Vec<Rc<Program<'a>>>> {
        let one = |e| self.program(e).root_safe.then(|| self.program_for(e, root));
        (self.config.batch_size > 1).then(|| exprs.iter().map(|e| one(*e)).collect())?
    }

    /// Opens the row loop on the slice of `parts`: every predicate must
    /// be TRUE, and every output's error fails the loop. Callers adjust
    /// the policy fields. Under stats collection its operators are
    /// labelled fused, and the ones it stands in for are credited from
    /// here on — also when the open fails, like the binding stream's
    /// instrumented failed stream.
    fn spine<'s>(
        &'s self,
        parts: SpineParts<'a>,
        env: &Env,
    ) -> Result<FusedScan<'s, 'a>, EvalError> {
        let observed = (self.stats.as_ref()).and_then(|st| SpineStats::new(st, &parts));
        Ok(FusedScan {
            preds: parts.preds,
            outs: parts.outs,
            observed,
            ..self.open_scan(parts.scan, parts.as_var, None, env)?
        })
    }

    /// The row loop of a DELETE or UPDATE: `each` gets, in order, the
    /// position of every element of `target` (the statement's snapshot)
    /// `pred` holds TRUE on under `var` — all, without a `pred` — the
    /// element, and the values of `outs` on it, until it fails. The loop
    /// hands on every row, a rejected one flagged, so an ordinal is a
    /// position.
    pub fn for_each_match<E: From<EvalError>>(
        &self,
        target: Arc<Value>,
        var: &'a str,
        pred: Option<&'a CoreExpr>,
        outs: &[&'a CoreExpr],
        mut each: impl FnMut(usize, &Value, std::vec::Drain<'_, Value>) -> Result<(), E>,
    ) -> Result<(), E> {
        let (preds, items) = (pred.as_slice(), Arc::clone(&target));
        let scan = FusedScan {
            as_var: Some(var.into()),
            ..FusedScan::new(self, RowSource::Shared(target), Env::new())
        };
        let scan = match (self.rooted(preds, var), self.rooted(outs, var)) {
            (Some(preds), Some(outs)) => FusedScan {
                preds,
                outs,
                ..scan
            },
            _ => self.bound_rows(Box::new(scan), preds, outs),
        };
        let mut rows = FusedRows::new(FusedScan { pads: true, ..scan }, self.batch_size());
        let mut values = Vec::with_capacity(outs.len());
        for at in 0.. {
            match rows.next_at(&mut values)? {
                Some((_, true)) => each(at, &elements(&items)[at], values.drain(..))?,
                Some(_) => {}
                None => break,
            }
        }
        Ok(())
    }

    // =================================================================
    // Expressions
    // =================================================================

    /// Evaluates a Core expression in an environment, compiling it on
    /// first sight: for the reference oracle, and for what runs once per
    /// open of an operator — a LIMIT/OFFSET operand, a LET, a scan or
    /// UNPIVOT source. Whatever runs per row, DML included, fetches its
    /// programs once and runs them through the row loop ([`FusedScan`])
    /// or [`Self::run_program`].
    pub(crate) fn expr(&self, e: &'a CoreExpr, env: &Env) -> Result<Value, EvalError> {
        self.run_program(&self.program(e), env)
    }

    /// The programs of `exprs`, fetched once by an operator that runs
    /// them per row or per match.
    fn programs(&self, exprs: impl IntoIterator<Item = &'a CoreExpr>) -> Vec<Rc<Program<'a>>> {
        exprs.into_iter().map(|e| self.program(e)).collect()
    }

    /// The expression's compiled program, compiling and caching it on
    /// first sight.
    fn program(&self, e: &'a CoreExpr) -> Rc<Program<'a>> {
        self.program_for(e, "")
    }

    /// [`Self::program`] specialized for the slice's row variable `root`
    /// (none for `""`), made and cached on first sight.
    fn program_for(&self, e: &'a CoreExpr, root: &'a str) -> Rc<Program<'a>> {
        let key = (std::ptr::from_ref(e) as usize, root);
        if let Some(p) = self.programs.borrow().get(&key) {
            return Rc::clone(p);
        }
        let p = Rc::new(match root {
            "" => bytecode::compile(e),
            root => self.program(e).specialize_for_root(root),
        });
        if let (Some(st), "") = (&self.stats, root) {
            st.count(|s| s.exprs_compiled += 1);
        }
        self.programs.borrow_mut().insert(key, Rc::clone(&p));
        p
    }

    // =================================================================
    // Bytecode VM
    // =================================================================

    /// Runs a compiled expression program on the evaluator's reusable
    /// value stack. The stack is taken for the duration and put back on
    /// every exit — including an error raised inside a call instruction —
    /// so the next evaluation on this evaluator starts clean. Each run is
    /// an operator fault site, so chaos plans can fail mid-stream, not
    /// just at operator setup; gated on hook presence, zero-cost in
    /// production.
    fn run_program(&self, prog: &Program<'a>, env: &Env) -> Result<Value, EvalError> {
        if self.govern.injects_faults() {
            self.govern.fault_at(FaultSite::OperatorEval)?;
        }
        let mut stack = self.vm_stack.take();
        stack.clear();
        let result = self
            .exec_program(prog, None, env, &mut stack)
            .map(|()| stack.pop().expect("bytecode program left no result"));
        stack.clear();
        self.vm_stack.set(stack);
        result
    }

    /// The operator fault site, visited once per program the fused
    /// spine runs when faults are injected (`ON`), as
    /// [`Self::run_program`] visits it once per run.
    #[inline(always)]
    fn fault_site<const ON: bool>(&self) -> Result<(), EvalError> {
        match ON {
            true => self.govern.fault_at(FaultSite::OperatorEval),
            false => Ok(()),
        }
    }

    /// The expression dispatcher: the only place Core expression
    /// semantics are decided. `root` is the fused scan spine's borrowed
    /// row, read by the `Root` operands that
    /// [`Program::specialize_for_root`] put in place of every path on
    /// the row variable, so no other lookup ever compares against its
    /// name. Leaf operands are read in place through [`Self::operand`].
    /// The NULL/MISSING tables live in the value-level helpers the arms
    /// call.
    fn exec_program(
        &self,
        prog: &Program<'a>,
        root: Option<&Value>,
        env: &Env,
        stack: &mut Vec<Value>,
    ) -> Result<(), EvalError> {
        let instrs = &prog.instrs;
        let mut pc = 0usize;
        while pc < instrs.len() {
            match instrs[pc] {
                Instr::Push(leaf) => {
                    let v = self.operand(leaf, root, env)?.clone();
                    stack.push(v);
                }
                Instr::Global(segments) => stack.push(self.resolve_global(segments, env)?),
                Instr::Dynamic(name) => {
                    stack.push(self.resolve_global(std::slice::from_ref(name), env)?)
                }
                Instr::Path(attr) => {
                    let base = stack.pop().expect("stack");
                    let v = self.step(&base, attr)?.clone();
                    stack.push(v);
                }
                Instr::Index => {
                    let idx = stack.pop().expect("stack");
                    let base = stack.pop().expect("stack");
                    let v = if base.is_missing() || idx.is_missing() {
                        Value::Missing
                    } else if base.is_null() || idx.is_null() {
                        Value::Null
                    } else {
                        match (&base, &idx) {
                            (Value::Array(_), Value::Int(i)) => base.index(*i),
                            _ => self.type_err(|| {
                                format!(
                                    "cannot index a {} with a {}",
                                    base.kind().name(),
                                    idx.kind().name()
                                )
                            })?,
                        }
                    };
                    stack.push(v);
                }
                Instr::Bin { op, l, r } => {
                    let (base, [lv, rv]) = self.args([l, r], stack, root, env)?;
                    // Int×Int fast path. Overflow (and every non-int
                    // pair) falls through to the general path, so
                    // promotion and error semantics are untouched.
                    let v = match (lv, rv) {
                        (Value::Int(a), Value::Int(b)) => match int_fast_binop(op, *a, *b) {
                            Some(v) => v,
                            None => self.binop_values(op, lv, rv)?,
                        },
                        _ => self.binop_values(op, lv, rv)?,
                    };
                    stack.truncate(base);
                    stack.push(v);
                }
                Instr::ShortCircuit { op, end } => {
                    let lv = stack.last().expect("stack");
                    let dominates = match op {
                        BinOp::And => *lv == Value::Bool(false),
                        _ => *lv == Value::Bool(true),
                    };
                    if dominates {
                        pc = end;
                        continue;
                    }
                }
                Instr::Logic(op) => {
                    let rv = stack.pop().expect("stack");
                    let lv = stack.pop().expect("stack");
                    let (lb, rb) = (self.to_logical(&lv)?, self.to_logical(&rv)?);
                    stack.push(match op {
                        BinOp::And => and3(lb, rb),
                        _ => or3(lb, rb),
                    });
                }
                Instr::Un(op) => {
                    let v = stack.pop().expect("stack");
                    let out = if v.is_missing() {
                        Value::Missing
                    } else if v.is_null() {
                        Value::Null
                    } else {
                        match op {
                            UnOp::Not => match v {
                                Value::Bool(b) => Value::Bool(!b),
                                other => self.type_err(|| {
                                    format!("NOT requires a boolean, found {}", other.kind().name())
                                })?,
                            },
                            UnOp::Neg => self.lift_num(num_neg(&v))?,
                            UnOp::Pos => {
                                if v.is_number() {
                                    v
                                } else {
                                    self.type_err(|| {
                                        format!(
                                            "unary + requires a number, found {}",
                                            v.kind().name()
                                        )
                                    })?
                                }
                            }
                        }
                    };
                    stack.push(out);
                }
                Instr::Is { test, negated, x } => {
                    let (base, [v]) = self.args([x], stack, root, env)?;
                    let result = match test {
                        // SQL compatibility: IS NULL is true for both absent
                        // values (a schemaful client cannot tell them apart).
                        IsTest::Null => v.is_absent(),
                        IsTest::Missing => v.is_missing(),
                        IsTest::Type(name) => type_test(v, name),
                    };
                    stack.truncate(base);
                    stack.push(Value::Bool(result != negated));
                }
                Instr::Like {
                    negated,
                    text,
                    pat,
                    esc,
                } => {
                    let (base, v) = match esc {
                        None => {
                            let (base, [t, p]) = self.args([text, pat], stack, root, env)?;
                            (base, self.like_values(t, p, None, negated)?)
                        }
                        Some(esc) => {
                            let (base, [t, p, e]) =
                                self.args([text, pat, esc], stack, root, env)?;
                            (base, self.like_values(t, p, Some(e), negated)?)
                        }
                    };
                    stack.truncate(base);
                    stack.push(v);
                }
                Instr::Between {
                    negated,
                    x,
                    low,
                    high,
                } => {
                    // x BETWEEN a AND b ≡ a <= x AND x <= b under 3VL.
                    let (base, [x, low, high]) = self.args([x, low, high], stack, root, env)?;
                    let ge = self.compare_values(BinOp::GtEq, x, low)?;
                    let le = self.compare_values(BinOp::LtEq, x, high)?;
                    stack.truncate(base);
                    stack.push(negate_if(negated, logical_and(&ge, &le)));
                }
                Instr::JumpIfMissing(end) => {
                    if stack.last().expect("stack").is_missing() {
                        pc = end;
                        continue;
                    }
                }
                Instr::InCollection {
                    negated,
                    needle,
                    hay,
                } => {
                    // The needle first, from below a stacked collection: a
                    // MISSING one decides before the collection is read.
                    let hay_at = stack.len() - usize::from(hay.is_none());
                    let (base, [nv]) = self.args([needle], &stack[..hay_at], root, env)?;
                    let v = if nv.is_missing() {
                        Value::Missing
                    } else {
                        let (_, [hv]) = self.args([hay], stack, root, env)?;
                        negate_if(negated, self.in_values(nv, hv)?)
                    };
                    stack.truncate(base);
                    stack.push(v);
                }
                Instr::InSubquery { plan, negated } => {
                    let needle = stack.pop().expect("stack");
                    stack.push(negate_if(negated, self.in_subquery(&needle, plan, env)?));
                }
                Instr::CaseJump { next, end } => {
                    let cond = stack.pop().expect("stack");
                    match cond {
                        Value::Bool(true) => {}
                        // §IV-B (Listing 9): in composability mode a
                        // MISSING condition propagates — "CASE WHEN
                        // MISSING … END … will in turn evaluate to
                        // MISSING". SQL-compat mode keeps SQL's rule
                        // (non-true falls through to the next arm/ELSE).
                        Value::Missing if self.config.compat == CompatMode::Composable => {
                            stack.push(Value::Missing);
                            pc = end;
                            continue;
                        }
                        _ => {
                            pc = next;
                            continue;
                        }
                    }
                }
                Instr::Jump(target) => {
                    pc = target;
                    continue;
                }
                Instr::Call { name, argc } => {
                    let base = stack.len() - argc;
                    let v = match functions::call(
                        name,
                        &stack[base..],
                        self.config.compat == CompatMode::SqlCompat,
                    )? {
                        Ok(v) => v,
                        Err(msg) => self.type_err(|| msg)?,
                    };
                    stack.truncate(base);
                    stack.push(v);
                }
                Instr::Cast { target, ty } => {
                    let v = stack.pop().expect("stack");
                    let out = match cast(&v, target) {
                        Some(out) => out,
                        None => self.type_err(|| {
                            format!("cannot cast {} value {v} to {ty}", v.kind().name())
                        })?,
                    };
                    stack.push(out);
                }
                Instr::BadCast(ty) => {
                    return Err(EvalError::Type(format!("unknown CAST target type {ty}")));
                }
                Instr::TupleCtor(n) => {
                    let base = stack.len() - 2 * n;
                    let mut t = Tuple::with_capacity(n);
                    let mut it = stack.drain(base..);
                    while let (Some(name), Some(value)) = (it.next(), it.next()) {
                        match name {
                            Value::Str(s) => t.insert(s, value),
                            // Absent names skip the pair in permissive mode.
                            Value::Missing | Value::Null => {
                                self.missing_or(|| {
                                    EvalError::Type("tuple attribute name is absent".to_string())
                                })?;
                            }
                            other => {
                                self.type_err(|| {
                                    format!(
                                        "tuple attribute name must be a string, found {}",
                                        other.kind().name()
                                    )
                                })?;
                            }
                        }
                    }
                    drop(it);
                    stack.push(Value::Tuple(t));
                }
                Instr::NamedTupleCtor { first, n } => {
                    let base = stack.len() - n;
                    let mut t = Tuple::with_capacity(n);
                    for (name, value) in
                        prog.names[first..first + n].iter().zip(stack.drain(base..))
                    {
                        t.insert(name.clone(), value);
                    }
                    stack.push(Value::Tuple(t));
                }
                Instr::ArrayCtor(n) => {
                    let base = stack.len() - n;
                    let items = stack.drain(base..).filter(|v| !v.is_missing()).collect();
                    stack.push(Value::Array(items));
                }
                Instr::BagCtor(n) => {
                    let base = stack.len() - n;
                    let items = stack.drain(base..).filter(|v| !v.is_missing()).collect();
                    stack.push(Value::Bag(items));
                }
                Instr::Subquery { plan, coercion } => {
                    stack.push(self.subquery(plan, coercion, env)?)
                }
                // One pulled element decides (a PIVOT's is its tuple).
                Instr::Exists(plan) => {
                    let first = next_one(&mut self.subquery_stream(plan, env))?;
                    stack.push(Value::Bool(first.is_some()));
                }
                Instr::CollAgg { func, distinct } => {
                    let v = stack.pop().expect("stack");
                    stack.push(self.coll_agg(func, distinct, v)?);
                }
                Instr::CollAggStream { func, plan } => {
                    let mut acc = agg::Accumulator::new(func);
                    let elements = self.subquery_stream(plan, env);
                    drain_batched(elements, self.batch_size(), |v| {
                        acc.push(&v);
                        Ok(())
                    })?;
                    stack.push(acc.finish().or_else(|e| self.agg_err(e))?);
                }
            }
            pc += 1;
        }
        Ok(())
    }

    /// The error for reading `name` where `env` binds nothing to it —
    /// unless `name` is a fold variable whose aggregate failed in this
    /// group: [`Self::group`] parks that error beside it, and reading the
    /// variable raises it, exactly when the paper-literal plan would have
    /// computed (and failed) the aggregate.
    fn unbound(&self, name: &str, env: &Env) -> EvalError {
        env.get(&parked_error_var(name))
            .and_then(EvalError::from_value)
            .unwrap_or_else(|| EvalError::UnknownName(name.to_string()))
    }

    /// Reads a leaf operand in place: a reference into the row (`root`),
    /// the environment, the parameters or the plan, never a clone. Its
    /// errors are the ones evaluating it onto the stack raises: an unbound
    /// name, an unsupplied parameter, a strict navigation error.
    fn operand<'r>(
        &'r self,
        leaf: Operand<'a>,
        root: Option<&'r Value>,
        env: &'r Env,
    ) -> Result<&'r Value, EvalError> {
        match leaf {
            Operand::Const(v) => Ok(v),
            Operand::Param(i) => self.params.get(i).ok_or(EvalError::MissingParam(i)),
            Operand::Var(path) => self.path(path, None, env),
            Operand::Root(path) => match root {
                Some(row) => self.path(path, Some(row), env),
                None => Err(EvalError::Type(
                    "root operand outside the fused spine".into(),
                )),
            },
        }
    }

    /// A path operand read in place: its variable's binding in `env` — or
    /// `root`, when given — then each attribute step, in order.
    fn path<'r>(
        &'r self,
        path: &'a CoreExpr,
        root: Option<&'r Value>,
        env: &'r Env,
    ) -> Result<&'r Value, EvalError> {
        match (path, root) {
            (CoreExpr::Path(base, attr), _) => self.step(self.path(base, root, env)?, attr),
            (CoreExpr::Var(_), Some(row)) => Ok(row),
            (CoreExpr::Var(name), None) => env.get(name).ok_or_else(|| self.unbound(name, env)),
            _ => unreachable!("not a path operand"),
        }
    }

    /// An instruction's operands and the stack depth its stacked ones
    /// start at: those by reference into the top of `stack`, in order,
    /// then the leaves read in place, left to right. The arm truncates
    /// the stack to that depth before it pushes its result.
    #[inline(always)]
    fn args<'r, const N: usize>(
        &'r self,
        args: [Arg<'a>; N],
        stack: &'r [Value],
        root: Option<&'r Value>,
        env: &'r Env,
    ) -> Result<(usize, [&'r Value; N]), EvalError> {
        let base = stack.len() - args.iter().filter(|a| a.is_none()).count();
        let mut stacked = stack[base..].iter();
        let mut out = [MISSING; N];
        for (slot, arg) in out.iter_mut().zip(args) {
            *slot = match arg {
                None => stacked.next().expect("stack"),
                Some(leaf) => self.operand(leaf, root, env)?,
            };
        }
        Ok((base, out))
    }

    /// `base.attr` by reference (§IV-B case 1: absent attributes and
    /// absent bases yield MISSING/NULL; any other base is a type error).
    fn step<'r>(&self, base: &'r Value, attr: &str) -> Result<&'r Value, EvalError> {
        match base {
            Value::Tuple(t) => Ok(t.get(attr).unwrap_or(MISSING)),
            Value::Null => Ok(NULL),
            Value::Missing => Ok(MISSING),
            other => self
                .type_err(|| {
                    format!(
                        "cannot navigate attribute {attr:?} of a {}",
                        other.kind().name()
                    )
                })
                .map(|_| MISSING),
        }
    }

    /// Runs a nested plan with the current environment as its outer scope
    /// (correlated subqueries).
    fn run_in(&self, q: &'a CoreQuery, env: &Env) -> Result<Value, EvalError> {
        if let Some(st) = &self.stats {
            st.count(|s| s.subquery_invocations += 1);
        }
        self.value_op(&q.op, env)
    }

    /// A nested plan's elements as a stream, counted as one invocation —
    /// the entry `EXISTS`, `IN`, the scalar probe and `COLL_*` share.
    fn subquery_stream<'s>(&'s self, q: &'a CoreQuery, env: &Env) -> ValueStream<'s> {
        if let Some(st) = &self.stats {
            st.count(|s| s.subquery_invocations += 1);
        }
        self.element_stream(&q.op, env)
    }

    /// A subquery in expression position, adapted per its [`Coercion`].
    fn subquery(
        &self,
        plan: &'a CoreQuery,
        coercion: Coercion,
        env: &Env,
    ) -> Result<Value, EvalError> {
        if coercion != Coercion::Scalar || !produces_elements(&plan.op) {
            let v = self.run_in(plan, env)?;
            return self.coerce_subquery(v, coercion);
        }
        // Streaming scalar coercion: at most two pulled elements decide
        // the 0 / 1 / many-rows cases.
        let mut stream = self.subquery_stream(plan, env);
        let Some(first) = next_one(&mut stream)? else {
            return Ok(Value::Null);
        };
        match next_one(&mut stream)? {
            None => self.single_attr(&first),
            Some(_) => self.missing_or(|| {
                EvalError::Cardinality("scalar subquery produced more than one row".to_string())
            }),
        }
    }

    /// IN over an element-producing SQL subquery (needle already known to
    /// be non-MISSING): streams the rows one at a time and stops at the
    /// first TRUE.
    fn in_subquery(
        &self,
        needle: &Value,
        plan: &'a CoreQuery,
        env: &Env,
    ) -> Result<Value, EvalError> {
        if needle.is_null() {
            return Ok(Value::Null);
        }
        let mut stream = self.subquery_stream(plan, env);
        let mut saw_absent = false;
        while let Some(row) = next_one(&mut stream)? {
            match sql_eq(needle, &self.single_attr(&row)?) {
                Value::Bool(true) => return Ok(Value::Bool(true)),
                Value::Bool(false) => {}
                _ => saw_absent = true,
            }
        }
        Ok(if saw_absent {
            Value::Null
        } else {
            Value::Bool(false)
        })
    }

    /// Catalog resolution with longest-prefix matching and, on a miss, the
    /// dynamic-disambiguation fallback (a unique attribute of exactly one
    /// in-scope tuple binding).
    fn resolve_global(&self, segments: &[String], env: &Env) -> Result<Value, EvalError> {
        self.govern.fault_at(FaultSite::CatalogRead)?;
        if let Some((value, used)) = self.catalog.resolve_prefix(segments) {
            let mut v = (*value).clone();
            for attr in &segments[used..] {
                v = v.path(attr);
            }
            return Ok(v);
        }
        // CTE/variable names that look dotted never reach here (the
        // planner resolved in-scope heads); but a head can still be bound
        // dynamically or be an attribute of exactly one visible tuple —
        // a set operation's element under its ORDER BY among them.
        if let Some(v) = env.get(&segments[0]) {
            let mut v = v.clone();
            for attr in &segments[1..] {
                v = v.path(attr);
            }
            return Ok(v);
        }
        let head = &segments[0];
        let mut candidates = Vec::new();
        for (name, value) in env.visible_bindings() {
            if name.starts_with('$') && name != SET_OP_ELEMENT {
                continue;
            }
            if let Value::Tuple(t) = value {
                if t.contains(head) {
                    candidates.push(value);
                }
            }
        }
        if candidates.len() == 1 {
            let mut v = candidates[0].clone();
            for attr in segments {
                v = v.path(attr);
            }
            return Ok(v);
        }
        Err(EvalError::UnknownName(segments.join(".")))
    }

    fn lift_num(&self, r: Result<Value, NumError>) -> Result<Value, EvalError> {
        match r {
            Ok(v) => Ok(v),
            Err(NumError::NotANumber(kind)) => {
                self.type_err(|| format!("expected a number, found {kind}"))
            }
            Err(NumError::Overflow) => {
                self.missing_or(|| EvalError::Arithmetic("numeric overflow".to_string()))
            }
            Err(NumError::DivisionByZero) => {
                self.missing_or(|| EvalError::Arithmetic("division by zero".to_string()))
            }
        }
    }

    /// Every binary operator except AND/OR (those short-circuit in the
    /// VM: `ShortCircuit`/`Logic`).
    fn binop_values(&self, op: BinOp, lv: &Value, rv: &Value) -> Result<Value, EvalError> {
        match op {
            BinOp::Eq => Ok(sql_eq(lv, rv)),
            BinOp::NotEq => Ok(logical_not(&sql_eq(lv, rv))),
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => self.compare_values(op, lv, rv),
            BinOp::Add => self.arith(NumOp::Add, lv, rv),
            BinOp::Sub => self.arith(NumOp::Sub, lv, rv),
            BinOp::Mul => self.arith(NumOp::Mul, lv, rv),
            BinOp::Div => self.arith(NumOp::Div, lv, rv),
            BinOp::Mod => self.arith(NumOp::Rem, lv, rv),
            BinOp::Concat => {
                if lv.is_missing() || rv.is_missing() {
                    return Ok(Value::Missing);
                }
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                match (&lv, &rv) {
                    (Value::Str(a), Value::Str(b)) => {
                        let mut s = String::with_capacity(a.len() + b.len());
                        s.push_str(a);
                        s.push_str(b);
                        Ok(Value::Str(s))
                    }
                    _ => self.type_err(|| {
                        format!(
                            "|| requires strings, found {} and {}",
                            lv.kind().name(),
                            rv.kind().name()
                        )
                    }),
                }
            }
            BinOp::And | BinOp::Or => unreachable!("compiled to ShortCircuit/Logic"),
        }
    }

    fn arith(&self, op: NumOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
        if l.is_missing() || r.is_missing() {
            return Ok(Value::Missing);
        }
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        self.lift_num(num_binop(op, l, r))
    }

    fn compare_values(&self, op: BinOp, lv: &Value, rv: &Value) -> Result<Value, EvalError> {
        match sql_compare(lv, rv) {
            Err(absent) => Ok(absent),
            Ok(Some(ord)) => Ok(Value::Bool(match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::LtEq => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::GtEq => ord.is_ge(),
                _ => unreachable!(),
            })),
            Ok(None) => self.type_err(|| {
                format!(
                    "cannot compare {} with {}",
                    lv.kind().name(),
                    rv.kind().name()
                )
            }),
        }
    }

    /// Converts to 3VL: Some(bool), or None for absent. `u8` encodes
    /// MISSING=0 / NULL=1 to preserve the distinction through AND/OR.
    fn to_logical(&self, v: &Value) -> Result<Logical, EvalError> {
        match v {
            Value::Bool(b) => Ok(Logical::Bool(*b)),
            Value::Missing => Ok(Logical::Missing),
            Value::Null => Ok(Logical::Null),
            other => self
                .type_err(|| {
                    format!(
                        "logical operator requires a boolean, found {}",
                        other.kind().name()
                    )
                })
                .map(|_| Logical::Missing),
        }
    }

    /// LIKE over evaluated operands.
    fn like_values(
        &self,
        text: &Value,
        pat: &Value,
        esc: Option<&Value>,
        negated: bool,
    ) -> Result<Value, EvalError> {
        for v in [Some(text), Some(pat), esc].into_iter().flatten() {
            if v.is_missing() {
                return Ok(Value::Missing);
            }
            if v.is_null() {
                return Ok(Value::Null);
            }
        }
        let (text, pat) = match (&text, &pat) {
            (Value::Str(t), Value::Str(p)) => (t, p),
            _ => {
                return self.type_err(|| {
                    format!(
                        "LIKE requires strings, found {} and {}",
                        text.kind().name(),
                        pat.kind().name()
                    )
                });
            }
        };
        let esc_char = match &esc {
            None => None,
            Some(Value::Str(s)) => {
                let mut chars = s.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Some(c),
                    _ => {
                        return self.type_err(|| "ESCAPE must be a single character".to_string());
                    }
                }
            }
            Some(other) => {
                return self.type_err(|| {
                    format!("ESCAPE must be a string, found {}", other.kind().name())
                });
            }
        };
        match like_match(text, pat, esc_char) {
            Ok(m) => Ok(Value::Bool(m != negated)),
            Err(_) => self.type_err(|| "malformed LIKE pattern".to_string()),
        }
    }

    /// SQL IN membership under 3VL (needle already known to be
    /// non-MISSING): TRUE if any element equals, else NULL if any
    /// comparison was absent, else FALSE.
    fn in_values(&self, needle: &Value, hay: &Value) -> Result<Value, EvalError> {
        if hay.is_missing() {
            return Ok(Value::Missing);
        }
        if hay.is_null() {
            return Ok(Value::Null);
        }
        let items = match hay.as_elements() {
            Some(items) => items,
            None => {
                return self
                    .type_err(|| format!("IN requires a collection, found {}", hay.kind().name()));
            }
        };
        if needle.is_null() {
            return Ok(Value::Null);
        }
        let mut saw_absent = false;
        for item in items {
            match sql_eq(needle, item) {
                Value::Bool(true) => return Ok(Value::Bool(true)),
                Value::Bool(false) => {}
                _ => saw_absent = true,
            }
        }
        Ok(if saw_absent {
            Value::Null
        } else {
            Value::Bool(false)
        })
    }

    /// `COLL_*` over an evaluated collection value. `DISTINCT` goes
    /// through the DISTINCT table ([`dedupe`]), which keeps first
    /// occurrences, so MIN/MAX ties resolve as without it.
    fn coll_agg(&self, func: AggFunc, distinct: bool, v: Value) -> Result<Value, EvalError> {
        let items = match v {
            Value::Null | Value::Missing => return Ok(v),
            Value::Bag(items) | Value::Array(items) => items,
            other => {
                return self.type_err(|| {
                    format!(
                        "{} requires a collection, found {}",
                        func.coll_name(),
                        other.kind().name()
                    )
                })
            }
        };
        let items = if distinct {
            dedupe(items, self.stats.as_ref())
        } else {
            items
        };
        agg::apply(func, &items).or_else(|e| self.agg_err(e))
    }

    fn agg_err(&self, e: agg::AggError) -> Result<Value, EvalError> {
        match e {
            agg::AggError::BadElement { func, kind } => self.type_err(|| {
                format!(
                    "{} over a non-aggregatable {} element",
                    func.coll_name(),
                    kind
                )
            }),
            agg::AggError::Arithmetic(m) => self.missing_or(|| EvalError::Arithmetic(m)),
            agg::AggError::Raised(e) => Err(e),
        }
    }

    /// SQL subquery coercion (§V-A), applied only in SQL-compat mode by
    /// the planner's choice of [`Coercion`].
    fn coerce_subquery(&self, v: Value, coercion: Coercion) -> Result<Value, EvalError> {
        match coercion {
            // A scalar subquery only gets here as a PIVOT — already a
            // value; element-producing ones take `subquery`'s probe.
            Coercion::Bag | Coercion::Scalar => Ok(v),
            Coercion::Collection => {
                let items = match v.into_elements() {
                    Some(items) => items,
                    None => {
                        return self
                            .type_err(|| "IN subquery did not produce a collection".to_string());
                    }
                };
                let mut out = Vec::with_capacity(items.len());
                for item in &items {
                    out.push(self.single_attr(item)?);
                }
                Ok(Value::Bag(out))
            }
        }
    }

    fn single_attr(&self, row: &Value) -> Result<Value, EvalError> {
        match row {
            Value::Tuple(t) if t.len() == 1 => Ok(t.iter().next().expect("len 1").1.clone()),
            other => self.missing_or(|| {
                EvalError::Cardinality(format!(
                    "SQL subquery row must have exactly one attribute, found {other}"
                ))
            }),
        }
    }
}

// =====================================================================
// Helpers
// =====================================================================

/// The absent values a read in place can yield without a source to
/// borrow from.
const MISSING: &Value = &Value::Missing;
const NULL: &Value = &Value::Null;

/// 3VL with two absent values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Logical {
    Bool(bool),
    Null,
    Missing,
}

/// Direct int arithmetic/comparison for the VM's `Bin` dispatch.
/// `None` (overflow, division, concat, logic) defers to the general
/// numeric tower so its promotion and error semantics stay canonical.
#[inline]
fn int_fast_binop(op: BinOp, a: i64, b: i64) -> Option<Value> {
    match op {
        BinOp::Add => a.checked_add(b).map(Value::Int),
        BinOp::Sub => a.checked_sub(b).map(Value::Int),
        BinOp::Mul => a.checked_mul(b).map(Value::Int),
        BinOp::Eq => Some(Value::Bool(a == b)),
        BinOp::NotEq => Some(Value::Bool(a != b)),
        BinOp::Lt => Some(Value::Bool(a < b)),
        BinOp::LtEq => Some(Value::Bool(a <= b)),
        BinOp::Gt => Some(Value::Bool(a > b)),
        BinOp::GtEq => Some(Value::Bool(a >= b)),
        _ => None,
    }
}

fn and3(a: Logical, b: Logical) -> Value {
    use Logical::*;
    match (a, b) {
        (Bool(false), _) | (_, Bool(false)) => Value::Bool(false),
        (Bool(true), Bool(true)) => Value::Bool(true),
        // An absent operand dominates TRUE; MISSING beats NULL (pure
        // propagation, §IV-B case 3).
        (Missing, _) | (_, Missing) => Value::Missing,
        _ => Value::Null,
    }
}

fn or3(a: Logical, b: Logical) -> Value {
    use Logical::*;
    match (a, b) {
        (Bool(true), _) | (_, Bool(true)) => Value::Bool(true),
        (Bool(false), Bool(false)) => Value::Bool(false),
        (Missing, _) | (_, Missing) => Value::Missing,
        _ => Value::Null,
    }
}

fn logical_and(a: &Value, b: &Value) -> Value {
    let to = |v: &Value| match v {
        Value::Bool(b) => Logical::Bool(*b),
        Value::Null => Logical::Null,
        _ => Logical::Missing,
    };
    and3(to(a), to(b))
}

fn logical_not(v: &Value) -> Value {
    match v {
        Value::Bool(b) => Value::Bool(!b),
        other => other.clone(),
    }
}

/// `NOT v` under 3VL when `negated` (absent values pass through), else `v`.
fn negate_if(negated: bool, v: Value) -> Value {
    if negated {
        logical_not(&v)
    } else {
        v
    }
}

fn type_test(v: &Value, name: &str) -> bool {
    match name {
        "ARRAY" | "LIST" => matches!(v, Value::Array(_)),
        "BAG" => matches!(v, Value::Bag(_)),
        "TUPLE" | "STRUCT" | "OBJECT" => matches!(v, Value::Tuple(_)),
        "STRING" | "VARCHAR" | "TEXT" => matches!(v, Value::Str(_)),
        "NUMBER" | "NUMERIC" => v.is_number(),
        "INT" | "INTEGER" | "BIGINT" => matches!(v, Value::Int(_)),
        "FLOAT" | "DOUBLE" => matches!(v, Value::Float(_)),
        "DECIMAL" => matches!(v, Value::Decimal(_)),
        "BOOLEAN" | "BOOL" => matches!(v, Value::Bool(_)),
        "COLLECTION" => v.is_collection(),
        "SCALAR" => v.is_scalar(),
        _ => false,
    }
}

/// Structural dedup preserving first occurrences (DISTINCT). Hashes each
/// item *by reference* with [`hash_value`] — the same stream a
/// single-element `GroupKey` would feed its hasher, minus the deep clone —
/// then confirms candidates with `deep_eq` (hash_value is deep_eq-
/// consistent, see the `hash_is_consistent_with_deep_eq` property).
fn dedupe(items: Vec<Value>, stats: Option<&StatsCollector>) -> Vec<Value> {
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut out: Vec<Value> = Vec::with_capacity(items.len());
    for item in items {
        let key = structural_hash(&item);
        let bucket = seen.entry(key).or_default();
        let mut dup = false;
        for &i in bucket.iter() {
            if let Some(st) = stats {
                st.count(|s| s.dedupe_probes += 1);
            }
            if deep_eq(&out[i], &item) {
                dup = true;
                break;
            }
        }
        if !dup {
            bucket.push(out.len());
            out.push(item);
        }
    }
    out
}

/// 64-bit structural hash of a value, consistent with `deep_eq`.
fn structural_hash(v: &Value) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;
    let mut h = DefaultHasher::new();
    hash_value(v, &mut h);
    h.finish()
}

/// 64-bit structural hash of a key tuple — the same scheme `dedupe` and
/// set operations use, extended over the sequence.
fn joint_hash(keys: &[Value]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;
    let mut h = DefaultHasher::new();
    for k in keys {
        hash_value(k, &mut h);
    }
    h.finish()
}

/// What a [`FusedScan`] on the slice runs: its scan, its row variable,
/// its root-specialized predicates and outputs, and the plan operators it
/// runs for.
struct SpineParts<'a> {
    scan: &'a CoreExpr,
    as_var: &'a str,
    preds: Vec<Rc<Program<'a>>>,
    outs: Vec<Rc<Program<'a>>>,
    /// The operator the rows feed.
    consumer: &'a CoreOp,
    /// The `Filter* → From` input the spine stands in for, one `Filter`
    /// per predicate. `None` for a FROM item's bare scan inside the
    /// consumer `From` (a correlate's left, a join's probe side), which
    /// stands in for no operator: the consumer's own stream counts it.
    input: Option<&'a CoreOp>,
}

/// A spine's per-operator stats: the `From` and `Filter`s it stands in
/// for are credited what their instrumented streams would have counted —
/// the rows each lets through, per pull, with the pull's time inclusive —
/// and record one call each when the scan is dropped. Counting happens
/// per pull and on a predicate's reject branch, never per program run.
struct SpineStats<'s> {
    /// The `From`, then each `Filter`, scan-side first.
    ops: Vec<Instrumented<'s, ()>>,
    /// Rows each predicate rejected (or failed on) in the current pull.
    rejected: Vec<u64>,
}

impl<'s> SpineStats<'s> {
    /// Labels the consumer of `parts` and the operators it stands in
    /// for fused, and makes the stats of the latter — `None` when it
    /// stands in for none.
    fn new(st: &'s StatsCollector, parts: &SpineParts<'_>) -> Option<Self> {
        st.op(st.key_for(parts.consumer), |o| o.fused = true);
        let mut ops = Vec::new();
        let mut op = parts.input?;
        loop {
            st.op(st.key_for(op), |o| o.fused = true);
            // The `From`'s rows are bindings, bound or borrowed.
            let is_from = matches!(op, CoreOp::From { .. });
            ops.push(Instrumented::new((), st, op, is_from, Instant::now()));
            match op {
                CoreOp::Filter { input, .. } => op = input,
                _ => break,
            }
        }
        // Peeled outermost-first; the `From` leads.
        ops.reverse();
        Some(SpineStats {
            ops,
            rejected: vec![0; parts.preds.len()],
        })
    }

    /// Credits one pull that scanned `scanned` rows in `ns`: the `From`
    /// lets through every scanned row, each `Filter` what its input let
    /// through less what its predicate rejected.
    fn pulled(&mut self, scanned: u64, ns: u64) {
        let mut passed = scanned;
        for (i, op) in self.ops.iter_mut().enumerate() {
            if let Some(pred) = i.checked_sub(1) {
                passed -= std::mem::take(&mut self.rejected[pred]);
            }
            op.credit(passed, ns);
        }
    }
}

/// The one row loop, under every consumer — a projection, a DISTINCT, a
/// PIVOT, a sort and a top-k in binding form, a GROUP BY, a standalone
/// WHERE, a correlate's left filter, a hash join's probe and build sides,
/// a DELETE or UPDATE ([`Evaluator::for_each_match`]) — and the one FROM
/// scan ([`Evaluator::open_scan`]). Each pull
/// runs the predicates, then the output programs, on one row after
/// another, and stops once `max` rows are out, so a LIMIT, EXISTS or IN
/// above it stops its input. A row that passes yields one item per
/// output program.
///
/// Rows come from one of two sources ([`RowSource`]). On the *slice* — a
/// bare `Filter* → Scan` input with no AT variable and root-safe
/// programs, at a batch size above 1 — each element is read borrowed by
/// root-specialized programs: no per-row `Env` or adapter dispatch. Any
/// other input is read off its *binding stream*, the programs running
/// unspecialized against each row's environment, never asking the
/// stream for more rows than the loop's caller asked for. Batch 1 reads
/// every input off the binding stream: the reference configuration.
///
/// As a `Stream<T>` it hands on the items. Through [`FusedRows`] a
/// consumer gets each row ([`Row`]) too and decides on its items whether
/// to bind it ([`FusedScan::bind`]) — late materialization on the slice.
/// As a `Stream<Env>` it binds every row that passes; an owned source's
/// elements are moved into their bindings, not cloned.
struct FusedScan<'s, 'a> {
    ev: &'s Evaluator<'a>,
    source: RowSource<'s>,
    /// The next slice element to scan.
    idx: usize,
    /// The slice's row variable; a binding stream's rows have none.
    as_var: Option<Rc<str>>,
    /// Bound to each row's position — an array index, else MISSING — by
    /// the binding form. The slice's consumers never have one.
    at_var: Option<Rc<str>>,
    /// Strict typing with an AT variable over a bag: the first pull of a
    /// row raises.
    bag_at_error: bool,
    preds: Vec<Rc<Program<'a>>>,
    /// The predicates are a correlate's left filter, judged by
    /// [`left_verdict`]. Otherwise a row passes only when every predicate
    /// is TRUE, and a predicate's error fails the loop.
    left_filter: bool,
    outs: Vec<Rc<Program<'a>>>,
    /// The first output whose data errors are parked, not raised.
    park_from: usize,
    /// The outputs are a hash join's keys: an absent one rejects the row
    /// — NULL and MISSING never compare equal — and the keys after it
    /// are not evaluated.
    join_keys: bool,
    /// A row the predicates or join keys reject is handed on too,
    /// flagged, with no items: a LEFT join pads it, and a DML statement
    /// counts it.
    pads: bool,
    /// The slice's environment: each element is bound into it.
    env: Env,
    /// The slice's per-operator stats, under stats collection.
    observed: Option<SpineStats<'s>>,
    /// The rows the last pull handed on, in order, each with whether it
    /// passed.
    kept: Vec<(Row, bool)>,
}

/// Where a [`FusedScan`]'s rows come from: the slice of a scan (see
/// [`Evaluator::open_scan`]), its elements read borrowed by position, or
/// a binding stream.
enum RowSource<'s> {
    /// A stored catalog collection, borrowed via its `Arc` snapshot.
    Shared(Arc<Value>),
    /// A computed value owned by this scan.
    Owned(Value),
    /// Any other input's bindings. `buf` holds the rows of the last pull
    /// not yet judged, the next one last; `pulled` is that pull's
    /// outcome, surfaced once the rows before it are handed on.
    Bound {
        input: BindingStream<'s>,
        buf: Vec<Env>,
        pulled: Result<(), EvalError>,
    },
}

impl RowSource<'_> {
    /// The scanned value; `None` for a binding stream.
    fn value(&self) -> Option<&Value> {
        match self {
            RowSource::Shared(arc) => Some(arc),
            RowSource::Owned(v) => Some(v),
            RowSource::Bound { .. } => None,
        }
    }

    /// The slice's elements (see [`elements`]); a binding stream has
    /// none.
    fn items(&self) -> &[Value] {
        self.value().map_or(&[], elements)
    }

    /// The element at `pos`, cloned from a shared source and moved out
    /// of an owned one — the binding form, its one reader, binds each
    /// position once.
    fn take(&mut self, pos: usize) -> Value {
        match self {
            RowSource::Owned(Value::Bag(items) | Value::Array(items)) => {
                std::mem::take(&mut items[pos])
            }
            RowSource::Owned(single) => std::mem::take(single),
            _ => self.items()[pos].clone(),
        }
    }
}

/// The elements of a set operation under its ORDER BY, each bound to
/// `var` in `env`.
struct ElementRows<'s> {
    elements: ValueStream<'s>,
    var: Rc<str>,
    env: Env,
    buf: Vec<Value>,
}

impl Stream<Env> for ElementRows<'_> {
    fn next_batch(&mut self, out: &mut Vec<Env>, max: usize) -> Result<(), EvalError> {
        let pulled = self.elements.next_batch(&mut self.buf, max);
        out.extend((self.buf.drain(..)).map(|v| self.env.bind(self.var.clone(), v)));
        pulled
    }
}

/// A scanned value's elements: a non-collection value is a (permissive)
/// singleton.
fn elements(v: &Value) -> &[Value] {
    match v {
        Value::Bag(items) | Value::Array(items) => items,
        single => std::slice::from_ref(single),
    }
}

/// [`env_bytes`] of `env` with `as_var` bound to `item`, without binding
/// it.
fn slice_row_bytes(env: &Env, as_var: &str, item: &Value) -> u64 {
    let shadowed: u64 = (env.visible_bindings().iter())
        .filter(|(n, _)| *n == as_var)
        .map(|(n, v)| binding_bytes(n, v))
        .sum();
    env_bytes(env) - shadowed + binding_bytes(as_var, item)
}

/// One row a [`FusedScan`] handed on.
enum Row {
    /// A slice element, by its position.
    At(usize),
    /// A binding-stream row.
    Bound(Env),
}

/// The empty binding: what a row buffer holds before it is filled.
impl Default for Row {
    fn default() -> Self {
        Row::Bound(Env::new())
    }
}

/// A correlate's left-filter verdict on one left row
/// ([`CoreFrom::Correlate`]'s `left_pred`): whether the row passes. Only
/// FALSE rejects it. A data error is parked — the row passes, and the
/// WHERE above, which still holds the conjunct, raises it at the row's
/// first right binding or never; any other error fails the scan.
fn left_verdict(r: Result<Value, EvalError>) -> Result<bool, EvalError> {
    match r {
        Ok(Value::Bool(false)) => Ok(false),
        Err(e) if !e.is_data_error() => Err(e),
        _ => Ok(true),
    }
}

/// An item of a [`FusedScan`]: what one output program's result becomes.
trait FusedOut: Sized {
    /// `r` as an item; `parks` asks to keep a data error as the item
    /// rather than fail the scan, which only an item that can hold an
    /// error does.
    fn lift(r: Result<Value, EvalError>, parks: bool) -> Result<Self, EvalError>;
}

impl FusedOut for Value {
    fn lift(r: Result<Value, EvalError>, _parks: bool) -> Result<Self, EvalError> {
        r
    }
}

impl FusedOut for Result<Value, EvalError> {
    fn lift(r: Result<Value, EvalError>, parks: bool) -> Result<Self, EvalError> {
        match r {
            Err(e) if parks && e.is_data_error() => Ok(Err(e)),
            r => r.map(Ok),
        }
    }
}

impl<'s, 'a> FusedScan<'s, 'a> {
    /// A loop over `source` that runs no program: every row passes.
    fn new(ev: &'s Evaluator<'a>, source: RowSource<'s>, env: Env) -> Self {
        FusedScan {
            ev,
            source,
            idx: 0,
            as_var: None,
            at_var: None,
            bag_at_error: false,
            preds: Vec::new(),
            left_filter: false,
            outs: Vec::new(),
            park_from: usize::MAX,
            join_keys: false,
            pads: false,
            env,
            observed: None,
            kept: Vec::new(),
        }
    }

    /// `row` bound — on the slice, the element cloned and bound: where a
    /// positional consumer pays for a row it keeps (a hash join's build
    /// rows are read back through [`BuildRows`] instead, once the scan is
    /// gone).
    fn bind(&self, row: &Row) -> Env {
        match row {
            Row::At(pos) => (self.env).bind(self.row_var(), self.source.items()[*pos].clone()),
            Row::Bound(env) => env.clone(),
        }
    }

    /// [`env_bytes`] of [`Self::bind`]`(row)`, without binding it.
    fn bound_bytes(&self, row: &Row) -> u64 {
        match row {
            Row::At(pos) => slice_row_bytes(&self.env, &self.row_var(), &self.source.items()[*pos]),
            Row::Bound(env) => env_bytes(env),
        }
    }

    /// The slice's row variable, which a position row is bound to.
    fn row_var(&self) -> Rc<str> {
        self.as_var.clone().expect("a slice has its row variable")
    }

    /// The same rows with no program to run: every row passes, unjudged.
    fn unjudged(self) -> Self {
        FusedScan {
            preds: Vec::new(),
            outs: Vec::new(),
            ..self
        }
    }

    /// Fills `out` with the items of up to `max` rows and, with `KEEP`,
    /// `kept` with the rows, on the evaluator's value stack (a program
    /// that re-enters the VM takes a fresh one from the `Cell`), and
    /// counts the slice rows scanned.
    fn pull<T: FusedOut, const KEEP: bool>(
        &mut self,
        out: &mut Vec<T>,
        max: usize,
    ) -> Result<usize, EvalError> {
        self.kept.clear();
        let start = self.idx;
        let timer = self.observed.is_some().then(Instant::now);
        let mut stack = self.ev.vm_stack.take();
        stack.clear();
        let result = match self.ev.govern.injects_faults() {
            false => self.fill::<T, false, KEEP>(out, max, &mut stack),
            true => self.fill::<T, true, KEEP>(out, max, &mut stack),
        };
        stack.clear();
        self.ev.vm_stack.set(stack);
        let scanned = (self.idx - start) as u64;
        if let Some(st) = &self.ev.stats {
            st.count(|s| s.rows_scanned += scanned);
        }
        if let (Some(observed), Some(t)) = (&mut self.observed, timer) {
            observed.pulled(scanned, t.elapsed().as_nanos() as u64);
        }
        result
    }

    /// The row loop: the number of rows handed on (with `KEEP`, each is
    /// kept too). With `FAULTS`, every program run is an operator fault
    /// site, as every [`Evaluator::expr`] call is.
    fn fill<T: FusedOut, const FAULTS: bool, const KEEP: bool>(
        &mut self,
        out: &mut Vec<T>,
        max: usize,
        stack: &mut Vec<Value>,
    ) -> Result<usize, EvalError> {
        let watcher = self.ev.govern.as_watcher();
        let (items, mut bound) = match &mut self.source {
            RowSource::Bound { input, buf, pulled } => (&[][..], Some((input, buf, pulled))),
            source => (RowSource::items(source), None),
        };
        if KEEP {
            // Grow each buffer once: a pull keeps at most `max` rows, a
            // slice at most the rows it has left, and a binding stream at
            // most the rows its input pull brings (reserved there).
            let n = max.min(items.len() - self.idx);
            self.kept.reserve(n);
            out.reserve(n * self.outs.len());
        }
        let mut rows = 0;
        while rows < max {
            let (row, root) = match &mut bound {
                Some((input, buf, pulled)) => match buf.pop() {
                    Some(b) => (Row::Bound(b), None),
                    None => {
                        std::mem::replace(*pulled, Ok(()))?;
                        // One pull of the input per call, unless no row
                        // of it has passed yet.
                        if rows > 0 {
                            break;
                        }
                        // The input runs its own programs meanwhile.
                        self.ev.vm_stack.set(std::mem::take(stack));
                        **pulled = input.next_batch(buf, max);
                        *stack = self.ev.vm_stack.take();
                        if buf.is_empty() {
                            std::mem::replace(*pulled, Ok(()))?;
                            break;
                        }
                        if KEEP {
                            self.kept.reserve(buf.len());
                            out.reserve(buf.len() * self.outs.len());
                        }
                        buf.reverse();
                        continue;
                    }
                },
                None => {
                    let Some(item) = items.get(self.idx) else {
                        break;
                    };
                    // At least once per batch-worth of *scanned* rows,
                    // starting immediately: a huge source — or a filter
                    // that rejects most of it — cannot outrun the
                    // deadline.
                    if let Some(g) = watcher {
                        if self.idx.is_multiple_of(BATCH_TICK_ROWS) {
                            g.tick()?;
                        }
                    }
                    self.idx += 1;
                    (Row::At(self.idx - 1), Some(item))
                }
            };
            let env = match &row {
                Row::At(_) => &self.env,
                Row::Bound(b) => b,
            };
            let row_start = out.len();
            let passed = 'judge: {
                for (k, p) in self.preds.iter().enumerate() {
                    let run = self.ev.fault_site::<FAULTS>();
                    let r = match run.and_then(|()| self.ev.exec_program(p, root, env, stack)) {
                        Ok(()) => Ok(stack.pop().expect("bytecode program left no result")),
                        Err(e) => {
                            // Programs run on an empty stack, so the failed
                            // one's operands go with a clear. The failure
                            // rejects the row in the counts: only a left
                            // filter parks it, and that stands in for no
                            // operator.
                            stack.clear();
                            if let Some(observed) = &mut self.observed {
                                observed.rejected[k] += 1;
                            }
                            Err(e)
                        }
                    };
                    let passes = if self.left_filter {
                        left_verdict(r)?
                    } else {
                        matches!(r?, Value::Bool(true))
                    };
                    if !passes {
                        if let Some(observed) = &mut self.observed {
                            observed.rejected[k] += 1;
                        }
                        break 'judge false;
                    }
                }
                for (i, p) in self.outs.iter().enumerate() {
                    let base = stack.len();
                    let run = self.ev.fault_site::<FAULTS>();
                    let r = match run.and_then(|()| self.ev.exec_program(p, root, env, stack)) {
                        Ok(()) => Ok(stack.pop().expect("bytecode program left no result")),
                        Err(e) => {
                            // A parked error must not leave the failed
                            // program's operands behind for the next one.
                            stack.truncate(base);
                            Err(e)
                        }
                    };
                    if self.join_keys && matches!(&r, Ok(v) if v.is_absent()) {
                        out.truncate(row_start);
                        break 'judge false;
                    }
                    match T::lift(r, i >= self.park_from) {
                        Ok(item) => out.push(item),
                        Err(e) => {
                            out.truncate(row_start);
                            return Err(e);
                        }
                    }
                }
                true
            };
            if passed || self.pads {
                if KEEP {
                    self.kept.push((row, passed));
                }
                rows += 1;
            }
        }
        Ok(rows)
    }

    /// The binding form of `row`, which it binds once: on the slice, the
    /// element (see [`RowSource::take`]) and, with an AT variable, its
    /// position.
    fn bind_row(&mut self, row: Row) -> Env {
        let pos = match row {
            Row::At(pos) => pos,
            Row::Bound(env) => return env,
        };
        let ordered = matches!(self.source.value(), Some(Value::Array(_)));
        let bound = self.env.bind(self.row_var(), self.source.take(pos));
        match &self.at_var {
            Some(at) if ordered => bound.bind(at.clone(), Value::Int(pos as i64)),
            Some(at) => bound.bind(at.clone(), Value::Missing),
            None => bound,
        }
    }
}

impl<T: FusedOut> Stream<T> for FusedScan<'_, '_> {
    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<(), EvalError> {
        self.pull::<T, false>(out, max).map(drop)
    }
}

impl Stream<Env> for FusedScan<'_, '_> {
    fn next_batch(&mut self, out: &mut Vec<Env>, max: usize) -> Result<(), EvalError> {
        let len = self.source.items().len();
        if self.bag_at_error && max > 0 && self.idx < len {
            self.idx = len;
            if let Some(st) = &self.ev.stats {
                st.count(|s| s.rows_scanned += 1);
            }
            return Err(EvalError::Type(
                "AT position variable over an unordered bag".to_string(),
            ));
        }
        let pulled = self.pull::<Value, true>(&mut Vec::new(), max);
        let mut kept = std::mem::take(&mut self.kept);
        out.extend(kept.drain(..).map(|(row, _)| self.bind_row(row)));
        self.kept = kept;
        pulled.map(drop)
    }
}

/// A [`FusedScan`] read one row at a time: the handle of a consumer that
/// needs each row — to hold, bind ([`FusedScan::bind`]) or size
/// ([`FusedScan::bound_bytes`]) — with its items. It pulls `batch` rows
/// at a time; a pull's error surfaces after the rows before it.
struct FusedRows<'s, 'a, T> {
    scan: FusedScan<'s, 'a>,
    batch: usize,
    /// The next of the last pull's rows (`scan.kept`) to hand on.
    next: usize,
    /// The last pull's items not yet handed on, the next one last.
    items: Vec<T>,
    pulled: Result<(), EvalError>,
    done: bool,
}

impl<'s, 'a, T: FusedOut> FusedRows<'s, 'a, T> {
    fn new(scan: FusedScan<'s, 'a>, batch: usize) -> Self {
        FusedRows {
            scan,
            batch,
            next: 0,
            items: Vec::new(),
            pulled: Ok(()),
            done: false,
        }
    }

    /// The next row handed on, with whether it passed; a row that passed
    /// appends its items to `out`. `None` once the loop is exhausted.
    fn next_at(&mut self, out: &mut Vec<T>) -> Result<Option<(Row, bool)>, EvalError> {
        loop {
            if let Some(kept) = self.scan.kept.get_mut(self.next) {
                self.next += 1;
                let (row, passed) = std::mem::replace(kept, (Row::At(0), false));
                if passed {
                    let first = self.items.len() - self.scan.outs.len();
                    out.extend(self.items.drain(first..).rev());
                }
                return Ok(Some((row, passed)));
            }
            std::mem::replace(&mut self.pulled, Ok(()))?;
            if self.done {
                return Ok(None);
            }
            self.pulled = (self.scan.pull::<T, true>(&mut self.items, self.batch)).map(drop);
            self.items.reverse();
            self.next = 0;
            self.done = self.scan.kept.is_empty() || self.pulled.is_err();
        }
    }

    /// The rows of the last pull not yet handed on.
    fn pending(&self) -> usize {
        self.scan.kept.len() - self.next
    }
}

/// A group's running state for one [`GroupFold`]. Each record's
/// [`FoldItem`] folds into its group's state in place.
enum FoldState {
    /// The GROUP AS member bag, in input order.
    Members(Vec<Value>),
    /// A folded aggregate.
    Agg(agg::Accumulator),
}

/// What one record adds to one fold's state: a row's GROUP AS member or
/// aggregate input — a data error parked in it — or a spilled
/// partition's partial state.
enum FoldItem {
    Member(Value),
    Input(Result<Value, EvalError>),
    State(FoldState),
}

impl FoldItem {
    /// The GROUP AS members the item appends.
    fn members(&self) -> &[Value] {
        match self {
            FoldItem::Member(v) => std::slice::from_ref(v),
            FoldItem::State(FoldState::Members(elems)) => elems,
            _ => &[],
        }
    }
}

/// Estimated bytes of one aggregate state's fixed part; the values it
/// holds are sized on top.
const ACCUMULATOR_BYTES: u64 = 32;

impl FoldState {
    /// The state of a group with no rows.
    fn empty(fold: &GroupFold) -> FoldState {
        match fold {
            GroupFold::Members { .. } => FoldState::Members(Vec::new()),
            GroupFold::Agg { func, .. } => FoldState::Agg(agg::Accumulator::new(*func)),
        }
    }

    /// The state of a group `item` starts: a spilled state as it is,
    /// else the empty state with `item` folded in.
    fn start(fold: &GroupFold, item: FoldItem) -> FoldState {
        match item {
            FoldItem::State(state) => state,
            item => {
                let mut state = FoldState::empty(fold);
                state.fold(item);
                state
            }
        }
    }

    /// The live rows the state holds (members; an aggregate holds none).
    fn rows(&self) -> u64 {
        match self {
            FoldState::Members(elems) => elems.len() as u64,
            FoldState::Agg(_) => 0,
        }
    }

    /// Estimated bytes the state holds.
    fn bytes(&self) -> u64 {
        match self {
            FoldState::Members(elems) => elems.iter().map(approx_value_bytes).sum(),
            FoldState::Agg(acc) => {
                ACCUMULATOR_BYTES + acc.held_values().map(approx_value_bytes).sum::<u64>()
            }
        }
    }

    /// Folds in `item`, which comes after every row the state holds: a
    /// member appends, an input is pushed (a data error raised) — exactly
    /// what merging its one-row state would do (see
    /// [`agg::Accumulator::merge`]) — and a partial state merges.
    fn fold(&mut self, item: FoldItem) {
        match (self, item) {
            (FoldState::Members(elems), FoldItem::Member(v)) => elems.push(v),
            (FoldState::Agg(acc), FoldItem::Input(Ok(v))) => acc.push(&v),
            (FoldState::Agg(acc), FoldItem::Input(Err(e))) => acc.raise(e),
            (FoldState::Members(elems), FoldItem::State(FoldState::Members(mut more))) => {
                elems.append(&mut more)
            }
            (FoldState::Agg(acc), FoldItem::State(FoldState::Agg(more))) => acc.merge(more),
            _ => unreachable!("an item of the state's fold"),
        }
    }
}

/// A grouping key value, MISSING surfacing as NULL — grouping treats the
/// two absent values alike (PartiQL's `eqg`), which also realizes the
/// §IV-B compatibility guarantee for GROUP BY queries.
fn group_key(v: Value) -> Value {
    match v {
        Value::Missing => Value::Null,
        v => v,
    }
}

/// Where a group binding parks the error of a fold variable whose
/// aggregate failed (see [`Evaluator::unbound`]). No query can name it.
fn parked_error_var(var: &str) -> String {
    format!("{var}#error")
}

/// The last entry of a [`Chains`] chain.
const CHAIN_END: usize = usize::MAX;

/// A keyed table's hash index: its entries, numbered in insertion order,
/// chained by [`joint_hash`] — per hash its first and last entry, per
/// entry the next one with that hash. The entries' key values lie beside
/// it, flat, so a lookup borrows the probing keys and a chain yields its
/// candidates in insertion order.
#[derive(Default)]
struct Chains {
    ends: HashMap<u64, (usize, usize)>,
    next: Vec<usize>,
}

impl Chains {
    /// The number of entries.
    fn len(&self) -> usize {
        self.next.len()
    }

    /// Makes room for `n` more entries.
    fn reserve(&mut self, n: usize) {
        self.ends.reserve(n);
        self.next.reserve(n);
    }

    /// Appends an entry hashed `hash`.
    fn push(&mut self, hash: u64) {
        let entry = self.next.len();
        self.next.push(CHAIN_END);
        match self.ends.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let (_, tail) = o.get_mut();
                self.next[*tail] = entry;
                *tail = entry;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((entry, entry));
            }
        }
    }

    /// The entries hashed `hash`, in insertion order.
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.ends.get(&hash).map_or(CHAIN_END, |&(head, _)| head);
        std::iter::from_fn(move || {
            let entry = (at != CHAIN_END).then_some(at)?;
            at = self.next[entry];
            Some(entry)
        })
    }
}

/// Entry `i`'s key values in a flat store of `width` values per entry.
fn entry_keys(keys: &[Value], width: usize, i: usize) -> &[Value] {
    &keys[i * width..(i + 1) * width]
}

/// Whether two key tuples are equal — `deep_eq` key by key, which
/// [`joint_hash`] is consistent with.
fn keys_eq(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(a, b)| deep_eq(a, b))
}

/// GROUP BY's keyed table: its groups in the order they were made, each
/// with its key values and one state per fold, stored flat.
#[derive(Default)]
struct GroupTable {
    chains: Chains,
    keys: Vec<Value>,
    states: Vec<FoldState>,
}

impl KeyedTable<GroupCodec<'_>> for GroupTable {
    fn insert(
        &mut self,
        kv: &mut Vec<Value>,
        items: &mut Vec<FoldItem>,
        codec: &GroupCodec<'_>,
        gauge: &MatGauge<'_>,
    ) -> (u64, u64) {
        let (width, folds) = (kv.len(), codec.folds.len());
        let hash = joint_hash(kv);
        let found =
            (self.chains.chain(hash)).find(|&g| keys_eq(entry_keys(&self.keys, width, g), kv));
        let Some(group) = found else {
            self.chains.push(hash);
            let first = self.states.len();
            let started = codec.folds.iter().zip(items.drain(..));
            (self.states).extend(started.map(|((_, fold), item)| FoldState::start(fold, item)));
            let states = &self.states[first..];
            let rows = states.iter().map(FoldState::rows).sum::<u64>().max(1);
            let bytes =
                gauge.size(|| keys_bytes(kv) + states.iter().map(FoldState::bytes).sum::<u64>());
            self.keys.append(kv);
            return (rows, bytes);
        };
        let held = &mut self.states[group * folds..(group + 1) * folds];
        // Members grow by what they append; an aggregate state by what it
        // holds after the fold beyond what it held before (a MIN/MAX
        // keeping a bigger value). A state that shrinks is not refunded
        // until the table is released, so the charge stays an upper bound.
        let agg_bytes = |held: &[FoldState]| {
            held.iter()
                .filter(|s| matches!(s, FoldState::Agg(_)))
                .map(FoldState::bytes)
                .sum::<u64>()
        };
        let rows = items.iter().map(|item| item.members().len() as u64).sum();
        let appended = gauge.size(|| {
            (items.iter())
                .flat_map(FoldItem::members)
                .map(approx_value_bytes)
                .sum()
        });
        let before = gauge.size(|| agg_bytes(held));
        for (held, item) in held.iter_mut().zip(items.drain(..)) {
            held.fold(item);
        }
        let grown = gauge.size(|| agg_bytes(held)).saturating_sub(before);
        (rows, appended + grown)
    }

    fn drain(self, sink: &mut KeyedSink<'_, Vec<FoldItem>>) -> Result<(), EvalError> {
        let groups = self.chains.len();
        let width = self.keys.len().checked_div(groups).unwrap_or(0);
        let folds = self.states.len().checked_div(groups).unwrap_or(0);
        let mut states = self.states.into_iter();
        for g in 0..groups {
            let items = states.by_ref().take(folds).map(FoldItem::State).collect();
            sink(entry_keys(&self.keys, width, g), items)?;
        }
        Ok(())
    }
}

/// Spill codec for a group's fold items: an array with one value per
/// fold — the member bag, or [`agg::Accumulator::to_value`] — of the
/// state the items start. A spilled record decodes to partial states.
struct GroupCodec<'p> {
    folds: &'p [(String, GroupFold)],
}

impl SpillCodec for GroupCodec<'_> {
    type Row = Vec<FoldItem>;
    fn encode(&self, items: Vec<FoldItem>) -> Value {
        let states = self.folds.iter().zip(items);
        Value::Array(
            states
                .map(|((_, fold), item)| match FoldState::start(fold, item) {
                    FoldState::Members(elems) => Value::Bag(elems),
                    FoldState::Agg(acc) => acc.to_value(),
                })
                .collect(),
        )
    }
    fn decode(&self, v: Value) -> Result<Vec<FoldItem>, EvalError> {
        let corrupt = || EvalError::Resource("spill read failed: malformed group state".into());
        let Value::Array(values) = v else {
            return Err(corrupt());
        };
        if values.len() != self.folds.len() {
            return Err(corrupt());
        }
        self.folds
            .iter()
            .zip(values)
            .map(|((_, fold), v)| match (fold, v) {
                (GroupFold::Members { .. }, Value::Bag(elems)) => Ok(FoldState::Members(elems)),
                (GroupFold::Agg { func, .. }, v) => agg::Accumulator::from_value(*func, v)
                    .map(FoldState::Agg)
                    .ok_or_else(corrupt),
                _ => Err(corrupt()),
            })
            .map(|state| state.map(FoldItem::State))
            .collect()
    }
}

/// A hash join's build rows as bindings. A row the build read on a
/// stored collection's slice is kept by position ([`Row::At`]) and read
/// back from the collection — `slice`, the catalog snapshot, whose rows
/// are `as_var` bound over `env` — only when a probe row matches it or it
/// spills; any other is kept bound.
/// Spilled, a row is its right-side variables (`names`), all a match
/// reads back.
struct BuildRows {
    slice: Option<Arc<Value>>,
    as_var: Option<Rc<str>>,
    env: Env,
    names: Vec<Rc<str>>,
    /// The build's rows pulled and not yet in the table, the next one
    /// included: what the table makes room for — one batch's kept rows
    /// at most, never the scanned collection's.
    due: Cell<usize>,
}

impl BuildRows {
    /// The value `name` has in `row`'s bindings, without binding it.
    fn get<'r>(&'r self, row: &'r Row, name: &str) -> Option<&'r Value> {
        match row {
            Row::Bound(env) => env.get(name),
            Row::At(pos) if self.as_var.as_deref() == Some(name) => {
                let slice = self.slice.as_deref().expect("a position row has its slice");
                Some(&elements(slice)[*pos])
            }
            Row::At(_) => self.env.get(name),
        }
    }

    /// [`env_bytes`] of `row` bound, without binding it: what the build
    /// charges for holding it.
    fn bytes(&self, row: &Row) -> u64 {
        match row {
            Row::Bound(env) => env_bytes(env),
            Row::At(pos) => {
                let slice = self.slice.as_deref().expect("a position row has its slice");
                let as_var = self.as_var.as_deref().expect("and its row variable");
                slice_row_bytes(&self.env, as_var, &elements(slice)[*pos])
            }
        }
    }
}

impl SpillCodec for BuildRows {
    type Row = Row;
    fn encode(&self, row: Row) -> Value {
        encode_bindings(
            self.names
                .iter()
                .filter_map(|n| Some((&**n, self.get(&row, n)?))),
        )
    }
    fn decode(&self, v: Value) -> Result<Row, EvalError> {
        decode_env(v, &Env::new()).map(Row::Bound)
    }
}

/// A hash join's keyed table: the build side's surviving rows in build
/// order, with their key values stored flat — `width` per row — and
/// chained by hash.
#[derive(Default)]
struct JoinTable {
    rows: Vec<Row>,
    keys: Vec<Value>,
    width: usize,
    chains: Chains,
}

impl KeyedTable<BuildRows> for JoinTable {
    fn insert(
        &mut self,
        kv: &mut Vec<Value>,
        row: &mut Row,
        codec: &BuildRows,
        gauge: &MatGauge<'_>,
    ) -> (u64, u64) {
        let row = std::mem::take(row);
        let due = codec.due.take();
        self.rows.reserve(due);
        self.keys.reserve(due * kv.len());
        self.chains.reserve(due);
        let bytes = gauge.size(|| keys_bytes(kv) + codec.bytes(&row));
        self.chains.push(joint_hash(kv));
        self.width = kv.len();
        self.keys.append(kv);
        self.rows.push(row);
        (1, bytes)
    }

    fn drain(self, sink: &mut KeyedSink<'_, Row>) -> Result<(), EvalError> {
        for (i, row) in self.rows.into_iter().enumerate() {
            sink(entry_keys(&self.keys, self.width, i), row)?;
        }
        Ok(())
    }
}

impl JoinTable {
    /// Probes the table with one left row's key — the engine's only
    /// chain-probe loop — emitting each match and reporting whether
    /// there was one. Chain candidates are confirmed key-by-key with
    /// `deep_eq` (hash_value is deep_eq-consistent), which is exactly when
    /// `l.x = r.y` evaluates to TRUE for non-absent keys; the residual is
    /// then re-checked in the combined environment. The left row's binding
    /// is made by `left`, once, at its first key match; a build row's
    /// values are read through `rows` only then.
    fn probe<'a>(
        &self,
        ev: &Evaluator<'a>,
        kv: &[Value],
        left: &dyn Fn() -> Env,
        rows: &BuildRows,
        residual: Option<&Program<'a>>,
        emit: &mut dyn FnMut(Env),
    ) -> Result<bool, EvalError> {
        let mut matched = false;
        let mut l = None;
        for i in self.chains.chain(joint_hash(kv)) {
            // A skewed chain can hold many candidates per left row; tick
            // the deadline per candidate like the nested loop does.
            if let Some(g) = ev.govern.as_watcher() {
                g.tick()?;
            }
            if let Some(st) = &ev.stats {
                st.count(|s| s.join_probes += 1);
            }
            if !keys_eq(kv, entry_keys(&self.keys, self.width, i)) {
                continue;
            }
            let combined = combine_envs(l.get_or_insert_with(left), rows, &self.rows[i]);
            if let Some(p) = residual {
                if !matches!(ev.run_program(p, &combined)?, Value::Bool(true)) {
                    continue;
                }
            }
            matched = true;
            emit(combined);
        }
        Ok(matched)
    }
}

/// One test of a [`NestedLoop`]: the program's value must be TRUE or,
/// with a second program, equal to that one's under `sql_eq`.
type NestedTest<'a> = (Rc<Program<'a>>, Option<Rc<Program<'a>>>);

/// Streaming nested-loop join: pulls left rows one at a time, re-opens
/// the right stream per left row, and emits matches as they are found —
/// a LIMIT above the join stops both scans mid-flight (each right pull
/// asks for no more rows than the caller still wants, and a right row
/// yields at most one output row). LEFT joins pad the right-side
/// variables with NULL when a left row's right stream drains without a
/// match.
struct NestedLoop<'s, 'a> {
    ev: &'s Evaluator<'a>,
    kind: CoreJoinKind,
    left: BindingStream<'s>,
    right: &'a CoreFrom,
    whole: &'a CoreOp,
    names: Vec<Rc<str>>,
    /// What a right row must pass, in order: the plan's ON, or a hash
    /// join's conjuncts in its `UnknownName` fallback.
    tests: Vec<NestedTest<'a>>,
    /// The left row currently probing: its env, its right stream, and
    /// whether it has matched yet.
    cur: Option<(Env, BindingStream<'s>, bool)>,
    /// Right rows pulled for the current probe step (reused).
    buf: Vec<Env>,
    scanned: bool,
    done: bool,
}

impl<'s, 'a> NestedLoop<'s, 'a> {
    fn new(
        ev: &'s Evaluator<'a>,
        kind: CoreJoinKind,
        left: BindingStream<'s>,
        right: &'a CoreFrom,
        whole: &'a CoreOp,
        names: Vec<Rc<str>>,
        tests: Vec<NestedTest<'a>>,
    ) -> Self {
        NestedLoop {
            ev,
            kind,
            left,
            right,
            whole,
            names,
            tests,
            cur: None,
            buf: Vec::new(),
            scanned: false,
            done: false,
        }
    }

    /// Whether the joined row `r` passes every one of `tests`.
    fn passes(ev: &Evaluator<'a>, tests: &[NestedTest<'a>], r: &Env) -> Result<bool, EvalError> {
        for (p, equal_to) in tests {
            let v = ev.run_program(p, r)?;
            let holds = match equal_to {
                None => v,
                Some(q) => sql_eq(&v, &ev.run_program(q, r)?),
            };
            if !matches!(holds, Value::Bool(true)) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn fill(&mut self, out: &mut Vec<Env>, max: usize) -> Result<(), EvalError> {
        let start = out.len();
        while !self.done && out.len() - start < max {
            // A left row can spin through many right rows without
            // emitting (no matches), so the join ticks the deadline itself
            // — the per-pull wrapper outside never sees those iterations.
            let watcher = self.ev.govern.as_watcher();
            if let Some(g) = watcher {
                g.tick()?;
            }
            let Some((_, rights, matched)) = self.cur.as_mut() else {
                match next_one(&mut self.left)? {
                    None => self.done = true,
                    Some(l) => {
                        if std::mem::replace(&mut self.scanned, true) {
                            if let Some(st) = &self.ev.stats {
                                st.count(|s| s.right_rescans += 1);
                            }
                        }
                        let rights = self.ev.from_stream(self.right, self.whole, &l);
                        self.cur = Some((l, rights, false));
                    }
                }
                continue;
            };
            let pulled = rights.next_batch(&mut self.buf, max - (out.len() - start));
            if self.buf.is_empty() {
                pulled?;
                let (l, _, matched) = self.cur.take().expect("checked above");
                if !matched && self.kind == CoreJoinKind::Left {
                    out.push(pad_left(&l, &self.names));
                }
                continue;
            }
            if let Some(g) = watcher {
                g.tick_rows(self.buf.len() as u64)?;
            }
            for r in self.buf.drain(..) {
                if let Some(st) = &self.ev.stats {
                    st.count(|s| s.join_probes += 1);
                }
                if Self::passes(self.ev, &self.tests, &r)? {
                    *matched = true;
                    out.push(r);
                }
            }
            pulled?;
        }
        Ok(())
    }
}

impl<'s, 'a> Stream<Env> for NestedLoop<'s, 'a> {
    fn next_batch(&mut self, out: &mut Vec<Env>, max: usize) -> Result<(), EvalError> {
        let r = self.fill(out, max);
        self.done |= r.is_err();
        r
    }
}

/// Streaming hash-join probe: the build side is already materialized
/// (tracked live by its gauge); left rows are pulled one at a time and
/// probed, so a LIMIT above the join stops the left scan early.
struct HashProbe<'s, 'a> {
    ev: &'s Evaluator<'a>,
    kind: CoreJoinKind,
    residual: Option<Rc<Program<'a>>>,
    /// What the build rows bind, and the right-side variables.
    rows: BuildRows,
    build: JoinTable,
    /// Keeps the build rows counted as live until the probe finishes.
    _held: MatGauge<'s>,
    /// The probe side's row loop: the left keys of each row.
    left: FusedRows<'s, 'a, Value>,
    /// The current left row's keys (reused).
    kv: Vec<Value>,
    /// Rows produced by the current left row, drained before pulling the
    /// next one.
    pending: VecDeque<Env>,
    done: bool,
}

impl HashProbe<'_, '_> {
    /// Pulls one left row and queues what it produces: its matches, or
    /// its NULL padding for an unmatched LEFT row.
    fn step(&mut self) -> Result<(), EvalError> {
        self.kv.clear();
        let Some((row, passed)) = self.left.next_at(&mut self.kv)? else {
            self.done = true;
            return Ok(());
        };
        let (left, rows, pending) = (&self.left, &self.rows, &mut self.pending);
        let matched = passed
            && self.build.probe(
                self.ev,
                &self.kv,
                &|| left.scan.bind(&row),
                rows,
                self.residual.as_deref(),
                &mut |r| pending.push_back(r),
            )?;
        if !matched && self.kind == CoreJoinKind::Left {
            pending.push_back(pad_left(&left.scan.bind(&row), &rows.names));
        }
        Ok(())
    }
}

impl<'s, 'a> Stream<Env> for HashProbe<'s, 'a> {
    fn next_batch(&mut self, out: &mut Vec<Env>, max: usize) -> Result<(), EvalError> {
        let start = out.len();
        loop {
            let room = max - (out.len() - start);
            out.extend(self.pending.drain(..room.min(self.pending.len())));
            if out.len() - start >= max || self.done {
                return Ok(());
            }
            // The left side is pulled one row at a time: a LIMIT above
            // the join must be able to stop the left scan early.
            let step = self.step();
            if step.is_err() {
                self.done = true;
                return step;
            }
        }
    }
}

/// SQL left join: unmatched left rows pad the right-side variables with
/// NULL.
fn pad_left(l: &Env, right_vars: &[std::rc::Rc<str>]) -> Env {
    let mut padded = l.clone();
    for name in right_vars {
        padded = padded.bind(name.clone(), Value::Null);
    }
    padded
}

/// Extends a left-row environment with the right side's variables from a
/// matched build row `r` of `rows` — the same bindings, in the same
/// order, that evaluating the right side under `l` would have produced.
fn combine_envs(l: &Env, rows: &BuildRows, r: &Row) -> Env {
    let mut out = l.clone();
    for name in &rows.names {
        if let Some(v) = rows.get(r, name) {
            out = out.bind(name.clone(), v.clone());
        }
    }
    out
}

/// Stable sort of `(keys, payload)` rows honoring desc and nulls-first per
/// key. Absent values (MISSING and NULL) obey `nulls_first` as a block;
/// within the block the total order puts MISSING before NULL, and DESC —
/// which reverses the whole total order — therefore puts NULL before
/// MISSING (the block's *placement* stays governed by `nulls_first`).
/// Delegates to the one shared comparator ([`cmp_sort_keys`]) the external
/// merge and the top-k heap also use, so all sort paths provably agree.
fn sort_annotated<T>(rows: &mut [(Vec<Value>, T)], keys: &[CoreSortKey]) {
    rows.sort_by(|(a, _), (b, _)| cmp_sort_keys(keys, a, b));
}

/// Estimated in-memory footprint of a binding row: every visible binding's
/// name and value (the memory budget's unit).
fn env_bytes(e: &Env) -> u64 {
    e.visible_bindings()
        .iter()
        .map(|(n, v)| binding_bytes(n, v))
        .sum::<u64>()
        + 9
}

/// One binding's share of [`env_bytes`].
fn binding_bytes(name: &str, v: &Value) -> u64 {
    9 + name.len() as u64 + approx_value_bytes(v)
}

/// Serializes an environment for a spill file: its visible bindings,
/// innermost first (see [`encode_bindings`]).
fn encode_env(e: &Env) -> Value {
    encode_bindings(e.visible_bindings().into_iter())
}

/// Serializes bindings for a spill file, each a `[name, value]` pair.
fn encode_bindings<'v>(bindings: impl Iterator<Item = (&'v str, &'v Value)>) -> Value {
    let pair = |(n, v): (&str, &Value)| Value::Array(vec![Value::Str(n.to_string()), v.clone()]);
    Value::Array(bindings.map(pair).collect())
}

/// Inverse of [`encode_env`]: rebinds the pairs (outermost first, so
/// innermost bindings shadow as before) onto `base`.
fn decode_env(v: Value, base: &Env) -> Result<Env, EvalError> {
    let Value::Array(pairs) = v else {
        return Err(EvalError::Resource(format!(
            "spill read failed: malformed binding row {v:?}"
        )));
    };
    let mut env = base.clone();
    for pair in pairs.into_iter().rev() {
        match pair {
            Value::Array(mut nv) if nv.len() == 2 => {
                let value = nv.pop().expect("len checked");
                match nv.pop().expect("len checked") {
                    Value::Str(name) => env = env.bind(name, value),
                    other => {
                        return Err(EvalError::Resource(format!(
                            "spill read failed: malformed binding name {other:?}"
                        )));
                    }
                }
            }
            other => {
                return Err(EvalError::Resource(format!(
                    "spill read failed: malformed binding pair {other:?}"
                )));
            }
        }
    }
    Ok(env)
}

/// Spill codec for ORDER BY's binding rows: an [`Env`] round-trips as
/// its visible bindings, rebuilt over `base`.
struct EnvCodec {
    base: Env,
}

impl SpillCodec for EnvCodec {
    type Row = Env;
    fn encode(&self, row: Env) -> Value {
        encode_env(&row)
    }
    fn decode(&self, v: Value) -> Result<Env, EvalError> {
        decode_env(v, &self.base)
    }
}

/// A bounded top-k heap over the row loop's rows: keeps the `n = limit +
/// offset` least rows offered (per the shared sort comparator, ties by
/// arrival order — the stable-sort outcome), so peak tracked memory is
/// O(k) and the input is never materialized. Built by
/// [`Evaluator::topk_bindings`].
struct TopK<'k, 'g> {
    keys: &'k [CoreSortKey],
    n: usize,
    off: usize,
    gauge: MatGauge<'g>,
    heap: std::collections::BinaryHeap<HeapEntry<'k>>,
    /// The arrival number of the next row offered.
    seq: u64,
}

impl TopK<'_, '_> {
    /// Offers one row with its key values, taken from `kv` (left empty)
    /// if the row enters the heap. It is charged its keys plus
    /// `size_of(&row)` bytes for as long as it stays there.
    fn offer(
        &mut self,
        kv: &mut Vec<Value>,
        row: Row,
        size_of: impl FnOnce(&Row) -> u64,
    ) -> Result<(), EvalError> {
        let seq = self.seq;
        self.seq += 1;
        let full = self.heap.len() == self.n;
        if full {
            // A later arrival with equal keys sorts after every resident,
            // so only strictly lesser keys displace the greatest.
            let greatest = self.heap.peek().expect("heap is at capacity");
            if cmp_sort_keys(self.keys, kv, &greatest.kv) != std::cmp::Ordering::Less {
                kv.clear();
                return Ok(());
            }
        }
        let kv = std::mem::take(kv);
        let bytes = self.gauge.size(|| keys_bytes(&kv) + size_of(&row));
        if full {
            let evicted = self.heap.pop().expect("heap is at capacity");
            self.gauge.remove(1, evicted.bytes);
        }
        self.gauge.add(1, bytes)?;
        self.heap.push(HeapEntry {
            keys: self.keys,
            kv,
            seq,
            bytes,
            row,
        });
        Ok(())
    }

    /// The survivors in sort order, past the offset.
    fn into_rows(self) -> Vec<Row> {
        let entries = self.heap.into_sorted_vec();
        drop(self.gauge);
        entries.into_iter().skip(self.off).map(|e| e.row).collect()
    }
}

/// One resident row of a bounded top-k heap. The heap is a max-heap under
/// this ordering — sort keys first (via the shared comparator), arrival
/// order as the tie-break — so the row evicted is always the *greatest*,
/// and among equal keys the latest arrival, which reproduces the stable
/// sort's survivors exactly.
struct HeapEntry<'k> {
    keys: &'k [CoreSortKey],
    kv: Vec<Value>,
    seq: u64,
    bytes: u64,
    row: Row,
}

impl PartialEq for HeapEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry<'_> {}

impl PartialOrd for HeapEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_sort_keys(self.keys, &self.kv, &other.kv).then(self.seq.cmp(&other.seq))
    }
}

/// A multiset of the right operand for INTERSECT/EXCEPT matching: hash
/// buckets of indices into an ownership pool, `deep_eq`-confirmed on probe
/// (the same scheme [`dedupe`] uses). `take` is amortized O(1) per left
/// element instead of the former O(|R|) linear pool scan.
struct RightMultiset<'s> {
    pool: Vec<Option<Value>>,
    buckets: HashMap<u64, Vec<usize>>,
    stats: Option<&'s StatsCollector>,
}

impl<'s> RightMultiset<'s> {
    fn new(right: Vec<Value>, stats: Option<&'s StatsCollector>) -> Self {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, v) in right.iter().enumerate() {
            buckets.entry(structural_hash(v)).or_default().push(i);
        }
        RightMultiset {
            pool: right.into_iter().map(Some).collect(),
            buckets,
            stats,
        }
    }

    /// Removes one occurrence structurally equal to `v`, if any. Taken
    /// indices leave their bucket, so duplicate-heavy inputs never
    /// re-probe consumed slots.
    fn take(&mut self, v: &Value) -> bool {
        let Some(bucket) = self.buckets.get_mut(&structural_hash(v)) else {
            return false;
        };
        for pos in 0..bucket.len() {
            let i = bucket[pos];
            let candidate = self.pool[i].as_ref().expect("taken slots leave the bucket");
            if let Some(st) = self.stats {
                st.count(|s| s.setop_probes += 1);
            }
            if deep_eq(candidate, v) {
                self.pool[i] = None;
                bucket.swap_remove(pos);
                return true;
            }
        }
        false
    }
}

/// INTERSECT/EXCEPT's probe side: the left elements that consume a right
/// occurrence (INTERSECT) or do not (EXCEPT). Each call filters one
/// pulled batch, re-pulling until an element survives or the left side
/// is exhausted, and never asks the left side for more than `max`; the
/// elements pulled before a left error are judged first.
struct SetOpProbe<'s> {
    left: ValueStream<'s>,
    pool: RightMultiset<'s>,
    keep_matched: bool,
    /// Keeps the right elements counted as live until the probe finishes.
    _held: MatGauge<'s>,
    buf: Vec<Value>,
}

impl Stream<Value> for SetOpProbe<'_> {
    fn next_batch(&mut self, out: &mut Vec<Value>, max: usize) -> Result<(), EvalError> {
        let start = out.len();
        while out.len() == start {
            let pulled = self.left.next_batch(&mut self.buf, max);
            if self.buf.is_empty() {
                return pulled;
            }
            let (pool, keep) = (&mut self.pool, self.keep_matched);
            out.extend(self.buf.drain(..).filter(|v| pool.take(v) == keep));
            pulled?;
        }
        Ok(())
    }
}

/// Materialized set-operation semantics: the reference shape the
/// streaming [`Evaluator::set_op_stream`] must agree with (exercised by
/// the unit tests below; production queries run the stream).
#[cfg(test)]
fn eval_set_op(
    op: CoreSetOp,
    all: bool,
    left: Vec<Value>,
    right: Vec<Value>,
    stats: Option<&StatsCollector>,
) -> Vec<Value> {
    match (op, all) {
        (CoreSetOp::Union, true) => {
            let mut out = left;
            out.extend(right);
            out
        }
        (CoreSetOp::Union, false) => {
            let mut out = left;
            out.extend(right);
            dedupe(out, stats)
        }
        (CoreSetOp::Intersect, all) => {
            // Multiset intersection: keep each left element up to its
            // multiplicity in right.
            let mut pool = RightMultiset::new(right, stats);
            let mut out = Vec::new();
            for l in left {
                if pool.take(&l) {
                    out.push(l);
                }
            }
            if all {
                out
            } else {
                dedupe(out, stats)
            }
        }
        (CoreSetOp::Except, all) => {
            let mut pool = RightMultiset::new(right, stats);
            let mut out = Vec::new();
            for l in left {
                if !pool.take(&l) {
                    out.push(l);
                }
            }
            if all {
                out
            } else {
                dedupe(out, stats)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logic_tables_with_two_absent_values() {
        use Logical::*;
        assert_eq!(and3(Bool(false), Missing), Value::Bool(false));
        assert_eq!(and3(Bool(true), Missing), Value::Missing);
        assert_eq!(and3(Bool(true), Null), Value::Null);
        assert_eq!(and3(Null, Missing), Value::Missing);
        assert_eq!(or3(Bool(true), Missing), Value::Bool(true));
        assert_eq!(or3(Bool(false), Missing), Value::Missing);
        assert_eq!(or3(Bool(false), Null), Value::Null);
    }

    #[test]
    fn dedupe_is_structural_and_stable() {
        let items = vec![
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(2),
            Value::Int(1),
        ];
        let out = dedupe(items, None);
        assert_eq!(out, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn set_ops_respect_multiplicity() {
        let l = vec![Value::Int(1), Value::Int(1), Value::Int(2)];
        let r = vec![Value::Int(1), Value::Int(3)];
        assert_eq!(
            eval_set_op(CoreSetOp::Intersect, true, l.clone(), r.clone(), None),
            vec![Value::Int(1)]
        );
        assert_eq!(
            eval_set_op(CoreSetOp::Except, true, l.clone(), r.clone(), None),
            vec![Value::Int(1), Value::Int(2)]
        );
        assert_eq!(
            eval_set_op(CoreSetOp::Union, false, l, r, None).len(),
            3 // {1, 2, 3}
        );
    }

    #[test]
    fn set_op_probes_scale_with_input_not_its_square() {
        // n disjoint-heavy inputs: the former linear pool scan did
        // O(n·m) deep_eq probes; the hash-bucketed multiset does at most
        // one confirm per left element (all values distinct).
        let n = 64;
        let l: Vec<Value> = (0..n).map(Value::Int).collect();
        let r: Vec<Value> = (0..n).map(Value::Int).collect();
        let stats = StatsCollector::default();
        let out = eval_set_op(CoreSetOp::Intersect, true, l, r, Some(&stats));
        assert_eq!(out.len(), n as usize);
        let probes = stats.snapshot().setop_probes;
        assert!(
            probes <= 2 * n as u64,
            "expected O(n) probes, got {probes} for n = {n}"
        );
    }

    #[test]
    fn dedupe_keeps_first_occurrences_structurally() {
        // 1 and 1.0 are structurally equal numbers; the first one stays.
        let items = vec![Value::Int(1), Value::Float(1.0), Value::Int(2)];
        assert_eq!(dedupe(items, None), vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn sort_places_absent_values_per_nulls_first() {
        let keys = vec![CoreSortKey {
            expr: CoreExpr::Const(Value::Null), // unused by sort_annotated
            desc: false,
            nulls_first: false,
        }];
        let mut rows = vec![
            (vec![Value::Null], 0),
            (vec![Value::Int(2)], 1),
            (vec![Value::Missing], 2),
            (vec![Value::Int(1)], 3),
        ];
        sort_annotated(&mut rows, &keys);
        let order: Vec<i32> = rows.iter().map(|(_, p)| *p).collect();
        assert_eq!(order, vec![3, 1, 2, 0], "values first, then MISSING < NULL");
    }

    #[test]
    fn order_by_desc_reverses_missing_null_within_absent_block() {
        // DESC reverses the *whole* total order, including the
        // MISSING-before-NULL tie-break inside the absent block;
        // `nulls_first` alone still decides where the block goes.
        let keys = vec![CoreSortKey {
            expr: CoreExpr::Const(Value::Null),
            desc: true,
            nulls_first: false,
        }];
        let mut rows = vec![
            (vec![Value::Missing], 0),
            (vec![Value::Int(1)], 1),
            (vec![Value::Null], 2),
            (vec![Value::Int(2)], 3),
        ];
        sort_annotated(&mut rows, &keys);
        let order: Vec<i32> = rows.iter().map(|(_, p)| *p).collect();
        assert_eq!(
            order,
            vec![3, 1, 2, 0],
            "DESC: values descending, then NULL before MISSING"
        );
    }

    // =================================================================
    // LIMIT/OFFSET operand handling
    // =================================================================

    fn limits_under(
        typing: TypingMode,
        limit: Option<Value>,
        offset: Option<Value>,
    ) -> Result<(Option<usize>, usize), EvalError> {
        let catalog = Catalog::new();
        let ev = Evaluator::new(
            &catalog,
            EvalConfig {
                typing,
                ..EvalConfig::default()
            },
        );
        let limit = limit.map(CoreExpr::Const);
        let offset = offset.map(CoreExpr::Const);
        ev.limit_offset(limit.as_ref(), offset.as_ref(), &Env::new())
    }

    /// Runs `Limited` over an infallible source, collecting the output.
    fn limited(items: Vec<i32>, lim: Option<usize>, off: usize) -> Vec<i32> {
        collect(Box::new(Limited::new(from_vec(items), off, lim)), 2).unwrap()
    }

    #[test]
    fn limit_zero_and_offset_past_end_truncate() {
        let (lim, off) = limits_under(TypingMode::Permissive, Some(Value::Int(0)), None).unwrap();
        assert_eq!(limited(vec![1, 2, 3], lim, off), Vec::<i32>::new());

        let (lim, off) = limits_under(TypingMode::Permissive, None, Some(Value::Int(99))).unwrap();
        assert_eq!(limited(vec![1, 2, 3], lim, off), Vec::<i32>::new());
    }

    #[test]
    fn limit_offset_reject_non_integers_in_both_typing_modes() {
        // LIMIT/OFFSET counts sit outside the data domain: a bad operand
        // is a query error, not dirty data, so even permissive mode
        // refuses rather than producing MISSING (§IV's escape hatch is
        // for *data* heterogeneity).
        let bad = [
            Value::Float(1.5),
            Value::Str("2".into()),
            Value::Null,
            Value::Missing,
            Value::Int(-1),
        ];
        for mode in [TypingMode::Permissive, TypingMode::StrictError] {
            for v in &bad {
                assert!(
                    limits_under(mode, Some(v.clone()), None).is_err(),
                    "LIMIT {v:?} must error under {mode:?}"
                );
                assert!(
                    limits_under(mode, None, Some(v.clone())).is_err(),
                    "OFFSET {v:?} must error under {mode:?}"
                );
            }
        }
    }

    #[test]
    fn stats_collection_counts_scans_and_dedupe() {
        use sqlpp_plan::CoreFrom;
        let catalog = Catalog::new();
        let ev = Evaluator::new(
            &catalog,
            EvalConfig {
                collect_stats: true,
                ..EvalConfig::default()
            },
        );
        let scan = CoreOp::From {
            item: CoreFrom::Scan {
                expr: CoreExpr::Const(Value::Bag(vec![
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(2),
                ])),
                as_var: "x".into(),
                at_var: None,
            },
        };
        let q = CoreQuery {
            op: CoreOp::Project {
                input: Box::new(scan),
                expr: CoreExpr::Var("x".into()),
                distinct: true,
            },
        };
        let out = ev.run(&q).unwrap();
        assert_eq!(out, Value::Bag(vec![Value::Int(1), Value::Int(2)]));
        let stats = ev.stats_snapshot().expect("collect_stats was on");
        assert_eq!(stats.rows_scanned, 3);
        assert_eq!(stats.bindings_produced, 3);
        assert_eq!(stats.dedupe_probes, 1, "one hash hit confirmed by deep_eq");
        // Pre-order plan index 0 is the Project itself.
        let project = stats.op_at(0).expect("Project ran");
        assert_eq!((project.calls, project.rows_out), (1, 2));
        // DISTINCT materialized all three projected rows.
        assert_eq!(project.peak_rows, 3);
        assert_eq!(stats.peak_live_bindings, 3);
        // COUNT(DISTINCT …) dedupes through the same table.
        let count = CoreExpr::CollAgg {
            func: AggFunc::Count,
            distinct: true,
            input: Box::new(CoreExpr::Const(Value::Bag(vec![
                Value::Int(2),
                Value::Int(2),
                Value::Int(3),
            ]))),
        };
        assert_eq!(ev.expr(&count, &Env::new()), Ok(Value::Int(2)));
        assert_eq!(ev.stats_snapshot().unwrap().dedupe_probes, 2);
    }

    #[test]
    fn stats_are_absent_when_collection_is_off() {
        let catalog = Catalog::new();
        let ev = Evaluator::new(&catalog, EvalConfig::default());
        assert!(ev.stats_snapshot().is_none());
    }

    // =================================================================
    // The expression VM
    // =================================================================

    #[test]
    fn nested_between_evaluates_at_depth_64() {
        // ((5 BETWEEN 1 AND 9) BETWEEN FALSE AND TRUE) BETWEEN FALSE … —
        // every boolean lies between FALSE and TRUE.
        let konst = |v: Value| Box::new(CoreExpr::Const(v));
        let mut e = CoreExpr::Between {
            expr: konst(Value::Int(5)),
            low: konst(Value::Int(1)),
            high: konst(Value::Int(9)),
            negated: false,
        };
        for _ in 0..64 {
            e = CoreExpr::Between {
                expr: Box::new(e),
                low: konst(Value::Bool(false)),
                high: konst(Value::Bool(true)),
                negated: false,
            };
        }
        let catalog = Catalog::new();
        let ev = Evaluator::new(&catalog, EvalConfig::default());
        assert_eq!(ev.expr(&e, &Env::new()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn expressions_compile_once_per_evaluator() {
        let catalog = Catalog::new();
        let ev = Evaluator::new(
            &catalog,
            EvalConfig {
                collect_stats: true,
                ..EvalConfig::default()
            },
        );
        let e = CoreExpr::Bin(
            BinOp::Add,
            Box::new(CoreExpr::Var("x".into())),
            Box::new(CoreExpr::Const(Value::Int(1))),
        );
        for i in 0..10 {
            let env = Env::new().bind("x", Value::Int(i));
            assert_eq!(ev.expr(&e, &env).unwrap(), Value::Int(i + 1));
        }
        assert_eq!(ev.stats_snapshot().unwrap().exprs_compiled, 1);
    }

    /// A fault that fires inside a call instruction unwinds through a live
    /// outer VM frame; the evaluator's value stack must come back usable.
    /// Sweeping the failing ordinal over every operator-site visit fails
    /// each nesting level once, and the *same evaluator* then answers.
    #[test]
    fn fault_inside_a_call_instruction_restores_the_vm_stack() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let catalog = Catalog::new();
        catalog.set("t", Value::Bag((0..4).map(Value::Int).collect()));
        let ast = sqlpp_syntax::parse_query(
            "SELECT VALUE x + COLL_COUNT(SELECT VALUE y FROM t AS y WHERE y < x) \
             FROM t AS x WHERE EXISTS (SELECT VALUE z FROM t AS z WHERE z = x)",
        )
        .unwrap();
        let plan = sqlpp_plan::lower_query(&ast, &sqlpp_plan::PlanConfig::default()).unwrap();
        let want = Evaluator::new(&catalog, EvalConfig::default())
            .run(&plan)
            .unwrap();
        let mut k = 1;
        loop {
            let visits = std::sync::Arc::new(AtomicU64::new(0));
            let seen = std::sync::Arc::clone(&visits);
            let ev = Evaluator::new(
                &catalog,
                EvalConfig {
                    fault: Some(FaultInjector::new(move |site| {
                        (site == FaultSite::OperatorEval
                            && seen.fetch_add(1, Ordering::Relaxed) + 1 == k)
                            .then(|| EvalError::Resource("injected".into()))
                    })),
                    ..EvalConfig::default()
                },
            );
            match ev.run(&plan) {
                // Past the last visit: the plan never fired.
                Ok(got) => {
                    assert_eq!(got, want);
                    break;
                }
                Err(e) => assert_eq!(e, EvalError::Resource("injected".into()), "k {k}"),
            }
            assert_eq!(ev.run(&plan).unwrap(), want, "k {k}: evaluator reusable");
            k += 1;
        }
        assert!(k > 30, "the sweep must reach the nested evaluations ({k})");
    }

    // =================================================================
    // Hash join
    // =================================================================

    /// `{k: …, v: n}`; a MISSING key means the attribute is absent.
    fn row(k: Value, v: i64) -> Value {
        let mut t = Tuple::new();
        match k {
            Value::Missing => {}
            k => t.insert("k", k),
        }
        t.insert("v", Value::Int(v));
        Value::Tuple(t)
    }

    fn scan_of(rows: Vec<Value>, var: &str) -> Box<CoreFrom> {
        Box::new(CoreFrom::Scan {
            expr: CoreExpr::Const(Value::Bag(rows)),
            as_var: var.into(),
            at_var: None,
        })
    }

    fn key_of(var: &str) -> CoreExpr {
        CoreExpr::Path(Box::new(CoreExpr::Var(var.into())), "k".into())
    }

    /// `SELECT VALUE [x, y] FROM <item>` — pairs joined rows for
    /// comparison.
    fn project_pairs(item: CoreFrom) -> CoreOp {
        CoreOp::Project {
            input: Box::new(CoreOp::From { item }),
            expr: CoreExpr::ArrayCtor(vec![CoreExpr::Var("x".into()), CoreExpr::Var("y".into())]),
            distinct: false,
        }
    }

    #[test]
    fn hash_join_agrees_with_nested_loop_on_absent_keys() {
        let catalog = Catalog::new();
        let lrows = vec![
            row(Value::Int(1), 10),
            row(Value::Null, 11),
            row(Value::Missing, 12),
            row(Value::Int(2), 13),
            row(Value::Int(9), 14),
        ];
        let rrows = vec![
            row(Value::Int(2), 20),
            row(Value::Null, 21),
            row(Value::Missing, 22),
            row(Value::Int(1), 23),
            row(Value::Int(1), 24),
        ];
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            for kind in [CoreJoinKind::Inner, CoreJoinKind::Left] {
                let on = CoreExpr::Bin(BinOp::Eq, Box::new(key_of("x")), Box::new(key_of("y")));
                let nested = project_pairs(CoreFrom::Join {
                    kind,
                    left: scan_of(lrows.clone(), "x"),
                    right: scan_of(rrows.clone(), "y"),
                    on,
                    right_vars: vec!["y".into()],
                });
                let hashed = project_pairs(CoreFrom::HashJoin {
                    kind,
                    left: scan_of(lrows.clone(), "x"),
                    right: scan_of(rrows.clone(), "y"),
                    keys: vec![(key_of("x"), key_of("y"))],
                    left_pred: None,
                    right_pred: None,
                    residual: None,
                    right_vars: vec!["y".into()],
                });
                let ev = Evaluator::new(
                    &catalog,
                    EvalConfig {
                        typing,
                        ..EvalConfig::default()
                    },
                );
                let want = ev.value_op(&nested, &Env::new()).unwrap();
                let got = ev.value_op(&hashed, &Env::new()).unwrap();
                assert_eq!(got, want, "{kind:?} under {typing:?}");
            }
        }
    }

    #[test]
    fn hash_join_residual_rejects_then_left_pads() {
        let catalog = Catalog::new();
        let ev = Evaluator::new(&catalog, EvalConfig::default());
        // Key matches but the residual (x.v < y.v) fails for l2.
        let lrows = vec![row(Value::Int(1), 10), row(Value::Int(1), 99)];
        let rrows = vec![row(Value::Int(1), 20)];
        let residual = CoreExpr::Bin(
            BinOp::Lt,
            Box::new(CoreExpr::Path(
                Box::new(CoreExpr::Var("x".into())),
                "v".into(),
            )),
            Box::new(CoreExpr::Path(
                Box::new(CoreExpr::Var("y".into())),
                "v".into(),
            )),
        );
        let hashed = project_pairs(CoreFrom::HashJoin {
            kind: CoreJoinKind::Left,
            left: scan_of(lrows, "x"),
            right: scan_of(rrows, "y"),
            keys: vec![(key_of("x"), key_of("y"))],
            left_pred: None,
            right_pred: None,
            residual: Some(residual),
            right_vars: vec!["y".into()],
        });
        let got = ev.value_op(&hashed, &Env::new()).unwrap();
        let Value::Bag(pairs) = got else {
            panic!("bag expected")
        };
        assert_eq!(pairs.len(), 2);
        // First left row matched; second padded with NULL.
        let Value::Array(second) = &pairs[1] else {
            panic!("array expected")
        };
        assert_eq!(second[1], Value::Null);
    }

    #[test]
    fn hash_join_probes_are_linear_nested_loop_quadratic() {
        let catalog = Catalog::new();
        let n = 50i64;
        let lrows: Vec<Value> = (0..n).map(|i| row(Value::Int(i), i)).collect();
        let rrows: Vec<Value> = (0..n).map(|i| row(Value::Int(i), -i)).collect();
        let hashed = project_pairs(CoreFrom::HashJoin {
            kind: CoreJoinKind::Inner,
            left: scan_of(lrows.clone(), "x"),
            right: scan_of(rrows.clone(), "y"),
            keys: vec![(key_of("x"), key_of("y"))],
            left_pred: None,
            right_pred: None,
            residual: None,
            right_vars: vec!["y".into()],
        });
        let nested = project_pairs(CoreFrom::Join {
            kind: CoreJoinKind::Inner,
            left: scan_of(lrows, "x"),
            right: scan_of(rrows, "y"),
            on: CoreExpr::Bin(BinOp::Eq, Box::new(key_of("x")), Box::new(key_of("y"))),
            right_vars: vec!["y".into()],
        });
        let ev = Evaluator::new(
            &catalog,
            EvalConfig {
                collect_stats: true,
                ..EvalConfig::default()
            },
        );
        let out = ev.value_op(&hashed, &Env::new()).unwrap();
        assert_eq!(out, ev.value_op(&nested, &Env::new()).unwrap());
        let s = ev.stats_snapshot().unwrap();
        // The nested loop above contributed n·n probes and n-1 rescans;
        // the hash join contributed ≤ n probes, n build rows, 0 rescans.
        assert_eq!(s.join_build_rows, n as u64);
        assert_eq!(
            s.right_rescans,
            (n - 1) as u64,
            "only the nested loop rescans"
        );
        assert_eq!(s.join_probes, (n * n + n) as u64);
    }

    #[test]
    fn hash_join_empty_right_side_pads_without_evaluating_predicates() {
        let catalog = Catalog::new();
        // left_pred would error in strict mode if evaluated (NOT on an
        // int); over an empty right side the nested loop never evaluates
        // ON, and the hash probe must not either.
        let ev = Evaluator::new(
            &catalog,
            EvalConfig {
                typing: TypingMode::StrictError,
                ..EvalConfig::default()
            },
        );
        let hashed = project_pairs(CoreFrom::HashJoin {
            kind: CoreJoinKind::Left,
            left: scan_of(vec![row(Value::Int(1), 10)], "x"),
            right: scan_of(Vec::new(), "y"),
            keys: vec![(key_of("x"), key_of("y"))],
            left_pred: Some(CoreExpr::Un(
                UnOp::Not,
                Box::new(CoreExpr::Path(
                    Box::new(CoreExpr::Var("x".into())),
                    "v".into(),
                )),
            )),
            right_pred: None,
            residual: None,
            right_vars: vec!["y".into()],
        });
        let got = ev.value_op(&hashed, &Env::new()).unwrap();
        let Value::Bag(pairs) = got else {
            panic!("bag expected")
        };
        assert_eq!(pairs.len(), 1, "LEFT join pads the single left row");
    }
}
