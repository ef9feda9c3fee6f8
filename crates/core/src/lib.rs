//! # sqlpp — a SQL++ query engine
//!
//! A complete, from-scratch Rust implementation of the unified SQL++
//! language of *SQL++: We Can Finally Relax!* (Carey, Chamberlin, Goo,
//! Ong, Papakonstantinou, Suver, Vemulapalli, Westmann — ICDE 2024):
//! SQL relaxed from flat to nested object structure and from mandatory to
//! optional schema.
//!
//! ```
//! use sqlpp::Engine;
//!
//! let engine = Engine::new();
//! // Load the paper's Listing 1 collection from its own notation:
//! engine.load_pnotation("hr.emp_nest_tuples", r#"{{
//!     {'id': 3, 'name': 'Bob Smith', 'title': null,
//!      'projects': [{'name': 'Serverless Query'},
//!                   {'name': 'OLAP Security'},
//!                   {'name': 'OLTP Security'}]},
//!     {'id': 4, 'name': 'Susan Smith', 'title': 'Manager', 'projects': []},
//!     {'id': 6, 'name': 'Jane Smith', 'title': 'Engineer',
//!      'projects': [{'name': 'OLTP Security'}]}
//! }}"#).unwrap();
//!
//! // Listing 2: unnest the projects with a left-correlated FROM.
//! let result = engine.query(
//!     "SELECT e.name AS emp_name, p.name AS proj_name \
//!      FROM hr.emp_nest_tuples AS e, e.projects AS p \
//!      WHERE p.name LIKE '%Security%'",
//! ).unwrap();
//! assert_eq!(result.len(), 3);
//! ```
//!
//! The engine exposes the paper's two dials:
//!
//! * [`CompatMode`] — "a SQL compatibility flag in SQL++ whose setting
//!   can be toggled between prioritizing composability or prioritizing
//!   SQL compatibility" (§I);
//! * [`TypingMode`] — permissive (type errors become MISSING and healthy
//!   data keeps flowing, §IV) vs stop-on-error.

#![warn(missing_docs)]

mod analyze;
mod dml;
mod error;
mod persist;
mod result;

use std::sync::{Arc, RwLock};
use std::time::Instant;

use sqlpp_catalog::QualifiedName;
use sqlpp_eval::stats::fmt_ns;
use sqlpp_eval::{EvalConfig, Evaluator};
use sqlpp_formats::csv::CsvOptions;
use sqlpp_plan::{lower_query, optimize, CoreOp, CoreQuery, PlanConfig};
use sqlpp_schema::{SqlppType, Validator};
use sqlpp_syntax::ast::{Expr, Query, Statement};
use sqlpp_value::Value;

pub use analyze::{diagnostics_for, render_error_report};
pub use error::{Error, Result};
pub use result::QueryResult;
pub use sqlpp_catalog::Catalog;
pub use sqlpp_durability::{
    DurabilityConfig, DurabilityError, DurableStore, Recovered, SyncMode, WalStatus,
};
pub use sqlpp_eval::{
    CancelToken, EvalError, ExecStats, FaultInjector, FaultSite, Limits, OpStats, SpillConfig,
    TypingMode,
};
pub use sqlpp_plan::CompatMode;
pub use sqlpp_syntax::{render_report, Diagnostic};
pub use sqlpp_value as value;
pub use sqlpp_value::{Decimal, Tuple};

/// Session-level configuration: the paper's mode dials plus engine knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// SQL compatibility vs composability (§I).
    pub compat: CompatMode,
    /// Permissive vs stop-on-error typing (§IV).
    pub typing: TypingMode,
    /// Run the plan optimizer.
    pub optimize: bool,
    /// Per-query resource limits (memory budget, deadline, cancellation,
    /// nesting depth) applied to every query and DML evaluation this
    /// session runs. Unlimited by default; enforcement is zero-cost when
    /// unlimited (gated like stats collection).
    pub limits: Limits,
    /// Fault-injection hook (chaos testing). `None` in production.
    pub fault: Option<FaultInjector>,
    /// Rows moved per pipeline pull (vectorized execution). `1` is the
    /// row-at-a-time engine — the same operators pulling one-row batches
    /// — kept as the differential baseline for the batched engine.
    pub batch_size: usize,
    /// Out-of-core execution policy. `None` (the default) keeps memory-
    /// budget overruns as hard refusals; `Some` lets pipeline breakers
    /// spill to temp files (external merge-sort, Grace partitioning)
    /// within the session's [`Limits::spill_bytes`] cap.
    pub spill: Option<SpillConfig>,
    /// Crash-safe persistence. `None` (the default) keeps the catalog
    /// purely in memory, exactly as before; `Some` opens a write-ahead
    /// log + checkpoint directory via [`Engine::open`] — every committed
    /// DML statement and schema change is logged before it publishes,
    /// and recovery on the next open replays the catalog back.
    pub durability: Option<DurabilityConfig>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            compat: CompatMode::SqlCompat,
            typing: TypingMode::Permissive,
            optimize: true,
            limits: Limits::default(),
            fault: None,
            batch_size: sqlpp_eval::DEFAULT_BATCH_SIZE,
            spill: None,
            durability: None,
        }
    }
}

/// The SQL++ engine: a catalog of named values plus a configuration.
///
/// Cloning an `Engine` shares the catalog (sessions over one database);
/// use [`Engine::with_config`] to derive differently-configured sessions.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    catalog: Catalog,
    config: SessionConfig,
    /// The shared write-ahead log, when this engine was opened durable.
    /// Cloned engines and derived sessions share it with the catalog —
    /// one log per database, whatever the session topology.
    wal: Option<Arc<DurableStore>>,
}

impl Engine {
    /// A fresh engine with an empty catalog and default configuration
    /// (in-memory: no durability).
    pub fn new() -> Self {
        Engine::default()
    }

    /// Derives a session with different configuration over the *same*
    /// catalog (and the same write-ahead log, if one is open — the
    /// `durability` field of `config` is ignored in favor of this
    /// engine's, since sessions over one catalog must share one log).
    pub fn with_config(&self, config: SessionConfig) -> Engine {
        Engine {
            catalog: self.catalog.clone(),
            wal: self.wal.clone(),
            config: SessionConfig {
                durability: self.config.durability.clone(),
                ..config
            },
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The active configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    // ---------------- data loading ----------------

    /// Binds a name to an in-memory value.
    ///
    /// Deliberately *not* written to the write-ahead log (it is the one
    /// infallible loading path, kept infallible): on a durable engine
    /// the binding lives in memory until the next [`Engine::checkpoint`]
    /// folds it into a snapshot, or until the next DML statement on the
    /// name, which logs its whole post-image because the log cannot
    /// rebuild this base (the name is marked unanchored in the shared
    /// store). Use [`Engine::load_pnotation`] (or any fallible loader)
    /// for crash-safe registration. Takes the DML guard like every
    /// other publish, so no statement's delta lands on a base it never
    /// read.
    pub fn register(&self, name: &str, value: Value) {
        let _writers = self.catalog.dml_guard();
        self.catalog.set(name, value);
        if let Some(wal) = &self.wal {
            wal.mark_unanchored(name);
        }
    }

    /// Loads a collection from the paper's object notation.
    pub fn load_pnotation(&self, name: &str, text: &str) -> Result<()> {
        let v = sqlpp_formats::pnotation::from_pnotation(text)?;
        self.put_logged(name, v, None)
    }

    /// Loads a collection from a JSON document (or JSON Lines stream).
    pub fn load_json(&self, name: &str, text: &str) -> Result<()> {
        let trimmed = text.trim_start();
        let v = if trimmed.starts_with('[') || trimmed.starts_with('{') {
            match sqlpp_formats::json::from_json(text) {
                Ok(v) => v,
                // Concatenated objects: fall back to JSON Lines.
                Err(_) => sqlpp_formats::json::from_json_lines(text)?,
            }
        } else {
            sqlpp_formats::json::from_json_lines(text)?
        };
        self.put_logged(name, v, None)
    }

    /// Loads a collection from CSV text.
    pub fn load_csv(&self, name: &str, text: &str) -> Result<()> {
        let v = sqlpp_formats::csv::from_csv(text, &CsvOptions::default())?;
        self.put_logged(name, v, None)
    }

    /// Loads a collection from ion-lite bytes.
    pub fn load_ion_lite(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let v = sqlpp_formats::ion_lite::from_ion_lite(bytes)?;
        self.put_logged(name, v, None)
    }

    /// Registers a value after validating every element against an
    /// optional schema (the paper's schema-optional tenet: data may be
    /// validated when a schema exists, and queries must not change).
    pub fn register_with_schema(
        &self,
        name: &str,
        value: Value,
        element_type: &SqlppType,
    ) -> Result<()> {
        let validator = Validator::new(element_type.clone());
        let violations = validator.validate(&value);
        if let Some(v) = violations.first() {
            return Err(Error::Schema(format!(
                "{name}: {} violation(s); first: {}",
                violations.len(),
                v.message
            )));
        }
        // Value + schema publish (and log) as one unit: queries over
        // this collection gain §III schema-based disambiguation of bare
        // identifiers, and a recovered catalog can never see one
        // without the other.
        self.put_logged(name, value, Some(element_type))
    }

    // ---------------- statements and queries ----------------
    //
    // One front door. Text enters through thin wrappers that parse once;
    // past the parser every layer is handed the AST. `plan` is the only
    // lowering site, `run` the only place a plan is evaluated, and
    // `execute_stmt` the only statement dispatcher.

    /// Executes a statement: queries return rows, `CREATE TABLE`
    /// registers an empty (schema-attached) collection, and
    /// INSERT/DELETE/UPDATE mutate named collections (re-validating
    /// against any attached schema).
    pub fn execute(&self, src: &str) -> Result<ExecOutcome> {
        Ok(self.execute_text(src, false)?.0)
    }

    /// Like [`Engine::execute`], with statistics collection on: queries
    /// and DML statements return their [`ExecStats`] (phase times plus
    /// operator counters — for DML, the counters cover the statement's
    /// embedded query/predicate evaluation). Statements with no
    /// evaluation of their own (`CREATE TABLE`, `EXPLAIN`) return `None`.
    pub fn execute_with_stats(&self, src: &str) -> Result<(ExecOutcome, Option<ExecStats>)> {
        self.execute_text(src, true)
    }

    /// The text entry to the statement dispatcher: the one statement
    /// parse, timed for [`ExecStats::parse_ns`].
    fn execute_text(&self, src: &str, collect: bool) -> Result<(ExecOutcome, Option<ExecStats>)> {
        let t = Instant::now();
        let stmt = sqlpp_syntax::parse_statement(src)?;
        self.execute_stmt(&stmt, t.elapsed().as_nanos() as u64, collect)
    }

    /// Executes an already-parsed statement — the entry for callers that
    /// parsed the text themselves (the server's cache-miss path), so no
    /// statement is ever parsed twice. Stats, when collected, report a
    /// zero parse phase: the parse was the caller's.
    pub fn execute_parsed(
        &self,
        stmt: &Statement,
        collect_stats: bool,
    ) -> Result<(ExecOutcome, Option<ExecStats>)> {
        self.execute_stmt(stmt, 0, collect_stats)
    }

    /// The statement dispatcher.
    fn execute_stmt(
        &self,
        stmt: &Statement,
        parse_ns: u64,
        collect: bool,
    ) -> Result<(ExecOutcome, Option<ExecStats>)> {
        let t = Instant::now();
        let (outcome, stats) = match stmt {
            Statement::Query(q) => {
                let (_, value, stats) = self.plan_and_run(q, parse_ns, collect)?;
                return Ok((ExecOutcome::Rows(QueryResult::new(value?)), stats));
            }
            Statement::Explain { analyze, query } => {
                let text = if *analyze {
                    let (planned, value, stats) = self.plan_and_run(query, parse_ns, true)?;
                    let stats = stats.expect("collect_stats is on");
                    render_analysis(&planned.core, &stats, value.err().as_ref())
                } else {
                    self.plan(query)?.core.explain()
                };
                return Ok((ExecOutcome::Explained { text }, None));
            }
            Statement::CreateTable(ct) => {
                let row_type = sqlpp_schema::hive::table_row_type(ct);
                let name = ct.name.join(".");
                self.put_logged(name.as_str(), Value::empty_bag(), Some(&row_type))?;
                return Ok((ExecOutcome::Created { name, row_type }, None));
            }
            Statement::Insert(ins) => self.exec_insert(ins, collect)?,
            Statement::Delete(del) => self.exec_delete(del, collect)?,
            Statement::Update(up) => self.exec_update(up, collect)?,
        };
        // DML: the statement's whole wall time is its eval phase.
        let stats = stats.map(|mut st| {
            st.parse_ns = parse_ns;
            st.eval_ns = t.elapsed().as_nanos() as u64;
            st
        });
        Ok((outcome, stats))
    }

    /// Parses, plans, and runs a query.
    pub fn query(&self, src: &str) -> Result<QueryResult> {
        self.query_with_params(src, Vec::new())
    }

    /// Like [`Engine::query`], with positional `?` parameters.
    pub fn query_with_params(&self, src: &str, params: Vec<Value>) -> Result<QueryResult> {
        self.prepare(src)?.execute_with_params(self, params)
    }

    /// Parses and lowers a query once for repeated execution.
    ///
    /// The returned plan is stamped with the catalog's *schema epoch* at
    /// prepare time. Execution revalidates the stamp: if a schema was
    /// attached, replaced, or removed since (`register_with_schema`,
    /// `CREATE TABLE`, `Catalog::set_schema`/`remove`), the plan is
    /// re-lowered against the current catalog before running, so a
    /// `Prepared` never executes against a schema snapshot older than the
    /// data it reads.
    pub fn prepare(&self, src: &str) -> Result<Prepared> {
        let t = Instant::now();
        let ast = sqlpp_syntax::parse_query(src)?;
        let parse_ns = t.elapsed().as_nanos() as u64;
        Ok(Prepared {
            parse_ns,
            ..self.prepare_parsed(ast)?
        })
    }

    /// [`Engine::prepare`] for an already-parsed query (the server's
    /// cache-miss path hands over the AST its one parse produced).
    pub fn prepare_parsed(&self, ast: Query) -> Result<Prepared> {
        let planned = self.plan(&ast)?;
        Ok(Prepared {
            ast,
            compat: self.config.compat,
            optimize: self.config.optimize,
            parse_ns: 0,
            planned: Arc::new(planned),
            refreshed: Arc::new(RwLock::new(None)),
        })
    }

    /// Plans a query under this session's configuration.
    fn plan(&self, ast: &Query) -> Result<Planned> {
        plan(&self.catalog, self.config.compat, self.config.optimize, ast)
    }

    /// Evaluates a plan — the one place an [`Evaluator`] runs a query,
    /// whoever planned it (statements, prepared execution, DML sources).
    /// With `collect` on, the stats carry the operator counters, the
    /// phase times that made the plan (`parse_ns` is the caller's) and
    /// the eval phase time — whichever way the run ended, so a failed
    /// run reports how far it got; the plain path carries no collector.
    fn run(
        &self,
        planned: &Planned,
        parse_ns: u64,
        params: Vec<Value>,
        collect: bool,
    ) -> (Result<Value>, Option<ExecStats>) {
        let evaluator =
            Evaluator::new(&self.catalog, self.eval_config(collect)).with_params(params);
        // Per-operator stats are keyed by the plan's pre-order index
        // (assigned by `Evaluator::run`), so the plan can move freely
        // between evaluation and annotation.
        let t = Instant::now();
        let value = evaluator.run(&planned.core).map_err(Error::from);
        let stats = evaluator.stats_snapshot().map(|st| ExecStats {
            parse_ns,
            lower_ns: planned.lower_ns,
            optimize_ns: planned.optimize_ns,
            eval_ns: t.elapsed().as_nanos() as u64,
            ..st
        });
        (value, stats)
    }

    /// Plans a parsed query and runs it. Hands back the plan for
    /// `EXPLAIN ANALYZE`, with the run's outcome and stats; only a
    /// planning error is this function's own.
    pub(crate) fn plan_and_run(
        &self,
        ast: &Query,
        parse_ns: u64,
        collect: bool,
    ) -> Result<(Planned, Result<Value>, Option<ExecStats>)> {
        let planned = self.plan(ast)?;
        let (value, stats) = self.run(&planned, parse_ns, Vec::new(), collect);
        Ok((planned, value, stats))
    }

    /// The lowered (Core) plan as text — SQL's EXPLAIN, and the mechanism
    /// by which the listing gallery shows the §V-C rewritings. A bare
    /// expression explains as the plan `run_str` runs for it.
    pub fn explain(&self, src: &str) -> Result<String> {
        Ok(self.prepare_query_or_expr(src)?.plan().explain())
    }

    /// [`Engine::prepare`], or — when `src` is no query but parses as a
    /// bare expression, as in [`Engine::run_str`] — the FROM-less
    /// `SELECT VALUE expr`. If neither parses, the query's syntax error.
    fn prepare_query_or_expr(&self, src: &str) -> Result<Prepared> {
        match self.prepare(src) {
            Err(Error::Syntax(first)) => match sqlpp_syntax::parse_expr(src) {
                Ok(expr) => self.prepare_parsed(Query::select_value(expr)),
                Err(_) => Err(Error::Syntax(first)),
            },
            prepared => prepared,
        }
    }

    /// Runs a query with statistics collection on and returns its result
    /// with [`ExecStats`] attached (per-phase wall times plus operator
    /// counters). The ordinary [`Engine::query`] path carries no
    /// collector and pays nothing. [`Prepared::execute_with_stats`] takes
    /// `?` parameters and keeps the stats of a run that fails.
    pub fn query_with_stats(&self, src: &str) -> Result<QueryResult> {
        let (_, value, stats) = self.prepare(src)?.analyze(self, Vec::new())?;
        Ok(QueryResult::with_stats(value?, stats))
    }

    /// `EXPLAIN ANALYZE`: executes the query with statistics collection
    /// on and renders the Core operator tree with each operator's
    /// calls/rows/time, followed by the phase-times and counters summary
    /// — and, when the run failed, an `error: …` line under the counts
    /// it reached.
    pub fn explain_analyze(&self, src: &str) -> Result<String> {
        let (planned, value, stats) = self.prepare_query_or_expr(src)?.analyze(self, Vec::new())?;
        Ok(render_analysis(&planned.core, &stats, value.err().as_ref()))
    }

    /// Statically analyzes a statement without evaluating it, returning
    /// every problem found as a spanned [`Diagnostic`].
    ///
    /// Three layers feed the report: the *recovering* parser contributes
    /// all syntax errors in one pass (not just the first), lowering
    /// contributes name-resolution and clause-legality errors
    /// (`E_PLAN`), and — when the parse and plan are clean — the
    /// typechecker contributes advisory `W_TYPE` warnings against the
    /// catalog's attached schemas (§I: "the possibility of static type
    /// checking when the optional schema is present"). Typecheck
    /// warnings never reject a query, since schemaless data is legal by
    /// design. An empty vector means the statement is clean.
    pub fn check(&self, src: &str) -> Vec<Diagnostic> {
        let rec = sqlpp_syntax::parse_statement_recovering(src);
        if !rec.diags.is_empty() {
            // Bare expressions are legal engine input (`run_str` accepts
            // them); only report the statement-shaped errors if the
            // expression reading fails too. A clean expression is
            // analyzed as the `SELECT VALUE` query `eval_expr` runs.
            let expr = sqlpp_syntax::parse_expr_recovering(src);
            if expr.diags.is_empty() {
                if let Some(e) = expr.ast {
                    return self.check_query_ast(src, &Query::select_value(e));
                }
            }
            return rec.diags;
        }
        match rec.ast {
            Some(Statement::Query(q)) => self.check_query_ast(src, &q),
            Some(Statement::Explain { query, .. }) => self.check_query_ast(src, &query),
            // DDL/DML statements carry no plan to lower; a clean parse is
            // all the static analysis they get today.
            _ => Vec::new(),
        }
    }

    /// Lowers and typechecks a parsed query for [`Engine::check`].
    fn check_query_ast(&self, src: &str, ast: &Query) -> Vec<Diagnostic> {
        match self.plan(ast) {
            Ok(planned) => sqlpp_plan::typecheck(&planned.core, &self.catalog.schema_snapshot())
                .into_iter()
                .map(|w| {
                    let span = w
                        .name
                        .as_deref()
                        .and_then(|n| analyze::locate_name(src, n))
                        .unwrap_or_else(analyze::zero_span);
                    Diagnostic::new(sqlpp_syntax::diag::codes::W_TYPE, w.message, span)
                })
                .collect(),
            Err(e) => analyze::diagnostics_for(src, &e),
        }
    }

    /// Evaluates a standalone SQL++ *expression* (full composability:
    /// "subqueries can appear anywhere", and so can bare constructors like
    /// Listing 16's `{{ {'avgsal': COLL_AVG(SELECT VALUE …)} }}`).
    pub fn eval_expr(&self, src: &str) -> Result<Value> {
        Ok(self
            .eval_value_expr(sqlpp_syntax::parse_expr(src)?, false)?
            .0)
    }

    /// Evaluates a parsed expression as the plan of the FROM-less
    /// `SELECT VALUE expr` ([`Engine::eval_expr`], and `INSERT … VALUE`
    /// with optional statistics collection).
    pub(crate) fn eval_value_expr(
        &self,
        expr: Expr,
        collect: bool,
    ) -> Result<(Value, Option<ExecStats>)> {
        let (_, bag, stats) = self.plan_and_run(&Query::select_value(expr), 0, collect)?;
        // A FROM-less SELECT VALUE produces a singleton bag; unwrap it.
        let value = match bag? {
            Value::Bag(mut items) if items.len() == 1 => items.pop().expect("len checked"),
            other => other,
        };
        Ok((value, stats))
    }

    /// Runs either a query or, failing that, a bare expression — the REPL
    /// and compatibility-kit entry point.
    pub fn run_str(&self, src: &str) -> Result<Value> {
        match self.query(src) {
            Ok(r) => Ok(r.into_value()),
            Err(Error::Syntax(first)) => self.eval_expr(src).map_err(|_| Error::Syntax(first)),
            Err(e) => Err(e),
        }
    }

    /// The evaluator configuration every entry point runs under —
    /// queries, `EXPLAIN ANALYZE`, prepared execution, and DML alike, so
    /// budgets, deadlines, and injected faults govern them all the same
    /// way (a refused DML aborts before its commit point, leaving the
    /// catalog untouched).
    pub(crate) fn eval_config(&self, collect_stats: bool) -> EvalConfig {
        EvalConfig {
            typing: self.config.typing,
            compat: self.config.compat,
            collect_stats,
            limits: self.config.limits.clone(),
            fault: self.config.fault.clone(),
            batch_size: self.config.batch_size,
            spill: self.config.spill.clone(),
        }
    }
}

/// A lowered (and, when the session asks, optimized) query.
#[derive(Debug)]
struct Planned {
    core: CoreQuery,
    /// The catalog schema epoch `core` was lowered against.
    epoch: u64,
    lower_ns: u64,
    optimize_ns: u64,
}

/// The one planning site: a consistent (schema epoch, schema snapshot)
/// pair → `lower_query` → optional `optimize`, each phase timed. Only
/// ever runs where a plan is built — a prepared or cached execution
/// reuses its plan and never comes here.
fn plan(
    catalog: &Catalog,
    compat: CompatMode,
    optimize_plan: bool,
    ast: &Query,
) -> Result<Planned> {
    let (epoch, schemas) = catalog.schema_state();
    let config = PlanConfig { compat, schemas };
    let t = Instant::now();
    let mut core = lower_query(ast, &config)?;
    let lower_ns = t.elapsed().as_nanos() as u64;
    let mut optimize_ns = 0;
    if optimize_plan {
        let t = Instant::now();
        core = optimize(core);
        optimize_ns = t.elapsed().as_nanos() as u64;
    }
    Ok(Planned {
        core,
        epoch,
        lower_ns,
        optimize_ns,
    })
}

/// Renders an `EXPLAIN ANALYZE` report: the operator tree with per-node
/// `[streaming|materializing calls=… rows=… time=…]` annotations, then
/// the phase/counter summary, then the run's error if it failed.
/// Operators that ran on the fused scan spine are labelled `fused`;
/// operators that buffered rows also show their high-water mark as
/// `mat=…`; operators that streamed show how many batches they emitted
/// as `batches=…`.
fn render_analysis(core: &CoreQuery, stats: &ExecStats, error: Option<&Error>) -> String {
    // Stats are keyed by pre-order plan index; recover each rendered
    // node's index by walking the same pre-order.
    let index_of: std::collections::HashMap<*const CoreOp, u32> = core
        .preorder_ops()
        .iter()
        .enumerate()
        .map(|(i, op)| (*op as *const CoreOp, i as u32))
        .collect();
    let mut text = core.explain_with(&mut |op| {
        let key = index_of.get(&(op as *const CoreOp))?;
        let s = stats.op_at(*key)?;
        let mat = if s.peak_rows > 0 {
            // Breakers that took the out-of-core path are tagged; the
            // others stay explicitly `in-memory` whenever the run spilled
            // anywhere, so a reader can tell which operator was the one
            // under pressure.
            let spill_tag = if s.spilled {
                " spilled"
            } else if stats.spill_partitions > 0 {
                " in-memory"
            } else {
                ""
            };
            format!(" mat={}{}", s.peak_rows, spill_tag)
        } else {
            String::new()
        };
        let batches = if s.batches > 0 {
            format!(" batches={}", s.batches)
        } else {
            String::new()
        };
        Some(format!(
            " [{}{} calls={} rows={}{}{} time={}]",
            op.pipeline_class(),
            if s.fused { " fused" } else { "" },
            s.calls,
            s.rows_out,
            mat,
            batches,
            fmt_ns(s.ns)
        ))
    });
    text.push_str(&stats.render_summary());
    if let Some(e) = error {
        text.push_str(&format!("error: {e}\n"));
    }
    text
}

/// Outcome of [`Engine::execute`].
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one outcome per executed statement
pub enum ExecOutcome {
    /// A query's rows.
    Rows(QueryResult),
    /// A `CREATE TABLE` registered an (empty) collection with a declared
    /// row type.
    Created {
        /// The registered name.
        name: String,
        /// The declared structural row type.
        row_type: SqlppType,
    },
    /// An INSERT appended elements.
    Inserted {
        /// How many elements were inserted.
        count: usize,
    },
    /// A DELETE removed elements.
    Deleted {
        /// How many elements were removed.
        count: usize,
    },
    /// An UPDATE modified elements.
    Updated {
        /// How many elements were modified.
        count: usize,
    },
    /// An `EXPLAIN [ANALYZE]` rendered a plan.
    Explained {
        /// The rendered plan (annotated with runtime statistics under
        /// ANALYZE).
        text: String,
    },
}

/// A parsed-and-lowered query, reusable across executions.
///
/// The plan is stamped with the catalog schema epoch it was lowered
/// against. [`Prepared::execute`] checks the stamp and transparently
/// re-lowers (once per epoch, cached) when the catalog's schemas have
/// moved — stale plans are never executed. Cloning shares the refresh
/// cache, so one re-lowering serves every clone.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The parsed query, retained for re-lowering after schema changes.
    ast: Query,
    /// Prepare-time planner inputs, reused verbatim on re-lowering.
    compat: CompatMode,
    optimize: bool,
    /// The wall time of the text parse, when [`Engine::prepare`] made it.
    parse_ns: u64,
    /// The plan made at prepare time (valid while its epoch matches).
    planned: Arc<Planned>,
    /// Re-lowered plan for a later epoch, filled lazily on first execute
    /// after a schema change (interior-mutable so `&self` stays cheap).
    refreshed: Arc<RwLock<Option<Arc<Planned>>>>,
}

impl Prepared {
    /// The Core plan as lowered at prepare time.
    pub fn plan(&self) -> &CoreQuery {
        &self.planned.core
    }

    /// The catalog schema epoch this plan was lowered against.
    pub fn schema_epoch(&self) -> u64 {
        self.planned.epoch
    }

    /// The plan currently valid for `engine`'s catalog: the prepare-time
    /// plan when the schema epoch still matches, otherwise a plan
    /// re-lowered against the current schemas (computed at most once per
    /// epoch and cached).
    fn current_plan(&self, engine: &Engine) -> Result<Arc<Planned>> {
        let now = engine.catalog.schema_epoch();
        if now == self.planned.epoch {
            return Ok(Arc::clone(&self.planned));
        }
        {
            let cached = self.refreshed.read().unwrap_or_else(|e| e.into_inner());
            if let Some(planned) = cached.as_ref().filter(|p| p.epoch == now) {
                return Ok(Arc::clone(planned));
            }
        }
        // Stale: re-plan against a consistent (epoch, snapshot) pair
        // with the prepare-time planner configuration.
        let planned = plan(&engine.catalog, self.compat, self.optimize, &self.ast)?;
        let fresh = Arc::new(planned);
        *self.refreshed.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&fresh));
        Ok(fresh)
    }

    /// Executes against an engine, re-lowering first if the catalog's
    /// schemas changed since prepare time (the plan never runs stale).
    pub fn execute(&self, engine: &Engine) -> Result<QueryResult> {
        self.execute_with_params(engine, Vec::new())
    }

    /// Executes with positional parameters.
    pub fn execute_with_params(&self, engine: &Engine, params: Vec<Value>) -> Result<QueryResult> {
        let planned = self.current_plan(engine)?;
        Ok(QueryResult::new(engine.run(&planned, 0, params, false).0?))
    }

    /// Executes with positional parameters and statistics collection on,
    /// returning the result beside the stats — which a failed run keeps
    /// too, counted as far as it got. The phase times are those that
    /// made the plan: a repeated execution re-times only its eval phase.
    /// `None` stats mean the stale plan could not be re-lowered, so
    /// nothing ran.
    pub fn execute_with_stats(
        &self,
        engine: &Engine,
        params: Vec<Value>,
    ) -> (Result<QueryResult>, Option<ExecStats>) {
        match self.analyze(engine, params) {
            Ok((_, value, stats)) => (value.map(QueryResult::new), Some(stats)),
            Err(e) => (Err(e), None),
        }
    }

    /// The one stats-collecting run: the plan that ran, its outcome and
    /// its stats. `Err` only when re-lowering failed.
    fn analyze(
        &self,
        engine: &Engine,
        params: Vec<Value>,
    ) -> Result<(Arc<Planned>, Result<Value>, ExecStats)> {
        let planned = self.current_plan(engine)?;
        let (value, stats) = engine.run(&planned, self.parse_ns, params, true);
        Ok((planned, value, stats.expect("collect_stats is on")))
    }
}

/// Re-export of the qualified-name type for catalog manipulation.
pub type Name = QualifiedName;
