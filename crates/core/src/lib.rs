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
use sqlpp_syntax::ast::Statement;
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
    /// Use the pipelined-aggregation fast path (§V-C).
    pub pipeline_aggregates: bool,
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
            pipeline_aggregates: true,
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
    /// folds it into a snapshot. Use [`Engine::load_pnotation`] (or any
    /// fallible loader) for crash-safe registration.
    pub fn register(&self, name: &str, value: Value) {
        self.catalog.set(name, value);
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

    /// Executes a statement: queries return rows, `CREATE TABLE`
    /// registers an empty (schema-attached) collection, and
    /// INSERT/DELETE/UPDATE mutate named collections (re-validating
    /// against any attached schema).
    pub fn execute(&self, src: &str) -> Result<ExecOutcome> {
        let parse_start = Instant::now();
        let parsed = sqlpp_syntax::parse_statement(src)?;
        let parse_ns = parse_start.elapsed().as_nanos() as u64;
        match parsed {
            Statement::Query(_) => Ok(ExecOutcome::Rows(self.query(src)?)),
            Statement::Explain { analyze, query } => {
                let text = if analyze {
                    let (core, _value, stats) = self.run_ast_with_stats(&query, parse_ns)?;
                    render_analysis(&core, &stats)
                } else {
                    let (core, _, _) = self.lower_timed(&query)?;
                    core.explain()
                };
                Ok(ExecOutcome::Explained { text })
            }
            Statement::CreateTable(ct) => {
                let ty = sqlpp_schema::hive::table_row_type(&ct);
                let name = ct.name.join(".");
                self.put_logged(name.as_str(), Value::empty_bag(), Some(&ty))?;
                Ok(ExecOutcome::Created { name, row_type: ty })
            }
            Statement::Insert(ins) => Ok(ExecOutcome::Inserted {
                count: self.exec_insert(&ins, false)?.0,
            }),
            Statement::Delete(del) => Ok(ExecOutcome::Deleted {
                count: self.exec_delete(&del, false)?.0,
            }),
            Statement::Update(up) => Ok(ExecOutcome::Updated {
                count: self.exec_update(&up, false)?.0,
            }),
        }
    }

    /// Like [`Engine::execute`], with statistics collection on: queries
    /// and DML statements return their [`ExecStats`] (phase times plus
    /// operator counters — for DML, the counters cover the statement's
    /// embedded query/predicate evaluation). Statements with no
    /// evaluation of their own (`CREATE TABLE`, `EXPLAIN`) return `None`.
    pub fn execute_with_stats(&self, src: &str) -> Result<(ExecOutcome, Option<ExecStats>)> {
        let parse_start = Instant::now();
        let parsed = sqlpp_syntax::parse_statement(src)?;
        let parse_ns = parse_start.elapsed().as_nanos() as u64;
        let finish = |mut stats: Option<ExecStats>, eval_ns: u64| {
            if let Some(st) = &mut stats {
                st.parse_ns = parse_ns;
                st.eval_ns = eval_ns;
            }
            stats
        };
        match parsed {
            Statement::Query(q) => {
                let (_core, value, stats) = self.run_ast_with_stats(&q, parse_ns)?;
                Ok((ExecOutcome::Rows(QueryResult::new(value)), Some(stats)))
            }
            Statement::Insert(ins) => {
                let t = Instant::now();
                let (count, stats) = self.exec_insert(&ins, true)?;
                let eval_ns = t.elapsed().as_nanos() as u64;
                Ok((ExecOutcome::Inserted { count }, finish(stats, eval_ns)))
            }
            Statement::Delete(del) => {
                let t = Instant::now();
                let (count, stats) = self.exec_delete(&del, true)?;
                let eval_ns = t.elapsed().as_nanos() as u64;
                Ok((ExecOutcome::Deleted { count }, finish(stats, eval_ns)))
            }
            Statement::Update(up) => {
                let t = Instant::now();
                let (count, stats) = self.exec_update(&up, true)?;
                let eval_ns = t.elapsed().as_nanos() as u64;
                Ok((ExecOutcome::Updated { count }, finish(stats, eval_ns)))
            }
            // No evaluation of their own: run the plain path.
            Statement::CreateTable(_) | Statement::Explain { .. } => Ok((self.execute(src)?, None)),
        }
    }

    /// Parses, plans, and runs a query.
    pub fn query(&self, src: &str) -> Result<QueryResult> {
        self.query_with_params(src, Vec::new())
    }

    /// Like [`Engine::query`], with positional `?` parameters.
    pub fn query_with_params(&self, src: &str, params: Vec<Value>) -> Result<QueryResult> {
        let prepared = self.prepare(src)?;
        prepared.execute_with_params(self, params)
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
        let ast = sqlpp_syntax::parse_query(src)?;
        let (epoch, schemas) = self.catalog.schema_state();
        let config = PlanConfig {
            compat: self.config.compat,
            schemas,
        };
        let mut core = lower_query(&ast, &config)?;
        if self.config.optimize {
            core = optimize(core);
        }
        Ok(Prepared {
            ast,
            compat: self.config.compat,
            optimize: self.config.optimize,
            epoch,
            core: Arc::new(core),
            refreshed: Arc::new(RwLock::new(None)),
        })
    }

    /// Lowers (and optionally optimizes) a parsed query, timing each
    /// phase for [`ExecStats`].
    fn lower_timed(&self, ast: &sqlpp_syntax::ast::Query) -> Result<(CoreQuery, u64, u64)> {
        let config = PlanConfig {
            compat: self.config.compat,
            schemas: self.catalog.schema_snapshot(),
        };
        let t = Instant::now();
        let mut core = lower_query(ast, &config)?;
        let lower_ns = t.elapsed().as_nanos() as u64;
        let mut optimize_ns = 0;
        if self.config.optimize {
            let t = Instant::now();
            core = optimize(core);
            optimize_ns = t.elapsed().as_nanos() as u64;
        }
        Ok((core, lower_ns, optimize_ns))
    }

    /// The lowered (Core) plan as text — SQL's EXPLAIN, and the mechanism
    /// by which the listing gallery shows the §V-C rewritings.
    pub fn explain(&self, src: &str) -> Result<String> {
        Ok(self.prepare(src)?.core.explain())
    }

    /// Runs a query with statistics collection on and returns its result
    /// with [`ExecStats`] attached (per-phase wall times plus operator
    /// counters). The ordinary [`Engine::query`] path carries no
    /// collector and pays nothing.
    pub fn query_with_stats(&self, src: &str) -> Result<QueryResult> {
        let (_core, value, stats) = self.run_with_stats(src)?;
        Ok(QueryResult::with_stats(value, stats))
    }

    /// `EXPLAIN ANALYZE`: executes the query with statistics collection
    /// on and renders the Core operator tree with each operator's
    /// calls/rows/time, followed by the phase-times and counters summary.
    pub fn explain_analyze(&self, src: &str) -> Result<String> {
        let (core, _value, stats) = self.run_with_stats(src)?;
        Ok(render_analysis(&core, &stats))
    }

    fn run_with_stats(&self, src: &str) -> Result<(CoreQuery, Value, ExecStats)> {
        let t = Instant::now();
        let ast = sqlpp_syntax::parse_query(src)?;
        let parse_ns = t.elapsed().as_nanos() as u64;
        self.run_ast_with_stats(&ast, parse_ns)
    }

    fn run_ast_with_stats(
        &self,
        ast: &sqlpp_syntax::ast::Query,
        parse_ns: u64,
    ) -> Result<(CoreQuery, Value, ExecStats)> {
        // Per-operator stats are keyed by the plan's pre-order index
        // (assigned by `Evaluator::run`), so the plan can move freely
        // between evaluation and annotation.
        let (core, lower_ns, optimize_ns) = self.lower_timed(ast)?;
        let evaluator = Evaluator::new(&self.catalog, self.eval_config(true));
        let t = Instant::now();
        let value = evaluator.run(&core)?;
        let eval_ns = t.elapsed().as_nanos() as u64;
        let mut stats = evaluator.stats_snapshot().expect("collect_stats is on");
        stats.parse_ns = parse_ns;
        stats.lower_ns = lower_ns;
        stats.optimize_ns = optimize_ns;
        stats.eval_ns = eval_ns;
        Ok((core, value, stats))
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
            // expression reading fails too.
            let expr = sqlpp_syntax::parse_expr_recovering(src);
            if expr.diags.is_empty() {
                if let Some(e) = expr.ast {
                    return self.check_expr_ast(src, e);
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
    fn check_query_ast(&self, src: &str, ast: &sqlpp_syntax::ast::Query) -> Vec<Diagnostic> {
        match self.lower_timed(ast) {
            Ok((core, _, _)) => sqlpp_plan::typecheck(&core, &self.catalog.schema_snapshot())
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

    /// [`Engine::check`] for a bare expression: wraps it in the same
    /// `SELECT VALUE` shell [`Engine::eval_expr`] uses and analyzes that.
    fn check_expr_ast(&self, src: &str, expr: sqlpp_syntax::ast::Expr) -> Vec<Diagnostic> {
        use sqlpp_syntax::ast::{Query, QueryBlock, SelectClause, SetExpr, SetQuantifier};
        let block = QueryBlock::with_select(SelectClause::SelectValue {
            quantifier: SetQuantifier::All,
            expr,
        });
        let q = Query {
            ctes: Vec::new(),
            body: SetExpr::Block(Box::new(block)),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        };
        self.check_query_ast(src, &q)
    }

    /// Evaluates a standalone SQL++ *expression* (full composability:
    /// "subqueries can appear anywhere", and so can bare constructors like
    /// Listing 16's `{{ {'avgsal': COLL_AVG(SELECT VALUE …)} }}`).
    pub fn eval_expr(&self, src: &str) -> Result<Value> {
        Ok(self.eval_expr_with(src, false)?.0)
    }

    /// [`Engine::eval_expr`] with optional statistics collection (used by
    /// DML under [`Engine::execute_with_stats`]).
    pub(crate) fn eval_expr_with(
        &self,
        src: &str,
        collect_stats: bool,
    ) -> Result<(Value, Option<ExecStats>)> {
        use sqlpp_syntax::ast::{Query, QueryBlock, SelectClause, SetExpr, SetQuantifier};
        let expr = sqlpp_syntax::parse_expr(src)?;
        let block = QueryBlock::with_select(SelectClause::SelectValue {
            quantifier: SetQuantifier::All,
            expr,
        });
        let q = Query {
            ctes: Vec::new(),
            body: SetExpr::Block(Box::new(block)),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        };
        let config = PlanConfig {
            compat: self.config.compat,
            schemas: self.catalog.schema_snapshot(),
        };
        let mut core = lower_query(&q, &config)?;
        if self.config.optimize {
            core = optimize(core);
        }
        let evaluator = Evaluator::new(&self.catalog, self.eval_config(collect_stats));
        let bag = evaluator.run(&core)?;
        let stats = evaluator.stats_snapshot();
        // A FROM-less SELECT VALUE produces a singleton bag; unwrap it.
        let value = match bag {
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
            pipeline_aggregates: self.config.pipeline_aggregates,
            collect_stats,
            limits: self.config.limits.clone(),
            fault: self.config.fault.clone(),
            batch_size: self.config.batch_size,
            spill: self.config.spill.clone(),
        }
    }
}

/// Renders an `EXPLAIN ANALYZE` report: the operator tree with per-node
/// `[streaming|materializing calls=… rows=… time=…]` annotations, then
/// the phase/counter summary. Operators that buffered rows also show
/// their high-water mark as `mat=…`; operators that streamed show how
/// many batches they emitted as `batches=…`.
fn render_analysis(core: &CoreQuery, stats: &ExecStats) -> String {
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
            " [{} calls={} rows={}{}{} time={}]",
            op.pipeline_class(),
            s.calls,
            s.rows_out,
            mat,
            batches,
            fmt_ns(s.ns)
        ))
    });
    text.push_str(&stats.render_summary());
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
    ast: sqlpp_syntax::ast::Query,
    /// Prepare-time planner inputs, reused verbatim on re-lowering.
    compat: CompatMode,
    optimize: bool,
    /// Catalog schema epoch the plan below was lowered against.
    epoch: u64,
    /// The plan lowered at prepare time (valid while the epoch matches).
    core: Arc<CoreQuery>,
    /// Re-lowered plan for a later epoch, filled lazily on first execute
    /// after a schema change (interior-mutable so `&self` stays cheap).
    refreshed: Arc<RwLock<Option<(u64, Arc<CoreQuery>)>>>,
}

impl Prepared {
    /// The Core plan as lowered at prepare time.
    pub fn plan(&self) -> &CoreQuery {
        &self.core
    }

    /// The catalog schema epoch this plan was lowered against.
    pub fn schema_epoch(&self) -> u64 {
        self.epoch
    }

    /// The plan currently valid for `engine`'s catalog: the prepare-time
    /// plan when the schema epoch still matches, otherwise a plan
    /// re-lowered against the current schemas (computed at most once per
    /// epoch and cached).
    fn current_plan(&self, engine: &Engine) -> Result<Arc<CoreQuery>> {
        let now = engine.catalog.schema_epoch();
        if now == self.epoch {
            return Ok(Arc::clone(&self.core));
        }
        {
            let cached = self.refreshed.read().unwrap_or_else(|e| e.into_inner());
            if let Some((e, plan)) = cached.as_ref() {
                if *e == now {
                    return Ok(Arc::clone(plan));
                }
            }
        }
        // Stale: re-lower against a consistent (epoch, snapshot) pair
        // with the prepare-time planner configuration.
        let (epoch, schemas) = engine.catalog.schema_state();
        let config = PlanConfig {
            compat: self.compat,
            schemas,
        };
        let mut core = lower_query(&self.ast, &config)?;
        if self.optimize {
            core = optimize(core);
        }
        let plan = Arc::new(core);
        *self.refreshed.write().unwrap_or_else(|e| e.into_inner()) =
            Some((epoch, Arc::clone(&plan)));
        Ok(plan)
    }

    /// Executes against an engine, re-lowering first if the catalog's
    /// schemas changed since prepare time (the plan never runs stale).
    pub fn execute(&self, engine: &Engine) -> Result<QueryResult> {
        self.execute_with_params(engine, Vec::new())
    }

    /// Executes with positional parameters.
    pub fn execute_with_params(&self, engine: &Engine, params: Vec<Value>) -> Result<QueryResult> {
        let plan = self.current_plan(engine)?;
        let evaluator =
            Evaluator::new(&engine.catalog, engine.eval_config(false)).with_params(params);
        Ok(QueryResult::new(evaluator.run(&plan)?))
    }
}

/// Re-export of the qualified-name type for catalog manipulation.
pub type Name = QualifiedName;
