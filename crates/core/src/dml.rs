//! DML over named collections: INSERT / DELETE / UPDATE.
//!
//! The paper defines a query language; a system a downstream user adopts
//! also needs to put data *in*. These statements follow PartiQL's DML
//! surface (`INSERT INTO t VALUE …`, `DELETE FROM t WHERE …`,
//! `UPDATE t SET … WHERE …`) and respect the engine's semantics: the
//! predicate sees each element under the range variable with full SQL++
//! three-valued logic (an element whose predicate is NULL or MISSING is
//! *not* affected), and collections with an attached schema re-validate on
//! every mutation — the optional-schema tenet extended to writes.
//!
//! **Atomicity.** Every statement is snapshot-or-rollback: it reads an
//! `Arc` snapshot of the target, computes the complete replacement value
//! off to the side (evaluating predicates, sources, and assignments —
//! each a possible failure point under strict typing, resource budgets,
//! or injected faults), and only then publishes it through the single
//! [`Engine::commit_collection`] call. Any error on the way out leaves
//! the catalog byte-identical to the snapshot — there is no partially
//! mutated state to roll back because the stored value is never mutated
//! in place. The chaos suite (`tests/chaos.rs`) snapshot-compares the
//! catalog around every failed DML to pin this.
//!
//! **Concurrency.** Snapshot-and-replace alone is not enough once
//! several sessions write at once: two INSERTs that clone the same
//! snapshot would each commit a replacement missing the other's rows
//! (a lost update). Every statement therefore holds the catalog's
//! [`dml_guard`](sqlpp_catalog::Catalog::dml_guard) from its target
//! read through its commit, serializing writers per catalog. Readers
//! never take that lock — queries keep their lock-free `Arc` snapshots
//! — and INSERT evaluates its source *before* acquiring it, so only
//! the read-modify-write window is serialized. The threaded storm in
//! `tests/serving.rs` and the B16 mixed workload (8 sessions, 1-in-8
//! DML, exact-count assertion) pin this under real contention.

use sqlpp_eval::{Env, Evaluator, ExecStats};
use sqlpp_plan::lower::lower_with_scope;
use sqlpp_plan::{CoreExpr, CoreOp, PlanConfig, Scope};
use sqlpp_schema::Validator;
use sqlpp_syntax::ast::{
    Delete, Expr, Insert, InsertSource, PathStep, Query, QueryBlock, SelectClause, SetExpr,
    SetQuantifier, Update,
};
use sqlpp_value::{Tuple, Value};

use crate::error::{Error, Result};
use crate::Engine;

/// A collection's elements plus the constructor restoring its kind.
type ElementsAndKind = (Vec<Value>, fn(Vec<Value>) -> Value);

/// Splits a mutable-collection target into elements + rebuilder.
fn open_collection(stmt: &str, name: &str, v: Value) -> Result<ElementsAndKind> {
    match v {
        Value::Bag(items) => Ok((items, Value::Bag)),
        Value::Array(items) => Ok((items, Value::Array)),
        other => Err(Error::Usage(format!(
            "{stmt} target {name} is a {}, not a collection",
            other.kind().name()
        ))),
    }
}

impl Engine {
    /// The single commit point for all DML: replaces `name`'s binding
    /// with a fully computed value. On a durable engine the replacement
    /// is appended to the write-ahead log *before* the catalog publishes
    /// it — the only failure this call can produce. A failed append
    /// leaves the catalog byte-identical to the snapshot the statement
    /// read (the in-memory publish never happens), so statement
    /// atomicity holds on both sides of a crash. The caller already
    /// holds the catalog's `dml_guard` here, which is what lets
    /// [`Engine::checkpoint`] capture images that match the log exactly.
    fn commit_collection(&self, name: &str, value: Value) -> Result<()> {
        if let Some(wal) = self.wal() {
            wal.append_commit(name, &value)?;
        }
        self.catalog().set(name, value);
        Ok(())
    }

    pub(crate) fn exec_insert(
        &self,
        ins: &Insert,
        collect: bool,
    ) -> Result<(usize, Option<ExecStats>)> {
        let name = ins.target.join(".");
        let mut stats: Option<ExecStats> = None;
        let new_elements: Vec<Value> = match &ins.source {
            InsertSource::Value(expr) => {
                let (v, st) = self.eval_expr_with(&sqlpp_syntax::print_expr(expr), collect)?;
                stats = st;
                vec![v]
            }
            InsertSource::Query(q) => {
                let src = sqlpp_syntax::print_query(q);
                let result = if collect {
                    let (_core, value, st) = self.run_with_stats(&src)?;
                    stats = Some(st);
                    value
                } else {
                    self.query(&src)?.into_value()
                };
                match result {
                    Value::Bag(items) | Value::Array(items) => items,
                    single => vec![single],
                }
            }
        };
        // Schema enforcement on write (all-or-nothing).
        if let Some(schema) = self.catalog().schema(&crate::Name::parse(&name)) {
            let validator = Validator::new((*schema).clone());
            for (i, v) in new_elements.iter().enumerate() {
                if !validator.is_valid_element(v) {
                    return Err(Error::Schema(format!(
                        "INSERT INTO {name}: element {i} ({}) does not conform \
                         to the attached schema {}",
                        v.kind().name(),
                        schema
                    )));
                }
            }
        }
        let count = new_elements.len();
        // Serialize the read-modify-write against concurrent writers; the
        // source evaluation above ran lock-free on its own snapshot.
        let _writers = self.catalog().dml_guard();
        let updated = match self.catalog().get_str(&name) {
            Ok(existing) => match (*existing).clone() {
                Value::Bag(mut items) => {
                    items.extend(new_elements);
                    Value::Bag(items)
                }
                Value::Array(mut items) => {
                    items.extend(new_elements);
                    Value::Array(items)
                }
                other => {
                    return Err(Error::Usage(format!(
                        "INSERT target {name} is a {}, not a collection",
                        other.kind().name()
                    )));
                }
            },
            // Inserting into an unbound name creates a bag.
            Err(_) => Value::Bag(new_elements),
        };
        self.commit_collection(&name, updated)?;
        Ok((count, stats))
    }

    pub(crate) fn exec_delete(
        &self,
        del: &Delete,
        collect: bool,
    ) -> Result<(usize, Option<ExecStats>)> {
        let name = del.target.join(".");
        let alias = del
            .alias
            .clone()
            .unwrap_or_else(|| del.target.last().expect("non-empty name").clone());
        // Held through commit: the kept-rows computation depends on the
        // snapshot read here, so a concurrent writer must wait.
        let _writers = self.catalog().dml_guard();
        let existing = self.catalog().get_str(&name)?;
        let (items, rebuild) = open_collection("DELETE", &name, (*existing).clone())?;
        let matcher = self.compile_row_predicate(&del.where_clause, &alias)?;
        let evaluator = Evaluator::new(self.catalog(), self.eval_config(collect));
        let mut kept = Vec::with_capacity(items.len());
        let mut deleted = 0usize;
        for item in items {
            if row_matches(&evaluator, &matcher, &alias, &item)? {
                deleted += 1;
            } else {
                kept.push(item);
            }
        }
        self.commit_collection(&name, rebuild(kept))?;
        Ok((deleted, evaluator.stats_snapshot()))
    }

    pub(crate) fn exec_update(
        &self,
        up: &Update,
        collect: bool,
    ) -> Result<(usize, Option<ExecStats>)> {
        let name = up.target.join(".");
        let alias = up
            .alias
            .clone()
            .unwrap_or_else(|| up.target.last().expect("non-empty name").clone());
        // Held through commit, as in DELETE: the rebuilt collection is
        // derived from the snapshot read here.
        let _writers = self.catalog().dml_guard();
        let existing = self.catalog().get_str(&name)?;
        let (items, rebuild) = open_collection("UPDATE", &name, (*existing).clone())?;
        let matcher = self.compile_row_predicate(&up.where_clause, &alias)?;
        // Each assignment: an attribute path (rooted at the element) and a
        // compiled RHS evaluated against the OLD element, SQL-style.
        let mut compiled: Vec<(Vec<String>, CoreExpr)> = Vec::new();
        for (path, value) in &up.assignments {
            let attrs = assignment_path(path, &alias)?;
            compiled.push((attrs, self.compile_row_expr(value, &alias)?));
        }
        let evaluator = Evaluator::new(self.catalog(), self.eval_config(collect));
        let mut updated_items = Vec::with_capacity(items.len());
        let mut updated = 0usize;
        let schema = self.catalog().schema(&crate::Name::parse(&name));
        for item in items {
            if !row_matches(&evaluator, &matcher, &alias, &item)? {
                updated_items.push(item);
                continue;
            }
            let env = Env::new().bind(alias.clone(), item.clone());
            // Evaluate every RHS against the old element first.
            let mut new_values = Vec::with_capacity(compiled.len());
            for (_, rhs) in &compiled {
                new_values.push(evaluator.expr(rhs, &env)?);
            }
            let mut element = item;
            for ((attrs, _), value) in compiled.iter().zip(new_values) {
                element = set_path(element, attrs, value)?;
            }
            if let Some(schema) = &schema {
                if !Validator::new((**schema).clone()).is_valid_element(&element) {
                    return Err(Error::Schema(format!(
                        "UPDATE {name}: updated element does not conform to \
                         the attached schema {schema}"
                    )));
                }
            }
            updated += 1;
            updated_items.push(element);
        }
        self.commit_collection(&name, rebuild(updated_items))?;
        Ok((updated, evaluator.stats_snapshot()))
    }

    /// Compiles a WHERE predicate with `alias` in scope; `None` matches
    /// everything.
    fn compile_row_predicate(&self, pred: &Option<Expr>, alias: &str) -> Result<Option<CoreExpr>> {
        match pred {
            None => Ok(None),
            Some(p) => Ok(Some(self.compile_row_expr(p, alias)?)),
        }
    }

    /// Lowers one expression with `alias` (and the catalog schemas) in
    /// scope, reusing the planner end to end.
    fn compile_row_expr(&self, expr: &Expr, alias: &str) -> Result<CoreExpr> {
        let mut scope = Scope::new();
        scope.push();
        scope.add(alias.to_string());
        let block = QueryBlock::with_select(SelectClause::SelectValue {
            quantifier: SetQuantifier::All,
            expr: expr.clone(),
        });
        let q = Query {
            ctes: Vec::new(),
            body: SetExpr::Block(Box::new(block)),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        };
        let config = PlanConfig {
            compat: self.config().compat,
            schemas: self.catalog().schema_snapshot(),
        };
        let core = lower_with_scope(&q, &config, &mut scope).map_err(Error::Plan)?;
        match core.op {
            CoreOp::Project { expr, .. } => Ok(expr),
            other => Err(Error::Usage(format!(
                "unexpected lowering for DML expression: {other:?}"
            ))),
        }
    }
}

/// Three-valued match: only a TRUE predicate affects the row. Takes the
/// statement's evaluator so its stats accumulate across all rows.
fn row_matches<'a>(
    evaluator: &Evaluator<'a>,
    matcher: &'a Option<CoreExpr>,
    alias: &str,
    item: &Value,
) -> Result<bool> {
    let Some(pred) = matcher else {
        return Ok(true);
    };
    let env = Env::new().bind(alias.to_string(), item.clone());
    Ok(matches!(evaluator.expr(pred, &env)?, Value::Bool(true)))
}

/// Normalizes a SET path to the attribute chain below the element:
/// `alias.a.b`, or bare `a.b` (rooted implicitly).
fn assignment_path(path: &Expr, alias: &str) -> Result<Vec<String>> {
    let Expr::Path { head, steps } = path else {
        return Err(Error::Usage(
            "SET target must be an attribute path".to_string(),
        ));
    };
    let mut attrs: Vec<String> = Vec::with_capacity(steps.len() + 1);
    if head != alias {
        attrs.push(head.clone());
    }
    for step in steps {
        match step {
            PathStep::Attr(a) => attrs.push(a.clone()),
            PathStep::Index(_) => {
                return Err(Error::Usage(
                    "SET through array indices is not supported".to_string(),
                ));
            }
        }
    }
    if attrs.is_empty() {
        return Err(Error::Usage(
            "SET target must name an attribute, not the whole element".to_string(),
        ));
    }
    Ok(attrs)
}

/// Functional update of `element.attrs… = value`; intermediate tuples are
/// created as needed, and a MISSING value removes the attribute (the
/// write-side mirror of tuple construction dropping MISSING).
fn set_path(element: Value, attrs: &[String], value: Value) -> Result<Value> {
    let mut t = match element {
        Value::Tuple(t) => t,
        other => {
            return Err(Error::Usage(format!(
                "cannot SET attribute {:?} of a {}",
                attrs[0],
                other.kind().name()
            )));
        }
    };
    let (first, rest) = attrs.split_first().expect("non-empty path");
    if rest.is_empty() {
        if value.is_missing() {
            t.remove(first);
        } else {
            t.upsert(first.clone(), value);
        }
        return Ok(Value::Tuple(t));
    }
    let inner = t
        .remove(first)
        .unwrap_or_else(|| Value::Tuple(Tuple::new()));
    let updated = set_path(inner, rest, value)?;
    t.upsert(first.clone(), updated);
    Ok(Value::Tuple(t))
}

/// Needed by exec_* above; re-exported from the schema validator.
trait ValidatorExt {
    fn is_valid_element(&self, v: &Value) -> bool;
}

impl ValidatorExt for Validator {
    fn is_valid_element(&self, v: &Value) -> bool {
        self.element_type().admits(v)
    }
}
