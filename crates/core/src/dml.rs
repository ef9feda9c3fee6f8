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
//! **One row loop.** DELETE and UPDATE read the statement's snapshot
//! through the query engine's row loop ([`Evaluator::for_each_match`]):
//! the WHERE is its predicate, UPDATE's SET right-hand sides its outputs
//! (run against the old element). A row is cloned only when UPDATE
//! rewrites it, and deadlines, cancellation, faults and stats reach DML
//! through the loop, as they reach a query.
//!
//! **Atomicity.** Every statement is snapshot-or-rollback: it reads an
//! `Arc` snapshot of the target, computes a [`Delta`] against the
//! snapshot's elements (evaluating predicates, sources, and assignments
//! — each a possible failure point under strict typing, resource
//! budgets, or injected faults — and copying only the rows it inserts
//! or rewrites), and only then commits the delta through the single
//! [`Engine::commit_collection`] call: one WAL record, then one patch
//! of the stored collection. Any error before the commit leaves the
//! catalog byte-identical to the snapshot — nothing was mutated yet —
//! and the commit validates the delta against the snapshot before it
//! logs, so the patch cannot fail once the record is in the log. The
//! chaos suite (`tests/chaos.rs`) snapshot-compares the catalog around
//! every failed DML to pin this.
//!
//! **Concurrency.** A delta is positional: it is only meaningful on
//! the snapshot it was computed from. Two INSERTs off the same snapshot
//! would be harmless, but a DELETE's positions on a base another writer
//! (or a `register`) has since replaced would hit the wrong rows. Every
//! statement therefore holds the catalog's
//! [`dml_guard`](sqlpp_catalog::Catalog::dml_guard) from its target
//! read through its commit, serializing writers per catalog. Readers
//! never take that lock — queries keep their lock-free `Arc` snapshots
//! — and INSERT evaluates its source *before* acquiring it, so only
//! the read-modify-write window is serialized. The threaded storm and
//! the eight-session mixed workload in `tests/serving.rs` (1-in-8 DML,
//! exact-count assertion) pin this under real contention.

use sqlpp_eval::{Evaluator, ExecStats};
use sqlpp_plan::{lower_expr, CoreExpr, PlanConfig, Scope};
use sqlpp_schema::SqlppType;
use sqlpp_syntax::ast::{Delete, Expr, Insert, InsertSource, PathStep, Update};
use sqlpp_value::{Delta, Tuple, Value};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::{Engine, ExecOutcome};

/// What a DML statement hands the dispatcher: its outcome plus, when
/// collected, the stats of its embedded query/predicate evaluation.
type Executed = (ExecOutcome, Option<ExecStats>);

/// The range variable a DELETE/UPDATE binds each element under: the
/// explicit alias, else the last segment of the target name.
fn row_alias(alias: &Option<String>, target: &[String]) -> String {
    alias
        .clone()
        .unwrap_or_else(|| target.last().expect("non-empty name").clone())
}

impl Engine {
    /// The single commit point for all DML: commits `delta`, computed
    /// against `base` (the snapshot the statement read; `None` for an
    /// unbound name). The delta is checked against the snapshot first,
    /// then — on a durable engine — logged as one `patch` record, then
    /// patched into the catalog ([`Catalog::apply`]: in place when no
    /// reader shares the value). The append is the only failure this
    /// call can produce, and a failed append leaves the catalog
    /// byte-identical to the snapshot, so statement atomicity holds on
    /// both sides of a crash. The caller already holds the catalog's
    /// `dml_guard`, which is what lets [`Engine::checkpoint`] capture
    /// images that match the log exactly.
    ///
    /// A name `register` bound without logging is the one exception:
    /// replay cannot rebuild its base, so its next statement logs the
    /// whole post-image as a `commit` record, which anchors the name.
    ///
    /// [`Catalog::apply`]: sqlpp_catalog::Catalog::apply
    fn commit_collection(&self, name: &str, base: Option<Arc<Value>>, delta: Delta) -> Result<()> {
        let len = base
            .as_deref()
            .and_then(Value::as_elements)
            .map_or(0, <[Value]>::len);
        let misfit = |e: String| Error::Usage(format!("{name}: {e}"));
        delta.check(len).map_err(misfit)?;
        if let Some(wal) = self.wal() {
            if !wal.is_anchored(name) {
                let post = match base {
                    Some(base) => {
                        let mut post = Value::clone(&base);
                        delta.apply_to(&mut post).map_err(misfit)?;
                        post
                    }
                    None => delta.create().map_err(misfit)?,
                };
                wal.append_commit(name, &post)?;
                self.catalog().set(name, post);
                return Ok(());
            }
            wal.append_patch(name, &delta)?;
        }
        // Release the snapshot first, or the catalog finds the value
        // shared and patches a copy.
        drop(base);
        self.catalog().apply(name, delta).map_err(misfit)
    }

    /// The skeleton every DML statement runs: take the catalog's
    /// `dml_guard`, read the target's `Arc` snapshot (an empty bag for an
    /// unbound name), let `rewrite` compute a delta against it, and commit it
    /// through [`Engine::commit_collection`]. The guard is held from
    /// the snapshot read through the commit — the delta's positions
    /// index that snapshot, so a concurrent writer must wait. `rewrite`
    /// also receives the target's attached element schema (looked up
    /// once per statement) and returns whatever the statement reports
    /// alongside the delta; any error out of it leaves the catalog
    /// untouched.
    fn rewrite_collection<T>(
        &self,
        stmt: &str,
        name: &str,
        create_if_unbound: bool,
        rewrite: impl FnOnce(Arc<Value>, Option<&SqlppType>) -> Result<(Delta, T)>,
    ) -> Result<T> {
        let _writers = self.catalog().dml_guard();
        let base = match self.catalog().get_str(name) {
            Ok(existing) => Some(existing),
            Err(_) if create_if_unbound => None,
            Err(e) => return Err(e.into()),
        };
        let snapshot = match &base {
            None => Arc::new(Value::Bag(Vec::new())),
            Some(base) if base.as_elements().is_some() => Arc::clone(base),
            Some(other) => {
                return Err(Error::Usage(format!(
                    "{stmt} target {name} is a {}, not a collection",
                    other.kind().name()
                )))
            }
        };
        let schema = self.catalog().schema(&crate::Name::parse(name));
        let (delta, report) = rewrite(snapshot, schema.as_deref())?;
        self.commit_collection(name, base, delta)?;
        Ok(report)
    }

    pub(crate) fn exec_insert(&self, ins: &Insert, collect: bool) -> Result<Executed> {
        let name = ins.target.join(".");
        // The source evaluates lock-free on its own snapshot, before the
        // writer guard is taken: as the FROM-less `SELECT VALUE e` plan
        // for `VALUE e`, as its own plan for a query.
        let (new_elements, stats) = match &ins.source {
            InsertSource::Value(expr) => {
                let (v, stats) = self.eval_value_expr(expr.clone(), collect)?;
                (vec![v], stats)
            }
            InsertSource::Query(q) => {
                let (_, result, stats) = self.plan_and_run(q, 0, collect)?;
                let items = match result? {
                    Value::Bag(items) | Value::Array(items) => items,
                    single => vec![single],
                };
                (items, stats)
            }
        };
        // Inserting into an unbound name creates a bag.
        let count = self.rewrite_collection("INSERT", &name, true, |_, schema| {
            // Schema enforcement on write (all-or-nothing).
            if let Some(schema) = schema {
                if let Some((i, v)) =
                    (new_elements.iter().enumerate()).find(|(_, v)| !schema.admits(v))
                {
                    return Err(Error::Schema(format!(
                        "INSERT INTO {name}: element {i} ({}) does not conform \
                         to the attached schema {schema}",
                        v.kind().name(),
                    )));
                }
            }
            let count = new_elements.len();
            Ok((Delta::Insert(new_elements), count))
        })?;
        Ok((ExecOutcome::Inserted { count }, stats))
    }

    pub(crate) fn exec_delete(&self, del: &Delete, collect: bool) -> Result<Executed> {
        let name = del.target.join(".");
        let alias = row_alias(&del.alias, &del.target);
        self.rewrite_collection("DELETE", &name, false, |target, _| {
            let pred = (del.where_clause.as_ref())
                .map(self.row_expr_lowerer(&alias))
                .transpose()?;
            let evaluator = Evaluator::new(self.catalog(), self.eval_config(collect));
            let mut doomed = Vec::new();
            evaluator.for_each_match(target, &alias, pred.as_ref(), &[], |at, _, _| {
                doomed.push(at);
                Ok::<_, Error>(())
            })?;
            let outcome = ExecOutcome::Deleted {
                count: doomed.len(),
            };
            Ok((Delta::Delete(doomed), (outcome, evaluator.stats_snapshot())))
        })
    }

    pub(crate) fn exec_update(&self, up: &Update, collect: bool) -> Result<Executed> {
        let name = up.target.join(".");
        let alias = row_alias(&up.alias, &up.target);
        self.rewrite_collection("UPDATE", &name, false, |target, schema| {
            let mut lower = self.row_expr_lowerer(&alias);
            let pred = up.where_clause.as_ref().map(&mut lower).transpose()?;
            // Each assignment: an attribute path (rooted at the element) and
            // its right-hand side, evaluated against the OLD element,
            // SQL-style: the loop runs every one before the row is rewritten.
            let (mut paths, mut rhs) = (Vec::new(), Vec::new());
            for (path, value) in &up.assignments {
                paths.push(assignment_path(path, &alias)?);
                rhs.push(lower(value)?);
            }
            let sets: Vec<&CoreExpr> = rhs.iter().collect();
            let evaluator = Evaluator::new(self.catalog(), self.eval_config(collect));
            let mut updated = Vec::new();
            evaluator.for_each_match(target, &alias, pred.as_ref(), &sets, |at, old, values| {
                let mut element = old.clone();
                for (attrs, value) in paths.iter().zip(values) {
                    element = set_path(element, attrs, value)?;
                }
                if let Some(schema) = schema.filter(|s| !s.admits(&element)) {
                    return Err(Error::Schema(format!(
                        "UPDATE {name}: updated element does not conform to \
                         the attached schema {schema}"
                    )));
                }
                updated.push((at, element));
                Ok(())
            })?;
            let outcome = ExecOutcome::Updated {
                count: updated.len(),
            };
            Ok((
                Delta::Update(updated),
                (outcome, evaluator.stats_snapshot()),
            ))
        })
    }

    /// A lowering function for one statement's row expressions (WHERE
    /// predicate, SET right-hand sides): `alias` and the catalog schemas
    /// in scope, through the planner's own expression lowering.
    fn row_expr_lowerer(&self, alias: &str) -> impl FnMut(&Expr) -> Result<CoreExpr> {
        let config = PlanConfig {
            compat: self.config().compat,
            schemas: self.catalog().schema_snapshot(),
        };
        let mut scope = Scope::new();
        scope.push();
        scope.add(alias.to_string());
        move |expr| Ok(lower_expr(expr, &config, &mut scope)?)
    }
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
    // The first attribute named `first` is rewritten in its own position,
    // as a flat SET's `upsert` does; an absent one is appended.
    let mut pending = Some(value);
    let mut out = Tuple::with_capacity(t.len() + 1);
    for (name, inner) in t {
        let inner = match pending.take() {
            Some(value) if name == **first => set_path(inner, rest, value)?,
            other => {
                pending = other;
                inner
            }
        };
        out.insert(name, inner);
    }
    if let Some(value) = pending {
        let inner = set_path(Value::Tuple(Tuple::new()), rest, value)?;
        out.insert(first.clone(), inner);
    }
    Ok(Value::Tuple(out))
}
