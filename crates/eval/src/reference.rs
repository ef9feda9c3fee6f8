//! A deliberately naive reference evaluator transcribing the paper's
//! Pseudocodes 1–2.
//!
//! > for each TUPLE e ∈ hr.emp_nest_tuples do
//! >   for each TUPLE p ∈ e.projects do
//! >     if p.name LIKE '%Security%' then output TUPLE …
//!
//! It supports exactly the SELECT–FROM–WHERE fragment the pseudocode
//! covers — left-correlated `FROM` collection items, a `WHERE` predicate,
//! and a `SELECT` list / `SELECT VALUE` projection — with no grouping,
//! ordering, joins, or subqueries. Its purpose is *differential testing*:
//! the streaming engine's output on this fragment must be bag-equal to
//! this transparent nested-loop semantics (see the workspace proptests).

use sqlpp_catalog::Catalog;
use sqlpp_plan::PlanConfig;
use sqlpp_syntax::ast::SelectClause::{Pivot, Select, SelectValue};
use sqlpp_syntax::ast::{FromItem, Query, SetExpr};
use sqlpp_value::Value;

use crate::env::Env;
use crate::error::EvalError;
use crate::interp::{EvalConfig, Evaluator};

/// Errors from the reference evaluator.
#[derive(Debug, Clone, PartialEq)]
pub enum ReferenceError {
    /// The query uses a feature outside the pseudocode fragment.
    Unsupported(&'static str),
    /// An underlying evaluation error.
    Eval(EvalError),
}

impl std::fmt::Display for ReferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReferenceError::Unsupported(what) => {
                write!(f, "reference evaluator does not support {what}")
            }
            ReferenceError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReferenceError {}

/// Evaluates a SELECT–FROM–WHERE query by literal nested loops.
///
/// Implementation note: expressions are still evaluated through the
/// engine's expression evaluator (re-implementing scalar semantics twice
/// would test nothing); what this function replaces is the *clause
/// pipeline* — binding generation, filtering, and projection are explicit
/// nested loops exactly as printed in the paper.
pub fn eval_sfw(query: &Query, catalog: &Catalog) -> Result<Value, ReferenceError> {
    eval_sfw_config(query, catalog, EvalConfig::default())
}

/// [`eval_sfw`] under an explicit evaluator configuration, so the
/// differential tests can pit the streaming engine against the
/// materialized nested loops in *both* typing modes: permissive runs must
/// produce identical bags, stop-on-error runs must surface an error on
/// the same inputs.
pub fn eval_sfw_config(
    query: &Query,
    catalog: &Catalog,
    config: EvalConfig,
) -> Result<Value, ReferenceError> {
    let block = match &query.body {
        SetExpr::Block(b) => b,
        SetExpr::SetOp { .. } => return Err(ReferenceError::Unsupported("set operations")),
    };
    if !query.ctes.is_empty() {
        return Err(ReferenceError::Unsupported("WITH"));
    }
    if !query.order_by.is_empty() || query.limit.is_some() || query.offset.is_some() {
        return Err(ReferenceError::Unsupported("ORDER BY / LIMIT"));
    }
    if block.group_by.is_some() || block.having.is_some() || !block.lets.is_empty() {
        return Err(ReferenceError::Unsupported("GROUP BY / HAVING / LET"));
    }
    let mut items = Vec::new();
    for item in &block.from {
        match item {
            FromItem::Collection { expr, as_var, .. } => {
                let var = as_var
                    .clone()
                    .or_else(|| expr.derived_alias().map(str::to_string))
                    .ok_or(ReferenceError::Unsupported("FROM item without alias"))?;
                items.push((expr.clone(), var));
            }
            _ => return Err(ReferenceError::Unsupported("joins / UNPIVOT")),
        }
    }
    if matches!(block.select, Pivot { .. }) {
        return Err(ReferenceError::Unsupported("PIVOT"));
    }

    // Reuse the engine's expression machinery by lowering each surface
    // expression on its own. A FROM item expression is lowered in the
    // scope of the variables to its left (left-correlation).
    let helper = Helper { catalog, config };
    let mut out = Vec::new();
    helper.loop_from(block, &items, 0, &Env::new(), &mut out)?;
    Ok(Value::Bag(out))
}

struct Helper<'a> {
    catalog: &'a Catalog,
    config: EvalConfig,
}

impl Helper<'_> {
    /// Pseudocode 1's nested loops, one recursion level per FROM item.
    fn loop_from(
        &self,
        block: &sqlpp_syntax::ast::QueryBlock,
        items: &[(sqlpp_syntax::ast::Expr, String)],
        depth: usize,
        env: &Env,
        out: &mut Vec<Value>,
    ) -> Result<(), ReferenceError> {
        if depth == items.len() {
            // WHERE, then output.
            if let Some(w) = &block.where_clause {
                let keep = self
                    .eval_expr(w, items, depth, env)
                    .map_err(ReferenceError::Eval)?;
                if keep != Value::Bool(true) {
                    return Ok(());
                }
            }
            let value = match &block.select {
                SelectValue { expr, .. } => self
                    .eval_expr(expr, items, depth, env)
                    .map_err(ReferenceError::Eval)?,
                Select {
                    items: sel_items, ..
                } => {
                    let mut t = sqlpp_value::Tuple::new();
                    for (i, item) in sel_items.iter().enumerate() {
                        let sqlpp_syntax::ast::SelectItem::Expr { expr, alias } = item else {
                            return Err(ReferenceError::Unsupported("wildcards"));
                        };
                        let name = alias
                            .clone()
                            .or_else(|| expr.derived_alias().map(str::to_string))
                            .unwrap_or_else(|| format!("_{}", i + 1));
                        let v = self
                            .eval_expr(expr, items, depth, env)
                            .map_err(ReferenceError::Eval)?;
                        t.insert(name, v);
                    }
                    Value::Tuple(t)
                }
                Pivot { .. } => unreachable!("checked"),
            };
            out.push(value);
            return Ok(());
        }
        let (src_expr, var) = &items[depth];
        let source = self
            .eval_expr(src_expr, items, depth, env)
            .map_err(ReferenceError::Eval)?;
        // "for each VALUE v ∈ source do …"
        let elements: Vec<Value> = match source {
            Value::Bag(v) | Value::Array(v) => v,
            Value::Missing => Vec::new(),
            other => vec![other],
        };
        for element in elements {
            let inner = env.bind(var.clone(), element);
            self.loop_from(block, items, depth + 1, &inner, out)?;
        }
        Ok(())
    }

    /// Evaluates one surface expression in the current environment by
    /// lowering it in a scope where the first `depth` FROM variables are
    /// declared (left-correlation).
    fn eval_expr(
        &self,
        expr: &sqlpp_syntax::ast::Expr,
        items: &[(sqlpp_syntax::ast::Expr, String)],
        depth: usize,
        env: &Env,
    ) -> Result<Value, EvalError> {
        let mut scope = sqlpp_plan::Scope::new();
        scope.push();
        for (_, var) in &items[..depth] {
            scope.add(var.clone());
        }
        let core = sqlpp_plan::lower_expr(expr, &PlanConfig::default(), &mut scope)
            .map_err(|e| EvalError::Type(e.to_string()))?;
        Evaluator::new(self.catalog, self.config.clone()).expr(&core, env)
    }
}
