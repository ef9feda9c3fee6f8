//! Lowering: the surface language → SQL++ Core.
//!
//! This module is the paper's central construction. Every SQL-compatibility
//! feature is a *rewriting* into the fully composable Core:
//!
//! * `SELECT e1 AS a1, …` ⇒ `SELECT VALUE {a1: e1, …}` (§V-A);
//! * SQL aggregates ⇒ (implicit) `GROUP … GROUP AS g` + `COLL_*` over a
//!   `FROM g AS $gi SELECT VALUE …` subquery (§V-C, Listings 15–18);
//! * SQL subqueries ⇒ subqueries with a context-chosen [`Coercion`] in
//!   SQL-compatibility mode — never for `SELECT VALUE` (§V-A);
//! * `SELECT *` ⇒ a tuple merge of the FROM variables;
//! * simple `CASE x WHEN v …` ⇒ searched CASE;
//! * `RIGHT JOIN` ⇒ mirrored `LEFT JOIN`.
//!
//! Toggling [`CompatMode`] literally toggles which rewritings apply — "a
//! SQL compatibility flag in SQL++ whose setting can be toggled between
//! prioritizing composability or prioritizing SQL compatibility" (§I).
//!
//! The AST rewrites that run before an expression is lowered (finding SQL
//! aggregates, extracting window functions, the grouped rewrite and the
//! rebasing of an aggregate's argument onto the group's members) recurse
//! through [`Expr::for_each_child`] and its `_mut` twin, so they reach
//! path indexes, IN lists and window keys alike; only the lowering of
//! each variant itself (`Planner::expr`) matches them one by one.

use sqlpp_syntax::ast::{
    self, Expr, FromItem, GroupBy, JoinKind, OrderItem, Query, SelectClause, SelectItem, SetExpr,
    SetQuantifier, TypeExpr,
};
use sqlpp_value::Value;

use crate::core::{
    AggFunc, Coercion, CoreExpr, CoreFrom, CoreJoinKind, CoreOp, CoreQuery, CoreSetOp, CoreSortKey,
    GroupFold, WindowDef, WindowFunc, SET_OP_ELEMENT,
};
use crate::error::PlanError;
use crate::scope::{Disambiguation, Scope};

/// The paper's SQL-compatibility flag (§I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompatMode {
    /// Prioritize SQL compatibility: SELECT-list subqueries coerce by
    /// context, and SQL queries behave exactly as in SQL.
    #[default]
    SqlCompat,
    /// Prioritize composability: `SELECT` is a pure shorthand for
    /// `SELECT VALUE` and subqueries always denote their bag.
    Composable,
}

/// Planner configuration.
#[derive(Debug, Clone, Default)]
pub struct PlanConfig {
    /// Compatibility flag.
    pub compat: CompatMode,
    /// `(dotted catalog name, element type)` schema attachments enabling
    /// the paper's §III schema-based disambiguation of bare identifiers.
    pub schemas: Vec<(String, sqlpp_schema::SqlppType)>,
}

/// Lowers a parsed query to Core.
pub fn lower_query(q: &Query, config: &PlanConfig) -> Result<CoreQuery, PlanError> {
    let mut scope = Scope::new();
    scope.push();
    Planner { config }.query(q, &mut scope)
}

/// Lowers one expression in a caller-provided scope that may already
/// declare variables: the row alias of a DML predicate or assignment,
/// the FROM variables of the Pseudocode reference oracle. Outside a
/// query block there is no grouping context, so SQL aggregates and
/// window functions are rejected as misplaced.
pub fn lower_expr(e: &Expr, config: &PlanConfig, scope: &mut Scope) -> Result<CoreExpr, PlanError> {
    Planner { config }.expr(e, scope, Ctx::Scalar)
}

/// Expression contexts that drive subquery coercion (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    /// Ordinary value position: SQL scalar-subquery coercion applies.
    Scalar,
    /// Right-hand side of IN: collection coercion applies.
    CollectionRhs,
    /// FROM sources and other collection positions: no coercion.
    Source,
}

struct Planner<'a> {
    config: &'a PlanConfig,
}

/// Internal name of the synthesized group variable when the query spelled
/// no `GROUP AS`.
const SYNTH_GROUP: &str = "$group";
/// Internal name of the per-group element variable in rewritten aggregates.
const SYNTH_GROUP_ITEM: &str = "$gi";

impl Planner<'_> {
    // -----------------------------------------------------------------
    // Queries and blocks
    // -----------------------------------------------------------------

    fn query(&self, q: &Query, scope: &mut Scope) -> Result<CoreQuery, PlanError> {
        scope.scoped(|scope| {
            let mut ctes = Vec::new();
            for cte in &q.ctes {
                let lowered = self.query(&cte.query, scope)?;
                scope.add(cte.name.clone());
                ctes.push((cte.name.clone(), lowered));
            }
            let op = match &q.body {
                SetExpr::Block(block) => {
                    self.block(block, scope, &q.order_by, &q.limit, &q.offset)?
                }
                se @ SetExpr::SetOp { .. } => {
                    let mut op = self.set_expr(se, scope)?;
                    if !q.order_by.is_empty() {
                        op = self.order_elements(op, &q.order_by, scope)?;
                    }
                    self.wrap_limit(op, &q.limit, &q.offset, scope)?
                }
            };
            let op = if ctes.is_empty() {
                op
            } else {
                CoreOp::With {
                    bindings: ctes,
                    body: Box::new(op),
                }
            };
            Ok(CoreQuery { op })
        })
    }

    fn set_expr(&self, se: &SetExpr, scope: &mut Scope) -> Result<CoreOp, PlanError> {
        match se {
            SetExpr::Block(block) => self.block(block, scope, &[], &None, &None),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => Ok(CoreOp::SetOp {
                op: match op {
                    ast::SetOp::Union => CoreSetOp::Union,
                    ast::SetOp::Intersect => CoreSetOp::Intersect,
                    ast::SetOp::Except => CoreSetOp::Except,
                },
                all: *all,
                left: Box::new(self.set_expr(left, scope)?),
                right: Box::new(self.set_expr(right, scope)?),
            }),
        }
    }

    fn wrap_limit(
        &self,
        op: CoreOp,
        limit: &Option<Expr>,
        offset: &Option<Expr>,
        scope: &mut Scope,
    ) -> Result<CoreOp, PlanError> {
        if limit.is_none() && offset.is_none() {
            return Ok(op);
        }
        Ok(CoreOp::LimitOffset {
            input: Box::new(op),
            limit: limit
                .as_ref()
                .map(|e| self.expr(e, scope, Ctx::Scalar))
                .transpose()?,
            offset: offset
                .as_ref()
                .map(|e| self.expr(e, scope, Ctx::Scalar))
                .transpose()?,
        })
    }

    /// Lowers one query block with the paper's clause pipeline:
    /// FROM → LET → WHERE → GROUP → HAVING → ORDER → SELECT → LIMIT.
    fn block(
        &self,
        block: &ast::QueryBlock,
        scope: &mut Scope,
        order_by: &[OrderItem],
        limit: &Option<Expr>,
        offset: &Option<Expr>,
    ) -> Result<CoreOp, PlanError> {
        scope.scoped(|scope| {
            // ---- FROM + LET -------------------------------------------
            let mut from_vars: Vec<String> = Vec::new();
            let mut from_tree: Option<CoreFrom> = None;
            for item in &block.from {
                let lowered = self.from_item(item, scope, &mut from_vars)?;
                from_tree = Some(match from_tree {
                    None => lowered,
                    Some(left) => CoreFrom::Correlate {
                        left: Box::new(left),
                        right: Box::new(lowered),
                        left_pred: None,
                    },
                });
            }
            for l in &block.lets {
                let expr = self.expr(&l.expr, scope, Ctx::Scalar)?;
                scope.add(l.name.clone());
                from_vars.push(l.name.clone());
                let binding = CoreFrom::Let {
                    expr,
                    var: l.name.clone(),
                };
                from_tree = Some(match from_tree {
                    None => binding,
                    Some(left) => CoreFrom::Correlate {
                        left: Box::new(left),
                        right: Box::new(binding),
                        left_pred: None,
                    },
                });
            }
            let mut op = match from_tree {
                Some(item) => CoreOp::From { item },
                None => CoreOp::Single,
            };

            // ---- WHERE ------------------------------------------------
            if let Some(w) = &block.where_clause {
                let pred = self.expr(w, scope, Ctx::Scalar)?;
                op = CoreOp::Filter {
                    input: Box::new(op),
                    pred,
                };
            }

            // ---- GROUP BY (explicit or implicit) ----------------------
            // An implicit group forms when SQL aggregates appear with no
            // GROUP BY (Listing 15 → 16).
            let has_sql_agg = select_has_sql_aggregate(&block.select)
                || block.having.as_ref().is_some_and(has_sql_aggregate)
                || order_by.iter().any(|o| has_sql_aggregate(&o.expr));
            let group_ctx = if let Some(gb) = &block.group_by {
                Some(self.lower_group(gb, scope, &from_vars, &mut op)?)
            } else if has_sql_agg {
                let gb = GroupBy {
                    keys: Vec::new(),
                    modifier: ast::GroupModifier::Plain,
                    group_as: None,
                };
                Some(self.lower_group(&gb, scope, &from_vars, &mut op)?)
            } else {
                None
            };

            // A rewriting context for post-group clauses.
            let rewrite = |e: &Expr| -> Result<Expr, PlanError> {
                let mut e = e.clone();
                if let Some(g) = &group_ctx {
                    rewrite_grouped(&mut e, g)?;
                }
                Ok(e)
            };

            // ---- HAVING -----------------------------------------------
            if let Some(h) = &block.having {
                if group_ctx.is_none() {
                    return Err(PlanError::new("HAVING requires GROUP BY or an aggregate"));
                }
                let pred = self.expr(&rewrite(h)?, scope, Ctx::Scalar)?;
                op = CoreOp::Filter {
                    input: Box::new(op),
                    pred,
                };
            }

            // ---- window extraction ------------------------------------
            // SQL window functions in the SELECT list and ORDER BY are
            // pulled into a Window stage whose computed variables the
            // later clauses reference (§V-B: windows are "wholly
            // compatible" with SQL++). AST-level rewriting happens first
            // (grouping + alias substitution), then extraction.
            let mut window_asts: Vec<(String, Expr)> = Vec::new();
            let mut prepare = |e: &Expr| -> Result<Expr, PlanError> {
                let mut e = rewrite(e)?;
                extract_windows(&mut e, &mut window_asts);
                Ok(e)
            };

            let block_order: Vec<OrderItem> =
                block.order_by.iter().chain(order_by).cloned().collect();
            let aliases = select_aliases(&block.select);
            let mut order_key_asts: Vec<(Expr, bool, bool)> = Vec::new();
            for item in &block_order {
                let key = prepare(substitute_alias(&item.expr, &aliases))?;
                order_key_asts.push((key, item.desc, item.nulls_first.unwrap_or(!item.desc)));
            }

            enum PreparedSelect {
                Value {
                    expr: Expr,
                    distinct: bool,
                },
                List {
                    items: Vec<SelectItem>,
                    distinct: bool,
                },
                Pivot {
                    value: Expr,
                    name: Expr,
                },
            }
            let prepared = match &block.select {
                SelectClause::SelectValue { quantifier, expr } => PreparedSelect::Value {
                    expr: prepare(expr)?,
                    distinct: *quantifier == SetQuantifier::Distinct,
                },
                SelectClause::Select { quantifier, items } => {
                    let mut prepared_items = Vec::with_capacity(items.len());
                    for item in items {
                        prepared_items.push(match item {
                            SelectItem::Expr { expr, alias } => SelectItem::Expr {
                                expr: prepare(expr)?,
                                alias: alias
                                    .clone()
                                    .or_else(|| expr.derived_alias().map(str::to_string)),
                            },
                            other => other.clone(),
                        });
                    }
                    PreparedSelect::List {
                        items: prepared_items,
                        distinct: *quantifier == SetQuantifier::Distinct,
                    }
                }
                SelectClause::Pivot { value, name } => PreparedSelect::Pivot {
                    value: prepare(value)?,
                    name: prepare(name)?,
                },
            };

            if !window_asts.is_empty() {
                let mut defs = Vec::with_capacity(window_asts.len());
                for (var, w) in &window_asts {
                    defs.push(self.lower_window(var, w, scope)?);
                    scope.add(var.clone());
                }
                op = CoreOp::Window {
                    input: Box::new(op),
                    defs,
                };
            }

            // ---- ORDER BY (pre-projection keys) -----------------------
            if !order_key_asts.is_empty() {
                let mut keys = Vec::new();
                for (expr, desc, nulls_first) in &order_key_asts {
                    keys.push(CoreSortKey {
                        expr: self.expr(expr, scope, Ctx::Scalar)?,
                        desc: *desc,
                        nulls_first: *nulls_first,
                    });
                }
                op = CoreOp::Sort {
                    input: Box::new(op),
                    keys,
                };
            }

            // ---- SELECT -----------------------------------------------
            op = match prepared {
                PreparedSelect::Value { expr, distinct } => {
                    let core = self.expr(&expr, scope, Ctx::Scalar)?;
                    CoreOp::Project {
                        input: Box::new(op),
                        expr: core,
                        distinct,
                    }
                }
                PreparedSelect::List { items, distinct } => {
                    let expr = self.lower_select_list(&items, &from_vars, scope)?;
                    CoreOp::Project {
                        input: Box::new(op),
                        expr,
                        distinct,
                    }
                }
                PreparedSelect::Pivot { value, name } => {
                    let value = self.expr(&value, scope, Ctx::Scalar)?;
                    let name = self.expr(&name, scope, Ctx::Scalar)?;
                    CoreOp::Pivot {
                        input: Box::new(op),
                        value,
                        name,
                    }
                }
            };

            // ---- LIMIT / OFFSET ---------------------------------------
            // Block-level modifiers (parenthesized blocks) take precedence
            // over the query-level ones passed in; a block is never given
            // both.
            let eff_limit = block.limit.clone().or_else(|| limit.clone());
            let eff_offset = block.offset.clone().or_else(|| offset.clone());
            self.wrap_limit(op, &eff_limit, &eff_offset, scope)
        })
    }

    /// `SELECT a, b.* , *` → a Core tuple constructor or, when wildcards
    /// are present, the internal `$MERGE` call.
    fn lower_select_list(
        &self,
        items: &[SelectItem],
        from_vars: &[String],
        scope: &mut Scope,
    ) -> Result<CoreExpr, PlanError> {
        let has_wildcard = items
            .iter()
            .any(|i| matches!(i, SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)));
        if !has_wildcard {
            // Plain tuple constructor: SELECT e1 AS a1 … ⇒ {a1: e1, …}.
            let mut pairs = Vec::new();
            for (i, item) in items.iter().enumerate() {
                let SelectItem::Expr { expr, alias } = item else {
                    unreachable!("wildcards handled above");
                };
                let name = alias
                    .clone()
                    .or_else(|| expr.derived_alias().map(str::to_string))
                    .unwrap_or_else(|| format!("_{}", i + 1));
                let value = self.expr(expr, scope, Ctx::Scalar)?;
                pairs.push((CoreExpr::Const(Value::Str(name)), value));
            }
            return Ok(CoreExpr::TupleCtor(pairs));
        }
        // $MERGE(marker1, value1, marker2, value2, …): a "*" marker spreads
        // a tuple (or binds a non-tuple under its variable name, passed as
        // "*name"); any other marker is a plain attribute name.
        let mut args = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for v in from_vars {
                        args.push(CoreExpr::Const(Value::Str(format!("*{v}"))));
                        args.push(CoreExpr::Var(v.clone()));
                    }
                }
                SelectItem::QualifiedWildcard(v) => {
                    args.push(CoreExpr::Const(Value::Str(format!("*{v}"))));
                    args.push(self.expr(&Expr::var(v.clone()), scope, Ctx::Scalar)?);
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias
                        .clone()
                        .or_else(|| expr.derived_alias().map(str::to_string))
                        .unwrap_or_else(|| format!("_{}", i + 1));
                    args.push(CoreExpr::Const(Value::Str(name)));
                    args.push(self.expr(expr, scope, Ctx::Scalar)?);
                }
            }
        }
        Ok(CoreExpr::Call {
            name: "$MERGE".to_string(),
            args,
        })
    }

    /// Lowers an explicit GROUP BY, leaving `op` wrapped in a Group
    /// operator — or, for ROLLUP/CUBE/GROUPING SETS, an Append of one
    /// Group per grouping set — and the scope holding the post-group
    /// variables. Returns the rewrite context for post-group clauses.
    fn lower_group(
        &self,
        gb: &GroupBy,
        scope: &mut Scope,
        from_vars: &[String],
        op: &mut CoreOp,
    ) -> Result<GroupCtx, PlanError> {
        let mut lowered_keys: Vec<(String, CoreExpr)> = Vec::new();
        let mut ast_keys = Vec::new();
        for (i, key) in gb.keys.iter().enumerate() {
            let alias = key
                .alias
                .clone()
                .or_else(|| key.expr.derived_alias().map(str::to_string))
                .unwrap_or_else(|| format!("$key{}", i + 1));
            let lowered = self.expr(&key.expr, scope, Ctx::Scalar)?;
            lowered_keys.push((alias.clone(), lowered));
            ast_keys.push((alias, key.expr.clone()));
        }
        let group_var = gb
            .group_as
            .clone()
            .unwrap_or_else(|| SYNTH_GROUP.to_string());
        let captured: Vec<String> = from_vars.to_vec();

        // Which keys participate in each grouping set.
        let n = gb.keys.len();
        let sets: Vec<Vec<bool>> = match &gb.modifier {
            ast::GroupModifier::Plain => vec![vec![true; n]],
            ast::GroupModifier::Rollup => (0..=n)
                .rev()
                .map(|k| (0..n).map(|i| i < k).collect())
                .collect(),
            ast::GroupModifier::Cube => {
                if n > 10 {
                    return Err(PlanError::new(
                        "CUBE over more than 10 keys (2^n grouping sets) is \
                         not supported",
                    ));
                }
                (0..(1u32 << n))
                    .rev()
                    .map(|mask| (0..n).map(|i| mask & (1 << (n - 1 - i)) != 0).collect())
                    .collect()
            }
            ast::GroupModifier::GroupingSets(sets) => sets
                .iter()
                .map(|set| (0..n).map(|i| set.contains(&i)).collect())
                .collect(),
        };
        let multi = gb.modifier != ast::GroupModifier::Plain;

        let input = std::mem::replace(op, CoreOp::Single);
        let make_group = |include: &[bool]| -> CoreOp {
            let mut keys: Vec<(String, CoreExpr)> =
                Vec::with_capacity(lowered_keys.len() * if multi { 2 } else { 1 });
            for (i, (alias, expr)) in lowered_keys.iter().enumerate() {
                // An excluded key is a constant NULL: it surfaces as a
                // NULL key value and does not partition.
                keys.push((
                    alias.clone(),
                    if include[i] {
                        expr.clone()
                    } else {
                        CoreExpr::Const(Value::Null)
                    },
                ));
            }
            if multi {
                // GROUPING(key) support: a constant 0/1 per set.
                for (i, (alias, _)) in lowered_keys.iter().enumerate() {
                    keys.push((
                        format!("$grouping${alias}"),
                        CoreExpr::Const(Value::Int(i64::from(!include[i]))),
                    ));
                }
            }
            CoreOp::Group {
                input: Box::new(input.clone()),
                keys,
                folds: vec![(
                    group_var.clone(),
                    GroupFold::Members {
                        captured: captured.clone(),
                    },
                )],
                // SQL emits the grand-total row even over empty input.
                emit_empty_group: n == 0 || include.iter().all(|b| !b),
            }
        };
        *op = if sets.len() == 1 {
            make_group(&sets[0])
        } else {
            CoreOp::Append {
                inputs: sets.iter().map(|s| make_group(s)).collect(),
            }
        };
        // Post-group scope: key aliases + the group variable (+ GROUPING
        // flags). (The frame also still contains the pre-group variables;
        // rewrite_grouped is responsible for rejecting stray references
        // to them.)
        for (alias, _) in &ast_keys {
            scope.add(alias.clone());
            if multi {
                scope.add(format!("$grouping${alias}"));
            }
        }
        scope.add(group_var.clone());
        Ok(GroupCtx {
            keys: ast_keys,
            captured,
            group_var,
            multi,
        })
    }

    // -----------------------------------------------------------------
    // FROM items
    // -----------------------------------------------------------------

    #[allow(clippy::wrong_self_convention)] // "from" is the SQL clause
    fn from_item(
        &self,
        item: &FromItem,
        scope: &mut Scope,
        vars: &mut Vec<String>,
    ) -> Result<CoreFrom, PlanError> {
        match item {
            FromItem::Collection {
                expr,
                as_var,
                at_var,
            } => {
                let lowered = self.expr(expr, scope, Ctx::Source)?;
                let as_var = as_var
                    .clone()
                    .or_else(|| expr.derived_alias().map(str::to_string))
                    .ok_or_else(|| {
                        PlanError::new("FROM item needs an AS alias (cannot derive one)")
                    })?;
                // §III schema-based disambiguation: when the scanned
                // collection has an attached schema, the range variable
                // carries its element type.
                match self.source_schema(&lowered) {
                    Some(ty) => scope.add_typed(as_var.clone(), ty),
                    None => scope.add(as_var.clone()),
                }
                vars.push(as_var.clone());
                if let Some(at) = at_var {
                    scope.add(at.clone());
                    vars.push(at.clone());
                }
                Ok(CoreFrom::Scan {
                    expr: lowered,
                    as_var,
                    at_var: at_var.clone(),
                })
            }
            FromItem::Unpivot {
                expr,
                value_var,
                name_var,
            } => {
                let lowered = self.expr(expr, scope, Ctx::Source)?;
                scope.add(value_var.clone());
                scope.add(name_var.clone());
                vars.push(value_var.clone());
                vars.push(name_var.clone());
                Ok(CoreFrom::Unpivot {
                    expr: lowered,
                    value_var: value_var.clone(),
                    name_var: name_var.clone(),
                })
            }
            FromItem::Join {
                kind,
                left,
                right,
                on,
            } => {
                // RIGHT is a mirrored LEFT; FULL is not supported (the
                // paper never uses it and its Core encoding would obscure
                // the listings this repo reproduces).
                let (kind, left, right) = match kind {
                    JoinKind::Right => (CoreJoinKind::Left, right, left),
                    JoinKind::Left => (CoreJoinKind::Left, left, right),
                    JoinKind::Inner | JoinKind::Cross => (CoreJoinKind::Inner, left, right),
                    JoinKind::Full => {
                        return Err(PlanError::new(
                            "FULL OUTER JOIN is not supported; rewrite as \
                             LEFT JOIN UNION ALL anti-joined RIGHT side",
                        ));
                    }
                };
                let l = self.from_item(left, scope, vars)?;
                let mut right_vars = Vec::new();
                let r = self.from_item(right, scope, &mut right_vars)?;
                vars.extend(right_vars.iter().cloned());
                let on = match on {
                    Some(e) => self.expr(e, scope, Ctx::Scalar)?,
                    None => CoreExpr::bool(true),
                };
                Ok(CoreFrom::Join {
                    kind,
                    left: Box::new(l),
                    right: Box::new(r),
                    on,
                    right_vars,
                })
            }
        }
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    fn expr(&self, e: &Expr, scope: &mut Scope, ctx: Ctx) -> Result<CoreExpr, PlanError> {
        Ok(match e {
            Expr::Lit(lit) => CoreExpr::Const(lit_value(lit)),
            Expr::Param(i) => CoreExpr::Param(*i),
            Expr::Path { head, steps } => self.lower_path(head, steps, scope)?,
            Expr::Bin { op, left, right } => CoreExpr::Bin(
                *op,
                Box::new(self.expr(left, scope, Ctx::Scalar)?),
                Box::new(self.expr(right, scope, Ctx::Scalar)?),
            ),
            Expr::Un { op, expr } => {
                CoreExpr::Un(*op, Box::new(self.expr(expr, scope, Ctx::Scalar)?))
            }
            Expr::Like {
                expr,
                pattern,
                escape,
                negated,
            } => CoreExpr::Like {
                expr: Box::new(self.expr(expr, scope, Ctx::Scalar)?),
                pattern: Box::new(self.expr(pattern, scope, Ctx::Scalar)?),
                escape: escape
                    .as_ref()
                    .map(|e| self.expr(e, scope, Ctx::Scalar).map(Box::new))
                    .transpose()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => CoreExpr::Between {
                expr: Box::new(self.expr(expr, scope, Ctx::Scalar)?),
                low: Box::new(self.expr(low, scope, Ctx::Scalar)?),
                high: Box::new(self.expr(high, scope, Ctx::Scalar)?),
                negated: *negated,
            },
            Expr::In { expr, rhs, negated } => {
                let collection = match rhs.as_ref() {
                    ast::InRhs::List(items) => CoreExpr::ArrayCtor(
                        items
                            .iter()
                            .map(|i| self.expr(i, scope, Ctx::Scalar))
                            .collect::<Result<_, _>>()?,
                    ),
                    ast::InRhs::Expr(e) => self.expr(e, scope, Ctx::CollectionRhs)?,
                };
                CoreExpr::In {
                    expr: Box::new(self.expr(expr, scope, Ctx::Scalar)?),
                    collection: Box::new(collection),
                    negated: *negated,
                }
            }
            Expr::Is {
                expr,
                test,
                negated,
            } => CoreExpr::Is {
                expr: Box::new(self.expr(expr, scope, Ctx::Scalar)?),
                test: test.clone(),
                negated: *negated,
            },
            Expr::Case {
                operand,
                arms,
                else_expr,
            } => {
                let mut core_arms = Vec::new();
                for (when, then) in arms {
                    // Simple CASE sugar: `CASE x WHEN v` ⇒ `WHEN x = v`.
                    let cond = match operand {
                        Some(op) => Expr::bin(ast::BinOp::Eq, op.as_ref().clone(), when.clone()),
                        None => when.clone(),
                    };
                    core_arms.push((
                        self.expr(&cond, scope, Ctx::Scalar)?,
                        self.expr(then, scope, Ctx::Scalar)?,
                    ));
                }
                let else_core = match else_expr {
                    Some(e) => self.expr(e, scope, Ctx::Scalar)?,
                    None => CoreExpr::Const(Value::Null),
                };
                CoreExpr::Case {
                    arms: core_arms,
                    else_expr: Box::new(else_core),
                }
            }
            Expr::Call {
                name,
                args,
                distinct,
                star,
            } => self.lower_call(name, args, *distinct, *star, scope)?,
            Expr::Cast { expr, ty } => CoreExpr::Cast {
                expr: Box::new(self.expr(expr, scope, Ctx::Scalar)?),
                ty: type_name(ty)?,
            },
            Expr::Exists(q) => CoreExpr::Exists(Box::new(self.query(q, scope)?)),
            Expr::Subquery(q) => {
                let plan = self.query(q, scope)?;
                let coercion =
                    if self.config.compat == CompatMode::SqlCompat && query_is_sugar_select(q) {
                        match ctx {
                            Ctx::Scalar => Coercion::Scalar,
                            Ctx::CollectionRhs => Coercion::Collection,
                            Ctx::Source => Coercion::Bag,
                        }
                    } else {
                        Coercion::Bag
                    };
                CoreExpr::Subquery {
                    plan: Box::new(plan),
                    coercion,
                }
            }
            Expr::Window { .. } => {
                return Err(PlanError::new(
                    "window functions (OVER) are only allowed in the SELECT \
                     clause or ORDER BY",
                ));
            }
            Expr::TupleCtor(pairs) => CoreExpr::TupleCtor(
                pairs
                    .iter()
                    .map(|(n, v)| {
                        Ok((
                            self.expr(n, scope, Ctx::Scalar)?,
                            self.expr(v, scope, Ctx::Scalar)?,
                        ))
                    })
                    .collect::<Result<_, PlanError>>()?,
            ),
            Expr::ArrayCtor(items) => CoreExpr::ArrayCtor(
                items
                    .iter()
                    .map(|i| self.expr(i, scope, Ctx::Scalar))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::BagCtor(items) => CoreExpr::BagCtor(
                items
                    .iter()
                    .map(|i| self.expr(i, scope, Ctx::Scalar))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    /// Resolves a path head: in-scope variable, else a catalog/global
    /// reference taking as many leading attribute steps as possible.
    fn lower_path(
        &self,
        head: &str,
        steps: &[ast::PathStep],
        scope: &mut Scope,
    ) -> Result<CoreExpr, PlanError> {
        let mut base;
        let mut rest: &[ast::PathStep] = steps;
        if scope.contains(head) {
            base = CoreExpr::Var(head.to_string());
        } else if let Some(resolved) = self.disambiguate_head(head, scope)? {
            // §III: "disambiguation results in the rewriting of the
            // user-provided SQL++ query into a SQL++ Core query that
            // explicitly denotes the variables that were omitted."
            base = resolved;
        } else {
            // Collect the dotted prefix for longest-match catalog
            // resolution (e.g. `hr.emp_nest_tuples`).
            let mut segments = vec![head.to_string()];
            let mut taken = 0;
            for step in steps {
                match step {
                    ast::PathStep::Attr(a) => {
                        segments.push(a.clone());
                        taken += 1;
                    }
                    ast::PathStep::Index(_) => break,
                }
            }
            base = CoreExpr::Global(segments);
            rest = &steps[taken..];
        }
        for step in rest {
            base = match step {
                ast::PathStep::Attr(a) => CoreExpr::Path(Box::new(base), a.clone()),
                ast::PathStep::Index(i) => {
                    CoreExpr::Index(Box::new(base), Box::new(self.expr(i, scope, Ctx::Scalar)?))
                }
            };
        }
        Ok(base)
    }

    /// Lowers one extracted window expression into a [`WindowDef`].
    fn lower_window(&self, var: &str, w: &Expr, scope: &mut Scope) -> Result<WindowDef, PlanError> {
        let Expr::Window {
            func,
            args,
            star,
            partition_by,
            order_by,
        } = w
        else {
            unreachable!("extract_windows only collects Window nodes");
        };
        let func = WindowFunc::parse(func).ok_or_else(|| {
            PlanError::new(format!("unknown window function {func}")).with_name(func)
        })?;
        if matches!(
            func,
            WindowFunc::RowNumber | WindowFunc::Rank | WindowFunc::DenseRank
        ) && order_by.is_empty()
        {
            return Err(PlanError::new(format!(
                "{} requires ORDER BY in its window",
                func.name()
            )));
        }
        let args = if *star {
            Vec::new() // COUNT(*) OVER (…): count rows, no argument
        } else {
            args.iter()
                .map(|a| self.expr(a, scope, Ctx::Scalar))
                .collect::<Result<_, _>>()?
        };
        if matches!(func, WindowFunc::Agg(AggFunc::Count)) && args.len() > 1
            || matches!(func, WindowFunc::Lag | WindowFunc::Lead) && !(1..=3).contains(&args.len())
        {
            return Err(PlanError::new(format!(
                "wrong number of arguments for window function {}",
                func.name()
            )));
        }
        Ok(WindowDef {
            var: var.to_string(),
            func,
            args,
            partition: partition_by
                .iter()
                .map(|p| self.expr(p, scope, Ctx::Scalar))
                .collect::<Result<_, _>>()?,
            order: self.sort_keys(order_by, scope)?,
        })
    }

    /// The element type of a FROM source, when it statically names a
    /// schema'd catalog collection.
    fn source_schema(&self, source: &CoreExpr) -> Option<sqlpp_schema::SqlppType> {
        let CoreExpr::Global(segments) = source else {
            return None;
        };
        let dotted = segments.join(".");
        self.config
            .schemas
            .iter()
            .find(|(name, _)| *name == dotted)
            .map(|(_, ty)| ty.clone())
    }

    /// Schema-based disambiguation of an out-of-scope head identifier.
    fn disambiguate_head(&self, head: &str, scope: &Scope) -> Result<Option<CoreExpr>, PlanError> {
        match scope.disambiguate(head) {
            Disambiguation::None => Ok(None),
            Disambiguation::Unique(var) => Ok(Some(CoreExpr::Path(
                Box::new(CoreExpr::Var(var)),
                head.to_string(),
            ))),
            Disambiguation::Ambiguous(owners) => Err(PlanError::new(format!(
                "ambiguous reference {head:?}: declared by variables {}",
                owners.join(", ")
            ))
            .with_name(head)),
        }
    }

    fn lower_call(
        &self,
        name: &str,
        args: &[Expr],
        distinct: bool,
        star: bool,
        scope: &mut Scope,
    ) -> Result<CoreExpr, PlanError> {
        // Internal navigation pseudo-functions from the parser.
        if name == "$PATH" && args.len() == 2 {
            if let Expr::Lit(ast::Lit::Str(attr)) = &args[1] {
                return Ok(CoreExpr::Path(
                    Box::new(self.expr(&args[0], scope, Ctx::Scalar)?),
                    attr.clone(),
                ));
            }
        }
        if name == "$INDEX" && args.len() == 2 {
            return Ok(CoreExpr::Index(
                Box::new(self.expr(&args[0], scope, Ctx::Scalar)?),
                Box::new(self.expr(&args[1], scope, Ctx::Scalar)?),
            ));
        }
        if let Some((func, is_coll)) = AggFunc::parse(name) {
            if is_coll {
                if args.len() != 1 {
                    return Err(PlanError::new(format!(
                        "{name} takes exactly one collection argument"
                    )));
                }
                return Ok(CoreExpr::CollAgg {
                    func,
                    distinct,
                    input: Box::new(self.expr(&args[0], scope, Ctx::Source)?),
                });
            }
            // A SQL aggregate surviving to this point was not rewritten by
            // a grouping context — it is misplaced.
            if star {
                return Err(PlanError::new(
                    "COUNT(*) is only allowed with GROUP BY or in an \
                     aggregated SELECT",
                ));
            }
            return Err(PlanError::new(format!(
                "aggregate function {name} requires a grouping context \
                 (use {} over a collection for the composable form)",
                func.coll_name()
            )));
        }
        Ok(CoreExpr::Call {
            name: name.to_string(),
            args: args
                .iter()
                .map(|a| self.expr(a, scope, Ctx::Scalar))
                .collect::<Result<_, _>>()?,
        })
    }

    /// ORDER BY above a set operation: the block over its elements (see
    /// [`SET_OP_ELEMENT`]), its keys lowered with `$out` out of scope.
    fn order_elements(
        &self,
        elements: CoreOp,
        items: &[OrderItem],
        scope: &mut Scope,
    ) -> Result<CoreOp, PlanError> {
        let scan = CoreFrom::Scan {
            expr: CoreExpr::Subquery {
                plan: Box::new(CoreQuery { op: elements }),
                coercion: Coercion::Bag,
            },
            as_var: SET_OP_ELEMENT.into(),
            at_var: None,
        };
        Ok(CoreOp::Project {
            input: Box::new(CoreOp::Sort {
                input: Box::new(CoreOp::From { item: scan }),
                keys: self.sort_keys(items, scope)?,
            }),
            expr: CoreExpr::Var(SET_OP_ELEMENT.into()),
            distinct: false,
        })
    }

    /// ORDER BY items as sort keys.
    fn sort_keys(
        &self,
        items: &[OrderItem],
        scope: &mut Scope,
    ) -> Result<Vec<CoreSortKey>, PlanError> {
        items
            .iter()
            .map(|item| {
                Ok(CoreSortKey {
                    expr: self.expr(&item.expr, scope, Ctx::Scalar)?,
                    desc: item.desc,
                    nulls_first: item.nulls_first.unwrap_or(!item.desc),
                })
            })
            .collect()
    }
}

/// The information needed to rewrite post-group clauses.
struct GroupCtx {
    /// `(alias, original AST key expr)` pairs.
    keys: Vec<(String, Expr)>,
    /// Pre-group variables captured into group elements.
    captured: Vec<String>,
    /// The GROUP AS variable.
    group_var: String,
    /// Multiple grouping sets (ROLLUP/CUBE/GROUPING SETS): GROUPING()
    /// flags are available.
    multi: bool,
}

fn lit_value(lit: &ast::Lit) -> Value {
    match lit {
        ast::Lit::Null => Value::Null,
        ast::Lit::Missing => Value::Missing,
        ast::Lit::Bool(b) => Value::Bool(*b),
        ast::Lit::Int(i) => Value::Int(*i),
        ast::Lit::Decimal(d) => Value::Decimal(*d),
        ast::Lit::Float(f) => Value::Float(*f),
        ast::Lit::Str(s) => Value::Str(s.clone()),
    }
}

fn type_name(ty: &TypeExpr) -> Result<String, PlanError> {
    match ty {
        TypeExpr::Named(n) => Ok(n.clone()),
        other => Err(PlanError::new(format!(
            "CAST target must be a scalar type name, found {other:?}"
        ))),
    }
}

/// Is this a sugar (`SELECT` list) query whose subquery occurrences coerce
/// in compat mode?
fn query_is_sugar_select(q: &Query) -> bool {
    match &q.body {
        SetExpr::Block(b) => matches!(b.select, SelectClause::Select { .. }),
        SetExpr::SetOp { .. } => false,
    }
}

fn select_has_sql_aggregate(select: &SelectClause) -> bool {
    match select {
        SelectClause::Select { items, .. } => items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => has_sql_aggregate(expr),
            _ => false,
        }),
        SelectClause::SelectValue { expr, .. } => has_sql_aggregate(expr),
        SelectClause::Pivot { value, name } => has_sql_aggregate(value) || has_sql_aggregate(name),
    }
}

/// Does this expression contain a SQL-style aggregate call (not COLL_*) at
/// a depth not shielded by a subquery? A window call is not itself a
/// grouping aggregate, but its inputs may hold one (`SUM(SUM(x)) OVER …`).
fn has_sql_aggregate(e: &Expr) -> bool {
    if let Expr::Call { name, star, .. } = e {
        // COUNT(*), or a SQL (not COLL_) aggregate name.
        if *star || matches!(AggFunc::parse(name), Some((_, false))) {
            return true;
        }
    }
    let mut found = false;
    e.for_each_child(&mut |c| found = found || has_sql_aggregate(c));
    found
}

/// Replaces every window expression with a fresh `$winN` variable
/// reference, collecting the definitions (deduplicated structurally).
/// Subqueries are opaque — their windows belong to their own blocks.
fn extract_windows(e: &mut Expr, defs: &mut Vec<(String, Expr)>) {
    if !matches!(e, Expr::Window { .. }) {
        e.for_each_child_mut(&mut |c| extract_windows(c, defs));
        return;
    }
    let var = match defs.iter().find(|(_, w)| w == e) {
        Some((var, _)) => var.clone(),
        None => {
            let var = format!("$win{}", defs.len());
            defs.push((var.clone(), e.clone()));
            var
        }
    };
    *e = Expr::var(var);
}

/// Substitutes a SELECT alias referenced by ORDER BY with its defining
/// expression (`SELECT a+b AS s … ORDER BY s`).
fn substitute_alias<'e>(e: &'e Expr, aliases: &'e [(String, Expr)]) -> &'e Expr {
    if let Expr::Path { head, steps } = e {
        if let Some((_, def)) = aliases.iter().find(|(a, _)| a == head) {
            if steps.is_empty() {
                return def;
            }
        }
    }
    e
}

fn select_aliases(select: &SelectClause) -> Vec<(String, Expr)> {
    match select {
        SelectClause::Select { items, .. } => items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Expr { expr, alias } => alias
                    .clone()
                    .or_else(|| expr.derived_alias().map(str::to_string))
                    .map(|a| (a, expr.clone())),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The paper's §V-C rewriting, applied to post-group clauses:
///
/// * a key expression occurrence becomes its alias variable;
/// * `AGG(arg)` becomes `COLL_AGG(SELECT VALUE arg' FROM g AS $gi)` with
///   every captured variable `v` in `arg` replaced by `$gi.v`;
/// * `COUNT(*)` becomes `COLL_COUNT(g)`;
/// * remaining references to pre-group variables are rejected, exactly as
///   SQL rejects non-grouped column references.
fn rewrite_grouped(e: &mut Expr, g: &GroupCtx) -> Result<(), PlanError> {
    // Key-expression occurrence?
    if let Some((alias, _)) = g.keys.iter().find(|(_, key)| e == key) {
        *e = Expr::var(alias.clone());
        return Ok(());
    }
    match e {
        Expr::Call {
            name,
            args,
            distinct,
            star,
        } => {
            // GROUPING(key): 1 when the key is aggregated away by the
            // current grouping set, else 0.
            if *name == "GROUPING" && args.len() == 1 {
                let Some((alias, _)) = g.keys.iter().find(|(_, k)| *k == args[0]) else {
                    return Err(PlanError::new("GROUPING() argument must be a grouping key"));
                };
                *e = if g.multi {
                    Expr::var(format!("$grouping${alias}"))
                } else {
                    Expr::int(0)
                };
                return Ok(());
            }
            if *star && AggFunc::parse(name).is_some() {
                // COUNT(*) ⇒ COLL_COUNT(g)
                *e = Expr::Call {
                    name: "COLL_COUNT".to_string(),
                    args: vec![Expr::var(g.group_var.clone())],
                    distinct: false,
                    star: false,
                };
                return Ok(());
            }
            if let Some((func, false)) = AggFunc::parse(name) {
                if args.len() != 1 {
                    return Err(PlanError::new(format!("{name} takes exactly one argument")));
                }
                // AGG(x) ⇒ COLL_AGG(FROM g AS $gi SELECT VALUE x[$gi.v/v])
                let mut body = args.pop().expect("one argument");
                to_member_refs(&mut body, &g.captured);
                let sub = make_group_scan_query(&g.group_var, body);
                *e = Expr::Call {
                    name: func.coll_name().to_string(),
                    args: vec![Expr::Subquery(Box::new(sub))],
                    distinct: *distinct,
                    star: false,
                };
                return Ok(());
            }
        }
        Expr::Path { head, .. } => {
            let shadowed = g.keys.iter().any(|(a, _)| a == head) || *head == g.group_var;
            if !shadowed && g.captured.contains(head) {
                return Err(PlanError::new(format!(
                    "variable {head} must appear in the GROUP BY clause or \
                     be used in an aggregate function"
                ))
                .with_name(head.as_str()));
            }
        }
        // Subqueries are their own scope (leaves of the walk); they may
        // legitimately reference the group variable and key aliases
        // (Listing 12), which resolve through the normal scope mechanism.
        _ => {}
    }
    let mut result = Ok(());
    e.for_each_child_mut(&mut |c| {
        if result.is_ok() {
            result = rewrite_grouped(c, g);
        }
    });
    result
}

/// Replaces references to captured pre-group variables `v` with `$gi.v`.
/// Subqueries are left untouched: correlated subqueries inside aggregate
/// arguments are out of SQL's (and this implementation's) scope.
fn to_member_refs(e: &mut Expr, captured: &[String]) {
    e.for_each_child_mut(&mut |c| to_member_refs(c, captured));
    if let Expr::Path { head, steps } = e {
        if captured.contains(head) {
            let var = std::mem::replace(head, SYNTH_GROUP_ITEM.to_string());
            steps.insert(0, ast::PathStep::Attr(var));
        }
    }
}

/// Builds the AST for `FROM <group_var> AS $gi SELECT VALUE <body>`.
fn make_group_scan_query(group_var: &str, body: Expr) -> Query {
    let mut block = ast::QueryBlock::with_select(SelectClause::SelectValue {
        quantifier: SetQuantifier::All,
        expr: body,
    });
    block.from.push(FromItem::Collection {
        expr: Expr::var(group_var.to_string()),
        as_var: Some(SYNTH_GROUP_ITEM.to_string()),
        at_var: None,
    });
    block.placement = ast::SelectPlacement::Trailing;
    Query {
        ctes: Vec::new(),
        body: SetExpr::Block(Box::new(block)),
        order_by: Vec::new(),
        limit: None,
        offset: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_syntax::parse_query;

    fn lower(src: &str) -> CoreQuery {
        let q = parse_query(src).unwrap();
        lower_query(&q, &PlanConfig::default()).unwrap()
    }

    fn lower_composable(src: &str) -> CoreQuery {
        let q = parse_query(src).unwrap();
        lower_query(
            &q,
            &PlanConfig {
                compat: CompatMode::Composable,
                ..PlanConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn select_list_becomes_tuple_constructor() {
        let q = lower("SELECT e.name AS emp_name FROM hr.emp AS e");
        match q.op {
            CoreOp::Project {
                expr: CoreExpr::TupleCtor(pairs),
                ..
            } => {
                assert_eq!(pairs.len(), 1);
                assert_eq!(pairs[0].0, CoreExpr::Const(Value::Str("emp_name".into())));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn from_comma_items_left_correlate() {
        let q = lower("SELECT VALUE p FROM hr.emp AS e, e.projects AS p");
        match q.op {
            CoreOp::Project { input, .. } => match *input {
                CoreOp::From {
                    item: CoreFrom::Correlate { left, right, .. },
                } => {
                    assert!(matches!(*left, CoreFrom::Scan { ref as_var, .. } if as_var == "e"));
                    match *right {
                        CoreFrom::Scan { expr, as_var, .. } => {
                            assert_eq!(as_var, "p");
                            // e is in scope, so e.projects is Var + Path,
                            // not a Global.
                            assert_eq!(
                                expr,
                                CoreExpr::Path(
                                    Box::new(CoreExpr::Var("e".into())),
                                    "projects".into()
                                )
                            );
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unresolved_heads_become_globals_with_longest_prefix() {
        let q = lower("SELECT VALUE e FROM hr.emp_nest_tuples AS e");
        match q.op {
            CoreOp::Project { input, .. } => match *input {
                CoreOp::From {
                    item: CoreFrom::Scan { expr, .. },
                } => {
                    assert_eq!(
                        expr,
                        CoreExpr::Global(vec!["hr".into(), "emp_nest_tuples".into()])
                    );
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn listing_15_gets_an_implicit_group() {
        // SELECT AVG(e.salary) AS avgsal FROM hr.emp AS e WHERE …
        let q = lower("SELECT AVG(e.salary) AS avgsal FROM hr.emp AS e WHERE e.title = 'Engineer'");
        let text = q.explain();
        assert!(text.contains("group by <all>"), "{text}");
        assert!(text.contains("COLL_AVG"), "{text}");
        assert!(text.contains("$gi.e.salary"), "{text}");
    }

    #[test]
    fn listing_17_grouped_aggregate_rewrites_to_coll_avg() {
        let q = lower(
            "SELECT e.deptno, AVG(e.salary) AS avgsal FROM hr.emp AS e \
             WHERE e.title = 'Engineer' GROUP BY e.deptno",
        );
        let text = q.explain();
        // The deptno key occurrence becomes its alias variable.
        assert!(text.contains("group by e.deptno AS deptno"), "{text}");
        assert!(text.contains("'deptno': deptno"), "{text}");
        assert!(text.contains("COLL_AVG"), "{text}");
    }

    #[test]
    fn count_star_becomes_coll_count_of_group() {
        let q = lower("SELECT COUNT(*) AS n FROM t AS x");
        let text = q.explain();
        assert!(text.contains("COLL_COUNT($group)"), "{text}");
    }

    #[test]
    fn group_as_variable_is_in_scope_for_subqueries() {
        // Listing 12.
        let q = lower(
            "FROM hr.emp_nest_scalars AS e, e.projects AS p \
             WHERE p LIKE '%Security%' GROUP BY LOWER(p) AS p GROUP AS g \
             SELECT p AS proj_name, (FROM g AS v SELECT VALUE v.e.name) AS employees",
        );
        let text = q.explain();
        assert!(text.contains("group as g capturing [e, p]"), "{text}");
        // The subquery scans Var(g), not a global.
        assert!(text.contains("scan g as v"), "{text}");
    }

    #[test]
    fn ungrouped_column_reference_is_rejected() {
        let q = parse_query("SELECT e.name, AVG(e.salary) AS a FROM hr.emp AS e").unwrap();
        let err = lower_query(&q, &PlanConfig::default()).unwrap_err();
        assert!(err.message().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn bare_aggregate_in_where_is_rejected() {
        let q = parse_query("SELECT VALUE e FROM t AS e WHERE AVG(e.x) > 1").unwrap();
        let err = lower_query(&q, &PlanConfig::default()).unwrap_err();
        assert!(err.message().contains("grouping context"), "{err}");
    }

    #[test]
    fn subquery_coercion_follows_the_compat_flag() {
        let src = "SELECT VALUE x FROM t AS x WHERE x.a = (SELECT m.v AS v FROM m AS m)";
        let compat = lower(src);
        let composable = lower_composable(src);
        let find_coercion = |q: &CoreQuery| -> Coercion {
            fn walk_expr(e: &CoreExpr, out: &mut Vec<Coercion>) {
                match e {
                    CoreExpr::Subquery { coercion, .. } => out.push(*coercion),
                    CoreExpr::Bin(_, l, r) => {
                        walk_expr(l, out);
                        walk_expr(r, out);
                    }
                    _ => {}
                }
            }
            fn walk(op: &CoreOp, out: &mut Vec<Coercion>) {
                match op {
                    CoreOp::Filter { input, pred } => {
                        walk_expr(pred, out);
                        walk(input, out);
                    }
                    CoreOp::Project { input, .. } => walk(input, out),
                    _ => {}
                }
            }
            let mut v = Vec::new();
            walk(&q.op, &mut v);
            v[0]
        };
        assert_eq!(find_coercion(&compat), Coercion::Scalar);
        assert_eq!(find_coercion(&composable), Coercion::Bag);
    }

    #[test]
    fn select_value_subqueries_never_coerce() {
        let src = "SELECT VALUE x FROM t AS x WHERE x.a = (SELECT VALUE m.v FROM m AS m)";
        let q = lower(src);
        let text = q.explain();
        assert!(!text.contains("scalar:"), "{text}");
    }

    #[test]
    fn in_subquery_gets_collection_coercion() {
        let q = lower("SELECT VALUE x FROM t AS x WHERE x.a IN (SELECT m.v AS v FROM m AS m)");
        assert!(q.explain().contains("coll:subquery"), "{}", q.explain());
    }

    #[test]
    fn select_star_merges_from_variables() {
        let q = lower("SELECT * FROM a AS a, b AS b");
        let text = q.explain();
        assert!(text.contains("$MERGE"), "{text}");
        assert!(text.contains("'*a'"), "{text}");
        assert!(text.contains("'*b'"), "{text}");
    }

    #[test]
    fn simple_case_desugars_to_searched() {
        let q = lower("SELECT VALUE CASE x.k WHEN 1 THEN 'a' ELSE 'b' END FROM t AS x");
        assert!(q.explain().contains("WHEN (x.k = 1)"), "{}", q.explain());
    }

    #[test]
    fn order_by_alias_is_substituted() {
        let q = lower("SELECT x.a + x.b AS s FROM t AS x ORDER BY s DESC");
        let text = q.explain();
        assert!(text.contains("sort (x.a + x.b) desc"), "{text}");
    }

    #[test]
    fn right_join_mirrors_to_left() {
        let q = lower("SELECT * FROM a AS a RIGHT JOIN b AS b ON a.id = b.id");
        let text = q.explain();
        assert!(text.contains("left nested-loop join"), "{text}");
        // b is now the preserved (left) side.
        let scan_b = text.find("scan @b").unwrap();
        let scan_a = text.find("scan @a").unwrap();
        assert!(scan_b < scan_a, "{text}");
    }

    #[test]
    fn unpivot_and_pivot_lower() {
        let q = lower(
            "SELECT sym AS symbol, price AS price \
             FROM closing_prices AS c, UNPIVOT c AS price AT sym",
        );
        assert!(q.explain().contains("unpivot c as price at sym"));
        let q = lower("PIVOT sp.price AT sp.symbol FROM today_stock_prices AS sp");
        assert!(q.explain().contains("pivot sp.price at sp.symbol"));
    }

    #[test]
    fn lets_become_bindings() {
        let q = lower("FROM t AS x LET y = x.a + 1 WHERE y > 2 SELECT VALUE y");
        assert!(q.explain().contains("let y = (x.a + 1)"), "{}", q.explain());
    }

    #[test]
    fn with_ctes_lower() {
        let q = lower("WITH eng AS (SELECT VALUE e FROM hr.emp AS e) SELECT VALUE x FROM eng AS x");
        let text = q.explain();
        assert!(text.contains("with"), "{text}");
        assert!(text.contains("eng :="), "{text}");
        assert!(text.contains("scan eng as x"), "{text}");
    }

    #[test]
    fn having_without_group_is_rejected() {
        let q = parse_query("SELECT VALUE x FROM t AS x HAVING x > 1").unwrap();
        assert!(lower_query(&q, &PlanConfig::default()).is_err());
    }

    #[test]
    fn count_distinct_survives_rewriting() {
        let q = lower("SELECT COUNT(DISTINCT e.dept) AS n FROM t AS e");
        let text = q.explain();
        assert!(text.contains("COLL_COUNT(DISTINCT"), "{text}");
    }

    #[test]
    fn group_by_key_without_alias_derives_one() {
        let q = lower("SELECT e.deptno FROM t AS e GROUP BY e.deptno");
        assert!(
            q.explain().contains("e.deptno AS deptno"),
            "{}",
            q.explain()
        );
    }

    #[test]
    fn full_join_reports_a_clear_error() {
        let q = parse_query("SELECT * FROM a AS a FULL JOIN b AS b ON a.x = b.x").unwrap();
        let err = lower_query(&q, &PlanConfig::default()).unwrap_err();
        assert!(err.message().contains("FULL OUTER JOIN"));
    }
}
