//! Static type checking of Core plans against optional schemas.
//!
//! "Typing rules are dynamically checked in SQL++, with the possibility of
//! static type checking when the optional schema is present" (§I
//! relaxation 2). This pass is that possibility: given element schemas for
//! the scanned collections, it propagates structural types through the
//! plan and reports *warnings* for expressions that are certain (or, for
//! union types, certain in some branch) to misbehave at runtime —
//! navigation into attributes a closed tuple can never have, arithmetic on
//! attributes that are never numbers, FROM over scalars.
//!
//! It is deliberately **advisory**: SQL++ queries over schemaless data are
//! legal by design, so nothing here rejects a query — warnings inform, the
//! permissive runtime decides (§IV). Soundness bar: a warning is only
//! emitted when the schema *guarantees* the anomaly, never on `Any`.

use std::collections::HashMap;

use sqlpp_schema::{SqlppType, TupleType};
use sqlpp_syntax::ast::BinOp;

use crate::core::{CoreExpr, CoreFrom, CoreOp, CoreQuery, GroupFold};

/// One advisory finding.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeWarning {
    /// Human-readable description with the offending expression.
    pub message: String,
    /// The source identifier (attribute or variable) the warning is
    /// about, when the checker knows it — lets the analysis layer locate
    /// a span in the original query text.
    pub name: Option<String>,
}

/// Statically checks a plan against `(dotted name, element type)` schema
/// attachments. Returns advisory warnings (possibly empty).
pub fn check(plan: &CoreQuery, schemas: &[(String, SqlppType)]) -> Vec<TypeWarning> {
    let mut checker = Checker {
        schemas,
        warnings: Vec::new(),
    };
    checker.op(&plan.op, &TypeEnv::default());
    checker.warnings
}

#[derive(Debug, Clone, Default)]
struct TypeEnv {
    vars: HashMap<String, SqlppType>,
}

impl TypeEnv {
    fn bind(&self, name: &str, ty: SqlppType) -> TypeEnv {
        let mut next = self.clone();
        next.vars.insert(name.to_string(), ty);
        next
    }

    fn get(&self, name: &str) -> SqlppType {
        self.vars.get(name).cloned().unwrap_or(SqlppType::Any)
    }
}

struct Checker<'a> {
    schemas: &'a [(String, SqlppType)],
    warnings: Vec<TypeWarning>,
}

impl Checker<'_> {
    fn warn(&mut self, message: String) {
        self.warn_named(message, None);
    }

    fn warn_named(&mut self, message: String, name: Option<String>) {
        if !self.warnings.iter().any(|w| w.message == message) {
            self.warnings.push(TypeWarning { message, name });
        }
    }

    /// Walks an operator, returning the environment downstream clauses
    /// see (bindings added by FROM/GROUP/WINDOW).
    fn op(&mut self, op: &CoreOp, env: &TypeEnv) -> TypeEnv {
        match op {
            CoreOp::Single => env.clone(),
            CoreOp::From { item } => self.from_item(item, env),
            CoreOp::Filter { input, pred } => {
                let env = self.op(input, env);
                self.expr(pred, &env);
                env
            }
            CoreOp::Group {
                input, keys, folds, ..
            } => {
                let inner = self.op(input, env);
                let mut out = env.clone();
                for (alias, key) in keys {
                    let ty = self.expr(key, &inner);
                    out = out.bind(alias, ty);
                }
                for (var, fold) in folds {
                    let ty = match fold {
                        GroupFold::Members { .. } => SqlppType::Bag(Box::new(SqlppType::Any)),
                        GroupFold::Agg { body, .. } => {
                            self.expr(body, &inner);
                            SqlppType::Any
                        }
                    };
                    out = out.bind(var, ty);
                }
                out
            }
            CoreOp::Append { inputs } => {
                let mut out = env.clone();
                for i in inputs {
                    out = self.op(i, env);
                }
                out
            }
            CoreOp::Sort { input, keys } => {
                let env = self.op(input, env);
                for k in keys {
                    self.expr(&k.expr, &env);
                }
                env
            }
            CoreOp::LimitOffset {
                input,
                limit,
                offset,
            } => {
                let env = self.op(input, env);
                if let Some(l) = limit {
                    self.expr(l, &env);
                }
                if let Some(o) = offset {
                    self.expr(o, &env);
                }
                env
            }
            CoreOp::TopK {
                input,
                keys,
                limit,
                offset,
                ..
            } => {
                let env = self.op(input, env);
                for k in keys {
                    self.expr(&k.expr, &env);
                }
                self.expr(limit, &env);
                if let Some(o) = offset {
                    self.expr(o, &env);
                }
                env
            }
            CoreOp::Project { input, expr, .. } => {
                let env = self.op(input, env);
                self.expr(expr, &env);
                env
            }
            CoreOp::Pivot { input, value, name } => {
                let env = self.op(input, env);
                self.expr(value, &env);
                self.expr(name, &env);
                env
            }
            CoreOp::SetOp { left, right, .. } => {
                self.op(left, env);
                self.op(right, env);
                env.clone()
            }
            CoreOp::Window { input, defs } => {
                let mut env = self.op(input, env);
                for def in defs {
                    for a in &def.args {
                        self.expr(a, &env);
                    }
                    for p in &def.partition {
                        self.expr(p, &env);
                    }
                    for k in &def.order {
                        self.expr(&k.expr, &env);
                    }
                    env = env.bind(&def.var, SqlppType::Any);
                }
                env
            }
            CoreOp::With { bindings, body } => {
                let mut env = env.clone();
                for (name, q) in bindings {
                    self.op(&q.op, &env);
                    env = env.bind(name, SqlppType::Any);
                }
                self.op(body, &env)
            }
        }
    }

    #[allow(clippy::wrong_self_convention)] // "from" is the SQL clause
    fn from_item(&mut self, item: &CoreFrom, env: &TypeEnv) -> TypeEnv {
        match item {
            CoreFrom::Scan {
                expr,
                as_var,
                at_var,
            } => {
                let source_ty = self.expr(expr, env);
                let elem = match &source_ty {
                    SqlppType::Array(e) | SqlppType::Bag(e) => (**e).clone(),
                    SqlppType::Any | SqlppType::Union(_) => SqlppType::Any,
                    scalar => {
                        self.warn(format!(
                            "FROM source {expr} is a {scalar}, not a collection \
                             (it will bind as a singleton in permissive mode)"
                        ));
                        scalar.clone()
                    }
                };
                let mut out = env.bind(as_var, elem);
                if let Some(at) = at_var {
                    out = out.bind(at, SqlppType::Int);
                }
                out
            }
            CoreFrom::Unpivot {
                expr,
                value_var,
                name_var,
            } => {
                self.expr(expr, env);
                env.bind(value_var, SqlppType::Any)
                    .bind(name_var, SqlppType::Str)
            }
            CoreFrom::Let { expr, var } => {
                let ty = self.expr(expr, env);
                env.bind(var, ty)
            }
            CoreFrom::Correlate {
                left,
                right,
                left_pred,
            } => {
                let env = self.from_item(left, env);
                if let Some(p) = left_pred {
                    self.expr(p, &env);
                }
                self.from_item(right, &env)
            }
            CoreFrom::Join {
                left, right, on, ..
            } => {
                let env = self.from_item(left, env);
                let env = self.from_item(right, &env);
                self.expr(on, &env);
                env
            }
            CoreFrom::HashJoin {
                left,
                right,
                keys,
                left_pred,
                right_pred,
                residual,
                ..
            } => {
                let env = self.from_item(left, env);
                let env = self.from_item(right, &env);
                for (l, r) in keys {
                    self.expr(l, &env);
                    self.expr(r, &env);
                }
                for pred in [left_pred, right_pred, residual].into_iter().flatten() {
                    self.expr(pred, &env);
                }
                env
            }
        }
    }

    /// Infers an expression's structural type, warning on guaranteed
    /// anomalies along the way.
    fn expr(&mut self, e: &CoreExpr, env: &TypeEnv) -> SqlppType {
        match e {
            CoreExpr::Const(v) => sqlpp_schema::infer_value(v),
            CoreExpr::Var(name) => env.get(name),
            CoreExpr::Param(_) | CoreExpr::Dynamic(_) => SqlppType::Any,
            CoreExpr::Global(segments) => {
                let dotted = segments.join(".");
                self.schemas
                    .iter()
                    .find(|(n, _)| *n == dotted)
                    .map(|(_, ty)| SqlppType::Bag(Box::new(ty.clone())))
                    .unwrap_or(SqlppType::Any)
            }
            CoreExpr::Path(base, attr) => {
                let base_ty = self.expr(base, env);
                self.navigate(&base_ty, attr, e)
            }
            CoreExpr::Index(base, idx) => {
                let base_ty = self.expr(base, env);
                self.expr(idx, env);
                match base_ty {
                    SqlppType::Array(elem) => *elem,
                    SqlppType::Any | SqlppType::Union(_) => SqlppType::Any,
                    other => {
                        self.warn(format!("indexing a {other} in {e} is always MISSING"));
                        SqlppType::Missing
                    }
                }
            }
            CoreExpr::Bin(op, l, r) => {
                let lt = self.expr(l, env);
                let rt = self.expr(r, env);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        for (side, ty) in [("left", &lt), ("right", &rt)] {
                            if never_numeric(ty) {
                                self.warn(format!(
                                    "arithmetic in {e}: the {side} operand is \
                                     always a {ty}, never a number"
                                ));
                            }
                        }
                        numeric_join(&lt, &rt)
                    }
                    BinOp::Concat => {
                        for (side, ty) in [("left", &lt), ("right", &rt)] {
                            if never_string(ty) {
                                self.warn(format!(
                                    "|| in {e}: the {side} operand is always a \
                                     {ty}, never a string"
                                ));
                            }
                        }
                        SqlppType::Str
                    }
                    _ => SqlppType::Bool,
                }
            }
            CoreExpr::Un(_, inner) => {
                self.expr(inner, env);
                SqlppType::Any
            }
            CoreExpr::Like {
                expr,
                pattern,
                escape,
                ..
            } => {
                let t = self.expr(expr, env);
                if never_string(&t) {
                    self.warn(format!(
                        "LIKE in {e}: the matched value is always a {t}, \
                         never a string"
                    ));
                }
                self.expr(pattern, env);
                if let Some(esc) = escape {
                    self.expr(esc, env);
                }
                SqlppType::Bool
            }
            CoreExpr::Between {
                expr, low, high, ..
            } => {
                self.expr(expr, env);
                self.expr(low, env);
                self.expr(high, env);
                SqlppType::Bool
            }
            CoreExpr::In {
                expr, collection, ..
            } => {
                self.expr(expr, env);
                self.expr(collection, env);
                SqlppType::Bool
            }
            CoreExpr::Is { expr, .. } => {
                self.expr(expr, env);
                SqlppType::Bool
            }
            CoreExpr::Case { arms, else_expr } => {
                let mut ty: Option<SqlppType> = None;
                for (when, then) in arms {
                    self.expr(when, env);
                    let t = self.expr(then, env);
                    ty = Some(match ty {
                        None => t,
                        Some(prev) => prev.unify(t),
                    });
                }
                let e_ty = self.expr(else_expr, env);
                match ty {
                    None => e_ty,
                    Some(t) => t.unify(e_ty),
                }
            }
            CoreExpr::Call { args, .. } => {
                for a in args {
                    self.expr(a, env);
                }
                SqlppType::Any
            }
            CoreExpr::CollAgg { input, .. } => {
                self.expr(input, env);
                SqlppType::Any
            }
            CoreExpr::Subquery { plan, .. } => {
                self.op(&plan.op, env);
                SqlppType::Bag(Box::new(SqlppType::Any))
            }
            CoreExpr::Exists(q) => {
                self.op(&q.op, env);
                SqlppType::Bool
            }
            CoreExpr::TupleCtor(pairs) => {
                let mut fields = Vec::new();
                for (name, value) in pairs {
                    let vt = self.expr(value, env);
                    if let CoreExpr::Const(sqlpp_value::Value::Str(n)) = name {
                        fields.push(sqlpp_schema::Field {
                            name: n.clone(),
                            ty: vt,
                            optional: false,
                        });
                    }
                }
                SqlppType::Tuple(TupleType {
                    fields,
                    open: false,
                })
            }
            CoreExpr::ArrayCtor(items) => {
                let elem = self.elements_type(items, env);
                SqlppType::Array(Box::new(elem))
            }
            CoreExpr::BagCtor(items) => {
                let elem = self.elements_type(items, env);
                SqlppType::Bag(Box::new(elem))
            }
            CoreExpr::Cast { expr, ty } => {
                self.expr(expr, env);
                match ty.as_str() {
                    "INT" | "INTEGER" | "BIGINT" => SqlppType::Int,
                    "FLOAT" | "DOUBLE" | "REAL" => SqlppType::Float,
                    "DECIMAL" | "NUMERIC" => SqlppType::Decimal,
                    "STRING" | "VARCHAR" | "CHAR" | "TEXT" => SqlppType::Str,
                    "BOOLEAN" | "BOOL" => SqlppType::Bool,
                    _ => SqlppType::Any,
                }
            }
        }
    }

    fn elements_type(&mut self, items: &[CoreExpr], env: &TypeEnv) -> SqlppType {
        let mut ty: Option<SqlppType> = None;
        for item in items {
            let t = self.expr(item, env);
            ty = Some(match ty {
                None => t,
                Some(prev) => prev.unify(t),
            });
        }
        ty.unwrap_or(SqlppType::Any)
    }

    fn navigate(&mut self, base: &SqlppType, attr: &str, at: &CoreExpr) -> SqlppType {
        match base {
            SqlppType::Any => SqlppType::Any,
            SqlppType::Tuple(tt) => match tt.field(attr) {
                Some(f) => f.ty.clone(),
                None if tt.open => SqlppType::Any,
                None => {
                    self.warn_named(
                        format!(
                            "navigation {at}: the schema declares no attribute \
                             {attr:?} (always MISSING)"
                        ),
                        Some(attr.to_string()),
                    );
                    SqlppType::Missing
                }
            },
            SqlppType::Union(alts) => {
                // MISSING only if no alternative can carry the attribute.
                let viable: Vec<SqlppType> = alts
                    .iter()
                    .filter_map(|a| match a {
                        SqlppType::Tuple(tt) => tt
                            .field(attr)
                            .map(|f| f.ty.clone())
                            .or(if tt.open { Some(SqlppType::Any) } else { None }),
                        SqlppType::Any => Some(SqlppType::Any),
                        _ => None,
                    })
                    .collect();
                if viable.is_empty() {
                    self.warn_named(
                        format!(
                            "navigation {at}: no branch of {base} has attribute \
                             {attr:?} (always MISSING)"
                        ),
                        Some(attr.to_string()),
                    );
                    SqlppType::Missing
                } else {
                    SqlppType::Any
                }
            }
            SqlppType::Null | SqlppType::Missing => base.clone(),
            other => {
                self.warn(format!(
                    "navigation {at}: the value is always a {other}, which \
                     has no attributes (always MISSING)"
                ));
                SqlppType::Missing
            }
        }
    }
}

fn never_numeric(ty: &SqlppType) -> bool {
    match ty {
        SqlppType::Any
        | SqlppType::Int
        | SqlppType::Float
        | SqlppType::Decimal
        | SqlppType::Null
        | SqlppType::Missing => false,
        SqlppType::Union(alts) => alts.iter().all(never_numeric),
        _ => true,
    }
}

fn never_string(ty: &SqlppType) -> bool {
    match ty {
        SqlppType::Any | SqlppType::Str | SqlppType::Null | SqlppType::Missing => false,
        SqlppType::Union(alts) => alts.iter().all(never_string),
        _ => true,
    }
}

fn numeric_join(l: &SqlppType, r: &SqlppType) -> SqlppType {
    use SqlppType::*;
    match (l, r) {
        (Float, _) | (_, Float) => Float,
        (Decimal, _) | (_, Decimal) => Decimal,
        (Int, Int) => Int,
        _ => Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower_query, PlanConfig};
    use sqlpp_schema::infer_collection;
    use sqlpp_syntax::parse_query;

    fn schema() -> Vec<(String, SqlppType)> {
        let data = sqlpp_value::rows![
            {"id" => 1i64, "name" => "a", "tags" => sqlpp_value::array!["x"]},
        ];
        vec![("emp".to_string(), infer_collection(&data).unwrap())]
    }

    fn warnings(src: &str) -> Vec<String> {
        let schemas = schema();
        let config = PlanConfig {
            compat: Default::default(),
            schemas: schemas.clone(),
        };
        let plan = lower_query(&parse_query(src).unwrap(), &config).unwrap();
        check(&plan, &schemas)
            .into_iter()
            .map(|w| w.message)
            .collect()
    }

    #[test]
    fn clean_queries_have_no_warnings() {
        assert!(warnings("SELECT e.name AS n FROM emp AS e WHERE e.id > 0").is_empty());
        assert!(warnings("SELECT VALUE t FROM emp AS e, e.tags AS t").is_empty());
    }

    #[test]
    fn unknown_attribute_on_closed_tuple_warns() {
        let w = warnings("SELECT VALUE e.salary FROM emp AS e");
        assert_eq!(w.len(), 1, "{w:?}");
        assert!(w[0].contains("salary"), "{w:?}");
        assert!(w[0].contains("MISSING"), "{w:?}");
    }

    #[test]
    fn arithmetic_on_never_numeric_warns() {
        let w = warnings("SELECT VALUE e.name * 2 FROM emp AS e");
        assert!(w.iter().any(|m| m.contains("never a number")), "{w:?}");
    }

    #[test]
    fn navigation_into_scalar_warns() {
        let w = warnings("SELECT VALUE e.id.sub FROM emp AS e");
        assert!(w.iter().any(|m| m.contains("no attributes")), "{w:?}");
    }

    #[test]
    fn from_over_scalar_attribute_warns() {
        let w = warnings("SELECT VALUE x FROM emp AS e, e.id AS x");
        assert!(w.iter().any(|m| m.contains("not a collection")), "{w:?}");
    }

    #[test]
    fn schemaless_collections_never_warn() {
        // `other` has no schema: everything is Any, nothing is certain.
        let schemas = schema();
        let config = PlanConfig {
            compat: Default::default(),
            schemas: schemas.clone(),
        };
        let plan = lower_query(
            &parse_query("SELECT VALUE o.whatever.deep * 3 FROM other AS o").unwrap(),
            &config,
        )
        .unwrap();
        assert!(check(&plan, &schemas).is_empty());
    }

    #[test]
    fn union_types_warn_only_when_no_branch_fits() {
        let schemas = vec![(
            "mixed".to_string(),
            SqlppType::Union(vec![
                SqlppType::Tuple(TupleType::closed([("a", SqlppType::Int)])),
                SqlppType::Str,
            ]),
        )];
        let config = PlanConfig {
            compat: Default::default(),
            schemas: schemas.clone(),
        };
        // `.a` exists on one branch: no warning.
        let plan = lower_query(
            &parse_query("SELECT VALUE m.a FROM mixed AS m").unwrap(),
            &config,
        )
        .unwrap();
        assert!(check(&plan, &schemas).is_empty());
        // `.b` exists on no branch: warn.
        let plan = lower_query(
            &parse_query("SELECT VALUE m.b FROM mixed AS m").unwrap(),
            &config,
        )
        .unwrap();
        assert_eq!(check(&plan, &schemas).len(), 1);
    }
}
