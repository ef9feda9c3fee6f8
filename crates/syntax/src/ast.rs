//! The SQL++ abstract syntax tree.
//!
//! The AST mirrors the *surface* language: both classic SQL clause order
//! (`SELECT … FROM …`) and the paper's pipeline-friendly clause-last order
//! (`FROM … WHERE … SELECT …`, §V-B) parse to the same [`QueryBlock`]; the
//! original order is recorded so the pretty-printer can round-trip it.
//! Lowering to SQL++ Core (explicit variables, `SELECT VALUE` only,
//! `COLL_*` aggregates) happens in `sqlpp-plan`, not here.

use sqlpp_value::Decimal;

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // statements are built once per query
pub enum Statement {
    /// A query expression.
    Query(Query),
    /// A Hive-style `CREATE TABLE` schema declaration (Listing 5). Only
    /// the schema payload is modeled; SQL++ proper has no DDL in the paper.
    CreateTable(CreateTable),
    /// `INSERT INTO name (VALUE expr | query)` — PartiQL-style DML over
    /// named collections.
    Insert(Insert),
    /// `DELETE FROM name [AS alias] [WHERE cond]`.
    Delete(Delete),
    /// `UPDATE name [AS alias] SET path = expr, … [WHERE cond]`.
    Update(Update),
    /// `EXPLAIN [ANALYZE] <query>` — render the Core plan; with ANALYZE,
    /// execute it and annotate each operator with `ExecStats` counters.
    Explain {
        /// Execute the query and collect runtime statistics.
        analyze: bool,
        /// The query to explain.
        query: Box<Query>,
    },
}

/// An INSERT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Possibly dotted target collection name.
    pub target: Vec<String>,
    /// What to insert.
    pub source: InsertSource,
}

/// The payload of an INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `INSERT INTO t VALUE expr` — one element.
    Value(Expr),
    /// `INSERT INTO t <query>` — every element of the query result.
    Query(Box<Query>),
}

/// A DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Possibly dotted target collection name.
    pub target: Vec<String>,
    /// Range variable for the predicate (defaults to the last name
    /// segment).
    pub alias: Option<String>,
    /// Elements matching the predicate are removed; no predicate removes
    /// everything.
    pub where_clause: Option<Expr>,
}

/// An UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Possibly dotted target collection name.
    pub target: Vec<String>,
    /// Range variable (defaults like DELETE's).
    pub alias: Option<String>,
    /// `SET path = expr` assignments, applied left to right. The path is
    /// rooted at the element (`alias.a.b` or bare `a.b`).
    pub assignments: Vec<(Expr, Expr)>,
    /// Which elements to update (all when absent).
    pub where_clause: Option<Expr>,
}

/// `CREATE TABLE name (col type, …)` with the Hive-flavored type grammar
/// that the paper uses to demonstrate schema-declared heterogeneity.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Possibly dotted table name.
    pub name: Vec<String>,
    /// Column declarations.
    pub columns: Vec<(String, TypeExpr)>,
}

/// Type expressions for schema declarations (`INT`, `STRING`,
/// `ARRAY<STRING>`, `UNIONTYPE<STRING, ARRAY<STRING>>`, …).
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// A named scalar type, e.g. `INT`, `STRING`, `DOUBLE`, `BOOLEAN`.
    Named(String),
    /// `ARRAY<T>`.
    Array(Box<TypeExpr>),
    /// `BAG<T>` (non-Hive extension for completeness).
    Bag(Box<TypeExpr>),
    /// `STRUCT<name: T, …>`.
    Struct(Vec<(String, TypeExpr)>),
    /// `UNIONTYPE<T1, T2, …>` (Hive's union type, Listing 5).
    Union(Vec<TypeExpr>),
}

/// A full query: an optional `WITH` prefix, a body of set-operation-joined
/// blocks, and trailing ORDER BY / LIMIT / OFFSET that apply to the whole
/// body.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `WITH name AS (query), …` common table expressions.
    pub ctes: Vec<Cte>,
    /// The query body.
    pub body: SetExpr,
    /// `ORDER BY` items applying to the whole body.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` expression.
    pub limit: Option<Expr>,
    /// `OFFSET` expression.
    pub offset: Option<Expr>,
}

impl Query {
    /// The FROM-less `SELECT VALUE expr` query: how a bare expression
    /// (`Engine::eval_expr`, `INSERT … VALUE e`) enters the query
    /// pipeline. It evaluates to the singleton bag `{{ expr }}`.
    pub fn select_value(expr: Expr) -> Self {
        Query {
            ctes: Vec::new(),
            body: SetExpr::Block(Box::new(QueryBlock::with_select(
                SelectClause::SelectValue {
                    quantifier: SetQuantifier::All,
                    expr,
                },
            ))),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }
}

/// One common table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    /// The introduced name.
    pub name: String,
    /// Its defining query.
    pub query: Box<Query>,
}

/// Query body: a block or a set operation over bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    /// A single SELECT/FROM/… block.
    Block(Box<QueryBlock>),
    /// `left (UNION|INTERSECT|EXCEPT) [ALL] right`.
    SetOp {
        /// Which set operation.
        op: SetOp,
        /// Keep duplicates (`ALL`) or eliminate them.
        all: bool,
        /// Left operand.
        left: Box<SetExpr>,
        /// Right operand.
        right: Box<SetExpr>,
    },
}

/// The SQL set operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

/// Where the SELECT clause appeared in the source, for round-tripping the
/// paper's clause-last style (§V-B: "Either placement is fine in SQL++").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectPlacement {
    /// `SELECT … FROM …` — classic SQL.
    #[default]
    Leading,
    /// `FROM … SELECT …` — pipeline order.
    Trailing,
}

/// One SELECT-FROM-WHERE-GROUP-HAVING block.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBlock {
    /// The projection clause (all its forms).
    pub select: SelectClause,
    /// FROM items, in syntactic order; comma-separated items are
    /// left-correlated (§III).
    pub from: Vec<FromItem>,
    /// `LET` bindings (AsterixDB-style convenience extension; each binds a
    /// new variable usable by later clauses).
    pub lets: Vec<LetBinding>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY … [GROUP AS g]`.
    pub group_by: Option<GroupBy>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// Block-level ORDER BY (only when written inside a parenthesized
    /// block; the common case attaches to [`Query`] instead).
    pub order_by: Vec<OrderItem>,
    /// Block-level LIMIT.
    pub limit: Option<Expr>,
    /// Block-level OFFSET.
    pub offset: Option<Expr>,
    /// Source clause order.
    pub placement: SelectPlacement,
}

impl QueryBlock {
    /// An empty block with the given select clause (used by builders and
    /// tests).
    pub fn with_select(select: SelectClause) -> Self {
        QueryBlock {
            select,
            from: Vec::new(),
            lets: Vec::new(),
            where_clause: None,
            group_by: None,
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
            placement: SelectPlacement::Leading,
        }
    }
}

/// A `LET name = expr` binding.
#[derive(Debug, Clone, PartialEq)]
pub struct LetBinding {
    /// The variable introduced.
    pub name: String,
    /// Its defining expression (may reference earlier FROM/LET variables).
    pub expr: Expr,
}

/// The projection clause.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectClause {
    /// `SELECT [DISTINCT] item, …` — SQL sugar for a tuple-constructing
    /// SELECT VALUE (§V-A).
    Select {
        /// DISTINCT / ALL.
        quantifier: SetQuantifier,
        /// The projection list.
        items: Vec<SelectItem>,
    },
    /// `SELECT [DISTINCT] VALUE expr` — the Core constructor.
    SelectValue {
        /// DISTINCT / ALL.
        quantifier: SetQuantifier,
        /// The projected expression.
        expr: Expr,
    },
    /// `PIVOT value_expr AT name_expr` — constructs a single tuple from
    /// the binding stream (§VI-B).
    Pivot {
        /// Expression producing each attribute's value.
        value: Expr,
        /// Expression producing each attribute's name.
        name: Expr,
    },
}

/// DISTINCT/ALL on SELECT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SetQuantifier {
    /// Keep duplicates (default).
    #[default]
    All,
    /// Eliminate duplicates.
    Distinct,
}

/// One item of a SQL SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `expr [AS alias]`. When the alias is omitted the planner derives
    /// one from the expression's last path step, as SQL does.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional explicit alias.
        alias: Option<String>,
    },
    /// `*` — merge every FROM variable's binding.
    Wildcard,
    /// `alias.*` — spread one variable's tuple.
    QualifiedWildcard(String),
}

/// A FROM-clause item. Comma-joined items nest left-correlatedly; explicit
/// joins carry their own condition.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// `expr [AS var] [AT posvar]` — iterate a collection; `AT` binds the
    /// array position (PartiQL).
    Collection {
        /// The source expression (collection-valued, possibly correlated).
        expr: Expr,
        /// The element variable. `None` only transiently before alias
        /// inference in the planner.
        as_var: Option<String>,
        /// Optional position variable.
        at_var: Option<String>,
    },
    /// `UNPIVOT expr AS valvar AT namevar` — iterate a tuple's
    /// attribute/value pairs (§VI-A).
    Unpivot {
        /// Tuple-valued expression.
        expr: Expr,
        /// Variable bound to each attribute value.
        value_var: String,
        /// Variable bound to each attribute name.
        name_var: String,
    },
    /// An explicit join.
    Join {
        /// Join flavor.
        kind: JoinKind,
        /// Left input.
        left: Box<FromItem>,
        /// Right input.
        right: Box<FromItem>,
        /// `ON` condition (absent for CROSS joins).
        on: Option<Expr>,
    },
}

/// Join flavors. RIGHT/FULL are normalized by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

/// `GROUP BY key [AS alias], … [GROUP AS groupvar]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBy {
    /// Grouping keys with optional aliases (the alias names the key in
    /// post-grouping scope; defaults are derived like SELECT aliases).
    pub keys: Vec<GroupKeyExpr>,
    /// ROLLUP/CUBE/GROUPING SETS structure over the keys (§V-B: these
    /// analytical features are "wholly compatible" with SQL++).
    pub modifier: GroupModifier,
    /// `GROUP AS g`: the paper's extension exposing the whole group (§V-B).
    pub group_as: Option<String>,
}

/// Multi-grouping-set structure of a GROUP BY.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum GroupModifier {
    /// Plain GROUP BY: one grouping set with every key.
    #[default]
    Plain,
    /// `ROLLUP(k1, …, kn)`: the n+1 prefixes, down to the grand total.
    Rollup,
    /// `CUBE(k1, …, kn)`: all 2^n subsets.
    Cube,
    /// `GROUPING SETS ((…), …)`: explicit subsets, as index lists into
    /// `keys`.
    GroupingSets(Vec<Vec<usize>>),
}

/// One grouping key.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupKeyExpr {
    /// The key expression evaluated per input binding.
    pub expr: Expr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// The sort key.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
    /// NULLS FIRST/LAST override; `None` means the dialect default
    /// (NULLS FIRST ascending, NULLS LAST descending — i.e. absent values
    /// sort at the "small" end, matching the total order).
    pub nulls_first: Option<bool>,
}

/// Literal values in the syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// `NULL`.
    Null,
    /// `MISSING` (a literal in SQL++!).
    Missing,
    /// `TRUE`/`FALSE`.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Exact decimal literal (e.g. `3.14`).
    Decimal(Decimal),
    /// Float literal (exponent form or special `` `nan` ``/`` `±inf` ``).
    Float(f64),
    /// String literal.
    Str(String),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
}

impl BinOp {
    /// Canonical SQL spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Concat => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Not,
    Neg,
    Pos,
}

/// A path step after a primary expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PathStep {
    /// `.attr` or `."attr"`.
    Attr(String),
    /// `[index_expr]`.
    Index(Box<Expr>),
}

/// The expression grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Lit(Lit),
    /// A (possibly dotted) name: `e`, `hr.emp`, `e.projects`. Resolution
    /// into variable-vs-navigation-vs-catalog-name happens in the planner;
    /// syntactically this is a head identifier plus path steps.
    Path {
        /// The head identifier (a variable or the first segment of a
        /// catalog name). Quoted heads are marked to skip keyword checks.
        head: String,
        /// Navigation steps.
        steps: Vec<PathStep>,
    },
    /// A positional parameter `?` (0-based index in occurrence order).
    Param(usize),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr [NOT] LIKE pattern [ESCAPE esc]`.
    Like {
        /// The matched expression.
        expr: Box<Expr>,
        /// The pattern.
        pattern: Box<Expr>,
        /// Optional escape character expression.
        escape: Option<Box<Expr>>,
        /// NOT LIKE?
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// NOT BETWEEN?
        negated: bool,
    },
    /// `expr [NOT] IN (e1, …)` or `expr [NOT] IN collection_expr`.
    In {
        /// The tested expression.
        expr: Box<Expr>,
        /// The right-hand side.
        rhs: Box<InRhs>,
        /// NOT IN?
        negated: bool,
    },
    /// `expr IS [NOT] NULL | MISSING | <type>` — type/absence tests.
    Is {
        /// The tested expression.
        expr: Box<Expr>,
        /// What is tested.
        test: IsTest,
        /// IS NOT?
        negated: bool,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        /// Simple-CASE operand, if present.
        operand: Option<Box<Expr>>,
        /// `(when, then)` arms.
        arms: Vec<(Expr, Expr)>,
        /// ELSE result.
        else_expr: Option<Box<Expr>>,
    },
    /// Function call, including aggregates: `AVG(x)`, `COLL_AVG(c)`,
    /// `COUNT(DISTINCT x)`, `COUNT(*)`.
    Call {
        /// Upper-cased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// DISTINCT inside an aggregate call.
        distinct: bool,
        /// `COUNT(*)` marker.
        star: bool,
    },
    /// `func(args) OVER ([PARTITION BY …] [ORDER BY …])` — SQL window
    /// functions, which the paper notes are "wholly compatible" with
    /// SQL++ and thereby gain nested/heterogeneous inputs (§V-B).
    Window {
        /// Upper-cased function name (ROW_NUMBER, RANK, SUM, LAG, …).
        func: String,
        /// Arguments (empty for ROW_NUMBER/RANK/DENSE_RANK).
        args: Vec<Expr>,
        /// `COUNT(*) OVER (…)` marker.
        star: bool,
        /// PARTITION BY expressions.
        partition_by: Vec<Expr>,
        /// ORDER BY items within the partition.
        order_by: Vec<OrderItem>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Source expression.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeExpr,
    },
    /// `EXISTS (query)` / `NOT EXISTS` is wrapped in `Un(Not, …)`.
    Exists(Box<Query>),
    /// A parenthesized subquery in expression position.
    Subquery(Box<Query>),
    /// Tuple constructor `{'a': expr, …}` — names are expressions, almost
    /// always string literals.
    TupleCtor(Vec<(Expr, Expr)>),
    /// Array constructor `[e1, …]`.
    ArrayCtor(Vec<Expr>),
    /// Bag constructor `{{e1, …}}` / `<<e1, …>>`.
    BagCtor(Vec<Expr>),
}

/// Right-hand side of `IN`.
#[derive(Debug, Clone, PartialEq)]
pub enum InRhs {
    /// Parenthesized expression list.
    List(Vec<Expr>),
    /// Any collection-valued expression (subqueries included: they parse
    /// as `Expr::Subquery`).
    Expr(Expr),
}

/// The test of an `IS` expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsTest {
    /// `IS NULL` — true for NULL **and** MISSING in SQL compatibility
    /// terms; the evaluator follows SQL.
    Null,
    /// `IS MISSING` — true only for MISSING.
    Missing,
    /// `IS <typename>` dynamic type test (extension), e.g. `x IS ARRAY`.
    Type(String),
}

/// The direct sub-expressions of an [`Expr`], written once for the `&`
/// walker and its `&mut` twin: the patterns bind by reference either way,
/// and `for x in field` iterates a `&Vec` as well as its `&mut`.
macro_rules! expr_children {
    ($e:expr, $f:ident $(, $m:tt)?) => {
        match $e {
            Expr::Lit(_) | Expr::Param(_) | Expr::Exists(_) | Expr::Subquery(_) => {}
            Expr::Path { steps, .. } => {
                for step in steps {
                    if let PathStep::Index(i) = step {
                        $f(i);
                    }
                }
            }
            Expr::Un { expr, .. } | Expr::Is { expr, .. } | Expr::Cast { expr, .. } => $f(expr),
            Expr::Bin { left, right, .. } => {
                $f(left);
                $f(right);
            }
            Expr::Like {
                expr,
                pattern,
                escape,
                ..
            } => {
                $f(expr);
                $f(pattern);
                if let Some(e) = escape {
                    $f(e);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                $f(expr);
                $f(low);
                $f(high);
            }
            Expr::In { expr, rhs, .. } => {
                $f(expr);
                match &$($m)? **rhs {
                    InRhs::List(items) => {
                        for i in items {
                            $f(i);
                        }
                    }
                    InRhs::Expr(e) => $f(e),
                }
            }
            Expr::Case {
                operand,
                arms,
                else_expr,
            } => {
                if let Some(o) = operand {
                    $f(o);
                }
                for (w, t) in arms {
                    $f(w);
                    $f(t);
                }
                if let Some(e) = else_expr {
                    $f(e);
                }
            }
            Expr::Call { args, .. } | Expr::ArrayCtor(args) | Expr::BagCtor(args) => {
                for a in args {
                    $f(a);
                }
            }
            Expr::Window {
                args,
                partition_by,
                order_by,
                ..
            } => {
                for a in args.into_iter().chain(partition_by) {
                    $f(a);
                }
                for OrderItem { expr, .. } in order_by {
                    $f(expr);
                }
            }
            Expr::TupleCtor(pairs) => {
                for (n, v) in pairs {
                    $f(n);
                    $f(v);
                }
            }
        }
    };
}

impl Expr {
    /// A bare variable/identifier reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Path {
            head: name.into(),
            steps: Vec::new(),
        }
    }

    /// `head.a.b…` convenience constructor.
    pub fn path(head: impl Into<String>, attrs: &[&str]) -> Expr {
        Expr::Path {
            head: head.into(),
            steps: attrs
                .iter()
                .map(|a| PathStep::Attr((*a).to_string()))
                .collect(),
        }
    }

    /// Integer literal shorthand.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Lit::Int(v))
    }

    /// String literal shorthand.
    pub fn str(v: impl Into<String>) -> Expr {
        Expr::Lit(Lit::Str(v.into()))
    }

    /// Builds `left op right`.
    pub fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Bin {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// The default output alias SQL would derive for this expression in a
    /// SELECT list: the last attribute step of a path, else `None`.
    pub fn derived_alias(&self) -> Option<&str> {
        match self {
            Expr::Path { head, steps } => match steps.last() {
                Some(PathStep::Attr(a)) => Some(a),
                Some(PathStep::Index(_)) => None,
                None => Some(head),
            },
            _ => None,
        }
    }

    /// Calls `f` on each direct sub-expression, in source order: path
    /// indexes, operands, IN-list items, the CASE operand, arms and ELSE,
    /// call and window arguments, window partition and order keys.
    /// Subqueries are leaves — they are their own scope.
    pub fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        expr_children!(self, f)
    }

    /// [`Expr::for_each_child`], mutably.
    pub fn for_each_child_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Expr)) {
        expr_children!(self, f, mut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_alias_takes_last_attr_step() {
        assert_eq!(Expr::path("e", &["name"]).derived_alias(), Some("name"));
        assert_eq!(Expr::var("p").derived_alias(), Some("p"));
        assert_eq!(Expr::int(3).derived_alias(), None);
        let idx = Expr::Path {
            head: "e".into(),
            steps: vec![PathStep::Index(Box::new(Expr::int(0)))],
        };
        assert_eq!(idx.derived_alias(), None);
    }

    #[test]
    fn builders_compose() {
        let e = Expr::bin(BinOp::Eq, Expr::path("e", &["title"]), Expr::str("Manager"));
        match e {
            Expr::Bin { op: BinOp::Eq, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
