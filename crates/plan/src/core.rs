//! SQL++ **Core**: the fully composable algebra the paper defines SQL on
//! top of (§I: "we define a SQL++ Core, consisting of fully composable
//! operators. Then SQL itself is defined as 'syntactic sugar' rewritings
//! over the SQL++ Core").
//!
//! A [`CoreQuery`] is a pipeline of clause-operators over *binding
//! streams* — "it is best to think of a SQL++ query as being a pipeline of
//! clauses […] Each clause is a function that inputs data and outputs
//! data" (§V-B). Projection is always `SELECT VALUE` here; SQL's SELECT
//! list, its aggregate functions, and its subquery coercions exist only as
//! lowering rewrites in [`crate::lower`].

use std::fmt;

use sqlpp_value::Value;

/// The element variable of an ORDER BY above a set operation, which
/// lowers to `SELECT VALUE $out FROM (set-op) AS $out ORDER BY …`: a name
/// its keys leave free resolves at run time against the element, and its
/// scan streams the elements into the sort as the set operation yields
/// them.
pub const SET_OP_ELEMENT: &str = "$out";

/// A complete Core query.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreQuery {
    /// Root operator producing the query result value stream.
    pub op: CoreOp,
}

/// Clause-operators over binding streams.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreOp {
    /// Produces exactly one empty binding (a FROM-less query block).
    Single,
    /// The FROM clause: a function from the environment to a stream of
    /// binding tuples (§III).
    From {
        /// The (tree of) FROM items.
        item: CoreFrom,
    },
    /// WHERE / HAVING.
    Filter {
        /// Upstream operator.
        input: Box<CoreOp>,
        /// Predicate; bindings pass only when it evaluates to TRUE
        /// (NULL/MISSING/non-boolean do not pass).
        pred: CoreExpr,
    },
    /// GROUP BY … GROUP AS (§V-B): partitions the binding stream by key
    /// values and emits one binding per group with the key aliases plus
    /// one variable per fold. Lowering emits exactly one fold, the GROUP
    /// AS bag ([`GroupFold::Members`]); the optimizer may replace it with
    /// one [`GroupFold::Agg`] per SQL aggregate the block computes.
    Group {
        /// Upstream operator.
        input: Box<CoreOp>,
        /// `(alias, key expression)` pairs.
        keys: Vec<(String, CoreExpr)>,
        /// `(variable, fold)` pairs: what each group carries besides its
        /// keys, each bound to its variable in the group's binding.
        folds: Vec<(String, GroupFold)>,
        /// Emit one group even over empty input — SQL's behavior for
        /// ungrouped aggregation and for the grand-total grouping set.
        emit_empty_group: bool,
    },
    /// Concatenates binding streams — the plumbing under ROLLUP/CUBE/
    /// GROUPING SETS, which lower to one Group per grouping set.
    Append {
        /// The streams, in order.
        inputs: Vec<CoreOp>,
    },
    /// ORDER BY over bindings (pre-projection sort keys); above a set
    /// operation, those of the block over its elements ([`SET_OP_ELEMENT`]).
    Sort {
        /// Upstream operator.
        input: Box<CoreOp>,
        /// Sort keys, major first.
        keys: Vec<CoreSortKey>,
    },
    /// LIMIT/OFFSET over any stream.
    LimitOffset {
        /// Upstream operator.
        input: Box<CoreOp>,
        /// Maximum rows (evaluated once; non-negative integer).
        limit: Option<CoreExpr>,
        /// Rows to skip.
        offset: Option<CoreExpr>,
    },
    /// A binding [`CoreOp::Sort`] + LIMIT fused into a bounded-heap top-k
    /// (optimizer-produced — lowering never emits it). Yields the first
    /// `limit` bindings of the stable sort order after skipping `offset`,
    /// while holding at most `limit + offset` rows at once — so it never
    /// needs to spill.
    TopK {
        /// Upstream operator.
        input: Box<CoreOp>,
        /// Sort keys, major first.
        keys: Vec<CoreSortKey>,
        /// Maximum rows (evaluated once; non-negative integer).
        limit: CoreExpr,
        /// Rows of the sorted prefix to skip.
        offset: Option<CoreExpr>,
    },
    /// `SELECT [DISTINCT] VALUE expr` — Core's only projection (§V-A).
    Project {
        /// Upstream operator (binding stream).
        input: Box<CoreOp>,
        /// The constructor expression.
        expr: CoreExpr,
        /// DISTINCT (structural-equality dedup, first occurrence wins).
        distinct: bool,
    },
    /// `PIVOT value AT name` — folds the binding stream into ONE tuple
    /// (§VI-B).
    Pivot {
        /// Upstream operator (binding stream).
        input: Box<CoreOp>,
        /// Attribute value per binding.
        value: CoreExpr,
        /// Attribute name per binding (non-string names are skipped in
        /// permissive mode).
        name: CoreExpr,
    },
    /// UNION/INTERSECT/EXCEPT over value streams.
    SetOp {
        /// Which set operation.
        op: CoreSetOp,
        /// Bag semantics (`ALL`) vs set semantics.
        all: bool,
        /// Left input.
        left: Box<CoreOp>,
        /// Right input.
        right: Box<CoreOp>,
    },
    /// SQL window functions (§V-B: "wholly compatible with SQL++"):
    /// extends each binding with one variable per window definition,
    /// computed over the partitioned (and optionally ordered) binding
    /// stream.
    Window {
        /// Upstream operator (binding stream).
        input: Box<CoreOp>,
        /// The window computations, each bound to a fresh variable.
        defs: Vec<WindowDef>,
    },
    /// WITH: evaluates each binding once, then runs `body` with them in
    /// scope.
    With {
        /// `(name, definition)` pairs, in order (later CTEs see earlier).
        bindings: Vec<(String, CoreQuery)>,
        /// The main query.
        body: Box<CoreOp>,
    },
}

/// What a [`CoreOp::Group`] folds each group's input rows into.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupFold {
    /// The GROUP AS bag: one tuple of the `captured` in-scope variables
    /// per input row (Listing 14's `{e: …, p: …}` shape). The variable is
    /// the GROUP AS name (synthesized when the query didn't name one but
    /// aggregates need it).
    Members {
        /// Which in-scope variables are captured into each element tuple.
        captured: Vec<String>,
    },
    /// A non-DISTINCT aggregate of `body`, evaluated per input row in the
    /// row's own environment and folded into the group's running state —
    /// the optimizer's rewrite of `COLL_<func>(SELECT VALUE body′ FROM g
    /// AS $gi)` (and of `COLL_COUNT(g)`, whose body is a constant that is
    /// never absent), so the member bag is never built.
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// The per-row argument.
        body: CoreExpr,
    },
}

impl GroupFold {
    /// The `COUNT(*)` fold: a count of a constant that is never absent.
    pub fn count_star() -> GroupFold {
        GroupFold::Agg {
            func: AggFunc::Count,
            body: CoreExpr::bool(true),
        }
    }
}

/// Set operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CoreSetOp {
    Union,
    Intersect,
    Except,
}

/// One sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSortKey {
    /// Key expression.
    pub expr: CoreExpr,
    /// Descending?
    pub desc: bool,
    /// Absent values (MISSING/NULL) first? Defaults follow the total
    /// order: smallest first ascending, last descending.
    pub nulls_first: bool,
}

/// FROM-item tree. Comma lists lower to left-nested [`CoreFrom::Correlate`]
/// (left-correlation, §III); explicit joins keep their kind.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreFrom {
    /// Iterate a collection expression, binding each element to `as_var`
    /// (and, for arrays, its position to `at_var`). The expression may
    /// reference variables bound by FROM items to its left.
    Scan {
        /// Source expression.
        expr: CoreExpr,
        /// Element variable.
        as_var: String,
        /// Optional position variable.
        at_var: Option<String>,
    },
    /// Iterate a tuple's attribute/value pairs (§VI-A).
    Unpivot {
        /// Tuple-valued expression.
        expr: CoreExpr,
        /// Bound to each attribute value.
        value_var: String,
        /// Bound to each attribute name.
        name_var: String,
    },
    /// `LET`-style single binding: evaluates `expr` once per input binding.
    Let {
        /// Defining expression.
        expr: CoreExpr,
        /// Variable introduced.
        var: String,
    },
    /// Left-correlated product: for each left binding, evaluate the right
    /// item in the extended environment.
    Correlate {
        /// Left input.
        left: Box<CoreFrom>,
        /// Right input (may reference left's variables).
        right: Box<CoreFrom>,
        /// A left filter annotated by the optimizer (never produced by
        /// lowering): a copy of the leading left-only conjuncts of the
        /// WHERE that still runs above, like [`CoreFrom::HashJoin`]'s
        /// `left_pred` checked per left row before the right side opens.
        /// Because the WHERE keeps every conjunct, the left filter only
        /// drops a left row it evaluates to FALSE — every extension of
        /// that row then fails the WHERE's AND chain before any later
        /// conjunct runs. An unknown verdict or a data error lets the row
        /// through to the exact check above. Only permissive typing runs
        /// it: strict typing opens every left row's right side.
        left_pred: Option<CoreExpr>,
    },
    /// Explicit join with an ON condition, executed as a nested loop: the
    /// right side is re-evaluated (and the ON probed) once per left row.
    Join {
        /// INNER or LEFT (RIGHT/FULL are normalized during lowering).
        kind: CoreJoinKind,
        /// Left input.
        left: Box<CoreFrom>,
        /// Right input.
        right: Box<CoreFrom>,
        /// Join condition (TRUE for CROSS).
        on: CoreExpr,
        /// Variables introduced by the right side — needed to bind NULLs
        /// for unmatched left rows in LEFT joins.
        right_vars: Vec<String>,
    },
    /// Equi-join annotated by the optimizer (never produced by lowering):
    /// the right side is uncorrelated, so it is materialized exactly once
    /// into a hash table keyed on `keys`, and each left row probes it.
    ///
    /// The original join condition is exactly
    /// `left_pred AND right_pred AND (k_l = k_r for each key) AND residual`
    /// — the split is semantics-preserving because a row passes an AND
    /// chain iff every conjunct evaluates to TRUE, and NULL/MISSING keys
    /// never compare equal (3VL), matching a hash table that simply never
    /// stores or probes absent keys.
    HashJoin {
        /// INNER or LEFT.
        kind: CoreJoinKind,
        /// Left input.
        left: Box<CoreFrom>,
        /// Right input (uncorrelated: references none of left's variables).
        right: Box<CoreFrom>,
        /// `(left key, right key)` pairs: conjuncts of the form
        /// `l.x = r.y` where each side references only that side's vars.
        keys: Vec<(CoreExpr, CoreExpr)>,
        /// Conjuncts referencing only left-side (or outer) variables,
        /// checked per left row before probing.
        left_pred: Option<CoreExpr>,
        /// Conjuncts referencing only right-side variables, checked once
        /// per right row at build time.
        right_pred: Option<CoreExpr>,
        /// Conjuncts referencing both sides that are not equi-keys,
        /// re-checked on each hash match.
        residual: Option<CoreExpr>,
        /// Variables introduced by the right side, in binding order —
        /// used to combine matched envs and to NULL-pad LEFT joins.
        right_vars: Vec<String>,
    },
}

/// Join kinds surviving normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CoreJoinKind {
    Inner,
    Left,
}

/// One window computation: `var := func(args) OVER (PARTITION BY
/// partition ORDER BY order)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDef {
    /// The synthetic variable receiving the computed value.
    pub var: String,
    /// Which window function.
    pub func: WindowFunc,
    /// Argument expressions (evaluated per row).
    pub args: Vec<CoreExpr>,
    /// Partition key expressions.
    pub partition: Vec<CoreExpr>,
    /// In-partition ordering.
    pub order: Vec<CoreSortKey>,
}

/// Window functions. Aggregates use the SQL default frame: the whole
/// partition without ORDER BY; RANGE UNBOUNDED PRECEDING .. CURRENT ROW
/// (peers included) with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowFunc {
    /// `ROW_NUMBER()` — 1-based position in the ordered partition.
    RowNumber,
    /// `RANK()` — 1-based with gaps.
    Rank,
    /// `DENSE_RANK()` — 1-based without gaps.
    DenseRank,
    /// `LAG(expr [, offset [, default]])`.
    Lag,
    /// `LEAD(expr [, offset [, default]])`.
    Lead,
    /// A running/partition aggregate (`SUM(x) OVER (…)` etc.).
    Agg(AggFunc),
}

impl WindowFunc {
    /// Parses a window function name (upper-case).
    pub fn parse(name: &str) -> Option<WindowFunc> {
        Some(match name {
            "ROW_NUMBER" => WindowFunc::RowNumber,
            "RANK" => WindowFunc::Rank,
            "DENSE_RANK" => WindowFunc::DenseRank,
            "LAG" => WindowFunc::Lag,
            "LEAD" => WindowFunc::Lead,
            other => WindowFunc::Agg(
                AggFunc::parse(other)
                    .filter(|(_, coll)| !coll)
                    .map(|(f, _)| f)?,
            ),
        })
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            WindowFunc::RowNumber => "ROW_NUMBER",
            WindowFunc::Rank => "RANK",
            WindowFunc::DenseRank => "DENSE_RANK",
            WindowFunc::Lag => "LAG",
            WindowFunc::Lead => "LEAD",
            WindowFunc::Agg(f) => f.sql_name(),
        }
    }
}

/// Composable aggregate functions (§V-C): ordinary functions from a
/// collection to a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COLL_COUNT` — counts non-absent elements; `COUNT(*)` lowers to a
    /// count over the group variable itself.
    Count,
    /// `COLL_SUM`.
    Sum,
    /// `COLL_AVG`.
    Avg,
    /// `COLL_MIN`.
    Min,
    /// `COLL_MAX`.
    Max,
    /// `COLL_EVERY` — true when every element is true.
    Every,
    /// `COLL_SOME`/`COLL_ANY`.
    Some,
}

impl AggFunc {
    /// The SQL spelling.
    pub fn sql_name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Every => "EVERY",
            AggFunc::Some => "SOME",
        }
    }

    /// The composable (COLL_) spelling.
    pub fn coll_name(self) -> &'static str {
        match self {
            AggFunc::Count => "COLL_COUNT",
            AggFunc::Sum => "COLL_SUM",
            AggFunc::Avg => "COLL_AVG",
            AggFunc::Min => "COLL_MIN",
            AggFunc::Max => "COLL_MAX",
            AggFunc::Every => "COLL_EVERY",
            AggFunc::Some => "COLL_SOME",
        }
    }

    /// Parses either the SQL name (`AVG`) or the composable name
    /// (`COLL_AVG`); the bool is true for the composable form.
    pub fn parse(name: &str) -> Option<(AggFunc, bool)> {
        let (base, coll) = match name.strip_prefix("COLL_") {
            Some(rest) => (rest, true),
            None => (name, false),
        };
        let f = match base {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "EVERY" => AggFunc::Every,
            "SOME" | "ANY" => AggFunc::Some,
            _ => return None,
        };
        Some((f, coll))
    }
}

/// How a subquery's bag result is adapted to its context — only ever
/// non-`Bag` for SQL (sugar) subqueries in SQL-compatibility mode: "the
/// context of the subquery designates whether the subquery's result should
/// be coerced into a scalar value […] None of this implicit 'magic'
/// applies to SELECT VALUE" (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coercion {
    /// No coercion: the result is the bag itself.
    Bag,
    /// SQL scalar-subquery coercion: 0 rows → NULL, 1 single-attribute row
    /// → that value, otherwise a type error signal.
    Scalar,
    /// SQL IN-subquery coercion: each single-attribute row → its value.
    Collection,
}

/// Core expressions. Variables are explicit (§III: "the explicit denotation
/// of variables is essential to SQL++ Core").
#[derive(Debug, Clone, PartialEq)]
pub enum CoreExpr {
    /// A literal value.
    Const(Value),
    /// A resolved in-scope variable.
    Var(String),
    /// A positional parameter.
    Param(usize),
    /// A catalog reference: segments resolved against the catalog by
    /// longest bound prefix; unconsumed segments navigate into the value.
    Global(Vec<String>),
    /// An identifier the planner could not resolve statically: tried at
    /// runtime as (1) environment variable, (2) catalog name, (3) unique
    /// attribute of exactly one in-scope tuple binding — the dynamic
    /// counterpart of the paper's schema-based disambiguation.
    Dynamic(String),
    /// `base.attr`.
    Path(Box<CoreExpr>, String),
    /// `base[index]`.
    Index(Box<CoreExpr>, Box<CoreExpr>),
    /// Binary operator (re-using the surface enum; semantics live in
    /// sqlpp-eval).
    Bin(sqlpp_syntax::ast::BinOp, Box<CoreExpr>, Box<CoreExpr>),
    /// Unary operator.
    Un(sqlpp_syntax::ast::UnOp, Box<CoreExpr>),
    /// LIKE.
    Like {
        /// Matched expression.
        expr: Box<CoreExpr>,
        /// Pattern.
        pattern: Box<CoreExpr>,
        /// Escape character.
        escape: Option<Box<CoreExpr>>,
        /// NOT LIKE?
        negated: bool,
    },
    /// BETWEEN.
    Between {
        /// Tested expression.
        expr: Box<CoreExpr>,
        /// Lower bound.
        low: Box<CoreExpr>,
        /// Upper bound.
        high: Box<CoreExpr>,
        /// NOT BETWEEN?
        negated: bool,
    },
    /// IN over an evaluated collection (lists lower to `ArrayCtor`).
    In {
        /// Tested expression.
        expr: Box<CoreExpr>,
        /// Collection-valued right-hand side.
        collection: Box<CoreExpr>,
        /// NOT IN?
        negated: bool,
    },
    /// IS tests.
    Is {
        /// Tested expression.
        expr: Box<CoreExpr>,
        /// NULL / MISSING / type name.
        test: sqlpp_syntax::ast::IsTest,
        /// IS NOT?
        negated: bool,
    },
    /// CASE (simple CASE is lowered to searched CASE during lowering).
    Case {
        /// `(condition, result)` arms.
        arms: Vec<(CoreExpr, CoreExpr)>,
        /// ELSE (defaults to NULL per SQL when absent).
        else_expr: Box<CoreExpr>,
    },
    /// Scalar/function call by (upper-case) name.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<CoreExpr>,
    },
    /// A composable aggregate over a collection expression (§V-C).
    CollAgg {
        /// Which aggregate.
        func: AggFunc,
        /// Deduplicate elements first (`COUNT(DISTINCT x)`).
        distinct: bool,
        /// The collection input.
        input: Box<CoreExpr>,
    },
    /// A nested query with its context-determined coercion.
    Subquery {
        /// The nested plan.
        plan: Box<CoreQuery>,
        /// Adaptation to context (§V-A).
        coercion: Coercion,
    },
    /// EXISTS.
    Exists(Box<CoreQuery>),
    /// Tuple constructor; MISSING attribute values are dropped at runtime.
    TupleCtor(Vec<(CoreExpr, CoreExpr)>),
    /// Array constructor; MISSING elements are dropped at runtime.
    ArrayCtor(Vec<CoreExpr>),
    /// Bag constructor; MISSING elements are dropped at runtime.
    BagCtor(Vec<CoreExpr>),
    /// CAST.
    Cast {
        /// Source.
        expr: Box<CoreExpr>,
        /// Target type name (normalized upper-case scalar names).
        ty: String,
    },
}

impl CoreExpr {
    /// Boolean literal shorthand.
    pub fn bool(v: bool) -> CoreExpr {
        CoreExpr::Const(Value::Bool(v))
    }

    /// Whether a nested plan (`Subquery` or `EXISTS`) appears anywhere in
    /// this expression.
    pub fn holds_plan(&self) -> bool {
        let mut held = self.plan().is_some();
        self.for_each_child(&mut |c| held = held || c.holds_plan());
        held
    }
}

// ---------------------------------------------------------------------
// Children: the one enumeration every pass recurses through
// ---------------------------------------------------------------------
//
// Each enumeration is written once, in a macro, and expanded into a `&`
// walker and its `&mut` twin, so the two cannot disagree: the patterns
// bind by reference either way, and `for x in field` iterates a `&Vec` or
// `&Option` as well as its `&mut`. The walkers take a callback and
// allocate nothing. Nested plans are not expression children: a pass
// reaches them through [`CoreExpr::plan`].

/// The direct sub-expressions of a [`CoreExpr`], in field order.
macro_rules! expr_children {
    ($e:expr, $f:ident) => {
        match $e {
            CoreExpr::Const(_)
            | CoreExpr::Var(_)
            | CoreExpr::Param(_)
            | CoreExpr::Global(_)
            | CoreExpr::Dynamic(_)
            | CoreExpr::Subquery { .. }
            | CoreExpr::Exists(_) => {}
            CoreExpr::Path(e, _)
            | CoreExpr::Un(_, e)
            | CoreExpr::Is { expr: e, .. }
            | CoreExpr::Cast { expr: e, .. }
            | CoreExpr::CollAgg { input: e, .. } => $f(e),
            CoreExpr::Index(a, b) | CoreExpr::Bin(_, a, b) => {
                $f(a);
                $f(b);
            }
            CoreExpr::Like {
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
            CoreExpr::Between {
                expr, low, high, ..
            } => {
                $f(expr);
                $f(low);
                $f(high);
            }
            CoreExpr::In {
                expr, collection, ..
            } => {
                $f(expr);
                $f(collection);
            }
            CoreExpr::Case { arms, else_expr } => {
                for (w, t) in arms {
                    $f(w);
                    $f(t);
                }
                $f(else_expr);
            }
            CoreExpr::Call { args, .. } | CoreExpr::ArrayCtor(args) | CoreExpr::BagCtor(args) => {
                for a in args {
                    $f(a);
                }
            }
            CoreExpr::TupleCtor(pairs) => {
                for (n, v) in pairs {
                    $f(n);
                    $f(v);
                }
            }
        }
    };
}

/// Every expression a [`CoreFrom`] tree holds: each side's, then the
/// node's own (a correlate's left filter; a join's ON; a hash join's keys,
/// then its probe filter, build filter and residual). Each is tagged with
/// whether it is a leaf's source (a scan's, UNPIVOT's or LET's
/// expression).
macro_rules! from_exprs {
    ($item:expr, $f:ident, $rec:ident) => {
        match $item {
            CoreFrom::Scan { expr, .. }
            | CoreFrom::Unpivot { expr, .. }
            | CoreFrom::Let { expr, .. } => $f(expr, true),
            CoreFrom::Correlate {
                left,
                right,
                left_pred,
            } => {
                left.$rec($f);
                right.$rec($f);
                if let Some(p) = left_pred {
                    $f(p, false);
                }
            }
            CoreFrom::Join {
                left, right, on, ..
            } => {
                left.$rec($f);
                right.$rec($f);
                $f(on, false);
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
                left.$rec($f);
                right.$rec($f);
                for (l, r) in keys {
                    $f(l, false);
                    $f(r, false);
                }
                for p in [left_pred, right_pred, residual].into_iter().flatten() {
                    $f(p, false);
                }
            }
        }
    };
}

/// Every expression a [`CoreOp`] itself holds, each tagged with whether
/// it is evaluated over the operator's input bindings — rather than in
/// the enclosing scope, as FROM sources, LIMIT/OFFSET operands and
/// value-level sort keys are.
macro_rules! op_exprs {
    ($op:expr, $f:ident, $from:ident) => {
        match $op {
            CoreOp::Single | CoreOp::Append { .. } | CoreOp::SetOp { .. } | CoreOp::With { .. } => {
            }
            CoreOp::From { item } => item.$from(&mut |e, _| $f(e, false)),
            CoreOp::Filter { pred, .. } => $f(pred, true),
            CoreOp::Group { keys, folds, .. } => {
                for (_, k) in keys {
                    $f(k, true);
                }
                for (_, fold) in folds {
                    if let GroupFold::Agg { body, .. } = fold {
                        $f(body, true);
                    }
                }
            }
            CoreOp::Sort { keys, .. } => {
                for CoreSortKey { expr, .. } in keys {
                    $f(expr, true);
                }
            }
            CoreOp::LimitOffset { limit, offset, .. } => {
                for e in [limit, offset].into_iter().flatten() {
                    $f(e, false);
                }
            }
            CoreOp::TopK {
                keys,
                limit,
                offset,
                ..
            } => {
                for CoreSortKey { expr, .. } in keys {
                    $f(expr, true);
                }
                $f(limit, false);
                if let Some(e) = offset {
                    $f(e, false);
                }
            }
            CoreOp::Project { expr, .. } => $f(expr, true),
            CoreOp::Pivot { value, name, .. } => {
                $f(value, true);
                $f(name, true);
            }
            CoreOp::Window { defs, .. } => {
                for WindowDef {
                    args,
                    partition,
                    order,
                    ..
                } in defs
                {
                    for e in args.into_iter().chain(partition) {
                        $f(e, true);
                    }
                    for CoreSortKey { expr, .. } in order {
                        $f(expr, true);
                    }
                }
            }
        }
    };
}

/// The single input of a unary [`CoreOp`].
macro_rules! unary_input {
    ($op:expr) => {
        match $op {
            CoreOp::Filter { input, .. }
            | CoreOp::Group { input, .. }
            | CoreOp::Sort { input, .. }
            | CoreOp::LimitOffset { input, .. }
            | CoreOp::TopK { input, .. }
            | CoreOp::Project { input, .. }
            | CoreOp::Pivot { input, .. }
            | CoreOp::Window { input, .. } => Some(input),
            _ => None,
        }
    };
}

/// Every operator child of a [`CoreOp`]: the union's or append's inputs,
/// the WITH bindings then the body, or the unary input.
macro_rules! op_children {
    ($op:expr, $f:ident) => {
        match $op {
            CoreOp::Append { inputs } => {
                for i in inputs {
                    $f(i);
                }
            }
            CoreOp::SetOp { left, right, .. } => {
                $f(left);
                $f(right);
            }
            CoreOp::With { bindings, body } => {
                for (_, CoreQuery { op }) in bindings {
                    $f(op);
                }
                $f(body);
            }
            other => {
                if let Some(input) = unary_input!(other) {
                    $f(input);
                }
            }
        }
    };
}

impl CoreExpr {
    /// Calls `f` on each direct sub-expression, in field order.
    pub(crate) fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a CoreExpr)) {
        expr_children!(self, f)
    }

    /// [`CoreExpr::for_each_child`], mutably.
    pub(crate) fn for_each_child_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut CoreExpr)) {
        expr_children!(self, f)
    }

    /// The plan nested in a `Subquery` or `EXISTS`.
    pub(crate) fn plan(&self) -> Option<&CoreQuery> {
        match self {
            CoreExpr::Subquery { plan, .. } | CoreExpr::Exists(plan) => Some(plan),
            _ => None,
        }
    }

    /// [`CoreExpr::plan`], mutably.
    pub(crate) fn plan_mut(&mut self) -> Option<&mut CoreQuery> {
        match self {
            CoreExpr::Subquery { plan, .. } | CoreExpr::Exists(plan) => Some(plan),
            _ => None,
        }
    }
}

impl CoreFrom {
    /// Calls `f` on every expression in this FROM tree — each side's,
    /// then the node's own — with whether it is a leaf's source.
    pub(crate) fn for_each_expr<'a>(&'a self, f: &mut dyn FnMut(&'a CoreExpr, bool)) {
        from_exprs!(self, f, for_each_expr)
    }

    /// [`CoreFrom::for_each_expr`], mutably.
    pub(crate) fn for_each_expr_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut CoreExpr, bool)) {
        from_exprs!(self, f, for_each_expr_mut)
    }
}

impl CoreOp {
    /// Calls `f` on every expression this operator itself holds (its FROM
    /// tree's included, nested plans and operator children not), with
    /// whether the expression is evaluated over the operator's input
    /// bindings.
    pub(crate) fn for_each_expr<'a>(&'a self, f: &mut dyn FnMut(&'a CoreExpr, bool)) {
        op_exprs!(self, f, for_each_expr)
    }

    /// [`CoreOp::for_each_expr`], mutably.
    pub(crate) fn for_each_expr_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut CoreExpr, bool)) {
        op_exprs!(self, f, for_each_expr_mut)
    }

    /// Calls `f` on every operator child, in plan order.
    pub(crate) fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a CoreOp)) {
        op_children!(self, f)
    }

    /// [`CoreOp::for_each_child`], mutably.
    pub(crate) fn for_each_child_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut CoreOp)) {
        op_children!(self, f)
    }

    /// The single input of a unary operator.
    pub(crate) fn input(&self) -> Option<&CoreOp> {
        unary_input!(self).map(|i| &**i)
    }

    /// [`CoreOp::input`], mutably.
    pub(crate) fn input_mut(&mut self) -> Option<&mut CoreOp> {
        unary_input!(self).map(|i| &mut **i)
    }
}

impl CoreQuery {
    /// Every operator in this plan, in pre-order — the node itself, then
    /// nested subquery plans inside its expressions, then its operator
    /// children. The position of a node in this sequence is its stable
    /// *plan index*: execution statistics are keyed by it (it survives
    /// plan clones and optimizer rewrites, unlike node addresses).
    pub fn preorder_ops(&self) -> Vec<&CoreOp> {
        fn op<'p>(o: &'p CoreOp, out: &mut Vec<&'p CoreOp>) {
            out.push(o);
            o.for_each_expr(&mut |e, _| expr(e, out));
            o.for_each_child(&mut |c| op(c, out));
        }
        fn expr<'p>(e: &'p CoreExpr, out: &mut Vec<&'p CoreOp>) {
            if let Some(q) = e.plan() {
                op(&q.op, out);
            }
            e.for_each_child(&mut |c| expr(c, out));
        }
        let mut out = Vec::new();
        op(&self.op, &mut out);
        out
    }
}

impl CoreOp {
    /// How the streaming executor runs this operator: `"streaming"` when
    /// rows flow through one at a time, `"materializing"` when it buffers
    /// rows (a pipeline breaker — ORDER BY, GROUP BY, window, DISTINCT,
    /// non-`UNION ALL` set operations, and FROM trees containing a
    /// hash-join build side).
    pub fn pipeline_class(&self) -> &'static str {
        let materializes = match self {
            CoreOp::Sort { .. }
            | CoreOp::TopK { .. }
            | CoreOp::Group { .. }
            | CoreOp::Window { .. } => true,
            CoreOp::Project { distinct, .. } => *distinct,
            CoreOp::SetOp { op, all, .. } => !(matches!(op, CoreSetOp::Union) && *all),
            CoreOp::From { item } => from_materializes(item),
            _ => false,
        };
        if materializes {
            "materializing"
        } else {
            "streaming"
        }
    }
}

fn from_materializes(item: &CoreFrom) -> bool {
    match item {
        CoreFrom::HashJoin { .. } => true,
        CoreFrom::Correlate { left, right, .. } | CoreFrom::Join { left, right, .. } => {
            from_materializes(left) || from_materializes(right)
        }
        CoreFrom::Scan { .. } | CoreFrom::Unpivot { .. } | CoreFrom::Let { .. } => false,
    }
}

// ---------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------

impl CoreQuery {
    /// Renders the operator tree for `EXPLAIN`.
    pub fn explain(&self) -> String {
        self.explain_with(&mut |_| None)
    }

    /// Renders the operator tree with a per-operator annotation appended
    /// to each operator's line (`EXPLAIN ANALYZE`). The callback receives
    /// each node of *this* tree; the engine matches nodes to their
    /// [`CoreQuery::preorder_ops`] index, which is why annotation is a
    /// callback rather than a plan-side map — `sqlpp-plan` knows nothing
    /// about execution statistics.
    pub fn explain_with(&self, annotate: &mut dyn FnMut(&CoreOp) -> Option<String>) -> String {
        let mut out = String::new();
        explain_op(&self.op, 0, &mut out, annotate);
        out
    }
}

fn pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn explain_op(
    op: &CoreOp,
    indent: usize,
    out: &mut String,
    annotate: &mut dyn FnMut(&CoreOp) -> Option<String>,
) {
    let start = out.len();
    pad(indent, out);
    match op {
        CoreOp::Single => out.push_str("single\n"),
        CoreOp::From { item } => {
            out.push_str("from\n");
            explain_from(item, indent + 1, out);
        }
        CoreOp::Filter { input, pred } => {
            out.push_str(&format!("filter {pred}\n"));
            explain_op(input, indent + 1, out, annotate);
        }
        CoreOp::Append { inputs } => {
            out.push_str("append\n");
            for i in inputs {
                explain_op(i, indent + 1, out, annotate);
            }
        }
        CoreOp::Group {
            input, keys, folds, ..
        } => {
            out.push_str("group by ");
            for (i, (alias, expr)) in keys.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{expr} AS {alias}"));
            }
            if keys.is_empty() {
                out.push_str("<all>");
            }
            let mut aggs = Vec::new();
            for (var, fold) in folds {
                match fold {
                    GroupFold::Members { captured } => out.push_str(&format!(
                        " group as {var} capturing [{}]",
                        captured.join(", ")
                    )),
                    GroupFold::Agg { func, body } => aggs.push(match (func, body) {
                        (AggFunc::Count, CoreExpr::Const(v)) if !v.is_absent() => {
                            format!("{var} = COUNT(*)")
                        }
                        _ => format!("{var} = {}({body})", func.sql_name()),
                    }),
                }
            }
            if !aggs.is_empty() || folds.is_empty() {
                out.push_str(&format!(" folding [{}]", aggs.join(", ")));
            }
            out.push('\n');
            explain_op(input, indent + 1, out, annotate);
        }
        CoreOp::Sort { input, keys } => {
            out.push_str("sort");
            for k in keys {
                out.push_str(&format!(" {}{}", k.expr, if k.desc { " desc" } else { "" }));
            }
            out.push('\n');
            explain_op(input, indent + 1, out, annotate);
        }
        CoreOp::LimitOffset {
            input,
            limit,
            offset,
        } => {
            out.push_str("limit/offset");
            if let Some(l) = limit {
                out.push_str(&format!(" limit {l}"));
            }
            if let Some(o) = offset {
                out.push_str(&format!(" offset {o}"));
            }
            out.push('\n');
            explain_op(input, indent + 1, out, annotate);
        }
        CoreOp::TopK {
            input,
            keys,
            limit,
            offset,
        } => {
            out.push_str("top-k");
            for k in keys {
                out.push_str(&format!(" {}{}", k.expr, if k.desc { " desc" } else { "" }));
            }
            out.push_str(&format!(" limit {limit}"));
            if let Some(o) = offset {
                out.push_str(&format!(" offset {o}"));
            }
            out.push('\n');
            explain_op(input, indent + 1, out, annotate);
        }
        CoreOp::Project {
            input,
            expr,
            distinct,
        } => {
            out.push_str(&format!(
                "select {}value {expr}\n",
                if *distinct { "distinct " } else { "" }
            ));
            explain_op(input, indent + 1, out, annotate);
        }
        CoreOp::Pivot { input, value, name } => {
            out.push_str(&format!("pivot {value} at {name}\n"));
            explain_op(input, indent + 1, out, annotate);
        }
        CoreOp::SetOp {
            op: so,
            all,
            left,
            right,
        } => {
            out.push_str(&format!(
                "{}{}\n",
                match so {
                    CoreSetOp::Union => "union",
                    CoreSetOp::Intersect => "intersect",
                    CoreSetOp::Except => "except",
                },
                if *all { " all" } else { "" }
            ));
            explain_op(left, indent + 1, out, annotate);
            explain_op(right, indent + 1, out, annotate);
        }
        CoreOp::Window { input, defs } => {
            out.push_str("window");
            for d in defs {
                out.push_str(&format!(" {} := {}(", d.var, d.func.name()));
                for (i, a) in d.args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("{a}"));
                }
                out.push_str(") over(");
                for (i, p) in d.partition.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("{p}"));
                }
                if !d.order.is_empty() {
                    out.push_str(" order");
                    for k in &d.order {
                        out.push_str(&format!(" {}{}", k.expr, if k.desc { " desc" } else { "" }));
                    }
                }
                out.push(')');
            }
            out.push('\n');
            explain_op(input, indent + 1, out, annotate);
        }
        CoreOp::With { bindings, body } => {
            out.push_str("with\n");
            for (name, q) in bindings {
                pad(indent + 1, out);
                out.push_str(&format!("{name} :=\n"));
                explain_op(&q.op, indent + 2, out, annotate);
            }
            explain_op(body, indent + 1, out, annotate);
        }
    }
    // Splice the annotation onto this operator's own line — the first
    // newline written since `start`; children render after it.
    if let Some(ann) = annotate(op) {
        if let Some(nl) = out[start..].find('\n') {
            out.insert_str(start + nl, &ann);
        }
    }
}

fn explain_from(item: &CoreFrom, indent: usize, out: &mut String) {
    pad(indent, out);
    match item {
        CoreFrom::Scan {
            expr,
            as_var,
            at_var,
        } => {
            out.push_str(&format!("scan {expr} as {as_var}"));
            if let Some(at) = at_var {
                out.push_str(&format!(" at {at}"));
            }
            out.push('\n');
        }
        CoreFrom::Unpivot {
            expr,
            value_var,
            name_var,
        } => {
            out.push_str(&format!("unpivot {expr} as {value_var} at {name_var}\n"));
        }
        CoreFrom::Let { expr, var } => {
            out.push_str(&format!("let {var} = {expr}\n"));
        }
        CoreFrom::Correlate {
            left,
            right,
            left_pred,
        } => {
            out.push_str("correlate");
            if let Some(p) = left_pred {
                out.push_str(&format!(" left-filter {p}"));
            }
            out.push('\n');
            explain_from(left, indent + 1, out);
            explain_from(right, indent + 1, out);
        }
        CoreFrom::Join {
            kind,
            left,
            right,
            on,
            ..
        } => {
            out.push_str(&format!(
                "{} nested-loop join on {on}\n",
                match kind {
                    CoreJoinKind::Inner => "inner",
                    CoreJoinKind::Left => "left",
                }
            ));
            explain_from(left, indent + 1, out);
            explain_from(right, indent + 1, out);
        }
        CoreFrom::HashJoin {
            kind,
            left,
            right,
            keys,
            left_pred,
            right_pred,
            residual,
            ..
        } => {
            out.push_str(&format!(
                "{} hash join on ",
                match kind {
                    CoreJoinKind::Inner => "inner",
                    CoreJoinKind::Left => "left",
                }
            ));
            for (i, (l, r)) in keys.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{l} = {r}"));
            }
            if let Some(p) = left_pred {
                out.push_str(&format!(" probe-filter {p}"));
            }
            if let Some(p) = right_pred {
                out.push_str(&format!(" build-filter {p}"));
            }
            if let Some(p) = residual {
                out.push_str(&format!(" residual {p}"));
            }
            out.push('\n');
            explain_from(left, indent + 1, out);
            explain_from(right, indent + 1, out);
        }
    }
}

impl fmt::Display for CoreExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreExpr::Const(v) => write!(f, "{v}"),
            CoreExpr::Var(v) => write!(f, "{v}"),
            CoreExpr::Param(i) => write!(f, "${i}"),
            CoreExpr::Global(segs) => write!(f, "@{}", segs.join(".")),
            CoreExpr::Dynamic(name) => write!(f, "?{name}"),
            CoreExpr::Path(base, attr) => write!(f, "{base}.{attr}"),
            CoreExpr::Index(base, idx) => write!(f, "{base}[{idx}]"),
            CoreExpr::Bin(op, l, r) => write!(f, "({l} {} {r})", op.as_str()),
            CoreExpr::Un(op, e) => match op {
                sqlpp_syntax::ast::UnOp::Not => write!(f, "(NOT {e})"),
                sqlpp_syntax::ast::UnOp::Neg => write!(f, "(-{e})"),
                sqlpp_syntax::ast::UnOp::Pos => write!(f, "(+{e})"),
            },
            CoreExpr::Like {
                expr,
                pattern,
                negated,
                ..
            } => {
                write!(
                    f,
                    "({expr} {}LIKE {pattern})",
                    if *negated { "NOT " } else { "" }
                )
            }
            CoreExpr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            CoreExpr::In {
                expr,
                collection,
                negated,
            } => write!(
                f,
                "({expr} {}IN {collection})",
                if *negated { "NOT " } else { "" }
            ),
            CoreExpr::Is {
                expr,
                test,
                negated,
            } => {
                let what = match test {
                    sqlpp_syntax::ast::IsTest::Null => "NULL".to_string(),
                    sqlpp_syntax::ast::IsTest::Missing => "MISSING".to_string(),
                    sqlpp_syntax::ast::IsTest::Type(t) => t.clone(),
                };
                write!(
                    f,
                    "({expr} IS {}{what})",
                    if *negated { "NOT " } else { "" }
                )
            }
            CoreExpr::Case { arms, else_expr } => {
                write!(f, "CASE")?;
                for (w, t) in arms {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                write!(f, " ELSE {else_expr} END")
            }
            CoreExpr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            CoreExpr::CollAgg {
                func,
                distinct,
                input,
            } => write!(
                f,
                "{}({}{input})",
                func.coll_name(),
                if *distinct { "DISTINCT " } else { "" }
            ),
            CoreExpr::Subquery { plan, coercion } => {
                let tag = match coercion {
                    Coercion::Bag => "",
                    Coercion::Scalar => "scalar:",
                    Coercion::Collection => "coll:",
                };
                write!(
                    f,
                    "({tag}subquery {})",
                    plan.explain().trim().replace('\n', " | ")
                )
            }
            CoreExpr::Exists(q) => {
                write!(f, "EXISTS({})", q.explain().trim().replace('\n', " | "))
            }
            CoreExpr::TupleCtor(pairs) => {
                write!(f, "{{")?;
                for (i, (n, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, "}}")
            }
            CoreExpr::ArrayCtor(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            CoreExpr::BagCtor(items) => {
                write!(f, "<<")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">>")
            }
            CoreExpr::Cast { expr, ty } => write!(f, "CAST({expr} AS {ty})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_func_parsing() {
        assert_eq!(AggFunc::parse("AVG"), Some((AggFunc::Avg, false)));
        assert_eq!(AggFunc::parse("COLL_AVG"), Some((AggFunc::Avg, true)));
        assert_eq!(AggFunc::parse("COLL_COUNT"), Some((AggFunc::Count, true)));
        assert_eq!(AggFunc::parse("ANY"), Some((AggFunc::Some, false)));
        assert_eq!(AggFunc::parse("LOWER"), None);
        assert_eq!(AggFunc::parse("COLL_NOPE"), None);
    }

    #[test]
    fn explain_renders_a_tree() {
        let q = CoreQuery {
            op: CoreOp::Project {
                input: Box::new(CoreOp::Filter {
                    input: Box::new(CoreOp::From {
                        item: CoreFrom::Scan {
                            expr: CoreExpr::Global(vec!["t".into()]),
                            as_var: "x".into(),
                            at_var: None,
                        },
                    }),
                    pred: CoreExpr::Bin(
                        sqlpp_syntax::ast::BinOp::Gt,
                        Box::new(CoreExpr::Path(
                            Box::new(CoreExpr::Var("x".into())),
                            "a".into(),
                        )),
                        Box::new(CoreExpr::Const(Value::Int(1))),
                    ),
                }),
                expr: CoreExpr::Var("x".into()),
                distinct: false,
            },
        };
        let text = q.explain();
        assert!(text.contains("select value x"));
        assert!(text.contains("filter (x.a > 1)"));
        assert!(text.contains("scan @t as x"));
    }

    #[test]
    fn preorder_walk_is_stable_and_reaches_nested_plans() {
        let scan = |name: &str, var: &str| CoreOp::From {
            item: CoreFrom::Scan {
                expr: CoreExpr::Global(vec![name.into()]),
                as_var: var.into(),
                at_var: None,
            },
        };
        // SELECT VALUE x FROM t AS x WHERE EXISTS (FROM u AS y SELECT VALUE y)
        let exists_plan = CoreQuery {
            op: CoreOp::Project {
                input: Box::new(scan("u", "y")),
                expr: CoreExpr::Var("y".into()),
                distinct: false,
            },
        };
        let q = CoreQuery {
            op: CoreOp::Project {
                input: Box::new(CoreOp::Filter {
                    input: Box::new(scan("t", "x")),
                    pred: CoreExpr::Exists(Box::new(exists_plan)),
                }),
                expr: CoreExpr::Var("x".into()),
                distinct: false,
            },
        };
        let ops = q.preorder_ops();
        // Root project, filter, the EXISTS subplan's project + from
        // (expressions before operator children), then the outer from.
        assert_eq!(ops.len(), 5);
        assert!(matches!(ops[0], CoreOp::Project { .. }));
        assert!(matches!(ops[1], CoreOp::Filter { .. }));
        assert!(matches!(ops[2], CoreOp::Project { .. }));
        assert!(matches!(ops[3], CoreOp::From { .. }));
        assert!(matches!(ops[4], CoreOp::From { .. }));
        // Indices are positional, so a clone enumerates identically.
        let cloned = q.clone();
        for (a, b) in ops.iter().zip(cloned.preorder_ops()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn pipeline_class_tags_breakers_as_materializing() {
        let base = CoreOp::Single;
        assert_eq!(base.pipeline_class(), "streaming");
        let sort = CoreOp::Sort {
            input: Box::new(CoreOp::Single),
            keys: vec![],
        };
        assert_eq!(sort.pipeline_class(), "materializing");
        let distinct = CoreOp::Project {
            input: Box::new(CoreOp::Single),
            expr: CoreExpr::bool(true),
            distinct: true,
        };
        assert_eq!(distinct.pipeline_class(), "materializing");
        let union_all = CoreOp::SetOp {
            op: CoreSetOp::Union,
            all: true,
            left: Box::new(CoreOp::Single),
            right: Box::new(CoreOp::Single),
        };
        assert_eq!(union_all.pipeline_class(), "streaming");
        let except_all = CoreOp::SetOp {
            op: CoreSetOp::Except,
            all: true,
            left: Box::new(CoreOp::Single),
            right: Box::new(CoreOp::Single),
        };
        assert_eq!(except_all.pipeline_class(), "materializing");
    }
}
