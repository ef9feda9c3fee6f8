//! A small rule-based optimizer over Core plans.
//!
//! The paper licenses engines to optimize behind the conceptual semantics
//! ("under the hood a SQL++ engine is free to optimize", §V-C). These
//! passes are deliberately conservative: they never change results, only
//! shapes. The biggest such license — "pipelineable aggregation
//! operations" — is the eager-aggregation pass: SQL aggregates fold into
//! their GROUP BY as one running state per aggregate per group, instead
//! of materializing every group's member bag and re-scanning it per
//! aggregate ([`GroupFold`]). The other passes handle the classical
//! trivia: constant folding, ORDER BY + LIMIT fusion, hash equi-joins,
//! and selection pushdown below UNNEST (a correlate's left filter).
//!
//! Every pass recurses through the Core's one child enumeration
//! ([`CoreOp::for_each_expr_mut`], [`CoreOp::for_each_child_mut`],
//! [`CoreExpr::for_each_child_mut`], [`CoreExpr::plan_mut`]) and keeps
//! only its own rules, so each reaches every expression, sort key and
//! nested plan, WITH bindings included.

use std::collections::HashSet;

use sqlpp_syntax::ast::{BinOp, UnOp};
use sqlpp_value::Value;

use crate::core::{
    AggFunc, Coercion, CoreExpr, CoreFrom, CoreJoinKind, CoreOp, CoreQuery, GroupFold,
};

/// Applies every pass once, in order: constant folding, filter merging
/// and top-k fusion (`fold_op`); join extraction and pushdown
/// (`extract_joins_op`); then aggregate folding over the whole tree, so
/// its fold variables are numbered uniquely per plan. No pass leaves work
/// for an earlier one, so a second round would change nothing
/// (`tests/paper_listings.rs` and `tests/pushdown.rs` check that
/// optimizing an optimized plan is the identity).
pub fn optimize(mut q: CoreQuery) -> CoreQuery {
    fold_op(&mut q.op);
    extract_joins_op(&mut q.op);
    fold_aggregates(&mut q.op, &mut 0);
    q
}

/// Constant folding, filter merging and ORDER BY + LIMIT fusion, bottom
/// up through every operator, expression and nested plan.
fn fold_op(op: &mut CoreOp) {
    op.for_each_expr_mut(&mut |e, _| fold_expr(e));
    op.for_each_child_mut(&mut fold_op);
    *op = match std::mem::replace(op, CoreOp::Single) {
        // WHERE TRUE: drop the filter.
        CoreOp::Filter {
            input,
            pred: CoreExpr::Const(Value::Bool(true)),
        } => *input,
        // Merge stacked filters into one AND.
        CoreOp::Filter { input, pred } if matches!(*input, CoreOp::Filter { .. }) => {
            let CoreOp::Filter {
                input: inner,
                pred: inner_pred,
            } = *input
            else {
                unreachable!("matched above")
            };
            CoreOp::Filter {
                input: inner,
                pred: CoreExpr::Bin(BinOp::And, Box::new(inner_pred), Box::new(pred)),
            }
        }
        CoreOp::LimitOffset {
            input,
            limit,
            offset,
        } => fuse_topk(*input, limit, offset),
        other => other,
    };
}

/// ORDER BY + LIMIT fusion. A LIMIT directly over a sort only ever
/// observes the first `limit + offset` rows, so the full sort (a
/// pipeline breaker that materializes — and under memory pressure
/// spills — its whole input) is replaced by [`CoreOp::TopK`], a
/// bounded heap that holds at most that many rows and never spills.
///
/// Two shapes fuse:
/// * `limit(sort(..))` — binding-level sort, e.g. inside a lowered
///   subquery; TopK applies the offset skip itself.
/// * `limit(project(sort(..)))` — the common `SELECT … ORDER BY …
///   LIMIT n` lowering, and that of an ORDER BY … LIMIT n above a set
///   operation (`SELECT VALUE $out FROM (set-op) AS $out`). The
///   projection must still see the rows an OFFSET later skips
///   (strict-mode errors in them are observable), so the outer
///   LIMIT/OFFSET stays and only the sort underneath is bounded to
///   `limit + offset` rows (see [`heap_bound`]). This shape fuses when
///   each operand is a literal or a `?` parameter; a computed one sorts
///   every row.
fn fuse_topk(input: CoreOp, limit: Option<CoreExpr>, offset: Option<CoreExpr>) -> CoreOp {
    let Some(limit) = limit else {
        // OFFSET without LIMIT still needs every row: no fusion.
        return CoreOp::LimitOffset {
            input: Box::new(input),
            limit: None,
            offset,
        };
    };
    match input {
        CoreOp::Sort { input, keys } => CoreOp::TopK {
            input,
            keys,
            limit,
            offset,
        },
        CoreOp::Project {
            input: sort,
            expr,
            distinct: false,
        } if matches!(*sort, CoreOp::Sort { .. })
            && heap_bound(&limit, offset.as_ref()).is_some() =>
        {
            let CoreOp::Sort { input, keys } = *sort else {
                unreachable!()
            };
            let bound = heap_bound(&limit, offset.as_ref()).expect("checked above");
            CoreOp::LimitOffset {
                input: Box::new(CoreOp::Project {
                    input: Box::new(CoreOp::TopK {
                        input,
                        keys,
                        limit: bound,
                        offset: None,
                    }),
                    expr,
                    distinct: false,
                }),
                limit: Some(limit),
                offset,
            }
        }
        other => CoreOp::LimitOffset {
            input: Box::new(other),
            limit: Some(limit),
            offset,
        },
    }
}

/// The heap bound `limit + offset` of a top-k under a projection, when
/// each operand is a non-negative literal or a `?` parameter: a literal
/// when both are literals, else an expression the top-k evaluates when it
/// opens. The LIMIT/OFFSET above it has evaluated the same operands by
/// then and refused anything but a non-negative integer, so the
/// expression only ever sees those; it saturates at `i64::MAX` where the
/// sum would overflow.
fn heap_bound(limit: &CoreExpr, offset: Option<&CoreExpr>) -> Option<CoreExpr> {
    let operand = |e: &CoreExpr| const_nonneg(e).is_some() || matches!(e, CoreExpr::Param(_));
    if !operand(limit) || !offset.is_none_or(operand) {
        return None;
    }
    let Some(offset) = offset else {
        return Some(limit.clone());
    };
    if let (Some(l), Some(o)) = (const_nonneg(limit), const_nonneg(offset)) {
        return Some(CoreExpr::Const(Value::Int(l.saturating_add(o))));
    }
    // CASE WHEN limit > MAX - offset THEN MAX ELSE limit + offset END
    let max = || CoreExpr::Const(Value::Int(i64::MAX));
    let bin = |op, l, r| CoreExpr::Bin(op, Box::new(l), Box::new(r));
    let room = bin(BinOp::Sub, max(), offset.clone());
    let mut bound = CoreExpr::Case {
        arms: vec![(bin(BinOp::Gt, limit.clone(), room), max())],
        else_expr: Box::new(bin(BinOp::Add, limit.clone(), offset.clone())),
    };
    fold_expr(&mut bound);
    Some(bound)
}

/// The integer value of a non-negative literal LIMIT/OFFSET operand,
/// if it is one.
fn const_nonneg(e: &CoreExpr) -> Option<i64> {
    match e {
        CoreExpr::Const(Value::Int(n)) if *n >= 0 => Some(*n),
        _ => None,
    }
}

/// Constant folding limited to total, absent-value-free cases: integer
/// arithmetic without overflow, boolean AND/OR/NOT over constants,
/// boolean short-circuits with one constant side (sound under three-valued
/// logic only in the directions applied here), and an IN list of
/// constants (built once, not once per row).
fn fold_expr(e: &mut CoreExpr) {
    use CoreExpr::*;
    if let Some(q) = e.plan_mut() {
        fold_op(&mut q.op);
    }
    e.for_each_child_mut(&mut fold_expr);
    let folded = match e {
        Bin(op, l, r) => match (*op, &mut **l, &mut **r) {
            (op, Const(Value::Int(a)), Const(Value::Int(b))) => {
                let (a, b) = (*a, *b);
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
                .map(Const)
            }
            // TRUE AND x ⇒ x; FALSE OR x ⇒ x (sound in 3VL).
            (BinOp::And, Const(Value::Bool(true)), x)
            | (BinOp::And, x, Const(Value::Bool(true)))
            | (BinOp::Or, Const(Value::Bool(false)), x)
            | (BinOp::Or, x, Const(Value::Bool(false))) => {
                Some(std::mem::replace(x, Const(Value::Null)))
            }
            // FALSE AND x ⇒ FALSE (sound: FALSE dominates NULL/MISSING);
            // TRUE OR x ⇒ TRUE.
            (BinOp::And, Const(Value::Bool(false)), _)
            | (BinOp::And, _, Const(Value::Bool(false))) => Some(CoreExpr::bool(false)),
            (BinOp::Or, Const(Value::Bool(true)), _) | (BinOp::Or, _, Const(Value::Bool(true))) => {
                Some(CoreExpr::bool(true))
            }
            _ => None,
        },
        Un(UnOp::Not, inner) => match **inner {
            Const(Value::Bool(b)) => Some(CoreExpr::bool(!b)),
            _ => None,
        },
        In { collection, .. } => {
            if let ArrayCtor(items) = &mut **collection {
                if items.iter().all(|i| matches!(i, Const(_))) {
                    // MISSING items drop, as the constructor drops them.
                    let items = items.drain(..).filter_map(|i| match i {
                        Const(v) if !v.is_missing() => Some(v),
                        _ => None,
                    });
                    **collection = Const(Value::Array(items.collect()));
                }
            }
            None
        }
        _ => None,
    };
    if let Some(folded) = folded {
        *e = folded;
    }
}

// ---------------------------------------------------------------------
// Hash equi-join extraction
// ---------------------------------------------------------------------
//
// The paper's conceptual semantics for joins and comma-FROM lists is a
// (left-correlated) nested loop — O(L·R) ON/WHERE evaluations. "Under the
// hood a SQL++ engine is free to optimize" (§V-C): this pass finds
// conjunctive equality predicates linking an *uncorrelated* right side to
// the left side and rewrites [`CoreFrom::Join`] / `Filter` over
// [`CoreFrom::Correlate`] into [`CoreFrom::HashJoin`], which the evaluator
// runs in O(L + R).
//
// Soundness rests on three facts:
//  - a row passes an AND chain iff every conjunct evaluates to TRUE, so
//    splitting the chain and checking conjuncts at different stages keeps
//    the same rows (3VL: NULL/MISSING/FALSE all fail the chain);
//  - `a = b` is TRUE iff both sides are non-absent and structurally equal
//    (sqlpp_value::cmp::sql_eq), which is exactly what a hash table keyed
//    on structural hashes with absent keys excluded computes;
//  - conjuncts are only moved to stages whose environment still binds
//    every variable the conjunct references. Conjuncts containing
//    `Global`/`Dynamic` references are never moved across environments
//    (their runtime resolution may consult the environment), so they stay
//    where the original plan evaluated them.
//
// Evaluation *order* of the conjuncts a hash join consumes is not
// preserved — which strict-mode type error surfaces first from a
// multi-conjunct ON/WHERE is unspecified, as is how often side-local
// conjuncts run. What no join consumes stays a WHERE in its original
// order, which the left filters below UNNEST ([`push_left_filters`])
// rely on.
//
// One rule holds for data errors without exception: the optimizer never
// raises one that `optimize: false` would not raise. A pass may only skip
// work the literal plan provably skips, or whose errors it provably could
// not raise. So a hash join over an empty left side builds nothing, as
// the nested loop never opens its right side without a left row, and a
// left filter rejects a row only when the literal AND chain
// short-circuits on it. A left filter does add work: it evaluates its run
// once per left row, including rows whose right side is empty, where the
// literal plan evaluates nothing. Its data errors are parked, and the run
// holds no nested plan, so it allocates nothing the memory or spill
// budget counts; its extra evaluations only shift injected-fault
// ordinals.

fn extract_joins_op(op: &mut CoreOp) {
    op.for_each_expr_mut(&mut |e, _| extract_joins_in(e));
    match op {
        // A FROM under a WHERE is extracted once, with the WHERE, below;
        // only its expressions' nested plans are reached here.
        CoreOp::Filter { input, .. } if matches!(**input, CoreOp::From { .. }) => {
            input.for_each_expr_mut(&mut |e, _| extract_joins_in(e));
        }
        _ => op.for_each_child_mut(&mut extract_joins_op),
    }
    *op = match std::mem::replace(op, CoreOp::Single) {
        CoreOp::From { item } => extract_where(item, None),
        CoreOp::Filter { input, pred } if matches!(*input, CoreOp::From { .. }) => {
            let CoreOp::From { item } = *input else {
                unreachable!("matched above")
            };
            extract_where(item, Some(pred))
        }
        other => other,
    };
}

/// Recurses the join-extraction pass into nested plans (subqueries,
/// EXISTS) so equi-joins inside them are hashed too.
fn extract_joins_in(e: &mut CoreExpr) {
    if let Some(q) = e.plan_mut() {
        extract_joins_op(&mut q.op);
    }
    e.for_each_child_mut(&mut extract_joins_in);
}

/// A FROM and the WHERE over it, if any: the WHERE's conjuncts become
/// join keys and side filters where they can, and what no join consumes
/// stays a WHERE, in its original order, whose leading left-only run
/// filters the correlates below it.
fn extract_where(item: CoreFrom, pred: Option<CoreExpr>) -> CoreOp {
    let mut conjuncts = Vec::new();
    if let Some(pred) = pred {
        split_conjuncts(pred, &mut conjuncts);
    }
    let (mut item, leftover) = extract_from(item, conjuncts.into_iter().enumerate().collect());
    let leftover = in_order(leftover);
    if !leftover.is_empty() {
        push_left_filters(&mut item, &leftover);
    }
    let from = CoreOp::From { item };
    match and_all(leftover) {
        None => from,
        Some(pred) => CoreOp::Filter {
            input: Box::new(from),
            pred,
        },
    }
}

/// A WHERE conjunct tagged with its position in the original AND chain,
/// so what no join consumes can be put back in order.
type Conjunct = (usize, CoreExpr);

/// Sorts conjuncts back into their AND-chain order and drops the tags.
fn in_order(mut conjuncts: Vec<Conjunct>) -> Vec<CoreExpr> {
    conjuncts.sort_by_key(|(pos, _)| *pos);
    conjuncts.into_iter().map(|(_, c)| c).collect()
}

/// Rewrites a FROM tree given filter conjuncts available for pushdown;
/// returns the rewritten tree and the conjuncts it could not consume.
/// Invariant: every conjunct handed to this function references only
/// variables bound by `item` or by enclosing (outer) scopes — never by
/// FROM items to `item`'s right. Correlates come back without a left
/// filter; [`push_left_filters`] adds them once the WHERE is final.
fn extract_from(item: CoreFrom, conjuncts: Vec<Conjunct>) -> (CoreFrom, Vec<Conjunct>) {
    match item {
        CoreFrom::Correlate { left, right, .. } => {
            let left_set = introduced_set(&left);
            let right_list = introduced_vars(&right);
            let right_set: HashSet<String> = right_list.iter().cloned().collect();
            let rewritable = uncorrelated(&right, &left_set);
            let mut sides = classify(conjuncts, &left_set, &right_set, rewritable);
            let (left, back) = extract_from(*left, std::mem::take(&mut sides.left));
            let (right, _) = extract_from(*right, Vec::new());
            match sides.join(back, Sides::default()) {
                // No hash key: keep the correlate; left-only conjuncts the
                // left subtree could not consume bubble back up.
                Err(leftover) => (
                    CoreFrom::Correlate {
                        left: Box::new(left),
                        right: Box::new(right),
                        left_pred: None,
                    },
                    leftover,
                ),
                Ok((join, leftover)) => (
                    CoreFrom::HashJoin {
                        kind: CoreJoinKind::Inner,
                        left: Box::new(left),
                        right: Box::new(right),
                        keys: join.keys,
                        left_pred: join.left_pred,
                        right_pred: join.right_pred,
                        residual: join.residual,
                        right_vars: right_list,
                    },
                    leftover,
                ),
            }
        }
        CoreFrom::Join {
            kind,
            left,
            right,
            on,
            right_vars,
        } => {
            let left_set = introduced_set(&left);
            let right_set: HashSet<String> = right_vars.iter().cloned().collect();
            if !uncorrelated(&right, &left_set) {
                let (left, _) = extract_from(*left, Vec::new());
                let (right, _) = extract_from(*right, Vec::new());
                return (
                    CoreFrom::Join {
                        kind,
                        left: Box::new(left),
                        right: Box::new(right),
                        on,
                        right_vars,
                    },
                    conjuncts,
                );
            }
            let mut on_conj = Vec::new();
            split_conjuncts(on.clone(), &mut on_conj);
            let mut on_sides = Sides::default();
            for (pos, c) in on_conj.into_iter().enumerate() {
                let mut refs = HashSet::new();
                if !expr_refs(&c, &mut refs) {
                    // Environment-sensitive reference: evaluate per
                    // matched pair, like the original ON did.
                    on_sides.residual.push((pos, c));
                    continue;
                }
                match side_of(&refs, &left_set, &right_set) {
                    // ON conjuncts over only-left or only-outer variables
                    // gate matching per left row in both join kinds.
                    Side::Left | Side::Neither => on_sides.left.push((pos, c)),
                    Side::Right => on_sides.right.push((pos, c)),
                    Side::Both => match as_equi_key(c, &left_set, &right_set) {
                        Ok(pair) => on_sides.keys.push(pair),
                        Err(c) => on_sides.residual.push((pos, c)),
                    },
                }
            }
            // An inner join whose ON is equi-keys alone is the comma join
            // of its keys and WHERE, so the WHERE's conjuncts split the
            // way a comma join's do. Any other ON conjunct keeps the WHERE
            // above the join: a pushed filter would drop a row before that
            // conjunct runs on it, turning a strict-typing error of the
            // literal plan into an answer. A LEFT join's WHERE also sees
            // the padded rows: it stays above the join.
            let keys_only = on_sides.left.is_empty()
                && on_sides.right.is_empty()
                && on_sides.residual.is_empty();
            let mut sides = match kind {
                CoreJoinKind::Inner if keys_only => {
                    classify(conjuncts, &left_set, &right_set, true)
                }
                _ => Sides {
                    leftover: conjuncts,
                    ..Sides::default()
                },
            };
            let (left, back) = extract_from(*left, std::mem::take(&mut sides.left));
            let (right, _) = extract_from(*right, Vec::new());
            match sides.join(back, on_sides) {
                Err(leftover) => (
                    CoreFrom::Join {
                        kind,
                        left: Box::new(left),
                        right: Box::new(right),
                        on,
                        right_vars,
                    },
                    leftover,
                ),
                Ok((join, leftover)) => (
                    CoreFrom::HashJoin {
                        kind,
                        left: Box::new(left),
                        right: Box::new(right),
                        keys: join.keys,
                        left_pred: join.left_pred,
                        right_pred: join.right_pred,
                        residual: join.residual,
                        right_vars,
                    },
                    leftover,
                ),
            }
        }
        // Leaves consume nothing, and an annotated join nothing more.
        other => (other, conjuncts),
    }
}

/// Conjuncts over a join sorted by the sides they read.
#[derive(Default)]
struct Sides {
    /// Left-only: filter the left rows.
    left: Vec<Conjunct>,
    /// Right-only: filter the right rows.
    right: Vec<Conjunct>,
    /// Cross-side equalities: the hash keys.
    keys: Vec<(CoreExpr, CoreExpr)>,
    /// Other cross-side conjuncts: checked per matched pair.
    residual: Vec<Conjunct>,
    /// What no join consumes: stays in the WHERE.
    leftover: Vec<Conjunct>,
}

/// A hash join's keys and predicates.
struct JoinParts {
    keys: Vec<(CoreExpr, CoreExpr)>,
    left_pred: Option<CoreExpr>,
    right_pred: Option<CoreExpr>,
    residual: Option<CoreExpr>,
}

/// Sorts WHERE conjuncts over a join of variables `left_set` and
/// `right_set` by the sides they read. A conjunct whose references cannot
/// be determined statically (Global/Dynamic), or that reads neither side,
/// is never moved; nor is one that reads the right side unless the right
/// side is uncorrelated with the left (`rewritable`).
fn classify(
    conjuncts: Vec<Conjunct>,
    left_set: &HashSet<String>,
    right_set: &HashSet<String>,
    rewritable: bool,
) -> Sides {
    let mut sides = Sides::default();
    for (pos, c) in conjuncts {
        let mut refs = HashSet::new();
        if !expr_refs(&c, &mut refs) {
            sides.leftover.push((pos, c));
            continue;
        }
        match side_of(&refs, left_set, right_set) {
            Side::Left => sides.left.push((pos, c)),
            Side::Right if rewritable => sides.right.push((pos, c)),
            Side::Both if rewritable => match as_equi_key(c, left_set, right_set) {
                Ok(pair) => sides.keys.push(pair),
                Err(c) => sides.residual.push((pos, c)),
            },
            Side::Right | Side::Both | Side::Neither => sides.leftover.push((pos, c)),
        }
    }
    sides
}

impl Sides {
    /// The hash join of the WHERE's sides — with `back`, the left-only
    /// conjuncts the left subtree did not consume — after an ON's sides
    /// `on`, and what stays in the WHERE; or, with no key to hash on,
    /// every WHERE conjunct the join did not consume.
    fn join(
        mut self,
        back: Vec<Conjunct>,
        on: Sides,
    ) -> Result<(JoinParts, Vec<Conjunct>), Vec<Conjunct>> {
        if self.keys.is_empty() && on.keys.is_empty() {
            self.leftover.extend(back);
            self.leftover.extend(self.right);
            self.leftover.extend(self.residual);
            return Err(self.leftover);
        }
        // The ON's conjuncts, then the WHERE's, each in its AND-chain order.
        let pred = |on: Vec<Conjunct>, this: Vec<Conjunct>| {
            and_all(in_order(on).into_iter().chain(in_order(this)).collect())
        };
        let mut keys = on.keys;
        keys.append(&mut self.keys);
        let parts = JoinParts {
            keys,
            left_pred: pred(on.left, back),
            right_pred: pred(on.right, self.right),
            residual: pred(on.residual, self.residual),
        };
        Ok((parts, self.leftover))
    }
}

/// Selection pushdown below UNNEST. `chain` is the WHERE that runs over
/// every row `item` produces, as its AND chain in evaluation order. Each
/// correlate whose right side [opens cleanly](opens_cleanly) gets, as its
/// `left_pred`, a copy of the longest leading run of `chain` whose
/// conjuncts hold no nested plan and name only its left (and outer)
/// variables — when that run is longer than
/// the one a correlate below it already applies. The WHERE keeps every
/// conjunct; the copy only rejects a left row it evaluates to FALSE,
/// which makes the chain FALSE for every extension of that row before any
/// later conjunct runs, so neither an answer nor an error changes. When
/// the run is the whole WHERE, the copy is `CASE WHEN run THEN TRUE ELSE
/// FALSE END`, so it rejects an unknown verdict too.
/// Returns how many leading conjuncts of `chain` already filter `item`'s
/// rows.
fn push_left_filters(item: &mut CoreFrom, chain: &[CoreExpr]) -> usize {
    let CoreFrom::Correlate {
        left,
        right,
        left_pred,
    } = item
    else {
        return 0;
    };
    let left_set = introduced_set(left);
    // A right side that could raise must still open for every left row.
    if !opens_cleanly(right, &left_set) {
        return 0;
    }
    let below = push_left_filters(left, chain);
    let right_set = introduced_set(right);
    // The run ends at a nested plan: a `Global` inside it gets past
    // `expr_refs` as a FROM source and resolves against the visible
    // tuples, which differ between the left row's environment and the
    // WHERE's; and a subquery can allocate against the memory or spill
    // budget where the literal plan never runs it.
    let lead = chain
        .iter()
        .take_while(|c| {
            let mut refs = HashSet::new();
            !c.holds_plan()
                && expr_refs(c, &mut refs)
                && matches!(side_of(&refs, &left_set, &right_set), Side::Left)
        })
        .count();
    if lead <= below {
        return below;
    }
    let run = and_all(chain[..lead].to_vec()).expect("a run of one or more");
    // A run that is the whole WHERE leaves nothing after it to raise, so
    // an unknown verdict rejects every extension too: count it as FALSE.
    *left_pred = Some(if lead == chain.len() {
        CoreExpr::Case {
            arms: vec![(run, CoreExpr::bool(true))],
            else_expr: Box::new(CoreExpr::bool(false)),
        }
    } else {
        run
    });
    lead
}

/// True when `right` is a Scan or Unpivot of a navigation path rooted at
/// a variable of `left` (`e.projects`, `d`, `e.xs[0]`). Under permissive
/// typing such a side opens without raising — navigating or scanning an
/// absent or wrongly-typed value yields MISSING, nothing, or a singleton —
/// so a left row the left filter rejects skips no error.
fn opens_cleanly(right: &CoreFrom, left: &HashSet<String>) -> bool {
    let (CoreFrom::Scan { expr, .. } | CoreFrom::Unpivot { expr, .. }) = right else {
        return false;
    };
    let mut e = expr;
    loop {
        match e {
            CoreExpr::Var(v) => return left.contains(v),
            CoreExpr::Path(base, _) => e = base,
            CoreExpr::Index(base, idx) if matches!(**idx, CoreExpr::Const(_)) => e = base,
            _ => return false,
        }
    }
}

enum Side {
    Left,
    Right,
    Both,
    Neither,
}

fn side_of(refs: &HashSet<String>, left: &HashSet<String>, right: &HashSet<String>) -> Side {
    match (!refs.is_disjoint(left), !refs.is_disjoint(right)) {
        (true, true) => Side::Both,
        (true, false) => Side::Left,
        (false, true) => Side::Right,
        (false, false) => Side::Neither,
    }
}

/// `l = r` where one side references only left variables and the other
/// only right variables (each actually touching its side). Returns the
/// `(left key, right key)` pair or gives the conjunct back.
fn as_equi_key(
    c: CoreExpr,
    left: &HashSet<String>,
    right: &HashSet<String>,
) -> Result<(CoreExpr, CoreExpr), CoreExpr> {
    let CoreExpr::Bin(BinOp::Eq, a, b) = c else {
        return Err(c);
    };
    let mut ra = HashSet::new();
    let mut rb = HashSet::new();
    if !expr_refs(&a, &mut ra) || !expr_refs(&b, &mut rb) {
        return Err(CoreExpr::Bin(BinOp::Eq, a, b));
    }
    let (al, ar) = (!ra.is_disjoint(left), !ra.is_disjoint(right));
    let (bl, br) = (!rb.is_disjoint(left), !rb.is_disjoint(right));
    if al && !ar && br && !bl {
        Ok((*a, *b))
    } else if bl && !br && ar && !al {
        Ok((*b, *a))
    } else {
        Err(CoreExpr::Bin(BinOp::Eq, a, b))
    }
}

fn split_conjuncts(e: CoreExpr, out: &mut Vec<CoreExpr>) {
    match e {
        CoreExpr::Bin(BinOp::And, l, r) => {
            split_conjuncts(*l, out);
            split_conjuncts(*r, out);
        }
        other => out.push(other),
    }
}

/// Left-fold back into an AND chain (preserving conjunct order).
fn and_all(conjuncts: Vec<CoreExpr>) -> Option<CoreExpr> {
    let mut it = conjuncts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, c| {
        CoreExpr::Bin(BinOp::And, Box::new(acc), Box::new(c))
    }))
}

/// Variables introduced by a FROM item, in binding order.
fn introduced_vars(item: &CoreFrom) -> Vec<String> {
    let mut out = Vec::new();
    collect_introduced(item, &mut out);
    out
}

fn introduced_set(item: &CoreFrom) -> HashSet<String> {
    introduced_vars(item).into_iter().collect()
}

fn collect_introduced(item: &CoreFrom, out: &mut Vec<String>) {
    match item {
        CoreFrom::Scan { as_var, at_var, .. } => {
            out.push(as_var.clone());
            if let Some(at) = at_var {
                out.push(at.clone());
            }
        }
        CoreFrom::Unpivot {
            value_var,
            name_var,
            ..
        } => {
            out.push(value_var.clone());
            out.push(name_var.clone());
        }
        CoreFrom::Let { var, .. } => out.push(var.clone()),
        CoreFrom::Correlate { left, right, .. }
        | CoreFrom::Join { left, right, .. }
        | CoreFrom::HashJoin { left, right, .. } => {
            collect_introduced(left, out);
            collect_introduced(right, out);
        }
    }
}

/// True when no expression anywhere in `item` references a variable from
/// `outer` — and every reference is statically knowable (no
/// `Global`/`Dynamic`, whose runtime resolution may consult the
/// environment *except* for FROM-source expressions, where a `Global`
/// table reference is the normal case and resolves against the catalog).
fn uncorrelated(item: &CoreFrom, outer: &HashSet<String>) -> bool {
    let mut refs = HashSet::new();
    item_refs(item, &mut refs) && refs.is_disjoint(outer)
}

/// [`expr_refs`] over every expression of a FROM tree, with
/// [`source_expr_refs`] for its leaves' sources.
fn item_refs(item: &CoreFrom, out: &mut HashSet<String>) -> bool {
    let mut known = true;
    item.for_each_expr(&mut |e, source| {
        known = known
            && if source {
                source_expr_refs(e, out)
            } else {
                expr_refs(e, out)
            }
    });
    known
}

/// Like [`expr_refs`], but tolerates a bare `Global` *head*: FROM sources
/// are catalog names in the common case. Navigation below the head is
/// still walked.
fn source_expr_refs(e: &CoreExpr, out: &mut HashSet<String>) -> bool {
    match e {
        CoreExpr::Global(_) => true,
        CoreExpr::Path(base, _) => source_expr_refs(base, out),
        CoreExpr::Index(base, idx) => source_expr_refs(base, out) && expr_refs(idx, out),
        other => expr_refs(other, out),
    }
}

/// Collects every `Var` name referenced by `e` into `out`, recursing into
/// subquery plans (an over-approximation: names bound *inside* a subquery
/// are included too, which only makes classification more conservative).
/// Returns `false` when the expression contains a reference whose target
/// depends on the runtime environment (`Global`/`Dynamic`) — such
/// expressions must not be moved to a different evaluation environment.
fn expr_refs(e: &CoreExpr, out: &mut HashSet<String>) -> bool {
    match e {
        CoreExpr::Var(v) => {
            out.insert(v.clone());
            return true;
        }
        CoreExpr::Global(_) | CoreExpr::Dynamic(_) => return false,
        _ => {}
    }
    let mut known = e.plan().is_none_or(|q| plan_refs(&q.op, out));
    e.for_each_child(&mut |c| known = known && expr_refs(c, out));
    known
}

/// [`expr_refs`] over a whole nested plan, FROM trees by [`item_refs`].
fn plan_refs(op: &CoreOp, out: &mut HashSet<String>) -> bool {
    let mut known = match op {
        CoreOp::From { item } => item_refs(item, out),
        _ => {
            let mut known = true;
            op.for_each_expr(&mut |e, _| known = known && expr_refs(e, out));
            known
        }
    };
    op.for_each_child(&mut |c| known = known && plan_refs(c, out));
    known
}

// ---------------------------------------------------------------------
// Eager aggregation
// ---------------------------------------------------------------------
//
// Lowering defines SQL aggregates over the group bag (§V-C): `COUNT(*)`
// ⇒ `COLL_COUNT(g)`, `AGG(x)` ⇒ `COLL_AGG(SELECT VALUE x′ FROM g AS $gi)`.
// Run literally, every group materializes a tuple per member and each
// aggregate re-scans it as a subquery. When every use of `g` in its block
// is one of those two forms, this pass folds the aggregates into the
// Group itself: it drops the `Members` fold, adds one `Agg` fold per
// distinct aggregate, and rewrites each use to that fold's variable.
//
// Soundness: a non-DISTINCT `COLL_*` over a member stream is a left fold
// of `agg::Accumulator` in member order, and member order is input order
// — so folding each row as it arrives computes the same value. The body
// moves from the group's environment (`$gi` bound to a member tuple) to
// the row's: `$gi.v` becomes `v`, which is why the body may name `$gi`
// only as `$gi.<captured variable>` and may name no variable the row's
// environment would shadow or the group's alone binds. Bodies that
// resolve names at runtime (`Dynamic`, and `Global`, which falls back to
// the one visible tuple holding the name — a different tuple in the row's
// environment than in the group's) or run subqueries stay where they
// are, as does any block with another use of `g` — an explicit GROUP AS
// that is read, DISTINCT aggregates — and GROUPING SETS (an Append of
// Groups), whose blocks this pass does not inspect.

/// Folds every foldable block in `op`, numbering fold variables from
/// `next` (`$agg0`, `$agg1`, …, unique across the plan).
fn fold_aggregates(op: &mut CoreOp, next: &mut usize) {
    let Some(depth) = group_depth(op) else {
        op.for_each_expr_mut(&mut |e, _| fold_aggregates_in(e, next));
        op.for_each_child_mut(&mut |c| fold_aggregates(c, next));
        return;
    };
    fold_block(op, depth, next);
    // The block's operators are done; only their nested plans and the
    // group's input remain.
    let mut cur = op;
    for _ in 0..depth {
        cur.for_each_expr_mut(&mut |e, _| fold_aggregates_in(e, next));
        cur = cur.input_mut().expect("depth counts block operators");
    }
    // The group: its keys and bodies, then its input.
    fold_aggregates(cur, next);
}

fn fold_aggregates_in(e: &mut CoreExpr, next: &mut usize) {
    if let Some(q) = e.plan_mut() {
        fold_aggregates(&mut q.op, next);
    }
    e.for_each_child_mut(&mut |c| fold_aggregates_in(c, next));
}

/// When `op` is a block's projection (`Project`/`Pivot`) over a chain of
/// post-group operators ending in a `Group`, the chain's length.
fn group_depth(op: &CoreOp) -> Option<usize> {
    if !matches!(op, CoreOp::Project { .. } | CoreOp::Pivot { .. }) {
        return None;
    }
    let mut depth = 0;
    let mut cur = op;
    loop {
        cur = match cur {
            CoreOp::Group { .. } => return Some(depth),
            CoreOp::Project { input, .. }
            | CoreOp::Pivot { input, .. }
            | CoreOp::Filter { input, .. }
            | CoreOp::Sort { input, .. }
            | CoreOp::TopK { input, .. }
            | CoreOp::LimitOffset { input, .. }
            | CoreOp::Window { input, .. } => input,
            _ => return None,
        };
        depth += 1;
    }
}

/// What a block's uses of its group variable may be rewritten against.
struct FoldScope {
    /// The group variable.
    group_var: String,
    /// The variables captured into each member tuple.
    captured: Vec<String>,
    /// Names a moved body must not mention: the group's own variables
    /// (keys and `group_var`) and every variable of its input rows.
    forbidden: HashSet<String>,
    /// The folds found so far, with their variables.
    folds: Vec<(String, GroupFold)>,
}

/// Tries to fold the block whose projection is `top` and whose group
/// sits `depth` operators down; leaves it untouched when any use of the
/// group variable is not a foldable aggregate.
fn fold_block(top: &mut CoreOp, depth: usize, next: &mut usize) {
    let mut group = &*top;
    for _ in 0..depth {
        group = group.input().expect("depth counts block operators");
    }
    let CoreOp::Group {
        input, keys, folds, ..
    } = group
    else {
        unreachable!("group_depth ends at a Group")
    };
    let [(group_var, GroupFold::Members { captured })] = folds.as_slice() else {
        return;
    };
    let row_vars = stream_vars(input);
    if !captured.iter().all(|v| row_vars.contains(v)) {
        return;
    }
    let mut scope = FoldScope {
        group_var: group_var.clone(),
        captured: captured.clone(),
        forbidden: row_vars
            .into_iter()
            .chain(keys.iter().map(|(alias, _)| alias.clone()))
            .chain([group_var.clone()])
            .collect(),
        folds: Vec::new(),
    };
    let first = *next;
    let mut trial = top.clone();
    let mut cur = &mut trial;
    for _ in 0..depth {
        let mut foldable = true;
        cur.for_each_expr_mut(&mut |e, over_input| {
            foldable = foldable && (!over_input || rewrite_uses(e, &mut scope, next));
        });
        if !foldable {
            *next = first;
            return;
        }
        cur = cur.input_mut().expect("depth counts block operators");
    }
    let CoreOp::Group { folds, .. } = cur else {
        unreachable!("group_depth ends at a Group")
    };
    *folds = scope.folds;
    *top = trial;
}

/// Rewrites the uses of the group variable in `e` to fold variables;
/// `false` when some use is not foldable.
fn rewrite_uses(e: &mut CoreExpr, scope: &mut FoldScope, next: &mut usize) -> bool {
    let fold = match e {
        CoreExpr::CollAgg {
            func: AggFunc::Count,
            distinct: false,
            input,
        } if matches!(&**input, CoreExpr::Var(v) if *v == scope.group_var) => {
            Some(GroupFold::count_star())
        }
        CoreExpr::CollAgg {
            func,
            distinct: false,
            input,
        } => member_scan_body(input, scope).map(|body| GroupFold::Agg { func: *func, body }),
        _ => None,
    };
    if let Some(fold) = fold {
        let var = match scope.folds.iter().find(|(_, f)| *f == fold) {
            Some((var, _)) => var.clone(),
            None => {
                let var = format!("$agg{next}");
                *next += 1;
                scope.folds.push((var.clone(), fold));
                var
            }
        };
        *e = CoreExpr::Var(var);
        return true;
    }
    if let Some(q) = e.plan_mut() {
        return rewrite_uses_in_plan(&mut q.op, scope, next);
    }
    match e {
        CoreExpr::Var(v) if *v == scope.group_var => false,
        // Runtime name resolution consults the whole environment, which
        // folding changes.
        CoreExpr::Dynamic(_) => false,
        _ => {
            let mut foldable = true;
            e.for_each_child_mut(&mut |c| foldable = foldable && rewrite_uses(c, scope, next));
            foldable
        }
    }
}

/// [`rewrite_uses`] inside a nested plan, leaving alone expressions where
/// the plan rebinds the group variable (an inner GROUP BY's own group).
fn rewrite_uses_in_plan(op: &mut CoreOp, scope: &mut FoldScope, next: &mut usize) -> bool {
    if let CoreOp::From { item } = op {
        if introduced_vars(item).contains(&scope.group_var) {
            // Where inside the FROM tree the name is rebound is not worth
            // tracking: refuse if it is mentioned there at all.
            let mut refs = HashSet::new();
            return item_refs(item, &mut refs) && !refs.contains(&scope.group_var);
        }
    }
    let shadowed = (op.input()).is_some_and(|i| stream_vars(i).contains(&scope.group_var));
    let mut foldable = true;
    op.for_each_expr_mut(&mut |e, over_input| {
        foldable = foldable && ((over_input && shadowed) || rewrite_uses(e, scope, next));
    });
    op.for_each_child_mut(&mut |c| foldable = foldable && rewrite_uses_in_plan(c, scope, next));
    foldable
}

/// The body of `SELECT VALUE body FROM g AS $gi` (the lowering of a SQL
/// aggregate's argument), rebased onto the input row's environment — or
/// `None` when `input` is not that shape or the body cannot move.
fn member_scan_body(input: &CoreExpr, scope: &FoldScope) -> Option<CoreExpr> {
    let CoreExpr::Subquery {
        plan,
        coercion: Coercion::Bag,
    } = input
    else {
        return None;
    };
    let CoreOp::Project {
        input: from,
        expr: body,
        distinct: false,
    } = &plan.op
    else {
        return None;
    };
    let CoreOp::From {
        item:
            CoreFrom::Scan {
                expr: CoreExpr::Var(source),
                as_var: item,
                at_var: None,
            },
    } = &**from
    else {
        return None;
    };
    if *source != scope.group_var {
        return None;
    }
    let mut body = body.clone();
    rebase_member_refs(&mut body, item, scope).then_some(body)
}

/// Rewrites `item.v` (a captured variable of the member tuple `item`) to
/// `v`; `false` when the body reads `item` any other way, mentions a
/// name it cannot carry into the row's environment, or holds a nested
/// plan or runtime name resolution.
fn rebase_member_refs(e: &mut CoreExpr, item: &str, scope: &FoldScope) -> bool {
    if let CoreExpr::Path(base, attr) = e {
        if matches!(&**base, CoreExpr::Var(v) if v == item) {
            if !scope.captured.contains(attr) {
                return false;
            }
            *e = CoreExpr::Var(attr.clone());
            return true;
        }
    }
    match e {
        CoreExpr::Var(v) => v != item && !scope.forbidden.contains(v),
        CoreExpr::Global(_)
        | CoreExpr::Dynamic(_)
        | CoreExpr::Subquery { .. }
        | CoreExpr::Exists(_) => false,
        _ => {
            let mut movable = true;
            e.for_each_child_mut(&mut |c| movable = movable && rebase_member_refs(c, item, scope));
            movable
        }
    }
}

/// The variables a binding-producing operator adds to its enclosing
/// scope (empty for value-producing operators).
fn stream_vars(op: &CoreOp) -> Vec<String> {
    match op {
        CoreOp::From { item } => introduced_vars(item),
        CoreOp::Filter { input, .. }
        | CoreOp::Sort { input, .. }
        | CoreOp::TopK { input, .. }
        | CoreOp::LimitOffset { input, .. } => stream_vars(input),
        CoreOp::Window { input, defs } => {
            let mut vars = stream_vars(input);
            vars.extend(defs.iter().map(|d| d.var.clone()));
            vars
        }
        CoreOp::Group { keys, folds, .. } => keys
            .iter()
            .map(|(alias, _)| alias.clone())
            .chain(folds.iter().map(|(var, _)| var.clone()))
            .collect(),
        CoreOp::Append { inputs } => inputs.iter().flat_map(stream_vars).collect(),
        CoreOp::With { body, .. } => stream_vars(body),
        CoreOp::Single | CoreOp::Project { .. } | CoreOp::Pivot { .. } | CoreOp::SetOp { .. } => {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower_query, PlanConfig};
    use sqlpp_syntax::parse_query;

    fn opt(src: &str) -> String {
        let q = parse_query(src).unwrap();
        optimize(lower_query(&q, &PlanConfig::default()).unwrap()).explain()
    }

    #[test]
    fn constant_arithmetic_folds() {
        let text = opt("SELECT VALUE x FROM t AS x WHERE x.a = 1 + 2 * 3");
        assert!(text.contains("(x.a = 7)"), "{text}");
    }

    #[test]
    fn where_true_is_dropped() {
        let text = opt("SELECT VALUE x FROM t AS x WHERE 1 = 1");
        assert!(!text.contains("filter"), "{text}");
    }

    #[test]
    fn stacked_filters_merge() {
        // HAVING after WHERE on a grouped query keeps separate stages, but
        // a WHERE TRUE AND x collapses.
        let text = opt("SELECT VALUE x FROM t AS x WHERE TRUE AND x.a > 0");
        assert!(text.contains("filter (x.a > 0)"), "{text}");
    }

    #[test]
    fn false_and_null_folds_to_false() {
        // Sound even though the other side is NULL: FALSE dominates.
        let text = opt("SELECT VALUE x FROM t AS x WHERE FALSE AND NULL");
        assert!(text.contains("filter false"), "{text}");
    }

    #[test]
    fn overflow_is_not_folded() {
        let text = opt(&format!(
            "SELECT VALUE x FROM t AS x WHERE x.a = {} + {}",
            i64::MAX,
            i64::MAX
        ));
        assert!(text.contains("+"), "{text}");
    }

    #[test]
    fn explicit_equi_join_becomes_hash_join() {
        let text = opt("SELECT VALUE [x.a, y.b] FROM l AS x JOIN r AS y ON x.k = y.k");
        assert!(text.contains("inner hash join on x.k = y.k"), "{text}");
        assert!(!text.contains("nested-loop"), "{text}");
    }

    #[test]
    fn comma_join_with_where_becomes_hash_join() {
        let text = opt("SELECT VALUE [x.a, y.b] FROM l AS x, r AS y \
             WHERE x.k = y.k AND x.a > 0 AND y.b > 1");
        assert!(text.contains("inner hash join on x.k = y.k"), "{text}");
        // Side-local conjuncts are pushed to their sides...
        assert!(text.contains("probe-filter (x.a > 0)"), "{text}");
        assert!(text.contains("build-filter (y.b > 1)"), "{text}");
        // ...and the filter operator disappears entirely.
        assert!(no_filter_op(&text), "{text}");
    }

    fn no_filter_op(text: &str) -> bool {
        !text.lines().any(|l| l.trim_start().starts_with("filter "))
    }

    #[test]
    fn non_equi_conjunct_becomes_residual() {
        let text = opt("SELECT VALUE x FROM l AS x JOIN r AS y ON x.k = y.k AND x.a < y.b");
        assert!(text.contains("hash join on x.k = y.k"), "{text}");
        assert!(text.contains("residual (x.a < y.b)"), "{text}");
    }

    #[test]
    fn left_join_keeps_its_kind() {
        let text = opt("SELECT VALUE [x, y] FROM l AS x LEFT JOIN r AS y ON x.k = y.k");
        assert!(text.contains("left hash join on x.k = y.k"), "{text}");
    }

    #[test]
    fn correlated_right_side_is_not_hashed() {
        // The right source references the left variable: a hash build in
        // the outer environment would be wrong.
        let text = opt("SELECT VALUE y FROM l AS x JOIN x.items AS y ON x.k = y.k");
        assert!(!text.contains("hash join"), "{text}");
        assert!(text.contains("nested-loop join"), "{text}");
    }

    #[test]
    fn unnest_where_stays_correlated() {
        let text = opt("SELECT VALUE y FROM l AS x, x.items AS y WHERE x.k = y.k");
        assert!(!text.contains("hash join"), "{text}");
        assert!(text.contains("correlate"), "{text}");
        assert!(text.contains("filter"), "{text}");
    }

    #[test]
    fn no_equi_key_keeps_nested_loop() {
        let text = opt("SELECT VALUE x FROM l AS x JOIN r AS y ON x.k < y.k");
        assert!(!text.contains("hash join"), "{text}");
        assert!(text.contains("nested-loop join on (x.k < y.k)"), "{text}");
    }

    #[test]
    fn three_way_chain_builds_two_hash_joins() {
        let text = opt("SELECT VALUE [a, b, c] FROM ta AS a, tb AS b, tc AS c \
             WHERE a.k = b.k AND b.j = c.j");
        assert!(text.contains("hash join on b.j = c.j"), "{text}");
        assert!(text.contains("hash join on a.k = b.k"), "{text}");
        assert!(no_filter_op(&text), "{text}");
    }

    #[test]
    fn unresolved_name_conjuncts_stay_in_the_filter() {
        // `kk` does not resolve to any FROM variable: its runtime
        // resolution (dynamic disambiguation) may consult the whole
        // environment, so the conjunct must not move.
        let text = opt("SELECT VALUE [x, y] FROM l AS x, r AS y WHERE kk = y.k");
        assert!(!text.contains("hash join"), "{text}");
        assert!(text.contains("filter"), "{text}");
    }

    #[test]
    fn order_by_limit_fuses_to_topk_under_the_projection() {
        let text = opt("SELECT VALUE x FROM t AS x ORDER BY x.a LIMIT 5");
        assert!(text.contains("top-k x.a limit 5"), "{text}");
        assert!(
            !text.contains("\nsort") && !text.contains(" sort "),
            "{text}"
        );
        // The outer LIMIT survives so projection semantics are unchanged.
        assert!(text.contains("limit/offset limit 5"), "{text}");
    }

    #[test]
    fn offset_widens_the_heap_bound_but_stays_outside() {
        let text = opt("SELECT VALUE x FROM t AS x ORDER BY x.a DESC LIMIT 5 OFFSET 3");
        assert!(text.contains("top-k x.a desc limit 8"), "{text}");
        assert!(text.contains("limit 5 offset 3"), "{text}");
    }

    #[test]
    fn set_op_order_by_limit_fuses_to_value_topk() {
        let text = opt(
            "(SELECT VALUE x.a FROM t AS x) UNION ALL (SELECT VALUE y.a FROM u AS y) \
             ORDER BY 1 LIMIT 3",
        );
        // The block over the set operation's elements: its sort fuses
        // under the projection like any block's.
        assert!(
            text.contains("select value $out\n    top-k 1 limit 3\n"),
            "{text}"
        );
        assert!(text.contains("limit/offset limit 3"), "{text}");
        assert!(!text.contains("sort"), "{text}");
    }

    #[test]
    fn order_by_without_limit_keeps_the_full_sort() {
        let text = opt("SELECT VALUE x FROM t AS x ORDER BY x.a");
        assert!(text.contains("sort x.a"), "{text}");
        assert!(!text.contains("top-k"), "{text}");
    }

    #[test]
    fn limit_without_order_by_is_not_fused() {
        let text = opt("SELECT VALUE x FROM t AS x LIMIT 5");
        assert!(!text.contains("top-k"), "{text}");
        assert!(text.contains("limit/offset limit 5"), "{text}");
    }

    #[test]
    fn distinct_between_sort_and_limit_blocks_fusion() {
        // DISTINCT dedups the sorted stream before the limit applies:
        // a bounded heap under it would return the wrong rows.
        let text = opt("SELECT DISTINCT x.a FROM t AS x ORDER BY x.a LIMIT 5");
        assert!(!text.contains("top-k"), "{text}");
        assert!(text.contains("sort"), "{text}");
    }

    #[test]
    fn parameter_limit_over_projection_fuses_to_topk() {
        // The heap bound is the parameter itself; the outer LIMIT, which
        // checks it first, stays.
        let text = opt("SELECT x.a FROM t AS x ORDER BY x.a LIMIT ?");
        assert!(text.contains("top-k x.a limit $0"), "{text}");
        assert!(text.contains("limit/offset limit $0"), "{text}");
        assert!(!text.contains("sort"), "{text}");
        // With an OFFSET the bound is their sum, saturating.
        let text = opt("SELECT x.a FROM t AS x ORDER BY x.a LIMIT ? OFFSET 3");
        assert!(
            text.contains("top-k x.a limit CASE WHEN ($0 > 9223372036854775804)"),
            "{text}"
        );
        assert!(!text.contains("sort"), "{text}");
        // Any other operand keeps the full sort.
        let text = opt("SELECT x.a FROM t AS x ORDER BY x.a LIMIT ? + 1");
        assert!(!text.contains("top-k"), "{text}");
        assert!(text.contains("sort"), "{text}");
    }

    #[test]
    fn order_by_limit_fuses_inside_a_select_list_subquery() {
        let text = opt(
            "SELECT o.f AS f, (SELECT VALUE e.id FROM u AS e WHERE e.k <> o.f \
             ORDER BY e.k LIMIT 1) AS s FROM outer_rows AS o",
        );
        assert!(text.contains("top-k e.k limit 1"), "{text}");
        assert!(!text.contains("sort e.k"), "{text}");
    }

    #[test]
    fn constants_fold_in_every_expression_kind() {
        let text = opt("SELECT VALUE {'a': 1 + 2} FROM t AS x \
             WHERE x.b BETWEEN 1 + 1 AND 3 ORDER BY x.k + (1 + 1) LIMIT 2");
        assert!(text.contains("{'a': 3}"), "{text}");
        assert!(text.contains("(x.b BETWEEN 2 AND 3)"), "{text}");
        assert!(text.contains("top-k (x.k + 2) limit 2"), "{text}");
    }

    #[test]
    fn outer_scope_equality_does_not_correlate_the_hash_join() {
        // The subquery's join is between its own two tables; o is outer.
        let text = opt("SELECT VALUE (SELECT VALUE [x, y] FROM l AS x, r AS y \
             WHERE x.k = y.k AND x.o = o.k) FROM t AS o");
        assert!(text.contains("hash join on x.k = y.k"), "{text}");
        assert!(text.contains("(x.o = o.k)"), "{text}");
    }

    #[test]
    fn swapped_key_sides_normalize() {
        let text = opt("SELECT VALUE x FROM l AS x JOIN r AS y ON y.k = x.k");
        assert!(text.contains("hash join on x.k = y.k"), "{text}");
    }

    #[test]
    fn sql_aggregates_fold_into_the_group() {
        let text = opt(
            "SELECT e.d AS d, COUNT(*) AS n, SUM(e.x) AS s, AVG(e.x + 1) AS a \
             FROM t AS e GROUP BY e.d HAVING COUNT(*) > 1 ORDER BY SUM(e.x)",
        );
        assert!(
            text.contains(
                "group by e.d AS d folding [$agg0 = COUNT(*), $agg1 = SUM(e.x), \
                 $agg2 = AVG((e.x + 1))]"
            ),
            "{text}"
        );
        assert!(text.contains("filter ($agg0 > 1)"), "{text}");
        assert!(text.contains("sort $agg1"), "{text}");
        assert!(
            !text.contains("COLL_") && !text.contains("$group"),
            "{text}"
        );
        // Ungrouped aggregation folds too; a grouping with no aggregate
        // keeps no member bag.
        let text = opt("SELECT MIN(e.x) AS m FROM t AS e WHERE e.x > 0");
        assert!(
            text.contains("group by <all> folding [$agg0 = MIN(e.x)]"),
            "{text}"
        );
        let text = opt("SELECT e.d AS d FROM t AS e GROUP BY e.d");
        assert!(text.contains("group by e.d AS d folding []"), "{text}");
    }

    #[test]
    fn other_uses_of_the_group_keep_it_materializing() {
        for q in [
            // The GROUP AS bag is read.
            "SELECT d AS d, COUNT(*) AS n, (SELECT VALUE v.e.x FROM g AS v) AS xs \
             FROM t AS e GROUP BY e.d AS d GROUP AS g",
            // DISTINCT aggregates dedupe the bag.
            "SELECT e.d AS d, COUNT(DISTINCT e.x) AS n FROM t AS e GROUP BY e.d",
            // The body names a key alias, bound only in the group.
            "SELECT k AS k, SUM(k) AS s FROM t AS e GROUP BY e.d AS k",
            // GROUPING SETS: an Append of Groups.
            "SELECT e.d AS d, COUNT(*) AS n FROM t AS e GROUP BY ROLLUP(e.d)",
        ] {
            let text = opt(q);
            assert!(text.contains("capturing [e]"), "{q}\n{text}");
            assert!(!text.contains("folding"), "{q}\n{text}");
        }
    }

    #[test]
    fn nested_blocks_fold_with_their_own_variables() {
        // The inner block's COUNT(*) is its own group's, not the outer's,
        // and the two folds never share a name.
        let text = opt("SELECT e.d AS d, COUNT(*) AS n, \
             (SELECT COUNT(*) AS c FROM u AS x WHERE x.d = e.d) AS m \
             FROM t AS e GROUP BY e.d, e");
        assert!(!text.contains("COLL_"), "{text}");
        assert!(text.contains("$agg0 = COUNT(*)"), "{text}");
        assert!(text.contains("$agg1 = COUNT(*)"), "{text}");
    }

    #[test]
    fn leading_left_conjuncts_filter_the_correlate_left() {
        let text = opt("SELECT VALUE p FROM t AS e, e.xs AS p \
             WHERE e.d >= 1 AND e.d < 5 AND p.n = 'a' AND e.k = 2");
        // The leading run is copied; `e.k = 2` follows a right-only
        // conjunct and stays in the WHERE alone.
        assert!(
            text.contains("correlate left-filter ((e.d >= 1) AND (e.d < 5))\n"),
            "{text}"
        );
        assert!(
            text.contains("filter ((((e.d >= 1) AND (e.d < 5)) AND (p.n = 'a')) AND (e.k = 2))"),
            "{text}"
        );
    }

    #[test]
    fn a_leading_right_conjunct_leaves_nothing_to_push() {
        // `p.n = 'a'` runs first, and may raise (strict navigation of a
        // non-tuple `p`) where `e.k = 2` is FALSE: nothing is copied.
        let text = opt("SELECT VALUE p FROM t AS e, e.xs AS p WHERE p.n = 'a' AND e.k = 2");
        assert!(
            text.contains("filter ((p.n = 'a') AND (e.k = 2))"),
            "{text}"
        );
        assert!(!text.contains("left-filter"), "{text}");
    }

    #[test]
    fn each_conjunct_lands_at_the_lowest_correlate_that_binds_it() {
        let text = opt("SELECT VALUE q FROM t AS e, e.xs AS p, p.ys AS q \
             WHERE e.k = 1 AND p.j = 2 AND q.z = 3");
        assert!(
            text.contains("correlate left-filter ((e.k = 1) AND (p.j = 2))\n"),
            "{text}"
        );
        assert!(text.contains("correlate left-filter (e.k = 1)\n"), "{text}");
        // An UNPIVOT right side opens as cleanly as an UNNEST.
        // A run that is the whole WHERE also rejects unknown verdicts.
        let text = opt("SELECT VALUE v FROM t AS e, UNPIVOT e.o AS v AT n WHERE e.k = 1");
        assert!(
            text.contains("correlate left-filter CASE WHEN (e.k = 1) THEN true ELSE false END\n"),
            "{text}"
        );
    }

    #[test]
    fn nothing_is_pushed_past_a_right_side_that_could_raise() {
        for q in [
            // A catalog scan (a name that may not resolve).
            "SELECT VALUE p FROM t AS e, e.xs AS p, u AS d WHERE e.k = 1",
            // A subquery source.
            "SELECT VALUE p FROM t AS e, (SELECT VALUE y FROM u AS y WHERE y.a = ?) AS p \
             WHERE e.k = 1",
            // A computed index.
            "SELECT VALUE p FROM t AS e, e.xs[e.i] AS p WHERE e.k = 1",
            // Outer-only conjuncts stay where they are.
            "SELECT VALUE (SELECT VALUE p FROM t AS e, e.xs AS p WHERE o.f = 1) FROM s AS o",
        ] {
            let text = opt(q);
            assert!(!text.contains("left-filter"), "{q}\n{text}");
        }
    }
}
