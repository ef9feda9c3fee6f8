//! Leaf operands read in place answer exactly as the same operands
//! evaluated onto the stack.
//!
//! Every expression is built as a `CoreExpr` directly, so no optimizer
//! folds it. Its stack form wraps each leaf in `CASE WHEN TRUE THEN x END`
//! — not a leaf, so the operand is computed onto the stack — and its mixed
//! form wraps only the first operand (a stacked prefix before trailing
//! leaves). All three must give the same value or the identical error,
//! with the same `missing_propagations`, in both typing modes and both
//! compat modes, off the fused spine (an `Env`) and on it (the program
//! specialized for the scan's root row).

use sqlpp_catalog::Catalog;
use sqlpp_plan::{CompatMode, CoreExpr, CoreFrom, CoreOp, CoreQuery};
use sqlpp_syntax::ast::{BinOp, IsTest};
use sqlpp_value::{Decimal, Tuple, Value};

use crate::bytecode::{compile, Instr};
use crate::{Env, EvalConfig, EvalError, Evaluator, TypingMode};

/// The scan variable.
const V: &str = "v";

fn tuple(pairs: Vec<(&str, Value)>) -> Value {
    Value::Tuple(Tuple::from_pairs(pairs))
}

/// One value of every kind the operands read.
fn kinds() -> Vec<(&'static str, Value)> {
    vec![
        ("i", Value::Int(3)),
        ("f", Value::Float(2.5)),
        ("d", Value::Decimal(Decimal::new(125, 2))),
        ("s", Value::Str("a%c".into())),
        ("b", Value::Bool(true)),
        ("n", Value::Null),
        ("t", tuple(vec![("a", Value::Int(1))])),
        ("arr", Value::Array(vec![Value::Int(3), Value::Null])),
        ("bag", Value::Bag(vec![Value::Str("a%c".into())])),
    ]
}

/// The row `v` the paths read: every kind under its name.
fn row() -> Value {
    tuple(kinds())
}

/// The parameters: every kind at its index.
fn params() -> Vec<Value> {
    kinds().into_iter().map(|(_, v)| v).collect()
}

fn path(steps: &[&str]) -> CoreExpr {
    steps.iter().fold(CoreExpr::Var(V.into()), |base, step| {
        CoreExpr::Path(Box::new(base), (*step).into())
    })
}

/// Every leaf shape: constants of each kind (MISSING too), parameters,
/// one-step paths to each kind, an absent attribute, a two-step path, a
/// step off a non-tuple base, and the variable itself.
fn leaves() -> Vec<CoreExpr> {
    let mut out: Vec<CoreExpr> = kinds()
        .into_iter()
        .map(|(_, v)| CoreExpr::Const(v))
        .collect();
    out.push(CoreExpr::Const(Value::Missing));
    out.extend([0, 3, 5].map(CoreExpr::Param));
    out.extend(kinds().into_iter().map(|(name, _)| path(&[name])));
    out.extend([
        path(&["absent"]),
        path(&["t", "a"]),
        path(&["i", "x"]),
        CoreExpr::Var(V.into()),
    ]);
    out
}

/// `CASE WHEN TRUE THEN x END`: `x`, computed onto the stack.
fn stacked(x: &CoreExpr) -> CoreExpr {
    CoreExpr::Case {
        arms: vec![(CoreExpr::Const(Value::Bool(true)), x.clone())],
        else_expr: Box::new(CoreExpr::Const(Value::Null)),
    }
}

/// What one evaluation gave.
type Outcome = (Result<Value, EvalError>, u64);

fn config(typing: TypingMode, compat: CompatMode) -> EvalConfig {
    EvalConfig {
        typing,
        compat,
        collect_stats: true,
        ..EvalConfig::default()
    }
}

/// What every evaluation reads, made once.
struct Fixture {
    catalog: Catalog,
    env: Env,
    params: Vec<Value>,
}

impl Fixture {
    fn new() -> Self {
        Fixture {
            catalog: Catalog::new(),
            env: Env::new().bind(V, row()),
            params: params(),
        }
    }

    fn evaluator(&self, cfg: &EvalConfig, params: &[Value]) -> Evaluator<'_> {
        Evaluator::new(&self.catalog, cfg.clone()).with_params(params.to_vec())
    }

    /// `e` off the spine, with `v` bound in an environment.
    fn off_spine(&self, e: &CoreExpr, cfg: &EvalConfig, params: &[Value]) -> Outcome {
        let ev = self.evaluator(cfg, params);
        let r = ev.expr(e, &self.env);
        (r, ev.stats_snapshot().unwrap().missing_propagations)
    }

    /// `e` as the output of `SELECT VALUE e FROM <<row>> AS v`: the fused
    /// spine runs it against the borrowed row.
    fn on_spine(&self, e: &CoreExpr, cfg: &EvalConfig, params: &[Value]) -> Outcome {
        let q = CoreQuery {
            op: CoreOp::Project {
                input: Box::new(CoreOp::From {
                    item: CoreFrom::Scan {
                        expr: CoreExpr::Const(Value::Bag(vec![row()])),
                        as_var: V.into(),
                        at_var: None,
                    },
                }),
                expr: e.clone(),
                distinct: false,
            },
        };
        let ev = self.evaluator(cfg, params);
        let r = ev.run(&q).map(|bag| match bag {
            Value::Bag(mut items) if items.len() == 1 => items.pop().unwrap(),
            other => panic!("one row in, {other} out"),
        });
        (r, ev.stats_snapshot().unwrap().missing_propagations)
    }

    /// Both places `e` runs.
    fn runs(&self, e: &CoreExpr, cfg: &EvalConfig, params: &[Value]) -> [(Outcome, &str); 2] {
        [
            (self.off_spine(e, cfg, params), "env"),
            (self.on_spine(e, cfg, params), "spine"),
        ]
    }
}

/// Checks one instruction's operand form against its stack and mixed
/// forms. `build` makes the expression from its operands.
fn check(fx: &Fixture, operands: &[&CoreExpr], build: &dyn Fn(Vec<CoreExpr>) -> CoreExpr) -> usize {
    let leaf = build(operands.iter().map(|&o| o.clone()).collect());
    let stack = build(operands.iter().map(|&o| stacked(o)).collect());
    let mixed = build(
        (operands.iter().enumerate())
            .map(|(i, &o)| if i == 0 { stacked(o) } else { o.clone() })
            .collect(),
    );
    // The operand form really reads its leaves in place.
    assert!(
        !compile(&leaf)
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Push(_))),
        "{leaf} pushes a leaf"
    );
    let mut runs = 0;
    for typing in [TypingMode::Permissive, TypingMode::StrictError] {
        for compat in [CompatMode::SqlCompat, CompatMode::Composable] {
            let cfg = config(typing, compat);
            let want = fx.off_spine(&stack, &cfg, &fx.params);
            for e in [&leaf, &mixed, &stack] {
                for (got, place) in fx.runs(e, &cfg, &fx.params) {
                    assert_eq!(
                        got, want,
                        "{e} ({place}, {typing:?}, {compat:?}) differs from {stack}"
                    );
                    runs += 1;
                }
            }
        }
    }
    runs
}

#[test]
fn operand_form_equals_stack_form() {
    let fx = Fixture::new();
    let leaves = leaves();
    let mut runs = 0;
    let ops = [
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Concat,
    ];
    let tests = [
        IsTest::Null,
        IsTest::Missing,
        IsTest::Type("INT".into()),
        IsTest::Type("STRING".into()),
        IsTest::Type("TUPLE".into()),
        IsTest::Type("COLLECTION".into()),
    ];
    for x in &leaves {
        for test in &tests {
            for negated in [false, true] {
                runs += check(&fx, &[x], &|mut o| CoreExpr::Is {
                    expr: Box::new(o.remove(0)),
                    test: test.clone(),
                    negated,
                });
            }
        }
        for y in &leaves {
            for op in ops {
                runs += check(&fx, &[x, y], &|mut o| {
                    let r = o.pop().unwrap();
                    CoreExpr::Bin(op, Box::new(o.pop().unwrap()), Box::new(r))
                });
            }
            for negated in [false, true] {
                runs += check(&fx, &[x, y], &|mut o| {
                    let collection = Box::new(o.pop().unwrap());
                    CoreExpr::In {
                        expr: Box::new(o.pop().unwrap()),
                        collection,
                        negated,
                    }
                });
            }
            runs += check(&fx, &[x, y], &|mut o| {
                let pattern = Box::new(o.pop().unwrap());
                CoreExpr::Like {
                    expr: Box::new(o.pop().unwrap()),
                    pattern,
                    escape: None,
                    negated: false,
                }
            });
            for z in &leaves {
                runs += check(&fx, &[x, y, z], &|mut o| {
                    let (high, low) = (o.pop().unwrap(), o.pop().unwrap());
                    CoreExpr::Between {
                        expr: Box::new(o.pop().unwrap()),
                        low: Box::new(low),
                        high: Box::new(high),
                        negated: false,
                    }
                });
                runs += check(&fx, &[x, y, z], &|mut o| {
                    let (escape, pattern) = (o.pop().unwrap(), o.pop().unwrap());
                    CoreExpr::Like {
                        expr: Box::new(o.pop().unwrap()),
                        pattern: Box::new(pattern),
                        escape: Some(Box::new(escape)),
                        negated: true,
                    }
                });
            }
        }
    }
    assert!(runs > 100_000, "{runs} runs");
}

/// Strict mode raises the error of the first operand that fails, reading
/// left to right, whether the operands are read in place or stacked.
#[test]
fn strict_errors_come_from_the_leftmost_operand() {
    let strict = config(TypingMode::StrictError, CompatMode::SqlCompat);
    // `v.i.x < ?`: the navigation error comes first; `?` is unsupplied.
    let nav_first = CoreExpr::Bin(
        BinOp::Lt,
        Box::new(path(&["i", "x"])),
        Box::new(CoreExpr::Param(0)),
    );
    // `? = v.i.x`: the unsupplied parameter comes first.
    let param_first = CoreExpr::Bin(
        BinOp::Eq,
        Box::new(CoreExpr::Param(0)),
        Box::new(path(&["i", "x"])),
    );
    let nav = EvalError::Type("cannot navigate attribute \"x\" of a integer".into());
    let fx = Fixture::new();
    for (e, want) in [(nav_first, nav), (param_first, EvalError::MissingParam(0))] {
        for form in [e.clone(), rewrap(&e)] {
            for ((got, _), place) in fx.runs(&form, &strict, &[]) {
                assert_eq!(got, Err(want.clone()), "{form} ({place})");
            }
        }
    }
}

/// `e` with both operands of its top binary operator stacked.
fn rewrap(e: &CoreExpr) -> CoreExpr {
    match e {
        CoreExpr::Bin(op, l, r) => CoreExpr::Bin(*op, Box::new(stacked(l)), Box::new(stacked(r))),
        other => panic!("not a binary operator: {other}"),
    }
}
