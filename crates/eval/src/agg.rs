//! The composable `COLL_*` aggregate functions (§V-C): plain functions
//! from a collection to a value — "for each of the traditional aggregate
//! functions of SQL, SQL++ Core provides a fully composable function that
//! takes a collection as input and returns the aggregated value of that
//! collection."
//!
//! SQL alignment: absent elements (NULL and MISSING) are ignored, like
//! SQL aggregates ignore NULLs. Over zero countable elements, `COLL_COUNT`
//! is 0 and the others are NULL. Sums/averages stay exact while inputs
//! are Int/Decimal and widen to float only when a float appears.

use sqlpp_plan::AggFunc;
use sqlpp_value::cmp::total_cmp;
use sqlpp_value::{Decimal, Value, ValueKind};

use crate::arith::{num_binop, NumOp};
use crate::error::EvalError;

/// An aggregation failure (wrong element type and similar).
#[derive(Debug, Clone, PartialEq)]
pub enum AggError {
    /// An element had a type the aggregate cannot process.
    BadElement {
        /// Which aggregate.
        func: AggFunc,
        /// Offending element's type name.
        kind: &'static str,
    },
    /// Arithmetic failure while accumulating.
    Arithmetic(String),
    /// Computing an element raised an error (see [`Accumulator::raise`]).
    Raised(EvalError),
}

/// Applies a composable aggregate to the elements of a collection.
pub fn apply(func: AggFunc, items: &[Value]) -> Result<Value, AggError> {
    let present: Vec<&Value> = items.iter().filter(|v| !v.is_absent()).collect();
    match func {
        AggFunc::Count => Ok(Value::Int(present.len() as i64)),
        AggFunc::Sum => {
            if present.is_empty() {
                return Ok(Value::Null);
            }
            sum(&present, func)
        }
        AggFunc::Avg => {
            if present.is_empty() {
                return Ok(Value::Null);
            }
            let total = sum(&present, func)?;
            let n = present.len() as i64;
            // AVG divides exactly: ints go through decimal so 1,2 → 1.5.
            let total = match total {
                Value::Int(i) => Value::Decimal(Decimal::from_i64(i)),
                other => other,
            };
            num_binop(NumOp::Div, &total, &Value::Int(n))
                .map_err(|e| AggError::Arithmetic(format!("{e:?}")))
        }
        AggFunc::Min | AggFunc::Max => {
            if present.is_empty() {
                return Ok(Value::Null);
            }
            // MIN/MAX over comparable scalars; heterogeneous collections
            // fall back to the total order (documented extension — SQL
            // would have rejected the data statically).
            let mut best = present[0];
            for v in &present[1..] {
                let take = match func {
                    AggFunc::Min => total_cmp(v, best) == std::cmp::Ordering::Less,
                    _ => total_cmp(v, best) == std::cmp::Ordering::Greater,
                };
                if take {
                    best = v;
                }
            }
            Ok((*best).clone())
        }
        AggFunc::Every => {
            if present.is_empty() {
                return Ok(Value::Null);
            }
            let mut all = true;
            for v in &present {
                match v {
                    Value::Bool(b) => all &= b,
                    other => {
                        return Err(AggError::BadElement {
                            func,
                            kind: other.kind().name(),
                        });
                    }
                }
            }
            Ok(Value::Bool(all))
        }
        AggFunc::Some => {
            if present.is_empty() {
                return Ok(Value::Null);
            }
            let mut any = false;
            for v in &present {
                match v {
                    Value::Bool(b) => any |= b,
                    other => {
                        return Err(AggError::BadElement {
                            func,
                            kind: other.kind().name(),
                        });
                    }
                }
            }
            Ok(Value::Bool(any))
        }
    }
}

fn sum(present: &[&Value], func: AggFunc) -> Result<Value, AggError> {
    let mut acc = Value::Int(0);
    for v in present {
        if !v.is_number() {
            return Err(AggError::BadElement {
                func,
                kind: v.kind().name(),
            });
        }
        acc = num_binop(NumOp::Add, &acc, v).map_err(|e| AggError::Arithmetic(format!("{e:?}")))?;
    }
    Ok(acc)
}

/// An incremental accumulator — the engine's one aggregate state: how
/// `COLL_*` consumes a streamed subquery without building its bag (the
/// engine optimization §V-C licenses: "a SQL++ engine is free to
/// optimize, e.g., by using pipelineable aggregation operations"), how
/// windowed aggregates run, and what a folded GROUP BY keeps per
/// aggregate per group.
///
/// States merge ([`Accumulator::merge`]): merging a one-element state
/// into a state is exactly pushing that element, so a group that pushes
/// each row's element into its state in place — and resumes from a
/// partial state that spilled to disk ([`Accumulator::to_value`]) —
/// gets the same result as one in-order pass.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    count: i64,
    sum: Value,
    best: Option<Value>,
    bool_acc: Option<bool>,
    failed: Option<AggError>,
}

impl Accumulator {
    /// A fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        Accumulator {
            func,
            count: 0,
            sum: Value::Int(0),
            best: None,
            bool_acc: None,
            failed: None,
        }
    }

    /// Feeds one element.
    pub fn push(&mut self, v: &Value) {
        if self.failed.is_some() || v.is_absent() {
            return;
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                // Int running sum skips the numeric-tower dispatch;
                // overflow reports exactly what the tower would.
                if let (Value::Int(s), Value::Int(x)) = (&self.sum, v) {
                    match s.checked_add(*x) {
                        Some(n) => self.sum = Value::Int(n),
                        None => {
                            self.failed = Some(AggError::Arithmetic(format!(
                                "{:?}",
                                crate::arith::NumError::Overflow
                            )))
                        }
                    }
                    return;
                }
                if !v.is_number() {
                    self.failed = Some(AggError::BadElement {
                        func: self.func,
                        kind: v.kind().name(),
                    });
                    return;
                }
                match num_binop(NumOp::Add, &self.sum, v) {
                    Ok(s) => self.sum = s,
                    Err(e) => self.failed = Some(AggError::Arithmetic(format!("{e:?}"))),
                }
            }
            AggFunc::Min | AggFunc::Max => self.push_best(v),
            AggFunc::Every | AggFunc::Some => match v {
                Value::Bool(b) => {
                    let acc = self.bool_acc.unwrap_or(self.func == AggFunc::Every);
                    self.bool_acc = Some(match self.func {
                        AggFunc::Every => acc && *b,
                        _ => acc || *b,
                    });
                }
                other => {
                    self.failed = Some(AggError::BadElement {
                        func: self.func,
                        kind: other.kind().name(),
                    });
                }
            },
        }
    }

    /// Records that computing an element raised `e`. The first such
    /// error wins over any element failure, as it does when the elements
    /// come from a subquery, where the raise aborts the pull: the
    /// aggregate then finishes with `e`.
    pub fn raise(&mut self, e: EvalError) {
        if !matches!(self.failed, Some(AggError::Raised(_))) {
            self.failed = Some(AggError::Raised(e));
        }
    }

    /// Folds in `other`, a state of the same aggregate over elements that
    /// come after this one's, with the NULL/MISSING/type rules of
    /// [`Accumulator::push`]. For a one-element `other` this is exactly
    /// `push`; for a longer one it differs only where an integer sum
    /// overflows part-way in one association but not the other.
    pub fn merge(&mut self, other: Accumulator) {
        debug_assert_eq!(self.func, other.func, "merging different aggregates");
        match (&self.failed, other.failed) {
            (Some(AggError::Raised(_)), _) => return,
            (_, Some(raised @ AggError::Raised(_))) => {
                self.failed = Some(raised);
                return;
            }
            (Some(_), _) => return,
            (None, Some(failed)) => {
                self.failed = Some(failed);
                return;
            }
            (None, None) => {}
        }
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                let summed = match (&self.sum, &other.sum) {
                    (Value::Int(a), Value::Int(b)) => a
                        .checked_add(*b)
                        .map(Value::Int)
                        .ok_or(crate::arith::NumError::Overflow),
                    (a, b) => num_binop(NumOp::Add, a, b),
                };
                match summed {
                    Ok(s) => self.sum = s,
                    Err(e) => self.failed = Some(AggError::Arithmetic(format!("{e:?}"))),
                }
            }
            AggFunc::Min | AggFunc::Max => {
                if let Some(best) = &other.best {
                    self.push_best(best);
                }
            }
            AggFunc::Every | AggFunc::Some => {
                if let Some(b) = other.bool_acc {
                    let acc = self.bool_acc.unwrap_or(self.func == AggFunc::Every);
                    self.bool_acc = Some(match self.func {
                        AggFunc::Every => acc && b,
                        _ => acc || b,
                    });
                }
            }
        }
    }

    /// The values the state holds — the running sum and the MIN/MAX best
    /// — which is all that makes one state bigger than another.
    pub(crate) fn held_values(&self) -> impl Iterator<Item = &Value> {
        std::iter::once(&self.sum).chain(self.best.as_ref())
    }

    /// MIN/MAX: keeps `v` if it beats the current best (ties keep the
    /// earlier element).
    fn push_best(&mut self, v: &Value) {
        let take = match &self.best {
            None => true,
            Some(b) => {
                let o = total_cmp(v, b);
                match self.func {
                    AggFunc::Min => o == std::cmp::Ordering::Less,
                    _ => o == std::cmp::Ordering::Greater,
                }
            }
        };
        if take {
            self.best = Some(v.clone());
        }
    }

    /// The state as a value, for spilling: `[count, sum, best, bool,
    /// failure]`, with MISSING/NULL for absent parts.
    pub fn to_value(&self) -> Value {
        let failed = match &self.failed {
            None => Value::Null,
            Some(AggError::BadElement { kind, .. }) => Value::Array(vec![
                Value::Str("element".into()),
                Value::Str((*kind).into()),
            ]),
            Some(AggError::Arithmetic(m)) => {
                Value::Array(vec![Value::Str("arithmetic".into()), Value::Str(m.clone())])
            }
            Some(AggError::Raised(e)) => {
                Value::Array(vec![Value::Str("raised".into()), e.to_value()])
            }
        };
        Value::Array(vec![
            Value::Int(self.count),
            self.sum.clone(),
            self.best.clone().unwrap_or(Value::Missing),
            self.bool_acc.map_or(Value::Null, Value::Bool),
            failed,
        ])
    }

    /// Inverse of [`Accumulator::to_value`] for a state of `func`; `None`
    /// when `v` is not such a state.
    pub fn from_value(func: AggFunc, v: Value) -> Option<Accumulator> {
        let Value::Array(parts) = v else {
            return None;
        };
        let [count, sum, best, bool_acc, failed] = <[Value; 5]>::try_from(parts).ok()?;
        let failed = match failed {
            Value::Null => None,
            Value::Array(f) => match <[Value; 2]>::try_from(f).ok()? {
                [Value::Str(tag), Value::Str(kind)] if tag == "element" => {
                    Some(AggError::BadElement {
                        func,
                        kind: kind_name(&kind)?,
                    })
                }
                [Value::Str(tag), Value::Str(m)] if tag == "arithmetic" => {
                    Some(AggError::Arithmetic(m))
                }
                [Value::Str(tag), e] if tag == "raised" => {
                    Some(AggError::Raised(EvalError::from_value(&e)?))
                }
                _ => return None,
            },
            _ => return None,
        };
        Some(Accumulator {
            func,
            count: match count {
                Value::Int(n) => n,
                _ => return None,
            },
            sum,
            best: (!best.is_missing()).then_some(best),
            bool_acc: match bool_acc {
                Value::Bool(b) => Some(b),
                _ => None,
            },
            failed,
        })
    }

    /// Produces the aggregate value.
    pub fn finish(self) -> Result<Value, AggError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        match self.func {
            AggFunc::Count => Ok(Value::Int(self.count)),
            _ if self.count == 0 => Ok(Value::Null),
            AggFunc::Sum => Ok(self.sum),
            AggFunc::Avg => {
                let total = match self.sum {
                    Value::Int(i) => Value::Decimal(Decimal::from_i64(i)),
                    other => other,
                };
                num_binop(NumOp::Div, &total, &Value::Int(self.count))
                    .map_err(|e| AggError::Arithmetic(format!("{e:?}")))
            }
            AggFunc::Min | AggFunc::Max => Ok(self.best.expect("count > 0")),
            AggFunc::Every | AggFunc::Some => Ok(Value::Bool(self.bool_acc.expect("count > 0"))),
        }
    }
}

/// The `&'static` type name a spilled element failure names.
fn kind_name(name: &str) -> Option<&'static str> {
    use ValueKind::*;
    [
        Missing, Null, Bool, Int, Float, Decimal, Str, Bytes, Array, Tuple, Bag,
    ]
    .into_iter()
    .map(ValueKind::name)
    .find(|k| *k == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(items: &[i64]) -> Vec<Value> {
        items.iter().map(|i| Value::Int(*i)).collect()
    }

    #[test]
    fn basic_aggregates() {
        let items = vals(&[1, 2, 3, 4]);
        assert_eq!(apply(AggFunc::Count, &items), Ok(Value::Int(4)));
        assert_eq!(apply(AggFunc::Sum, &items), Ok(Value::Int(10)));
        assert_eq!(
            apply(AggFunc::Avg, &items),
            Ok(Value::Decimal("2.5".parse().unwrap()))
        );
        assert_eq!(apply(AggFunc::Min, &items), Ok(Value::Int(1)));
        assert_eq!(apply(AggFunc::Max, &items), Ok(Value::Int(4)));
    }

    #[test]
    fn absent_elements_are_ignored_like_sql_nulls() {
        let items = vec![Value::Int(2), Value::Null, Value::Missing, Value::Int(4)];
        assert_eq!(apply(AggFunc::Count, &items), Ok(Value::Int(2)));
        assert_eq!(apply(AggFunc::Sum, &items), Ok(Value::Int(6)));
        assert_eq!(
            apply(AggFunc::Avg, &items),
            Ok(Value::Decimal("3".parse().unwrap()))
        );
    }

    #[test]
    fn empty_input_yields_null_except_count() {
        let empty: Vec<Value> = vec![];
        let nulls_only = vec![Value::Null];
        for items in [&empty, &nulls_only] {
            assert_eq!(apply(AggFunc::Count, items), Ok(Value::Int(0)));
            assert_eq!(apply(AggFunc::Sum, items), Ok(Value::Null));
            assert_eq!(apply(AggFunc::Avg, items), Ok(Value::Null));
            assert_eq!(apply(AggFunc::Min, items), Ok(Value::Null));
            assert_eq!(apply(AggFunc::Every, items), Ok(Value::Null));
        }
    }

    #[test]
    fn avg_is_exact_decimal_for_ints() {
        assert_eq!(
            apply(AggFunc::Avg, &vals(&[1, 2])),
            Ok(Value::Decimal("1.5".parse().unwrap()))
        );
    }

    #[test]
    fn float_inputs_widen() {
        let items = vec![Value::Int(1), Value::Float(2.0)];
        assert_eq!(apply(AggFunc::Sum, &items), Ok(Value::Float(3.0)));
    }

    #[test]
    fn bad_elements_error() {
        let items = vec![Value::Int(1), Value::Str("x".into())];
        assert!(matches!(
            apply(AggFunc::Sum, &items),
            Err(AggError::BadElement { .. })
        ));
        assert!(matches!(
            apply(AggFunc::Every, &vals(&[1])),
            Err(AggError::BadElement { .. })
        ));
    }

    #[test]
    fn every_and_some() {
        let t = Value::Bool(true);
        let f = Value::Bool(false);
        assert_eq!(
            apply(AggFunc::Every, &[t.clone(), t.clone()]),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            apply(AggFunc::Every, &[t.clone(), f.clone()]),
            Ok(Value::Bool(false))
        );
        assert_eq!(
            apply(AggFunc::Some, &[f.clone(), t.clone()]),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            apply(AggFunc::Some, &[f.clone(), f]),
            Ok(Value::Bool(false))
        );
    }

    #[test]
    fn accumulator_matches_batch_apply() {
        let items = vec![
            Value::Int(3),
            Value::Null,
            Value::Decimal("0.5".parse().unwrap()),
            Value::Int(-1),
        ];
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let mut acc = Accumulator::new(func);
            for v in &items {
                acc.push(v);
            }
            assert_eq!(acc.finish(), apply(func, &items), "{func:?}");
        }
    }

    fn mixed() -> Vec<Value> {
        vec![
            Value::Int(3),
            Value::Null,
            Value::Decimal("0.5".parse().unwrap()),
            Value::Missing,
            Value::Int(-1),
            Value::Float(2.25),
            Value::Int(i64::MAX),
            Value::Str("s".into()),
            Value::Bool(true),
            Value::Bool(false),
        ]
    }

    const FUNCS: [AggFunc; 7] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Every,
        AggFunc::Some,
    ];

    /// Folding one-element states into a running state — how a group is
    /// built, and resumed from a spilled partial — equals one in-order
    /// pass, integer overflow included.
    #[test]
    fn folding_singletons_equals_one_pass() {
        let max = Value::Int(i64::MAX);
        let orders = [
            vec![Value::Int(1), max.clone(), Value::Int(-1)],
            vec![max.clone(), Value::Int(-1), Value::Int(1)],
            mixed(),
        ];
        for items in &orders {
            for func in FUNCS {
                let mut pass = Accumulator::new(func);
                let mut folded = Accumulator::new(func);
                for v in items {
                    pass.push(v);
                    let mut single = Accumulator::new(func);
                    single.push(v);
                    folded.merge(single);
                }
                assert_eq!(folded.finish(), pass.finish(), "{func:?} over {items:?}");
            }
        }
    }

    /// Merging the states of any split of a sequence equals pushing it
    /// in order (no running integer sum overflows in `mixed` before a
    /// float widens it).
    #[test]
    fn merge_of_any_split_equals_one_pass() {
        let items = mixed();
        for func in FUNCS {
            for lo in 0..=items.len() {
                for hi in lo..=items.len() {
                    let mut whole = Accumulator::new(func);
                    for v in &items[lo..hi] {
                        whole.push(v);
                    }
                    for cut in lo..=hi {
                        let mut left = Accumulator::new(func);
                        items[lo..cut].iter().for_each(|v| left.push(v));
                        let mut right = Accumulator::new(func);
                        items[cut..hi].iter().for_each(|v| right.push(v));
                        left.merge(right);
                        assert_eq!(
                            left.finish(),
                            whole.clone().finish(),
                            "{func:?} over {lo}..{cut}..{hi}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_raised_error_beats_element_failures_in_either_order() {
        let raised = || EvalError::Type("boom".into());
        let mut bad = Accumulator::new(AggFunc::Sum);
        bad.push(&Value::Str("s".into()));
        let mut poisoned = Accumulator::new(AggFunc::Sum);
        poisoned.raise(raised());
        let mut first = bad.clone();
        first.merge(poisoned.clone());
        poisoned.merge(bad);
        for acc in [first, poisoned] {
            assert_eq!(acc.finish(), Err(AggError::Raised(raised())));
        }
        // The earliest raise wins.
        let mut acc = Accumulator::new(AggFunc::Count);
        acc.raise(EvalError::Arithmetic("first".into()));
        acc.raise(raised());
        assert_eq!(
            acc.finish(),
            Err(AggError::Raised(EvalError::Arithmetic("first".into())))
        );
    }

    #[test]
    fn states_round_trip_through_values() {
        let items = mixed();
        for func in FUNCS {
            for n in 0..=items.len() {
                let mut acc = Accumulator::new(func);
                items[..n].iter().for_each(|v| acc.push(v));
                let back = Accumulator::from_value(func, acc.to_value()).expect("decodes");
                assert_eq!(back.finish(), acc.finish(), "{func:?} after {n}");
            }
            let mut acc = Accumulator::new(func);
            acc.raise(EvalError::MissingParam(3));
            let back = Accumulator::from_value(func, acc.to_value()).expect("decodes");
            assert_eq!(back.finish(), acc.finish());
        }
        assert!(Accumulator::from_value(AggFunc::Sum, Value::Int(1)).is_none());
    }
}
