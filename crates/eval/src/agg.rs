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
use sqlpp_value::cmp::{deep_eq, total_cmp};
use sqlpp_value::{Decimal, Value};

use crate::arith::{num_binop, NumOp};

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
}

/// Removes structural duplicates (for `DISTINCT` aggregates), preserving
/// first occurrences.
pub fn distinct_elements(items: &[Value]) -> Vec<Value> {
    let mut out: Vec<Value> = Vec::with_capacity(items.len());
    for item in items {
        if !out.iter().any(|seen| deep_eq(seen, item)) {
            out.push(item.clone());
        }
    }
    out
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

/// An incremental accumulator: how `COLL_*` consumes a streamed subquery
/// without building its bag (the engine optimization §V-C licenses: "a
/// SQL++ engine is free to optimize, e.g., by using pipelineable
/// aggregation operations"), and how windowed aggregates run.
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
            AggFunc::Min | AggFunc::Max => {
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
    fn distinct_elements_dedupe_structurally() {
        let items = vec![Value::Int(1), Value::Float(1.0), Value::Int(2)];
        // 1 and 1.0 are structurally equal numbers.
        assert_eq!(distinct_elements(&items).len(), 2);
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
}
