//! The scalar function registry.
//!
//! Dispatch rule (§IV-B case 3): "whenever a function or operator has a
//! MISSING input, it returns a MISSING result", and likewise NULL inputs
//! yield NULL — applied uniformly by [`call`] *before* a function body
//! runs. The documented exception: in SQL-compatibility mode, a function
//! that maps NULL to a non-null result treats MISSING like NULL — which is
//! why `COALESCE(MISSING, 2)` is 2 there (§IV-B). `COALESCE` and `NULLIF`
//! therefore opt out of the uniform propagation and handle absence
//! themselves.

use sqlpp_value::cmp::sql_eq;
use sqlpp_value::{Tuple, Value};

use crate::arith::{num_binop, NumOp};
use crate::error::EvalError;

/// Outcome of a function body: a value, or a dynamic type error message
/// (mapped to MISSING or an error by the caller, per typing mode).
pub type FuncResult = Result<Value, String>;

/// True when the registry knows `name` (used for nicer unknown-function
/// errors at call sites).
pub fn is_known(name: &str) -> bool {
    matches!(
        name,
        "LOWER"
            | "UPPER"
            | "CHAR_LENGTH"
            | "CHARACTER_LENGTH"
            | "LENGTH"
            | "SUBSTRING"
            | "TRIM"
            | "LTRIM"
            | "RTRIM"
            | "POSITION"
            | "REPLACE"
            | "CONTAINS"
            | "STARTS_WITH"
            | "ENDS_WITH"
            | "SPLIT"
            | "CONCAT"
            | "ABS"
            | "CEIL"
            | "CEILING"
            | "FLOOR"
            | "ROUND"
            | "SQRT"
            | "POWER"
            | "POW"
            | "MOD"
            | "SIGN"
            | "COALESCE"
            | "NULLIF"
            | "TYPEOF"
            | "CARDINALITY"
            | "ARRAY_LENGTH"
            | "TO_STRING"
            | "OBJECT_NAMES"
            | "OBJECT_VALUES"
            | "OBJECT_LENGTH"
            | "ARRAY_CONCAT"
            | "ARRAY_CONTAINS"
            | "ARRAY_DISTINCT"
            | "ARRAY_REVERSE"
            | "TO_ARRAY"
            | "TO_BAG"
            | "$MERGE"
    )
}

/// Functions that see absent arguments rather than having them propagated.
fn handles_absence(name: &str) -> bool {
    matches!(name, "COALESCE" | "NULLIF" | "TYPEOF" | "$MERGE")
}

/// Invokes a registry function with the uniform absent-propagation rule.
/// `compat` enables the SQL-compatibility COALESCE exception.
pub fn call(name: &str, args: &[Value], compat: bool) -> Result<FuncResult, EvalError> {
    if !is_known(name) {
        return Err(EvalError::UnknownFunction(name.to_string()));
    }
    if !handles_absence(name) {
        if args.iter().any(Value::is_missing) {
            return Ok(Ok(Value::Missing));
        }
        if args.iter().any(Value::is_null) {
            return Ok(Ok(Value::Null));
        }
    }
    Ok(dispatch(name, args, compat))
}

fn str_arg<'a>(name: &str, args: &'a [Value], i: usize) -> Result<&'a str, String> {
    match args.get(i) {
        Some(Value::Str(s)) => Ok(s),
        Some(other) => Err(format!(
            "{name}: argument {} must be a string, found {}",
            i + 1,
            other.kind().name()
        )),
        None => Err(format!("{name}: missing argument {}", i + 1)),
    }
}

fn int_arg(name: &str, args: &[Value], i: usize) -> Result<i64, String> {
    match args.get(i) {
        Some(Value::Int(v)) => Ok(*v),
        Some(other) => Err(format!(
            "{name}: argument {} must be an integer, found {}",
            i + 1,
            other.kind().name()
        )),
        None => Err(format!("{name}: missing argument {}", i + 1)),
    }
}

fn f64_arg(name: &str, args: &[Value], i: usize) -> Result<f64, String> {
    args.get(i)
        .and_then(Value::as_f64_lossy)
        .ok_or_else(|| format!("{name}: argument {} must be numeric", i + 1))
}

fn arity(name: &str, args: &[Value], want: std::ops::RangeInclusive<usize>) -> Result<(), String> {
    if want.contains(&args.len()) {
        Ok(())
    } else {
        Err(format!(
            "{name}: expected {:?} arguments, got {}",
            want,
            args.len()
        ))
    }
}

fn dispatch(name: &str, args: &[Value], compat: bool) -> FuncResult {
    match name {
        // ---------------- strings ----------------
        "LOWER" => {
            arity(name, args, 1..=1)?;
            Ok(Value::Str(str_arg(name, args, 0)?.to_lowercase()))
        }
        "UPPER" => {
            arity(name, args, 1..=1)?;
            Ok(Value::Str(str_arg(name, args, 0)?.to_uppercase()))
        }
        "CHAR_LENGTH" | "CHARACTER_LENGTH" | "LENGTH" => {
            arity(name, args, 1..=1)?;
            Ok(Value::Int(str_arg(name, args, 0)?.chars().count() as i64))
        }
        "SUBSTRING" => {
            arity(name, args, 2..=3)?;
            let s = str_arg(name, args, 0)?;
            let start = int_arg(name, args, 1)?;
            let chars: Vec<char> = s.chars().collect();
            // SQL 1-based; out-of-range clamps.
            let begin = (start.max(1) - 1) as usize;
            let len = if args.len() == 3 {
                let l = int_arg(name, args, 2)?;
                if l < 0 {
                    return Err(format!("{name}: negative length"));
                }
                // A start before 1 eats into the length, per SQL.
                (l + start.min(1) - 1).max(0) as usize
            } else {
                usize::MAX
            };
            Ok(Value::Str(
                chars.iter().skip(begin).take(len).collect::<String>(),
            ))
        }
        "TRIM" => {
            arity(name, args, 1..=1)?;
            Ok(Value::Str(str_arg(name, args, 0)?.trim().to_string()))
        }
        "LTRIM" => {
            arity(name, args, 1..=1)?;
            Ok(Value::Str(str_arg(name, args, 0)?.trim_start().to_string()))
        }
        "RTRIM" => {
            arity(name, args, 1..=1)?;
            Ok(Value::Str(str_arg(name, args, 0)?.trim_end().to_string()))
        }
        "POSITION" => {
            arity(name, args, 2..=2)?;
            let sub = str_arg(name, args, 0)?;
            let s = str_arg(name, args, 1)?;
            // 1-based character position; 0 when absent.
            match s.find(sub) {
                Some(byte_pos) => Ok(Value::Int(s[..byte_pos].chars().count() as i64 + 1)),
                None => Ok(Value::Int(0)),
            }
        }
        "REPLACE" => {
            arity(name, args, 3..=3)?;
            let s = str_arg(name, args, 0)?;
            let from = str_arg(name, args, 1)?;
            let to = str_arg(name, args, 2)?;
            if from.is_empty() {
                return Ok(Value::Str(s.to_string()));
            }
            Ok(Value::Str(s.replace(from, to)))
        }
        "CONTAINS" => {
            arity(name, args, 2..=2)?;
            Ok(Value::Bool(
                str_arg(name, args, 0)?.contains(str_arg(name, args, 1)?),
            ))
        }
        "STARTS_WITH" => {
            arity(name, args, 2..=2)?;
            Ok(Value::Bool(
                str_arg(name, args, 0)?.starts_with(str_arg(name, args, 1)?),
            ))
        }
        "ENDS_WITH" => {
            arity(name, args, 2..=2)?;
            Ok(Value::Bool(
                str_arg(name, args, 0)?.ends_with(str_arg(name, args, 1)?),
            ))
        }
        "SPLIT" => {
            arity(name, args, 2..=2)?;
            let s = str_arg(name, args, 0)?;
            let sep = str_arg(name, args, 1)?;
            if sep.is_empty() {
                return Err(format!("{name}: empty separator"));
            }
            Ok(Value::Array(
                s.split(sep).map(|p| Value::Str(p.to_string())).collect(),
            ))
        }
        "CONCAT" => {
            let mut out = String::new();
            for (i, a) in args.iter().enumerate() {
                match a {
                    Value::Str(s) => out.push_str(s),
                    other => {
                        return Err(format!(
                            "CONCAT: argument {} must be a string, found {}",
                            i + 1,
                            other.kind().name()
                        ));
                    }
                }
            }
            Ok(Value::Str(out))
        }
        // ---------------- numerics ----------------
        "ABS" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Int(i) => i
                    .checked_abs()
                    .map(Value::Int)
                    .ok_or_else(|| "ABS: overflow".to_string()),
                Value::Decimal(d) => Ok(Value::Decimal(d.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(format!("ABS: not a number: {}", other.kind().name())),
            }
        }
        "CEIL" | "CEILING" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Int(_) => Ok(args[0].clone()),
                Value::Decimal(d) => Ok(Value::Decimal(d.ceil())),
                Value::Float(f) => Ok(Value::Float(f.ceil())),
                other => Err(format!("{name}: not a number: {}", other.kind().name())),
            }
        }
        "FLOOR" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Int(_) => Ok(args[0].clone()),
                Value::Decimal(d) => Ok(Value::Decimal(d.floor())),
                Value::Float(f) => Ok(Value::Float(f.floor())),
                other => Err(format!("FLOOR: not a number: {}", other.kind().name())),
            }
        }
        "ROUND" => {
            arity(name, args, 1..=2)?;
            let digits = if args.len() == 2 {
                int_arg(name, args, 1)?
            } else {
                0
            };
            if digits < 0 {
                return Err("ROUND: negative digit count".to_string());
            }
            match &args[0] {
                Value::Int(_) => Ok(args[0].clone()),
                Value::Decimal(d) => Ok(Value::Decimal(d.round_dp(digits as u32))),
                Value::Float(f) => {
                    let m = 10f64.powi(digits as i32);
                    Ok(Value::Float((f * m).round() / m))
                }
                other => Err(format!("ROUND: not a number: {}", other.kind().name())),
            }
        }
        "SQRT" => {
            arity(name, args, 1..=1)?;
            let x = f64_arg(name, args, 0)?;
            if x < 0.0 {
                return Err("SQRT: negative input".to_string());
            }
            Ok(Value::Float(x.sqrt()))
        }
        "POWER" | "POW" => {
            arity(name, args, 2..=2)?;
            Ok(Value::Float(
                f64_arg(name, args, 0)?.powf(f64_arg(name, args, 1)?),
            ))
        }
        "MOD" => {
            arity(name, args, 2..=2)?;
            num_binop(NumOp::Rem, &args[0], &args[1]).map_err(|e| format!("MOD: {e:?}"))
        }
        "SIGN" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(i.signum())),
                Value::Decimal(d) => Ok(Value::Int(if d.is_zero() {
                    0
                } else if d.is_negative() {
                    -1
                } else {
                    1
                })),
                Value::Float(f) => Ok(Value::Int(if *f == 0.0 {
                    0
                } else if *f < 0.0 {
                    -1
                } else {
                    1
                })),
                other => Err(format!("SIGN: not a number: {}", other.kind().name())),
            }
        }
        // ---------------- absence-aware ----------------
        "COALESCE" => {
            // SQL: first non-NULL argument. In compat mode MISSING is
            // treated like NULL (the paper's §IV-B exception); in pure
            // composability mode a MISSING argument propagates.
            for a in args {
                if a.is_missing() {
                    if compat {
                        continue;
                    }
                    return Ok(Value::Missing);
                }
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        }
        "NULLIF" => {
            arity(name, args, 2..=2)?;
            if args[0].is_absent() || args[1].is_absent() {
                return Ok(args[0].clone());
            }
            match sql_eq(&args[0], &args[1]) {
                Value::Bool(true) => Ok(Value::Null),
                _ => Ok(args[0].clone()),
            }
        }
        "TYPEOF" => {
            arity(name, args, 1..=1)?;
            Ok(Value::Str(args[0].kind().name().to_string()))
        }
        // ---------------- collections / misc ----------------
        "CARDINALITY" | "ARRAY_LENGTH" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Array(items) | Value::Bag(items) => Ok(Value::Int(items.len() as i64)),
                other => Err(format!("{name}: not a collection: {}", other.kind().name())),
            }
        }
        "TO_STRING" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Str(_) => Ok(args[0].clone()),
                v if v.is_scalar() => Ok(Value::Str(v.to_string())),
                other => Err(format!("TO_STRING: not a scalar: {}", other.kind().name())),
            }
        }
        // ---------------- tuple/array reflection ----------------
        // The §VI names⇄data theme as plain functions: tuples expose
        // their attribute names and values as data.
        "OBJECT_NAMES" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Tuple(t) => Ok(Value::Array(
                    t.names().map(|n| Value::Str(n.to_string())).collect(),
                )),
                other => Err(format!(
                    "OBJECT_NAMES: not a tuple: {}",
                    other.kind().name()
                )),
            }
        }
        "OBJECT_VALUES" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Tuple(t) => Ok(Value::Array(t.iter().map(|(_, v)| v.clone()).collect())),
                other => Err(format!(
                    "OBJECT_VALUES: not a tuple: {}",
                    other.kind().name()
                )),
            }
        }
        "OBJECT_LENGTH" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Tuple(t) => Ok(Value::Int(t.len() as i64)),
                other => Err(format!(
                    "OBJECT_LENGTH: not a tuple: {}",
                    other.kind().name()
                )),
            }
        }
        "ARRAY_CONCAT" => {
            let mut out = Vec::new();
            for (i, a) in args.iter().enumerate() {
                match a {
                    Value::Array(items) => out.extend(items.iter().cloned()),
                    other => {
                        return Err(format!(
                            "ARRAY_CONCAT: argument {} is not an array: {}",
                            i + 1,
                            other.kind().name()
                        ));
                    }
                }
            }
            Ok(Value::Array(out))
        }
        "ARRAY_CONTAINS" => {
            arity(name, args, 2..=2)?;
            match &args[0] {
                Value::Array(items) | Value::Bag(items) => Ok(Value::Bool(
                    items.iter().any(|v| sqlpp_value::cmp::deep_eq(v, &args[1])),
                )),
                other => Err(format!(
                    "ARRAY_CONTAINS: not a collection: {}",
                    other.kind().name()
                )),
            }
        }
        "ARRAY_DISTINCT" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Array(items) => {
                    let mut out: Vec<Value> = Vec::with_capacity(items.len());
                    for v in items {
                        if !out.iter().any(|s| sqlpp_value::cmp::deep_eq(s, v)) {
                            out.push(v.clone());
                        }
                    }
                    Ok(Value::Array(out))
                }
                other => Err(format!(
                    "ARRAY_DISTINCT: not an array: {}",
                    other.kind().name()
                )),
            }
        }
        "ARRAY_REVERSE" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Array(items) => Ok(Value::Array(items.iter().rev().cloned().collect())),
                other => Err(format!(
                    "ARRAY_REVERSE: not an array: {}",
                    other.kind().name()
                )),
            }
        }
        // Collection kind conversions: arrays impose an (arbitrary but
        // stable) order on bags; bags forget array order.
        "TO_ARRAY" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Array(_) => Ok(args[0].clone()),
                Value::Bag(items) => Ok(Value::Array(items.clone())),
                other => Ok(Value::Array(vec![other.clone()])),
            }
        }
        "TO_BAG" => {
            arity(name, args, 1..=1)?;
            match &args[0] {
                Value::Bag(_) => Ok(args[0].clone()),
                Value::Array(items) => Ok(Value::Bag(items.clone())),
                other => Ok(Value::Bag(vec![other.clone()])),
            }
        }
        // SELECT * support: arguments alternate (marker, value); a marker
        // starting with '*' spreads a tuple value (or binds the rest of
        // the marker as the attribute name for non-tuples).
        "$MERGE" => {
            let mut t = Tuple::new();
            let mut i = 0;
            while i + 1 < args.len() {
                let marker = match &args[i] {
                    Value::Str(s) => s.as_str(),
                    _ => return Err("$MERGE: malformed marker".to_string()),
                };
                let value = &args[i + 1];
                if let Some(var_name) = marker.strip_prefix('*') {
                    match value {
                        Value::Tuple(inner) => {
                            for (n, v) in inner.pairs() {
                                t.insert(n.clone(), v.clone());
                            }
                        }
                        Value::Missing => {}
                        other => t.insert(var_name, other.clone()),
                    }
                } else {
                    t.insert(marker, value.clone());
                }
                i += 2;
            }
            Ok(Value::Tuple(t))
        }
        _ => unreachable!("is_known checked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(name: &str, args: &[Value]) -> Value {
        call(name, args, true).unwrap().unwrap()
    }

    #[test]
    fn uniform_absent_propagation() {
        assert_eq!(
            ok("LOWER", &[Value::Missing]),
            Value::Missing,
            "MISSING in, MISSING out"
        );
        assert_eq!(ok("LOWER", &[Value::Null]), Value::Null);
        assert_eq!(
            ok("SUBSTRING", &[Value::Str("ab".into()), Value::Missing]),
            Value::Missing
        );
    }

    #[test]
    fn coalesce_follows_the_papers_exception() {
        // §IV-B: COALESCE(MISSING, 2) = 2 in SQL-compat mode…
        let args = [Value::Missing, Value::Int(2)];
        assert_eq!(
            call("COALESCE", &args, true).unwrap().unwrap(),
            Value::Int(2)
        );
        // …but propagates MISSING in pure composability mode.
        assert_eq!(
            call("COALESCE", &args, false).unwrap().unwrap(),
            Value::Missing
        );
        assert_eq!(ok("COALESCE", &[Value::Null, Value::Int(3)]), Value::Int(3));
        assert_eq!(ok("COALESCE", &[Value::Null, Value::Null]), Value::Null);
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            ok("LOWER", &["OLAP Security".into()]),
            "olap security".into()
        );
        assert_eq!(ok("UPPER", &["abc".into()]), "ABC".into());
        assert_eq!(ok("CHAR_LENGTH", &["héllo".into()]), Value::Int(5));
        assert_eq!(
            ok(
                "SUBSTRING",
                &["abcdef".into(), Value::Int(2), Value::Int(3)]
            ),
            "bcd".into()
        );
        assert_eq!(
            ok("SUBSTRING", &["abcdef".into(), Value::Int(4)]),
            "def".into()
        );
        assert_eq!(ok("TRIM", &["  x  ".into()]), "x".into());
        assert_eq!(
            ok("POSITION", &["Sec".into(), "OLTP Security".into()]),
            Value::Int(6)
        );
        assert_eq!(ok("POSITION", &["zz".into(), "abc".into()]), Value::Int(0));
        assert_eq!(
            ok("REPLACE", &["a-b-c".into(), "-".into(), "+".into()]),
            "a+b+c".into()
        );
        assert_eq!(
            ok("CONCAT", &["a".into(), "b".into(), "c".into()]),
            "abc".into()
        );
        assert_eq!(
            ok("SPLIT", &["a,b".into(), ",".into()]),
            Value::Array(vec!["a".into(), "b".into()])
        );
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(ok("ABS", &[Value::Int(-5)]), Value::Int(5));
        assert_eq!(
            ok("CEIL", &[Value::Decimal("1.2".parse().unwrap())]),
            Value::Decimal("2".parse().unwrap())
        );
        assert_eq!(ok("FLOOR", &[Value::Float(1.8)]), Value::Float(1.0));
        assert_eq!(
            ok(
                "ROUND",
                &[Value::Decimal("2.45".parse().unwrap()), Value::Int(1)]
            ),
            Value::Decimal("2.5".parse().unwrap())
        );
        assert_eq!(ok("SQRT", &[Value::Int(9)]), Value::Float(3.0));
        assert_eq!(ok("MOD", &[Value::Int(7), Value::Int(3)]), Value::Int(1));
        assert_eq!(ok("SIGN", &[Value::Int(-3)]), Value::Int(-1));
    }

    #[test]
    fn type_errors_are_reported_as_messages() {
        let r = call("LOWER", &[Value::Int(1)], true).unwrap();
        assert!(r.is_err());
        let r = call("SQRT", &[Value::Int(-1)], true).unwrap();
        assert!(r.is_err());
    }

    #[test]
    fn unknown_function_is_a_hard_error() {
        assert!(matches!(
            call("FROBNICATE", &[], true),
            Err(EvalError::UnknownFunction(_))
        ));
    }

    #[test]
    fn nullif() {
        assert_eq!(ok("NULLIF", &[Value::Int(1), Value::Int(1)]), Value::Null);
        assert_eq!(ok("NULLIF", &[Value::Int(1), Value::Int(2)]), Value::Int(1));
        assert_eq!(ok("NULLIF", &[Value::Null, Value::Int(2)]), Value::Null);
        assert_eq!(
            ok("NULLIF", &[Value::Missing, Value::Int(2)]),
            Value::Missing
        );
    }

    #[test]
    fn typeof_sees_absent_values() {
        assert_eq!(ok("TYPEOF", &[Value::Missing]), "missing".into());
        assert_eq!(ok("TYPEOF", &[Value::Null]), "null".into());
        assert_eq!(ok("TYPEOF", &[Value::Int(1)]), "integer".into());
    }

    #[test]
    fn object_reflection() {
        use sqlpp_value::tuple;
        let t = Value::Tuple(tuple! {"a" => 1i64, "b" => "x"});
        assert_eq!(
            ok("OBJECT_NAMES", std::slice::from_ref(&t)),
            Value::Array(vec!["a".into(), "b".into()])
        );
        assert_eq!(
            ok("OBJECT_VALUES", std::slice::from_ref(&t)),
            Value::Array(vec![Value::Int(1), "x".into()])
        );
        assert_eq!(ok("OBJECT_LENGTH", &[t]), Value::Int(2));
        assert!(call("OBJECT_NAMES", &[Value::Int(1)], true)
            .unwrap()
            .is_err());
    }

    #[test]
    fn array_helpers() {
        use sqlpp_value::array;
        assert_eq!(
            ok("ARRAY_CONCAT", &[array![1i64], array![2i64, 3i64]]),
            array![1i64, 2i64, 3i64]
        );
        assert_eq!(
            ok("ARRAY_CONTAINS", &[array![1i64, 2i64], Value::Float(2.0)]),
            Value::Bool(true)
        );
        assert_eq!(
            ok("ARRAY_DISTINCT", &[array![1i64, 1i64, 2i64]]),
            array![1i64, 2i64]
        );
        assert_eq!(
            ok("ARRAY_REVERSE", &[array![1i64, 2i64]]),
            array![2i64, 1i64]
        );
        assert_eq!(ok("TO_ARRAY", &[sqlpp_value::bag![1i64]]), array![1i64]);
        assert_eq!(ok("TO_BAG", &[array![1i64]]), sqlpp_value::bag![1i64]);
        assert_eq!(ok("TO_ARRAY", &[Value::Int(5)]), array![5i64]);
    }

    #[test]
    fn merge_spreads_tuples_and_names_scalars() {
        use sqlpp_value::tuple;
        let t = Value::Tuple(tuple! {"a" => 1i64});
        let merged = ok(
            "$MERGE",
            &[
                Value::Str("*e".into()),
                t,
                Value::Str("*s".into()),
                Value::Int(5),
                Value::Str("x".into()),
                Value::Int(9),
            ],
        );
        let mt = merged.as_tuple().unwrap();
        assert_eq!(mt.get("a"), Some(&Value::Int(1)));
        assert_eq!(mt.get("s"), Some(&Value::Int(5)));
        assert_eq!(mt.get("x"), Some(&Value::Int(9)));
    }
}
