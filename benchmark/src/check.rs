//! Answer checking that does not lean on the engine: a canonical byte
//! encoding of values under which two bags are equal exactly when they
//! hold the same elements with the same multiplicities, and two tuples
//! when they hold the same attribute/value pairs.

use std::hash::{Hash, Hasher};

use sqlpp_formats::wire::Response;
use sqlpp_value::Value;

/// What a response must be. Row answers are kept as a cardinality and
/// a digest of the canonical encoding, not as rows: the generator makes
/// thousands of wide answers, and holding them would make the
/// benchmark's own memory the largest part of `peak_rss_mb`.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A collection of `len` elements with this digest; `ordered` for an
    /// `ORDER BY` answer (compared in order), otherwise a bag.
    Rows {
        len: usize,
        digest: u64,
        ordered: bool,
    },
    /// A DML summary tuple `{key: count}`.
    Summary(&'static str, i64),
}

impl Expect {
    /// These elements, in any order.
    pub fn bag(rows: Vec<Value>) -> Expect {
        Expect::Rows {
            len: rows.len(),
            digest: digest(&rows, true),
            ordered: false,
        }
    }

    /// These elements, in this order.
    pub fn list(rows: Vec<Value>) -> Expect {
        Expect::Rows {
            len: rows.len(),
            digest: digest(&rows, false),
            ordered: true,
        }
    }
}

/// Appends the canonical encoding of `v`: a type tag, then the payload;
/// bag elements and tuple pairs are sorted by their own encodings.
fn canon(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Missing => out.push(0),
        Value::Null => out.push(1),
        Value::Bool(b) => out.extend([2, *b as u8]),
        Value::Int(i) => {
            out.push(3);
            out.extend(i.to_be_bytes());
        }
        Value::Float(f) => {
            out.push(4);
            out.extend(f.to_bits().to_be_bytes());
        }
        Value::Decimal(d) => {
            out.push(5);
            out.extend(d.to_string().into_bytes());
        }
        Value::Str(s) => {
            out.push(6);
            out.extend(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(7);
            out.extend(b);
        }
        Value::Array(items) => {
            out.push(8);
            canon_elements(items, false, out);
        }
        Value::Bag(items) => {
            out.push(9);
            canon_elements(items, true, out);
        }
        Value::Tuple(t) => {
            out.push(10);
            let mut parts: Vec<Vec<u8>> = t
                .iter()
                .map(|(name, value)| {
                    let mut buf = (name.len() as u64).to_be_bytes().to_vec();
                    buf.extend(name.as_bytes());
                    canon(value, &mut buf);
                    buf
                })
                .collect();
            parts.sort_unstable();
            framed(parts, out);
        }
    }
}

/// Length-prefixed concatenation, so element boundaries are unambiguous.
fn framed(parts: Vec<Vec<u8>>, out: &mut Vec<u8>) {
    out.extend((parts.len() as u64).to_be_bytes());
    for p in parts {
        out.extend((p.len() as u64).to_be_bytes());
        out.extend(p);
    }
}

/// The encoding of a collection's elements: in order for a list, sorted
/// for a bag.
fn canon_elements(items: &[Value], as_bag: bool, out: &mut Vec<u8>) {
    let mut parts: Vec<Vec<u8>> = items
        .iter()
        .map(|item| {
            let mut buf = Vec::new();
            canon(item, &mut buf);
            buf
        })
        .collect();
    if as_bag {
        parts.sort_unstable();
    }
    framed(parts, out);
}

/// A 64-bit digest of a collection's canonical encoding (SipHash with
/// the standard library's fixed keys, so it repeats across runs).
fn digest(items: &[Value], as_bag: bool) -> u64 {
    let mut bytes = Vec::new();
    canon_elements(items, as_bag, &mut bytes);
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut hasher);
    hasher.finish()
}

/// Whether two values are equal up to bag order and attribute order.
pub fn same(a: &Value, b: &Value) -> bool {
    let (mut x, mut y) = (Vec::new(), Vec::new());
    canon(a, &mut x);
    canon(b, &mut y);
    x == y
}

/// The cheap in-line check made on every response inside the measured
/// window: right response kind, right value kind, right cardinality.
/// DML summaries are small enough to be checked in full here.
pub fn quick(resp: &Response, expect: &Expect) -> bool {
    matches!(resp, Response::Rows(value) if shape_ok(value, expect))
}

fn shape_ok(value: &Value, expect: &Expect) -> bool {
    match expect {
        Expect::Rows { len, .. } => value.as_elements().is_some_and(|got| got.len() == *len),
        Expect::Summary(key, n) => value
            .as_tuple()
            .is_some_and(|t| t.len() == 1 && t.get(key) == Some(&Value::Int(*n))),
    }
}

/// Full equality of a response value with the model's answer: multiset
/// equality for a bag, positional for a list (elements compared
/// canonically either way, so nested bags and attribute order are free).
pub fn full(value: &Value, expect: &Expect) -> bool {
    match expect {
        Expect::Rows {
            len,
            digest: want,
            ordered,
        } => value
            .as_elements()
            .is_some_and(|got| got.len() == *len && digest(got, !ordered) == *want),
        Expect::Summary(..) => shape_ok(value, expect),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::Tuple;

    fn t(pairs: Vec<(&str, Value)>) -> Value {
        Value::Tuple(Tuple::from_pairs(pairs))
    }

    #[test]
    fn bags_compare_as_multisets_and_tuples_ignore_attribute_order() {
        let a = Value::Bag(vec![
            t(vec![("x", Value::Int(1)), ("y", Value::Null)]),
            t(vec![("x", Value::Int(2))]),
            t(vec![("x", Value::Int(2))]),
        ]);
        let same = Expect::bag(vec![
            t(vec![("x", Value::Int(2))]),
            t(vec![("y", Value::Null), ("x", Value::Int(1))]),
            t(vec![("x", Value::Int(2))]),
        ]);
        let fewer = Expect::bag(vec![
            t(vec![("x", Value::Int(2))]),
            t(vec![("y", Value::Null), ("x", Value::Int(1))]),
            t(vec![("x", Value::Int(1))]),
        ]);
        assert!(full(&a, &same));
        assert!(!full(&a, &fewer));
    }

    #[test]
    fn lists_compare_in_order_and_nested_bags_do_not() {
        let got = Value::Bag(vec![
            t(vec![(
                "ids",
                Value::Bag(vec![Value::Int(1), Value::Int(2)]),
            )]),
            t(vec![("ids", Value::Bag(vec![]))]),
        ]);
        let in_order = Expect::list(vec![
            t(vec![(
                "ids",
                Value::Bag(vec![Value::Int(2), Value::Int(1)]),
            )]),
            t(vec![("ids", Value::Bag(vec![]))]),
        ]);
        let swapped = Expect::list(vec![
            t(vec![("ids", Value::Bag(vec![]))]),
            t(vec![(
                "ids",
                Value::Bag(vec![Value::Int(2), Value::Int(1)]),
            )]),
        ]);
        assert!(full(&got, &in_order));
        assert!(!full(&got, &swapped));
    }

    #[test]
    fn null_missing_and_types_are_told_apart() {
        let got = Value::Bag(vec![t(vec![("a", Value::Null)])]);
        assert!(!full(&got, &Expect::bag(vec![t(vec![])])));
        assert!(!full(
            &Value::Bag(vec![Value::Int(1)]),
            &Expect::bag(vec![Value::Float(1.0)])
        ));
        assert!(!full(
            &Value::Bag(vec![Value::Str("1".into())]),
            &Expect::bag(vec![Value::Int(1)])
        ));
    }

    #[test]
    fn quick_checks_kind_and_cardinality_only() {
        let rows = Response::Rows(Value::Bag(vec![Value::Int(9)]));
        assert!(quick(&rows, &Expect::bag(vec![Value::Int(1)])));
        assert!(!quick(&rows, &Expect::bag(vec![])));
        assert!(!quick(&rows, &Expect::Summary("inserted", 1)));
        let summary = Response::Rows(t(vec![("inserted", Value::Int(1))]));
        assert!(quick(&summary, &Expect::Summary("inserted", 1)));
        assert!(!quick(&summary, &Expect::Summary("deleted", 1)));
        let overloaded = Response::Overloaded {
            message: String::new(),
        };
        assert!(!quick(&overloaded, &Expect::bag(vec![])));
    }
}
