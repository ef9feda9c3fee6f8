//! # sqlpp-value — the SQL++ data model
//!
//! This crate implements §II of *SQL++: We Can Finally Relax!* (Carey et
//! al., ICDE 2024): a dynamically typed value universe in which
//!
//! * relational rows are just one special case of [`Tuple`]s,
//! * collections are [`Value::Array`]s (`[ … ]`) or [`Value::Bag`]s
//!   (`{{ … }}`, multisets), freely heterogeneous and nestable,
//! * missing information has **two** representations: present-but-unknown
//!   [`Value::Null`] and not-even-present [`Value::Missing`], and
//! * tuples are unordered and tolerate duplicate attribute names.
//!
//! The crate also fixes the comparison semantics every other layer relies
//! on: the SQL three-valued `=` ([`cmp::sql_eq`]), a structural equivalence
//! for bags/DISTINCT/grouping ([`cmp::deep_eq`]), a cross-type total order
//! for ORDER BY ([`cmp::total_cmp`]), and a hash consistent with all of it
//! ([`hash::GroupKey`]).
//!
//! ```
//! use sqlpp_value::{bag, tuple, Value};
//!
//! // Listing 1's first employee, as a Rust literal:
//! let bob = tuple! {
//!     "id" => 3i64,
//!     "name" => "Bob Smith",
//!     "title" => Value::Null,
//!     "projects" => bag![
//!         Value::Tuple(tuple! {"name" => "Serverless Query"}),
//!     ],
//! };
//! // Navigation into an absent attribute yields MISSING, not an error:
//! assert_eq!(Value::Tuple(bob).path("salary"), Value::Missing);
//! ```

#![warn(missing_docs)]

pub mod attr;
pub mod cmp;
pub mod decimal;
pub mod delta;
mod display;
pub mod hash;
mod macros;
mod tuple;
mod value;

pub use attr::AttrName;
pub use decimal::{Decimal, DecimalError};
pub use delta::Delta;
pub use display::to_pretty;
pub use hash::GroupKey;
pub use tuple::Tuple;
pub use value::{Value, ValueKind};

/// Canonicalizes a value for deterministic snapshot output: bags are
/// recursively sorted by the total order. Arrays and tuples keep their
/// order (arrays are ordered; tuple insertion order is already
/// deterministic in this implementation).
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Bag(items) => {
            let mut items: Vec<Value> = items.iter().map(canonicalize).collect();
            items.sort_by(cmp::total_cmp);
            Value::Bag(items)
        }
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        Value::Tuple(t) => {
            let mut out = Tuple::with_capacity(t.len());
            for (name, value) in t.pairs() {
                out.insert(name.clone(), canonicalize(value));
            }
            Value::Tuple(out)
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_sorts_bags_recursively() {
        let v = bag![bag![2i64, 1i64], bag![3i64]];
        let c = canonicalize(&v);
        // Bags compare lexicographically over their sorted elements, so
        // {{1, 2}} precedes {{3}}.
        assert_eq!(c.to_string(), "{{{{1, 2}}, {{3}}}}");
        // Canonical forms of equal bags are identical.
        let v2 = bag![bag![3i64], bag![1i64, 2i64]];
        assert_eq!(format!("{}", canonicalize(&v2)), format!("{c}"));
    }
}
