//! SQL++ tuples (§II): unordered attribute name/value pairs.
//!
//! Unlike a schemaful SQL row, a SQL++ tuple is *unordered* and may contain
//! *duplicate attribute names* ("in the interest of compatibility with
//! non-strict data in formats such as JSON, Ion, and CBOR"). Dot navigation
//! binds the **first** pair with the requested name, which the paper warns
//! "can lead to nonreproducible results in the presence of duplicate
//! attribute names" — we make it deterministic (insertion order) but keep
//! the duplicate-tolerant model.
//!
//! The crucial construction rule (§IV-B): an attribute whose value is
//! MISSING is **not stored** — [`Tuple::insert`] silently drops it, so
//! `MISSING` can never be observed as a stored attribute value.

use crate::attr::AttrName;
use crate::value::Value;

/// An unordered multi-map of attribute names to values.
///
/// Internally pairs are kept in insertion order; all equality and hashing
/// operations treat the pairs as an unordered multiset (see [`crate::cmp`]).
/// Names are [`AttrName`]s, so rows built from the same names share one
/// copy of each; every accessor still speaks `&str`.
#[derive(Clone, Default, PartialEq)]
pub struct Tuple {
    pairs: Vec<(AttrName, Value)>,
}

impl Tuple {
    /// Creates an empty tuple.
    pub fn new() -> Self {
        Tuple { pairs: Vec::new() }
    }

    /// Creates an empty tuple with room for `n` attributes.
    pub fn with_capacity(n: usize) -> Self {
        Tuple {
            pairs: Vec::with_capacity(n),
        }
    }

    /// Builds a tuple from pairs, applying the MISSING-dropping rule.
    pub fn from_pairs<I, K>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<AttrName>,
    {
        let mut t = Tuple::new();
        for (k, v) in pairs {
            t.insert(k, v);
        }
        t
    }

    /// Inserts an attribute. Per §IV-B, a MISSING value is dropped: "the
    /// output tuple will not have a title attribute". Duplicate names are
    /// allowed and appended.
    pub fn insert(&mut self, name: impl Into<AttrName>, value: Value) {
        if value.is_missing() {
            return;
        }
        self.pairs.push((name.into(), value));
    }

    /// Inserts or replaces the first attribute with this name (used by
    /// updaters and the pivot operator, where a later binding of the same
    /// name overwrites).
    pub fn upsert(&mut self, name: impl Into<AttrName>, value: Value) {
        if value.is_missing() {
            return;
        }
        let name = name.into();
        if let Some(slot) = self.pairs.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.pairs.push((name, value));
        }
    }

    /// First value bound to `name`, if any.
    #[inline]
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// All values bound to `name` (usually zero or one).
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Value> + 'a {
        self.pairs
            .iter()
            .filter(move |(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// True when some pair has this name.
    pub fn contains(&self, name: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == name)
    }

    /// Removes all pairs with this name, returning the first removed value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let mut removed = None;
        self.pairs.retain_mut(|(k, v)| {
            if k == name {
                if removed.is_none() {
                    removed = Some(std::mem::take(v));
                }
                false
            } else {
                true
            }
        });
        removed
    }

    /// Number of pairs (duplicates counted).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the tuple has no attributes.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates pairs in insertion order with their [`AttrName`]s, for
    /// callers that copy names into another tuple without re-interning.
    pub fn pairs(&self) -> impl Iterator<Item = (&AttrName, &Value)> {
        self.pairs.iter().map(|(k, v)| (k, v))
    }

    /// Attribute names in insertion order (duplicates included).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.pairs.iter().map(|(k, _)| k.as_str())
    }

    /// Concatenates another tuple's pairs onto this one (tuple merge, used
    /// by `SELECT *` over multiple FROM variables).
    pub fn extend_from(&mut self, other: Tuple) {
        self.pairs.extend(other.pairs);
    }
}

impl std::fmt::Debug for Tuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Delegate to the paper-notation printer via Value's Debug.
        write!(f, "{:?}", Value::Tuple(self.clone()))
    }
}

impl<K: Into<AttrName>> FromIterator<(K, Value)> for Tuple {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        Tuple::from_pairs(iter)
    }
}

impl IntoIterator for Tuple {
    type Item = (AttrName, Value);
    type IntoIter = std::vec::IntoIter<(AttrName, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.pairs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut t = Tuple::new();
        t.insert("a", Value::Int(1));
        t.insert("b", Value::Str("x".into()));
        assert_eq!(t.get("a"), Some(&Value::Int(1)));
        assert_eq!(t.get("b"), Some(&Value::Str("x".into())));
        assert_eq!(t.get("c"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn missing_values_are_dropped_on_insert() {
        let mut t = Tuple::new();
        t.insert("title", Value::Missing);
        assert!(t.is_empty());
        assert!(!t.contains("title"));
        // NULL, by contrast, is stored.
        t.insert("title", Value::Null);
        assert_eq!(t.get("title"), Some(&Value::Null));
    }

    #[test]
    fn duplicate_names_are_kept_and_first_wins_on_get() {
        let mut t = Tuple::new();
        t.insert("x", Value::Int(1));
        t.insert("x", Value::Int(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("x"), Some(&Value::Int(1)));
        assert_eq!(t.get_all("x").count(), 2);
    }

    #[test]
    fn upsert_replaces_first_occurrence() {
        let mut t = Tuple::new();
        t.insert("x", Value::Int(1));
        t.upsert("x", Value::Int(9));
        assert_eq!(t.get("x"), Some(&Value::Int(9)));
        assert_eq!(t.len(), 1);
        t.upsert("y", Value::Int(5));
        assert_eq!(t.get("y"), Some(&Value::Int(5)));
        // Upserting MISSING is a no-op, like insert.
        t.upsert("y", Value::Missing);
        assert_eq!(t.get("y"), Some(&Value::Int(5)));
    }

    #[test]
    fn remove_drops_all_duplicates() {
        let mut t = Tuple::new();
        t.insert("x", Value::Int(1));
        t.insert("x", Value::Int(2));
        t.insert("y", Value::Int(3));
        assert_eq!(t.remove("x"), Some(Value::Int(1)));
        assert!(!t.contains("x"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove("zzz"), None);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = Tuple::from_pairs([("a".to_string(), Value::Int(1))]);
        let b = Tuple::from_pairs([("b".to_string(), Value::Int(2))]);
        a.extend_from(b);
        assert_eq!(a.len(), 2);
        assert!(a.contains("a") && a.contains("b"));
    }
}
