//! The change one DML statement makes to a stored collection.
//!
//! A [`Delta`] is computed against the snapshot a statement read and is
//! the only thing the statement commits: the write-ahead log records it,
//! the catalog patches it into the stored collection, and recovery
//! replays it — all three through the one [`Delta::apply`]. Positions
//! index the snapshot's elements and are strictly ascending, so a delta
//! that does not fit its base is detected, never half-applied.

use crate::value::Value;

/// What one INSERT, DELETE or UPDATE changes in a collection.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Rows appended at the end, in order.
    Insert(Vec<Value>),
    /// Strictly ascending positions of the elements removed.
    Delete(Vec<usize>),
    /// Strictly ascending positions, each with its element's new value.
    Update(Vec<(usize, Value)>),
}

impl Delta {
    /// The delta's kind, as the log spells it.
    pub fn kind(&self) -> &'static str {
        match self {
            Delta::Insert(_) => "insert",
            Delta::Delete(_) => "delete",
            Delta::Update(_) => "update",
        }
    }

    /// Checks that every position is strictly ascending and inside a
    /// collection of `len` elements — the condition under which
    /// [`Delta::apply`] cannot fail.
    pub fn check(&self, len: usize) -> Result<(), String> {
        match self {
            Delta::Insert(_) => Ok(()),
            Delta::Delete(at) => check_positions(self.kind(), at.iter().copied(), len),
            Delta::Update(rows) => check_positions(self.kind(), rows.iter().map(|r| r.0), len),
        }
    }

    /// Patches `items` in place: inserts append, deletes drop their
    /// positions keeping the survivors' relative order, updates replace
    /// their elements where they stand. Validates first, so an error
    /// leaves `items` untouched.
    pub fn apply(self, items: &mut Vec<Value>) -> Result<(), String> {
        self.check(items.len())?;
        match self {
            Delta::Insert(rows) => items.extend(rows),
            Delta::Delete(at) => {
                let mut doomed = at.into_iter().peekable();
                let mut i = 0usize;
                items.retain(|_| {
                    let hit = doomed.next_if_eq(&i).is_some();
                    i += 1;
                    !hit
                });
            }
            Delta::Update(rows) => {
                for (at, row) in rows {
                    items[at] = row;
                }
            }
        }
        Ok(())
    }

    /// Patches a bound collection value (bag or array — its kind is
    /// kept). Anything else is not a patch target.
    pub fn apply_to(self, target: &mut Value) -> Result<(), String> {
        match target {
            Value::Bag(items) | Value::Array(items) => self.apply(items),
            other => Err(format!(
                "{} patch target is a {}, not a collection",
                self.kind(),
                other.kind().name()
            )),
        }
    }

    /// The value a patch binds to a name that is not bound yet: an
    /// insert creates a bag (as INSERT into an unbound name does); a
    /// delete or update has nothing to patch.
    pub fn create(self) -> Result<Value, String> {
        if !matches!(self, Delta::Insert(_)) {
            return Err(format!("{} patch on an unbound name", self.kind()));
        }
        let mut created = Value::empty_bag();
        self.apply_to(&mut created)?;
        Ok(created)
    }
}

fn check_positions(
    kind: &str,
    positions: impl Iterator<Item = usize>,
    len: usize,
) -> Result<(), String> {
    let mut prev: Option<usize> = None;
    for at in positions {
        if at >= len {
            return Err(format!(
                "{kind} position {at} is past the collection's {len} element(s)"
            ));
        }
        if let Some(p) = prev.filter(|&p| p >= at) {
            return Err(format!(
                "{kind} positions are not strictly ascending ({p} then {at})"
            ));
        }
        prev = Some(at);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag;

    fn ints(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn apply_keeps_order() {
        let mut items = ints(&[0, 1, 2, 3, 4]);
        Delta::Delete(vec![0, 2, 4]).apply(&mut items).unwrap();
        assert_eq!(items, ints(&[1, 3]));
        Delta::Update(vec![(1, Value::Int(9))])
            .apply(&mut items)
            .unwrap();
        assert_eq!(items, ints(&[1, 9]));
        Delta::Insert(ints(&[5, 6])).apply(&mut items).unwrap();
        assert_eq!(items, ints(&[1, 9, 5, 6]));
        Delta::Delete(vec![]).apply(&mut items).unwrap();
        assert_eq!(items, ints(&[1, 9, 5, 6]));
    }

    #[test]
    fn misfits_are_errors_and_leave_the_base_alone() {
        let base = ints(&[0, 1, 2]);
        for bad in [
            Delta::Delete(vec![3]),
            Delta::Delete(vec![1, 1]),
            Delta::Delete(vec![2, 0]),
            Delta::Update(vec![(0, Value::Null), (7, Value::Null)]),
            Delta::Update(vec![(1, Value::Null), (0, Value::Null)]),
        ] {
            let mut items = base.clone();
            assert!(bad.apply(&mut items).is_err());
            assert_eq!(items, base);
        }
    }

    #[test]
    fn targets_and_creation() {
        let mut arr = Value::Array(ints(&[1]));
        Delta::Insert(ints(&[2])).apply_to(&mut arr).unwrap();
        assert_eq!(arr, Value::Array(ints(&[1, 2])));
        assert!(Delta::Insert(vec![]).apply_to(&mut Value::Int(1)).is_err());
        assert_eq!(Delta::Insert(ints(&[1])).create().unwrap(), bag![1i64]);
        assert!(Delta::Delete(vec![]).create().is_err());
        assert!(Delta::Update(vec![]).create().is_err());
    }
}
