//! # sqlpp-catalog — named SQL++ values
//!
//! A SQL++ database "contains one or more SQL++ named values" (§II). A
//! name is an identifier, possibly dotted/namespaced — `hr.emp_nest_tuples`
//! "could reflect the database/table hierarchy of a MySQL database or the
//! schema/table hierarchy of a Postgres database". This crate provides a
//! concurrent in-memory catalog mapping such names to values, with
//! snapshot isolation for readers: values are handed out as `Arc`s, a
//! load replaces a binding wholesale, and a DML statement's [`Delta`]
//! patches it — in place when no reader holds the value, else into a
//! copy that is then published.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use sqlpp_schema::SqlppType;
use sqlpp_value::{Delta, Value};

/// Acquires a read lock, recovering from poisoning: a panicked writer
/// can only have been mid-`insert`/`remove` on the `BTreeMap`, whose
/// tree structure is exception-safe, so the data is still consistent
/// and read access remains sound.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Acquires a write lock, recovering from poisoning (see [`read`]).
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// A dotted, namespaced name such as `hr.emp` (case-sensitive, as the
/// paper's examples rely on exact attribute and collection names).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QualifiedName(Vec<String>);

impl QualifiedName {
    /// Builds a name from its segments. Empty segment lists are invalid.
    pub fn new<I, S>(segments: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let segs: Vec<String> = segments.into_iter().map(Into::into).collect();
        assert!(
            !segs.is_empty(),
            "qualified name needs at least one segment"
        );
        QualifiedName(segs)
    }

    /// Parses a dotted string: `"hr.emp"` → `["hr", "emp"]`.
    pub fn parse(dotted: &str) -> Self {
        QualifiedName::new(dotted.split('.'))
    }

    /// The segments.
    pub fn segments(&self) -> &[String] {
        &self.0
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always false (construction requires one segment).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for QualifiedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.join("."))
    }
}

impl From<&str> for QualifiedName {
    fn from(s: &str) -> Self {
        QualifiedName::parse(s)
    }
}

/// Errors from catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The name is not bound.
    NotFound(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::NotFound(name) => {
                write!(f, "name {name:?} is not bound in the catalog")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// The in-memory catalog of named values.
///
/// Cloning a `Catalog` is cheap and shares the underlying storage, so a
/// catalog can be handed to several engine sessions. Readers obtain
/// `Arc<Value>` snapshots; a concurrent `set` replaces the binding without
/// disturbing in-flight readers.
#[derive(Clone, Default)]
pub struct Catalog {
    inner: Arc<RwLock<BTreeMap<QualifiedName, Arc<Value>>>>,
    schemas: Arc<RwLock<BTreeMap<QualifiedName, Arc<SqlppType>>>>,
    /// Monotonic version of the *schema* map. Query plans depend on the
    /// catalog only through its schema attachments (§III static
    /// disambiguation), so this epoch is exactly the validity stamp a
    /// prepared plan (or a shared plan cache) needs: same epoch ⇒ the
    /// plan's lowering inputs are unchanged. Bumped under the schemas
    /// write lock so `schema_state` reads are consistent.
    schema_epoch: Arc<AtomicU64>,
    /// Serializes read-modify-write statements (see [`Catalog::dml_guard`]).
    dml: Arc<Mutex<()>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Binds `name` to `value`, replacing any previous binding.
    pub fn set(&self, name: impl Into<QualifiedName>, value: Value) {
        write(&self.inner).insert(name.into(), Arc::new(value));
    }

    /// Patches `name`'s collection with `delta` (an unbound name only
    /// takes an insert, which binds a new bag). When no reader holds
    /// the stored `Arc`, the patch happens in place under the map's
    /// write lock, costing the size of the delta; otherwise the value
    /// is copied *outside* the lock, patched, and published, leaving
    /// readers on their snapshot. Callers hold [`Catalog::dml_guard`],
    /// which is what keeps the copied base current until it publishes.
    /// A delta that does not fit leaves the binding untouched.
    pub fn apply(&self, name: impl Into<QualifiedName>, delta: Delta) -> Result<(), String> {
        let name = name.into();
        let base = {
            let mut map = write(&self.inner);
            match map.get_mut(&name) {
                None => {
                    let created = delta.create()?;
                    map.insert(name, Arc::new(created));
                    return Ok(());
                }
                Some(slot) => match Arc::get_mut(slot) {
                    Some(value) => return delta.apply_to(value),
                    None => Arc::clone(slot),
                },
            }
        };
        let mut copy = Value::clone(&base);
        drop(base);
        delta.apply_to(&mut copy)?;
        self.set(name, copy);
        Ok(())
    }

    /// Looks up a binding.
    pub fn get(&self, name: &QualifiedName) -> Result<Arc<Value>, CatalogError> {
        read(&self.inner)
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::NotFound(name.to_string()))
    }

    /// Looks up by dotted string.
    pub fn get_str(&self, dotted: &str) -> Result<Arc<Value>, CatalogError> {
        self.get(&QualifiedName::parse(dotted))
    }

    /// Resolves the *longest* name prefix of `segments` that is bound,
    /// returning the value and how many segments were consumed. This is how
    /// `hr.emp_nest_tuples.x` distinguishes "navigate attribute `x` of
    /// collection `hr.emp_nest_tuples`" from a three-segment catalog name.
    pub fn resolve_prefix(&self, segments: &[String]) -> Option<(Arc<Value>, usize)> {
        let map = read(&self.inner);
        for take in (1..=segments.len()).rev() {
            let name = QualifiedName(segments[..take].to_vec());
            if let Some(v) = map.get(&name) {
                return Some((v.clone(), take));
            }
        }
        None
    }

    /// Removes a binding, returning it if present. Any schema attached to
    /// the name is removed with it (advancing the schema epoch).
    pub fn remove(&self, name: &QualifiedName) -> Option<Arc<Value>> {
        {
            let mut schemas = write(&self.schemas);
            if schemas.remove(name).is_some() {
                self.schema_epoch.fetch_add(1, Ordering::Release);
            }
        }
        write(&self.inner).remove(name)
    }

    /// Attaches a declared/inferred *element* schema to a name — the
    /// paper's optional-schema tenet: data stays self-describing, but a
    /// schema, when present, enables static disambiguation (§III).
    /// Advances the schema epoch: plans lowered before this call are
    /// stale and must be re-lowered (see [`Catalog::schema_epoch`]).
    pub fn set_schema(&self, name: impl Into<QualifiedName>, element_type: SqlppType) {
        let mut schemas = write(&self.schemas);
        schemas.insert(name.into(), Arc::new(element_type));
        self.schema_epoch.fetch_add(1, Ordering::Release);
    }

    /// The element schema attached to a name, if any.
    pub fn schema(&self, name: &QualifiedName) -> Option<Arc<SqlppType>> {
        read(&self.schemas).get(name).cloned()
    }

    /// All `(dotted name, element type)` schema attachments — the planner
    /// consumes this snapshot for static disambiguation.
    pub fn schema_snapshot(&self) -> Vec<(String, SqlppType)> {
        read(&self.schemas)
            .iter()
            .map(|(k, v)| (k.to_string(), (**v).clone()))
            .collect()
    }

    /// The current schema epoch: a counter that advances on every schema
    /// attachment or detachment. A plan lowered against epoch *e* is
    /// valid exactly while `schema_epoch() == e`; prepared statements and
    /// plan caches key on it to never execute (or serve) a stale plan.
    pub fn schema_epoch(&self) -> u64 {
        self.schema_epoch.load(Ordering::Acquire)
    }

    /// Advances the schema epoch to at least `target` (monotonic — a
    /// smaller target is a no-op). Durability recovery uses this to
    /// restore the epoch a snapshot recorded, so epochs never move
    /// backwards across a restart and cached plans keyed on pre-crash
    /// epochs can never be mistaken for current.
    pub fn advance_schema_epoch_to(&self, target: u64) {
        self.schema_epoch.fetch_max(target, Ordering::Release);
    }

    /// The schema epoch together with the snapshot it stamps, read under
    /// one guard so the pair is consistent: a plan lowered from the
    /// returned snapshot is valid exactly while the catalog's epoch still
    /// equals the returned epoch.
    pub fn schema_state(&self) -> (u64, Vec<(String, SqlppType)>) {
        let schemas = read(&self.schemas);
        let epoch = self.schema_epoch.load(Ordering::Acquire);
        let snapshot = schemas
            .iter()
            .map(|(k, v)| (k.to_string(), (**v).clone()))
            .collect();
        (epoch, snapshot)
    }

    /// Serializes DML statements and every other publish. A
    /// read-modify-write over a binding (INSERT/DELETE/UPDATE reads an
    /// `Arc` snapshot, computes a delta against it, and [`apply`]s it)
    /// must hold this guard from its target read through its commit —
    /// otherwise a concurrent publish moves the base under the delta's
    /// positions, or two writers patch the same snapshot and the second
    /// discards the first's rows (a lost update). Readers never take
    /// this lock: snapshot isolation via [`Catalog::get`] is
    /// unaffected, so queries keep running while a writer holds it.
    ///
    /// [`apply`]: Catalog::apply
    pub fn dml_guard(&self) -> MutexGuard<'_, ()> {
        self.dml.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// True when the exact name is bound.
    pub fn contains(&self, name: &QualifiedName) -> bool {
        read(&self.inner).contains_key(name)
    }

    /// All bound names, sorted.
    pub fn names(&self) -> Vec<QualifiedName> {
        read(&self.inner).keys().cloned().collect()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        read(&self.inner).len()
    }

    /// True when no names are bound.
    pub fn is_empty(&self) -> bool {
        read(&self.inner).is_empty()
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let map = read(&self.inner);
        f.debug_map()
            .entries(map.iter().map(|(k, v)| (k.to_string(), v.kind().name())))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::{bag, Value};

    #[test]
    fn set_get_roundtrip() {
        let cat = Catalog::new();
        cat.set("hr.emp", bag![1i64, 2i64]);
        assert_eq!(*cat.get_str("hr.emp").unwrap(), bag![1i64, 2i64]);
        assert!(cat.get_str("hr.other").is_err());
    }

    #[test]
    fn names_are_case_sensitive_and_dotted() {
        let cat = Catalog::new();
        cat.set("HR.Emp", Value::Int(1));
        assert!(cat.get_str("hr.emp").is_err());
        assert!(cat.contains(&QualifiedName::parse("HR.Emp")));
        assert_eq!(cat.names().len(), 1);
    }

    #[test]
    fn resolve_prefix_prefers_longest_match() {
        let cat = Catalog::new();
        cat.set("hr", Value::Int(1));
        cat.set("hr.emp", Value::Int(2));
        let segs: Vec<String> = vec!["hr".into(), "emp".into(), "name".into()];
        let (v, used) = cat.resolve_prefix(&segs).unwrap();
        assert_eq!(*v, Value::Int(2));
        assert_eq!(used, 2);
        // Falls back to the shorter binding when the longer is absent.
        let segs2: Vec<String> = vec!["hr".into(), "dept".into()];
        let (v2, used2) = cat.resolve_prefix(&segs2).unwrap();
        assert_eq!(*v2, Value::Int(1));
        assert_eq!(used2, 1);
        assert!(cat.resolve_prefix(&["zz".to_string()]).is_none());
    }

    #[test]
    fn clones_share_state_and_writes_do_not_disturb_readers() {
        let cat = Catalog::new();
        cat.set("t", Value::Int(1));
        let snapshot = cat.get_str("t").unwrap();
        let clone = cat.clone();
        clone.set("t", Value::Int(2));
        // The old snapshot is unchanged; new reads see the new value.
        assert_eq!(*snapshot, Value::Int(1));
        assert_eq!(*cat.get_str("t").unwrap(), Value::Int(2));
    }

    #[test]
    fn remove_and_len() {
        let cat = Catalog::new();
        assert!(cat.is_empty());
        cat.set("a", Value::Int(1));
        cat.set("b", Value::Int(2));
        assert_eq!(cat.len(), 2);
        assert!(cat.remove(&QualifiedName::parse("a")).is_some());
        assert!(cat.remove(&QualifiedName::parse("a")).is_none());
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn schema_epoch_tracks_schema_mutations_only() {
        let cat = Catalog::new();
        let e0 = cat.schema_epoch();
        // Plain value writes leave plans valid: no epoch movement.
        cat.set("t", Value::Int(1));
        cat.set("t", Value::Int(2));
        assert_eq!(cat.schema_epoch(), e0);
        // Attaching a schema invalidates.
        cat.set_schema("t", sqlpp_schema::SqlppType::Any);
        let e1 = cat.schema_epoch();
        assert!(e1 > e0);
        // Re-attaching counts too (the type may differ).
        cat.set_schema("t", sqlpp_schema::SqlppType::Any);
        let e2 = cat.schema_epoch();
        assert!(e2 > e1);
        // Removing a schemaless name is epoch-neutral…
        cat.set("plain", Value::Int(3));
        cat.remove(&QualifiedName::parse("plain"));
        assert_eq!(cat.schema_epoch(), e2);
        // …removing a schema-attached one is not.
        cat.remove(&QualifiedName::parse("t"));
        assert!(cat.schema_epoch() > e2);
        // The epoch and snapshot read consistently as a pair.
        let (e, snap) = cat.schema_state();
        assert_eq!(e, cat.schema_epoch());
        assert!(snap.is_empty());
    }

    #[test]
    fn poisoned_locks_recover() {
        let cat = Catalog::new();
        cat.set("t", Value::Int(1));
        // Poison the value lock: panic on another thread while holding
        // the write guard.
        let inner = Arc::clone(&cat.inner);
        let result = std::thread::spawn(move || {
            let _guard = inner.write().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(result.is_err(), "the poisoning thread must have panicked");
        // Reads and writes keep working through the recovery helpers.
        assert_eq!(*cat.get_str("t").unwrap(), Value::Int(1));
        cat.set("t", Value::Int(2));
        assert_eq!(*cat.get_str("t").unwrap(), Value::Int(2));
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn apply_patches_in_place_or_into_a_copy() {
        let cat = Catalog::new();
        cat.apply("t", Delta::Insert(vec![Value::Int(1), Value::Int(2)]))
            .unwrap();
        let before = Arc::as_ptr(&cat.get_str("t").unwrap());
        // Unshared: patched in place, the same allocation stays bound.
        cat.apply("t", Delta::Insert(vec![Value::Int(3)])).unwrap();
        assert_eq!(Arc::as_ptr(&cat.get_str("t").unwrap()), before);
        assert_eq!(*cat.get_str("t").unwrap(), bag![1i64, 2i64, 3i64]);
        // Shared: the reader keeps its snapshot, the catalog moves on.
        let reader = cat.get_str("t").unwrap();
        cat.apply("t", Delta::Delete(vec![0])).unwrap();
        assert_eq!(*reader, bag![1i64, 2i64, 3i64]);
        assert_eq!(*cat.get_str("t").unwrap(), bag![2i64, 3i64]);
        // Misfits and non-collections are errors that change nothing.
        assert!(cat.apply("t", Delta::Delete(vec![5])).is_err());
        assert!(cat.apply("gone", Delta::Delete(vec![])).is_err());
        cat.set("n", Value::Int(1));
        assert!(cat.apply("n", Delta::Insert(vec![])).is_err());
        assert_eq!(*cat.get_str("t").unwrap(), bag![2i64, 3i64]);
        assert!(!cat.contains(&QualifiedName::parse("gone")));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cat = Catalog::new();
        cat.set("shared", Value::Int(0));
        std::thread::scope(|s| {
            for i in 0..8 {
                let cat = cat.clone();
                s.spawn(move || {
                    for j in 0..100 {
                        cat.set(format!("t{i}").as_str(), Value::Int(j));
                        let _ = cat.get_str("shared");
                    }
                });
            }
        });
        assert_eq!(cat.len(), 9);
    }
}
