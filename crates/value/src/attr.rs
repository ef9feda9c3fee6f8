//! Interned attribute names.
//!
//! SQL++ tuples describe themselves (§II), so every stored row carries its
//! attribute names, and a semi-structured collection repeats the same few
//! names in every row. [`AttrName`] lets all those rows share one copy of
//! each name: an *interned* name is a `&'static str` from an append-only,
//! process-wide table, so copying it allocates nothing and writes no
//! shared memory (no reference count to bump).
//!
//! The table is bounded by two constants, [`MAX_INTERNED`] names of at most
//! [`MAX_INTERNED_LEN`] bytes each (about 1 MiB at worst). A name past
//! either cap is *owned* (a private heap copy) instead. Equality, hashing
//! and ordering are byte-wise over the name's text and never look at which
//! form a name took, so no query answer can depend on sharing.
//!
//! Interning goes through per-thread memos in front of the table, so a
//! thread takes the table's lock once per distinct name; hot paths (the
//! bytecode tuple constructor, GROUP AS capture, `ion_lite` decoding
//! through a [`NameMemo`]) go further and make their names once per
//! operator or decode call.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

/// Most distinct names the process-wide table ever holds.
pub const MAX_INTERNED: usize = 16_384;

/// Longest name (in bytes) the table accepts.
pub const MAX_INTERNED_LEN: usize = 64;

/// A tuple attribute name: shared from the intern table when it fits the
/// caps, owned otherwise. Compares and displays exactly like its text;
/// tuples hash and order names through that text (`&str`) too.
#[derive(Clone)]
pub struct AttrName(Repr);

#[derive(Clone)]
enum Repr {
    Shared(&'static str),
    Owned(Box<str>),
}

fn table() -> &'static Mutex<HashSet<&'static str>> {
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
}

/// Slots in a [`NameMemo`] and in the per-thread front cache.
const MEMO_SLOTS: usize = 256;

/// The slot a name's bytes map to: FNV-1a, which is cheap on short names.
/// A collision only costs a slower lookup, so hostile names can make a
/// memo miss but never make it wrong or slow the table down.
fn slot_of(bytes: &[u8]) -> usize {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    hash as usize % MEMO_SLOTS
}

thread_local! {
    /// This thread's recently interned names, direct-mapped by
    /// [`slot_of`]: the common lookup is one short hash and compare.
    static RECENT: [Cell<Option<&'static str>>; MEMO_SLOTS] =
        const { [const { Cell::new(None) }; MEMO_SLOTS] };
    /// Every name this thread has interned, for names whose slot in
    /// [`RECENT`] another name holds.
    static SEEN: RefCell<HashSet<&'static str>> = RefCell::new(HashSet::new());
}

/// Number of names in the process-wide intern table (never more than
/// [`MAX_INTERNED`]).
pub fn interned_count() -> usize {
    table().lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// The table's copy of `s`, adding it when there is room. A thread takes
/// the table's lock once per distinct name.
fn intern(s: &str) -> Option<&'static str> {
    if s.len() > MAX_INTERNED_LEN {
        return None;
    }
    let slot = slot_of(s.as_bytes());
    if let Some(hit) = RECENT.with(|r| r[slot].get()).filter(|hit| *hit == s) {
        return Some(hit);
    }
    let shared = match SEEN.with(|seen| seen.borrow().get(s).copied()) {
        Some(hit) => hit,
        None => {
            let mut table = table().lock().unwrap_or_else(|e| e.into_inner());
            let shared = match table.get(s) {
                Some(hit) => *hit,
                None if table.len() < MAX_INTERNED => {
                    let leaked: &'static str = Box::leak(s.into());
                    table.insert(leaked);
                    leaked
                }
                None => return None,
            };
            drop(table);
            SEEN.with(|seen| seen.borrow_mut().insert(shared));
            shared
        }
    };
    RECENT.with(|r| r[slot].set(Some(shared)));
    Some(shared)
}

/// The attribute names one decode call has made, direct-mapped by their
/// encoded bytes: a document of many rows with the same few names checks
/// and interns each name once, and every later field copies the memo's
/// [`AttrName`] without validating its bytes again. The slots are
/// allocated at the first name, so decoding a scalar costs nothing.
#[derive(Default)]
pub struct NameMemo {
    slots: Vec<Option<AttrName>>,
}

impl NameMemo {
    /// The name whose UTF-8 encoding is `bytes`.
    pub fn name(&mut self, bytes: &[u8]) -> Result<AttrName, std::str::Utf8Error> {
        if self.slots.is_empty() {
            self.slots.resize(MEMO_SLOTS, None);
        }
        let slot = &mut self.slots[slot_of(bytes)];
        if let Some(name) = slot.as_ref().filter(|n| n.as_bytes() == bytes) {
            return Ok(name.clone());
        }
        let name = AttrName::new(std::str::from_utf8(bytes)?);
        *slot = Some(name.clone());
        Ok(name)
    }
}

impl AttrName {
    /// The name `s`, shared from the intern table when it fits the caps.
    pub fn new(s: &str) -> Self {
        match intern(s) {
            Some(shared) => AttrName(Repr::Shared(shared)),
            None => AttrName(Repr::Owned(s.into())),
        }
    }

    /// The name `s` as a private copy, bypassing the table. Indistinguishable
    /// from [`AttrName::new`] except by [`AttrName::is_shared`].
    pub fn owned(s: impl Into<Box<str>>) -> Self {
        AttrName(Repr::Owned(s.into()))
    }

    /// Whether this name is the intern table's shared copy.
    pub fn is_shared(&self) -> bool {
        matches!(self.0, Repr::Shared(_))
    }

    /// The name's text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Shared(s) => s,
            Repr::Owned(s) => s,
        }
    }

    /// The name's text as a `String`.
    pub fn into_string(self) -> String {
        match self.0 {
            Repr::Shared(s) => s.to_string(),
            Repr::Owned(s) => s.into_string(),
        }
    }
}

impl Deref for AttrName {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for AttrName {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.as_str(), other.as_str());
        a.len() == b.len() && (a.as_ptr() == b.as_ptr() || a == b)
    }
}

impl Eq for AttrName {}

impl PartialEq<str> for AttrName {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl fmt::Debug for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        AttrName::new(s)
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> Self {
        match intern(&s) {
            Some(shared) => AttrName(Repr::Shared(shared)),
            None => AttrName(Repr::Owned(s.into_boxed_str())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_share_one_copy() {
        let a = AttrName::new("deptno");
        let b = AttrName::from("deptno".to_string());
        assert!(a.is_shared() && b.is_shared());
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn long_names_are_owned_and_still_equal() {
        let long = "x".repeat(MAX_INTERNED_LEN + 1);
        let a = AttrName::new(&long);
        assert!(!a.is_shared());
        assert_eq!(a, AttrName::owned(long.clone()));
        assert_eq!(a, *long.as_str());
    }

    #[test]
    fn form_is_invisible_to_equality() {
        assert_eq!(AttrName::new("sal"), AttrName::owned("sal"));
        assert_ne!(AttrName::new("sal"), AttrName::owned("sa"));
        assert_eq!(AttrName::owned("sal"), *"sal");
    }
}
