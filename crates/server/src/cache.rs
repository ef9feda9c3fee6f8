//! The shared prepared-statement + plan cache.
//!
//! Keyed by `(normalized query text, compat mode, catalog schema epoch)`
//! — the three inputs that determine a lowered plan. The epoch component
//! is what makes a *shared* cache sound by construction: a schema change
//! advances the catalog's epoch, every subsequent lookup keys on the new
//! epoch, and the stale entries can never be hit again (they are purged
//! on the next insert). Layered under this, [`Prepared`] itself
//! revalidates its stamp on every execute, so even a plan handed out
//! just before a schema change re-lowers rather than running stale.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sqlpp::{CompatMode, Engine, Prepared};

/// Counters describing cache behaviour since server start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (parse/lower/optimize skipped).
    pub hits: u64,
    /// Lookups that had to prepare a fresh plan.
    pub misses: u64,
    /// Entries purged because their schema epoch fell behind the
    /// catalog's (each one a stale plan that was never served).
    pub invalidations: u64,
    /// Entries currently resident.
    pub size: usize,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    text: String,
    compat: CompatMode,
    epoch: u64,
}

/// A cached plan plus its last-touched tick — the recency order for LRU
/// eviction. Ticks come from one monotone counter shared by lookups and
/// inserts, so "smallest tick" is always "least recently used".
#[derive(Debug)]
struct Entry {
    plan: Arc<Prepared>,
    tick: u64,
}

/// A bounded, thread-shared plan cache (see module docs for the keying
/// invariant). Eviction is LRU: at capacity, the single least-recently
/// used entry makes room — a hot plan is never dropped just because an
/// unrelated query filled the cache.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    map: Mutex<HashMap<Key, Entry>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            map: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The next recency tick. Relaxed is fine: ticks only order entries
    /// against each other, and every use happens under the map lock.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Whitespace/comment-insensitive form of a query: its token texts
    /// joined by single spaces, so `SELECT  x\nFROM t` and
    /// `select x from t` — textually different, byte-identical token
    /// streams — share one cache entry. Keywords are case-normalized by
    /// the lexer's token text only when identical; we keep the source
    /// spelling, so normalization is conservative (never merges queries
    /// that could plan differently). Unlexable input is returned
    /// trimmed; it will miss the cache and fail in the parser with a
    /// full diagnostic.
    pub fn normalize(src: &str) -> String {
        match sqlpp_syntax::lex(src) {
            Ok(tokens) => {
                let mut out = String::with_capacity(src.len());
                for t in &tokens {
                    let text = &src[t.span.start..t.span.end];
                    if text.is_empty() {
                        continue; // EOF token
                    }
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(text);
                }
                out
            }
            Err(_) => src.trim().to_string(),
        }
    }

    /// The cached plan for `(text, compat)` under the catalog's *current*
    /// schema epoch, if resident. A hit can only return a plan whose
    /// stamp equals `epoch` — the key guarantees it.
    pub fn get(&self, text: &str, compat: CompatMode, epoch: u64) -> Option<Arc<Prepared>> {
        if self.capacity == 0 {
            return None;
        }
        let key = Key {
            text: text.to_string(),
            compat,
            epoch,
        };
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let found = map.get_mut(&key).map(|entry| {
            entry.tick = self.tick();
            Arc::clone(&entry.plan)
        });
        drop(map);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Prepares `text` on `engine` and caches it: the text entry to
    /// [`PlanCache::insert`] for callers that hold no AST.
    pub fn prepare_and_insert(
        &self,
        engine: &Engine,
        text: &str,
        compat: CompatMode,
    ) -> sqlpp::Result<Arc<Prepared>> {
        Ok(self.insert(text, compat, engine.prepare(text)?))
    }

    /// Caches a prepared plan under the epoch it was actually lowered
    /// against (its own stamp — not the epoch observed at lookup time —
    /// so key and plan can never disagree). Stale-epoch entries are
    /// purged on the way in.
    pub fn insert(&self, text: &str, compat: CompatMode, prepared: Prepared) -> Arc<Prepared> {
        let prepared = Arc::new(prepared);
        if self.capacity == 0 {
            return prepared;
        }
        let epoch = prepared.schema_epoch();
        let key = Key {
            text: text.to_string(),
            compat,
            epoch,
        };
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let before = map.len();
        map.retain(|k, _| k.epoch == epoch);
        let purged = before - map.len();
        if purged > 0 {
            self.invalidations
                .fetch_add(purged as u64, Ordering::Relaxed);
        }
        while map.len() >= self.capacity && !map.contains_key(&key) {
            // Full of same-epoch plans: evict the least recently used
            // one. A hot plan keeps its slot no matter how many distinct
            // queries pass through.
            let Some(lru) = map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            map.remove(&lru);
        }
        map.insert(
            key,
            Entry {
                plan: Arc::clone(&prepared),
                tick: self.tick(),
            },
        );
        prepared
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            size: self.map.lock().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let e = Engine::new();
        e.register("t", sqlpp_value::bag![1i64, 2i64, 3i64]);
        e
    }

    #[test]
    fn normalization_collapses_whitespace_but_not_structure() {
        let a = PlanCache::normalize("SELECT   VALUE t.x\n\tFROM t AS t");
        let b = PlanCache::normalize("SELECT VALUE t.x FROM t AS t");
        assert_eq!(a, b);
        // Different literals stay different queries.
        assert_ne!(
            PlanCache::normalize("SELECT VALUE 1"),
            PlanCache::normalize("SELECT VALUE 2")
        );
        // Strings keep their exact contents (whitespace inside matters).
        assert_ne!(
            PlanCache::normalize("SELECT VALUE 'a  b'"),
            PlanCache::normalize("SELECT VALUE 'a b'")
        );
    }

    #[test]
    fn hit_after_miss_and_epoch_invalidation() {
        let engine = engine();
        let cache = PlanCache::new(8);
        let compat = engine.config().compat;
        let text = PlanCache::normalize("SELECT VALUE t FROM t AS t");
        let epoch = engine.catalog().schema_epoch();

        assert!(cache.get(&text, compat, epoch).is_none());
        let p = cache.prepare_and_insert(&engine, &text, compat).unwrap();
        assert!(Arc::ptr_eq(&cache.get(&text, compat, epoch).unwrap(), &p));
        assert_eq!(cache.stats().hits, 1);

        // A schema change moves the epoch: the old entry is unreachable
        // and gets purged by the next insert.
        engine
            .catalog()
            .set_schema("t", sqlpp_schema::SqlppType::Any);
        let epoch2 = engine.catalog().schema_epoch();
        assert!(epoch2 > epoch);
        assert!(cache.get(&text, compat, epoch2).is_none());
        cache.prepare_and_insert(&engine, &text, compat).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1, "stale entry purged");
        assert_eq!(stats.size, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let engine = engine();
        let cache = PlanCache::new(0);
        let compat = engine.config().compat;
        let text = PlanCache::normalize("SELECT VALUE t FROM t AS t");
        cache.prepare_and_insert(&engine, &text, compat).unwrap();
        assert!(cache
            .get(&text, compat, engine.catalog().schema_epoch())
            .is_none());
        assert_eq!(cache.stats().size, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used_entry_only() {
        let engine = engine();
        let cache = PlanCache::new(2);
        let compat = engine.config().compat;
        let epoch = engine.catalog().schema_epoch();
        let q1 = PlanCache::normalize("SELECT VALUE t FROM t AS t");
        let q2 = PlanCache::normalize("SELECT VALUE t + 1 FROM t AS t");
        let q3 = PlanCache::normalize("SELECT VALUE t + 2 FROM t AS t");

        cache.prepare_and_insert(&engine, &q1, compat).unwrap();
        cache.prepare_and_insert(&engine, &q2, compat).unwrap();
        // Touch q1: it is now more recently used than q2.
        assert!(cache.get(&q1, compat, epoch).is_some());

        // Inserting a third plan at capacity 2 must evict q2 (the LRU),
        // not q1, and must not clear the whole cache.
        cache.prepare_and_insert(&engine, &q3, compat).unwrap();
        assert_eq!(cache.stats().size, 2);
        assert!(cache.get(&q1, compat, epoch).is_some(), "hot entry kept");
        assert!(cache.get(&q3, compat, epoch).is_some(), "new entry kept");
        assert!(cache.get(&q2, compat, epoch).is_none(), "LRU evicted");

        // Re-inserting an already-resident key at capacity evicts
        // nothing: it just refreshes the entry in place.
        cache.prepare_and_insert(&engine, &q1, compat).unwrap();
        assert_eq!(cache.stats().size, 2);
        assert!(cache.get(&q3, compat, epoch).is_some());
    }

    #[test]
    fn results_still_correct_through_cache() {
        let engine = engine();
        let cache = PlanCache::new(8);
        let compat = engine.config().compat;
        let text = PlanCache::normalize("SELECT VALUE t FROM t AS t WHERE t >= 2");
        let p = cache.prepare_and_insert(&engine, &text, compat).unwrap();
        let r = p.execute(&engine).unwrap();
        assert_eq!(r.canonical().to_string(), "{{2, 3}}");
        let again = cache
            .get(&text, compat, engine.catalog().schema_epoch())
            .unwrap();
        let r2 = again.execute(&engine).unwrap();
        assert_eq!(r2.canonical().to_string(), "{{2, 3}}");
    }
}
