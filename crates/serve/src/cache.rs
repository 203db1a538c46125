//! Deterministic keyed LRU result cache.

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded least-recently-used cache with hit/miss accounting.
///
/// Recency is a monotonic logical tick bumped on every lookup and
/// insert; eviction scans for the minimum tick. Ticks are unique, so
/// the victim is unambiguous and the cache's behavior is a pure
/// function of the operation sequence — no wall-clock, no hasher-order
/// dependence. The scan is `O(len)`, which is the right trade for the
/// small result caches a serving tier keeps (tens to hundreds of
/// entries).
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    entries: HashMap<K, (V, u64)>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding at most `capacity` entries; `capacity == 0`
    /// disables caching (every lookup misses, inserts are dropped).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::with_capacity(capacity),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((value, tick)) => {
                *tick = self.tick;
                self.hits += 1;
                Some(value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the least recently used
    /// entry if the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // Unique ticks make the minimum unambiguous, so scan order
            // (and therefore the hasher) cannot affect the victim.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| k.clone())
                .expect("cache is non-empty when full");
            self.entries.remove(&victim);
        }
        self.entries.insert(key, (value, self.tick));
    }

    /// Drop every entry while preserving the hit/miss accounting and
    /// the recency clock — a fault-injection "cache wipe", not a
    /// statistics reset.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Lookups that found an entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let mut c: LruCache<u64, &str> = LruCache::new(4);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one");
        assert_eq!(c.get(&1), Some("one"));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u64, u64> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // 1 is now fresher than 2
        c.insert(3, 30); // evicts 2
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut c: LruCache<u64, u64> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh, not a third entry
        assert_eq!(c.entries.len(), 2);
        c.insert(3, 30); // evicts 2 (1 was refreshed later)
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn clear_wipes_entries_but_keeps_accounting() {
        let mut c: LruCache<u64, u64> = LruCache::new(4);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        c.clear();
        assert!(c.entries.is_empty());
        assert_eq!(c.get(&1), None, "wiped entries must miss");
        assert_eq!((c.hits(), c.misses()), (1, 1), "counters survive the wipe");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: LruCache<u64, u64> = LruCache::new(0);
        c.insert(1, 10);
        assert!(c.entries.is_empty());
        assert_eq!(c.get(&1), None);
        assert_eq!(c.misses(), 1);
    }
}
