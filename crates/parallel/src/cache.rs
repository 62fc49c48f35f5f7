//! A sharded concurrent memo map with hit/miss/eviction counters.
//!
//! The memo caches of the compile pipeline (per-tensor shared-memory
//! finishing, whole-candidate cost estimates, bank-conflict charges,
//! simulator index tables) and the kernel-artifact cache's memory front are
//! `ShardedMap`s, shared by every thread that reaches them. Every cached
//! value is a *pure function of its key*, so the maps only need to be safe
//! and cheap under concurrency — a racing recomputation returns a
//! bit-identical value and either insert may win without affecting results.
//! Keys are spread over independently locked shards so concurrent requests
//! rarely contend.
//!
//! Growth can be bounded with [`ShardedMap::bounded`]: when an insert would
//! push a shard past its per-shard capacity the shard is cleared (simple
//! wholesale eviction — the workloads re-warm caches quickly and the values
//! are recomputable), and the eviction is counted in [`CacheStats`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Counters describing how a cache behaved: served lookups, recomputations
/// and evicted entries. Snapshot via [`ShardedMap::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed (and typically triggered a recomputation).
    pub misses: u64,
    /// Entries dropped by capacity eviction.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum of two snapshots (entries added too).
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            entries: self.entries + other.entries,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate), {} entries, {} evicted",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.evictions
        )
    }
}

/// Number of shards; a power of two so shard selection is a mask.
const SHARDS: usize = 16;

/// A concurrent hash map sharded over independently locked segments.
///
/// Values are returned by clone, so `V` is usually cheap to clone (a small
/// struct or an `Arc`). All operations take `&self`.
///
/// ```
/// use hexcute_parallel::cache::ShardedMap;
///
/// let memo: ShardedMap<u64, u64> = ShardedMap::new();
/// assert_eq!(memo.get_or_insert_with(6, || 720), 720); // computed
/// assert_eq!(memo.get_or_insert_with(6, || 999), 720); // served from cache
/// let stats = memo.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
/// ```
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
    /// Per-shard capacity; `usize::MAX` means unbounded.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries: usize = self
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).len())
            .sum();
        f.debug_struct("ShardedMap")
            .field("entries", &entries)
            .field("shards", &SHARDS)
            .field(
                "capacity",
                &if self.shard_capacity == usize::MAX {
                    None
                } else {
                    Some(self.shard_capacity * SHARDS)
                },
            )
            .finish()
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V: Clone> ShardedMap<K, V> {
    /// An unbounded map.
    pub fn new() -> Self {
        Self::with_shard_capacity(usize::MAX)
    }

    /// A map evicting once any shard would exceed `capacity / SHARDS`
    /// entries (so `capacity` approximates the whole-map bound). Eviction is
    /// wholesale per shard; see the module docs.
    pub fn bounded(capacity: usize) -> Self {
        Self::with_shard_capacity((capacity / SHARDS).max(1))
    }

    fn with_shard_capacity(shard_capacity: usize) -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (SHARDS - 1)]
    }

    /// Returns a clone of the cached value, counting the hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let hit = self
            .shard(key)
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(key)
            .cloned();
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Inserts (evicting the shard first if it is at capacity). Does not
    /// touch the hit/miss counters.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(&key).write().unwrap_or_else(|p| p.into_inner());
        if shard.len() >= self.shard_capacity && !shard.contains_key(&key) {
            self.evictions
                .fetch_add(shard.len() as u64, Ordering::Relaxed);
            shard.clear();
        }
        shard.insert(key, value);
    }

    /// The cached value for `key`, computing and inserting it on a miss.
    /// `compute` runs outside the shard lock, so concurrent misses on one
    /// key may compute redundantly; values are pure functions of the key, so
    /// whichever insert wins is bit-identical.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: K, compute: F) -> V {
        if let Some(hit) = self.get(&key) {
            return hit;
        }
        let value = compute();
        self.insert(key, value.clone());
        value
    }

    /// The cached value for `key`, computing it **under the shard write
    /// lock** on a miss: one lock acquisition and one `HashMap` probe total,
    /// versus up to three probes (read-miss, recheck, insert) for
    /// [`ShardedMap::get_or_insert_with`], and no redundant concurrent
    /// recomputation. Only for *cheap, non-reentrant* `compute` closures: a
    /// closure that re-enters this map (any key in the same shard) or blocks
    /// on work that does would deadlock, and an expensive closure would
    /// serialize every concurrent access to the shard.
    pub fn probe_or_insert_with<F: FnOnce() -> V>(&self, key: K, compute: F) -> V {
        let mut shard = self.shard(&key).write().unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = shard.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if shard.len() >= self.shard_capacity {
            self.evictions
                .fetch_add(shard.len() as u64, Ordering::Relaxed);
            shard.clear();
        }
        let value = compute();
        shard.insert(key, value.clone());
        value
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (does not reset the counters).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().unwrap_or_else(|p| p.into_inner()).clear();
        }
    }

    /// A snapshot of the counters plus the current entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_insert_counts_hits_and_misses() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        assert_eq!(map.get_or_insert_with(1, || 10), 10);
        assert_eq!(map.get_or_insert_with(1, || 99), 10);
        assert_eq!(map.get(&2), None);
        let stats = map.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn probe_or_insert_is_a_single_probe_memo() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        assert_eq!(map.probe_or_insert_with(5, || 50), 50);
        assert_eq!(map.probe_or_insert_with(5, || 99), 50);
        let stats = map.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        // Bounded maps still evict on the single-probe path.
        let bounded: ShardedMap<u64, u64> = ShardedMap::bounded(16);
        for k in 0..1000 {
            let _ = bounded.probe_or_insert_with(k, || k);
        }
        assert!(bounded.stats().evictions > 0);
        assert_eq!(bounded.probe_or_insert_with(7, || 70), 70);
    }

    #[test]
    fn bounded_map_evicts_and_counts() {
        let map: ShardedMap<u64, u64> = ShardedMap::bounded(16);
        for k in 0..1000 {
            map.insert(k, k);
        }
        let stats = map.stats();
        assert!(stats.entries <= 16 + SHARDS, "entries {}", stats.entries);
        assert!(stats.evictions > 0);
        // Values remain correct after eviction churn.
        map.insert(7, 70);
        assert_eq!(map.get(&7), Some(70));
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let map: ShardedMap<usize, usize> = ShardedMap::new();
        let out = crate::par_map_with_workers(
            (0..512usize).collect::<Vec<_>>(),
            |i| map.get_or_insert_with(i % 64, || (i % 64) * 3),
            4,
        );
        for (i, v) in out.into_iter().enumerate() {
            assert_eq!(v, (i % 64) * 3);
        }
        assert_eq!(map.len(), 64);
    }

    #[test]
    fn clear_and_merge() {
        let map: ShardedMap<u8, u8> = ShardedMap::new();
        map.insert(1, 1);
        assert!(!map.is_empty());
        map.clear();
        assert!(map.is_empty());
        let a = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            entries: 4,
        };
        let b = a.merged(&a);
        assert_eq!(b.hits, 2);
        assert_eq!(b.entries, 8);
        assert!(format!("{a}").contains("hit rate"));
    }
}
