//! Sharded, counted LRU memo cache for derived analysis artifacts.
//!
//! Keys carry a *scope hash* — the content hash of the profile (or
//! profile set) the artifact was derived from — alongside the query, so
//! a changed input can never serve a stale artifact: the new scope hash
//! simply misses. Eviction is least-recently-used per shard, tracked
//! with a logical clock rather than wall time (deterministic under
//! test). Hit/miss/insertion/eviction counters are atomic so concurrent
//! readers do not contend on the shard locks just to account.

use numa_obs::{trace, Counter, Registry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of independently locked shards. A power of two so the shard
/// index is a mask of the key hash.
const SHARDS: usize = 8;

/// Counter snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
}

struct Entry<V> {
    stamp: u64,
    value: Arc<V>,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    clock: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            clock: 0,
        }
    }
}

/// Lock one shard. A poisoned lock is taken as it is (DESIGN.md,
/// "Concurrency model").
fn lock<K, V>(shard: &Mutex<Shard<K, V>>) -> MutexGuard<'_, Shard<K, V>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cache proper, generic over key and artifact type.
pub struct MemoCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_capacity: usize,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

impl<K: Hash + Eq + Clone, V> MemoCache<K, V> {
    /// A cache holding at most ~`capacity` artifacts (rounded up to a
    /// multiple of the shard count; minimum one entry per shard).
    pub fn new(capacity: usize) -> Self {
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Adopt the cache counters into `registry` under the
    /// `numa_store_cache_` prefix (clones of the hot-path handles).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.counter(
            "numa_store_cache_hits_total",
            "Memo-cache lookups served from a resident artifact.",
            &[],
            self.hits.clone(),
        );
        registry.counter(
            "numa_store_cache_misses_total",
            "Memo-cache lookups that had to build the artifact.",
            &[],
            self.misses.clone(),
        );
        registry.counter(
            "numa_store_cache_insertions_total",
            "Artifacts inserted into the memo cache.",
            &[],
            self.insertions.clone(),
        );
        registry.counter(
            "numa_store_cache_evictions_total",
            "Artifacts evicted from the memo cache (LRU).",
            &[],
            self.evictions.clone(),
        );
    }

    /// Lock the shard `key` hashes to.
    fn shard_of(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        lock(&self.shards[(h.finish() as usize) & (SHARDS - 1)])
    }

    /// Fetch `key` if it is resident: a hit is counted and freshens the
    /// entry; a miss counts nothing, so a caller that goes on to
    /// [`MemoCache::get_or_try_insert`] still records one outcome per
    /// lookup.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut s = self.shard_of(key);
        s.clock += 1;
        let clock = s.clock;
        let e = s.map.get_mut(key)?;
        e.stamp = clock;
        self.hits.inc();
        trace::note_cache(true);
        Some(Arc::clone(&e.value))
    }

    /// Fetch `key`, computing the artifact with `build` on a miss. The
    /// shard lock is *not* held while `build` runs — expensive analyses
    /// on different keys of the same shard proceed concurrently; the
    /// rare duplicated build on a race loses only work, never coherence.
    pub fn get_or_try_insert<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(hit) = self.get(&key) {
            return Ok(hit);
        }
        self.misses.inc();
        trace::note_cache(false);
        let value = Arc::new(build()?);
        let mut s = self.shard_of(&key);
        s.clock += 1;
        let stamp = s.clock;
        if s.map.len() >= self.per_shard_capacity && !s.map.contains_key(&key) {
            // Evict the least-recently-used entry of this shard. A linear
            // scan is fine: shards are small (capacity / SHARDS entries).
            if let Some(victim) = s
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                s.map.remove(&victim);
                self.evictions.inc();
            }
        }
        let value_out = Arc::clone(&value);
        if s.map.insert(key, Entry { stamp, value }).is_none() {
            self.insertions.inc();
        }
        Ok(value_out)
    }

    /// Number of currently resident artifacts.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident artifact (counters are preserved).
    pub fn clear(&self) {
        for s in &self.shards {
            lock(s).map.clear();
        }
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_fetch_hits() {
        let cache: MemoCache<u32, String> = MemoCache::new(16);
        let v1 = cache
            .get_or_try_insert::<()>(1, || Ok("one".to_string()))
            .unwrap();
        let v2 = cache
            .get_or_try_insert::<()>(1, || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&v1, &v2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache: MemoCache<u32, String> = MemoCache::new(16);
        assert!(cache.get_or_try_insert(7, || Err("boom")).is_err());
        let v = cache
            .get_or_try_insert::<&str>(7, || Ok("recovered".to_string()))
            .unwrap();
        assert_eq!(*v, "recovered");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn capacity_overflow_evicts_lru() {
        // Capacity SHARDS → one entry per shard; two keys in the same
        // shard force an eviction of the older one.
        let cache: MemoCache<u32, u32> = MemoCache::new(SHARDS);
        for k in 0..64u32 {
            cache.get_or_try_insert::<()>(k, || Ok(k)).unwrap();
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "expected evictions, got {s:?}");
        assert!(cache.len() <= SHARDS);
    }

    #[test]
    fn recently_used_survives_eviction() {
        let cache: MemoCache<u32, u32> = MemoCache::new(SHARDS * 2);
        // Fill, then keep touching key 0 while inserting fresh keys.
        for k in 0..16u32 {
            cache.get_or_try_insert::<()>(k, || Ok(k)).unwrap();
        }
        for k in 16..200u32 {
            cache.get_or_try_insert::<()>(0, || Ok(0)).unwrap();
            cache.get_or_try_insert::<()>(k, || Ok(k)).unwrap();
        }
        let before = cache.stats();
        cache.get_or_try_insert::<()>(0, || Ok(0)).unwrap();
        assert_eq!(cache.stats().hits, before.hits + 1, "key 0 was evicted");
    }
}
