//! A small sharded memoization cache for cross-sweep reuse.
//!
//! Long-lived callers evaluate identical subproblems again and again: the
//! exact engines need the same `ServedTable` for one network at many
//! request rates (`mbus_exact::memo`), and the HTTP service answers the
//! same query many times (its response cache). [`MemoCache`] lets them
//! share results across calls (and across worker threads) without taking
//! a dependency or holding a lock while computing.
//!
//! Properties:
//!
//! * **Sharded `RwLock`s** — lookups from many threads mostly take read
//!   locks on different shards, so a sweep hammering the cache does not
//!   serialize on one mutex.
//! * **Lock-free compute** — `get_or_insert_with` drops every lock before
//!   invoking the compute closure. Nested lookups (a cached value whose
//!   computation consults the same cache) therefore cannot deadlock. The
//!   cost is that two threads racing on a cold key may both compute it; the
//!   first insert wins and later racers adopt the winner's `Arc`, so all
//!   callers observe one canonical value. Debug builds enforce the contract
//!   at runtime: a thread-local `reentry` token tracks which shard locks
//!   the current thread holds, and re-entering a held shard panics
//!   immediately instead of deadlocking. (`mbus-lint`'s `lock_discipline`
//!   pass checks the same invariant statically.)
//! * **Bounded** — each shard holds at most `capacity_per_shard` entries;
//!   when a shard is full, new values are returned to the caller but not
//!   retained. No eviction machinery, no unbounded growth.
//! * **Poison-tolerant** — a panicking writer elsewhere must not take the
//!   whole analysis down, so poisoned locks are recovered with
//!   `PoisonError::into_inner` instead of propagating the panic.
//! * **Observable** — hit/miss/insert/len counters are relaxed atomics, so
//!   a [`CacheStats`] snapshot (consumed by `mbus-server`'s `/metrics`)
//!   costs four loads and zero lock traffic.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// One shard: a lock around its slice of the key space.
type Shard<K, V> = RwLock<HashMap<K, Arc<V>>>;

/// Debug-build tripwire pinning the module's "compute runs unlocked"
/// contract: every shard-lock acquisition registers a thread-local
/// `(cache, shard)` token for the guard's lifetime, and acquiring a token
/// for a pair this thread already holds panics immediately — which is
/// exactly what would happen if a future refactor made
/// [`MemoCache::get_or_insert_with`] invoke its compute closure while the
/// shard lock is live. Release builds compile all of this out.
#[cfg(debug_assertions)]
mod reentry {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Distinguishes caches so nested lookups across *different* caches
    /// (explicitly supported) never collide on a shard index.
    static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// `(cache id, shard index)` pairs whose lock this thread holds.
        static HELD: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn next_cache_id() -> u64 {
        NEXT_CACHE_ID.fetch_add(1, Ordering::SeqCst)
    }

    /// RAII registration of one held shard lock; construction panics when
    /// the pair is already registered on this thread.
    pub(super) struct ShardToken {
        cache: u64,
        shard: usize,
    }

    impl ShardToken {
        pub(super) fn enter(cache: u64, shard: usize) -> Self {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if held.contains(&(cache, shard)) {
                    // lint:allow(no_panic, debug-only invariant tripwire; compiled out of release builds)
                    panic!(
                        "MemoCache shard {shard} re-entered while its lock is \
                         held on this thread; compute closures must run unlocked"
                    );
                }
                held.push((cache, shard));
            });
            ShardToken { cache, shard }
        }
    }

    impl Drop for ShardToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                held.borrow_mut()
                    .retain(|pair| *pair != (self.cache, self.shard));
            });
        }
    }
}

/// A point-in-time snapshot of a [`MemoCache`]'s counters.
///
/// All fields come from relaxed atomic loads — taking a snapshot never
/// contends with cache users, so it is safe to call from a metrics endpoint
/// on every scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (racing threads each count).
    pub misses: u64,
    /// Values actually retained (at-capacity computes are returned to the
    /// caller but not inserted, so `inserts <= misses`).
    pub inserts: u64,
    /// Entries currently retained across all shards.
    pub len: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache, in `[0, 1]`
    /// (`0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded, bounded memoization cache mapping `K` to `Arc<V>`.
///
/// See the [module docs](self) for the concurrency contract.
#[derive(Debug)]
pub struct MemoCache<K, V> {
    shards: Box<[Shard<K, V>]>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    retained: AtomicU64,
    #[cfg(debug_assertions)]
    debug_id: u64,
}

impl<K: Eq + Hash, V> MemoCache<K, V> {
    /// Creates a cache with `shards` independent shards (clamped to at least
    /// one) of at most `capacity_per_shard` entries each.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1);
        MemoCache {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            debug_id: reentry::next_cache_id(),
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let index = hasher.finish() % u64::try_from(self.shards.len()).unwrap_or(1);
        // The modulus is a live in-range usize, so the index converts back
        // losslessly even on 32-bit targets.
        usize::try_from(index).unwrap_or(0)
    }

    /// Registers `index` as lock-held on this thread for the token's
    /// lifetime (debug builds only); see [`reentry`].
    #[cfg(debug_assertions)]
    fn shard_token(&self, index: usize) -> reentry::ShardToken {
        reentry::ShardToken::enter(self.debug_id, index)
    }

    /// Release builds carry no re-entrancy bookkeeping.
    #[cfg(not(debug_assertions))]
    fn shard_token(&self, _index: usize) {}

    /// Returns the cached value for `key`, or computes, caches, and returns
    /// it. `compute` runs with **no lock held**, so it may itself consult
    /// this (or any other) cache.
    ///
    /// If two threads race on a cold key, both compute; the first to insert
    /// wins and both receive the winning `Arc`.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        if let Some(found) = self.get(&key) {
            return found;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(compute());
        let index = self.shard_index(&key);
        let _held = self.shard_token(index);
        let mut map = self.shards[index]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(winner) = map.get(&key) {
            return Arc::clone(winner);
        }
        if map.len() < self.capacity_per_shard {
            map.insert(key, Arc::clone(&fresh));
            self.inserts.fetch_add(1, Ordering::Relaxed);
            self.retained.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Returns the cached value for `key` without computing anything.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let index = self.shard_index(key);
        let _held = self.shard_token(index);
        let map = self.shards[index]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let found = map.get(key).map(Arc::clone);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Number of retained entries across all shards.
    pub fn len(&self) -> usize {
        let mut total = 0;
        for (index, shard) in self.shards.iter().enumerate() {
            let _held = self.shard_token(index);
            total += shard.read().unwrap_or_else(PoisonError::into_inner).len();
        }
        total
    }

    /// Whether the cache currently retains no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute (racing threads each count).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshot of every counter via relaxed atomic loads — no shard lock
    /// is taken, so metrics scrapes never contend with cache users.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            len: self.retained.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_warm() {
        let cache: MemoCache<u32, u32> = MemoCache::new(4, 16);
        assert!(cache.is_empty());
        let a = cache.get_or_insert_with(7, || 49);
        assert_eq!(*a, 49);
        assert!(!cache.is_empty());
        assert_eq!(cache.misses(), 1);
        // Warm hit returns the same Arc and never re-computes.
        let b = cache.get_or_insert_with(7, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bounds_retention_but_not_results() {
        let cache: MemoCache<u32, u32> = MemoCache::new(1, 2);
        for k in 0..10 {
            assert_eq!(*cache.get_or_insert_with(k, move || k * 2), k * 2);
        }
        assert_eq!(cache.len(), 2, "shard retains at most its capacity");
        // Overflow keys still produce correct (uncached) values.
        assert_eq!(*cache.get_or_insert_with(9, || 18), 18);
    }

    #[test]
    fn stats_snapshot_tracks_all_counters() {
        let cache: MemoCache<u32, u32> = MemoCache::new(1, 2);
        for k in 0..4 {
            cache.get_or_insert_with(k, move || k);
        }
        cache.get_or_insert_with(0, || panic!("warm"));
        cache.get_or_insert_with(1, || panic!("warm"));
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.inserts, 2, "capacity-overflow computes not stored");
        assert_eq!(stats.len, 2);
        assert_eq!(stats.len, cache.len() as u64, "atomic gauge matches scan");
        assert!((stats.hit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn nested_lookup_on_same_cache_does_not_deadlock() {
        let cache: MemoCache<u32, u32> = MemoCache::new(1, 16);
        // Key 1's computation consults key 0 on the same (single-shard)
        // cache; with a held lock this would self-deadlock. The debug
        // re-entrancy guard must stay silent here: compute runs unlocked.
        let v = cache.get_or_insert_with(1, || *cache.get_or_insert_with(0, || 5) * 2);
        assert_eq!(*v, 10);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-entered while its lock is held")]
    fn debug_guard_trips_when_a_lookup_runs_under_the_shard_lock() {
        let cache: MemoCache<u32, u32> = MemoCache::new(1, 16);
        // Simulate the regression the guard exists to catch: hold shard 0
        // exactly the way `get_or_insert_with` does (token, then write
        // lock) and perform a lookup that hashes to the same shard. The
        // token check fires before `get` touches the RwLock, so this
        // panics instead of deadlocking.
        let _held = cache.shard_token(0);
        let _guard = cache.shards[0]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        cache.get(&7);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn debug_guard_tokens_unregister_on_drop() {
        let cache: MemoCache<u32, u32> = MemoCache::new(1, 16);
        drop(cache.shard_token(0));
        // Re-entering after the token dropped is fine.
        let _held = cache.shard_token(0);
    }
}
