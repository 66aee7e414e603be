//! The bounded, sharded memo caches behind
//! [`CombinedModel`](crate::assignment::CombinedModel): co-run
//! equilibria, and the die powers computed from them.
//!
//! The original memo cache was a single `Mutex<HashMap<..>>`: correct,
//! but it grew without bound over a long candidate sweep and serialized
//! every reader behind one lock. This replacement bounds memory with a
//! per-shard LRU ([`mathkit::lru`]) and spreads contention over several
//! independently locked shards. Both memos use that one layout.
//!
//! Two properties the rest of the model relies on:
//!
//! - **Determinism.** The equilibrium key is the *canonically ordered*
//!   list of co-runner content fingerprints, and the shard is a pure
//!   function of the key, so permuted co-runner sets always land on the
//!   same entry. Eviction only ever forces a re-solve, and the solvers
//!   work in the same canonical order whether or not the cache is
//!   present — so a hit, a miss, and a post-eviction re-solve are all
//!   bit-identical. A die entry holds the exact `f64` a fresh Eq. 10/11
//!   walk returns for the die's ordered queues, so it is bit-identical
//!   too.
//! - **Bounded memory.** `entries() <= capacity()` at every instant, for
//!   each memo; the total capacity is split evenly across shards and
//!   each shard evicts independently.

use crate::equilibrium::Equilibrium;
use mathkit::lru::LruCache;
use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of independently locked shards (a power of two).
const SHARDS: usize = 8;

/// Default total capacity (entries) of each memo: equilibria and dies.
pub const DEFAULT_CAPACITY: usize = 4096;

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EqCacheStats {
    /// Lookups that found a memoized equilibrium.
    pub hits: u64,
    /// Fresh solves: lookups that had to solve, plus the sets a batch
    /// prestage solved ahead of the walk that then hits them.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Entries currently memoized (across all shards).
    pub entries: usize,
    /// Total configured capacity (0 = caching disabled).
    pub capacity: usize,
    /// Die-power lookups answered from the die memo (no Eq. 10 walk).
    /// Counted apart from `hits`: a die hit makes no equilibrium lookup.
    pub die_hits: u64,
    /// Die-power lookups that walked the die's combinations.
    pub die_misses: u64,
    /// Die powers currently memoized (bounded by `capacity` as well).
    pub die_entries: usize,
}

/// `SHARDS` independently locked LRU maps over word-list keys, the shard
/// picked by [`shard_of`]: the one layout both memos share.
#[derive(Debug)]
struct Shards<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
}

impl<K: Borrow<[u64]> + Hash + Eq + Clone, V> Shards<K, V> {
    fn new(per_shard: usize) -> Self {
        Shards { shards: (0..SHARDS).map(|_| Mutex::new(LruCache::new(per_shard))).collect() }
    }

    fn lock(&self, key: &[u64]) -> MutexGuard<'_, LruCache<K, V>> {
        lock(&self.shards[shard_of(key)])
    }

    fn all(&self) -> impl Iterator<Item = MutexGuard<'_, LruCache<K, V>>> {
        self.shards.iter().map(lock)
    }

    /// `(hits, misses, evictions, entries)` summed over the shards.
    fn counters(&self) -> (u64, u64, u64, usize) {
        self.all().fold((0, 0, 0, 0), |(h, m, e, n), s| {
            (h + s.hits(), m + s.misses(), e + s.evictions(), n + s.len())
        })
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A sharded, capacity-bounded LRU from canonical fingerprint keys to
/// canonical-order [`Equilibrium`] solutions, plus the die-power memo
/// under the same bound.
///
/// A die key is a 128-bit digest of the die's word list (see
/// `CombinedModel`), so a die entry is a few dozen bytes with no heap
/// allocation of its own.
#[derive(Debug)]
pub struct EquilibriumCache {
    eqs: Shards<Vec<u64>, Equilibrium>,
    dies: Shards<[u64; 2], f64>,
    capacity: usize,
    /// Fresh solves whose diagnostics recorded a fallback or degraded
    /// result (tracked here because the cache sees every solve).
    fallback_solves: AtomicU64,
    /// Sets solved by a batch prestage without a counted lookup.
    prestaged_solves: AtomicU64,
}

/// Mixes the canonical fingerprint list into a shard index. SplitMix64
/// finalization over the folded fingerprints: cheap and well-spread, and
/// a pure function of the key so permutation-equivalent co-runner sets
/// always pick the same shard.
fn shard_of(key: &[u64]) -> usize {
    let mut z = 0x9E37_79B9_7F4A_7C15u64;
    for &fp in key {
        z = z.wrapping_add(fp).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
    }
    (z as usize) & (SHARDS - 1)
}

impl EquilibriumCache {
    /// A cache bounded at `capacity` total entries per memo, rounded up
    /// to a multiple of the shard count so every shard gets the same
    /// bound (the effective bound is [`EquilibriumCache::capacity`]).
    /// Capacity 0 disables memoization entirely (every lookup misses,
    /// nothing is stored).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS);
        EquilibriumCache {
            eqs: Shards::new(per_shard),
            dies: Shards::new(per_shard),
            capacity: per_shard * SHARDS,
            fallback_solves: AtomicU64::new(0),
            prestaged_solves: AtomicU64::new(0),
        }
    }

    /// The total capacity bound (entries).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up the canonical key, promoting the entry on a hit.
    pub fn get(&self, key: &[u64]) -> Option<Equilibrium> {
        self.eqs.lock(key).get(key).cloned()
    }

    /// Looks up the canonical key *without* promoting it — a stale read
    /// for the degraded path, which must not distort the recency order
    /// the healthy path's eviction decisions rely on.
    pub fn peek(&self, key: &[u64]) -> Option<Equilibrium> {
        self.eqs.lock(key).peek(key).cloned()
    }

    /// Memoizes a canonical-order solve under its canonical key.
    pub fn insert(&self, key: Vec<u64>, eq: Equilibrium) {
        self.eqs.lock(&key).insert(key, eq);
    }

    /// Looks up a die key, promoting the entry on a hit.
    pub(crate) fn get_die(&self, key: &[u64; 2]) -> Option<f64> {
        self.dies.lock(key).get(key).copied()
    }

    /// Looks up a die key without promoting it or moving a counter (the
    /// batch prestage's "already known?" test).
    pub(crate) fn peek_die(&self, key: &[u64; 2]) -> Option<f64> {
        self.dies.lock(key).peek(key).copied()
    }

    /// Memoizes one die's power under its key.
    pub(crate) fn insert_die(&self, key: [u64; 2], watts: f64) {
        self.dies.lock(&key).insert(key, watts);
    }

    /// Records that a fresh solve fell back from its solver (or came back
    /// degraded).
    pub fn note_fallback(&self) {
        self.fallback_solves.fetch_add(1, Ordering::Relaxed);
    }

    /// Fresh solves that fell back from their solver.
    pub fn fallback_solves(&self) -> u64 {
        self.fallback_solves.load(Ordering::Relaxed)
    }

    /// Records a set a batch prestage solved after peeking it absent: a
    /// miss no lookup counted.
    pub(crate) fn note_prestaged_solve(&self) {
        self.prestaged_solves.fetch_add(1, Ordering::Relaxed);
    }

    /// Equilibria currently memoized.
    pub fn entries(&self) -> usize {
        self.eqs.all().map(|s| s.len()).sum()
    }

    /// Drops every memoized equilibrium and die power (counters are
    /// kept).
    pub fn clear(&self) {
        self.eqs.all().for_each(|mut s| s.clear());
        self.dies.all().for_each(|mut s| s.clear());
    }

    /// A snapshot of the aggregated counters.
    pub fn stats(&self) -> EqCacheStats {
        let (hits, misses, evictions, entries) = self.eqs.counters();
        let (die_hits, die_misses, _, die_entries) = self.dies.counters();
        EqCacheStats {
            hits,
            misses: misses + self.prestaged_solves.load(Ordering::Relaxed),
            evictions,
            entries,
            capacity: self.capacity,
            die_hits,
            die_misses,
            die_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::{SolveDiagnostics, SolveMethod};

    fn dummy_eq(tag: f64) -> Equilibrium {
        Equilibrium {
            sizes: vec![tag],
            mpas: vec![tag],
            spis: vec![tag],
            apss: vec![tag],
            window: tag,
            cache_filled: true,
            diagnostics: SolveDiagnostics {
                method: SolveMethod::ClosedForm,
                iterations: 0,
                residual: 0.0,
                fallbacks: Vec::new(),
                degraded: false,
            },
        }
    }

    #[test]
    fn shard_is_a_pure_function_of_the_key() {
        let key = vec![1u64, 2, 3];
        assert_eq!(shard_of(&key), shard_of(&key.clone()));
        assert!(shard_of(&key) < SHARDS);
    }

    #[test]
    fn bounded_under_distinct_keys() {
        let cache = EquilibriumCache::new(16);
        for i in 0..500u64 {
            cache.insert(vec![i, i + 1], dummy_eq(i as f64));
            assert!(cache.entries() <= cache.capacity(), "at i = {i}");
        }
        let st = cache.stats();
        assert!(st.evictions > 0);
        assert!(st.entries <= st.capacity);
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let cache = EquilibriumCache::new(0);
        cache.insert(vec![1], dummy_eq(1.0));
        assert_eq!(cache.entries(), 0);
        assert!(cache.get(&[1]).is_none());
    }

    #[test]
    fn hit_returns_the_stored_value() {
        let cache = EquilibriumCache::new(8);
        cache.insert(vec![7, 8], dummy_eq(3.5));
        let got = cache.get(&[7, 8]).expect("stored entry");
        assert_eq!(got.window.to_bits(), 3.5f64.to_bits());
        assert!(cache.get(&[8, 7]).is_none(), "keys are exact, not set-equal");
        let st = cache.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn peek_is_stale_no_promotion_no_counters() {
        let cache = EquilibriumCache::new(8);
        cache.insert(vec![7, 8], dummy_eq(3.5));
        let got = cache.peek(&[7, 8]).expect("stored entry");
        assert_eq!(got.window.to_bits(), 3.5f64.to_bits());
        assert!(cache.peek(&[9, 9]).is_none());
        let st = cache.stats();
        assert_eq!(st.hits, 0, "peek must not count as a hit");
        assert_eq!(st.misses, 0, "peek must not count as a miss");
    }

    #[test]
    fn clear_and_fallback_counter() {
        let cache = EquilibriumCache::new(8);
        cache.insert(vec![1], dummy_eq(1.0));
        cache.note_fallback();
        cache.clear();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.fallback_solves(), 1);
    }

    #[test]
    fn die_memo_is_bounded_counted_apart_and_cleared_with_the_equilibria() {
        let cache = EquilibriumCache::new(16);
        for i in 0..500u64 {
            cache.insert_die([i, i + 1], i as f64);
            assert!(cache.stats().die_entries <= cache.capacity(), "at i = {i}");
        }
        assert_eq!(cache.get_die(&[499, 500]), Some(499.0));
        assert_eq!(cache.get_die(&[500, 499]), None);
        assert_eq!(cache.peek_die(&[499, 500]), Some(499.0));
        let st = cache.stats();
        assert_eq!((st.die_hits, st.die_misses), (1, 1), "peek moves no counter");
        assert_eq!((st.hits, st.misses, st.evictions), (0, 0, 0), "{st:?}");
        cache.insert(vec![7], dummy_eq(1.0));
        cache.clear();
        assert_eq!((cache.entries(), cache.stats().die_entries), (0, 0));
        let off = EquilibriumCache::new(0);
        off.insert_die([1, 2], 3.0);
        assert_eq!(off.peek_die(&[1, 2]), None);
    }
}
