//! A small capacity-bounded LRU map.
//!
//! The equilibrium memo cache in the combined model used to be an
//! unbounded `HashMap`, which grows without limit over a long candidate
//! sweep. This module provides the bounded replacement: a classic
//! hash-map-plus-intrusive-list LRU over dense slots (the same idiom as
//! `cmpsim`'s set-associative recency tracking), with O(1) lookup,
//! promotion, insertion, and eviction, and hit/miss/eviction counters
//! for diagnostics.
//!
//! # Examples
//!
//! ```
//! use mathkit::lru::LruCache;
//!
//! let mut lru = LruCache::new(2);
//! lru.insert("a", 1);
//! lru.insert("b", 2);
//! assert_eq!(lru.get(&"a"), Some(&1)); // promotes "a"
//! lru.insert("c", 3);                  // evicts "b", the LRU entry
//! assert_eq!(lru.get(&"b"), None);
//! assert_eq!(lru.len(), 2);
//! ```

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A capacity-bounded least-recently-used map.
///
/// `get` promotes the entry to most-recently-used; `insert` evicts the
/// least-recently-used entry once the cache is full. A capacity of zero
/// is legal and makes every `insert` a no-op (a disabled cache).
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    entries: Vec<Entry<K, V>>,
    /// Most-recently-used slot index, `NIL` when empty.
    head: usize,
    /// Least-recently-used slot index, `NIL` when empty.
    tail: usize,
    free: Vec<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1024)),
            entries: Vec::with_capacity(capacity.min(1024)),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, promoting the entry to most-recently-used.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.map.get(key).copied() {
            Some(slot) => {
                self.hits += 1;
                self.detach(slot);
                self.attach_front(slot);
                Some(&self.entries[slot].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without promoting it and without touching the
    /// hit/miss counters (diagnostics / tests).
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|&slot| &self.entries[slot].value)
    }

    /// Inserts `key -> value` as the most-recently-used entry, returning
    /// the evicted `(key, value)` pair if the cache was full. Re-inserting
    /// an existing key replaces its value and promotes it (no eviction).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.entries[slot].value = value;
            self.detach(slot);
            self.attach_front(slot);
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "full cache must have a tail");
            self.detach(lru);
            self.free.push(lru);
            let entry = &self.entries[lru];
            self.map.remove(&entry.key);
            self.evictions += 1;
            // The slot stays allocated (it is on the free list); move the
            // evicted pair out by swapping with the incoming one below.
            Some(lru)
        } else {
            None
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                let old = std::mem::replace(
                    &mut self.entries[slot],
                    Entry { key: key.clone(), value, prev: NIL, next: NIL },
                );
                self.map.insert(key, slot);
                self.attach_front(slot);
                return evicted.map(|_| (old.key, old.value));
            }
            None => {
                self.entries.push(Entry { key: key.clone(), value, prev: NIL, next: NIL });
                self.entries.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.attach_front(slot);
        None
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Unlinks `slot` from the recency list.
    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.entries[slot].prev, self.entries[slot].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.entries[slot].prev = NIL;
        self.entries[slot].next = NIL;
    }

    /// Links `slot` in as the most-recently-used entry.
    fn attach_front(&mut self, slot: usize) {
        self.entries[slot].prev = NIL;
        self.entries[slot].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recency order from MRU to LRU, by walking the list.
    fn order(lru: &LruCache<u32, u32>) -> Vec<u32> {
        let mut out = Vec::new();
        let mut slot = lru.head;
        while slot != NIL {
            out.push(lru.entries[slot].key);
            slot = lru.entries[slot].next;
        }
        out
    }

    #[test]
    fn insert_get_evict() {
        let mut lru = LruCache::new(3);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(3, 30);
        assert_eq!(order(&lru), vec![3, 2, 1]);
        // Promote 1, then insert 4: 2 is now LRU and must go.
        assert_eq!(lru.get(&1), Some(&10));
        let evicted = lru.insert(4, 40);
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.len(), 3);
        assert_eq!(order(&lru), vec![4, 1, 3]);
        assert_eq!(lru.evictions(), 1);
        assert_eq!(lru.hits(), 1);
        assert_eq!(lru.misses(), 1);
    }

    #[test]
    fn reinsert_replaces_and_promotes() {
        let mut lru = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert!(lru.insert(1, 11).is_none(), "replacement must not evict");
        assert_eq!(lru.peek(&1), Some(&11));
        // 2 is now LRU.
        assert_eq!(lru.insert(3, 30), Some((2, 20)));
    }

    #[test]
    fn capacity_one_and_zero() {
        let mut one = LruCache::new(1);
        assert!(one.insert(1, 10).is_none());
        assert_eq!(one.insert(2, 20), Some((1, 10)));
        assert_eq!(one.len(), 1);
        assert_eq!(one.get(&2), Some(&20));

        let mut zero: LruCache<u32, u32> = LruCache::new(0);
        assert!(zero.insert(1, 10).is_none());
        assert!(zero.is_empty());
        assert_eq!(zero.get(&1), None);
        assert_eq!(zero.evictions(), 0);
    }

    #[test]
    fn peek_does_not_promote_or_count() {
        let mut lru = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.peek(&1), Some(&10));
        assert_eq!(lru.hits(), 0);
        // 1 was not promoted, so it is still the LRU entry.
        assert_eq!(lru.insert(3, 30), Some((1, 10)));
    }

    #[test]
    fn clear_keeps_counters() {
        let mut lru = LruCache::new(2);
        lru.insert(1, 10);
        lru.get(&1);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.hits(), 1);
        lru.insert(2, 20);
        assert_eq!(lru.get(&2), Some(&20));
        assert_eq!(order(&lru), vec![2]);
    }

    #[test]
    fn never_exceeds_capacity_under_churn() {
        let mut lru = LruCache::new(16);
        for i in 0..10_000u32 {
            lru.insert(i % 97, i);
            assert!(lru.len() <= 16);
            if i % 3 == 0 {
                lru.get(&(i % 31));
            }
        }
        assert_eq!(lru.len(), 16);
        assert!(lru.evictions() > 0);
        // Every key the map knows is reachable through the list.
        assert_eq!(order(&lru).len(), 16);
    }
}
