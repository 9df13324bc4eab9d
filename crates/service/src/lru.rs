//! An exact least-recently-used map under a byte budget, O(1) per
//! operation: a slab of nodes threaded on an intrusive doubly linked
//! recency list, plus a hash index from key to slab slot.
//!
//! Every plan-cache shard and the server's query-text memo are one
//! [`Lru`] each, so both evict by the same code. The order is exact:
//! an insert or an accepted lookup makes its entry the most recent, and
//! eviction always takes the least recent. That equals evicting the
//! smallest last-use stamp of a clock ticked per operation, which the
//! plan-cache tests check step by step against such a scan.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// The end-of-list sentinel for slab links.
const NIL: usize = usize::MAX;

struct Node<K, V> {
    /// `None` while the slot sits on the free list.
    entry: Option<(K, V)>,
    bytes: usize,
    /// Toward the most recent end (or the next free slot).
    prev: usize,
    /// Toward the least recent end.
    next: usize,
}

/// A byte-budgeted exact LRU map. Entries are charged the byte count
/// their inserter passes; the resident total never exceeds the budget
/// after an insert returns.
pub struct Lru<K, V> {
    index: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    /// Head of the free-slot chain (linked through `prev`).
    free: usize,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next victim.
    tail: usize,
    bytes: usize,
    budget: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map that will hold at most `budget` charged bytes.
    pub fn new(budget: usize) -> Lru<K, V> {
        Lru {
            index: HashMap::new(),
            slab: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            bytes: 0,
            budget,
        }
    }

    /// The byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Charged bytes currently resident.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Looks `key` up. When its value passes `accept`, the entry becomes
    /// the most recently used and the value is returned; otherwise the
    /// recency order is left as it was.
    pub fn get_if<Q>(&mut self, key: &Q, accept: impl FnOnce(&V) -> bool) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.index.get(key)?;
        let (_, value) = self.slab[slot].entry.as_ref()?;
        if !accept(value) {
            return None;
        }
        self.unlink(slot);
        self.push_front(slot);
        self.slab[slot].entry.as_ref().map(|(_, v)| v)
    }

    /// Stores `value` under `key`, charged `bytes`, as the most recently
    /// used entry. An entry larger than the whole budget is not stored
    /// and `false` is returned. An existing entry under `key` is
    /// replaced (not counted as an eviction). Least recently used
    /// entries are then evicted until the total is back within budget;
    /// `on_evict` sees each victim's charged bytes, oldest first.
    pub fn insert(
        &mut self,
        key: K,
        value: V,
        bytes: usize,
        mut on_evict: impl FnMut(usize),
    ) -> bool {
        if bytes > self.budget {
            return false;
        }
        if let Some(old) = self.index.remove(&key) {
            self.release(old);
        }
        let node = Node {
            entry: Some((key.clone(), value)),
            bytes,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.free == NIL {
            self.slab.push(node);
            self.slab.len() - 1
        } else {
            let slot = self.free;
            self.free = self.slab[slot].prev;
            self.slab[slot] = node;
            slot
        };
        self.index.insert(key, slot);
        self.push_front(slot);
        self.bytes += bytes;
        // The new entry is the head and fits on its own, so the tail is
        // never the new entry while the total is over budget.
        while self.bytes > self.budget {
            let victim = self.tail;
            if let Some((k, _)) = &self.slab[victim].entry {
                self.index.remove(k);
            }
            on_evict(self.slab[victim].bytes);
            self.release(victim);
        }
        true
    }

    /// The resident keys, most recently used first.
    #[cfg(test)]
    pub fn keys_by_recency(&self) -> Vec<&K> {
        let mut keys = Vec::with_capacity(self.len());
        let mut at = self.head;
        while at != NIL {
            keys.extend(self.slab[at].entry.as_ref().map(|(k, _)| k));
            at = self.slab[at].next;
        }
        keys
    }

    /// Unlinks `slot`, drops its entry and puts it on the free chain.
    fn release(&mut self, slot: usize) {
        self.unlink(slot);
        let node = &mut self.slab[slot];
        node.entry = None;
        self.bytes -= node.bytes;
        node.bytes = 0;
        node.prev = self.free;
        self.free = slot;
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(lru: &Lru<u32, ()>) -> Vec<u32> {
        lru.keys_by_recency().into_iter().copied().collect()
    }

    #[test]
    fn recency_list_tracks_inserts_and_accepted_lookups() {
        let mut lru = Lru::new(100);
        for k in 0..4 {
            assert!(lru.insert(k, (), 10, |_| panic!("no eviction")));
        }
        assert_eq!(keys(&lru), [3, 2, 1, 0]);
        assert!(lru.get_if(&1, |_| true).is_some());
        assert_eq!(keys(&lru), [1, 3, 2, 0]);
        // A rejected lookup leaves the order alone.
        assert!(lru.get_if(&0, |_| false).is_none());
        assert_eq!(keys(&lru), [1, 3, 2, 0]);
        // Replacing a key moves it to the front without an eviction.
        assert!(lru.insert(2, (), 20, |_| panic!("no eviction")));
        assert_eq!(keys(&lru), [2, 1, 3, 0]);
        assert_eq!((lru.bytes(), lru.len()), (50, 4));
    }

    #[test]
    fn eviction_takes_the_tail_and_reuses_its_slot() {
        let mut lru = Lru::new(30);
        for k in 0..3 {
            lru.insert(k, (), 10, |_| {});
        }
        let mut evicted = Vec::new();
        assert!(lru.insert(9, (), 25, |b| evicted.push(b)));
        assert_eq!(evicted, [10, 10, 10]);
        assert_eq!(keys(&lru), [9]);
        assert_eq!(lru.bytes(), 25);
        assert_eq!(lru.slab.len(), 4, "freed slots are reused before growing");
        lru.insert(5, (), 5, |_| panic!("fits"));
        assert_eq!(lru.slab.len(), 4);
        assert!(!lru.insert(7, (), 31, |_| {}), "larger than the budget");
        assert_eq!(keys(&lru), [5, 9]);
    }
}
