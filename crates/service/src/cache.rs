//! The sharded plan cache: canonical fingerprint → detached plan tree.
//!
//! Keys are `(fingerprint, algorithm, cost-model id)` — the fingerprint
//! identifies the canonical query, and because different algorithms
//! (and different cost models) legitimately produce different trees or
//! costs for the same query, both are part of the identity. Every entry
//! additionally stores the full canonical encoding, which lookups
//! compare word-for-word: a 128-bit collision or a canonicalization
//! instability can therefore only *miss*, never serve a wrong plan.
//!
//! Plans are stored in canonical index space. On a hit the tree's scan
//! leaves are remapped through the requester's canonical order, so a
//! warm lookup of the same spec returns cost bits and plan shape
//! bit-identical to its cold run (the `joinopt fuzz --cache` oracle).
//! For a hit across two *isomorphic but differently labeled* specs the
//! served plan is the canonical entry's — equal in canonical space, and
//! correct for the requester, though its cost may differ from that
//! requester's own cold run in the last float bits (the estimator
//! multiplies the same factors in a different order; see the
//! conformance crate's renumbering tolerance).
//!
//! Eviction is LRU under an **exact** byte budget: each of the
//! [`CACHE_SHARDS`] shards owns `total/shards` bytes (the remainder
//! spread one byte each over the first shards, so shard budgets sum to
//! exactly the configured total),
//! and an insert evicts least-recently-used entries until its shard is
//! back under budget. Each shard is one O(1) `Lru`. Entry sizes use a
//! deterministic formula, so the accounting is reproducible across runs
//! and platforms. The resident total is kept in one atomic, updated
//! under the shard lock, so reading it locks nothing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use joinopt_core::Algorithm;
use joinopt_plan::JoinTree;
use joinopt_qgraph::RelIdx;
use joinopt_telemetry::{Event, Observer};

use crate::fingerprint::Fingerprint;
use crate::lru::Lru;

/// Number of independently locked shards of every [`PlanCache`].
pub const CACHE_SHARDS: usize = 16;

/// Plan-cache sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget across all shards (exact; see module docs).
    pub byte_budget: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: 8 << 20, // 8 MiB
        }
    }
}

/// Point-in-time cache statistics (monotonic counters plus occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a plan.
    pub hits: u64,
    /// Lookups that found nothing (or failed encoding verification).
    pub misses: u64,
    /// Successful inserts.
    pub stores: u64,
    /// Entries evicted to honor the byte budget.
    pub evictions: u64,
    /// Bytes currently resident.
    pub bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

/// A plan served from the cache, already remapped into the requester's
/// relation numbering.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// The join tree (scan leaves carry the requester's indices).
    pub tree: JoinTree,
    /// Total plan cost, bit-identical to the stored run's.
    pub cost: f64,
    /// Result cardinality, bit-identical to the stored run's.
    pub cardinality: f64,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    fp: Fingerprint,
    algorithm: Algorithm,
    model: &'static str,
}

struct Entry {
    /// Canonical encoding, verified on every hit.
    encoding: Vec<u64>,
    /// Plan tree in canonical index space.
    tree: JoinTree,
    cost: f64,
    cardinality: f64,
}

type Shard = Lru<Key, Entry>;

/// The sharded plan cache. All methods take `&self`; shards are
/// individually locked and the counters are atomics, so a cache is
/// shared freely across service workers.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Bytes resident across all shards.
    bytes: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
}

/// Fixed per-entry overhead charged on top of the payload (map slot,
/// key, bookkeeping).
const ENTRY_OVERHEAD: usize = 96;
/// Bytes charged per plan-tree node (scan or join).
const NODE_BYTES: usize = 48;

/// The deterministic size formula entries are charged with.
fn entry_bytes(encoding_len: usize, tree: &JoinTree) -> usize {
    let nodes = tree.num_relations() + tree.num_joins();
    ENTRY_OVERHEAD + encoding_len * 8 + nodes * NODE_BYTES
}

/// Rebuilds `tree` with every scan leaf's relation index mapped through
/// `map`.
fn remap(tree: &JoinTree, map: &dyn Fn(RelIdx) -> RelIdx) -> JoinTree {
    match tree {
        JoinTree::Scan {
            relation,
            cardinality,
        } => JoinTree::Scan {
            relation: map(*relation),
            cardinality: *cardinality,
        },
        JoinTree::Join {
            left,
            right,
            cardinality,
            cost,
        } => JoinTree::Join {
            left: Box::new(remap(left, map)),
            right: Box::new(remap(right, map)),
            cardinality: *cardinality,
            cost: *cost,
        },
    }
}

impl PlanCache {
    /// An empty cache of [`CACHE_SHARDS`] shards.
    pub fn new(config: CacheConfig) -> PlanCache {
        PlanCache::with_shards(config.byte_budget, CACHE_SHARDS)
    }

    /// An empty cache of `shards` shards. Each gets
    /// `byte_budget / shards` bytes with the remainder spread one byte
    /// each over the first shards, so the shard budgets sum to exactly
    /// `byte_budget`.
    pub(crate) fn with_shards(byte_budget: usize, shards: usize) -> PlanCache {
        let base = byte_budget / shards;
        let remainder = byte_budget % shards;
        PlanCache {
            shards: (0..shards)
                .map(|i| Mutex::new(Lru::new(base + usize::from(i < remainder))))
                .collect(),
            bytes: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, fp: Fingerprint) -> &Mutex<Shard> {
        &self.shards[(fp.lo as usize) % self.shards.len()]
    }

    fn lock(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
        match shard.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up a plan. `encoding` is the requester's canonical encoding
    /// (verified against the entry's) and `order` its canonical order
    /// (`order[p]` = requester index at canonical position `p`), used to
    /// remap the stored canonical-space tree. Emits
    /// [`Event::CacheLookup`] when `obs` is enabled.
    pub fn lookup_observed(
        &self,
        fp: Fingerprint,
        algorithm: Algorithm,
        model: &'static str,
        encoding: &[u64],
        order: &[RelIdx],
        obs: &dyn Observer,
    ) -> Option<CachedPlan> {
        let key = Key {
            fp,
            algorithm,
            model,
        };
        let found = Self::lock(self.shard_of(fp))
            .get_if(&key, |entry| entry.encoding == encoding)
            .map(|entry| CachedPlan {
                tree: remap(&entry.tree, &|p| order[p]),
                cost: entry.cost,
                cardinality: entry.cardinality,
            });
        let hit = found.is_some();
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if obs.enabled() {
            obs.on_event(Event::CacheLookup { hit });
        }
        found
    }

    /// [`PlanCache::lookup_observed`] without telemetry.
    pub fn lookup(
        &self,
        fp: Fingerprint,
        algorithm: Algorithm,
        model: &'static str,
        encoding: &[u64],
        order: &[RelIdx],
    ) -> Option<CachedPlan> {
        self.lookup_observed(
            fp,
            algorithm,
            model,
            encoding,
            order,
            &joinopt_telemetry::NoopObserver,
        )
    }

    /// Stores a plan. `tree` carries the inserter's relation indices and
    /// is converted to canonical space through `order` before storage.
    /// An entry larger than its shard's whole budget is not stored;
    /// otherwise least-recently-used entries are evicted until the shard
    /// is back under budget. Emits [`Event::CacheStore`] and one
    /// [`Event::CacheEvict`] per eviction when `obs` is enabled.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_observed(
        &self,
        fp: Fingerprint,
        algorithm: Algorithm,
        model: &'static str,
        encoding: &[u64],
        order: &[RelIdx],
        tree: &JoinTree,
        cost: f64,
        cardinality: f64,
        obs: &dyn Observer,
    ) {
        let key = Key {
            fp,
            algorithm,
            model,
        };
        // Invert the requester's canonical order: pos[original] = p.
        let mut pos: Vec<usize> = vec![0; order.len()];
        for (p, &v) in order.iter().enumerate() {
            pos[v] = p;
        }
        let canonical_tree = remap(tree, &|v| pos[v]);
        let bytes = entry_bytes(encoding.len(), &canonical_tree);

        let entry = Entry {
            encoding: encoding.to_vec(),
            tree: canonical_tree,
            cost,
            cardinality,
        };
        let mut evicted: Vec<usize> = Vec::new();
        let mut shard = Self::lock(self.shard_of(fp));
        let before = shard.bytes();
        if !shard.insert(key, entry, bytes, |b| evicted.push(b)) {
            return; // would never fit; leave the cache untouched
        }
        // Add before subtracting, so the shared total never dips below
        // what the other shards hold.
        let after = shard.bytes();
        self.bytes.fetch_add(after, Ordering::Relaxed);
        let total_bytes = self.bytes.fetch_sub(before, Ordering::Relaxed) - before;
        drop(shard);
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        if obs.enabled() {
            obs.on_event(Event::CacheStore {
                entry_bytes: bytes,
                total_bytes,
            });
            for entry_bytes in evicted {
                obs.on_event(Event::CacheEvict {
                    entry_bytes,
                    total_bytes,
                });
            }
        }
    }

    /// [`PlanCache::insert_observed`] without telemetry.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &self,
        fp: Fingerprint,
        algorithm: Algorithm,
        model: &'static str,
        encoding: &[u64],
        order: &[RelIdx],
        tree: &JoinTree,
        cost: f64,
        cardinality: f64,
    ) {
        self.insert_observed(
            fp,
            algorithm,
            model,
            encoding,
            order,
            tree,
            cost,
            cardinality,
            &joinopt_telemetry::NoopObserver,
        );
    }

    /// Bytes currently resident across all shards.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent-enough snapshot of the counters plus occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes(),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(i: u64) -> Fingerprint {
        Fingerprint { hi: i, lo: i }
    }

    fn scan(relation: usize) -> JoinTree {
        JoinTree::Scan {
            relation,
            cardinality: 100.0,
        }
    }

    /// A tree of `joins + 1` scans, sized deterministically.
    fn tree_with(joins: usize) -> JoinTree {
        let mut t = scan(0);
        for i in 1..=joins {
            t = JoinTree::Join {
                left: Box::new(t),
                right: Box::new(scan(i)),
                cardinality: 10.0,
                cost: 10.0,
            };
        }
        t
    }

    #[test]
    fn entry_size_formula_is_deterministic() {
        let t = tree_with(2); // 3 scans + 2 joins = 5 nodes
        assert_eq!(entry_bytes(4, &t), 96 + 32 + 5 * 48);
    }

    #[test]
    fn eviction_honors_the_byte_budget_exactly() {
        let t = tree_with(0); // 1 node → 96 + 8*enc + 48
        let enc = [1u64];
        let one = entry_bytes(enc.len(), &t); // 152
                                              // Budget fits exactly two entries; the third insert must evict
                                              // the least recently used and land exactly back at 2×.
        let cache = PlanCache::with_shards(2 * one, 1);
        let order = [0usize];
        cache.insert(fp(1), Algorithm::DpCcp, "cout", &enc, &order, &t, 1.0, 1.0);
        assert_eq!(cache.bytes(), one);
        cache.insert(fp(2), Algorithm::DpCcp, "cout", &enc, &order, &t, 1.0, 1.0);
        assert_eq!(cache.bytes(), 2 * one);
        assert_eq!(cache.stats().evictions, 0);
        // Touch fp(1) so fp(2) is the LRU victim.
        assert!(cache
            .lookup(fp(1), Algorithm::DpCcp, "cout", &enc, &order)
            .is_some());
        cache.insert(fp(3), Algorithm::DpCcp, "cout", &enc, &order, &t, 1.0, 1.0);
        assert_eq!(cache.bytes(), 2 * one, "budget is exact, never exceeded");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            cache
                .lookup(fp(2), Algorithm::DpCcp, "cout", &enc, &order)
                .is_none(),
            "LRU entry was the victim"
        );
        assert!(cache
            .lookup(fp(1), Algorithm::DpCcp, "cout", &enc, &order)
            .is_some());
        assert!(cache
            .lookup(fp(3), Algorithm::DpCcp, "cout", &enc, &order)
            .is_some());
    }

    /// The eviction rule the cache had before its O(1) LRU, restated:
    /// a shard clock ticks on every lookup and every fitting insert, a
    /// verified hit or an insert stamps its entry with the clock, and
    /// each eviction removes the entry with the smallest stamp (never
    /// the one just inserted).
    #[derive(Default)]
    struct ReferenceShard {
        budget: usize,
        bytes: usize,
        clock: u64,
        /// key → (encoding word, charged bytes, last_used).
        entries: std::collections::HashMap<u64, (u64, usize, u64)>,
    }

    impl ReferenceShard {
        fn lookup(&mut self, key: u64, enc: u64) -> bool {
            self.clock += 1;
            match self.entries.get_mut(&key) {
                Some(e) if e.0 == enc => {
                    e.2 = self.clock;
                    true
                }
                _ => false,
            }
        }

        /// The evicted entries' bytes, in eviction order.
        fn insert(&mut self, key: u64, enc: u64, bytes: usize) -> Vec<usize> {
            if bytes > self.budget {
                return Vec::new();
            }
            self.clock += 1;
            if let Some(old) = self.entries.remove(&key) {
                self.bytes -= old.1;
            }
            self.bytes += bytes;
            self.entries.insert(key, (enc, bytes, self.clock));
            let mut evicted = Vec::new();
            while self.bytes > self.budget {
                let victim = self
                    .entries
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, e)| e.2)
                    .map(|(k, _)| *k);
                let Some(victim) = victim else { break };
                let e = self.entries.remove(&victim).unwrap();
                self.bytes -= e.1;
                evicted.push(e.1);
            }
            evicted
        }

        fn keys_by_recency(&self) -> Vec<u64> {
            let mut keys: Vec<(u64, u64)> = self.entries.iter().map(|(k, e)| (e.2, *k)).collect();
            keys.sort_unstable_by(|a, b| b.cmp(a));
            keys.into_iter().map(|(_, k)| k).collect()
        }
    }

    /// Records the bytes of every `CacheEvict` event.
    #[derive(Default)]
    struct Evictions(std::cell::RefCell<Vec<usize>>);

    impl Observer for Evictions {
        fn on_event(&self, event: Event) {
            if let Event::CacheEvict { entry_bytes, .. } = event {
                self.0.borrow_mut().push(entry_bytes);
            }
        }
    }

    #[test]
    fn seeded_interleaving_evicts_exactly_like_the_min_last_used_scan() {
        use joinopt_relset::rng::XorShift64;
        let budget = 2_000;
        let cache = PlanCache::with_shards(budget, 1);
        let mut reference = ReferenceShard {
            budget,
            ..ReferenceShard::default()
        };
        let mut rng = XorShift64::seed_from_u64(2006);
        for op in 0..5_000 {
            let key = rng.gen_range(0..32) as u64;
            // One word in ten is stale: the lookup must miss and leave
            // the recency order alone.
            let enc = if rng.gen_bool(0.1) { key + 1_000 } else { key };
            if rng.gen_bool(0.5) {
                let identity: Vec<usize> = (0..64).collect();
                let hit = cache
                    .lookup(fp(key), Algorithm::DpCcp, "cout", &[enc], &identity)
                    .is_some();
                assert_eq!(hit, reference.lookup(key, enc), "op {op}: lookup {key}");
            } else {
                // 0..=12 joins: 152..=1448 bytes, and one key in 32
                // never fits at all.
                let joins = if key == 31 { 40 } else { rng.gen_range(0..13) };
                let t = tree_with(joins);
                let order: Vec<usize> = (0..=joins).collect();
                let seen = Evictions::default();
                cache.insert_observed(
                    fp(key),
                    Algorithm::DpCcp,
                    "cout",
                    &[enc],
                    &order,
                    &t,
                    1.0,
                    1.0,
                    &seen,
                );
                let expect = reference.insert(key, enc, entry_bytes(1, &t));
                assert_eq!(seen.0.into_inner(), expect, "op {op}: insert {key}");
            }
            let resident: Vec<u64> = PlanCache::lock(&cache.shards[0])
                .keys_by_recency()
                .into_iter()
                .map(|k| k.fp.lo)
                .collect();
            assert_eq!(resident, reference.keys_by_recency(), "op {op}");
            assert_eq!(cache.bytes(), reference.bytes, "op {op}");
        }
        assert!(cache.stats().evictions > 1_000, "{:?}", cache.stats());
    }

    #[test]
    fn shard_budgets_sum_to_the_total_exactly() {
        let cache = PlanCache::new(CacheConfig { byte_budget: 1003 });
        assert_eq!(cache.shards.len(), CACHE_SHARDS);
        let total: usize = cache
            .shards
            .iter()
            .map(|s| PlanCache::lock(s).budget())
            .sum();
        assert_eq!(total, 1003);
    }

    #[test]
    fn oversized_entries_are_rejected_outright() {
        let cache = PlanCache::with_shards(10, 1);
        let t = tree_with(1);
        cache.insert(fp(1), Algorithm::DpCcp, "cout", &[1], &[0, 1], &t, 1.0, 1.0);
        assert_eq!(cache.bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn encoding_mismatch_is_a_miss_not_a_wrong_hit() {
        let cache = PlanCache::new(CacheConfig::default());
        let t = tree_with(0);
        let order = [0usize];
        cache.insert(
            fp(9),
            Algorithm::DpCcp,
            "cout",
            &[1, 2],
            &order,
            &t,
            1.0,
            1.0,
        );
        // Same fingerprint, different encoding: must miss.
        assert!(cache
            .lookup(fp(9), Algorithm::DpCcp, "cout", &[1, 3], &order)
            .is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
    }

    #[test]
    fn keys_separate_algorithms_and_models() {
        let cache = PlanCache::new(CacheConfig::default());
        let t = tree_with(0);
        let order = [0usize];
        cache.insert(fp(5), Algorithm::DpCcp, "cout", &[1], &order, &t, 1.0, 1.0);
        assert!(cache
            .lookup(fp(5), Algorithm::Goo, "cout", &[1], &order)
            .is_none());
        assert!(cache
            .lookup(fp(5), Algorithm::DpCcp, "nlj", &[1], &order)
            .is_none());
        assert!(cache
            .lookup(fp(5), Algorithm::DpCcp, "cout", &[1], &order)
            .is_some());
    }

    #[test]
    fn hits_remap_through_the_requesters_order() {
        let cache = PlanCache::new(CacheConfig::default());
        // Inserter's numbering: scan(1) ⋈ scan(0); canonical order [1, 0]
        // (position 0 holds original 1).
        let t = JoinTree::Join {
            left: Box::new(scan(1)),
            right: Box::new(scan(0)),
            cardinality: 10.0,
            cost: 10.0,
        };
        cache.insert(
            fp(7),
            Algorithm::DpCcp,
            "cout",
            &[42],
            &[1, 0],
            &t,
            10.0,
            10.0,
        );
        // A requester whose canonical order is [0, 1] gets the leaves
        // renamed: canonical position 0 → its relation 0.
        let hit = cache
            .lookup(fp(7), Algorithm::DpCcp, "cout", &[42], &[0, 1])
            .unwrap();
        let expect = JoinTree::Join {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            cardinality: 10.0,
            cost: 10.0,
        };
        assert_eq!(hit.tree, expect);
        // The original inserter gets its own tree back verbatim.
        let same = cache
            .lookup(fp(7), Algorithm::DpCcp, "cout", &[42], &[1, 0])
            .unwrap();
        assert_eq!(same.tree, t);
    }
}
