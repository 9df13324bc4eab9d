//! The dynamic-programming table `BestPlan(S)`.
//!
//! Keys are [`RelSet`]s — single `u64`s — so the table is a hash map with
//! a fast multiplicative hasher written here (the standard-library
//! SipHash is a poor fit for hot integer keys; see the workspace design
//! notes). The table stores, per relation set, the best plan found so
//! far and its statistics. DPsub instead indexes a dense array by the
//! subset integer ([`DenseDpTable`]), and the other exact engines run on
//! that dense array too for queries of up to
//! [`DenseDpTable::MAX_DRIVER_RELATIONS`] relations. The dense table
//! keeps costs, cardinalities and plan ids in three columns and prices
//! a set with no plan at `+∞`, so its cost column is also its presence
//! test.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use joinopt_cost::PlanStats;
use joinopt_plan::{PlanArena, PlanId};
use joinopt_relset::RelSet;

/// A Fibonacci-style multiplicative hasher for `u64` keys.
///
/// Equivalent in spirit to `rustc-hash`'s `FxHasher` for single-word
/// keys; written in-repo to keep the dependency set minimal.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher64 {
    state: u64,
}

/// 64-bit golden-ratio constant (`floor(2^64 / φ)`, forced odd).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (not used by RelSet keys, which hash via write_u64):
        // fold 8-byte chunks.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = (self.state.rotate_left(5) ^ x).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`].
pub type BuildFxHasher = BuildHasherDefault<FxHasher64>;

/// One `BestPlan(S)` entry: the plan and its statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableEntry {
    /// Arena id of the best plan for the set.
    pub plan: PlanId,
    /// Cardinality and cost of that plan.
    pub stats: PlanStats,
}

/// The `BestPlan` operations the driver-based engines (DPsize and its
/// variants, DPccp) need, so one driver runs over either the hash
/// [`DpTable`] or a pooled [`DenseDpTable`].
pub(crate) trait PlanTable {
    /// `BestPlan(s)`, if registered.
    fn get(&self, s: RelSet) -> Option<TableEntry>;
    /// Registers `entry` as the plan for `s`, replacing any earlier one.
    fn insert(&mut self, s: RelSet, entry: TableEntry);
    /// Number of sets with a registered plan.
    fn len(&self) -> usize;
    /// Entry slots the run has, for the occupancy telemetry reports.
    fn capacity(&self) -> usize;
    /// Bytes the run is charged against its memory budget.
    fn bytes(&self) -> usize;
}

/// The DP table mapping relation sets to their best plans.
#[derive(Debug, Clone, Default)]
pub struct DpTable {
    map: HashMap<RelSet, TableEntry, BuildFxHasher>,
}

impl DpTable {
    /// Creates an empty table.
    pub fn new() -> DpTable {
        DpTable::default()
    }

    /// Creates a table pre-sized for `cap` entries.
    pub fn with_capacity(cap: usize) -> DpTable {
        DpTable {
            map: HashMap::with_capacity_and_hasher(cap, BuildFxHasher::default()),
        }
    }

    /// Iterates over all `(set, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (RelSet, &TableEntry)> {
        self.map.iter().map(|(k, v)| (*k, v))
    }

    /// Looks up `BestPlan(s)`.
    #[inline]
    pub fn get(&self, s: RelSet) -> Option<&TableEntry> {
        self.map.get(&s)
    }

    /// `true` iff a plan for `s` is registered. Because the algorithms
    /// only register connected sets, this doubles as an O(1)
    /// connectedness test for already-enumerated sets (the standard
    /// DPsub implementation trick).
    #[inline]
    pub fn contains(&self, s: RelSet) -> bool {
        self.map.contains_key(&s)
    }

    /// Unconditionally registers `entry` as the plan for `s`.
    #[inline]
    pub fn insert(&mut self, s: RelSet, entry: TableEntry) {
        self.map.insert(s, entry);
    }

    /// Number of sets with a registered plan.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff no plan is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of entry slots currently allocated; `len / capacity` is
    /// the occupancy telemetry reports.
    pub fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// Approximate bytes of storage backing the table (based on
    /// allocated capacity, not occupancy) — what memory budgets charge.
    pub fn bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<(RelSet, TableEntry)>()
    }
}

impl PlanTable for DpTable {
    #[inline]
    fn get(&self, s: RelSet) -> Option<TableEntry> {
        self.map.get(&s).copied()
    }

    #[inline]
    fn insert(&mut self, s: RelSet, entry: TableEntry) {
        self.map.insert(s, entry);
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.map.capacity()
    }

    fn bytes(&self) -> usize {
        DpTable::bytes(self)
    }
}

/// The dense, direct-addressed `BestPlan` table DPsub runs on, and the
/// driver engines up to [`Self::MAX_DRIVER_RELATIONS`] relations: slot
/// `s.bits()` holds the entry for set `s`. This is the layout of the
/// original Vance/Maier implementation and what makes DPsub's innermost
/// loop a handful of instructions on dense search spaces — no hashing,
/// no probing.
///
/// The slots are split into three columns: the costs, the
/// cardinalities and the plan ids only materialization touches. A set
/// with no plan costs `+∞`, so the cost column is also the presence
/// test (`contains` is `cost < ∞`). That is sound because every
/// registered cost is finite (scans cost 0, and every engine refuses a
/// join price that is not finite), and under `C_out` it is the
/// recurrence `dp(S) = |S| + min(dp(T) + dp(S ∖ T))` with `dp = ∞` for
/// a set that is not connected, so a split's price carries its
/// validity. The table lives in a [`Session`](crate::Session) and is
/// reset, never shrunk, between runs, so repeated queries reuse its
/// `Θ(2ⁿ)` allocation.
#[derive(Debug, Default)]
pub struct DenseDpTable {
    costs: Vec<f64>,
    cards: Vec<f64>,
    plans: Vec<PlanId>,
}

impl DenseDpTable {
    /// Largest `n` for which a dense table is reasonable
    /// (2²² entries ≈ 100 MiB) — the size cap of DPsub and DPconv.
    pub const MAX_RELATIONS: usize = 22;

    /// Largest `n` for which DPsize, its variants and DPccp run on the
    /// dense table rather than the hash [`DpTable`]. The dense table
    /// halves DPccp on stars at every size measured, but a sparse graph
    /// pays for `2ⁿ` slots to hold a few sets (a 22-relation chain has
    /// 253). At 16 that is 19–34 µs on a one-shot chain and 1.3 MiB per
    /// pooled session; at 18 it is 3–5× the hash run and 5 MiB
    /// (EXPERIMENTS.md, "Exact engines on the serve path").
    pub const MAX_DRIVER_RELATIONS: usize = 16;

    /// Bytes the three columns for `n` relations occupy — what one run
    /// on the table is charged, whatever capacity earlier runs left
    /// behind.
    pub(crate) fn bytes_for(n: usize) -> usize {
        (1usize << n) * (2 * std::mem::size_of::<f64>() + std::mem::size_of::<PlanId>())
    }

    /// Readies the table for subsets of `n ≤` [`Self::MAX_RELATIONS`]
    /// relations: grows the columns if needed and prices every slot it
    /// covers at `+∞`.
    pub(crate) fn reset(&mut self, n: usize) {
        debug_assert!(n <= Self::MAX_RELATIONS);
        let size = 1usize << n;
        if self.costs.len() < size {
            self.costs.resize(size, f64::INFINITY);
            self.cards.resize(size, 0.0);
            self.plans.resize(size, PlanId::SENTINEL);
        }
        self.costs[..size].fill(f64::INFINITY);
    }

    /// `true` iff a plan for the set `bits` is registered.
    #[inline]
    pub(crate) fn contains(&self, bits: u64) -> bool {
        self.costs[bits as usize] < f64::INFINITY
    }

    /// The cost column, indexed by set: a registered plan's cost, `+∞`
    /// for a set with none. Only the slots the last reset covered are
    /// meaningful.
    #[inline]
    pub(crate) fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Statistics of the registered plan for `bits`.
    #[inline]
    pub(crate) fn stats(&self, bits: u64) -> PlanStats {
        let idx = bits as usize;
        PlanStats {
            cardinality: self.cards[idx],
            cost: self.costs[idx],
        }
    }

    /// Arena id of the registered plan for `bits`.
    #[inline]
    pub(crate) fn plan(&self, bits: u64) -> PlanId {
        self.plans[bits as usize]
    }

    /// Registers `plan` with `stats` as the plan for `bits`. The cost
    /// must be finite: `+∞` marks an absent set.
    #[inline]
    pub(crate) fn insert(&mut self, bits: u64, plan: PlanId, stats: PlanStats) {
        debug_assert!(stats.cost.is_finite());
        let idx = bits as usize;
        self.costs[idx] = stats.cost;
        self.cards[idx] = stats.cardinality;
        self.plans[idx] = plan;
    }

    /// Bytes of allocated storage (capacity, not occupancy).
    pub fn bytes(&self) -> usize {
        (self.costs.capacity() + self.cards.capacity()) * std::mem::size_of::<f64>()
            + self.plans.capacity() * std::mem::size_of::<PlanId>()
    }
}

/// A [`DenseDpTable`] readied for one run over `n` relations, counting
/// the sets it registers: the [`PlanTable`] the driver engines use up
/// to [`DenseDpTable::MAX_DRIVER_RELATIONS`] relations.
pub(crate) struct DenseRun<'a> {
    table: &'a mut DenseDpTable,
    n: usize,
    len: usize,
}

impl<'a> DenseRun<'a> {
    /// Wraps `table`, which must already be reset for `n` relations.
    pub(crate) fn new(table: &'a mut DenseDpTable, n: usize) -> DenseRun<'a> {
        DenseRun { table, n, len: 0 }
    }
}

impl PlanTable for DenseRun<'_> {
    #[inline]
    fn get(&self, s: RelSet) -> Option<TableEntry> {
        let bits = s.bits();
        self.table.contains(bits).then(|| TableEntry {
            plan: self.table.plan(bits),
            stats: self.table.stats(bits),
        })
    }

    #[inline]
    fn insert(&mut self, s: RelSet, entry: TableEntry) {
        let bits = s.bits();
        self.len += usize::from(!self.table.contains(bits));
        self.table.insert(bits, entry.plan, entry.stats);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        1 << self.n
    }

    fn bytes(&self) -> usize {
        DenseDpTable::bytes_for(self.n)
    }
}

/// Bytes a run is charged for the `nodes` it stored in a pooled arena:
/// the next power of two, which is what a fresh arena growing by
/// doubling would hold. Charging whole doublings keeps the budget check
/// off the per-node path, and leaves the verdict independent of the
/// capacity earlier runs left in the pool.
#[inline]
pub(crate) fn arena_charge(nodes: usize) -> usize {
    PlanArena::bytes_for(nodes.next_power_of_two())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cost: f64) -> TableEntry {
        // PlanId has no public constructor; fabricate one through an arena.
        let mut arena = joinopt_plan::PlanArena::new();
        let id = arena.add_scan(0, 1.0);
        TableEntry {
            plan: id,
            stats: PlanStats {
                cardinality: 1.0,
                cost,
            },
        }
    }

    #[test]
    fn insert_and_get() {
        let mut t = DpTable::new();
        assert!(t.is_empty());
        let s = RelSet::from_indices([0, 1]);
        t.insert(s, entry(10.0));
        assert_eq!(t.len(), 1);
        assert!(t.contains(s));
        assert_eq!(t.get(s).unwrap().stats.cost, 10.0);
        // A later insert replaces the entry.
        t.insert(s, entry(5.0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(s).unwrap().stats.cost, 5.0);
    }

    #[test]
    fn iter_sees_all_entries() {
        let mut t = DpTable::with_capacity(4);
        t.insert(RelSet::single(0), entry(1.0));
        t.insert(RelSet::single(1), entry(2.0));
        let mut sets: Vec<RelSet> = t.iter().map(|(s, _)| s).collect();
        sets.sort();
        assert_eq!(sets, vec![RelSet::single(0), RelSet::single(1)]);
    }

    #[test]
    fn hasher_distributes_dense_keys() {
        // Dense small bitsets (the DP workload) should not collide
        // pathologically: inserting 2^14 distinct keys must keep the map
        // at full size (correctness) — and this exercises write_u64.
        let mut t = DpTable::new();
        for bits in 1u64..(1 << 14) {
            t.insert(RelSet::from_bits(bits), entry(bits as f64));
        }
        assert_eq!(t.len(), (1 << 14) - 1);
    }

    #[test]
    fn bytes_track_allocated_capacity() {
        let t = DpTable::with_capacity(16);
        assert!(t.bytes() >= 16 * std::mem::size_of::<(RelSet, TableEntry)>());
        let mut d = DenseDpTable::default();
        d.reset(6);
        assert!(d.bytes() >= DenseDpTable::bytes_for(6));
        // Footprint is a function of capacity, not occupancy.
        let bytes = d.bytes();
        let e = entry(1.0);
        d.insert(1, e.plan, e.stats);
        assert!(d.contains(1) && !d.contains(2));
        assert_eq!(d.bytes(), bytes);
        // A reset keeps the allocation and forgets every plan.
        d.reset(6);
        assert!(!d.contains(1));
        assert_eq!(d.bytes(), bytes);
    }

    #[test]
    fn dense_charge_and_reset_follow_the_layout() {
        // On a fresh table the allocation is exactly what a run is
        // charged, so a layout change that forgets either one fails.
        for n in [8, 16] {
            let mut d = DenseDpTable::default();
            d.reset(n);
            assert_eq!(d.bytes(), DenseDpTable::bytes_for(n), "n={n}");
        }
        // After a larger run, a smaller reset forgets every slot it
        // covers, including the ones the larger run filled.
        let mut d = DenseDpTable::default();
        d.reset(10);
        let e = entry(1.0);
        for bits in 1..1u64 << 10 {
            d.insert(bits, e.plan, e.stats);
        }
        for n in [8, 4] {
            d.reset(n);
            assert!((0..1u64 << n).all(|bits| !d.contains(bits)), "n={n}");
        }
    }

    #[test]
    fn an_absent_set_costs_infinity() {
        let mut d = DenseDpTable::default();
        d.reset(4);
        assert!(d.costs()[..16].iter().all(|&c| c == f64::INFINITY));
        let plan = entry(0.0).plan;
        let stats = PlanStats {
            cardinality: 5.0,
            cost: 2.0,
        };
        d.insert(0b0011, plan, stats);
        assert!(d.contains(0b0011) && !d.contains(0b0101));
        assert_eq!(d.stats(0b0011), stats);
        assert_eq!(d.plan(0b0011), plan);
        // A split with an absent side prices at `+∞` under `C_out`.
        let (a, b) = (d.costs()[0b0011], d.costs()[0b0101]);
        assert_eq!(crate::kernel::cout_cost(a, b, 1.0), f64::INFINITY);
    }

    #[test]
    fn fxhasher_generic_write_path() {
        use std::hash::Hasher as _;
        let mut h1 = FxHasher64::default();
        h1.write(b"hello world!");
        let mut h2 = FxHasher64::default();
        h2.write(b"hello world?");
        assert_ne!(h1.finish(), h2.finish());
    }
}
