//! DPsub: subset-driven enumeration (paper, Fig. 2 / Section 2.2), and
//! the pooled [`Session`] it runs in.
//!
//! All three variants — [`DpSub`], [`DpSubUnfiltered`] and
//! [`DpSubCrossProducts`] — share one loop over a direct-addressed
//! table ([`DenseDpTable`]), whether they are called through
//! [`JoinOrderer`] or through [`OptimizeRequest`](crate::OptimizeRequest).
//!
//! The best plan for a set `S` depends only on strictly smaller sets,
//! so the outer loop visits the subsets level by level — all sets of
//! size `k` in ascending numeric order (Gosper's hack), then size
//! `k + 1` — which is a valid DP order just like Fig. 2's integer loop
//! `i = 1 … 2ⁿ−1`. For each set the inner loop replays the
//! Vance/Maier subset enumeration and keeps one best `(cost, S₁)`;
//! ties keep the first, canonically smallest `S₁` (strict `<`). Only
//! the winner is materialized, so the arena holds exactly one node per
//! table entry and `plans_built == table_size`.
//!
//! Two implementation notes, both verified by the counter tests:
//!
//! * Fig. 2 prints the outer loop bound as `i < 2ⁿ − 1`, which would
//!   skip the full relation set and never build the final plan; the
//!   intended bound is `i ≤ 2ⁿ − 1`.
//! * "connected S₁" is tested via table membership: the table contains
//!   exactly the connected sets already enumerated (every connected set
//!   has a valid decomposition), so the lookup is O(1) and equivalent to
//!   a graph test. The `InnerCounter` semantics are unchanged — it is
//!   incremented before any test, exactly as in the pseudocode.
//! * With the `*` check, "`S₁` connected to `S₂`" needs no test: `S` is
//!   connected, so every split of it into two non-empty parts has an
//!   edge crossing the cut. Only [`DpSubUnfiltered`], which has no `*`
//!   check, tests the edge.
//!
//! The union's output cardinality is the estimator's set-only fold,
//! computed once per set (at its first valid split) and reused for
//! every later split of the set.

use joinopt_cost::{ensure_finite, CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::PlanArena;
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;
use joinopt_telemetry::{Event, Observer};

use crate::cancel::CancellationToken;
use crate::counters::Counters;
use crate::error::OptimizeError;
use crate::failpoint;
use crate::kernel::pair_cost;
use crate::result::{DpResult, JoinOrderer};
use crate::table::{arena_charge, DenseDpTable};

/// DPsub as in Fig. 2, including the `*` connectedness pre-check on the
/// outer subset.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSub;

impl JoinOrderer for DpSub {
    fn name(&self) -> &'static str {
        Variant::Filtered.name()
    }

    fn optimize_in(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
        session: &mut Session,
    ) -> Result<DpResult, OptimizeError> {
        run_pooled(g, catalog, model, Variant::Filtered, obs, ctl, session)
    }
}

/// DPsub **without** the `*` connectedness pre-check: the inner subset
/// loop runs even for disconnected outer sets (every test then fails).
/// Ablation variant; on cliques it is identical to [`DpSub`], on chains
/// dramatically worse.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSubUnfiltered;

impl JoinOrderer for DpSubUnfiltered {
    fn name(&self) -> &'static str {
        Variant::Unfiltered.name()
    }

    fn optimize_in(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
        session: &mut Session,
    ) -> Result<DpResult, OptimizeError> {
        run_pooled(g, catalog, model, Variant::Unfiltered, obs, ctl, session)
    }
}

/// The Vance/Maier original: optimal bushy trees **with** cross
/// products. No connectivity tests at all — every subset of the
/// relations receives a plan, and disconnected splits become cross
/// products (cut selectivity 1). Exists both as the historical baseline
/// DPsub was derived from and to demonstrate how much the search space
/// grows (Section 1 cites this as the motivation for excluding cross
/// products). Cross products make disconnected graphs optimizable.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSubCrossProducts;

impl JoinOrderer for DpSubCrossProducts {
    fn name(&self) -> &'static str {
        Variant::CrossProducts.name()
    }

    fn optimize_in(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
        session: &mut Session,
    ) -> Result<DpResult, OptimizeError> {
        run_pooled(g, catalog, model, Variant::CrossProducts, obs, ctl, session)
    }
}

/// Which DPsub variant a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Variant {
    /// Fig. 2 with the `*` connectedness pre-check.
    Filtered,
    /// Fig. 2 without the pre-check (ablation).
    Unfiltered,
    /// Vance/Maier with cross products (no connectivity tests).
    CrossProducts,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Filtered => "DPsub",
            Variant::Unfiltered => "DPsub-nofilter",
            Variant::CrossProducts => "DPsub-cp",
        }
    }
}

/// A reusable optimization session: pools the dense `BestPlan` table,
/// the plan arena and DPconv's dense scratch across repeated
/// [`OptimizeRequest`](crate::OptimizeRequest) calls, amortizing the
/// `Θ(2ⁿ)` table initialization and arena growth over a workload
/// instead of paying them per query. DPsub and DPconv always run on the
/// pool; DPsize, its variants and DPccp use the dense table up to
/// [`DenseDpTable::MAX_DRIVER_RELATIONS`] relations and the arena at
/// every size. A run is charged against its memory budget only for the
/// buffers it uses, so the verdict does not depend on what the session
/// ran before.
///
/// Reuse is observable through the existing telemetry events: on a
/// fresh session the first run's `arena_stats.bytes` reflects the
/// growth reallocations, while subsequent runs of same-sized queries
/// report an arena that never grew ([`Session::pooled_bytes`] exposes
/// the same number programmatically).
///
/// ```
/// use joinopt_core::{OptimizeRequest, Session};
/// use joinopt_cost::workload;
/// use joinopt_qgraph::GraphKind;
///
/// let mut session = Session::new();
/// for seed in 0..4 {
///     let w = workload::family_workload(GraphKind::Clique, 8, seed);
///     let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
///         .run_in(&mut session)
///         .unwrap();
///     assert_eq!(outcome.result.tree.num_relations(), 8);
/// }
/// assert_eq!(session.runs(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Session {
    /// The dense `BestPlan` table, reset (not shrunk) between runs.
    table: DenseDpTable,
    /// Pooled plan arena, cleared (not shrunk) between runs.
    arena: PlanArena,
    /// Pooled dense state for DPconv runs (connectivity bitmap,
    /// cardinality/cost tables, witness array, rank lists).
    dpconv: crate::dpconv::DpConvScratch,
    /// Number of optimization runs served.
    runs: u64,
}

impl Session {
    /// Creates an empty session; buffers grow on first use.
    pub fn new() -> Session {
        Session::default()
    }

    /// Number of optimization runs this session has served.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Bytes currently held by the pooled buffers (tables, bitmap,
    /// arena) — the allocation a fresh run gets for free.
    pub fn pooled_bytes(&self) -> usize {
        self.table.bytes() + self.arena.bytes() + self.dpconv.bytes()
    }

    /// The pooled DPconv scratch, counting the hand-out as a served run.
    pub(crate) fn dpconv_scratch(&mut self) -> &mut crate::dpconv::DpConvScratch {
        self.runs += 1;
        &mut self.dpconv
    }

    /// The dense table reset for `n ≤` [`DenseDpTable::MAX_RELATIONS`]
    /// relations and the cleared arena, counting a served run.
    pub(crate) fn dense_run(&mut self, n: usize) -> (&mut DenseDpTable, &mut PlanArena) {
        self.runs += 1;
        self.table.reset(n);
        self.arena.clear();
        (&mut self.table, &mut self.arena)
    }

    /// The cleared arena alone, counting a served run.
    pub(crate) fn arena_run(&mut self) -> &mut PlanArena {
        self.runs += 1;
        self.arena.clear();
        &mut self.arena
    }
}

/// What one run reads while it evaluates a set.
struct Context<'a> {
    g: &'a QueryGraph,
    est: &'a CardinalityEstimator,
    model: &'a dyn CostModel,
    variant: Variant,
    observe: bool,
    provenance: bool,
    obs: &'a dyn Observer,
    ctl: &'a CancellationToken,
}

/// What one run counts.
#[derive(Default)]
struct Tally {
    counters: Counters,
    /// `BestPlan` lookups (operand and union probes), when observing.
    probes: u64,
    /// Probes that found an entry, when observing.
    hits: u64,
    /// Pacing state for [`CancellationToken::checkpoint`].
    pace: u32,
}

/// DPsub's inner loop for the set `s`: the cheapest valid split as
/// `(stats, S₁)`, or `None` if `s` has none. Polls the token on every
/// iteration (paced), so a tripped budget or a flipped cancel flag stops
/// a run inside a set, not only between levels.
#[inline]
fn best_split(
    cx: &Context<'_>,
    table: &DenseDpTable,
    s: RelSet,
    t: &mut Tally,
) -> Result<Option<(PlanStats, u64)>, OptimizeError> {
    let mut best: Option<(f64, u64)> = None;
    let mut card = 0.0f64;
    for s1 in s.non_empty_proper_subsets() {
        t.counters.inner += 1;
        cx.ctl.checkpoint(&mut t.pace)?;
        let s2 = s - s1;
        match cx.variant {
            Variant::Filtered => {
                // "connected S1/S2" via table membership, short-circuit.
                let p1 = table.contains(s1.bits());
                if cx.observe {
                    t.probes += 1;
                    t.hits += u64::from(p1);
                }
                if !p1 {
                    continue;
                }
                let p2 = table.contains(s2.bits());
                if cx.observe {
                    t.probes += 1;
                    t.hits += u64::from(p2);
                }
                if !p2 {
                    continue;
                }
                // No `S₁`–`S₂` edge test: the `*` check proved `S`
                // connected, and a connected set split into two
                // non-empty parts always has an edge crossing the cut.
            }
            Variant::Unfiltered => {
                // The ablation probes both operands unconditionally.
                let p1 = table.contains(s1.bits());
                let p2 = table.contains(s2.bits());
                if cx.observe {
                    t.probes += 2;
                    t.hits += u64::from(p1) + u64::from(p2);
                }
                if !(p1 && p2) {
                    continue;
                }
                if !cx.g.sets_connected(s1, s2) {
                    continue;
                }
            }
            Variant::CrossProducts => {
                // Every split is valid; all smaller sets have plans.
            }
        }
        t.counters.csg_cmp_pairs += 1;
        // Union probe: a hit once an earlier split registered the set.
        if cx.observe {
            t.probes += 1;
            t.hits += u64::from(best.is_some());
        }
        let st1 = table.stats(s1.bits());
        let st2 = table.stats(s2.bits());
        if best.is_none() {
            card = ensure_finite("cardinality", cx.est.set_cardinality(s))?;
        }
        // Both orders of every split are visited, so one orientation.
        let (cost, _) = pair_cost(cx.model, &st1, &st2, card, false)?;
        let accepted = best.is_none_or(|(best_cost, _)| cost < best_cost);
        if accepted {
            best = Some((cost, s1.bits()));
        }
        if cx.provenance {
            cx.obs.on_event(Event::PlanCandidate {
                set: s.bits(),
                left: s1.bits(),
                right: s2.bits(),
                cost,
                accepted,
            });
        }
    }
    Ok(best.map(|(cost, s1)| {
        (
            PlanStats {
                cardinality: card,
                cost,
            },
            s1,
        )
    }))
}

/// The size-`k` subsets of an `n`-relation universe (`k ≤ n < 64`),
/// ascending (Gosper's hack).
fn level_sets(n: usize, k: usize) -> impl Iterator<Item = u64> {
    let limit = 1u64 << n;
    std::iter::successors(Some((1u64 << k) - 1), move |&v| {
        let c = v & v.wrapping_neg();
        let r = v + c;
        let next = (((r ^ v) >> 2) / c) | r;
        (next < limit).then_some(next)
    })
}

/// Runs `variant` on the pooled buffers of `session`.
///
/// Queries above [`DenseDpTable::MAX_RELATIONS`] are refused with
/// [`OptimizeError::TooManyRelations`]. `ctl` is checked before every
/// level and polled inside every inner loop. The run is charged against
/// its memory budget for the `2ⁿ` slots it uses and the nodes it
/// stores, not for the session's whole pooled footprint.
pub(crate) fn run_pooled(
    g: &QueryGraph,
    catalog: &Catalog,
    model: &dyn CostModel,
    variant: Variant,
    obs: &dyn Observer,
    ctl: &CancellationToken,
    session: &mut Session,
) -> Result<DpResult, OptimizeError> {
    let observe = obs.enabled();
    let n = g.num_relations();
    if observe {
        // Emitted before validation so failed runs still leave a
        // `run_start` in the trace (with no matching `run_end`).
        obs.on_event(Event::RunStart {
            algorithm: variant.name(),
            relations: n,
        });
        obs.on_event(Event::PhaseStart { phase: "init" });
    }
    if n == 0 {
        return Err(OptimizeError::EmptyQuery);
    }
    if n > DenseDpTable::MAX_RELATIONS {
        return Err(OptimizeError::TooManyRelations {
            algorithm: variant.name(),
            relations: n,
            max: DenseDpTable::MAX_RELATIONS,
        });
    }
    if variant != Variant::CrossProducts {
        g.require_connected()?;
    }
    ctl.check()?;
    failpoint::check("estimator")?;
    let est = CardinalityEstimator::new(g, catalog)?;
    let (table, arena) = session.dense_run(n);
    let mut charged = DenseDpTable::bytes_for(n) + arena_charge(n);
    ctl.charge(charged)?;

    for i in 0..n {
        let card = est.base_cardinality(i);
        let plan = arena.add_scan(i, card);
        table.insert(1u64 << i, plan, PlanStats::base(card));
    }
    let mut table_entries = n;
    let mut level_new: Vec<u64> = Vec::new();
    if observe {
        level_new = vec![0u64; n + 1];
        level_new[1] = n as u64;
        obs.on_event(Event::PhaseEnd { phase: "init" });
        obs.on_event(Event::PhaseStart { phase: "enumerate" });
    }

    let cx = Context {
        g,
        est: &est,
        model,
        variant,
        observe,
        provenance: observe && obs.wants_provenance(),
        obs,
        ctl,
    };
    let mut t = Tally::default();
    // (`level_new[k]` counts level `k`'s new entries — the index is the
    // level itself, not an iteration artifact.)
    #[allow(clippy::needless_range_loop)]
    for k in 2..=n {
        ctl.check()?;
        for bits in level_sets(n, k) {
            let s = RelSet::from_bits(bits);
            // The `*` check of Fig. 2 (outer connectedness pre-check).
            if variant == Variant::Filtered && !g.is_connected_set(s) {
                continue;
            }
            let Some((stats, s1)) = best_split(&cx, table, s, &mut t)? else {
                continue;
            };
            let plan = arena.add_join(table.plan(s1), table.plan(bits & !s1), stats);
            table.insert(bits, plan, stats);
            table_entries += 1;
            if observe {
                level_new[k] += 1;
            }
        }
        // Charge the arena growth of this level.
        let now = DenseDpTable::bytes_for(n) + arena_charge(arena.len());
        if now > charged {
            ctl.charge(now - charged)?;
            charged = now;
        }
    }
    let mut counters = t.counters;
    counters.ono_lohman = counters.csg_cmp_pairs / 2;

    if observe {
        obs.on_event(Event::PhaseEnd { phase: "enumerate" });
        obs.on_event(Event::PhaseStart { phase: "extract" });
    }
    let full = g.all_relations().bits();
    if !table.contains(full) {
        return Err(OptimizeError::Internal(
            "enumeration finished without a plan for the full relation set".into(),
        ));
    }
    let best = table.stats(full);
    let tree = arena.extract(table.plan(full));
    if observe {
        obs.on_event(Event::PhaseEnd { phase: "extract" });
        for (size, &new_entries) in level_new.iter().enumerate() {
            if new_entries > 0 {
                obs.on_event(Event::DpLevel { size, new_entries });
            }
        }
        obs.on_event(Event::TableStats {
            entries: table_entries,
            capacity: 1usize << n,
            probes: t.probes,
            hits: t.hits,
        });
        obs.on_event(Event::ArenaStats {
            nodes: arena.len(),
            bytes: arena.bytes(),
        });
        obs.on_event(Event::FinalCounters {
            inner: counters.inner,
            csg_cmp_pairs: counters.csg_cmp_pairs,
            ono_lohman: counters.ono_lohman,
        });
        obs.on_event(Event::RunEnd);
    }
    Ok(DpResult {
        cost: best.cost,
        cardinality: best.cardinality,
        tree,
        counters,
        table_size: table_entries,
        plans_built: arena.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Algorithm;
    use joinopt_cost::{workload, Cout};
    use joinopt_qgraph::{formulas, generators, GraphKind};
    use joinopt_telemetry::NoopObserver;

    #[test]
    fn inner_counter_matches_figure3_small() {
        let expect = [
            (GraphKind::Chain, 2, 2),
            (GraphKind::Chain, 5, 84),
            (GraphKind::Cycle, 5, 140),
            (GraphKind::Star, 5, 130),
            (GraphKind::Clique, 5, 180),
        ];
        for (kind, n, want) in expect {
            let w = workload::family_workload(kind, n, 1);
            let r = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(r.counters.inner, want, "{kind} n={n}");
        }
    }

    #[test]
    fn pair_counter_is_graph_property() {
        for kind in GraphKind::ALL {
            for n in 2..=9 {
                let w = workload::family_workload(kind, n, 7);
                let r = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                assert_eq!(
                    u128::from(r.counters.csg_cmp_pairs),
                    formulas::ccp_total(kind, n as u64),
                    "{kind} n={n}"
                );
            }
        }
    }

    #[test]
    fn unfiltered_counter_is_graph_independent() {
        // Without the `*` check the inner counter is 3ⁿ − 2ⁿ⁺¹ + 1 for
        // every graph shape.
        for kind in GraphKind::ALL {
            let n = 8u32;
            let w = workload::family_workload(kind, n as usize, 2);
            let r = DpSubUnfiltered
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            let want = 3u64.pow(n) - (1 << (n + 1)) + 1;
            assert_eq!(r.counters.inner, want, "{kind}");
        }
    }

    #[test]
    fn unfiltered_equals_filtered_on_cliques() {
        let w = workload::family_workload(GraphKind::Clique, 8, 3);
        let a = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        let b = DpSubUnfiltered
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert_eq!(a.counters.inner, b.counters.inner);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn unfiltered_and_filtered_agree_on_random_graphs() {
        // Filtered DPsub skips the S₁–S₂ edge test the unfiltered
        // variant keeps; both must still accept exactly the same splits,
        // in the same order, on every graph.
        use joinopt_cost::HashJoin;
        for seed in 0..12 {
            let w = workload::random_workload(3 + seed as usize % 8, 0.3, seed);
            for model in [&Cout as &dyn CostModel, &HashJoin] {
                let a = DpSub.optimize(&w.graph, &w.catalog, model).unwrap();
                let b = DpSubUnfiltered
                    .optimize(&w.graph, &w.catalog, model)
                    .unwrap();
                assert_eq!(
                    a.counters.csg_cmp_pairs, b.counters.csg_cmp_pairs,
                    "seed {seed}"
                );
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "seed {seed}");
                assert_eq!(a.tree, b.tree, "seed {seed}");
            }
        }
    }

    #[test]
    fn cross_product_variant_never_worse() {
        // Allowing cross products can only improve (or match) the cost.
        for kind in GraphKind::ALL {
            let w = workload::family_workload(kind, 7, 11);
            let without = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let with = DpSubCrossProducts
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            assert!(with.cost <= without.cost, "{kind}");
            // And it explores the full 3ⁿ-ish space:
            let n = 7u32;
            assert_eq!(with.counters.inner, 3u64.pow(n) - (1 << (n + 1)) + 1);
            assert_eq!(with.table_size, (1 << n) - 1);
        }
    }

    #[test]
    fn cross_product_variant_handles_disconnected_graphs() {
        let g = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let cat = Catalog::new(&g);
        assert!(DpSub.optimize(&g, &cat, &Cout).is_err());
        let r = DpSubCrossProducts.optimize(&g, &cat, &Cout).unwrap();
        assert_eq!(r.tree.num_relations(), 4);
    }

    #[test]
    fn agrees_with_dpsize_on_random_workloads() {
        use crate::dpsize::DpSize;
        for seed in 0..10 {
            let w = workload::random_workload(8, 0.35, seed);
            let a = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let b = DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(
                a.cost.to_bits(),
                b.cost.to_bits(),
                "seed {seed}: {} vs {}",
                a.cost,
                b.cost
            );
            assert_eq!(
                a.counters.csg_cmp_pairs, b.counters.csg_cmp_pairs,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn table_covers_exactly_connected_sets() {
        let g = generators::cycle(6).unwrap();
        let w = Catalog::new(&g);
        let r = DpSub.optimize(&g, &w, &Cout).unwrap();
        assert_eq!(
            u128::from(r.table_size as u64),
            formulas::csg_count(GraphKind::Cycle, 6)
        );
    }

    #[test]
    fn gosper_enumerates_levels_completely_and_ascending() {
        let mut all = Vec::new();
        for k in 1..=6 {
            let level: Vec<u64> = level_sets(6, k).collect();
            assert!(level.windows(2).all(|w| w[0] < w[1]), "k={k} not ascending");
            assert!(
                level.iter().all(|b| b.count_ones() as usize == k),
                "k={k} has wrong popcounts"
            );
            all.extend(level);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), (1 << 6) - 1, "all non-empty subsets visited");
    }

    #[test]
    fn plans_built_equals_table_size_for_every_variant() {
        use crate::request::OptimizeRequest;
        let w = workload::family_workload(GraphKind::Cycle, 8, 5);
        let orderers: [(&dyn JoinOrderer, Algorithm); 3] = [
            (&DpSub, Algorithm::DpSub),
            (&DpSubUnfiltered, Algorithm::DpSubUnfiltered),
            (&DpSubCrossProducts, Algorithm::DpSubCrossProducts),
        ];
        for (orderer, alg) in orderers {
            let direct = orderer.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(direct.plans_built, direct.table_size, "{alg:?} direct");
            let requested = OptimizeRequest::new(&w.graph, &w.catalog)
                .with_algorithm(alg)
                .run()
                .unwrap()
                .into_result();
            assert_eq!(requested.plans_built, requested.table_size, "{alg:?}");
            // One loop behind both entry points: identical runs.
            assert_eq!(requested.cost.to_bits(), direct.cost.to_bits(), "{alg:?}");
            assert_eq!(requested.tree, direct.tree, "{alg:?}");
            assert_eq!(requested.counters, direct.counters, "{alg:?}");
        }
    }

    #[test]
    fn above_the_dense_cap_is_a_typed_refusal_without_degradation() {
        use crate::degrade::BudgetAction;
        use crate::request::OptimizeRequest;
        let n = DenseDpTable::MAX_RELATIONS + 1;
        let w = workload::family_workload(GraphKind::Chain, n, 0);
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .on_budget_exceeded(BudgetAction::Degrade)
            .run()
            .expect_err("refused, not degraded to a heuristic plan");
        assert_eq!(
            err,
            OptimizeError::TooManyRelations {
                algorithm: "DPsub",
                relations: n,
                max: DenseDpTable::MAX_RELATIONS,
            }
        );
        let direct = DpSubCrossProducts.optimize(&w.graph, &w.catalog, &Cout);
        assert!(matches!(
            direct,
            Err(OptimizeError::TooManyRelations { .. })
        ));
    }

    fn run_in(
        w: &workload::Workload,
        session: &mut Session,
        ctl: &CancellationToken,
    ) -> Result<DpResult, OptimizeError> {
        run_pooled(
            &w.graph,
            &w.catalog,
            &Cout,
            Variant::Filtered,
            &NoopObserver,
            ctl,
            session,
        )
    }

    #[test]
    fn session_reuse_is_deterministic_and_pools_allocations() {
        let w = workload::family_workload(GraphKind::Cycle, 10, 1);
        let ctl = CancellationToken::unlimited();
        let mut session = Session::new();
        let first = run_in(&w, &mut session, &ctl).unwrap();
        let pooled = session.pooled_bytes();
        assert!(pooled > 0);
        for _ in 0..3 {
            let again = run_in(&w, &mut session, &ctl).unwrap();
            assert_eq!(first.cost.to_bits(), again.cost.to_bits());
            assert_eq!(first.tree, again.tree);
            assert_eq!(first.counters, again.counters);
            // No regrowth: the pool already fits the workload.
            assert_eq!(session.pooled_bytes(), pooled);
        }
        assert_eq!(session.runs(), 4);
    }

    #[test]
    fn pooled_session_does_not_leak_state_between_queries() {
        // Interleave graphs of growing and shrinking size through one
        // session; every answer must match a fresh one-shot run.
        let ctl = CancellationToken::unlimited();
        let mut session = Session::new();
        for n in [7, 5, 9, 6] {
            for kind in GraphKind::ALL {
                let w = workload::family_workload(kind, n, n as u64);
                for variant in [Variant::Filtered, Variant::CrossProducts] {
                    let run = |session: &mut Session| {
                        run_pooled(
                            &w.graph,
                            &w.catalog,
                            &Cout,
                            variant,
                            &NoopObserver,
                            &ctl,
                            session,
                        )
                        .unwrap()
                    };
                    let pooled = run(&mut session);
                    let fresh = run(&mut Session::new());
                    assert_eq!(pooled.cost.to_bits(), fresh.cost.to_bits());
                    assert_eq!(pooled.tree, fresh.tree);
                    assert_eq!(pooled.counters, fresh.counters);
                    assert_eq!(pooled.table_size, fresh.table_size);
                }
            }
        }
    }

    #[test]
    fn zero_time_budget_aborts_the_run() {
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let budget = std::time::Duration::ZERO;
        let ctl = CancellationToken::new(None, Some(budget), None);
        let err = run_in(&w, &mut Session::new(), &ctl).unwrap_err();
        assert_eq!(err, OptimizeError::TimeBudgetExceeded { budget });
    }

    #[test]
    fn cancel_flag_stops_the_inner_loop() {
        use crate::cancel::CancelFlag;
        use std::cell::Cell;

        /// Flips the cancel flag at the first candidate split of the
        /// full set: no level check follows, so only the inner loop's
        /// own poll can stop the run.
        struct CancelAtFullSet {
            full: u64,
            flag: CancelFlag,
            seen: Cell<u64>,
        }
        impl Observer for CancelAtFullSet {
            fn wants_provenance(&self) -> bool {
                true
            }
            fn on_event(&self, event: Event) {
                if let Event::PlanCandidate { set, .. } = event {
                    if set == self.full {
                        self.seen.set(self.seen.get() + 1);
                        self.flag.cancel();
                    }
                }
            }
        }

        let w = workload::family_workload(GraphKind::Clique, 8, 0);
        let flag = CancelFlag::new();
        let obs = CancelAtFullSet {
            full: w.graph.all_relations().bits(),
            flag: flag.clone(),
            seen: Cell::new(0),
        };
        let ctl = CancellationToken::new(Some(flag), None, None);
        let err = run_pooled(
            &w.graph,
            &w.catalog,
            &Cout,
            Variant::Filtered,
            &obs,
            &ctl,
            &mut Session::new(),
        )
        .unwrap_err();
        assert_eq!(err, OptimizeError::Cancelled);
        // The full set has 2⁸ − 2 splits; the run stopped after one.
        assert_eq!(obs.seen.get(), 1);
    }

    #[test]
    fn memory_budget_trips_on_the_pooled_footprint() {
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let ctl = CancellationToken::new(None, None, Some(1024));
        let err = run_in(&w, &mut Session::new(), &ctl).unwrap_err();
        assert!(matches!(err, OptimizeError::MemoryBudgetExceeded { .. }));
        assert!(ctl.memory_used() > 1024);
    }
}
