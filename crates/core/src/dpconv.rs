//! DPconv: layered subset-convolution DP over the ranked lattice.
//!
//! For `C_out`-shaped cost models the Bellman recurrence of the
//! join-ordering DP is a min-plus subset convolution: because the cost
//! of a join is `|S| + cost(T) + cost(S \ T)` — a per-*set* term plus
//! the children — the table satisfies
//!
//! ```text
//! dp(S) = card(S) + min over valid splits T of (dp(T) + dp(S \ T))
//! ```
//!
//! with `dp({R}) = 0`, i.e. `dp = card ⊕ (dp ⊛ dp)` layer by layer on
//! the popcount-ranked lattice (DPconv; Stoian & Kipf, arXiv
//! 2409.08013). The cross-product-free mask falls out of graph
//! connectivity alone: for a connected `S`, a split `(T, S \ T)` with
//! both halves connected always has an edge across the cut (otherwise
//! `S` would be disconnected), so validity is exactly
//! `conn(T) ∧ conn(S \ T)` — precomputed once as a dense bitmap from
//! the existing connectivity machinery.
//!
//! Per rank layer `ℓ` the engine picks, deterministically from the
//! rank sizes alone, the cheaper of two relaxation kernels:
//!
//! * **half-subset** — per set `S`, enumerate the `2^(ℓ−1) − 1`
//!   submasks avoiding `lowest(S)` (each unordered split once); total
//!   `Θ(3^n)` but with a trivial array-indexed inner loop, best on
//!   dense graphs where most masks are connected anyway;
//! * **rank-pair lists** — convolve the connected-set lists of ranks
//!   `k` and `ℓ − k` (`Σ |ranks[k]| · |ranks[ℓ−k]|` candidates),
//!   polynomial on chains/stars/trees where connected sets are scarce.
//!
//! The exact `O(2^n · n²)` ranked transform of [`crate::transform`]
//! applies to *ring* subset convolution; over the `(min, +)` semiring
//! used for exact `f64` costs no sub-`3^n` method is known (the
//! integer-cost rounding scheme of the DPconv paper trades exactness
//! away), so the layered enumeration above is the honest exact
//! instantiation — and the ring transform independently cross-checks
//! the candidate-count accounting in the conformance oracle.
//!
//! Candidates are priced by the kernel's inline `C_out` price
//! ([`cout_cost`]): `(dp(T) + dp(S \ T)) + card(S)`, the pair-cost
//! kernel's order, over the estimator's set-only cardinalities, so
//! DPconv's optimum is the other exact engines' f64 bit for bit. The
//! largest candidate of each set (half-subset kernel) or layer
//! (rank-pair kernel) goes through [`finite_cost`], so a candidate that
//! overflows fails the run with the typed error the other engines
//! return, even when it would have lost. Plan reconstruction never
//! trusts the float min-plus alone: each recorded witness split is
//! re-validated against the DP table (disjointness, connectivity of
//! both halves, and an exact re-derivation of `dp(S)` through the
//! kernel) before a join node is materialized, so a corrupted witness
//! surfaces as [`OptimizeError::Internal`] instead of a silently wrong
//! tree.
//!
//! The init loop and both kernels run in counted blocks of at most
//! `POLL_PERIOD` (256) sets or splits with one
//! [`poll`](CancellationToken::poll) of the token before each, so their
//! bodies hold no cancellation code. The init loop folds a connected
//! set's cardinality by continuing the fold of the set without its
//! highest relation when that set is connected (one
//! [`extend_cardinality`](CardinalityEstimator::extend_cardinality)
//! step, the same bits), and from scratch otherwise.

use joinopt_cost::{CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::{PlanArena, PlanId};
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;
use joinopt_telemetry::Observer;

use crate::cancel::{CancellationToken, POLL_PERIOD};
use crate::counters::Counters;
use crate::dpsub::Session;
use crate::driver::{Spans, TableStats};
use crate::error::OptimizeError;
use crate::failpoint;
use crate::kernel::{cardinality, cout_cost, finite_cost};
use crate::result::{DpResult, JoinOrderer};
use crate::table::DenseDpTable;

/// Subset-convolution DP over the ranked lattice (exact, `C_out`-shaped
/// cost models only).
///
/// Capped at [`crate::table::DenseDpTable::MAX_RELATIONS`] relations by
/// its dense `2^n` tables; refuses non-`C_out`-shaped cost models with
/// [`OptimizeError::UnsupportedCostModel`] because the recurrence above
/// is only the join-ordering DP when the per-split cost term depends on
/// the union set alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpConv;

impl JoinOrderer for DpConv {
    fn name(&self) -> &'static str {
        "DPconv"
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
        run_pooled(g, catalog, model, obs, ctl, session.dpconv_scratch())
    }
}

/// Pooled dense state for DPconv runs, embedded in
/// [`crate::Session`] so repeated queries reuse the `2^n` tables.
#[derive(Debug, Default)]
pub(crate) struct DpConvScratch {
    /// `conn[S]`: the relation set with bitmask `S` is connected.
    conn: Vec<bool>,
    /// `card[S]`: estimated cardinality (filled for connected sets).
    card: Vec<f64>,
    /// `dp[S]`: optimal `C_out` cost (`∞` until relaxed).
    dp: Vec<f64>,
    /// `witness[S]`: one side of the split that achieved `dp[S]`.
    witness: Vec<u64>,
    /// Connected masks grouped by popcount, ascending numeric order.
    ranks: Vec<Vec<u64>>,
}

impl DpConvScratch {
    /// Bytes of dense storage currently allocated (capacities).
    pub fn bytes(&self) -> usize {
        self.conn.capacity() * std::mem::size_of::<bool>()
            + self.card.capacity() * std::mem::size_of::<f64>()
            + self.dp.capacity() * std::mem::size_of::<f64>()
            + self.witness.capacity() * std::mem::size_of::<u64>()
            + self
                .ranks
                .iter()
                .map(|r| r.capacity() * std::mem::size_of::<u64>())
                .sum::<usize>()
    }

    /// Bytes of the four `2ⁿ`-slot arrays a run over `n` relations
    /// uses — what it is charged, whatever capacity earlier runs left.
    fn bytes_for(n: usize) -> usize {
        (1usize << n)
            * (std::mem::size_of::<bool>()
                + 2 * std::mem::size_of::<f64>()
                + std::mem::size_of::<u64>())
    }

    /// Resets for a query of `n` relations, keeping allocations.
    fn prepare(&mut self, n: usize) {
        let size = 1usize << n;
        self.conn.clear();
        self.conn.resize(size, false);
        self.card.clear();
        self.card.resize(size, 0.0);
        self.dp.clear();
        self.dp.resize(size, f64::INFINITY);
        self.witness.clear();
        self.witness.resize(size, 0);
        if self.ranks.len() < n + 1 {
            self.ranks.resize_with(n + 1, Vec::new);
        }
        for rank in &mut self.ranks {
            rank.clear();
        }
    }
}

/// One DPconv run inside pooled scratch ([`DpConv::optimize_in`] hands
/// it the session's).
pub(crate) fn run_pooled(
    g: &QueryGraph,
    catalog: &Catalog,
    model: &dyn CostModel,
    obs: &dyn Observer,
    ctl: &CancellationToken,
    scratch: &mut DpConvScratch,
) -> Result<DpResult, OptimizeError> {
    let n = g.num_relations();
    let mut spans = Spans::start(obs, DpConv.name(), n);
    if n == 0 {
        return Err(OptimizeError::EmptyQuery);
    }
    if !model.is_cout_shaped() {
        return Err(OptimizeError::UnsupportedCostModel {
            algorithm: DpConv.name(),
            model: model.name(),
        });
    }
    if n > DenseDpTable::MAX_RELATIONS {
        return Err(OptimizeError::TooManyRelations {
            algorithm: DpConv.name(),
            relations: n,
            max: DenseDpTable::MAX_RELATIONS,
        });
    }
    g.require_connected()?;
    ctl.check()?;
    failpoint::check("estimator")?;
    let est = CardinalityEstimator::new(g, catalog)?;

    spans.begin("init");
    spans.level(1, n as u64);
    if n == 1 {
        let mut arena = PlanArena::with_capacity(1);
        let id = arena.add_scan(0, est.base_cardinality(0));
        spans.end("init");
        spans.begin("enumerate");
        spans.end("enumerate");
        spans.begin("extract");
        let tree = arena.extract(id);
        spans.end("extract");
        let counters = Counters::new();
        let table = TableStats {
            entries: 1,
            capacity: 2,
            probes: 0,
            hits: 0,
        };
        spans.finish(Some(table), &arena, &counters);
        return Ok(DpResult {
            tree,
            cost: 0.0,
            cardinality: est.base_cardinality(0),
            counters,
            table_size: 1,
            plans_built: 1,
        });
    }

    let size = 1usize << n;
    scratch.prepare(n);
    ctl.charge(DpConvScratch::bytes_for(n))?;
    let mut pace = 0u32;

    // Connectivity bitmap + ranked connected-set lists + per-set
    // cardinalities, all from the existing graph/estimator machinery.
    // A set's cardinality continues the fold of the set without its
    // highest relation when that set is connected (so already filled:
    // it is numerically smaller), and folds from scratch otherwise.
    let mut csgs = 0usize;
    let mut s = 1usize;
    while s < size {
        let block = (size - s).min(POLL_PERIOD as usize);
        ctl.poll(&mut pace, block as u32)?;
        for s in s..s + block {
            let set = RelSet::from_bits(s as u64);
            if g.is_connected_set(set) {
                scratch.conn[s] = true;
                scratch.ranks[set.len()].push(s as u64);
                let below = s & !(1usize << (usize::BITS - 1 - s.leading_zeros()));
                let below = scratch.conn[below].then(|| scratch.card[below]);
                scratch.card[s] = cardinality(&est, set, below)?;
                csgs += 1;
            }
        }
        s += block;
    }
    // The rank lists hold one mask per connected set.
    ctl.charge(csgs * std::mem::size_of::<u64>())?;
    for i in 0..n {
        scratch.dp[1usize << i] = 0.0;
    }
    spans.end("init");

    spans.begin("enumerate");
    let mut counters = Counters::new();
    for level in 2..=n {
        // Deterministic kernel choice from rank sizes alone, so a given
        // graph always runs the same candidate order (bit-stable costs,
        // witnesses and counters across runs and sessions).
        let cost_half: u128 = scratch.ranks[level].len() as u128 * (1u128 << (level - 1));
        let cost_pairs: u128 = (1..=level / 2)
            .map(|k| scratch.ranks[k].len() as u128 * scratch.ranks[level - k].len() as u128)
            .sum();
        // Behavioral failpoint `dpconv-rank-skip`: drop the balanced
        // convolution layer of the final rank — exactly the kind of
        // silent off-by-one-layer bug the conformance oracle must catch.
        let skip_balanced = failpoint::flag("dpconv-rank-skip") && level == n && n >= 4;
        if cost_pairs < cost_half {
            relax_rank_pairs(
                scratch,
                &mut counters,
                level,
                skip_balanced,
                |s, t, u, cand, accepted| spans.candidate(s, t, u, cand, accepted),
                ctl,
                &mut pace,
            )?;
        } else {
            relax_half_subsets(
                scratch,
                &mut counters,
                level,
                skip_balanced,
                |s, t, u, cand, accepted| spans.candidate(s, t, u, cand, accepted),
                ctl,
                &mut pace,
            )?;
        }
        spans.level(level, scratch.ranks[level].len() as u64);
    }
    counters.csg_cmp_pairs = 2 * counters.ono_lohman;
    let full = size - 1;
    if !scratch.dp[full].is_finite() {
        return Err(OptimizeError::Internal(
            "DPconv finished without a finite cost for the full relation set".into(),
        ));
    }
    spans.end("enumerate");

    spans.begin("extract");
    let mut arena = PlanArena::with_capacity(2 * n);
    let (root, _) = build_tree(full as u64, scratch, &mut arena)?;
    ctl.charge(arena.bytes())?;
    let tree = arena.extract(root);
    spans.end("extract");
    let root_stats = arena.stats(root);
    // The table is a dense array indexed by mask: DPconv reads it
    // directly and never probes for an entry that may be missing, so
    // like the n = 1 path it reports no probes and no hits.
    let table = TableStats {
        entries: csgs,
        capacity: size,
        probes: 0,
        hits: 0,
    };
    spans.finish(Some(table), &arena, &counters);
    Ok(DpResult {
        tree,
        cost: root_stats.cost,
        cardinality: root_stats.cardinality,
        counters,
        table_size: csgs,
        plans_built: arena.len(),
    })
}

/// Half-subset kernel: per connected set of `level` relations,
/// enumerate the submasks avoiding the lowest relation (each unordered
/// split exactly once).
#[allow(clippy::too_many_arguments)]
fn relax_half_subsets(
    scratch: &mut DpConvScratch,
    counters: &mut Counters,
    level: usize,
    skip_balanced: bool,
    mut candidate: impl FnMut(u64, u64, u64, f64, bool),
    ctl: &CancellationToken,
    pace: &mut u32,
) -> Result<(), OptimizeError> {
    let balanced = level / 2;
    // `t` walks the non-empty submasks of `S ∖ lowest(S)`.
    let splits = (1u32 << (level - 1)) - 1;
    for idx in 0..scratch.ranks[level].len() {
        let s = scratch.ranks[level][idx] as usize;
        let base = scratch.card[s];
        let rest = s & (s - 1); // drop lowest(S): canonical orientation
        counters.inner += u64::from(splits);
        let mut worst = 0.0f64;
        let mut t = rest;
        // Counted blocks of at most `POLL_PERIOD` splits, one poll
        // before each, so the walk holds no cancellation code.
        let mut left = splits;
        while left != 0 {
            let block = left.min(POLL_PERIOD);
            left -= block;
            ctl.poll(pace, block)?;
            for _ in 0..block {
                let halves = (t.count_ones() as usize).min(level - t.count_ones() as usize);
                if !(skip_balanced && halves == balanced) {
                    let u = s ^ t;
                    if scratch.conn[t] && scratch.conn[u] {
                        counters.ono_lohman += 1;
                        let cand = cout_cost(scratch.dp[t], scratch.dp[u], base);
                        worst = if cand > worst { cand } else { worst };
                        let accepted = cand < scratch.dp[s];
                        candidate(s as u64, t as u64, u as u64, cand, accepted);
                        if accepted {
                            scratch.dp[s] = cand;
                            scratch.witness[s] = t as u64;
                        }
                    }
                }
                t = (t - 1) & rest;
            }
        }
        finite_cost(worst)?;
    }
    Ok(())
}

/// Rank-pair kernel: convolve the connected-set lists of complementary
/// ranks (`k` against `level − k`), deduplicating the equal-rank case
/// by numeric order.
#[allow(clippy::too_many_arguments)]
fn relax_rank_pairs(
    scratch: &mut DpConvScratch,
    counters: &mut Counters,
    level: usize,
    skip_balanced: bool,
    mut candidate: impl FnMut(u64, u64, u64, f64, bool),
    ctl: &CancellationToken,
    pace: &mut u32,
) -> Result<(), OptimizeError> {
    let mut worst = 0.0f64;
    for k in 1..=level / 2 {
        if skip_balanced && k == level / 2 {
            continue;
        }
        let partners = scratch.ranks[level - k].len();
        for ai in 0..scratch.ranks[k].len() {
            let a = scratch.ranks[k][ai] as usize;
            counters.inner += partners as u64;
            // Counted blocks of at most `POLL_PERIOD` partners, one
            // poll before each.
            let mut from = 0;
            while from < partners {
                let to = partners.min(from + POLL_PERIOD as usize);
                ctl.poll(pace, (to - from) as u32)?;
                for bi in from..to {
                    let b = scratch.ranks[level - k][bi] as usize;
                    if a & b != 0 || (2 * k == level && a > b) {
                        continue;
                    }
                    let s = a | b;
                    if !scratch.conn[s] {
                        continue;
                    }
                    counters.ono_lohman += 1;
                    let cand = cout_cost(scratch.dp[a], scratch.dp[b], scratch.card[s]);
                    worst = if cand > worst { cand } else { worst };
                    let accepted = cand < scratch.dp[s];
                    candidate(s as u64, a as u64, b as u64, cand, accepted);
                    if accepted {
                        scratch.dp[s] = cand;
                        scratch.witness[s] = a as u64;
                    }
                }
                from = to;
            }
        }
    }
    finite_cost(worst)?;
    Ok(())
}

/// Recursively materializes the plan for mask `s`, re-validating every
/// witness split against the DP table before trusting it.
fn build_tree(
    s: u64,
    scratch: &DpConvScratch,
    arena: &mut PlanArena,
) -> Result<(PlanId, PlanStats), OptimizeError> {
    let set = RelSet::from_bits(s);
    let idx = s as usize;
    if set.is_singleton() {
        let card = scratch.card[idx];
        let id = arena.add_scan(set.min_index().unwrap_or(0), card);
        return Ok((id, PlanStats::base(card)));
    }
    let t = scratch.witness[idx];
    let u = s ^ t;
    let corrupt = |why: &str| {
        OptimizeError::Internal(format!(
            "DPconv witness for {set} is corrupt ({why}): split {} | {}",
            RelSet::from_bits(t),
            RelSet::from_bits(u)
        ))
    };
    if t == 0 || u == 0 || t & s != t {
        return Err(corrupt("not a proper split"));
    }
    if !scratch.conn[t as usize] || !scratch.conn[u as usize] {
        return Err(corrupt("disconnected half"));
    }
    let (left, lstats) = build_tree(t, scratch, arena)?;
    let (right, rstats) = build_tree(u, scratch, arena)?;
    let out_card = scratch.card[idx];
    // The relaxation priced `(dp(T) + dp(S∖T)) + |S|` the same way, so
    // a sound witness re-derives `dp(S)` bit for bit.
    let cost = finite_cost(cout_cost(lstats.cost, rstats.cost, out_card))?;
    if cost.to_bits() != scratch.dp[idx].to_bits() {
        return Err(corrupt("cost does not re-derive from the table"));
    }
    let stats = PlanStats {
        cardinality: out_card,
        cost,
    };
    failpoint::check("arena-alloc")?;
    let id = arena.add_join(left, right, stats);
    Ok((id, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpccp::DpCcp;
    use crate::dpsub::DpSub;
    use joinopt_cost::{workload, CostError, Cout, HashJoin, SortMergeJoin};
    use joinopt_qgraph::{GraphKind, QueryGraph};

    #[test]
    fn agrees_with_dpccp_across_families_and_sizes() {
        for kind in GraphKind::ALL {
            for n in 2..=10 {
                for seed in 0..3 {
                    let w = workload::family_workload(kind, n, seed);
                    let conv = DpConv.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                    let ccp = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                    assert_eq!(
                        conv.cost.to_bits(),
                        ccp.cost.to_bits(),
                        "{kind} n={n} seed={seed}: {} vs {}",
                        conv.cost,
                        ccp.cost
                    );
                }
            }
        }
    }

    #[test]
    fn counters_match_the_graph_properties() {
        // ono_lohman counts each valid unordered split of each connected
        // set exactly once — the graph's #ccp — whichever kernel runs.
        for kind in GraphKind::ALL {
            let w = workload::family_workload(kind, 9, 5);
            let r = DpConv.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let ccps = joinopt_qgraph::csg::count_ccp_distinct(&w.graph);
            assert_eq!(r.counters.ono_lohman, ccps, "{kind}");
            assert_eq!(r.counters.csg_cmp_pairs, 2 * r.counters.ono_lohman);
            assert_eq!(
                r.table_size as u64,
                joinopt_qgraph::csg::count_csg(&w.graph),
                "{kind}"
            );
            assert!(r.counters.inner >= r.counters.ono_lohman);
            assert!(r.counters.hit_rate() <= 1.0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = workload::random_workload(9, 0.5, 77);
        let a = DpConv.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        let b = DpConv.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn plan_tree_is_consistent() {
        let w = workload::random_workload(9, 0.35, 4);
        let r = DpConv.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(r.tree.relations(), w.graph.all_relations());
        assert_eq!(r.tree.num_joins(), 8);
        assert_eq!(r.tree.cost(), r.cost);
        assert_eq!(r.tree.cardinality(), r.cardinality);
        assert_eq!(r.plans_built, 2 * 9 - 1);
    }

    #[test]
    fn non_cout_models_get_a_typed_refusal() {
        // The pinned cost-model contract: an incompatible model is a
        // typed error, never a silently wrong plan.
        let w = workload::family_workload(GraphKind::Chain, 5, 0);
        for model in [&HashJoin as &dyn CostModel, &SortMergeJoin] {
            let err = DpConv
                .optimize(&w.graph, &w.catalog, model)
                .expect_err("non-C_out model must be refused");
            assert!(
                matches!(
                    err,
                    OptimizeError::UnsupportedCostModel {
                        algorithm: "DPconv",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn size_cap_is_a_typed_error() {
        let g = joinopt_qgraph::generators::chain(DenseDpTable::MAX_RELATIONS + 1).unwrap();
        let cat = Catalog::new(&g);
        let err = DpConv.optimize(&g, &cat, &Cout).unwrap_err();
        assert!(
            matches!(err, OptimizeError::TooManyRelations { .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_disconnected_and_empty() {
        let g = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let cat = Catalog::new(&g);
        assert!(matches!(
            DpConv.optimize(&g, &cat, &Cout),
            Err(OptimizeError::Graph(_))
        ));
        let empty = QueryGraph::new(0).unwrap();
        assert!(matches!(
            DpConv.optimize(&empty, &Catalog::new(&empty), &Cout),
            Err(OptimizeError::EmptyQuery)
        ));
    }

    #[test]
    fn single_relation_is_the_free_scan() {
        let w = workload::family_workload(GraphKind::Chain, 1, 0);
        let r = DpConv.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.tree.num_relations(), 1);
        assert_eq!(r.counters.inner, 0);
        assert_eq!(r.table_size, 1);
    }

    #[test]
    fn both_kernels_agree_on_shapes_that_exercise_them() {
        // Cliques drive the half-subset kernel (every mask connected),
        // chains/stars the rank-pair kernel (connected sets are scarce);
        // all must agree with the sequential reference.
        for kind in [GraphKind::Clique, GraphKind::Chain, GraphKind::Star] {
            let w = workload::family_workload(kind, 10, 2);
            let conv = DpConv.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let sub = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(conv.cost.to_bits(), sub.cost.to_bits(), "{kind}");
            assert_eq!(conv.counters.ono_lohman, sub.counters.ono_lohman, "{kind}");
        }
    }

    #[test]
    fn both_kernels_refuse_an_overflowing_candidate() {
        // Two relations whose plans cost 1e308 each: the only split of
        // their union overflows. An infinite candidate never beats the
        // initial `∞`, so only the check fails the run, as every other
        // exact engine fails.
        for relax in [relax_half_subsets, relax_rank_pairs] {
            let mut scratch = DpConvScratch::default();
            scratch.prepare(2);
            for s in [0b01, 0b10, 0b11] {
                scratch.conn[s] = true;
                scratch.card[s] = 1.0;
                scratch.ranks[s.count_ones() as usize].push(s as u64);
            }
            scratch.dp[0b01] = 1e308;
            scratch.dp[0b10] = 1e308;
            let ctl = CancellationToken::unlimited();
            let noop = |_, _, _, _, _| {};
            let err = relax(
                &mut scratch,
                &mut Counters::new(),
                2,
                false,
                noop,
                &ctl,
                &mut 0,
            );
            assert!(
                matches!(
                    err,
                    Err(OptimizeError::Cost(CostError::NonFiniteEstimate {
                        what: "cost",
                        ..
                    }))
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn cancellation_and_memory_budgets_are_honoured() {
        use crate::cancel::CancelFlag;
        use joinopt_telemetry::NoopObserver;
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let flag = CancelFlag::new();
        flag.cancel();
        let ctl = CancellationToken::new(Some(flag), None, None);
        let err = DpConv
            .optimize_controlled(&w.graph, &w.catalog, &Cout, &NoopObserver, &ctl)
            .unwrap_err();
        assert!(matches!(err, OptimizeError::Cancelled));
        let tiny = CancellationToken::new(None, None, Some(1024));
        let err = DpConv
            .optimize_controlled(&w.graph, &w.catalog, &Cout, &NoopObserver, &tiny)
            .unwrap_err();
        assert!(matches!(err, OptimizeError::MemoryBudgetExceeded { .. }));
    }

    #[test]
    fn cancel_flag_stops_the_inner_loop() {
        use crate::cancel::stop_probe::cancel_at_the_full_set;

        // The full set of a 12-clique is the last rank's only set, run
        // by the half-subset kernel over its 2,047 splits with no check
        // between ranks: the kernel's block polls must stop the run
        // within 2 · `POLL_PERIOD` splits of the raise.
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let (run, splits) = cancel_at_the_full_set(&DpConv, &w);
        assert_eq!(run, Err(OptimizeError::Cancelled));
        assert!(
            (1..=2 * u64::from(POLL_PERIOD)).contains(&splits),
            "{splits} splits after the raise"
        );
    }

    #[test]
    fn telemetry_skeleton_and_provenance_are_emitted() {
        use joinopt_telemetry::MetricsCollector;
        let w = workload::family_workload(GraphKind::Cycle, 7, 1);
        let metrics = MetricsCollector::new();
        let observed = DpConv
            .optimize_observed(&w.graph, &w.catalog, &Cout, &metrics)
            .unwrap();
        let silent = DpConv.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        // Observation must not perturb the result.
        assert_eq!(observed.cost.to_bits(), silent.cost.to_bits());
        assert_eq!(observed.tree, silent.tree);
        assert_eq!(observed.counters, silent.counters);
        let report = metrics.report();
        assert_eq!(report.algorithm, "DPconv");
        assert_eq!(report.relations, 7);
        assert!(!report.phases.is_empty());
        // Every level is tallied, singletons included, as the other
        // DP engines report them.
        assert_eq!(report.levels[0].size, 1);
        assert_eq!(report.level_total(), report.table_entries as u64);
    }
}
