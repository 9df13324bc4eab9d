//! Top-down partitioning search with memoization and optional
//! branch-and-bound pruning.
//!
//! The bottom-up DP algorithms of the paper build every connected subset
//! unconditionally. The *top-down* family (DeHaan & Tompa; Fender &
//! Moerkotte) instead recursively partitions the full relation set into
//! csg-cmp-pairs, memoizing solved subsets — same optimal result, same
//! asymptotic enumeration, but with a crucial extra ability: **cost
//! bounding**. A subproblem whose admissible lower bound already exceeds
//! the best known alternative is never expanded; a greedy (GOO) plan
//! seeds the initial upper bound.
//!
//! The partitioner implemented here is the *basic* generate-and-filter
//! one (connected `S₁ ∋ min(S)` via neighborhood growth, complement
//! checked for connectivity) — honest TDBasic, not the advanced min-cut
//! partitioners. The point of the module is the search-strategy
//! comparison, which the `topdown_pruning` ablation bench and the test
//! suite quantify: pruning never changes the answer and can skip large
//! parts of the space on favorable statistics.
//!
//! Memo entries are either *exact* (a proven-optimal plan for the set)
//! or *pruned* (a proven lower bound); pruned entries are re-expanded if
//! a later caller arrives with a higher budget.

use joinopt_cost::{ensure_finite, CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::{PlanArena, PlanId};
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;
use joinopt_telemetry::Observer;

use crate::cancel::CancellationToken;
use crate::counters::Counters;
use crate::dpsub::Session;
use crate::driver::{Spans, TableStats};
use crate::error::OptimizeError;
use crate::greedy::Goo;
use crate::kernel::pair_cost;
use crate::result::{DpResult, JoinOrderer};

/// Top-down memoized partitioning search.
#[derive(Debug, Clone, Copy)]
pub struct TopDown {
    /// Enable branch-and-bound pruning (seeded by a GOO plan).
    pub pruning: bool,
}

impl Default for TopDown {
    fn default() -> Self {
        TopDown { pruning: true }
    }
}

impl TopDown {
    /// Pruning enabled (the default).
    pub fn with_pruning() -> TopDown {
        TopDown { pruning: true }
    }

    /// Pruning disabled — pure memoized enumeration (ablation).
    pub fn without_pruning() -> TopDown {
        TopDown { pruning: false }
    }
}

#[derive(Clone, Copy)]
enum Memo {
    /// Optimal plan for the set.
    Exact { plan: PlanId, stats: PlanStats },
    /// No plan with cost < `lower` exists (proven under some budget).
    Pruned { lower: f64 },
}

struct Search<'a> {
    g: &'a QueryGraph,
    est: CardinalityEstimator,
    model: &'a dyn CostModel,
    arena: PlanArena,
    memo: std::collections::HashMap<RelSet, Memo, crate::table::BuildFxHasher>,
    counters: Counters,
    pruning: bool,
    spans: Spans<'a>,
    probes: u64,
    hits: u64,
    ctl: &'a CancellationToken,
    pace: u32,
    charged: usize,
}

impl JoinOrderer for TopDown {
    fn name(&self) -> &'static str {
        if self.pruning {
            "TopDown"
        } else {
            "TopDown-noprune"
        }
    }

    fn optimize_in(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
        _session: &mut Session,
    ) -> Result<DpResult, OptimizeError> {
        let mut spans = Spans::start(obs, self.name(), g.num_relations());
        spans.begin("init");
        if g.num_relations() == 0 {
            return Err(OptimizeError::EmptyQuery);
        }
        g.require_connected()?;
        ctl.check()?;
        crate::failpoint::check("estimator")?;
        let est = CardinalityEstimator::new(g, catalog)?;

        // Seed the upper bound with a greedy plan (only used when
        // pruning). Runs unobserved — a nested `run_start` would corrupt
        // the event stream.
        let initial_upper = if self.pruning && g.num_relations() > 1 {
            let goo =
                Goo.optimize_controlled(g, catalog, model, &joinopt_telemetry::NoopObserver, ctl)?;
            goo.cost * (1.0 + 1e-9) + 1e-9
        } else {
            f64::INFINITY
        };

        let arena = PlanArena::with_capacity(4 * g.num_relations());
        ctl.charge(arena.bytes())?;
        let charged = arena.bytes();
        let mut search = Search {
            g,
            est,
            model,
            arena,
            memo: std::collections::HashMap::default(),
            counters: Counters::new(),
            pruning: self.pruning,
            spans,
            probes: 0,
            hits: 0,
            ctl,
            pace: 0,
            charged,
        };
        search.spans.end("init");
        search.spans.begin("enumerate");
        let full = g.all_relations();
        let Some(result) = search.solve(full, initial_upper)? else {
            return Err(OptimizeError::Internal(
                "top-down search found no plan under the greedy seed bound".into(),
            ));
        };
        search.spans.end("enumerate");

        search.spans.begin("extract");
        let tree = search.arena.extract(result.0);
        search.spans.end("extract");
        let table = TableStats {
            entries: search.memo.len(),
            capacity: search.memo.capacity(),
            probes: search.probes,
            hits: search.hits,
        };
        search
            .spans
            .finish(Some(table), &search.arena, &search.counters);
        Ok(DpResult {
            cost: result.1.cost,
            cardinality: result.1.cardinality,
            tree,
            counters: search.counters,
            table_size: search.memo.len(),
            plans_built: search.arena.len(),
        })
    }
}

impl Search<'_> {
    /// Memo probe/hit accounting (no-op when not observing).
    #[inline]
    fn note_probe(&mut self, hit: bool) {
        if self.spans.on() {
            self.probes += 1;
            self.hits += u64::from(hit);
        }
    }

    /// Best plan for `s` with cost `< upper`, or `Ok(None)` if provably
    /// none exists below the budget. Fails when the cancellation token
    /// trips or an estimate turns non-finite.
    fn solve(
        &mut self,
        s: RelSet,
        upper: f64,
    ) -> Result<Option<(PlanId, PlanStats)>, OptimizeError> {
        if s.is_singleton() {
            let Some(rel) = s.min_index() else {
                return Err(OptimizeError::Internal(
                    "singleton relation set without a member".into(),
                ));
            };
            let card = self.est.base_cardinality(rel);
            // Scans are free; materialize lazily but idempotently via memo.
            let memoized = self.memo.get(&s).copied();
            self.note_probe(memoized.is_some());
            if let Some(Memo::Exact { plan, stats }) = memoized {
                return Ok(Some((plan, stats)));
            }
            let stats = PlanStats::base(card);
            let plan = self.arena.add_scan(rel, card);
            self.memo.insert(s, Memo::Exact { plan, stats });
            return Ok(Some((plan, stats)));
        }
        self.note_probe(self.memo.contains_key(&s));
        match self.memo.get(&s) {
            Some(Memo::Exact { plan, stats }) => {
                return Ok((stats.cost < upper).then_some((*plan, *stats)));
            }
            Some(Memo::Pruned { lower }) if *lower >= upper => return Ok(None),
            // Unknown or pruned under a smaller budget: (re-)expand.
            Some(Memo::Pruned { .. }) | None => {}
        }

        let out_card = ensure_finite("cardinality", self.est.set_cardinality(s))?;
        let mut best: Option<(PlanId, PlanStats)> = None;
        let mut bound = upper;

        // Enumerate partitions: connected S1 containing min(s), connected
        // adjacent complement. Each carries an admissible lower bound:
        // the kernel's cost with the children's costs replaced by the
        // lower bounds the memo has already proven for them (0 when
        // unknown). Every total is monotone in the children's costs, so
        // the bound holds in f64, not just in exact arithmetic.
        let mut splits = Vec::new();
        for (s1, s2) in self.partitions(s) {
            let l0 = PlanStats {
                cardinality: self.est.set_cardinality(s1),
                cost: self.child_lower(s1),
            };
            let r0 = PlanStats {
                cardinality: self.est.set_cardinality(s2),
                cost: self.child_lower(s2),
            };
            let (lb, _) = pair_cost(self.model, &l0, &r0, out_card, true)?;
            splits.push((s1, s2, lb));
        }
        if self.pruning {
            // Most promising first, so a tight bound forms early. The
            // bounds may be non-finite for degenerate statistics;
            // `total_cmp` keeps the sort well-defined either way.
            splits.sort_by(|a, b| a.2.total_cmp(&b.2));
        }
        for (s1, s2, lb) in splits {
            self.counters.inner += 1;
            self.ctl.poll(&mut self.pace, 1)?;
            if self.pruning && lb >= bound {
                // Sorted ascending: everything after is at least as bad.
                self.spans.pruned(s.bits(), "bound");
                break;
            }
            self.counters.csg_cmp_pairs += 2;
            self.counters.ono_lohman += 1;
            let lb_other2 = self.child_lower(s2);
            // Budgets only steer pruning (acceptance compares exact
            // totals), so each is widened past the few ulps its
            // subtractions may round away: a child plan whose total
            // could still beat `bound` is never cut off by rounding.
            let slack = bound * 1e-12;
            let child_budget1 = if self.pruning {
                bound - lb + self.child_lower(s1) + slack
            } else {
                f64::INFINITY
            };
            let Some((p1, st1)) = self.solve(s1, child_budget1)? else {
                continue;
            };
            let child_budget2 = if self.pruning {
                bound - (lb - self.child_lower(s1) - lb_other2) - st1.cost + slack
            } else {
                f64::INFINITY
            };
            let Some((p2, st2)) = self.solve(s2, child_budget2)? else {
                continue;
            };
            let (cost, swapped) = pair_cost(self.model, &st1, &st2, out_card, true)?;
            let (left, right, left_set, right_set) = if swapped {
                (p2, p1, s2, s1)
            } else {
                (p1, p2, s1, s2)
            };
            let accepted =
                cost < bound || (!self.pruning && best.as_ref().is_none_or(|b| cost < b.1.cost));
            self.spans
                .candidate(s.bits(), left_set.bits(), right_set.bits(), cost, accepted);
            if accepted {
                let stats = PlanStats {
                    cardinality: out_card,
                    cost,
                };
                let plan = self.arena.add_join(left, right, stats);
                if self.arena.bytes() > self.charged {
                    self.ctl.charge(self.arena.bytes() - self.charged)?;
                    self.charged = self.arena.bytes();
                }
                best = Some((plan, stats));
                bound = bound.min(cost);
            }
        }

        match best {
            Some((plan, stats)) => {
                // Exact: every alternative was either evaluated or pruned
                // against a bound that this cost satisfies.
                self.memo.insert(s, Memo::Exact { plan, stats });
                Ok(Some((plan, stats)))
            }
            None => {
                // Proven: nothing below `upper`.
                let lower = match self.memo.get(&s) {
                    Some(Memo::Pruned { lower }) => lower.max(upper),
                    _ => upper,
                };
                self.memo.insert(s, Memo::Pruned { lower });
                Ok(None)
            }
        }
    }

    /// The tightest lower bound the memo already proves for a set's
    /// plan cost (0 when unknown).
    fn child_lower(&self, s: RelSet) -> f64 {
        match self.memo.get(&s) {
            Some(Memo::Exact { stats, .. }) => stats.cost,
            Some(Memo::Pruned { lower }) => *lower,
            None => 0.0,
        }
    }

    /// All csg-cmp partitions `(S₁, S₂)` of `s` with `min(s) ∈ S₁`.
    fn partitions(&self, s: RelSet) -> Vec<(RelSet, RelSet)> {
        let anchor = s.lowest();
        let mut out = Vec::new();
        // Grow connected sets from the anchor within `s`, neighborhood
        // layer by layer (the EnumerateCsgRec discipline restricted to s).
        fn rec(g: &QueryGraph, s: RelSet, s1: RelSet, x: RelSet, out: &mut Vec<(RelSet, RelSet)>) {
            let nb = (g.neighborhood(s1) & s) - x;
            if nb.is_empty() {
                return;
            }
            for ext in nb.non_empty_subsets() {
                let cand = s1 | ext;
                if cand != s {
                    let s2 = s - cand;
                    if g.is_connected_set(s2) && g.sets_connected(cand, s2) {
                        out.push((cand, s2));
                    }
                }
            }
            for ext in nb.non_empty_subsets() {
                rec(g, s, s1 | ext, x | nb, out);
            }
        }
        // The singleton anchor itself:
        let s2 = s - anchor;
        if self.g.is_connected_set(s2) && self.g.sets_connected(anchor, s2) {
            out.push((anchor, s2));
        }
        rec(self.g, s, anchor, anchor, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpCcp, JoinOrderer};
    use joinopt_cost::{workload, Cout, HashJoin, MinOverPhysical};
    use joinopt_qgraph::GraphKind;

    #[test]
    fn matches_dpccp_on_families() {
        for kind in GraphKind::ALL {
            for n in 2..=9 {
                let w = workload::family_workload(kind, n, 7);
                let opt = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                for td in [TopDown::with_pruning(), TopDown::without_pruning()] {
                    let r = td.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                    assert_eq!(
                        r.cost.to_bits(),
                        opt.cost.to_bits(),
                        "{} on {kind} n={n}: {} vs {}",
                        td.name(),
                        r.cost,
                        opt.cost
                    );
                }
            }
        }
    }

    #[test]
    fn matches_dpccp_on_random_workloads_and_models() {
        let models: [&dyn CostModel; 3] = [&Cout, &HashJoin, &MinOverPhysical];
        for seed in 0..10 {
            let w = workload::random_workload(8, 0.35, seed);
            for model in models {
                let opt = DpCcp.optimize(&w.graph, &w.catalog, model).unwrap();
                for td in [TopDown::with_pruning(), TopDown::without_pruning()] {
                    let r = td.optimize(&w.graph, &w.catalog, model).unwrap();
                    assert_eq!(
                        r.cost.to_bits(),
                        opt.cost.to_bits(),
                        "{} seed {seed} model {}: {} vs {}",
                        td.name(),
                        model.name(),
                        r.cost,
                        opt.cost
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_skips_work_without_changing_the_answer() {
        let mut pruned_total = 0u64;
        let mut full_total = 0u64;
        for seed in 0..10 {
            let w = workload::random_workload(9, 0.3, seed);
            let with = TopDown::with_pruning()
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            let without = TopDown::without_pruning()
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            assert_eq!(with.cost.to_bits(), without.cost.to_bits(), "seed {seed}");
            pruned_total += with.counters.inner;
            full_total += without.counters.inner;
        }
        assert!(
            pruned_total < full_total,
            "pruning never skipped anything: {pruned_total} vs {full_total}"
        );
    }

    #[test]
    fn unpruned_inner_counter_matches_partition_space() {
        // Without pruning, every subproblem enumerates each of its
        // csg-cmp partitions once — summed over all connected sets this
        // equals the Ono/Lohman pair count of the graph.
        use joinopt_qgraph::csg;
        for kind in GraphKind::ALL {
            let w = workload::family_workload(kind, 8, 1);
            let r = TopDown::without_pruning()
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            assert_eq!(
                r.counters.inner,
                csg::count_ccp_distinct(&w.graph),
                "{kind}"
            );
        }
    }

    #[test]
    fn memo_covers_exactly_connected_sets_when_unpruned() {
        use joinopt_qgraph::csg;
        let w = workload::family_workload(GraphKind::Cycle, 8, 2);
        let r = TopDown::without_pruning()
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert_eq!(r.table_size as u64, csg::count_csg(&w.graph));
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = QueryGraph::new(0).unwrap();
        assert!(TopDown::default()
            .optimize(&g, &Catalog::new(&g), &Cout)
            .is_err());
        let disc = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(TopDown::default()
            .optimize(&disc, &Catalog::new(&disc), &Cout)
            .is_err());
    }

    #[test]
    fn single_relation() {
        let w = workload::family_workload(GraphKind::Chain, 1, 0);
        let r = TopDown::default()
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert_eq!(r.tree.num_joins(), 0);
        assert_eq!(r.counters.inner, 0);
    }
}
