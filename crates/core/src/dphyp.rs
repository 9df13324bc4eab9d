//! DPhyp: dynamic programming over query **hypergraphs**.
//!
//! The paper's concluding machinery — `EnumerateCsg` / `EnumerateCmp` —
//! generalizes from graphs to hypergraphs, which is how complex join
//! predicates (`R1.a + R2.b = R3.c`) and non-inner-join reordering
//! constraints are handled in modern optimizers. This module implements
//! that generalization (Moerkotte & Neumann's 2008 follow-up, "Dynamic
//! Programming Strikes Back"), built on
//! [`joinopt_qgraph::hypergraph::Hypergraph`]:
//!
//! * neighborhoods shrink complex edge sides to their minimum-index
//!   *representative*, keeping the subset enumeration polynomial in the
//!   neighborhood size;
//! * since a grown set may be non-connected (a representative stands
//!   for a side that is not yet complete), emissions are filtered by
//!   **DP-table membership** — the table contains exactly the buildable
//!   sets, so no explicit connectivity test is needed;
//! * on a hypergraph with only simple edges DPhyp degenerates to DPccp:
//!   identical plans, identical `InnerCounter` (verified by tests).
//!
//! Unlike the simple-graph algorithms, a reachability-connected
//! hypergraph may still admit **no** cross-product-free bushy tree (see
//! the hypergraph module docs); [`DpHyp::optimize`] reports
//! [`OptimizeError::NoPlanWithoutCrossProducts`] in that case.
//!
//! [`DpHyp::optimize_in`] runs under a [`CancellationToken`]: checked
//! at run start and polled once per emitted pair, as the driver
//! engines do, so a raised flag or a passed deadline stops the run
//! within `2 · POLL_PERIOD` (512) pairs. DPhyp charges no memory
//! against the token's budget.

use joinopt_cost::{ensure_finite, CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::PlanArena;
use joinopt_qgraph::hypergraph::Hypergraph;
use joinopt_qgraph::QueryGraphError;
use joinopt_relset::RelSet;
use joinopt_telemetry::{NoopObserver, Observer};

use crate::cancel::CancellationToken;
use crate::counters::Counters;
use crate::driver::{Spans, TableStats};
use crate::error::OptimizeError;
use crate::kernel::pair_cost;
use crate::result::DpResult;
use crate::table::{DpTable, TableEntry};

/// The DPhyp join orderer for hypergraph workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpHyp;

impl DpHyp {
    /// Algorithm name, as used in reports.
    pub fn name(&self) -> &'static str {
        "DPhyp"
    }

    /// Computes an optimal bushy, cross-product-free join tree for the
    /// hypergraph `h`.
    ///
    /// # Errors
    ///
    /// * [`OptimizeError::EmptyQuery`] for zero relations;
    /// * [`OptimizeError::Graph`] for reachability-disconnected inputs;
    /// * [`OptimizeError::Cost`] for catalogs not matching `h`'s shape and
    ///   for statistics whose estimates overflow;
    /// * [`OptimizeError::NoPlanWithoutCrossProducts`] when connectivity
    ///   holds but no valid plan exists.
    pub fn optimize(
        &self,
        h: &Hypergraph,
        catalog: &Catalog,
        model: &dyn CostModel,
    ) -> Result<DpResult, OptimizeError> {
        self.optimize_observed(h, catalog, model, &NoopObserver)
    }

    /// [`DpHyp::optimize`] with telemetry, mirroring the driver-based
    /// algorithms' event sequence (phase spans, per-size DP levels,
    /// table/arena statistics).
    pub fn optimize_observed(
        &self,
        h: &Hypergraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
    ) -> Result<DpResult, OptimizeError> {
        self.optimize_in(h, catalog, model, obs, &CancellationToken::unlimited())
    }

    /// [`DpHyp::optimize_observed`] under the stop conditions of `ctl`:
    /// checked before the enumeration and polled once per emitted pair.
    ///
    /// # Errors
    ///
    /// Those of [`DpHyp::optimize`], and
    /// [`OptimizeError::Cancelled`] or
    /// [`OptimizeError::TimeBudgetExceeded`] when `ctl` trips.
    pub fn optimize_in(
        &self,
        h: &Hypergraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
    ) -> Result<DpResult, OptimizeError> {
        let mut spans = Spans::start(obs, self.name(), h.num_relations());
        spans.begin("init");
        let n = h.num_relations();
        if n == 0 {
            return Err(OptimizeError::EmptyQuery);
        }
        if !h.is_connected() {
            return Err(OptimizeError::Graph(QueryGraphError::Disconnected));
        }
        ctl.check()?;
        let est = CardinalityEstimator::for_hypergraph(h, catalog)?;
        let mut state = HypState {
            h,
            est,
            model,
            arena: PlanArena::with_capacity(4 * n),
            table: DpTable::with_capacity(4 * n),
            counters: Counters::new(),
            spans,
            probes: 0,
            hits: 0,
            ctl,
            pace: 0,
        };
        for i in 0..n {
            let card = state.est.base_cardinality(i);
            let id = state.arena.add_scan(i, card);
            state.table.insert(
                RelSet::single(i),
                TableEntry {
                    plan: id,
                    stats: PlanStats {
                        cardinality: card,
                        cost: 0.0,
                    },
                },
            );
        }
        state.spans.level(1, n as u64);
        state.spans.end("init");

        // Solve: primary connected subsets by descending start vertex.
        state.spans.begin("enumerate");
        for i in (0..n).rev() {
            let v = RelSet::single(i);
            state.emit_csg(v)?;
            state.enumerate_csg_rec(v, RelSet::prefix_through(i))?;
        }
        state.spans.end("enumerate");

        state.counters.csg_cmp_pairs = 2 * state.counters.ono_lohman;
        let full = h.all_relations();
        let Some(entry) = state.table.get(full) else {
            return Err(OptimizeError::NoPlanWithoutCrossProducts);
        };
        state.spans.begin("extract");
        let tree = state.arena.extract(entry.plan);
        state.spans.end("extract");
        let table = TableStats {
            entries: state.table.len(),
            capacity: state.table.capacity(),
            probes: state.probes,
            hits: state.hits,
        };
        state
            .spans
            .finish(Some(table), &state.arena, &state.counters);
        Ok(DpResult {
            cost: entry.stats.cost,
            cardinality: entry.stats.cardinality,
            tree,
            counters: state.counters,
            table_size: state.table.len(),
            plans_built: state.arena.len(),
        })
    }
}

struct HypState<'a> {
    h: &'a Hypergraph,
    est: CardinalityEstimator,
    model: &'a dyn CostModel,
    arena: PlanArena,
    table: DpTable,
    counters: Counters,
    spans: Spans<'a>,
    probes: u64,
    hits: u64,
    /// Stop conditions polled by every emitted pair.
    ctl: &'a CancellationToken,
    /// Pacing state for [`CancellationToken::poll`].
    pace: u32,
}

impl HypState<'_> {
    /// `EnumerateCsgRec`: grow the primary set through representative
    /// neighborhoods; emit (as a primary) every grown set that is
    /// buildable (present in the table).
    fn enumerate_csg_rec(&mut self, s1: RelSet, x: RelSet) -> Result<(), OptimizeError> {
        let nb = self.h.neighborhood(s1, x);
        if nb.is_empty() {
            return Ok(());
        }
        for sp in nb.non_empty_subsets() {
            let s = s1 | sp;
            if self.table.contains(s) {
                self.emit_csg(s)?;
            }
        }
        for sp in nb.non_empty_subsets() {
            self.enumerate_csg_rec(s1 | sp, x | nb)?;
        }
        Ok(())
    }

    /// `EmitCsg`: for a buildable primary `s1`, enumerate the complement
    /// components.
    fn emit_csg(&mut self, s1: RelSet) -> Result<(), OptimizeError> {
        let Some(min) = s1.min_index() else {
            return Ok(()); // unreachable: primary sets are non-empty
        };
        let x = s1 | RelSet::prefix_through(min);
        let nb = self.h.neighborhood(s1, x);
        for i in nb.iter_descending() {
            let s2 = RelSet::single(i);
            if self.h.connects(s1, s2) {
                self.emit_csg_cmp(s1, s2)?;
            }
            // Exclude only the already-tried representatives (B_i(N)) —
            // the corrected EnumerateCmp exclusion (see qgraph::csg).
            self.enumerate_cmp_rec(s1, s2, x | (nb & RelSet::prefix_through(i)))?;
        }
        Ok(())
    }

    /// `EnumerateCmpRec`: grow the complement; emit every grown set that
    /// is buildable and actually joinable with `s1`.
    fn enumerate_cmp_rec(
        &mut self,
        s1: RelSet,
        s2: RelSet,
        x: RelSet,
    ) -> Result<(), OptimizeError> {
        let nb = self.h.neighborhood(s2, x);
        if nb.is_empty() {
            return Ok(());
        }
        for sp in nb.non_empty_subsets() {
            let s = s2 | sp;
            if self.table.contains(s) && self.h.connects(s1, s) {
                self.emit_csg_cmp(s1, s)?;
            }
        }
        for sp in nb.non_empty_subsets() {
            self.enumerate_cmp_rec(s1, s2 | sp, x | nb)?;
        }
        Ok(())
    }

    /// `EmitCsgCmp`: the DP step — cost both operand orders, update
    /// `BestPlan(s1 ∪ s2)`. An overflowing estimate is a typed
    /// [`OptimizeError::Cost`], as in every other engine. Every call
    /// polls the token with one split of work.
    fn emit_csg_cmp(&mut self, s1: RelSet, s2: RelSet) -> Result<(), OptimizeError> {
        self.ctl.poll(&mut self.pace, 1)?;
        self.counters.inner += 1;
        self.counters.ono_lohman += 1;
        let (Some(&e1), Some(&e2)) = (self.table.get(s1), self.table.get(s2)) else {
            return Ok(()); // unreachable: emitted operands are buildable
        };
        let union = s1 | s2;
        let incumbent = self.table.get(union).map(|e| e.stats);
        if self.spans.on() {
            self.probes += 1;
            if incumbent.is_some() {
                self.hits += 1;
            } else {
                self.spans.level(union.len(), 1);
            }
        }
        let out_card = match incumbent {
            Some(existing) => existing.cardinality,
            None => ensure_finite("cardinality", self.est.set_cardinality(union))?,
        };
        let (cost, swapped) = pair_cost(self.model, &e1.stats, &e2.stats, out_card, true)?;
        let (left, right) = if swapped { (e2, e1) } else { (e1, e2) };
        if incumbent.is_none_or(|best| cost < best.cost) {
            let stats = PlanStats {
                cardinality: out_card,
                cost,
            };
            let plan = self.arena.add_join(left.plan, right.plan, stats);
            self.table.insert(union, TableEntry { plan, stats });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpCcp, JoinOrderer};
    use joinopt_cost::{workload, Cout, HashJoin};
    use joinopt_qgraph::GraphKind;

    fn set(ix: impl IntoIterator<Item = usize>) -> RelSet {
        RelSet::from_indices(ix)
    }

    #[test]
    fn degenerates_to_dpccp_on_simple_graphs() {
        for kind in GraphKind::ALL {
            for n in 2..=9 {
                let w = workload::family_workload(kind, n, 11);
                let h = Hypergraph::from_query_graph(&w.graph);
                let hyp = DpHyp.optimize(&h, &w.catalog, &Cout).unwrap();
                let ccp = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                assert_eq!(hyp.cost.to_bits(), ccp.cost.to_bits(), "{kind} n={n}");
                assert_eq!(
                    hyp.counters.inner, ccp.counters.inner,
                    "{kind} n={n}: DPhyp must enumerate exactly the csg-cmp-pairs"
                );
                assert_eq!(hyp.table_size, ccp.table_size, "{kind} n={n}");
            }
        }
    }

    #[test]
    fn handles_a_complex_predicate() {
        // R0 — R1 (simple), plus ({R0,R1}, {R2}): R2 can only join after
        // R0 ⋈ R1.
        let mut h = Hypergraph::new(3).unwrap();
        h.add_edge(set([0]), set([1])).unwrap();
        h.add_edge(set([0, 1]), set([2])).unwrap();
        let mut cat = Catalog::with_shape(3, 2);
        cat.set_cardinality(0, 1000.0).unwrap();
        cat.set_cardinality(1, 100.0).unwrap();
        cat.set_cardinality(2, 10.0).unwrap();
        cat.set_selectivity(0, 0.01).unwrap();
        cat.set_selectivity(1, 0.5).unwrap();
        let r = DpHyp.optimize(&h, &cat, &Cout).unwrap();
        // Only one shape is possible: (R0 ⋈ R1) ⋈ R2.
        assert_eq!(r.tree.to_string(), "((R0 ⋈ R1) ⋈ R2)");
        // card = 1000·100·0.01 = 1000; full = 1000·10·0.5 = 5000.
        assert_eq!(r.cardinality, 5000.0);
        assert_eq!(r.cost, 1000.0 + 5000.0);
        assert_eq!(r.counters.inner, 2); // ({R0},{R1}) and ({R0,R1},{R2})
    }

    #[test]
    fn unbuildable_hypergraph_reports_no_plan() {
        // Single edge ({R0}, {R1,R2}): reachability-connected, but
        // {R1,R2} is not buildable → no cross-product-free tree.
        let mut h = Hypergraph::new(3).unwrap();
        h.add_edge(set([0]), set([1, 2])).unwrap();
        let cat = Catalog::with_shape(3, 1);
        assert!(matches!(
            DpHyp.optimize(&h, &cat, &Cout),
            Err(OptimizeError::NoPlanWithoutCrossProducts)
        ));
    }

    #[test]
    fn rejects_empty_and_disconnected() {
        let h = Hypergraph::new(0).unwrap();
        assert!(matches!(
            DpHyp.optimize(&h, &Catalog::with_shape(0, 0), &Cout),
            Err(OptimizeError::EmptyQuery)
        ));
        let mut h = Hypergraph::new(3).unwrap();
        h.add_edge(set([0]), set([1])).unwrap();
        assert!(matches!(
            DpHyp.optimize(&h, &Catalog::with_shape(3, 1), &Cout),
            Err(OptimizeError::Graph(QueryGraphError::Disconnected))
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut h = Hypergraph::new(2).unwrap();
        h.add_edge(set([0]), set([1])).unwrap();
        let cat = Catalog::with_shape(2, 5);
        assert!(matches!(
            DpHyp.optimize(&h, &cat, &Cout),
            Err(OptimizeError::Cost(_))
        ));
    }

    #[test]
    fn complex_predicates_with_asymmetric_model() {
        let mut h = Hypergraph::new(4).unwrap();
        h.add_edge(set([0]), set([1])).unwrap();
        h.add_edge(set([1]), set([2])).unwrap();
        h.add_edge(set([0, 2]), set([3])).unwrap();
        let mut cat = Catalog::with_shape(4, 3);
        for i in 0..4 {
            cat.set_cardinality(i, 10f64.powi(i as i32 + 1)).unwrap();
        }
        let r = DpHyp.optimize(&h, &cat, &HashJoin).unwrap();
        assert_eq!(r.tree.num_relations(), 4);
        assert!(r.cost.is_finite());
        // R3's join must come after both R0 and R2 are in.
        fn check_r3_join(t: &joinopt_plan::JoinTree) -> bool {
            match t {
                joinopt_plan::JoinTree::Scan { .. } => true,
                joinopt_plan::JoinTree::Join { left, right, .. } => {
                    let l = left.relations();
                    let r = right.relations();
                    let r3_here = (l | r).contains(3) && !l.contains(3) && !r.contains(3);
                    let _ = r3_here;
                    // The side providing R3 must be joined against a side
                    // containing both R0 and R2 (the only predicate for it).
                    if r.contains(3) && r.is_singleton() {
                        assert!(l.contains(0) && l.contains(2), "R3 joined too early: {t}");
                    }
                    if l.contains(3) && l.is_singleton() {
                        assert!(r.contains(0) && r.contains(2), "R3 joined too early: {t}");
                    }
                    check_r3_join(left) && check_r3_join(right)
                }
            }
        }
        check_r3_join(&r.tree);
    }

    /// `C_out` that raises `flag` at its `at`-th price and counts the
    /// prices from then on, that one included.
    struct RaiseAtPrice {
        at: u64,
        flag: crate::CancelFlag,
        prices: std::sync::atomic::AtomicU64,
    }

    impl CostModel for RaiseAtPrice {
        fn operator_cost(&self, _: &PlanStats, _: &PlanStats, out_card: f64) -> f64 {
            use std::sync::atomic::Ordering;
            if self.prices.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
                self.flag.cancel();
            }
            out_card
        }

        fn name(&self) -> &'static str {
            "raise-at-price"
        }

        fn is_symmetric(&self) -> bool {
            true
        }
    }

    #[test]
    fn cancel_flag_stops_the_enumeration() {
        use crate::cancel::POLL_PERIOD;

        // A 12-clique has 261,625 csg-cmp-pairs, each priced once under
        // a symmetric model. The flag goes up at the 1,000th price; the
        // poll, one split per emitted pair, must stop the run within
        // 2 · `POLL_PERIOD` pairs of the raise.
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let h = Hypergraph::from_query_graph(&w.graph);
        let model = RaiseAtPrice {
            at: 1_000,
            flag: crate::CancelFlag::new(),
            prices: 0.into(),
        };
        let ctl = CancellationToken::new(Some(model.flag.clone()), None, None);
        let run = DpHyp.optimize_in(&h, &w.catalog, &model, &NoopObserver, &ctl);
        assert_eq!(run.map(|_| ()), Err(OptimizeError::Cancelled));
        let after = model.prices.into_inner() - (model.at - 1);
        assert!(
            (1..=2 * u64::from(POLL_PERIOD)).contains(&after),
            "{after} pairs after the raise"
        );

        // A flag raised before the run stops it at the start check,
        // before any pair is priced (`at: 0` never raises).
        let model = RaiseAtPrice {
            at: 0,
            flag: crate::CancelFlag::new(),
            prices: 0.into(),
        };
        model.flag.cancel();
        let ctl = CancellationToken::new(Some(model.flag.clone()), None, None);
        let run = DpHyp.optimize_in(&h, &w.catalog, &model, &NoopObserver, &ctl);
        assert_eq!(run.map(|_| ()), Err(OptimizeError::Cancelled));
        assert_eq!(model.prices.into_inner(), 0);
    }

    #[test]
    fn single_relation_hypergraph() {
        let h = Hypergraph::new(1).unwrap();
        let r = DpHyp
            .optimize(&h, &Catalog::with_shape(1, 0), &Cout)
            .unwrap();
        assert_eq!(r.tree.num_joins(), 0);
        assert_eq!(r.counters.inner, 0);
    }
}
