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

use joinopt_cost::{ensure_finite, Catalog, CostModel, HyperCardinalityEstimator, PlanStats};
use joinopt_plan::PlanArena;
use joinopt_qgraph::hypergraph::Hypergraph;
use joinopt_qgraph::QueryGraphError;
use joinopt_relset::RelSet;
use joinopt_telemetry::{Event, NoopObserver, Observer};

use crate::counters::Counters;
use crate::driver::Spans;
use crate::error::OptimizeError;
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
        let spans = Spans::start(obs, self.name(), h.num_relations());
        spans.begin("init");
        let n = h.num_relations();
        if n == 0 {
            return Err(OptimizeError::EmptyQuery);
        }
        if !h.is_connected() {
            return Err(OptimizeError::Graph(QueryGraphError::Disconnected));
        }
        let est = HyperCardinalityEstimator::new(h, catalog)?;
        let observe = obs.enabled();
        let mut state = HypState {
            h,
            est,
            model,
            arena: PlanArena::with_capacity(4 * n),
            table: DpTable::with_capacity(4 * n),
            counters: Counters::new(),
            observe,
            probes: 0,
            hits: 0,
            level_new: Vec::new(),
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
        if observe {
            state.level_new = vec![0u64; n + 1];
            state.level_new[1] = n as u64;
        }
        spans.end("init");

        // Solve: primary connected subsets by descending start vertex.
        spans.begin("enumerate");
        for i in (0..n).rev() {
            let v = RelSet::single(i);
            state.emit_csg(v)?;
            state.enumerate_csg_rec(v, RelSet::prefix_through(i))?;
        }
        spans.end("enumerate");

        state.counters.csg_cmp_pairs = 2 * state.counters.ono_lohman;
        let full = h.all_relations();
        let Some(entry) = state.table.get(full) else {
            return Err(OptimizeError::NoPlanWithoutCrossProducts);
        };
        spans.begin("extract");
        let tree = state.arena.extract(entry.plan);
        spans.end("extract");
        if observe {
            for (size, &new_entries) in state.level_new.iter().enumerate() {
                if new_entries > 0 {
                    obs.on_event(Event::DpLevel { size, new_entries });
                }
            }
        }
        spans.table_stats(
            state.table.len(),
            state.table.capacity(),
            state.probes,
            state.hits,
        );
        spans.arena_stats(&state.arena);
        spans.finish(&state.counters);
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
    est: HyperCardinalityEstimator,
    model: &'a dyn CostModel,
    arena: PlanArena,
    table: DpTable,
    counters: Counters,
    observe: bool,
    probes: u64,
    hits: u64,
    level_new: Vec<u64>,
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
    /// [`OptimizeError::Cost`], as in every other engine.
    fn emit_csg_cmp(&mut self, s1: RelSet, s2: RelSet) -> Result<(), OptimizeError> {
        self.counters.inner += 1;
        self.counters.ono_lohman += 1;
        let (Some(&e1), Some(&e2)) = (self.table.get(s1), self.table.get(s2)) else {
            return Ok(()); // unreachable: emitted operands are buildable
        };
        let union = s1 | s2;
        let (out_card, incumbent) = match self.table.get(union) {
            Some(existing) => (existing.stats.cardinality, Some(existing.stats.cost)),
            None => (
                ensure_finite(
                    "cardinality",
                    self.est
                        .join_cardinality(e1.stats.cardinality, e2.stats.cardinality, s1, s2),
                )?,
                None,
            ),
        };
        if self.observe {
            self.probes += 1;
            if incumbent.is_some() {
                self.hits += 1;
            } else {
                self.level_new[union.len()] += 1;
            }
        }
        let c12 = ensure_finite("cost", self.model.join_cost(&e1.stats, &e2.stats, out_card))?;
        let (cost, left, right) = if self.model.is_symmetric() {
            (c12, &e1, &e2)
        } else {
            let c21 = ensure_finite("cost", self.model.join_cost(&e2.stats, &e1.stats, out_card))?;
            if c21 < c12 {
                (c21, &e2, &e1)
            } else {
                (c12, &e1, &e2)
            }
        };
        if incumbent.is_none_or(|best| cost < best) {
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
                let tol = 1e-9 * ccp.cost.abs().max(1.0);
                assert!((hyp.cost - ccp.cost).abs() <= tol, "{kind} n={n}");
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
