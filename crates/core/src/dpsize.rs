//! DPsize: size-driven enumeration (paper, Fig. 1 / Section 2.1).

use joinopt_cost::{Catalog, CostModel};
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;
use joinopt_telemetry::Observer;

use crate::cancel::CancellationToken;
use crate::dpsub::Session;
use crate::driver::{run_pooled, Driver, Enumerator};
use crate::error::OptimizeError;
use crate::result::{DpResult, JoinOrderer};
use crate::table::PlanTable;

/// DPsize with the `s₁ = s₂` optimization described in Section 2.1:
/// plans of each size are kept in a list; sizes are split unordered
/// (`s₁ ≤ s₂`), and for `s₁ = s₂` only pairs `(p₁, p₂)` with `p₂`
/// *after* `p₁` in the list are tested. Commutativity is handled inside
/// `CreateJoinTree` (both operand orders are costed).
///
/// This is the variant the paper's counter formulas describe; the
/// literal pseudocode of Fig. 1 is available as [`DpSizeNaive`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSize;

impl JoinOrderer for DpSize {
    fn name(&self) -> &'static str {
        "DPsize"
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
        run_pooled(self, g, catalog, model, obs, ctl, session)
    }
}

impl Enumerator for DpSize {
    fn enumerate<T: PlanTable>(&self, d: &mut Driver<'_, T>) -> Result<(), OptimizeError> {
        let n = d.g.num_relations();

        // plans_by_size[k]: the relation sets of size k with a plan.
        let mut plans_by_size: Vec<Vec<RelSet>> = vec![Vec::new(); n + 1];
        plans_by_size[1] = (0..n).map(RelSet::single).collect();

        for s in 2..=n {
            for s1 in 1..=s / 2 {
                let s2 = s - s1;
                if s1 != s2 {
                    for i in 0..plans_by_size[s1].len() {
                        let a = plans_by_size[s1][i];
                        for j in 0..plans_by_size[s2].len() {
                            let b = plans_by_size[s2][j];
                            d.counters.inner += 1;
                            if a.overlaps(b) {
                                continue;
                            }
                            if !d.g.sets_connected(a, b) {
                                continue;
                            }
                            d.counters.csg_cmp_pairs += 2;
                            d.counters.ono_lohman += 1;
                            if d.emit_pair(a, b, true)? {
                                plans_by_size[s].push(a | b);
                            }
                        }
                    }
                } else {
                    // Equal sizes: unordered pairs from the same list.
                    for i in 0..plans_by_size[s1].len() {
                        let a = plans_by_size[s1][i];
                        for j in i + 1..plans_by_size[s1].len() {
                            let b = plans_by_size[s1][j];
                            d.counters.inner += 1;
                            if a.overlaps(b) {
                                continue;
                            }
                            if !d.g.sets_connected(a, b) {
                                continue;
                            }
                            d.counters.csg_cmp_pairs += 2;
                            d.counters.ono_lohman += 1;
                            if d.emit_pair(a, b, true)? {
                                plans_by_size[s].push(a | b);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// DPsize exactly as printed in Fig. 1: ordered size splits
/// (`1 ≤ s₁ < s`), every ordered plan pair tested. Kept for ablation —
/// its `InnerCounter` is roughly twice [`DpSize`]'s.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSizeNaive;

impl JoinOrderer for DpSizeNaive {
    fn name(&self) -> &'static str {
        "DPsize-naive"
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
        run_pooled(self, g, catalog, model, obs, ctl, session)
    }
}

impl Enumerator for DpSizeNaive {
    fn enumerate<T: PlanTable>(&self, d: &mut Driver<'_, T>) -> Result<(), OptimizeError> {
        let n = d.g.num_relations();

        let mut plans_by_size: Vec<Vec<RelSet>> = vec![Vec::new(); n + 1];
        plans_by_size[1] = (0..n).map(RelSet::single).collect();

        for s in 2..=n {
            for s1 in 1..s {
                let s2 = s - s1;
                for i in 0..plans_by_size[s1].len() {
                    let a = plans_by_size[s1][i];
                    for j in 0..plans_by_size[s2].len() {
                        let b = plans_by_size[s2][j];
                        d.counters.inner += 1;
                        if a.overlaps(b) {
                            continue;
                        }
                        if !d.g.sets_connected(a, b) {
                            continue;
                        }
                        d.counters.csg_cmp_pairs += 1;
                        if d.emit_pair(a, b, false)? {
                            plans_by_size[s].push(a | b);
                        }
                    }
                }
            }
        }
        d.counters.ono_lohman = d.counters.csg_cmp_pairs / 2;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_cost::{workload, Cout};
    use joinopt_qgraph::{formulas, GraphKind};

    #[test]
    fn single_relation_query() {
        let w = workload::family_workload(GraphKind::Chain, 1, 0);
        let r = DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.tree.num_joins(), 0);
        assert_eq!(r.counters.inner, 0);
    }

    #[test]
    fn rejects_disconnected() {
        let g = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let cat = Catalog::new(&g);
        assert!(DpSize.optimize(&g, &cat, &Cout).is_err());
        assert!(DpSizeNaive.optimize(&g, &cat, &Cout).is_err());
    }

    #[test]
    fn rejects_empty() {
        let g = QueryGraph::new(0).unwrap();
        let cat = Catalog::new(&g);
        assert!(matches!(
            DpSize.optimize(&g, &cat, &Cout),
            Err(OptimizeError::EmptyQuery)
        ));
    }

    #[test]
    fn inner_counter_matches_figure3_small() {
        // Figure 3 sample values for n ∈ {2, 5}; larger n are covered by
        // the cross-validation integration tests.
        let expect = [
            (GraphKind::Chain, 2, 1),
            (GraphKind::Chain, 5, 73),
            (GraphKind::Cycle, 5, 120),
            (GraphKind::Star, 5, 110),
            (GraphKind::Clique, 5, 280),
        ];
        for (kind, n, want) in expect {
            let w = workload::family_workload(kind, n, 1);
            let r = DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(r.counters.inner, want, "{kind} n={n}");
        }
    }

    #[test]
    fn csg_cmp_pair_counter_is_graph_property() {
        for kind in GraphKind::ALL {
            for n in 2..=9 {
                let w = workload::family_workload(kind, n, 7);
                let r = DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                assert_eq!(
                    u128::from(r.counters.csg_cmp_pairs),
                    formulas::ccp_total(kind, n as u64),
                    "{kind} n={n}"
                );
                assert_eq!(r.counters.ono_lohman, r.counters.csg_cmp_pairs / 2);
            }
        }
    }

    #[test]
    fn naive_finds_same_cost_with_more_work() {
        for kind in GraphKind::ALL {
            let w = workload::family_workload(kind, 7, 3);
            let opt = DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let naive = DpSizeNaive.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(opt.cost.to_bits(), naive.cost.to_bits(), "{kind}");
            assert!(naive.counters.inner > opt.counters.inner, "{kind}");
            assert_eq!(
                opt.counters.csg_cmp_pairs, naive.counters.csg_cmp_pairs,
                "{kind}"
            );
        }
    }

    #[test]
    fn table_covers_exactly_connected_sets() {
        let w = workload::family_workload(GraphKind::Chain, 6, 5);
        let r = DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(
            u128::from(r.table_size as u64),
            formulas::csg_count(GraphKind::Chain, 6)
        );
        assert_eq!(r.tree.relations(), w.graph.all_relations());
    }
}
