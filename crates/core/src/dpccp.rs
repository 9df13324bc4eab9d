//! DPccp: csg-cmp-pair driven enumeration (paper, Fig. 4 / Section 3).

use joinopt_cost::{Catalog, CostModel};
use joinopt_qgraph::{csg, QueryGraph};
use joinopt_telemetry::Observer;

use crate::cancel::CancellationToken;
use crate::dpsub::Session;
use crate::driver::{run_pooled, Driver, Enumerator};
use crate::error::OptimizeError;
use crate::result::{DpResult, JoinOrderer};
use crate::table::PlanTable;

/// The paper's new algorithm: iterate **exactly** over the csg-cmp-pairs
/// of the query graph — the lower bound for any dynamic-programming join
/// enumerator — using `EnumerateCsg` / `EnumerateCmp`
/// ([`joinopt_qgraph::csg`]), and fill the `BestPlan` table.
///
/// Every unordered pair is produced once, so commutativity is handled
/// explicitly by costing both operand orders (Fig. 4 calls
/// `CreateJoinTree` twice). After termination,
/// `InnerCounter = OnoLohmanCounter = #ccp / 2` by construction — there
/// is no wasted innermost-loop work, which is what makes DPccp adapt to
/// every query-graph shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpCcp;

impl JoinOrderer for DpCcp {
    fn name(&self) -> &'static str {
        "DPccp"
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

impl Enumerator for DpCcp {
    fn enumerate<T: PlanTable>(&self, d: &mut Driver<'_, T>) -> Result<(), OptimizeError> {
        let g = d.g;
        csg::try_for_each_ccp(g, |s1, s2| {
            d.counters.inner += 1;
            d.counters.ono_lohman += 1;
            d.emit_pair(s1, s2, true).map(|_| ())
        })?;
        d.counters.csg_cmp_pairs = 2 * d.counters.ono_lohman;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpsize::DpSize;
    use crate::dpsub::DpSub;
    use joinopt_cost::{workload, Cout, HashJoin, MinOverPhysical};
    use joinopt_qgraph::{formulas, GraphKind};

    #[test]
    fn inner_counter_equals_ono_lohman_bound() {
        for kind in GraphKind::ALL {
            for n in 2..=10 {
                let w = workload::family_workload(kind, n, 1);
                let r = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                assert_eq!(
                    u128::from(r.counters.inner),
                    formulas::ccp_distinct(kind, n as u64),
                    "{kind} n={n}"
                );
                assert_eq!(r.counters.inner, r.counters.ono_lohman);
                assert_eq!(r.counters.csg_cmp_pairs, 2 * r.counters.ono_lohman);
                assert!((r.counters.hit_rate() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn agrees_with_dpsize_and_dpsub() {
        for kind in GraphKind::ALL {
            for seed in 0..5 {
                let w = workload::family_workload(kind, 8, seed);
                let ccp = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                let size = DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                let sub = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                let bits = ccp.cost.to_bits();
                assert_eq!(bits, size.cost.to_bits(), "{kind} seed {seed}");
                assert_eq!(bits, sub.cost.to_bits(), "{kind} seed {seed}");
                assert_eq!(ccp.counters.csg_cmp_pairs, size.counters.csg_cmp_pairs);
                assert_eq!(ccp.counters.csg_cmp_pairs, sub.counters.csg_cmp_pairs);
            }
        }
    }

    #[test]
    fn asymmetric_cost_model_agreement() {
        // Hash join distinguishes build/probe; all three enumerators
        // must still find the same optimum (they all cost both orders,
        // directly or via enumeration symmetry).
        for seed in 0..8 {
            let w = workload::random_workload(7, 0.4, seed);
            let ccp = DpCcp.optimize(&w.graph, &w.catalog, &HashJoin).unwrap();
            let size = DpSize.optimize(&w.graph, &w.catalog, &HashJoin).unwrap();
            let sub = DpSub.optimize(&w.graph, &w.catalog, &HashJoin).unwrap();
            let bits = ccp.cost.to_bits();
            assert_eq!(bits, size.cost.to_bits(), "seed {seed}");
            assert_eq!(bits, sub.cost.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn min_over_physical_agreement() {
        for seed in 0..5 {
            let w = workload::random_workload(7, 0.3, seed + 100);
            let ccp = DpCcp
                .optimize(&w.graph, &w.catalog, &MinOverPhysical)
                .unwrap();
            let sub = DpSub
                .optimize(&w.graph, &w.catalog, &MinOverPhysical)
                .unwrap();
            assert_eq!(ccp.cost.to_bits(), sub.cost.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn produces_bushy_plans_when_beneficial() {
        // On a star the optimum is (almost) always left-deep, but on
        // chains with suitable statistics bushy shapes win. Check that at
        // least one of a batch of random chain workloads yields a
        // properly bushy optimal plan — the shape only bushy enumeration
        // can deliver.
        let mut bushy_seen = false;
        for seed in 0..30 {
            let w = workload::family_workload(GraphKind::Chain, 8, seed);
            let r = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            bushy_seen |= r.tree.is_properly_bushy();
        }
        assert!(
            bushy_seen,
            "no bushy optimum in 30 chain workloads — suspicious"
        );
    }

    #[test]
    fn rejects_disconnected_and_empty() {
        let g = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let cat = Catalog::new(&g);
        assert!(DpCcp.optimize(&g, &cat, &Cout).is_err());
        let empty = QueryGraph::new(0).unwrap();
        assert!(DpCcp
            .optimize(&empty, &Catalog::new(&empty), &Cout)
            .is_err());
    }

    #[test]
    fn single_relation() {
        let w = workload::family_workload(GraphKind::Chain, 1, 0);
        let r = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(r.counters.inner, 0);
        assert_eq!(r.tree.num_relations(), 1);
    }

    #[test]
    fn plan_tree_is_consistent() {
        let w = workload::family_workload(GraphKind::Cycle, 9, 4);
        let r = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(r.tree.relations(), w.graph.all_relations());
        assert_eq!(r.tree.num_joins(), 8);
        assert_eq!(r.tree.cost(), r.cost);
        assert_eq!(r.tree.cardinality(), r.cardinality);
    }
}
