//! Left-deep-only dynamic programming — the original Selinger search
//! space, as a baseline quantifying what bushy enumeration buys.
//!
//! The paper generalizes Selinger's size-driven DP from left-deep to
//! bushy trees; this module keeps the restriction (every join's right
//! operand is a base relation) so experiments can measure the plan-cost
//! gap between the optimal left-deep and the optimal bushy tree, and the
//! much smaller search space the restriction leaves (`Σ c_k · n` pair
//! probes instead of pairing all sizes).
//!
//! Like the paper's algorithms it excludes cross products, so it finds
//! the optimal *connected* left-deep tree. Note that on some
//! graph/statistics combinations the optimal bushy tree is strictly
//! cheaper — that differential is the point of this baseline.

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

/// Size-driven DP restricted to left-deep trees (Selinger-style,
/// cross-product-free).
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSizeLeftDeep;

impl JoinOrderer for DpSizeLeftDeep {
    fn name(&self) -> &'static str {
        "DPsize-leftdeep"
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

impl Enumerator for DpSizeLeftDeep {
    fn enumerate<T: PlanTable>(&self, d: &mut Driver<'_, T>) -> Result<(), OptimizeError> {
        let n = d.g.num_relations();

        let mut plans_by_size: Vec<Vec<RelSet>> = vec![Vec::new(); n + 1];
        plans_by_size[1] = (0..n).map(RelSet::single).collect();

        for s in 2..=n {
            // Left operand: any plan of size s−1; right operand: a single
            // relation — the left-deep restriction.
            for i in 0..plans_by_size[s - 1].len() {
                let left = plans_by_size[s - 1][i];
                for rel in 0..n {
                    let right = RelSet::single(rel);
                    d.counters.inner += 1;
                    if left.overlaps(right) {
                        continue;
                    }
                    if !d.g.sets_connected(left, right) {
                        continue;
                    }
                    d.counters.csg_cmp_pairs += 1;
                    if d.emit_pair(left, right, false)? {
                        plans_by_size[s].push(left | right);
                    }
                }
            }
        }
        // The pair counter here counts (composite, relation) extensions,
        // which is NOT the #ccp graph invariant (left-deep explores a
        // strict subset of the csg-cmp-pairs). Each unordered pair is
        // evaluated in exactly one orientation — the reverse would be a
        // right-deep join, outside the search space — so the distinct
        // unordered count equals the oriented count (no halving).
        d.counters.ono_lohman = d.counters.csg_cmp_pairs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpCcp, JoinOrderer};
    use joinopt_cost::{workload, Cout};
    use joinopt_qgraph::GraphKind;

    #[test]
    fn produces_left_deep_trees_only() {
        for kind in GraphKind::ALL {
            for seed in 0..5 {
                let w = workload::family_workload(kind, 8, seed);
                let r = DpSizeLeftDeep
                    .optimize(&w.graph, &w.catalog, &Cout)
                    .unwrap();
                assert!(r.tree.is_left_deep(), "{kind} seed {seed}: {}", r.tree);
                assert_eq!(r.tree.relations(), w.graph.all_relations());
            }
        }
    }

    #[test]
    fn never_beats_bushy_optimum() {
        for seed in 0..20 {
            let w = workload::random_workload(8, 0.3, seed);
            let ld = DpSizeLeftDeep
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            let bushy = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert!(
                ld.cost >= bushy.cost,
                "seed {seed}: left-deep {} < bushy {}?!",
                ld.cost,
                bushy.cost
            );
        }
    }

    #[test]
    fn is_optimal_among_left_deep_trees() {
        // Exhaustive check on small trees — chains, stars and random
        // trees: enumerate all left-deep orders (permutations) without
        // cross products and compare.
        use joinopt_cost::workload::{StatsRanges, Workload};
        use joinopt_cost::{CardinalityEstimator, CostModel as _, PlanStats};
        use joinopt_qgraph::generators;
        use joinopt_relset::XorShift64;

        let mut cases: Vec<(String, Workload)> = (0..10)
            .map(|seed| {
                (
                    format!("chain-6 seed {seed}"),
                    workload::family_workload(GraphKind::Chain, 6, seed),
                )
            })
            .collect();
        let mut rng = XorShift64::seed_from_u64(121);
        for n in 3..=7 {
            for seed in 0..3 {
                let star = workload::family_workload(GraphKind::Star, n, seed);
                cases.push((format!("star-{n} seed {seed}"), star));
                let graph = generators::random_tree(n, &mut rng).unwrap();
                let catalog = workload::random_catalog(&graph, StatsRanges::default(), &mut rng);
                cases.push((
                    format!("random-tree-{n} #{seed}"),
                    Workload { graph, catalog },
                ));
            }
        }
        for (label, w) in &cases {
            let n = w.graph.num_relations();
            let est = CardinalityEstimator::new(&w.graph, &w.catalog).unwrap();
            let mut best = f64::INFINITY;
            let mut perm: Vec<usize> = (0..n).collect();
            // Heap's algorithm over all n! permutations.
            fn heaps(k: usize, arr: &mut Vec<usize>, visit: &mut impl FnMut(&[usize])) {
                if k == 1 {
                    visit(arr);
                    return;
                }
                for i in 0..k {
                    heaps(k - 1, arr, visit);
                    if k.is_multiple_of(2) {
                        arr.swap(i, k - 1);
                    } else {
                        arr.swap(0, k - 1);
                    }
                }
            }
            let graph = &w.graph;
            heaps(n, &mut perm, &mut |order: &[usize]| {
                let mut set = RelSet::single(order[0]);
                let mut stats = PlanStats::base(est.base_cardinality(order[0]));
                for &rel in &order[1..] {
                    let next = RelSet::single(rel);
                    if !graph.sets_connected(set, next) {
                        return; // cross product — outside the space
                    }
                    let out = est.set_cardinality(set | next);
                    let cost =
                        Cout.join_cost(&stats, &PlanStats::base(est.base_cardinality(rel)), out);
                    stats = PlanStats {
                        cardinality: out,
                        cost,
                    };
                    set |= next;
                }
                if stats.cost < best {
                    best = stats.cost;
                }
            });
            let r = DpSizeLeftDeep
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            assert_eq!(
                r.cost.to_bits(),
                best.to_bits(),
                "{label}: DP {} vs exhaustive {}",
                r.cost,
                best
            );
        }
    }

    #[test]
    fn bushy_strictly_wins_somewhere() {
        let mut strict = false;
        for seed in 0..40 {
            let w = workload::random_workload(9, 0.25, seed);
            let ld = DpSizeLeftDeep
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            let bushy = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            strict |= ld.cost > bushy.cost * 1.01;
        }
        assert!(
            strict,
            "left-deep matched bushy on all 40 seeds — suspicious"
        );
    }

    #[test]
    fn search_space_is_smaller() {
        let w = workload::family_workload(GraphKind::Clique, 10, 0);
        let ld = DpSizeLeftDeep
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        let bushy = crate::DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert!(ld.counters.inner < bushy.counters.inner / 10);
    }
}
