//! An independent brute-force oracle for the test suite.
//!
//! The three DP algorithms share the driver plumbing, so a bug there
//! could make them agree *and* be wrong. This module computes optimal
//! costs through a structurally different path — top-down memoized
//! recursion over canonical splits, with joinability checked directly
//! against the graph — and is used by the integration tests as the
//! ground truth for `n ≤ 10`. It prices joins with the same set-only
//! cardinality fold and pair-cost kernel as the engines, so its optimum
//! is the same f64 bit for bit.

use std::collections::HashMap;

use joinopt_cost::{ensure_finite, CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_qgraph::hypergraph::Hypergraph;
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;

use crate::error::OptimizeError;
use crate::kernel::pair_cost;

/// Computes the cost of an optimal bushy join tree for `g` without cross
/// products, by top-down recursion.
///
/// # Errors
///
/// Fails for empty or disconnected graphs or mismatched catalogs.
pub fn optimal_cost(
    g: &QueryGraph,
    catalog: &Catalog,
    model: &dyn CostModel,
) -> Result<f64, OptimizeError> {
    if g.num_relations() == 0 {
        return Err(OptimizeError::EmptyQuery);
    }
    g.require_connected()?;
    let est = CardinalityEstimator::new(g, catalog)?;
    solve(&est, model, g.all_relations(), &|s1, s2| {
        g.sets_connected(s1, s2)
    })?
    .ok_or_else(|| {
        OptimizeError::Internal("exhaustive search found no plan for a solvable graph".into())
    })
}

/// Like [`optimal_cost`] but allowing cross products (any disjoint split
/// is a legal join). Defined for disconnected graphs too.
///
/// # Errors
///
/// Fails for empty graphs or mismatched catalogs.
pub fn optimal_cost_with_cross_products(
    g: &QueryGraph,
    catalog: &Catalog,
    model: &dyn CostModel,
) -> Result<f64, OptimizeError> {
    if g.num_relations() == 0 {
        return Err(OptimizeError::EmptyQuery);
    }
    let est = CardinalityEstimator::new(g, catalog)?;
    solve(&est, model, g.all_relations(), &|_, _| true)?.ok_or_else(|| {
        OptimizeError::Internal("exhaustive search found no cross-product plan".into())
    })
}

/// Brute-force oracle for hypergraph workloads: returns `Ok(None)` when
/// no cross-product-free bushy tree exists (the buildability gap the
/// hypergraph module documents), otherwise the optimal cost.
///
/// # Errors
///
/// Fails for empty hypergraphs or mismatched catalogs.
pub fn optimal_cost_hypergraph(
    h: &Hypergraph,
    catalog: &Catalog,
    model: &dyn CostModel,
) -> Result<Option<f64>, OptimizeError> {
    if h.num_relations() == 0 {
        return Err(OptimizeError::EmptyQuery);
    }
    let est = CardinalityEstimator::for_hypergraph(h, catalog)?;
    solve(&est, model, h.all_relations(), &|s1, s2| h.connects(s1, s2))
}

/// The optimal cost of `full` when a split `(S₁, S₂)` may be joined iff
/// `joinable(S₁, S₂)`, or `None` when no tree exists.
fn solve(
    est: &CardinalityEstimator,
    model: &dyn CostModel,
    full: RelSet,
    joinable: &dyn Fn(RelSet, RelSet) -> bool,
) -> Result<Option<f64>, OptimizeError> {
    let mut memo = HashMap::new();
    Ok(best(est, model, joinable, full, &mut memo)?.map(|stats| stats.cost))
}

fn best(
    est: &CardinalityEstimator,
    model: &dyn CostModel,
    joinable: &dyn Fn(RelSet, RelSet) -> bool,
    s: RelSet,
    memo: &mut HashMap<RelSet, Option<PlanStats>>,
) -> Result<Option<PlanStats>, OptimizeError> {
    if let Some(&hit) = memo.get(&s) {
        return Ok(hit);
    }
    if s.is_singleton() {
        return Ok(Some(PlanStats::base(est.set_cardinality(s))));
    }
    // Canonical split: s1 always contains the minimum element, so every
    // unordered split is tried once; both operand orders are costed.
    let anchor = s.lowest();
    let rest = s - anchor;
    let mut best_stats: Option<PlanStats> = None;
    for sub in rest.subsets() {
        let s1 = anchor | sub;
        if s1 == s {
            continue;
        }
        let s2 = s - s1;
        if !joinable(s1, s2) {
            continue;
        }
        let Some(p1) = best(est, model, joinable, s1, memo)? else {
            continue;
        };
        let Some(p2) = best(est, model, joinable, s2, memo)? else {
            continue;
        };
        let out = match best_stats {
            Some(b) => b.cardinality,
            None => ensure_finite("cardinality", est.set_cardinality(s))?,
        };
        let (cost, _) = pair_cost(model, &p1, &p2, out, true)?;
        if best_stats.is_none_or(|b| cost < b.cost) {
            best_stats = Some(PlanStats {
                cardinality: out,
                cost,
            });
        }
    }
    memo.insert(s, best_stats);
    Ok(best_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpCcp, DpSize, DpSub, JoinOrderer};
    use joinopt_cost::{workload, Cout, HashJoin};
    use joinopt_qgraph::GraphKind;

    #[test]
    fn oracle_agrees_with_all_three_algorithms() {
        for kind in GraphKind::ALL {
            for seed in 0..4 {
                let w = workload::family_workload(kind, 7, seed);
                let want = optimal_cost(&w.graph, &w.catalog, &Cout).unwrap();
                for alg in [&DpSize as &dyn JoinOrderer, &DpSub, &DpCcp] {
                    let got = alg.optimize(&w.graph, &w.catalog, &Cout).unwrap().cost;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} on {kind} seed {seed}: {got} vs oracle {want}",
                        alg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_agrees_under_asymmetric_model() {
        for seed in 0..5 {
            let w = workload::random_workload(6, 0.4, seed);
            let want = optimal_cost(&w.graph, &w.catalog, &HashJoin).unwrap();
            let got = DpCcp
                .optimize(&w.graph, &w.catalog, &HashJoin)
                .unwrap()
                .cost;
            assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn cross_products_never_hurt() {
        for seed in 0..5 {
            let w = workload::random_workload(6, 0.3, seed);
            let without = optimal_cost(&w.graph, &w.catalog, &Cout).unwrap();
            let with = optimal_cost_with_cross_products(&w.graph, &w.catalog, &Cout).unwrap();
            assert!(with <= without, "seed {seed}");
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = QueryGraph::new(0).unwrap();
        assert!(optimal_cost(&g, &Catalog::new(&g), &Cout).is_err());
        let disc = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(optimal_cost(&disc, &Catalog::new(&disc), &Cout).is_err());
        // …but the cross-product oracle handles disconnected graphs.
        assert!(optimal_cost_with_cross_products(&disc, &Catalog::new(&disc), &Cout).is_ok());
    }

    #[test]
    fn single_relation_costs_zero() {
        let w = workload::family_workload(GraphKind::Chain, 1, 0);
        assert_eq!(optimal_cost(&w.graph, &w.catalog, &Cout).unwrap(), 0.0);
    }
}
