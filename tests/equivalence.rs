//! Cross-algorithm equivalence: every exact algorithm must produce a
//! plan of identical optimal cost, on every graph shape, under every
//! cost model, and agree with the independent top-down oracle.

use joinopt::core::exhaustive;
use joinopt::core::{DpSizeNaive, DpSubCrossProducts, DpSubUnfiltered, Idp, TopDown};
use joinopt::prelude::*;
use joinopt_cost::workload;

fn exact_algorithms() -> Vec<&'static dyn JoinOrderer> {
    vec![&DpSize, &DpSizeNaive, &DpSub, &DpSubUnfiltered, &DpCcp]
}

fn assert_same_cost(a: f64, b: f64, ctx: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {a} vs {b}");
}

#[test]
fn all_exact_algorithms_agree_on_families() {
    for kind in GraphKind::ALL {
        for n in 2..=9 {
            for seed in 0..3 {
                let w = workload::family_workload(kind, n, seed);
                let reference = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                for alg in exact_algorithms() {
                    let r = alg.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                    assert_same_cost(
                        r.cost,
                        reference.cost,
                        &format!("{} on {kind} n={n} seed={seed}", alg.name()),
                    );
                    // CsgCmpPairCounter is a graph invariant.
                    assert_eq!(
                        r.counters.csg_cmp_pairs,
                        reference.counters.csg_cmp_pairs,
                        "{} pair counter on {kind} n={n}",
                        alg.name()
                    );
                }
            }
        }
    }
}

#[test]
fn agreement_with_oracle_on_random_graphs() {
    for seed in 0..25 {
        let w = workload::random_workload(8, (seed % 10) as f64 / 10.0, seed);
        let want = exhaustive::optimal_cost(&w.graph, &w.catalog, &Cout).unwrap();
        for alg in exact_algorithms() {
            let r = alg.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_same_cost(r.cost, want, &format!("{} seed={seed}", alg.name()));
        }
    }
}

#[test]
fn agreement_under_every_cost_model() {
    let models: [&dyn CostModel; 5] = [
        &Cout,
        &NestedLoopJoin,
        &HashJoin,
        &SortMergeJoin,
        &MinOverPhysical,
    ];
    for seed in 0..6 {
        let w = workload::random_workload(7, 0.35, seed);
        for model in models {
            let want = exhaustive::optimal_cost(&w.graph, &w.catalog, model).unwrap();
            for alg in exact_algorithms() {
                let r = alg.optimize(&w.graph, &w.catalog, model).unwrap();
                assert_same_cost(
                    r.cost,
                    want,
                    &format!("{} under {} seed={seed}", alg.name(), model.name()),
                );
            }
        }
    }
}

#[test]
fn plans_are_structurally_valid() {
    for kind in GraphKind::ALL {
        let w = workload::family_workload(kind, 10, 3);
        for alg in exact_algorithms() {
            let r = alg.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let tree = &r.tree;
            assert_eq!(tree.relations(), w.graph.all_relations(), "{}", alg.name());
            assert_eq!(tree.num_joins(), 9, "{}", alg.name());
            assert_eq!(tree.cost(), r.cost, "{}", alg.name());
            // No cross products: every join's operands must be connected
            // in the query graph.
            assert_no_cross_products(&w.graph, tree, alg.name());
        }
    }
}

fn assert_no_cross_products(g: &QueryGraph, tree: &JoinTree, alg: &str) {
    if let JoinTree::Join { left, right, .. } = tree {
        assert!(
            g.sets_connected(left.relations(), right.relations()),
            "{alg}: cross product {} × {}",
            left.relations(),
            right.relations()
        );
        assert!(
            g.is_connected_set(left.relations()),
            "{alg}: disconnected operand {}",
            left.relations()
        );
        assert!(
            g.is_connected_set(right.relations()),
            "{alg}: disconnected operand {}",
            right.relations()
        );
        assert_no_cross_products(g, left, alg);
        assert_no_cross_products(g, right, alg);
    }
}

#[test]
fn grid_and_tree_topologies() {
    // Shapes outside the four families exercise the general machinery.
    use joinopt::qgraph::{bfs, generators};
    use joinopt_relset::XorShift64;

    let grid = generators::grid(3, 3).unwrap();
    let (grid, _) = bfs::bfs_renumber(&grid).unwrap();
    let mut rng = XorShift64::seed_from_u64(5);
    let tree = generators::random_tree(9, &mut rng).unwrap();

    for g in [grid, tree] {
        let cat =
            workload::random_catalog(&g, joinopt_cost::workload::StatsRanges::default(), &mut rng);
        let want = exhaustive::optimal_cost(&g, &cat, &Cout).unwrap();
        for alg in exact_algorithms() {
            let r = alg.optimize(&g, &cat, &Cout).unwrap();
            assert_same_cost(r.cost, want, alg.name());
        }
    }
}

#[test]
fn deterministic_across_runs() {
    let w = workload::family_workload(GraphKind::Cycle, 9, 99);
    for alg in exact_algorithms() {
        let a = alg.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        let b = alg.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.tree, b.tree, "{} plan not deterministic", alg.name());
    }
}

/// Re-derives a plan's stats from its leaves: the estimator's fold for
/// every join's cardinality and the model's `join_cost` in the tree's
/// own orientation.
fn recost(est: &CardinalityEstimator, model: &dyn CostModel, tree: &JoinTree) -> PlanStats {
    match tree {
        JoinTree::Scan { relation, .. } => PlanStats::base(est.base_cardinality(*relation)),
        JoinTree::Join { left, right, .. } => {
            let (l, r) = (recost(est, model, left), recost(est, model, right));
            let card = est.set_cardinality(tree.relations());
            PlanStats {
                cardinality: card,
                cost: model.join_cost(&l, &r, card),
            }
        }
    }
}

#[test]
fn every_plan_recosts_to_its_own_cost_bit_for_bit() {
    // Exact engines and heuristics alike: the reported cost is a
    // canonical re-cost of the returned tree.
    let models: [&dyn CostModel; 3] = [&Cout, &HashJoin, &MinOverPhysical];
    for seed in 0..6 {
        let w = workload::random_workload(9, 0.3, seed);
        let est = CardinalityEstimator::new(&w.graph, &w.catalog).unwrap();
        for model in models {
            let others: [&dyn JoinOrderer; 6] = [
                &DpSizeNaive,
                &DpSubUnfiltered,
                &DpSubCrossProducts,
                &TopDown { pruning: true },
                &DpSizeLeftDeep,
                &Idp::with_block_size(10),
            ];
            let orderers = Algorithm::CONCRETE.map(|alg| alg.orderer(&w.graph));
            for orderer in orderers.into_iter().chain(others) {
                let Ok(r) = orderer.optimize(&w.graph, &w.catalog, model) else {
                    assert_eq!(orderer.name(), "DPconv", "only DPconv refuses a model");
                    continue;
                };
                let re = recost(&est, model, &r.tree);
                let ctx = format!("{} under {} seed={seed}", orderer.name(), model.name());
                assert_same_cost(r.cost, re.cost, &ctx);
                assert_eq!(r.cardinality.to_bits(), re.cardinality.to_bits(), "{ctx}");
            }
        }
    }
}
