//! Adversarial validation of DPhyp on randomized hypergraphs against the
//! independent brute-force oracle: DPhyp must find exactly the optimal
//! cross-product-free cost whenever one exists, and report
//! `NoPlanWithoutCrossProducts` exactly when the oracle finds none.

use joinopt::core::exhaustive::optimal_cost_hypergraph;
use joinopt::core::{DpCcp, DpHyp, OptimizeError};
use joinopt::prelude::*;
use joinopt::qgraph::hypergraph::Hypergraph;
use joinopt_cost::workload;
use joinopt_relset::XorShift64;

/// A random hypergraph: a random connected simple graph plus `extra`
/// random complex edges, with a matching random catalog.
fn random_hypergraph(n: usize, extra: usize, seed: u64) -> (Hypergraph, Catalog) {
    let w = workload::random_workload(n, 0.25, seed);
    let mut h = Hypergraph::from_query_graph(&w.graph);
    let mut rng = XorShift64::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let mut added = 0;
    let mut attempts = 0;
    while added < extra && attempts < 200 {
        attempts += 1;
        let u_size = rng.gen_range(1..3.min(n - 1) + 1);
        let v_size = rng.gen_range(1..2.min(n - u_size) + 1);
        let mut pool: Vec<usize> = (0..n).collect();
        // Fisher–Yates prefix shuffle to pick disjoint sides.
        for i in 0..(u_size + v_size) {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let u = RelSet::from_indices(pool[..u_size].iter().copied());
        let v = RelSet::from_indices(pool[u_size..u_size + v_size].iter().copied());
        if h.add_edge(u, v).is_ok() {
            added += 1;
        }
    }
    let mut cat = Catalog::with_shape(n, h.num_edges());
    for i in 0..n {
        cat.set_cardinality(i, w.catalog.cardinality(i)).unwrap();
    }
    let mut srng = XorShift64::seed_from_u64(seed ^ 0xFEED);
    for e in 0..h.num_edges() {
        cat.set_selectivity(e, srng.gen_range_f64(0.0001, 1.0))
            .unwrap();
    }
    (h, cat)
}

#[test]
fn dphyp_matches_oracle_on_random_hypergraphs() {
    let mut solved = 0;
    for seed in 0..60 {
        let n = 3 + (seed as usize % 6); // 3..=8 relations
        let extra = 1 + (seed as usize % 3);
        let (h, cat) = random_hypergraph(n, extra, seed);
        if !h.is_connected() {
            continue;
        }
        let oracle = optimal_cost_hypergraph(&h, &cat, &Cout).unwrap();
        match DpHyp.optimize(&h, &cat, &Cout) {
            Ok(r) => {
                let want = oracle.unwrap_or_else(|| {
                    panic!("seed {seed}: DPhyp found a plan the oracle says cannot exist")
                });
                assert_eq!(
                    r.cost.to_bits(),
                    want.to_bits(),
                    "seed {seed}: DPhyp {} vs oracle {want}",
                    r.cost
                );
                solved += 1;
            }
            Err(OptimizeError::NoPlanWithoutCrossProducts) => {
                assert!(
                    oracle.is_none(),
                    "seed {seed}: oracle found cost {oracle:?} but DPhyp found none \
                     (incomplete enumeration!)"
                );
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
    assert!(
        solved >= 20,
        "only {solved} solvable cases — generator too harsh"
    );
}

#[test]
fn dphyp_matches_oracle_under_asymmetric_model() {
    for seed in 100..130 {
        let (h, cat) = random_hypergraph(6, 2, seed);
        if !h.is_connected() {
            continue;
        }
        let oracle = optimal_cost_hypergraph(&h, &cat, &HashJoin).unwrap();
        match DpHyp.optimize(&h, &cat, &HashJoin) {
            Ok(r) => {
                let want = oracle.expect("DPhyp plan implies oracle plan");
                assert_eq!(
                    r.cost.to_bits(),
                    want.to_bits(),
                    "seed {seed}: {} vs {}",
                    r.cost,
                    want
                );
            }
            Err(OptimizeError::NoPlanWithoutCrossProducts) => assert!(oracle.is_none()),
            Err(other) => panic!("seed {seed}: {other}"),
        }
    }
}

#[test]
fn dphyp_equals_dpccp_on_lifted_simple_graphs() {
    for seed in 0..15 {
        let w = workload::random_workload(8, 0.3, seed);
        let h = Hypergraph::from_query_graph(&w.graph);
        let hyp = DpHyp.optimize(&h, &w.catalog, &Cout).unwrap();
        let ccp = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(hyp.cost.to_bits(), ccp.cost.to_bits(), "seed {seed}");
        assert_eq!(hyp.counters.inner, ccp.counters.inner, "seed {seed}");
        assert_eq!(
            hyp.counters.csg_cmp_pairs, ccp.counters.csg_cmp_pairs,
            "seed {seed}"
        );
    }
}

#[test]
fn dphyp_plans_respect_complex_predicates() {
    // Every join in the produced tree must be backed by a predicate whose
    // sides are fully contained in the respective operands.
    for seed in 200..220 {
        let (h, cat) = random_hypergraph(7, 2, seed);
        if !h.is_connected() {
            continue;
        }
        let Ok(r) = DpHyp.optimize(&h, &cat, &Cout) else {
            continue;
        };
        fn check(h: &Hypergraph, t: &JoinTree) {
            if let JoinTree::Join { left, right, .. } = t {
                assert!(
                    h.connects(left.relations(), right.relations()),
                    "cross product {} × {}",
                    left.relations(),
                    right.relations()
                );
                check(h, left);
                check(h, right);
            }
        }
        check(&h, &r.tree);
        assert_eq!(r.tree.relations(), h.all_relations());
    }
}
