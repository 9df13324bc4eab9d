//! Integration tests for the baseline strategies and the request API:
//! left-deep DP, IDP, GOO and `Algorithm` dispatch through
//! `OptimizeRequest`.

use joinopt::core::greedy::Goo;
use joinopt::core::Idp;
use joinopt::prelude::*;
use joinopt_cost::workload;
use joinopt_relset::XorShift64;

#[test]
fn strategy_cost_ordering_holds() {
    // optimal bushy ≤ IDP(k) ≤ … and optimal bushy ≤ optimal left-deep.
    let mut rng = XorShift64::seed_from_u64(31);
    for trial in 0..10 {
        let g = joinopt::qgraph::generators::random_tree(9, &mut rng).unwrap();
        let cat =
            workload::random_catalog(&g, joinopt_cost::workload::StatsRanges::default(), &mut rng);
        let bushy = DpCcp.optimize(&g, &cat, &Cout).unwrap().cost;
        let ld = DpSizeLeftDeep.optimize(&g, &cat, &Cout).unwrap().cost;
        let idp = Idp::with_block_size(4)
            .optimize(&g, &cat, &Cout)
            .unwrap()
            .cost;
        let goo = Goo.optimize(&g, &cat, &Cout).unwrap().cost;
        let tol = 1e-9 * bushy.abs().max(1.0);
        assert!(bushy <= ld + tol, "trial {trial}");
        assert!(bushy <= idp + tol, "trial {trial}");
        assert!(bushy <= goo + tol, "trial {trial}");
    }
}

#[test]
fn request_dispatches_every_algorithm() {
    let w = workload::family_workload(GraphKind::Cycle, 8, 5);
    let optimal = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap().cost;
    for alg in Algorithm::CONCRETE {
        let r = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(alg)
            .run()
            .map(OptimizeOutcome::into_result)
            .unwrap_or_else(|e| panic!("{alg:?} failed: {e}"));
        assert_eq!(r.tree.relations(), w.graph.all_relations(), "{alg:?}");
        // Exact algorithms hit the optimum; cross-product DP may beat it;
        // heuristics may exceed it — but nothing beats cross-product DP's
        // floor or produces nonsense.
        assert!(r.cost.is_finite() && r.cost > 0.0, "{alg:?}");
        match alg {
            Algorithm::DpSize
            | Algorithm::DpSizeNaive
            | Algorithm::DpSub
            | Algorithm::DpSubUnfiltered
            | Algorithm::TopDown
            | Algorithm::DpCcp
            | Algorithm::DpConv => {
                assert_eq!(
                    r.cost.to_bits(),
                    optimal.to_bits(),
                    "{alg:?}: {} vs {}",
                    r.cost,
                    optimal
                );
            }
            Algorithm::DpSubCrossProducts => assert!(r.cost <= optimal),
            Algorithm::DpSizeLeftDeep | Algorithm::Idp | Algorithm::Goo => {
                assert!(r.cost >= optimal - 1e-9 * optimal)
            }
            Algorithm::Auto => unreachable!("CONCRETE excludes Auto"),
        }
    }
}

#[test]
fn idp_interpolates_between_greedy_and_exact() {
    // Average plan quality must weakly improve with the block size.
    let mut avg = Vec::new();
    for k in [2usize, 4, 8, 12] {
        let mut sum = 0.0;
        for seed in 0..15 {
            let w = workload::random_workload(12, 0.3, seed);
            let idp = Idp::with_block_size(k)
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            let opt = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            sum += idp.cost / opt.cost;
        }
        avg.push(sum / 15.0);
    }
    assert!(
        avg[3] <= avg[0] + 1e-9,
        "k=12 ({}) worse than k=2 ({})",
        avg[3],
        avg[0]
    );
    // k = 12 ≥ n ⇒ exactly optimal.
    assert!(
        (avg[3] - 1.0).abs() < 1e-9,
        "k ≥ n must be exact, got {}",
        avg[3]
    );
}

#[test]
fn counters_scale_with_strategy_effort() {
    // GOO does O(n³) pair probes, left-deep O(#csg·n), full DPsize much
    // more on cliques — sanity-check the instrumentation ordering.
    let w = workload::family_workload(GraphKind::Clique, 11, 0);
    let goo = Goo.optimize(&w.graph, &w.catalog, &Cout).unwrap();
    let ld = DpSizeLeftDeep
        .optimize(&w.graph, &w.catalog, &Cout)
        .unwrap();
    let full = DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
    assert!(goo.counters.inner < ld.counters.inner);
    assert!(ld.counters.inner < full.counters.inner);
}
