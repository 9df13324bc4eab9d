//! Randomized property tests for the statistics substrate: estimator
//! consistency and cost-model laws on seeded random workloads.

use joinopt_cost::{
    workload, CardinalityEstimator, CostModel, Cout, HashJoin, MinOverPhysical, NestedLoopJoin,
    PlanStats, SortMergeJoin,
};
use joinopt_relset::{RelSet, XorShift64};

const CASES: usize = 64;

fn models() -> [&'static dyn CostModel; 5] {
    [
        &Cout,
        &NestedLoopJoin,
        &HashJoin,
        &SortMergeJoin,
        &MinOverPhysical,
    ]
}

#[test]
fn estimates_are_positive_and_finite() {
    let mut rng = XorShift64::seed_from_u64(401);
    for _ in 0..CASES {
        let n = rng.gen_range(2..11);
        let d = rng.gen_range(0..11) as f64 / 10.0;
        let w = workload::random_workload(n, d, rng.next_u64());
        let est = CardinalityEstimator::new(&w.graph, &w.catalog).unwrap();
        for bits in 1..(1u64 << n) {
            let s = RelSet::from_bits(bits);
            let card = est.set_cardinality(s);
            assert!(card.is_finite() && card > 0.0, "card({s}) = {card}");
        }
    }
}

#[test]
fn estimator_is_decomposition_invariant() {
    let mut rng = XorShift64::seed_from_u64(402);
    for _ in 0..CASES {
        let n = rng.gen_range(2..9);
        let w = workload::random_workload(n, 0.4, rng.next_u64());
        let est = CardinalityEstimator::new(&w.graph, &w.catalog).unwrap();
        let full = w.graph.all_relations();
        let direct = est.set_cardinality(full);
        for s1 in full.non_empty_proper_subsets() {
            let s2 = full - s1;
            // System R's join formula: |S₁| · |S₂| · ∏ f_e over the cut.
            let mut via = est.set_cardinality(s1) * est.set_cardinality(s2);
            for (id, e) in w.graph.edges().iter().enumerate() {
                if s1.contains(e.u) != s1.contains(e.v) {
                    via *= w.catalog.selectivity(id);
                }
            }
            assert!(
                (via - direct).abs() <= 1e-6 * direct.abs(),
                "split {s1}/{s2}: {via} vs {direct}"
            );
        }
    }
}

#[test]
fn adding_a_relation_multiplies_cardinality_correctly() {
    // card(S ∪ {v}) = card(S) · |v| · ∏ selectivities of v's edges into S
    let mut rng = XorShift64::seed_from_u64(403);
    for _ in 0..CASES {
        let n = rng.gen_range(3..10);
        let w = workload::random_workload(n, 0.4, rng.next_u64());
        let est = CardinalityEstimator::new(&w.graph, &w.catalog).unwrap();
        let s = RelSet::full(n - 1);
        let v = n - 1;
        let mut expected = est.set_cardinality(s) * est.base_cardinality(v);
        for (id, e) in w.graph.edges().iter().enumerate() {
            if (e.u == v && s.contains(e.v)) || (e.v == v && s.contains(e.u)) {
                expected *= w.catalog.selectivity(id);
            }
        }
        let got = est.set_cardinality(RelSet::full(n));
        assert!((got - expected).abs() <= 1e-6 * expected.abs());
    }
}

#[test]
fn cost_models_are_finite_positive_and_monotone() {
    let mut rng = XorShift64::seed_from_u64(404);
    for _ in 0..CASES {
        let lc = rng.gen_range_f64(1.0, 1e6);
        let rc = rng.gen_range_f64(1.0, 1e6);
        let out = rng.gen_range_f64(1.0, 1e9);
        let lcost = rng.gen_range_f64(0.0, 1e9);
        let rcost = rng.gen_range_f64(0.0, 1e9);
        let l = PlanStats {
            cardinality: lc,
            cost: lcost,
        };
        let r = PlanStats {
            cardinality: rc,
            cost: rcost,
        };
        for m in models() {
            let c = m.join_cost(&l, &r, out);
            assert!(c.is_finite() && c >= 0.0, "{}: {c}", m.name());
            // Monotone in both children's accumulated cost.
            let dearer = PlanStats {
                cost: lcost + 100.0,
                ..l
            };
            assert!(
                m.join_cost(&dearer, &r, out) >= c,
                "{} not monotone in left cost",
                m.name()
            );
            let dearer_r = PlanStats {
                cost: rcost + 100.0,
                ..r
            };
            assert!(
                m.join_cost(&l, &dearer_r, out) >= c,
                "{} not monotone in right cost",
                m.name()
            );
        }
    }
}

#[test]
fn symmetric_models_really_are_symmetric() {
    let mut rng = XorShift64::seed_from_u64(405);
    for _ in 0..CASES {
        let lc = rng.gen_range_f64(1.0, 1e6);
        let rc = rng.gen_range_f64(1.0, 1e6);
        let out = rng.gen_range_f64(1.0, 1e9);
        // Random child costs: fixed round ones would hide a total that
        // adds them in an order that depends on the orientation.
        let l = PlanStats {
            cardinality: lc,
            cost: rng.gen_range_f64(0.0, 1e9),
        };
        let r = PlanStats {
            cardinality: rc,
            cost: rng.gen_range_f64(0.0, 1e9),
        };
        for m in models() {
            if m.is_symmetric() {
                assert_eq!(
                    m.join_cost(&l, &r, out).to_bits(),
                    m.join_cost(&r, &l, out).to_bits(),
                    "{} claims symmetry but differs",
                    m.name()
                );
            }
        }
    }
}

#[test]
fn min_over_physical_is_the_lower_envelope() {
    let mut rng = XorShift64::seed_from_u64(406);
    for _ in 0..CASES {
        let lc = rng.gen_range_f64(1.0, 1e6);
        let rc = rng.gen_range_f64(1.0, 1e6);
        let out = rng.gen_range_f64(1.0, 1e9);
        let l = PlanStats {
            cardinality: lc,
            cost: 0.0,
        };
        let r = PlanStats {
            cardinality: rc,
            cost: 0.0,
        };
        let min = MinOverPhysical.join_cost(&l, &r, out);
        assert!(min <= NestedLoopJoin.join_cost(&l, &r, out));
        assert!(min <= HashJoin.join_cost(&l, &r, out));
        assert!(min <= SortMergeJoin.join_cost(&l, &r, out));
        let reachable = [
            NestedLoopJoin.join_cost(&l, &r, out),
            HashJoin.join_cost(&l, &r, out),
            SortMergeJoin.join_cost(&l, &r, out),
        ];
        assert!(reachable.iter().any(|&c| (c - min).abs() < 1e-9));
    }
}

#[test]
fn workload_statistics_are_always_valid() {
    let mut rng = XorShift64::seed_from_u64(407);
    for _ in 0..CASES {
        let n = rng.gen_range(1..13);
        let d = rng.gen_range(0..11) as f64 / 10.0;
        let w = workload::random_workload(n, d, rng.next_u64());
        for i in 0..w.graph.num_relations() {
            let c = w.catalog.cardinality(i);
            assert!(c >= 1.0 && c.is_finite());
        }
        for e in 0..w.graph.num_edges() {
            let f = w.catalog.selectivity(e);
            assert!(f > 0.0 && f <= 1.0);
        }
        assert!(w.graph.is_connected());
    }
}
