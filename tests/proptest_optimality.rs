//! Randomized end-to-end tests: on arbitrary random workloads, the
//! three algorithms agree with each other and with the oracle, plans are
//! valid cross-product-free bushy trees, and counters obey their
//! invariants (seeded, deterministic).

use joinopt::core::exhaustive;
use joinopt::prelude::*;
use joinopt_cost::workload;
use joinopt_relset::XorShift64;

const CASES: usize = 48;

struct Case {
    n: usize,
    density: f64,
    seed: u64,
}

fn arb_case(rng: &mut XorShift64) -> Case {
    Case {
        n: rng.gen_range(2..9),
        density: rng.gen_range(0..11) as f64 / 10.0,
        seed: rng.next_u64(),
    }
}

#[test]
fn algorithms_agree_with_oracle() {
    let mut rng = XorShift64::seed_from_u64(601);
    for _ in 0..CASES {
        let case = arb_case(&mut rng);
        let w = workload::random_workload(case.n, case.density, case.seed);
        let want = exhaustive::optimal_cost(&w.graph, &w.catalog, &Cout).unwrap();
        for alg in [&DpSize as &dyn JoinOrderer, &DpSub, &DpCcp] {
            let r = alg.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(
                r.cost.to_bits(),
                want.to_bits(),
                "{}: {} vs oracle {}",
                alg.name(),
                r.cost,
                want
            );
        }
    }
}

#[test]
fn plans_cover_all_relations_without_cross_products() {
    let mut rng = XorShift64::seed_from_u64(602);
    for _ in 0..CASES {
        let case = arb_case(&mut rng);
        let w = workload::random_workload(case.n, case.density, case.seed);
        let r = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(r.tree.relations(), w.graph.all_relations());
        assert_eq!(r.tree.num_joins(), case.n - 1);
        // Walk the tree: every join must connect its operands.
        fn check(g: &QueryGraph, t: &JoinTree) -> bool {
            match t {
                JoinTree::Scan { .. } => true,
                JoinTree::Join { left, right, .. } => {
                    g.sets_connected(left.relations(), right.relations())
                        && check(g, left)
                        && check(g, right)
                }
            }
        }
        assert!(check(&w.graph, &r.tree));
    }
}

#[test]
fn counter_invariants() {
    let mut rng = XorShift64::seed_from_u64(603);
    for _ in 0..CASES {
        let case = arb_case(&mut rng);
        let w = workload::random_workload(case.n, case.density, case.seed);
        for alg in [&DpSize as &dyn JoinOrderer, &DpSub, &DpCcp] {
            let r = alg.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let c = r.counters;
            assert_eq!(c.csg_cmp_pairs, 2 * c.ono_lohman, "{}", alg.name());
            // InnerCounter dominates the useful work: for DPccp inner
            // counts unordered pairs, for the others ordered ones.
            if alg.name() == "DPccp" {
                assert_eq!(c.inner, c.ono_lohman);
            } else {
                assert!(c.inner >= c.ono_lohman, "{}", alg.name());
            }
        }
    }
}

#[test]
fn costs_are_monotone_in_cardinalities() {
    // Scaling every base cardinality up cannot make the optimum cheaper.
    let mut rng = XorShift64::seed_from_u64(604);
    for _ in 0..CASES {
        let case = arb_case(&mut rng);
        let w = workload::random_workload(case.n, case.density, case.seed);
        let base = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap().cost;
        let mut bigger = w.catalog.clone();
        for i in 0..case.n {
            bigger
                .set_cardinality(i, w.catalog.cardinality(i) * 2.0)
                .unwrap();
        }
        let scaled = DpCcp.optimize(&w.graph, &bigger, &Cout).unwrap().cost;
        assert!(scaled >= base);
    }
}

#[test]
fn estimator_consistency_full_set() {
    // The optimizer's reported cardinality equals the estimator's
    // direct full-set estimate, independent of the plan found.
    let mut rng = XorShift64::seed_from_u64(605);
    for _ in 0..CASES {
        let case = arb_case(&mut rng);
        let w = workload::random_workload(case.n, case.density, case.seed);
        let est = CardinalityEstimator::new(&w.graph, &w.catalog).unwrap();
        let direct = est.set_cardinality(w.graph.all_relations());
        let r = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(
            r.cardinality.to_bits(),
            direct.to_bits(),
            "{} vs {}",
            r.cardinality,
            direct
        );
    }
}
