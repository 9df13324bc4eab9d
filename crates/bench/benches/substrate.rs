//! Microbenchmarks of the substrate the algorithms are built on:
//! subset stepping, connected-subgraph enumeration, set connectivity
//! tests and cardinality estimation. These are the constant factors
//! behind every DP iteration (in-repo harness — no external benchmark
//! framework).

use joinopt_bench::microbench::Runner;
use joinopt_cost::{workload::family_workload, CardinalityEstimator};
use joinopt_qgraph::{csg, generators, GraphKind};
use joinopt_relset::RelSet;
use std::hint::black_box;

fn subset_enumeration(r: &mut Runner) {
    let set = RelSet::full(16);
    r.bench("substrate_subsets", "vance_maier_2^16", || {
        let mut acc = 0u64;
        for s in black_box(set).subsets() {
            acc ^= s.bits();
        }
        black_box(acc)
    });
}

fn csg_enumeration(r: &mut Runner) {
    for kind in GraphKind::ALL {
        let n = if kind == GraphKind::Clique { 14 } else { 16 };
        let g = generators::generate(kind, n);
        r.bench(
            "substrate_csg",
            &format!("enumerate_csg_{}_{n}", kind.name()),
            || black_box(csg::count_csg(black_box(&g))),
        );
        r.bench(
            "substrate_csg",
            &format!("enumerate_ccp_{}_{n}", kind.name()),
            || black_box(csg::count_ccp_distinct(black_box(&g))),
        );
    }
}

fn connectivity_tests(r: &mut Runner) {
    let g = generators::generate(GraphKind::Cycle, 20);
    let connected = RelSet::from_indices(5..=14);
    let disconnected = RelSet::from_indices([0, 2, 4, 6, 8, 10]);
    r.bench(
        "substrate_connectivity",
        "is_connected_set/connected_arc",
        || black_box(g.is_connected_set(black_box(connected))),
    );
    r.bench(
        "substrate_connectivity",
        "is_connected_set/scattered",
        || black_box(g.is_connected_set(black_box(disconnected))),
    );
    let left = RelSet::from_indices(0..=9);
    let right = RelSet::from_indices(10..=19);
    r.bench("substrate_connectivity", "sets_connected/cut", || {
        black_box(g.sets_connected(black_box(left), black_box(right)))
    });
}

fn cardinality_estimation(r: &mut Runner) {
    // The set-only fold once per connected set — the work an exact DP
    // does to fill its table's cardinalities.
    for (kind, n) in [(GraphKind::Clique, 12), (GraphKind::Star, 14)] {
        let w = family_workload(kind, n, 3);
        let est = CardinalityEstimator::new(&w.graph, &w.catalog).unwrap();
        let sets = csg::collect_csgs(&w.graph);
        r.bench(
            "substrate_estimator",
            &format!("set_cardinality/{}{n}_every_csg", kind.name()),
            || {
                let mut acc = 0.0;
                for &s in black_box(&sets) {
                    acc += est.set_cardinality(s);
                }
                black_box(acc)
            },
        );
    }
    let w = family_workload(GraphKind::Clique, 20, 3);
    let est = CardinalityEstimator::new(&w.graph, &w.catalog).unwrap();
    r.bench(
        "substrate_estimator",
        "set_cardinality/clique20_full",
        || black_box(est.set_cardinality(black_box(w.graph.all_relations()))),
    );
}

fn main() {
    let mut r = Runner::default();
    subset_enumeration(&mut r);
    csg_enumeration(&mut r);
    connectivity_tests(&mut r);
    cardinality_estimation(&mut r);
    r.finish();
}
