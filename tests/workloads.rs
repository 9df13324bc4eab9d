//! Every file shipped in `workloads/` must parse, optimize, and produce
//! a plan that all exact algorithms agree on — the files double as
//! documentation and as an integration corpus.

use std::path::PathBuf;

use joinopt::core::DpHyp;
use joinopt::prelude::*;
use joinopt::query::{parse, parse_sql, ParsedQuery};

fn workloads_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("workloads")
}

fn load(name: &str) -> ParsedQuery {
    let path = workloads_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if name.ends_with(".sql") {
        parse_sql(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
    } else {
        parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
    }
}

const ALL_WORKLOADS: [&str; 6] = [
    "tpch_q3_like.sql",
    "tpch_q5_like.sql",
    "star_schema.query",
    "snowflake.query",
    "complex_predicate.query",
    "clique_analytics.query",
];

#[test]
fn every_workload_parses_and_optimizes() {
    for name in ALL_WORKLOADS {
        let q = load(name);
        match q.graph() {
            Some(graph) => {
                let r = Optimizer::new()
                    .optimize(graph, &q.catalog)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(r.tree.num_relations(), q.names().len(), "{name}");
                assert!(r.cost.is_finite() && r.cost > 0.0, "{name}");
            }
            None => {
                let r = DpHyp
                    .optimize(&q.hypergraph, &q.catalog, &Cout)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(r.tree.num_relations(), q.names().len(), "{name}");
            }
        }
    }
}

#[test]
fn exact_algorithms_agree_on_all_simple_workloads() {
    for name in ALL_WORKLOADS {
        let q = load(name);
        let Some(graph) = q.graph() else {
            continue;
        };
        let ccp = DpCcp.optimize(graph, &q.catalog, &Cout).unwrap();
        for alg in [&DpSize as &dyn JoinOrderer, &DpSub] {
            let r = alg.optimize(graph, &q.catalog, &Cout).unwrap();
            assert_eq!(
                r.cost.to_bits(),
                ccp.cost.to_bits(),
                "{name}: {} found {} vs DPccp {}",
                alg.name(),
                r.cost,
                ccp.cost
            );
        }
    }
}

#[test]
fn q5_cycle_shape_is_detected() {
    let q = load("tpch_q5_like.sql");
    let g = q.graph().expect("Q5 predicates are all binary");
    // customer–orders–lineitem–supplier–nation(–customer) plus region:
    // the nation predicates close a cycle.
    assert_eq!(g.num_relations(), 6);
    assert_eq!(g.num_edges(), 6);
    // There is a cycle: more edges than a tree.
    assert!(g.num_edges() > g.num_relations() - 1);
    // The region filter scaled |region| down.
    let region = q.index_of("r").expect("alias r");
    assert!(q.catalog.cardinality(region) < 5.0);
}

#[test]
fn star_schema_optimum_starts_from_selective_dimension() {
    let q = load("star_schema.query");
    let g = q.graph().unwrap();
    let r = DpCcp.optimize(g, &q.catalog, &Cout).unwrap();
    // Star queries admit only plans where the fact table participates
    // from the first join (every predicate touches it).
    let leaves = r.tree.leaf_order();
    let fact = q.index_of("sales").unwrap();
    assert!(
        leaves[0] == fact || leaves[1] == fact,
        "fact table must be in the first join: {leaves:?}"
    );
}

#[test]
fn complex_predicate_workload_requires_dphyp() {
    let q = load("complex_predicate.query");
    assert!(!q.is_simple());
    assert_eq!(q.hypergraph.num_complex_edges(), 2);
    let r = DpHyp.optimize(&q.hypergraph, &q.catalog, &Cout).unwrap();
    // budget may only join once sales ⋈ currency exists.
    let rendered = q.render_tree(&r.tree);
    assert!(rendered.contains("sales"), "{rendered}");
}

#[test]
fn clique_workload_triggers_dpsub_auto_selection() {
    let q = load("clique_analytics.query");
    let g = q.graph().unwrap();
    assert_eq!(Algorithm::select_auto(g), Algorithm::DpSub);
}
