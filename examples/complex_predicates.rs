//! Complex (multi-relation) join predicates — the hypergraph extension.
//!
//! A predicate like `R1.a + R2.b = R3.c` cannot be attached to a single
//! graph edge: it only becomes applicable once `{R1, R2}` are joined.
//! DPccp's enumeration machinery generalizes to hypergraphs (DPhyp); this
//! example optimizes a query whose shape *forces* partial join orders and
//! shows the difference against naively treating the predicate as a
//! clique of binary edges.
//!
//! Run with: `cargo run --release --example complex_predicates`

use joinopt::core::DpHyp;
use joinopt::prelude::*;
use joinopt::qgraph::hypergraph::Hypergraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five relations. Simple predicates chain part of the query;
    // two complex predicates tie the rest together:
    //   sales ⋈ currency   (simple)
    //   sales ⋈ customer   (simple)
    //   sales.amount * currency.rate = budget.limit    → ({0,1}, {3})
    //   customer.region + budget.region = audit.region → ({2,3}, {4})
    let names = ["sales", "currency", "customer", "budget", "audit"];
    let mut h = Hypergraph::new(5)?;
    let e0 = h.add_edge(RelSet::single(0), RelSet::single(1))?;
    let e1 = h.add_edge(RelSet::single(0), RelSet::single(2))?;
    let e2 = h.add_edge(RelSet::from_indices([0, 1]), RelSet::single(3))?;
    let e3 = h.add_edge(RelSet::from_indices([2, 3]), RelSet::single(4))?;

    let mut catalog = Catalog::with_shape(5, 4);
    catalog.set_cardinality(0, 5_000_000.0)?; // sales
    catalog.set_cardinality(1, 200.0)?; // currency
    catalog.set_cardinality(2, 50_000.0)?; // customer
    catalog.set_cardinality(3, 1_000.0)?; // budget
    catalog.set_cardinality(4, 500.0)?; // audit
    catalog.set_selectivity(e0, 1.0 / 200.0)?;
    catalog.set_selectivity(e1, 1.0 / 50_000.0)?;
    catalog.set_selectivity(e2, 1.0 / 1_000.0)?;
    catalog.set_selectivity(e3, 1.0 / 500.0)?;

    // Hypergraph queries run on DPhyp directly: `OptimizeRequest` (the
    // session API) covers binary query graphs, where the DP table can be
    // direct-addressed.
    let result = DpHyp.optimize(&h, &catalog, &Cout)?;

    println!("query hypergraph: {h}");
    for (i, name) in names.iter().enumerate() {
        println!("  R{i} = {name}");
    }
    println!();
    println!("optimal plan: {}", result.tree);
    println!("cost:         {:.3e}", result.cost);
    println!("counters:     {}", result.counters);
    println!();
    println!("{}", result.tree.explain());

    // Structural guarantee: budget (R3) joins only after sales⋈currency,
    // audit (R4) only after customer and budget are both present.
    fn no_early_joins(t: &JoinTree) {
        if let JoinTree::Join { left, right, .. } = t {
            let (l, r) = (left.relations(), right.relations());
            for (single, needs) in [(3usize, [0usize, 1]), (4, [2, 3])] {
                for (a, b) in [(l, r), (r, l)] {
                    if a == RelSet::single(single) {
                        assert!(
                            needs.iter().all(|&x| b.contains(x)),
                            "R{single} joined before its predicate was applicable"
                        );
                    }
                }
            }
            no_early_joins(left);
            no_early_joins(right);
        }
    }
    no_early_joins(&result.tree);
    println!("verified: every join is backed by an applicable predicate ✓");
    Ok(())
}
