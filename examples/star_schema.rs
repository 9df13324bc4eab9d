//! Data-warehouse star query — the workload the paper singles out as
//! practically important ("star queries are of high practical importance
//! in data warehouses") and on which DPccp is *highly* superior to both
//! DPsize and DPsub.
//!
//! A fact table is joined with `n − 1` dimension tables; every join
//! predicate touches the fact table, so the query graph is a star. This
//! example optimizes a 15-way star with all three algorithms, showing
//! identical optimal plans but wildly different enumeration effort.
//!
//! Run with: `cargo run --release --example star_schema`

use joinopt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const DIMENSIONS: usize = 14;
    let n = DIMENSIONS + 1;

    // R0 = fact table, R1..=R14 = dimensions.
    let graph = qgraph::generators::star(n)?;
    let mut catalog = Catalog::new(&graph);
    catalog.set_cardinality(0, 100_000_000.0)?; // sales fact
    for d in 1..n {
        // Dimensions of varying size: 10 … ~5 million rows.
        let card = 10.0 * 4.0_f64.powi(d as i32 - 1).min(500_000.0);
        catalog.set_cardinality(d, card)?;
        // Key-foreign-key joins: selectivity 1/|dimension|.
        catalog.set_selectivity(d - 1, 1.0 / card)?;
    }

    println!("star query: fact table + {DIMENSIONS} dimensions (n = {n})\n");
    println!(
        "{:<10} {:>12} {:>16} {:>12} {:>10}",
        "algorithm", "time", "InnerCounter", "#ccp/2", "cost"
    );

    let algorithms = [Algorithm::DpSize, Algorithm::DpSub, Algorithm::DpCcp];
    let mut trees = Vec::new();
    for alg in algorithms {
        let outcome = OptimizeRequest::new(&graph, &catalog)
            .with_algorithm(alg)
            .run()?;
        println!(
            "{:<10} {:>12} {:>16} {:>12} {:>10.3e}",
            alg.orderer(&graph).name(),
            format!("{:.2?}", outcome.elapsed),
            outcome.result.counters.inner,
            outcome.result.counters.ono_lohman,
            outcome.result.cost,
        );
        trees.push(outcome.into_result());
    }

    // All three algorithms find plans of the same (optimal) cost, bit
    // for bit.
    assert!(trees
        .windows(2)
        .all(|w| w[0].cost.to_bits() == w[1].cost.to_bits()));

    println!(
        "\noptimal plan (all three agree):\n{}",
        trees[2].tree.explain()
    );
    println!(
        "DPccp hit rate: {:.1}% of innermost iterations produce a plan \
         (DPsize: {:.4}%, DPsub: {:.4}%)",
        100.0 * trees[2].counters.hit_rate(),
        100.0 * trees[0].counters.hit_rate(),
        100.0 * trees[1].counters.hit_rate(),
    );
    Ok(())
}
