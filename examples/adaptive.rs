//! Adaptive algorithm selection — the paper's concluding recommendation
//! operationalized: `Algorithm::Auto` inspects the query graph's
//! density and picks DPsub for (near-)cliques and DPccp everywhere else,
//! under every cost model. The library, the CLI and the server resolve
//! it by the same rule.
//!
//! Run with: `cargo run --release --example adaptive`

use joinopt::prelude::*;
use joinopt_cost::workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<8} {:>3} {:>8} {:>8} {:>12} {:>12}",
        "graph", "n", "density", "auto", "time", "counters"
    );
    for kind in GraphKind::ALL {
        let n = 13;
        let w = workload::family_workload(kind, n, 7);

        // The same rule on every machine and under every cost model:
        // DPsub at ≥ 90% of all possible edges, DPccp below.
        let density = w.graph.num_edges() as f64 / (n * (n - 1) / 2) as f64;
        let outcome = OptimizeRequest::new(&w.graph, &w.catalog).run()?;

        println!(
            "{:<8} {:>3} {:>7.0}% {:>8} {:>12} {:>12}",
            kind.name(),
            n,
            100.0 * density,
            format!("{:?}", outcome.algorithm),
            format!("{:.2?}", outcome.elapsed),
            outcome.result.counters.inner,
        );

        // Sanity: the auto result must cost the same as explicit DPccp.
        let reference = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpCcp)
            .run()?;
        assert_eq!(
            outcome.result.cost.to_bits(),
            reference.result.cost.to_bits(),
            "auto selection changed the optimum?!"
        );
    }

    println!(
        "\nAuto resolves to DPsub only on dense graphs (≥90% complete), \
         where subset enumeration's trivial inner loop beats the csg \
         machinery (and, under C_out, DPconv's convolution); everywhere \
         else DPccp is chosen (it meets the Ono/Lohman lower bound)."
    );
    Ok(())
}
