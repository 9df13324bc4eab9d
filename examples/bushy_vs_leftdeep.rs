//! How much does *bushy* enumeration buy over the classical left-deep
//! (Selinger) search space?
//!
//! The paper's premise is that optimal **bushy** trees are worth their
//! larger search space. This example sweeps random workloads, optimizes
//! each with the left-deep-restricted DP and with DPccp, and reports the
//! cost-ratio distribution, plus the greedy GOO heuristic for context.
//!
//! Run with: `cargo run --release --example bushy_vs_leftdeep`

use joinopt::prelude::*;
use joinopt_cost::workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const TRIALS: u64 = 200;
    const N: usize = 10;

    let mut ld_ratios = Vec::new();
    let mut goo_ratios = Vec::new();
    let mut bushy_optimal_shapes = 0usize;

    for seed in 0..TRIALS {
        let w = workload::random_workload(N, 0.25, seed);
        let run = |alg: Algorithm| {
            OptimizeRequest::new(&w.graph, &w.catalog)
                .with_algorithm(alg)
                .run()
                .map(OptimizeOutcome::into_result)
        };
        let bushy = run(Algorithm::DpCcp)?;
        // Left-deep DP is a baseline, not a served algorithm: it runs
        // through its orderer.
        let ld = DpSizeLeftDeep.optimize(&w.graph, &w.catalog, &Cout)?;
        let goo = run(Algorithm::Goo)?;
        ld_ratios.push(ld.cost / bushy.cost);
        goo_ratios.push(goo.cost / bushy.cost);
        if bushy.tree.is_properly_bushy() {
            bushy_optimal_shapes += 1;
        }
    }

    let summarize = |label: &str, ratios: &mut Vec<f64>| {
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        let pick = |q: f64| ratios[((ratios.len() - 1) as f64 * q) as usize];
        let worse = ratios.iter().filter(|&&r| r > 1.001).count();
        println!(
            "{label:<22} median {:+.2}%  p90 {:+.2}%  max ×{:.2}   ({worse}/{} strictly worse)",
            (pick(0.5) - 1.0) * 100.0,
            (pick(0.9) - 1.0) * 100.0,
            pick(1.0),
            ratios.len(),
        );
    };

    println!(
        "{TRIALS} random workloads, n = {N} relations, density 0.25, C_out model\n\
         cost relative to the optimal bushy plan (DPccp):\n"
    );
    summarize("optimal left-deep", &mut ld_ratios);
    summarize("GOO greedy (bushy)", &mut goo_ratios);
    println!(
        "\nthe optimal plan was properly bushy (two composite operands \
         somewhere) in {bushy_optimal_shapes}/{TRIALS} workloads"
    );
    Ok(())
}
