//! Pooled sessions and the batch API, end to end:
//!
//! 1. a pooled [`Session`] amortizing DP-table and plan-arena
//!    allocations across repeated runs;
//! 2. [`OptimizerService::submit_batch`] spreading a mixed workload
//!    across worker threads, each with its own pooled session.
//!
//! Run with: `cargo run --release --example parallel_batch`

use joinopt::prelude::*;
use joinopt_cost::workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Session pooling across repeated optimizations. -----------
    let mut session = Session::new();
    for kind in GraphKind::ALL {
        let w = workload::family_workload(kind, 11, 3);
        OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .run_in(&mut session)?;
    }
    println!(
        "session pooled {} runs holding {} bytes of reusable buffers\n",
        session.runs(),
        session.pooled_bytes(),
    );

    // --- 2. A batch of owned requests across the worker pool. ---------
    let requests = (0..6)
        .map(|i| {
            let w = workload::family_workload(GraphKind::ALL[i % 4], 8 + i % 3, i as u64);
            Ok(ServiceRequest::new(QuerySpec::capture(
                &w.graph, &w.catalog,
            )?))
        })
        .collect::<Result<Vec<_>, OptimizeError>>()?;
    let results = OptimizerService::default().submit_batch(&requests);
    println!("batch of {} queries:", results.len());
    for (i, r) in results.iter().enumerate() {
        let r = r.as_ref().expect("connected workloads optimize");
        println!("  #{i}  cost={:.6e}  {}", r.result.cost, r.result.tree);
    }
    Ok(())
}
