//! Pooled sessions and the batch API, end to end:
//!
//! 1. a pooled [`Session`] amortizing DP-table and plan-arena
//!    allocations across repeated runs;
//! 2. [`Optimizer::optimize_batch`] spreading a mixed workload across
//!    workers, one query per thread.
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

    // --- 2. A batch of queries, one worker thread each. ---------------
    let workloads: Vec<_> = (0..6)
        .map(|i| workload::family_workload(GraphKind::ALL[i % 4], 8 + i % 3, i as u64))
        .collect();
    let queries: Vec<_> = workloads.iter().map(|w| (&w.graph, &w.catalog)).collect();
    let results = Optimizer::new().optimize_batch(&queries);
    println!("batch of {} queries:", results.len());
    for (i, r) in results.iter().enumerate() {
        let r = r.as_ref().expect("connected workloads optimize");
        println!("  #{i}  cost={:.6e}  {}", r.cost, r.tree);
    }
    Ok(())
}
