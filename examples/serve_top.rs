//! Live service introspection, end to end — the library surface behind
//! the `metrics`/`trace`/`slow` server verbs and `joinopt top`:
//!
//! 1. trace requests through the hardened [`Gateway`] with a
//!    [`RequestTrace`] — every lifecycle stage (shed-check, breaker,
//!    cache-lookup, optimize, respond) lands as a nanosecond span on a
//!    manual clock, so the whole walk is deterministic;
//! 2. fold finished traces into a [`TraceLog`] (recent ring + worst-K
//!    slowest) and a [`WindowedMetrics`] rolling aggregator, exactly as
//!    the server does, then render the windowed per-stage p50/p99 table
//!    `joinopt top` shows;
//! 3. the zero-overhead contract — the same request untraced performs
//!    exactly two clock reads and returns a bit-identical plan.
//!
//! Run with: `cargo run --release --example serve_top`

use std::time::Duration;

use joinopt::cost::workload;
use joinopt::prelude::*;
use joinopt::service::server::algorithm_name;
use joinopt::service::{clock_reads, Clock, Gateway, GatewayConfig};
use joinopt::telemetry::{RequestTrace, TraceIdMinter, TraceLog, WindowConfig, WindowedMetrics};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A traced request lifecycle on a manual clock. -------------
    let gateway = Gateway::with_clock(
        OptimizerService::new(ServiceConfig::default()),
        GatewayConfig::default(),
        Clock::manual(),
    );
    let obs = NoopObserver;
    let minter = TraceIdMinter::new(42); // the server seeds this per process
    let mut log = TraceLog::new(256, 16);
    let mut window = WindowedMetrics::new(WindowConfig::default());
    let mut session = None;

    // Three requests: two distinct queries plus one repeat of the
    // first, which warms into a cache hit. The clock advances 5 ms
    // between arrivals so the spans land at distinct timestamps.
    let specs = [0u64, 1, 0].map(|seed| {
        let w = workload::family_workload(GraphKind::Star, 7, seed);
        QuerySpec::capture(&w.graph, &w.catalog).expect("star captures")
    });
    for spec in specs {
        let req = ServiceRequest::new(spec).with_tenant("analytics");
        let start = gateway.clock().now_ns();
        let mut trace = RequestTrace::new(minter.mint(), &req.tenant, "optimize", start);
        let outcome = gateway
            .handle_traced(&req, None, &mut session, &obs, Some(&mut trace))
            .map_err(|e| format!("{e:?}"))?;
        trace.algorithm = Some(algorithm_name(outcome.algorithm));
        trace.cache_hit = Some(outcome.cache_hit);
        trace.finish("ok", gateway.clock().now_ns());

        println!(
            "trace {} ({}, cache_hit={}):",
            trace.trace_id,
            trace.algorithm.unwrap_or("?"),
            outcome.cache_hit
        );
        for span in trace.spans() {
            println!(
                "  {:>12}  attempt {}  start {:>10} ns  {:>8} ns",
                span.stage,
                span.attempt,
                span.start_ns,
                span.duration_ns()
            );
        }
        window.record_trace(&trace);
        log.record(trace);
        gateway.clock().advance(Duration::from_millis(5));
    }

    // --- 2. The introspection stores the server verbs answer from. ----
    let slowest = log.slowest().first().expect("three traces recorded");
    println!(
        "\nslowest of {} recorded: {} ({} ns total) — what the `slow` verb returns",
        log.recent_len(),
        slowest.trace_id,
        slowest.total_ns()
    );

    let snap = window.snapshot(gateway.clock().now_ns());
    println!("\nwindowed stage table (the `metrics` verb / `joinopt top` view):");
    println!(
        "  {:<12} {:>6} {:>10} {:>10} {:>10}",
        "stage", "count", "rate/s", "p50 ns", "p99 ns"
    );
    for entry in &snap.entries {
        println!(
            "  {:<12} {:>6} {:>10.3} {:>10} {:>10}",
            entry.stage, entry.count, entry.rate_per_sec, entry.p50_ns, entry.p99_ns
        );
    }
    let prom = snap.to_prometheus();
    println!(
        "\nPrometheus exposition: {} joinopt_serve_stage_* lines on the flush",
        prom.lines().count()
    );

    // --- 3. Zero overhead when untraced. ------------------------------
    let w = workload::family_workload(GraphKind::Star, 7, 99);
    let req = ServiceRequest::new(QuerySpec::capture(&w.graph, &w.catalog)?);
    let before = clock_reads();
    let untraced = gateway
        .handle(&req, None, &mut session, &obs)
        .map_err(|e| format!("{e:?}"))?;
    let untraced_reads = clock_reads() - before;
    assert_eq!(
        untraced_reads, 2,
        "untraced = admission stamp + breaker admit"
    );

    let mut trace = RequestTrace::new(minter.mint(), "", "optimize", gateway.clock().now_ns());
    let before = clock_reads();
    let traced = gateway
        .handle_traced(&req, None, &mut session, &obs, Some(&mut trace))
        .map_err(|e| format!("{e:?}"))?;
    let traced_reads = clock_reads() - before;
    assert_eq!(traced.result.cost.to_bits(), untraced.result.cost.to_bits());
    println!(
        "\nzero-overhead contract: untraced {untraced_reads} clock reads, traced {traced_reads}, \
         plans bit-identical"
    );
    Ok(())
}
