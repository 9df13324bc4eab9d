//! Telemetry: observe an optimizer run with phase timings, DP-table and
//! memory statistics, and stream the raw event trace as JSON lines.
//!
//! Run with: `cargo run --release --example telemetry`

use joinopt::prelude::*;
use joinopt::telemetry::Fanout;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The ISSUE's acceptance workload: a 12-relation star query.
    let w = joinopt::cost::workload::family_workload(GraphKind::Star, 12, 2006);

    // Without an observer, the run is on the zero-overhead path — the
    // default NoopObserver reports itself disabled, so the optimizer
    // does no telemetry bookkeeping at all.
    let plain = OptimizeRequest::new(&w.graph, &w.catalog)
        .with_algorithm(Algorithm::DpCcp)
        .run()?
        .into_result();

    // With observers: a MetricsCollector aggregates the run into a
    // report, and a TraceWriter streams every event as a JSON line.
    // A Fanout sends the events to both; the result is bit-identical.
    let metrics = MetricsCollector::new();
    let trace = TraceWriter::new(Vec::new());
    let fanout = Fanout::new(vec![&metrics as &dyn Observer, &trace]);
    let observed = OptimizeRequest::new(&w.graph, &w.catalog)
        .with_algorithm(Algorithm::DpCcp)
        .with_observer(&fanout)
        .run()?
        .into_result();
    assert_eq!(plain.cost.to_bits(), observed.cost.to_bits());
    assert_eq!(plain.counters, observed.counters);

    // The human-readable report: phase spans, per-size DP-level entry
    // counts, table probe/hit statistics, arena accounting, counters.
    let report = metrics.report();
    println!("{report}");

    // The same report as a machine-readable JSON line and as CSV — the
    // formats the CLI (`--metrics`) and the bench sidecars build on.
    println!("json: {}", report.to_json_line());
    println!();
    print!("{}", report.to_csv());

    // A few lines of the raw JSONL event trace (what `--trace-json`
    // writes to a file).
    let jsonl = String::from_utf8(trace.finish()?)?;
    println!("\nfirst trace events of {} total:", jsonl.lines().count());
    for line in jsonl.lines().take(5) {
        println!("  {line}");
    }

    // The report is programmatically inspectable, e.g. how much of the
    // enumeration work was spent per DP level…
    let enumerate = report
        .phase("enumerate")
        .expect("DP algorithms report this span");
    println!(
        "\nenumerate phase: {:.3} ms for {} table entries across {} levels",
        enumerate.duration_ns() as f64 / 1e6,
        report.level_total(),
        report.levels.len()
    );
    // …and the paper's counters arrive with the same values as the
    // DpResult itself.
    assert_eq!(report.counter_inner, observed.counters.inner);

    // Fleet-level aggregation: where the collector resets per run, a
    // MetricsRegistry accumulates counters, gauges and log-linear
    // histograms across arbitrarily many runs (this is what `--prom`
    // and the fuzz campaign's `--metrics` build on).
    use joinopt::telemetry::{collapse_trace, MetricsRegistry, RegistryObserver};
    let registry = MetricsRegistry::new();
    let reg_obs = RegistryObserver::new(&registry);
    for alg in [Algorithm::DpSize, Algorithm::DpSub, Algorithm::DpCcp] {
        OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(alg)
            .with_observer(&reg_obs)
            .run()?;
    }
    let snapshot = registry.snapshot();
    println!("\nregistry after the whole family:");
    print!("{}", snapshot.to_text());
    assert_eq!(
        snapshot.counter("joinopt_runs_total", &[("algorithm", "DPccp")]),
        Some(1)
    );

    // The snapshot exports as Prometheus text exposition…
    let exposition = snapshot.to_prometheus();
    println!("\nfirst Prometheus exposition lines:");
    for line in exposition.lines().take(6) {
        println!("  {line}");
    }

    // …and the JSONL trace folds into collapsed-stack lines, the input
    // format of flamegraph renderers (the `joinopt flame` subcommand).
    let folded = collapse_trace(&jsonl)?;
    println!("\ncollapsed stacks:");
    for line in folded.lines() {
        println!("  {line}");
    }
    Ok(())
}
