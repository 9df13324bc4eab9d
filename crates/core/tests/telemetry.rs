//! Acceptance tests for the telemetry layer: disabled observers must
//! not change optimizer behavior (or allocate), enabled observers must
//! see a well-formed event stream, and [`MetricsCollector`] /
//! [`TraceWriter`] must report real runs accurately.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

use joinopt_core::{Algorithm, DpCcp, JoinOrderer};
use joinopt_cost::{workload, Cout};
use joinopt_qgraph::GraphKind;
use joinopt_telemetry::json::JsonValue;
use joinopt_telemetry::{Event, MetricsCollector, NoopObserver, Observer, TraceWriter};

// ---------------------------------------------------------------------
// Counting allocator (per-thread, so parallel tests don't interfere).
// ---------------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the TLS slot may already be torn down at thread exit.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// Test observers.
// ---------------------------------------------------------------------

/// Reports itself disabled and panics if an event reaches it anyway —
/// proves the disabled path emits nothing.
struct DisabledObserver;

impl Observer for DisabledObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_event(&self, event: Event) {
        panic!("disabled observer received {:?}", event.name());
    }
}

/// Records every event's wire name, in order.
#[derive(Default)]
struct Sink {
    names: RefCell<Vec<&'static str>>,
}

impl Observer for Sink {
    fn on_event(&self, event: Event) {
        self.names.borrow_mut().push(event.name());
    }
}

// ---------------------------------------------------------------------
// Bit-identity: observers must never change what the optimizer computes.
// ---------------------------------------------------------------------

/// The acceptance matrix: chain/cycle/star/clique at n ∈ {5, 10, 15}.
/// At n ≤ 10 all three paper algorithms run; at n = 15 one exact
/// algorithm per family keeps the debug-build runtime sane (DPsub's
/// trivial inner loop on the clique, DPccp elsewhere).
fn acceptance_matrix() -> Vec<(GraphKind, usize, Algorithm)> {
    let mut configs = Vec::new();
    for kind in GraphKind::ALL {
        for n in [5, 10] {
            for alg in [Algorithm::DpSize, Algorithm::DpSub, Algorithm::DpCcp] {
                configs.push((kind, n, alg));
            }
        }
        let alg15 = if kind == GraphKind::Clique {
            Algorithm::DpSub
        } else {
            Algorithm::DpCcp
        };
        configs.push((kind, 15, alg15));
    }
    configs
}

#[test]
fn noop_observer_is_bit_identical() {
    for (kind, n, alg) in acceptance_matrix() {
        let w = workload::family_workload(kind, n, 0);
        let orderer = alg.orderer(&w.graph);
        let baseline = orderer.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        let noop = orderer
            .optimize_observed(&w.graph, &w.catalog, &Cout, &NoopObserver)
            .unwrap();
        let metrics = MetricsCollector::new();
        let observed = orderer
            .optimize_observed(&w.graph, &w.catalog, &Cout, &metrics)
            .unwrap();

        for (label, run) in [("noop", &noop), ("metrics", &observed)] {
            let ctx = format!("{kind} n={n} {alg:?} [{label}]");
            assert_eq!(
                baseline.cost.to_bits(),
                run.cost.to_bits(),
                "cost differs: {ctx}"
            );
            assert_eq!(
                baseline.cardinality.to_bits(),
                run.cardinality.to_bits(),
                "cardinality differs: {ctx}"
            );
            assert_eq!(baseline.counters, run.counters, "counters differ: {ctx}");
            assert_eq!(baseline.tree, run.tree, "plan differs: {ctx}");
            assert_eq!(
                baseline.table_size, run.table_size,
                "table size differs: {ctx}"
            );
            assert_eq!(
                baseline.plans_built, run.plans_built,
                "arena differs: {ctx}"
            );
        }
    }
}

#[test]
fn disabled_observer_path_emits_nothing_and_allocates_nothing_extra() {
    let w = workload::family_workload(GraphKind::Star, 10, 0);

    // Warm up lazy allocations (thread-local scratch, etc.) so the
    // measured runs see a steady state.
    DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();

    let before_a = allocs();
    let a = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
    let default_allocs = allocs() - before_a;

    let before_b = allocs();
    // DisabledObserver panics on any event, so this run doubles as proof
    // that the disabled path emits nothing.
    let b = DpCcp
        .optimize_observed(&w.graph, &w.catalog, &Cout, &DisabledObserver)
        .unwrap();
    let disabled_allocs = allocs() - before_b;

    // Identical allocation traffic: a disabled observer costs nothing
    // beyond the default (NoopObserver) path, which is itself the
    // uninstrumented algorithm — no level vectors, no event payloads.
    assert_eq!(
        default_allocs, disabled_allocs,
        "disabled observer changed allocation count ({default_allocs} vs {disabled_allocs})"
    );
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.counters, b.counters);

    // Sanity check that the counter instrument actually measures this
    // thread: an enabled collector must allocate (level vector, report
    // state).
    let metrics = MetricsCollector::new();
    let before_c = allocs();
    DpCcp
        .optimize_observed(&w.graph, &w.catalog, &Cout, &metrics)
        .unwrap();
    let enabled_allocs = allocs() - before_c;
    assert!(
        enabled_allocs > disabled_allocs,
        "enabled run should allocate more ({enabled_allocs} vs {disabled_allocs})"
    );
}

// ---------------------------------------------------------------------
// Event-stream shape.
// ---------------------------------------------------------------------

#[test]
fn every_algorithm_emits_a_well_formed_event_stream() {
    let w = workload::random_workload(7, 0.5, 11);
    for alg in Algorithm::CONCRETE {
        let sink = Sink::default();
        alg.orderer(&w.graph)
            .optimize_observed(&w.graph, &w.catalog, &Cout, &sink)
            .unwrap();
        let names = sink.names.borrow();
        let ctx = format!("{alg:?}: {names:?}");

        assert_eq!(names.first(), Some(&"run_start"), "{ctx}");
        assert_eq!(names.last(), Some(&"run_end"), "{ctx}");
        assert_eq!(
            names.iter().filter(|n| **n == "run_start").count(),
            1,
            "{ctx}"
        );
        assert_eq!(
            names.iter().filter(|n| **n == "run_end").count(),
            1,
            "{ctx}"
        );
        // Phase spans balance and every span closes before the next
        // opens (no nesting in the v1 vocabulary).
        let mut open = 0i64;
        for n in names.iter() {
            match *n {
                "phase_start" => {
                    open += 1;
                    assert_eq!(open, 1, "nested phase span: {ctx}");
                }
                "phase_end" => {
                    open -= 1;
                    assert_eq!(open, 0, "unmatched phase_end: {ctx}");
                }
                _ => {}
            }
        }
        assert_eq!(open, 0, "unclosed phase span: {ctx}");
        assert_eq!(
            names.iter().filter(|n| **n == "final_counters").count(),
            1,
            "{ctx}"
        );
        assert!(names.contains(&"arena_stats"), "{ctx}");
    }
}

#[test]
fn dpccp_phase_sequence_matches_contract() {
    let w = workload::family_workload(GraphKind::Chain, 6, 0);
    let metrics = MetricsCollector::new();
    DpCcp
        .optimize_observed(&w.graph, &w.catalog, &Cout, &metrics)
        .unwrap();
    let phases: Vec<&str> = metrics.report().phases.iter().map(|p| p.name).collect();
    assert_eq!(phases, ["init", "enumerate", "extract"]);
}

// ---------------------------------------------------------------------
// MetricsCollector on a real DPccp run (the ISSUE acceptance case).
// ---------------------------------------------------------------------

#[test]
fn metrics_collector_reports_dpccp_star_12() {
    let w = workload::family_workload(GraphKind::Star, 12, 0);
    let metrics = MetricsCollector::new();
    let result = DpCcp
        .optimize_observed(&w.graph, &w.catalog, &Cout, &metrics)
        .unwrap();
    let report = metrics.report();

    assert_eq!(report.algorithm, "DPccp");
    assert_eq!(report.relations, 12);

    // ≥ 3 named phase spans with a monotonic clock.
    assert!(report.phases.len() >= 3, "phases: {:?}", report.phases);
    for name in ["init", "enumerate", "extract"] {
        assert!(report.phase(name).is_some(), "missing phase {name}");
    }
    let mut last_end = 0;
    for p in &report.phases {
        assert!(p.start_ns <= p.end_ns);
        assert!(
            p.start_ns >= last_end,
            "overlapping spans: {:?}",
            report.phases
        );
        last_end = p.end_ns;
    }
    assert!(report.total_ns >= last_end);

    // Per-size entry counts sum to the DP-table total. A 12-star admits
    // connected subgraphs of every size 1..=12 (hub + any spoke subset).
    assert_eq!(report.levels.len(), 12);
    assert_eq!(report.level_total(), report.table_entries as u64);
    assert_eq!(report.table_entries, result.table_size);

    // Table probe/hit stats: DPccp probes each ccp's union once, and
    // both orientations of a pair share one table entry, so roughly half
    // the probes hit.
    assert!(report.table_probes > 0);
    assert!(report.table_hits > 0);
    assert!(report.table_hits < report.table_probes);
    assert!(report.table_capacity >= report.table_entries);
    assert!(report.occupancy() > 0.0 && report.occupancy() <= 1.0);

    // Arena accounting.
    assert_eq!(report.arena_nodes, result.plans_built);
    assert!(report.arena_bytes > 0);

    // Final counters mirror the DpResult.
    assert_eq!(report.counter_inner, result.counters.inner);
    assert_eq!(report.counter_csg_cmp_pairs, result.counters.csg_cmp_pairs);
    assert_eq!(report.counter_ono_lohman, result.counters.ono_lohman);

    // The report serializes and round-trips through the JSONL parser.
    let line = report.to_json_line();
    let v = JsonValue::parse(&line).unwrap();
    assert_eq!(v.get("algorithm").unwrap().as_str(), Some("DPccp"));
    assert_eq!(
        v.get("table").unwrap().get("entries").unwrap().as_u64(),
        Some(result.table_size as u64)
    );
}

// ---------------------------------------------------------------------
// TraceWriter on a real run.
// ---------------------------------------------------------------------

#[test]
fn trace_writer_round_trips_on_real_run() {
    let w = workload::family_workload(GraphKind::Cycle, 8, 3);
    let trace = TraceWriter::new(Vec::new());
    DpCcp
        .optimize_observed(&w.graph, &w.catalog, &Cout, &trace)
        .unwrap();
    let bytes = trace.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();

    let mut last_elapsed = 0;
    let mut events = Vec::new();
    for line in text.lines() {
        let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        let event = v
            .get("event")
            .and_then(|e| e.as_str())
            .expect("event field");
        assert!(
            v.get("phase").and_then(|p| p.as_str()).is_some(),
            "phase field: {line}"
        );
        let elapsed = v
            .get("elapsed_ns")
            .and_then(|e| e.as_u64())
            .expect("elapsed_ns field");
        assert!(elapsed >= last_elapsed, "non-monotonic elapsed_ns: {line}");
        last_elapsed = elapsed;
        events.push(event.to_string());
    }
    assert_eq!(events.first().map(String::as_str), Some("run_start"));
    assert_eq!(events.last().map(String::as_str), Some("run_end"));
    assert!(events.iter().any(|e| e == "dp_level"));
    assert!(events.iter().any(|e| e == "table_stats"));
}

// ---------------------------------------------------------------------
// Batch workers.
// ---------------------------------------------------------------------

use joinopt_core::Optimizer;

#[test]
fn batch_observed_traces_tag_every_run_with_a_thread_id() {
    let make = |n: usize, seed: u64| workload::family_workload(GraphKind::Chain, n, seed);
    let workloads = [make(6, 0), make(7, 1), make(8, 2), make(6, 3)];
    let pairs: Vec<_> = workloads.iter().map(|w| (&w.graph, &w.catalog)).collect();

    let optimizer = Optimizer::new();
    let trace = TraceWriter::new(Vec::new());
    let results = optimizer.optimize_batch_observed(&pairs, &trace);
    assert_eq!(results.len(), 4);
    for r in &results {
        assert!(r.is_ok());
    }
    let text = String::from_utf8(trace.finish().unwrap()).unwrap();

    let mut starts = 0usize;
    let mut tids = Vec::new();
    for line in text.lines() {
        let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        let tid = v
            .get("thread_id")
            .and_then(|t| t.as_u64())
            .expect("thread_id on every event");
        tids.push(tid);
        if v.get("event").and_then(|e| e.as_str()) == Some("run_start") {
            starts += 1;
        }
    }
    // One run per query, and the events came from the pooled batch
    // workers, not the coordinating thread alone.
    assert_eq!(starts, 4, "{text}");
    tids.sort_unstable();
    tids.dedup();
    assert!(!tids.is_empty());
}
