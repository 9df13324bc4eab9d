//! JSON round-trip acceptance: everything the telemetry layer emits as
//! JSON — the per-run [`RunReport`] line and the registry's snapshot
//! document — must parse back through the crate's own dependency-free
//! parser with every field intact.

use joinopt_telemetry::json::JsonValue;
use joinopt_telemetry::{Event, MetricsCollector, MetricsRegistry, Observer};

/// Drives one synthetic-but-complete run through `obs` — the same event
/// vocabulary, stamped the same way, as a real DPsub run.
fn emit_run(obs: &dyn Observer) {
    let algorithm = "DPsub";
    obs.on_event(Event::RunStart {
        algorithm,
        relations: 8,
    });
    for (phase, start_ns, end_ns) in [
        ("init", 5, 20),
        ("enumerate", 20, 900),
        ("extract", 900, 950),
    ] {
        obs.on_event(Event::PhaseStart { algorithm, phase });
        obs.on_event(Event::PhaseEnd {
            algorithm,
            phase,
            start_ns,
            end_ns,
        });
    }
    obs.on_event(Event::DpLevel {
        algorithm,
        size: 2,
        new_entries: 7,
    });
    obs.on_event(Event::TableStats {
        algorithm,
        entries: 15,
        capacity: 256,
        probes: 99,
        hits: 40,
    });
    obs.on_event(Event::ArenaStats {
        algorithm,
        nodes: 22,
        bytes: 1056,
    });
    obs.on_event(Event::FinalCounters {
        algorithm,
        inner: 40,
        csg_cmp_pairs: 26,
        ono_lohman: 13,
    });
    obs.on_event(Event::RunEnd {
        algorithm,
        total_ns: 960,
    });
}

#[test]
fn run_report_json_line_round_trips() {
    let metrics = MetricsCollector::new();
    emit_run(&metrics);
    let report = metrics.report();
    let line = report.to_json_line();

    let v = JsonValue::parse(&line).expect("report line parses");
    assert_eq!(
        v.get("algorithm").and_then(JsonValue::as_str),
        Some("DPsub")
    );
    assert_eq!(v.get("relations").and_then(JsonValue::as_u64), Some(8));
    let table = v.get("table").expect("table object");
    assert_eq!(table.get("entries").and_then(JsonValue::as_u64), Some(15));
    assert_eq!(table.get("probes").and_then(JsonValue::as_u64), Some(99));
    let counters = v.get("counters").expect("counters object");
    assert_eq!(counters.get("inner").and_then(JsonValue::as_u64), Some(40));
}

#[test]
fn registry_snapshot_json_round_trips() {
    let registry = MetricsRegistry::new();
    emit_run(&registry);
    emit_run(&registry);
    let snap = registry.snapshot();
    let text = snap.to_json();

    let v = JsonValue::parse(&text).expect("snapshot parses");
    let metrics = v
        .get("metrics")
        .and_then(JsonValue::as_array)
        .expect("metrics array");
    assert!(!metrics.is_empty());

    let find = |name: &str| -> &JsonValue {
        metrics
            .iter()
            .find(|m| m.get("name").and_then(JsonValue::as_str) == Some(name))
            .unwrap_or_else(|| panic!("metric {name} missing from {text}"))
    };

    let runs = find("joinopt_runs_total");
    assert_eq!(
        runs.get("type").and_then(JsonValue::as_str),
        Some("counter")
    );
    assert_eq!(runs.get("value").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(
        runs.get("labels")
            .and_then(|l| l.get("algorithm"))
            .and_then(JsonValue::as_str),
        Some("DPsub")
    );

    let inner = find("joinopt_inner_loop_total");
    assert_eq!(inner.get("value").and_then(JsonValue::as_u64), Some(80));

    // Histograms serialize their full summary, parseable as numbers.
    let levels = find("joinopt_dp_level_entries");
    assert_eq!(
        levels.get("type").and_then(JsonValue::as_str),
        Some("histogram")
    );
    assert_eq!(levels.get("count").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(levels.get("sum").and_then(JsonValue::as_u64), Some(14));
    assert_eq!(levels.get("max").and_then(JsonValue::as_u64), Some(7));
    assert!(levels.get("p50").and_then(JsonValue::as_u64).is_some());

    // Gauges come back signed.
    let entries = find("joinopt_table_entries");
    assert_eq!(
        entries.get("type").and_then(JsonValue::as_str),
        Some("gauge")
    );
    assert_eq!(entries.get("value").and_then(JsonValue::as_u64), Some(15));
}
