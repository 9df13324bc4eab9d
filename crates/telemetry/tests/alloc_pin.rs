//! Pins the steady-state allocation count of the serve path's
//! per-request telemetry at zero: once a series exists, touching it in
//! the [`MetricsRegistry`] or filing a trace into [`WindowedMetrics`]
//! allocates nothing.
//!
//! A counting `#[global_allocator]` tallies allocations per thread, so
//! the tests in this binary may run in parallel without seeing each
//! other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use joinopt_telemetry::{MetricsRegistry, RequestTrace, WindowConfig, WindowedMetrics};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const LABEL_SETS: [&[(&str, &str)]; 3] = [
    &[],
    &[("algorithm", "DPccp")],
    &[("phase", "enumerate"), ("algorithm", "DPccp")],
];

#[test]
fn registry_touches_of_existing_series_allocate_nothing() {
    let reg = MetricsRegistry::new();
    for labels in LABEL_SETS {
        reg.inc("joinopt_runs_total", labels, 1);
        reg.set_gauge("joinopt_table_entries", labels, 1);
        reg.record("joinopt_phase_ns", labels, 1_000);
    }
    for labels in LABEL_SETS {
        assert_eq!(
            allocations(|| reg.inc("joinopt_runs_total", labels, 1)),
            0,
            "inc {labels:?}"
        );
        assert_eq!(
            allocations(|| reg.set_gauge("joinopt_table_entries", labels, 7)),
            0,
            "set_gauge {labels:?}"
        );
        assert_eq!(
            allocations(|| reg.record("joinopt_phase_ns", labels, 1_000)),
            0,
            "record {labels:?}"
        );
    }
    // The labels were matched, not duplicated: one series per set.
    let snap = reg.snapshot();
    assert_eq!(snap.metrics.len(), 9);
    assert_eq!(
        snap.counter(
            "joinopt_runs_total",
            &[("algorithm", "DPccp"), ("phase", "enumerate")]
        ),
        Some(2)
    );
}

/// A finished six-span trace shaped like a cache hit on the serve path.
fn hit_trace(tenant: &str, t0: u64) -> RequestTrace {
    let mut t = RequestTrace::new("trace-1".to_string(), tenant, "optimize", t0);
    for (i, stage) in [
        "accept",
        "shed-check",
        "breaker",
        "cache-lookup",
        "optimize",
        "respond",
    ]
    .into_iter()
    .enumerate()
    {
        let start = t0 + 1_000 * i as u64;
        t.span(stage, start, start + 700);
    }
    t.finish("ok", t0 + 6_000);
    t
}

#[test]
fn filing_a_trace_of_a_seen_tenant_allocates_nothing() {
    let mut windows = WindowedMetrics::new(WindowConfig::default());
    for tenant in ["", "analytics"] {
        let trace = hit_trace(tenant, 1_000_000);
        windows.record_trace(&trace);
        assert_eq!(
            allocations(|| windows.record_trace(&trace)),
            0,
            "tenant {tenant:?}"
        );
        // A minute later the ring has come round: the trace lands in
        // the same ring slot, now expired, and reuses its storage.
        let later = hit_trace(tenant, 60_001_000_000);
        assert_eq!(
            allocations(|| windows.record_trace(&later)),
            0,
            "tenant {tenant:?}, reused ring slot"
        );
    }
    let snap = windows.snapshot(60_001_010_000);
    assert_eq!(snap.entries.len(), 2 * 7);
    assert!(snap.entries.iter().all(|e| e.count == 1));
}
