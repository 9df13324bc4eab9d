//! Telemetry for the joinopt optimizers: a zero-overhead [`Observer`]
//! API, run metrics, and JSONL tracing.
//!
//! The paper this workspace reproduces (Moerkotte & Neumann, VLDB 2006)
//! is fundamentally a *measurement* paper — its contribution is counters
//! and runtime comparisons across DPsize, DPsub and DPccp. This crate is
//! the standing measurement substrate those comparisons (and every
//! future performance PR) report against:
//!
//! * [`Observer`] — the sink trait optimizers emit [`Event`]s into.
//!   The default [`NoopObserver`] reports itself disabled, so
//!   instrumented code reduces to one branch per run: no events are
//!   constructed, no clocks read, nothing allocated.
//! * [`Event`] — the vocabulary: run/phase spans (`init`, `enumerate`,
//!   `extract`), per-size DP-level progress, DP-table statistics
//!   (entries/capacity/probes/hits), plan-arena accounting, and the
//!   paper's counters.
//! * [`MetricsCollector`] — aggregates a run into a [`RunReport`] with
//!   `Display`, JSON-line and CSV serializations (no external deps).
//! * [`TraceWriter`] — streams every event as a JSON line (with
//!   monotonic `elapsed_ns`) to any `io::Write`.
//! * [`ProvenanceCollector`] — folds the opt-in per-candidate
//!   provenance events ([`Observer::wants_provenance`]) into per-subset
//!   [`DecisionRecord`]s: winning split, runner-up, cost delta,
//!   candidates considered, pruning reason.
//! * [`Fanout`] — fans events out to any number of observers (a
//!   `Fanout<dyn Observer + Sync>` for sinks shared across threads).
//! * [`MetricsRegistry`] — fleet-grade aggregation: Counter / Gauge /
//!   log-linear Histogram (p50/p90/p99/max) metrics fed across runs,
//!   sessions and batches by a [`RegistryObserver`], exported as
//!   Prometheus text exposition or a JSON [`Snapshot`].
//! * [`RequestTrace`] / [`TraceLog`] — request-scoped flight recording
//!   for the serve path: ordered stage spans (shed-check, breaker,
//!   cache-lookup, per-attempt optimize, …) with the resolved
//!   algorithm, cache hit and error kind, retained bounded (recent ring
//!   + worst-K slowest) behind the server's `trace`/`slow` verbs.
//! * [`WindowedMetrics`] — rolling time-window aggregation: a ring of
//!   fixed-width [`Histogram`] buckets giving windowed p50/p99 and
//!   rates per (tenant, verb, stage), deterministic under a manual
//!   clock (timestamps are caller-supplied, never read here).
//! * [`TenantTable`] — the tenant-keyed table behind the windows and
//!   the gateway's breakers: lookups never allocate and never compare
//!   a zero-length string.
//! * [`collapse_trace`] — folds a JSONL trace into collapsed-stack
//!   (flamegraph-compatible) lines.
//! * [`json`] — the dependency-free JSON writer/parser the above use,
//!   public so tools and tests can round-trip telemetry output.
//!
//! # Example
//!
//! ```
//! use joinopt_telemetry::{Event, MetricsCollector, Observer};
//!
//! let metrics = MetricsCollector::new();
//! // An optimizer run emits events (normally done by joinopt-core):
//! metrics.on_event(Event::RunStart { algorithm: "DPccp", relations: 3 });
//! metrics.on_event(Event::PhaseStart { phase: "enumerate" });
//! metrics.on_event(Event::PhaseEnd { phase: "enumerate" });
//! metrics.on_event(Event::RunEnd);
//!
//! let report = metrics.report();
//! assert_eq!(report.algorithm, "DPccp");
//! assert!(report.phase("enumerate").is_some());
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flame;
pub mod json;
mod keys;
mod metrics;
mod observer;
mod provenance;
mod registry;
pub mod span;
mod trace;
pub mod window;

pub use flame::{collapse_trace, FlameError};
pub use keys::TenantTable;
pub use metrics::{LevelCount, MetricsCollector, PhaseSpan, RunReport};
pub use observer::{current_thread_id, Event, Fanout, NoopObserver, Observer};
pub use provenance::{DecisionRecord, ProvenanceCollector, SplitChoice};
pub use registry::{
    Histogram, MetricValue, MetricsRegistry, RegistryObserver, Snapshot, SnapshotEntry,
};
pub use span::{RequestTrace, StageSpan, TraceIdMinter, TraceLog};
pub use trace::TraceWriter;
pub use window::{TimeWindow, WindowConfig, WindowEntry, WindowSnapshot, WindowedMetrics};
