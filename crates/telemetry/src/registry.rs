//! The metrics registry: fleet-grade aggregation across runs, sessions
//! and batches.
//!
//! [`MetricsCollector`](crate::MetricsCollector) answers "what did this
//! one run do"; the [`MetricsRegistry`] answers "what has this *process*
//! done" — counters, gauges and log-linear histograms keyed by metric
//! name plus a label set, fed by any number of concurrent
//! [`RegistryObserver`]s and exported as Prometheus text exposition or a
//! JSON snapshot (both dependency-free and deterministic for
//! deterministic inputs).
//!
//! ```
//! use joinopt_telemetry::{Event, MetricsRegistry, Observer, RegistryObserver};
//!
//! let registry = MetricsRegistry::new();
//! let obs = RegistryObserver::new(&registry);
//! for _ in 0..3 {
//!     obs.on_event(Event::RunStart { algorithm: "DPccp", relations: 4 });
//!     obs.on_event(Event::FinalCounters { inner: 9, csg_cmp_pairs: 18, ono_lohman: 9 });
//!     obs.on_event(Event::RunEnd);
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("joinopt_runs_total", &[("algorithm", "DPccp")]), Some(3));
//! assert_eq!(snap.counter("joinopt_inner_loop_total", &[("algorithm", "DPccp")]), Some(27));
//! assert!(snap.to_prometheus().contains("joinopt_runs_total{algorithm=\"DPccp\"} 3"));
//! ```

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::write_escaped;
use crate::keys::{str_cmp, str_eq};
use crate::observer::{current_thread_id, Event, Observer};

/// Number of linear sub-buckets per power-of-two range (and the count
/// of the leading exact buckets): the histogram's relative error bound
/// is `1/16 ≈ 6.25%`.
const SUBBUCKETS: u64 = 16;

/// Maps a sample to its log-linear bucket index: values below 16 get an
/// exact bucket each; above that, each power-of-two range is split into
/// 16 linear sub-buckets.
fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        ((msb - 4) << 4) + ((v >> (msb - 4)) & 15) as usize + 16
    }
}

/// The smallest value mapping to bucket `i` — the inverse of
/// [`bucket_index`], used to report quantiles deterministically.
fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUBBUCKETS as usize {
        i as u64
    } else {
        let i = i - 16;
        let exp = i >> 4;
        let sub = (i & 15) as u64;
        (16 + sub) << exp
    }
}

/// A log-linear histogram over `u64` samples with ≤ 6.25% relative
/// bucket error: the workhorse for durations (ns) and per-level entry
/// counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Empties the histogram, keeping its bucket storage for reuse.
    pub(crate) fn clear(&mut self) {
        self.counts.clear();
        self.count = 0;
        self.sum = 0;
        self.min = 0;
        self.max = 0;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample, exact (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another histogram into this one, bucket by bucket — the
    /// building block of rolling-window aggregation (merging the live
    /// ring buckets into one windowed distribution).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst = dst.saturating_add(src);
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile (`0 < q <= 1`) as the lower bound of the bucket
    /// holding the `ceil(q·count)`-th smallest sample — deterministic
    /// for deterministic inputs, within the bucket error of the true
    /// value. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                // The top bucket's lower bound can undershoot max;
                // never report a quantile above the observed maximum.
                return bucket_lower_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }
}

/// The value of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-set value.
    Gauge(i64),
    /// Sample distribution.
    Histogram(Histogram),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// Label sets up to this size are sorted on the stack; only larger ones
/// allocate to be looked up.
const INLINE_LABELS: usize = 8;

/// Calls `f` with `labels` sorted by (key, value), the order series
/// store them in.
fn with_sorted_labels<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    let by_pair =
        |a: &(&str, &str), b: &(&str, &str)| str_cmp(a.0, b.0).then_with(|| str_cmp(a.1, b.1));
    if labels.len() <= INLINE_LABELS {
        let mut buf = [("", ""); INLINE_LABELS];
        let sorted = &mut buf[..labels.len()];
        sorted.copy_from_slice(labels);
        sorted.sort_unstable_by(by_pair);
        f(sorted)
    } else {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable_by(by_pair);
        f(&sorted)
    }
}

/// Whether stored sorted labels equal sorted borrowed ones.
fn same_labels(stored: &[(String, String)], sorted: &[(&str, &str)]) -> bool {
    stored.len() == sorted.len()
        && stored
            .iter()
            .zip(sorted)
            .all(|((k, v), (qk, qv))| str_eq(v, qv) && str_eq(k, qk))
}

/// One labelled series of a metric.
#[derive(Debug)]
struct Series {
    /// Label pairs, sorted.
    labels: Vec<(String, String)>,
    value: MetricValue,
}

/// Applies `update` to the series with `sorted` labels, creating it with
/// `init` on first touch. Kind mismatches are ignored, never a panic:
/// metrics code must not take an optimizer down.
fn touch(
    series: &mut Vec<Series>,
    sorted: &[(&str, &str)],
    init: impl FnOnce() -> MetricValue,
    update: impl FnOnce(&mut MetricValue),
) {
    let i = match series.iter().position(|s| same_labels(&s.labels, sorted)) {
        Some(i) => i,
        None => {
            series.push(Series {
                labels: sorted
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                value: init(),
            });
            series.len() - 1
        }
    };
    update(&mut series[i].value);
}

/// A thread-safe, dependency-free metrics registry.
///
/// Metrics are created on first touch; the same name must keep the same
/// kind (a counter never becomes a gauge — mismatched touches are
/// ignored rather than panicking, since metrics code must never take an
/// optimizer down). A touch of an existing series looks it up by the
/// borrowed name and labels and allocates nothing. Snapshots are
/// `(name, labels)`-sorted, so both exporters are deterministic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<HashMap<String, Vec<Series>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut HashMap<String, Vec<Series>>) -> R) -> R {
        // A poisoned lock only means another thread panicked mid-update;
        // the map itself is always structurally valid.
        let mut guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// Applies `update` to the series `name{labels}`, created by `init`.
    fn apply(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> MetricValue,
        update: impl FnOnce(&mut MetricValue),
    ) {
        with_sorted_labels(labels, |sorted| {
            self.with_inner(|m| {
                if let Some(series) = m.get_mut(name) {
                    return touch(series, sorted, init, update);
                }
                touch(m.entry(name.to_string()).or_default(), sorted, init, update);
            })
        });
    }

    /// Adds `delta` to the counter `name{labels}` (created at 0).
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.apply(
            name,
            labels,
            || MetricValue::Counter(0),
            |value| {
                if let MetricValue::Counter(v) = value {
                    *v = v.saturating_add(delta);
                }
            },
        );
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.apply(
            name,
            labels,
            || MetricValue::Gauge(0),
            |current| {
                if let MetricValue::Gauge(v) = current {
                    *v = value;
                }
            },
        );
    }

    /// Records `value` into the histogram `name{labels}`.
    pub fn record(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.apply(
            name,
            labels,
            || MetricValue::Histogram(Histogram::default()),
            |current| {
                if let MetricValue::Histogram(h) = current {
                    h.record(value);
                }
            },
        );
    }

    /// A point-in-time copy of every metric, sorted by `(name, labels)`.
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics: Vec<SnapshotEntry> = self.with_inner(|m| {
            m.iter()
                .flat_map(|(name, series)| {
                    series.iter().map(move |s| SnapshotEntry {
                        name: name.clone(),
                        labels: s.labels.clone(),
                        value: s.value.clone(),
                    })
                })
                .collect()
        });
        metrics.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        Snapshot { metrics }
    }
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Metric name (`joinopt_runs_total`, …).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

impl SnapshotEntry {
    fn render_labels(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let mut s = String::from("{");
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(k);
            s.push('=');
            write_escaped(&mut s, v);
        }
        s.push('}');
        s
    }

    fn render_labels_with(&self, extra_key: &str, extra_value: &str) -> String {
        let mut s = String::from("{");
        for (k, v) in &self.labels {
            s.push_str(k);
            s.push('=');
            write_escaped(&mut s, v);
            s.push(',');
        }
        s.push_str(extra_key);
        s.push('=');
        write_escaped(&mut s, extra_value);
        s.push('}');
        s
    }
}

/// A deterministic, immutable view of a [`MetricsRegistry`], with the
/// two exporters ([`Snapshot::to_prometheus`], [`Snapshot::to_json`])
/// and typed lookups for tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All metrics, sorted by `(name, labels)`.
    pub metrics: Vec<SnapshotEntry>,
}

impl Snapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapshotEntry> {
        with_sorted_labels(labels, |sorted| {
            self.metrics
                .iter()
                .find(|e| e.name == name && same_labels(&e.labels, sorted))
        })
    }

    /// The counter's value, if `name{labels}` is a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The gauge's value, if `name{labels}` is a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.find(name, labels)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// The histogram, if `name{labels}` is one.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match &self.find(name, labels)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Prometheus text exposition format, version 0.0.4.
    ///
    /// Counters and gauges render one sample line each; histograms
    /// render as summaries (`quantile` labels for p50/p90/p99 and max,
    /// plus `_sum` and `_count`). One `# TYPE` comment precedes each
    /// distinct metric name. Output is fully deterministic for a given
    /// snapshot.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for e in &self.metrics {
            if last_name != Some(e.name.as_str()) {
                let prom_type = match e.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "summary",
                };
                out.push_str(&format!("# TYPE {} {prom_type}\n", e.name));
                last_name = Some(e.name.as_str());
            }
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", e.name, e.render_labels()));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", e.name, e.render_labels()));
                }
                MetricValue::Histogram(h) => {
                    for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            e.name,
                            e.render_labels_with("quantile", label),
                            h.quantile(q)
                        ));
                    }
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        e.render_labels_with("quantile", "1"),
                        h.max()
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        e.name,
                        e.render_labels(),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        e.name,
                        e.render_labels(),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// The snapshot as one JSON document:
    /// `{"metrics":[{"name","labels","type",…value fields}]}`.
    /// Round-trips through [`crate::json::JsonValue::parse`].
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"metrics\":[");
        for (i, e) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            write_escaped(&mut s, &e.name);
            s.push_str(",\"labels\":{");
            for (j, (k, v)) in e.labels.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                write_escaped(&mut s, k);
                s.push(':');
                write_escaped(&mut s, v);
            }
            s.push_str("},\"type\":");
            write_escaped(&mut s, e.value.type_name());
            match &e.value {
                MetricValue::Counter(v) => s.push_str(&format!(",\"value\":{v}")),
                MetricValue::Gauge(v) => s.push_str(&format!(",\"value\":{v}")),
                MetricValue::Histogram(h) => {
                    s.push_str(&format!(
                        ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.quantile(0.5),
                        h.quantile(0.9),
                        h.quantile(0.99)
                    ));
                }
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// A compact human-readable rendering, one line per metric.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.metrics {
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("counter   {}{} {v}\n", e.name, e.render_labels()));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("gauge     {}{} {v}\n", e.name, e.render_labels()));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "histogram {}{} count={} p50={} p90={} p99={} max={}\n",
                        e.name,
                        e.render_labels(),
                        h.count(),
                        h.quantile(0.5),
                        h.quantile(0.9),
                        h.quantile(0.99),
                        h.max()
                    ));
                }
            }
        }
        out
    }
}

/// Per-thread state of a run in flight (all of a run's events are
/// emitted from one thread, but a registry observer may watch many
/// concurrent runs — e.g. a batch spread over workers).
#[derive(Debug, Clone, Copy)]
struct RunState {
    algorithm: &'static str,
    run_start_ns: u64,
    open_phase: Option<(&'static str, u64)>,
}

/// An [`Observer`] that aggregates events into a [`MetricsRegistry`],
/// across any number of runs — and, because it is `Sync` and keys its
/// in-flight state by thread, across concurrently interleaved runs from
/// batch workers.
///
/// Metrics produced (all prefixed `joinopt_`):
///
/// | metric | kind | labels |
/// |---|---|---|
/// | `runs_started_total`, `runs_total` | counter | `algorithm` |
/// | `run_duration_ns`, `phase_ns` | histogram | `algorithm` (+ `phase`) |
/// | `dp_level_entries` | histogram | `algorithm` |
/// | `table_probes_total`, `table_hits_total` | counter | `algorithm` |
/// | `table_entries`, `arena_bytes` | gauge (last run) | `algorithm` |
/// | `inner_loop_total`, `csg_cmp_pairs_total`, `ono_lohman_total` | counter | `algorithm` |
/// | `budget_exceeded_total` | counter | `budget` |
/// | `degraded_total` | counter | `rung` |
/// | `plan_candidates_total`, `plan_candidates_accepted_total` | counter | `algorithm` |
/// | `search_pruned_total` | counter | `reason` |
/// | `cache_hits_total`, `cache_misses_total` | counter | — |
/// | `cache_stores_total`, `cache_evictions_total` | counter | — |
/// | `cache_bytes` | gauge | — |
///
/// The provenance counters only move when some sink in the run's
/// observer chain opted into candidate events via
/// [`Observer::wants_provenance`]; this observer does not request them
/// itself.
pub struct RegistryObserver<'a> {
    registry: &'a MetricsRegistry,
    start: Instant,
    runs: Mutex<HashMap<u64, RunState>>,
}

impl<'a> RegistryObserver<'a> {
    /// An observer feeding `registry`; its duration clock starts now.
    pub fn new(registry: &'a MetricsRegistry) -> RegistryObserver<'a> {
        RegistryObserver {
            registry,
            start: Instant::now(),
            runs: Mutex::new(HashMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn with_runs<R>(&self, f: impl FnOnce(&mut HashMap<u64, RunState>) -> R) -> R {
        let mut guard = match self.runs.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// The algorithm label of this thread's in-flight run.
    fn algorithm(&self) -> &'static str {
        let tid = current_thread_id();
        self.with_runs(|r| r.get(&tid).map(|s| s.algorithm))
            .unwrap_or("unknown")
    }
}

impl Observer for RegistryObserver<'_> {
    fn on_event(&self, event: Event) {
        // The clock and the thread id are read only by the arms that
        // use them: a cache hit's two events need neither.
        let reg = self.registry;
        match event {
            Event::RunStart { algorithm, .. } => {
                let (now, tid) = (self.now_ns(), current_thread_id());
                self.with_runs(|r| {
                    r.insert(
                        tid,
                        RunState {
                            algorithm,
                            run_start_ns: now,
                            open_phase: None,
                        },
                    )
                });
                reg.inc("joinopt_runs_started_total", &[("algorithm", algorithm)], 1);
            }
            Event::PhaseStart { phase } => {
                let (now, tid) = (self.now_ns(), current_thread_id());
                self.with_runs(|r| {
                    if let Some(s) = r.get_mut(&tid) {
                        s.open_phase = Some((phase, now));
                    }
                });
            }
            Event::PhaseEnd { phase } => {
                let (now, tid) = (self.now_ns(), current_thread_id());
                let span = self.with_runs(|r| {
                    let s = r.get_mut(&tid)?;
                    match s.open_phase.take() {
                        Some((name, t)) if name == phase => Some((s.algorithm, now - t)),
                        _ => None,
                    }
                });
                if let Some((algorithm, duration)) = span {
                    reg.record(
                        "joinopt_phase_ns",
                        &[("algorithm", algorithm), ("phase", phase)],
                        duration,
                    );
                }
            }
            Event::DpLevel { new_entries, .. } => {
                reg.record(
                    "joinopt_dp_level_entries",
                    &[("algorithm", self.algorithm())],
                    new_entries,
                );
            }
            Event::TableStats {
                entries,
                probes,
                hits,
                ..
            } => {
                let algorithm = self.algorithm();
                let labels = [("algorithm", algorithm)];
                reg.inc("joinopt_table_probes_total", &labels, probes);
                reg.inc("joinopt_table_hits_total", &labels, hits);
                reg.set_gauge("joinopt_table_entries", &labels, entries as i64);
            }
            Event::ArenaStats { bytes, .. } => {
                reg.set_gauge(
                    "joinopt_arena_bytes",
                    &[("algorithm", self.algorithm())],
                    bytes as i64,
                );
            }
            Event::FinalCounters {
                inner,
                csg_cmp_pairs,
                ono_lohman,
            } => {
                let algorithm = self.algorithm();
                let labels = [("algorithm", algorithm)];
                reg.inc("joinopt_inner_loop_total", &labels, inner);
                reg.inc("joinopt_csg_cmp_pairs_total", &labels, csg_cmp_pairs);
                reg.inc("joinopt_ono_lohman_total", &labels, ono_lohman);
            }
            Event::BudgetExceeded { budget } => {
                reg.inc("joinopt_budget_exceeded_total", &[("budget", budget)], 1);
            }
            Event::Degraded { rung } => {
                reg.inc("joinopt_degraded_total", &[("rung", rung)], 1);
            }
            Event::PlanCandidate { accepted, .. } => {
                let labels = [("algorithm", self.algorithm())];
                reg.inc("joinopt_plan_candidates_total", &labels, 1);
                if accepted {
                    reg.inc("joinopt_plan_candidates_accepted_total", &labels, 1);
                }
            }
            Event::SearchPruned { reason, .. } => {
                reg.inc("joinopt_search_pruned_total", &[("reason", reason)], 1);
            }
            Event::CacheLookup { hit } => {
                let name = if hit {
                    "joinopt_cache_hits_total"
                } else {
                    "joinopt_cache_misses_total"
                };
                reg.inc(name, &[], 1);
            }
            Event::CacheStore { total_bytes, .. } => {
                reg.inc("joinopt_cache_stores_total", &[], 1);
                reg.set_gauge("joinopt_cache_bytes", &[], total_bytes as i64);
            }
            Event::CacheEvict { total_bytes, .. } => {
                reg.inc("joinopt_cache_evictions_total", &[], 1);
                reg.set_gauge("joinopt_cache_bytes", &[], total_bytes as i64);
            }
            Event::ServeAccepted { priority } => {
                reg.inc("joinopt_serve_accepted_total", &[("priority", priority)], 1);
            }
            Event::ServeShed { priority } => {
                reg.inc("joinopt_serve_shed_total", &[("priority", priority)], 1);
            }
            Event::ServeRetried { .. } => {
                reg.inc("joinopt_serve_retried_total", &[], 1);
            }
            Event::ServeBreakerOpen => {
                reg.inc("joinopt_serve_breaker_open_total", &[], 1);
            }
            Event::ServeDrained { .. } => {
                reg.inc("joinopt_serve_drained_total", &[], 1);
            }
            Event::RunEnd => {
                let (now, tid) = (self.now_ns(), current_thread_id());
                let state = self.with_runs(|r| r.remove(&tid));
                if let Some(s) = state {
                    let labels = [("algorithm", s.algorithm)];
                    reg.inc("joinopt_runs_total", &labels, 1);
                    reg.record("joinopt_run_duration_ns", &labels, now - s.run_start_ns);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn bucket_index_and_bound_are_consistent() {
        // Exact region.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
        // Every bucket's lower bound maps back to that bucket, and the
        // index is monotone in the value.
        let mut last = 0;
        for v in [16u64, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(i >= last, "index must be monotone at {v}");
            last = i;
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "lower bound of {v}'s bucket");
            assert!(lb <= v);
            // Relative error bound: the bucket spans < 1/16 of the value.
            assert!((v - lb) as f64 <= v as f64 / 16.0 + 1.0);
        }
    }

    #[test]
    fn histogram_quantiles_are_deterministic() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // Log-linear: quantiles land within 6.25% below the true value.
        let p50 = h.quantile(0.5);
        assert!((469..=500).contains(&p50), "p50={p50}");
        let p90 = h.quantile(0.9);
        assert!((844..=900).contains(&p90), "p90={p90}");
        let p99 = h.quantile(0.99);
        assert!((929..=990).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 1000);
        // Same inputs, same outputs: rebuild and compare.
        let mut again = Histogram::default();
        for v in 1..=1000u64 {
            again.record(v);
        }
        assert_eq!(h, again);
    }

    #[test]
    fn empty_and_single_sample_histograms() {
        let h = Histogram::default();
        assert_eq!((h.count(), h.quantile(0.5), h.max()), (0, 0, 0));
        let mut h = Histogram::default();
        h.record(42);
        assert_eq!(h.quantile(0.5), 42);
        assert_eq!(h.quantile(0.99), 42);
        assert_eq!((h.min(), h.max()), (42, 42));
    }

    #[test]
    fn registry_is_deterministic_and_kind_safe() {
        let reg = MetricsRegistry::new();
        reg.inc("b_counter", &[("x", "1")], 2);
        reg.inc("b_counter", &[("x", "1")], 3);
        reg.set_gauge("a_gauge", &[], -7);
        reg.record("c_hist", &[], 10);
        reg.record("c_hist", &[], 20);
        // Kind mismatch is ignored, not a panic.
        reg.set_gauge("b_counter", &[("x", "1")], 0);
        reg.inc("a_gauge", &[], 1);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("b_counter", &[("x", "1")]), Some(5));
        assert_eq!(snap.gauge("a_gauge", &[]), Some(-7));
        assert_eq!(snap.histogram("c_hist", &[]).unwrap().count(), 2);
        // Sorted by name: a_gauge, b_counter, c_hist.
        let names: Vec<&str> = snap.metrics.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a_gauge", "b_counter", "c_hist"]);

        // More labels than the stack buffer holds still find one series,
        // whatever order they come in.
        let mut wide = [
            ("a", "0"),
            ("b", "1"),
            ("c", "2"),
            ("d", "3"),
            ("e", "4"),
            ("f", "5"),
            ("g", "6"),
            ("h", "7"),
            ("i", "8"),
            ("j", "9"),
        ];
        reg.inc("d_wide", &wide, 1);
        wide.reverse();
        reg.inc("d_wide", &wide, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("d_wide", &wide), Some(2));
        assert_eq!(snap.metrics.last().unwrap().labels.len(), 10);
    }

    #[test]
    fn prometheus_exposition_is_exact() {
        let reg = MetricsRegistry::new();
        reg.inc("joinopt_runs_total", &[("algorithm", "DPccp")], 3);
        reg.inc("joinopt_runs_total", &[("algorithm", "DPsub")], 1);
        reg.set_gauge("joinopt_table_entries", &[("algorithm", "DPccp")], 10);
        reg.record("joinopt_run_duration_ns", &[("algorithm", "DPccp")], 100);
        reg.record("joinopt_run_duration_ns", &[("algorithm", "DPccp")], 200);

        let text = reg.snapshot().to_prometheus();
        let expected = "\
# TYPE joinopt_run_duration_ns summary
joinopt_run_duration_ns{algorithm=\"DPccp\",quantile=\"0.5\"} 100
joinopt_run_duration_ns{algorithm=\"DPccp\",quantile=\"0.9\"} 200
joinopt_run_duration_ns{algorithm=\"DPccp\",quantile=\"0.99\"} 200
joinopt_run_duration_ns{algorithm=\"DPccp\",quantile=\"1\"} 200
joinopt_run_duration_ns_sum{algorithm=\"DPccp\"} 300
joinopt_run_duration_ns_count{algorithm=\"DPccp\"} 2
# TYPE joinopt_runs_total counter
joinopt_runs_total{algorithm=\"DPccp\"} 3
joinopt_runs_total{algorithm=\"DPsub\"} 1
# TYPE joinopt_table_entries gauge
joinopt_table_entries{algorithm=\"DPccp\"} 10
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_snapshot_parses_and_matches() {
        let reg = MetricsRegistry::new();
        reg.inc("joinopt_runs_total", &[("algorithm", "DPccp")], 2);
        reg.record("joinopt_run_duration_ns", &[], 500);
        let snap = reg.snapshot();
        let v = JsonValue::parse(&snap.to_json()).unwrap();
        let metrics = v.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 2);
        let hist = &metrics[0];
        assert_eq!(
            hist.get("name").unwrap().as_str(),
            Some("joinopt_run_duration_ns")
        );
        assert_eq!(hist.get("type").unwrap().as_str(), Some("histogram"));
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("max").unwrap().as_u64(), Some(500));
        let counter = &metrics[1];
        assert_eq!(counter.get("value").unwrap().as_u64(), Some(2));
        assert_eq!(
            counter
                .get("labels")
                .unwrap()
                .get("algorithm")
                .unwrap()
                .as_str(),
            Some("DPccp")
        );
    }

    #[test]
    fn registry_observer_aggregates_across_runs() {
        let reg = MetricsRegistry::new();
        let obs = RegistryObserver::new(&reg);
        for _ in 0..2 {
            obs.on_event(Event::RunStart {
                algorithm: "DPsub",
                relations: 5,
            });
            obs.on_event(Event::PhaseStart { phase: "enumerate" });
            obs.on_event(Event::PhaseEnd { phase: "enumerate" });
            obs.on_event(Event::DpLevel {
                size: 2,
                new_entries: 4,
            });
            obs.on_event(Event::TableStats {
                entries: 9,
                capacity: 32,
                probes: 40,
                hits: 30,
            });
            obs.on_event(Event::ArenaStats {
                nodes: 11,
                bytes: 440,
            });
            obs.on_event(Event::FinalCounters {
                inner: 84,
                csg_cmp_pairs: 14,
                ono_lohman: 7,
            });
            obs.on_event(Event::BudgetExceeded { budget: "time" });
            obs.on_event(Event::Degraded { rung: "idp" });
            obs.on_event(Event::RunEnd);
        }
        let snap = reg.snapshot();
        let alg = [("algorithm", "DPsub")];
        assert_eq!(snap.counter("joinopt_runs_started_total", &alg), Some(2));
        assert_eq!(snap.counter("joinopt_runs_total", &alg), Some(2));
        assert_eq!(snap.counter("joinopt_inner_loop_total", &alg), Some(168));
        assert_eq!(snap.counter("joinopt_csg_cmp_pairs_total", &alg), Some(28));
        assert_eq!(snap.counter("joinopt_table_probes_total", &alg), Some(80));
        assert_eq!(snap.gauge("joinopt_table_entries", &alg), Some(9));
        assert_eq!(snap.gauge("joinopt_arena_bytes", &alg), Some(440));
        assert_eq!(
            snap.counter("joinopt_budget_exceeded_total", &[("budget", "time")]),
            Some(2)
        );
        assert_eq!(
            snap.counter("joinopt_degraded_total", &[("rung", "idp")]),
            Some(2)
        );
        assert_eq!(
            snap.histogram("joinopt_run_duration_ns", &alg)
                .unwrap()
                .count(),
            2
        );
        assert_eq!(
            snap.histogram(
                "joinopt_phase_ns",
                &[("algorithm", "DPsub"), ("phase", "enumerate")]
            )
            .unwrap()
            .count(),
            2
        );
        assert_eq!(
            snap.histogram("joinopt_dp_level_entries", &alg)
                .unwrap()
                .max(),
            4
        );
    }

    #[test]
    fn registry_observer_tracks_concurrent_runs_by_thread() {
        let reg = MetricsRegistry::new();
        let obs = RegistryObserver::new(&reg);
        std::thread::scope(|scope| {
            for algorithm in ["DPsub", "DPccp"] {
                let obs = &obs;
                scope.spawn(move || {
                    for _ in 0..3 {
                        obs.on_event(Event::RunStart {
                            algorithm,
                            relations: 4,
                        });
                        obs.on_event(Event::FinalCounters {
                            inner: 10,
                            csg_cmp_pairs: 4,
                            ono_lohman: 2,
                        });
                        obs.on_event(Event::RunEnd);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        for algorithm in ["DPsub", "DPccp"] {
            let labels = [("algorithm", algorithm)];
            assert_eq!(snap.counter("joinopt_runs_total", &labels), Some(3));
            assert_eq!(snap.counter("joinopt_inner_loop_total", &labels), Some(30));
        }
    }
}
