//! Rolling time-window aggregation: a ring of fixed-width buckets over
//! the log-linear [`Histogram`], answering "what were p50/p99 and the
//! request rate *over the last N seconds*" rather than "since the
//! process started".
//!
//! The registry's cumulative histograms never forget; a live `joinopt
//! top` needs recency. [`TimeWindow`] keeps `buckets` fixed-width
//! sub-histograms in a ring indexed by `now_ns / bucket_width_ns`;
//! recording into a slot whose epoch has moved on resets it first, and a
//! snapshot merges only the slots still inside the window. Nothing here
//! reads a clock: every call takes `now_ns` from the caller (the service
//! layer's injectable `Clock`), so the whole aggregator is byte-for-byte
//! deterministic under a manual clock.
//!
//! [`WindowedMetrics`] keeps one [`TimeWindow`] per (tenant, verb, stage)
//! and renders sorted snapshots as JSON or Prometheus text
//! (`joinopt_serve_stage_*` series). It files a finished
//! [`RequestTrace`] in one call: one tenant lookup, then one slot per
//! span found by comparing the span's `&'static str` names, so once a
//! tenant's slots exist recording allocates nothing.

use crate::json::write_escaped;
use crate::keys::{str_eq, TenantTable};
use crate::registry::Histogram;
use crate::span::RequestTrace;

/// The synthetic stage under which [`WindowedMetrics::record_trace`]
/// files a trace's end-to-end duration.
const TOTAL_STAGE: &str = "total";

/// Sizing of a rolling window: `buckets` ring slots of
/// `bucket_width_ns` each; the window covers their product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one ring bucket in nanoseconds.
    pub bucket_width_ns: u64,
    /// Number of ring buckets; the window spans
    /// `buckets * bucket_width_ns`.
    pub buckets: usize,
}

impl Default for WindowConfig {
    /// Ten one-second buckets: a ten-second window.
    fn default() -> Self {
        WindowConfig {
            bucket_width_ns: 1_000_000_000,
            buckets: 10,
        }
    }
}

impl WindowConfig {
    /// Total window span in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.bucket_width_ns.saturating_mul(self.buckets as u64)
    }
}

/// One ring slot: the histogram of samples recorded during bucket
/// `epoch` (i.e. while `now_ns / width == epoch`).
#[derive(Debug, Clone, Default)]
struct Bucket {
    epoch: u64,
    hist: Histogram,
}

/// A rolling window over one sample stream. All methods take `now_ns`
/// explicitly; time only moves when the caller says so.
#[derive(Debug, Clone)]
pub struct TimeWindow {
    config: WindowConfig,
    ring: Vec<Bucket>,
}

impl TimeWindow {
    /// An empty window.
    pub fn new(config: WindowConfig) -> TimeWindow {
        TimeWindow {
            config,
            ring: vec![Bucket::default(); config.buckets.max(1)],
        }
    }

    fn epoch(&self, now_ns: u64) -> u64 {
        now_ns / self.config.bucket_width_ns.max(1)
    }

    /// Records one sample at `now_ns`. A slot left over from an older
    /// epoch is reset before the sample lands — this is how buckets
    /// expire, including all at once when the clock jumps far forward.
    pub fn record(&mut self, now_ns: u64, value: u64) {
        let epoch = self.epoch(now_ns);
        let len = self.ring.len() as u64;
        let slot = &mut self.ring[(epoch % len) as usize];
        if slot.epoch != epoch {
            slot.hist.clear();
            slot.epoch = epoch;
        }
        slot.hist.record(value);
    }

    /// Merges the live buckets — epochs within the window ending at
    /// `now_ns` — into one [`Histogram`]. Buckets the ring has not
    /// rotated over yet but whose epoch already fell out of the window
    /// are skipped, so an idle stream decays to empty without writes.
    pub fn merged(&self, now_ns: u64) -> Histogram {
        let current = self.epoch(now_ns);
        let oldest = current.saturating_sub(self.ring.len() as u64 - 1);
        let mut merged = Histogram::default();
        for slot in &self.ring {
            if slot.epoch >= oldest && slot.epoch <= current && slot.hist.count() > 0 {
                merged.merge(&slot.hist);
            }
        }
        merged
    }
}

/// A point-in-time reading of one windowed series.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowEntry {
    /// Tenant label.
    pub tenant: String,
    /// Protocol verb label.
    pub verb: String,
    /// Lifecycle stage label.
    pub stage: String,
    /// Samples inside the window.
    pub count: u64,
    /// Samples per second over the full window span.
    pub rate_per_sec: f64,
    /// Windowed median, in the histogram's bucket resolution.
    pub p50_ns: u64,
    /// Windowed 99th percentile.
    pub p99_ns: u64,
    /// Largest sample in the window (exact).
    pub max_ns: u64,
}

/// All windowed series at one instant, sorted by (tenant, verb, stage).
#[derive(Debug, Clone, Default)]
pub struct WindowSnapshot {
    /// The window span the entries cover, in nanoseconds.
    pub window_ns: u64,
    /// One entry per (tenant, verb, stage) with samples in the window.
    pub entries: Vec<WindowEntry>,
}

impl WindowSnapshot {
    /// Renders the snapshot as one JSON object (deterministic order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"window_ns\":");
        s.push_str(&self.window_ns.to_string());
        s.push_str(",\"stages\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"tenant\":");
            write_escaped(&mut s, &e.tenant);
            s.push_str(",\"verb\":");
            write_escaped(&mut s, &e.verb);
            s.push_str(",\"stage\":");
            write_escaped(&mut s, &e.stage);
            s.push_str(&format!(
                ",\"count\":{},\"rate_per_sec\":{:.3},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                e.count, e.rate_per_sec, e.p50_ns, e.p99_ns, e.max_ns
            ));
        }
        s.push_str("]}");
        s
    }

    /// Renders the snapshot as Prometheus text exposition: the
    /// `joinopt_serve_stage_*` windowed series.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (name, pick) in [
            (
                "joinopt_serve_stage_window_count",
                &(|e: &WindowEntry| e.count.to_string()) as &dyn Fn(&WindowEntry) -> String,
            ),
            ("joinopt_serve_stage_p50_ns", &|e: &WindowEntry| {
                e.p50_ns.to_string()
            }),
            ("joinopt_serve_stage_p99_ns", &|e: &WindowEntry| {
                e.p99_ns.to_string()
            }),
            ("joinopt_serve_stage_rate_per_sec", &|e: &WindowEntry| {
                format!("{:.3}", e.rate_per_sec)
            }),
        ] {
            for e in &self.entries {
                s.push_str(&format!(
                    "{name}{{tenant=\"{}\",verb=\"{}\",stage=\"{}\"}} {}\n",
                    e.tenant,
                    e.verb,
                    e.stage,
                    pick(e)
                ));
            }
        }
        s
    }
}

/// The window of one (verb, stage) pair under a tenant.
#[derive(Debug)]
struct StageSlot {
    verb: &'static str,
    stage: &'static str,
    window: TimeWindow,
}

/// Rolling windows keyed by (tenant, verb, stage): the serve path's
/// per-stage latency series behind the `metrics` verb and `joinopt top`.
#[derive(Debug)]
pub struct WindowedMetrics {
    config: WindowConfig,
    tenants: TenantTable<Vec<StageSlot>>,
}

impl WindowedMetrics {
    /// An empty set of windows, all sized by `config`.
    pub fn new(config: WindowConfig) -> WindowedMetrics {
        WindowedMetrics {
            config,
            tenants: TenantTable::new(),
        }
    }

    /// The shared window sizing.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Files a finished trace: each span's duration at its `end_ns`
    /// under (tenant, verb, span stage), then the trace's total at
    /// `finished_ns` under the `total` stage.
    pub fn record_trace(&mut self, trace: &RequestTrace) {
        let config = self.config;
        let slots = self.tenants.get_or_insert_with(&trace.tenant, Vec::new);
        let mut next = 0;
        for span in trace.spans() {
            let i = find_or_add(slots, next, trace.verb, span.stage, config);
            slots[i].window.record(span.end_ns, span.duration_ns());
            next = i + 1;
        }
        let i = find_or_add(slots, next, trace.verb, TOTAL_STAGE, config);
        slots[i].window.record(trace.finished_ns, trace.total_ns());
    }

    /// Snapshots every series at `now_ns`, dropping series whose window
    /// is empty. Entries come out sorted by (tenant, verb, stage).
    pub fn snapshot(&self, now_ns: u64) -> WindowSnapshot {
        let window_ns = self.config.window_ns();
        let window_secs = window_ns as f64 / 1e9;
        let mut entries = Vec::new();
        for (tenant, slots) in self.tenants.iter() {
            for slot in slots {
                let merged = slot.window.merged(now_ns);
                if merged.count() == 0 {
                    continue;
                }
                entries.push(WindowEntry {
                    tenant: tenant.to_string(),
                    verb: slot.verb.to_string(),
                    stage: slot.stage.to_string(),
                    count: merged.count(),
                    rate_per_sec: if window_secs > 0.0 {
                        merged.count() as f64 / window_secs
                    } else {
                        0.0
                    },
                    p50_ns: merged.quantile(0.5),
                    p99_ns: merged.quantile(0.99),
                    max_ns: merged.max(),
                });
            }
        }
        entries.sort_by(|a, b| (&a.tenant, &a.verb, &a.stage).cmp(&(&b.tenant, &b.verb, &b.stage)));
        WindowSnapshot { window_ns, entries }
    }
}

/// The index of the (verb, stage) slot, appending it on first use. The
/// search starts at `from`, the slot after the previous span's: slots
/// are created in span order and a tenant's traces mostly repeat one
/// shape, so the first probe usually matches.
fn find_or_add(
    slots: &mut Vec<StageSlot>,
    from: usize,
    verb: &'static str,
    stage: &'static str,
    config: WindowConfig,
) -> usize {
    let n = slots.len();
    (0..n)
        .map(|k| (from + k) % n)
        .find(|&i| str_eq(slots[i].stage, stage) && str_eq(slots[i].verb, verb))
        .unwrap_or_else(|| {
            slots.push(StageSlot {
                verb,
                stage,
                window: TimeWindow::new(config),
            });
            n
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn small() -> WindowConfig {
        WindowConfig {
            bucket_width_ns: SEC,
            buckets: 4,
        }
    }

    #[test]
    fn window_counts_only_recent_samples() {
        let mut w = TimeWindow::new(small());
        w.record(0, 100);
        w.record(SEC, 200);
        assert_eq!(w.merged(SEC).count(), 2);
        // Four seconds later the epoch-0 sample has left the window.
        assert_eq!(w.merged(4 * SEC).count(), 1);
        // Another bucket later everything is gone.
        assert_eq!(w.merged(5 * SEC).count(), 0);
    }

    #[test]
    fn rotation_at_exact_window_edges() {
        let mut w = TimeWindow::new(small());
        // A sample on the very last nanosecond of bucket 0 and the very
        // first of bucket 1 land in different buckets.
        w.record(SEC - 1, 10);
        w.record(SEC, 20);
        assert_eq!(w.merged(SEC).count(), 2);
        // At exactly now = 4s the window is epochs [1, 4]: the epoch-0
        // sample is out, the epoch-1 sample is the last one standing.
        let m = w.merged(4 * SEC);
        assert_eq!(m.count(), 1);
        assert_eq!(m.max(), 20);
        // One bucket later (epochs [2, 5]) it expires too.
        assert_eq!(w.merged(5 * SEC).count(), 0);
    }

    #[test]
    fn empty_window_snapshots_cleanly() {
        let w = TimeWindow::new(small());
        let m = w.merged(123 * SEC);
        assert_eq!(m.count(), 0);
        assert_eq!(m.quantile(0.5), 0);
        let metrics = WindowedMetrics::new(small());
        let snap = metrics.snapshot(123 * SEC);
        assert!(snap.entries.is_empty());
        assert_eq!(
            snap.to_json(),
            format!("{{\"window_ns\":{},\"stages\":[]}}", 4 * SEC)
        );
    }

    #[test]
    fn far_forward_jump_expires_all_buckets_at_once() {
        let mut w = TimeWindow::new(small());
        for i in 0..4 {
            w.record(i * SEC, 50 + i);
        }
        assert_eq!(w.merged(3 * SEC).count(), 4);
        // The clock leaps an hour: every bucket's epoch is stale. No
        // writes needed — the snapshot skips them all.
        assert_eq!(w.merged(3600 * SEC).count(), 0);
        // And the ring is immediately reusable at the new epoch.
        w.record(3600 * SEC, 77);
        let m = w.merged(3600 * SEC);
        assert_eq!((m.count(), m.max()), (1, 77));
    }

    #[test]
    fn stale_slot_resets_when_rewritten() {
        let mut w = TimeWindow::new(small());
        w.record(0, 100);
        // Epoch 4 maps onto the same ring slot as epoch 0; the stale
        // histogram must not leak into the new bucket.
        w.record(4 * SEC, 7);
        let m = w.merged(4 * SEC);
        assert_eq!((m.count(), m.max()), (1, 7));
    }

    /// A finished trace holding one span that ends at `end_ns`.
    fn one_span(tenant: &str, stage: &'static str, start_ns: u64, end_ns: u64) -> RequestTrace {
        let mut t = RequestTrace::new("t".into(), tenant, "optimize", start_ns);
        t.span(stage, start_ns, end_ns);
        t.finish("ok", end_ns);
        t
    }

    #[test]
    fn keyed_snapshot_sorts_and_rates() {
        let mut m = WindowedMetrics::new(small());
        m.record_trace(&one_span("tb", "optimize", 0, 1000));
        m.record_trace(&one_span("ta", "breaker", 0, 10));
        m.record_trace(&one_span("ta", "breaker", SEC / 2 - 30, SEC / 2));
        let snap = m.snapshot(SEC / 2);
        let keys: Vec<(&str, &str, u64)> = snap
            .entries
            .iter()
            .map(|e| (e.tenant.as_str(), e.stage.as_str(), e.count))
            .collect();
        assert_eq!(
            keys,
            [
                ("ta", "breaker", 2),
                ("ta", "total", 2),
                ("tb", "optimize", 1),
                ("tb", "total", 1)
            ]
        );
        assert!((snap.entries[0].rate_per_sec - 0.5).abs() < 1e-9);
        assert_eq!(snap.entries[0].max_ns, 30);
        let prom = snap.to_prometheus();
        assert!(prom.contains(
            "joinopt_serve_stage_window_count{tenant=\"ta\",verb=\"optimize\",stage=\"breaker\"} 2"
        ));
        assert!(prom.contains("joinopt_serve_stage_p99_ns{tenant=\"tb\""));
        let json = snap.to_json();
        assert!(json.contains("\"stage\":\"breaker\""));
    }

    #[test]
    fn a_stage_seen_again_out_of_order_reuses_its_slot() {
        let mut m = WindowedMetrics::new(small());
        let mut first = RequestTrace::new("1".into(), "", "optimize", 0);
        first.span("accept", 0, 5);
        first.span("respond", 5, 7);
        first.finish("ok", 7);
        let mut second = RequestTrace::new("2".into(), "", "optimize", 10);
        second.span("respond", 10, 13);
        second.span("accept", 13, 17);
        second.span("respond", 17, 18);
        second.finish("ok", 18);
        m.record_trace(&first);
        m.record_trace(&second);
        let snap = m.snapshot(18);
        let counts: Vec<(&str, u64)> = snap
            .entries
            .iter()
            .map(|e| (e.stage.as_str(), e.count))
            .collect();
        assert_eq!(counts, [("accept", 2), ("respond", 3), ("total", 2)]);
    }
}
