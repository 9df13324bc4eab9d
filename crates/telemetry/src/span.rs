//! Request-scoped tracing for the serve path: a flight recorder that
//! remembers, per request, which lifecycle stage ate the latency.
//!
//! A [`RequestTrace`] is an ordered list of [`StageSpan`]s — accept,
//! shed-check, breaker, cache-lookup, optimize, respond — plus the
//! facts a postmortem needs: the resolved algorithm, cache hit/miss,
//! degradation rung and error kind. Like
//! [`crate::window`], nothing here reads a clock: every timestamp is a
//! `now_ns` handed in by the caller (the service layer's injectable
//! `Clock`), so traces are byte-deterministic under a manual clock.
//!
//! `trace_id`s are accepted from the client protocol or minted by a
//! seeded per-server [`TraceIdMinter`]; either way the id is echoed in
//! every response so clients can correlate. A bounded [`TraceLog`]
//! keeps the most recent traces (for the `trace` verb) and the worst-K
//! slowest (for the `slow` verb) without ever growing unbounded.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::write_escaped;

/// One timed lifecycle stage inside a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name (`accept`, `shed-check`, `breaker`, `cache-lookup`,
    /// `optimize`, `respond`).
    pub stage: &'static str,
    /// Stage start, in the clock's nanoseconds.
    pub start_ns: u64,
    /// Stage end; `end_ns - start_ns` is the duration.
    pub end_ns: u64,
}

impl StageSpan {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The flight record of one request: ordered stage spans plus resolved
/// outcome facts.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Client-supplied or minted correlation id.
    pub trace_id: String,
    /// Tenant the request ran under.
    pub tenant: String,
    /// Protocol verb (`optimize` for the gateway lifecycle).
    pub verb: &'static str,
    /// When the request entered the lifecycle.
    pub started_ns: u64,
    /// When it finished (equals `started_ns` until [`finish`] is
    /// called).
    ///
    /// [`finish`]: RequestTrace::finish
    pub finished_ns: u64,
    /// Terminal status: `ok`, `rejected` or `error`.
    pub status: &'static str,
    /// Wire name of the algorithm that actually ran (after `auto`
    /// resolution), when the request got that far.
    pub algorithm: Option<&'static str>,
    /// Whether the plan came from the cache.
    pub cache_hit: Option<bool>,
    /// Degradation rung, when the plan was degraded under budget.
    pub degraded: Option<&'static str>,
    /// Error or rejection kind, when the request did not return a plan.
    pub error_kind: Option<&'static str>,
    spans: Vec<StageSpan>,
    open: Vec<usize>,
}

impl RequestTrace {
    /// Starts a trace at `now_ns`.
    pub fn new(trace_id: String, tenant: &str, verb: &'static str, now_ns: u64) -> RequestTrace {
        RequestTrace {
            trace_id,
            tenant: tenant.to_string(),
            verb,
            started_ns: now_ns,
            finished_ns: now_ns,
            status: "ok",
            algorithm: None,
            cache_hit: None,
            degraded: None,
            error_kind: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a stage span at `now_ns`.
    pub fn begin(&mut self, stage: &'static str, now_ns: u64) {
        self.open.push(self.spans.len());
        self.span(stage, now_ns, now_ns);
    }

    /// Closes the most recently opened span at `now_ns`. A close with
    /// nothing open is ignored — a trace must never panic a server.
    pub fn end(&mut self, now_ns: u64) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now_ns;
        }
    }

    /// Number of spans currently open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Closes every open span at `now_ns` — for error and panic paths
    /// that skipped the stage-by-stage closes.
    pub fn close_open(&mut self, now_ns: u64) {
        while !self.open.is_empty() {
            self.end(now_ns);
        }
    }

    /// Records an already-delimited span.
    pub fn span(&mut self, stage: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(StageSpan {
            stage,
            start_ns,
            end_ns,
        });
    }

    /// Seals the trace: closes any spans left open and stamps the end.
    pub fn finish(&mut self, status: &'static str, now_ns: u64) {
        self.close_open(now_ns);
        self.status = status;
        self.finished_ns = now_ns.max(self.started_ns);
    }

    /// End-to-end duration in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.started_ns)
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[StageSpan] {
        &self.spans
    }

    /// Renders the trace as one JSON object. Field order is fixed and
    /// every value is integral or escaped text, so identical traces
    /// render to identical bytes — the property the span-timeline
    /// golden in CI pins.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"trace_id\":");
        write_escaped(&mut s, &self.trace_id);
        s.push_str(",\"tenant\":");
        write_escaped(&mut s, &self.tenant);
        s.push_str(&format!(
            ",\"verb\":\"{}\",\"status\":\"{}\",\"started_ns\":{},\"total_ns\":{}",
            self.verb,
            self.status,
            self.started_ns,
            self.total_ns()
        ));
        if let Some(a) = self.algorithm {
            s.push_str(&format!(",\"algorithm\":\"{a}\""));
        }
        if let Some(h) = self.cache_hit {
            s.push_str(&format!(",\"cache_hit\":{h}"));
        }
        if let Some(d) = self.degraded {
            s.push_str(&format!(",\"degraded\":\"{d}\""));
        }
        if let Some(e) = self.error_kind {
            s.push_str(&format!(",\"error_type\":\"{e}\""));
        }
        s.push_str(",\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"stage\":\"{}\",\"start_ns\":{},\"duration_ns\":{}}}",
                sp.stage,
                sp.start_ns,
                sp.duration_ns()
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Mints `trace_id`s from a seeded per-server counter: an 8-hex-digit
/// server prefix (a splitmix64 hash of the seed, so distinct servers
/// rarely collide) and a sequential suffix. Fully deterministic for a
/// fixed seed — the property the `ManualClock` smoke golden relies on.
#[derive(Debug)]
pub struct TraceIdMinter {
    prefix: u32,
    counter: AtomicU64,
}

impl TraceIdMinter {
    /// A minter for the given server seed.
    pub fn new(seed: u64) -> TraceIdMinter {
        TraceIdMinter {
            prefix: (splitmix64(seed) >> 32) as u32,
            counter: AtomicU64::new(0),
        }
    }

    /// The next id: `xxxxxxxx-NNNNNN`.
    pub fn mint(&self) -> String {
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        format!("{:08x}-{:06}", self.prefix, n)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Bounded storage for finished traces: a ring of the most recent
/// (served by the `trace` verb) and the worst-K slowest by total
/// duration (served by the `slow` verb). Both bounds are hard — a busy
/// server's memory never grows with traffic.
#[derive(Debug)]
pub struct TraceLog {
    recent_capacity: usize,
    slow_capacity: usize,
    recent: VecDeque<RequestTrace>,
    slow: Vec<RequestTrace>,
}

impl TraceLog {
    /// A log keeping up to `recent_capacity` recent traces and the
    /// `slow_capacity` slowest.
    pub fn new(recent_capacity: usize, slow_capacity: usize) -> TraceLog {
        TraceLog {
            recent_capacity: recent_capacity.max(1),
            slow_capacity: slow_capacity.max(1),
            recent: VecDeque::new(),
            slow: Vec::new(),
        }
    }

    /// Files a finished trace in both the recent ring and, if it ranks,
    /// the slow list.
    pub fn record(&mut self, trace: RequestTrace) {
        if self.recent.len() == self.recent_capacity {
            self.recent.pop_front();
        }
        // Worst-first, stable on ties (earlier trace keeps its rank), so
        // identical runs produce identical `slow` listings.
        let total = trace.total_ns();
        let pos = self
            .slow
            .iter()
            .position(|t| t.total_ns() < total)
            .unwrap_or(self.slow.len());
        if pos < self.slow_capacity {
            self.slow.insert(pos, trace.clone());
            self.slow.truncate(self.slow_capacity);
        }
        self.recent.push_back(trace);
    }

    /// Looks a recent trace up by id (most recent match wins).
    pub fn find(&self, trace_id: &str) -> Option<&RequestTrace> {
        self.recent.iter().rev().find(|t| t.trace_id == trace_id)
    }

    /// The slowest recorded traces, worst first.
    pub fn slowest(&self) -> &[RequestTrace] {
        &self.slow
    }

    /// Number of traces currently in the recent ring.
    pub fn recent_len(&self) -> usize {
        self.recent.len()
    }

    /// The ids of every trace in the recent ring, oldest first.
    pub fn recent_ids(&self) -> Vec<&str> {
        self.recent.iter().map(|t| t.trace_id.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: &str, start: u64, end: u64) -> RequestTrace {
        let mut t = RequestTrace::new(id.to_string(), "acme", "optimize", start);
        t.begin("shed-check", start);
        t.end(start + 5);
        t.finish("ok", end);
        t
    }

    #[test]
    fn spans_nest_and_render_deterministically() {
        let mut t = RequestTrace::new("t-1".into(), "acme", "optimize", 100);
        t.begin("shed-check", 100);
        t.end(110);
        t.begin("optimize", 110);
        t.end(150);
        t.begin("respond", 150);
        t.end(170);
        t.algorithm = Some("dpccp");
        t.cache_hit = Some(false);
        t.finish("ok", 180);
        assert_eq!(t.total_ns(), 80);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].duration_ns(), 40);
        let json = t.to_json();
        assert_eq!(json, t.clone().to_json(), "rendering is pure");
        assert!(json.starts_with("{\"trace_id\":\"t-1\""));
        assert!(json.contains("\"algorithm\":\"dpccp\""));
        assert!(json.contains("\"cache_hit\":false"));
        assert!(json.contains("{\"stage\":\"respond\",\"start_ns\":150,\"duration_ns\":20}"));
    }

    #[test]
    fn finish_closes_dangling_spans_and_clamps() {
        let mut t = RequestTrace::new("t-2".into(), "", "optimize", 50);
        t.begin("breaker", 60);
        t.finish("error", 40); // a clock that "went backwards"
        assert_eq!(t.finished_ns, 50, "never ends before it starts");
        assert_eq!(t.spans()[0].end_ns, 40);
        t.end(99); // extra end is a no-op
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn minter_is_seed_deterministic_and_sequential() {
        let a = TraceIdMinter::new(2006);
        let b = TraceIdMinter::new(2006);
        let first = a.mint();
        assert_eq!(first, b.mint());
        assert_ne!(first, a.mint());
        assert!(first.len() == 15 && first.contains('-'), "{first}");
        assert_ne!(
            TraceIdMinter::new(7).mint(),
            TraceIdMinter::new(8).mint(),
            "different seeds, different prefixes"
        );
    }

    #[test]
    fn trace_log_bounds_recent_and_ranks_slowest() {
        let mut log = TraceLog::new(3, 2);
        log.record(trace("a", 0, 100));
        log.record(trace("b", 0, 500));
        log.record(trace("c", 0, 50));
        log.record(trace("d", 0, 300));
        assert_eq!(log.recent_len(), 3, "oldest recent trace evicted");
        assert!(log.find("a").is_none(), "evicted from the ring");
        assert_eq!(log.find("c").map(|t| t.total_ns()), Some(50));
        let slow: Vec<_> = log.slowest().iter().map(|t| t.trace_id.as_str()).collect();
        assert_eq!(slow, ["b", "d"], "worst-K by total duration");
    }

    #[test]
    fn duplicate_ids_resolve_to_the_most_recent() {
        let mut log = TraceLog::new(4, 1);
        log.record(trace("x", 0, 10));
        log.record(trace("x", 0, 20));
        assert_eq!(log.find("x").map(|t| t.total_ns()), Some(20));
    }
}
