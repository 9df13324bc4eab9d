//! The traced in-process replay behind the per-layer metrics.
//!
//! Each sampled request runs three times, each time against its own
//! replica whose cache saw the same warm-up, so every replica sees the
//! same hits and misses as the live server did:
//!
//! 1. layer by layer, calling each layer's public function in the order
//!    the server calls it, each call inside a benchmark-owned span;
//! 2. through [`Gateway::handle`], untraced;
//! 3. through [`OptimizerService::submit_one`], untraced.
//!
//! All three must return the same cost bits and algorithm. Allocation
//! counting is on for the sampled requests only.

use std::io::Write as _;
use std::time::Instant;

use joinopt_core::{Algorithm, Counters, OptimizeRequest, Session};
use joinopt_service::server::{algorithm_name, parse_query_text};
use joinopt_service::{
    canonicalize, clock_reads, fingerprints_computed, CacheConfig, CostModelId, Gateway,
    GatewayConfig, OptimizerService, PlanCache, QuerySpec, ServiceConfig, ServiceRequest,
};
use joinopt_telemetry::json::{write_escaped, JsonObject, JsonValue};
use joinopt_telemetry::{NoopObserver, TraceIdMinter};

use crate::alloc;
use crate::report::Metric;
use crate::stats::{median_iqr, quantile};
use crate::workload::Stream;

/// One benchmark-owned span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Replayed request number.
    pub req: u32,
    /// Layer call (`json.parse`, `core.optimize`, …) or `request` for
    /// the root of a layered request.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, in nanoseconds since the replay began.
    pub end_ns: u64,
    /// Allocation calls made inside the span.
    pub allocs: u64,
    /// The engine that ran, on `core.optimize` spans.
    pub alg: Option<&'static str>,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, req: u32, name: &'static str) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            name,
            parent: None,
            start_ns,
            end_ns: start_ns,
            allocs: alloc::allocations(),
            alg: None,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        let (end_ns, allocs) = (self.now(), alloc::allocations());
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn time<T>(&mut self, req: u32, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let a0 = alloc::allocations();
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let allocs = alloc::allocations() - a0;
        self.spans.push(Span {
            req,
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
            allocs,
            alg: None,
        });
        out
    }

    fn last(&mut self) -> &mut Span {
        self.spans.last_mut().expect("a span was just recorded")
    }
}

/// The service's `Auto` policy at one intra-query thread, restated so
/// the layered path can key the cache the way `submit_one` does. The
/// replay fails if the two ever disagree.
fn resolve_auto(spec: &QuerySpec) -> Algorithm {
    let n = spec.num_relations();
    if (2..=joinopt_core::table::DenseDpTable::MAX_RELATIONS).contains(&n) {
        let max_edges = n * (n - 1) / 2;
        if 100 * spec.num_edges() >= 90 * max_edges {
            return Algorithm::DpSub;
        }
    }
    Algorithm::DpCcp
}

/// What one replayed request measured outside the layered spans.
#[derive(Default)]
struct Probe {
    handle_ns: f64,
    submit_ns: f64,
    clock_reads: u64,
    fingerprints: u64,
    counters: Counters,
}

struct Replicas {
    cache: PlanCache,
    session: Session,
    minter: TraceIdMinter,
    gateway: Gateway,
    gateway_session: Option<Session>,
    service: OptimizerService,
    service_session: Option<Session>,
}

impl Replicas {
    fn new() -> Replicas {
        Replicas {
            cache: PlanCache::new(CacheConfig::default()),
            session: Session::default(),
            minter: TraceIdMinter::new(GatewayConfig::default().seed),
            gateway: Gateway::new(
                OptimizerService::new(ServiceConfig::default()),
                GatewayConfig::default(),
            ),
            gateway_session: None,
            service: OptimizerService::new(ServiceConfig::default()),
            service_session: None,
        }
    }

    /// Replays request line `line` (text form `sql`) as request `r`.
    fn request(&mut self, tr: &mut Tracer, r: u32, line: &str, sql: bool) -> Result<Probe, String> {
        let model = CostModelId::Cout;
        let root = tr.open(r, "request");
        let parsed = tr
            .time(r, "json.parse", root, || JsonValue::parse(line))
            .map_err(|e| e.to_string())?;
        let id = parsed
            .get("id")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        let query = parsed
            .get("query")
            .and_then(JsonValue::as_str)
            .ok_or("request without a query")?;
        let q = if sql {
            tr.time(r, "query.parse_sql", root, || {
                joinopt_query::parse_sql(query)
            })
            .map_err(|e| e.to_string())?
        } else {
            tr.time(r, "query.parse_dsl", root, || joinopt_query::parse(query))
                .map_err(|e| e.to_string())?
        };
        let graph = q.graph().ok_or("query has hyperedges")?;
        let spec = tr
            .time(r, "spec.capture", root, || {
                QuerySpec::capture(graph, &q.catalog)
            })
            .map_err(|e| e.to_string())?;
        let algorithm = resolve_auto(&spec);
        let canon = tr.time(r, "fingerprint.canonicalize", root, || canonicalize(&spec));
        let cache = &self.cache;
        let hit = tr.time(r, "cache.lookup", root, || {
            cache.lookup(
                canon.fingerprint,
                algorithm,
                model.name(),
                &canon.encoding,
                &canon.order,
            )
        });
        tr.last().name = if hit.is_some() {
            "cache.lookup_hit"
        } else {
            "cache.lookup_miss"
        };
        let mut probe = Probe::default();
        let (cost, cardinality, relations, cache_hit) = match hit {
            Some(plan) => (plan.cost, plan.cardinality, plan.tree.num_relations(), true),
            None => {
                let (g, c) = tr
                    .time(r, "spec.instantiate", root, || spec.instantiate())
                    .map_err(|e| e.to_string())?;
                let session = &mut self.session;
                let out = tr
                    .time(r, "core.optimize", root, || {
                        OptimizeRequest::new(&g, &c)
                            .with_algorithm(algorithm)
                            .with_cost_model(model.model())
                            .with_threads(1)
                            .run_in(session)
                    })
                    .map_err(|e| e.to_string())?;
                tr.last().alg = Some(algorithm_name(out.algorithm));
                probe.counters = out.result.counters;
                let res = &out.result;
                tr.time(r, "cache.insert", root, || {
                    cache.insert(
                        canon.fingerprint,
                        algorithm,
                        model.name(),
                        &canon.encoding,
                        &canon.order,
                        &res.tree,
                        res.cost,
                        res.cardinality,
                    )
                });
                (res.cost, res.cardinality, res.tree.num_relations(), false)
            }
        };
        let trace_id = self.minter.mint();
        tr.time(r, "json.build", root, || {
            JsonObject::new()
                .str("verb", "optimize")
                .str("status", "ok")
                .f64("cost", cost)
                .f64("cardinality", cardinality)
                .u64("relations", relations as u64)
                .str("algorithm", algorithm_name(algorithm))
                .bool("cache_hit", cache_hit)
                .u64("elapsed_us", 0)
                .opt_str("id", id.as_deref())
                .str("trace_id", &trace_id)
                .finish()
        });
        tr.close(root);

        // The same request through the gateway and the service, on
        // their own replicas, outside the counted spans.
        let req = ServiceRequest::new(parse_query_text(query)?);
        let (c0, t0) = (clock_reads(), Instant::now());
        let via_gateway = self
            .gateway
            .handle(&req, None, &mut self.gateway_session, &NoopObserver)
            .map_err(|e| e.to_string())?;
        probe.handle_ns = t0.elapsed().as_nanos() as f64;
        probe.clock_reads = clock_reads() - c0;
        let (f0, t0) = (fingerprints_computed(), Instant::now());
        let via_service = self
            .service
            .submit_one(&req, &mut self.service_session, &NoopObserver)
            .map_err(|e| e.to_string())?;
        probe.submit_ns = t0.elapsed().as_nanos() as f64;
        probe.fingerprints = fingerprints_computed() - f0;

        for (path, other) in [("gateway", &via_gateway), ("service", &via_service)] {
            if other.result.cost.to_bits() != cost.to_bits() || other.algorithm != algorithm {
                return Err(format!(
                    "request {r}: {path} answered {} {:e}, layered {} {cost:e}",
                    algorithm_name(other.algorithm),
                    other.result.cost,
                    algorithm_name(algorithm)
                ));
            }
        }
        Ok(probe)
    }
}

/// The result of a replay.
pub struct Replay {
    /// Per-layer metrics the replay measures (every per-layer metric
    /// except those read from the live server).
    pub metrics: Vec<Metric>,
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    /// Disagreements between the three paths, and failed requests.
    pub failures: Vec<String>,
}

/// Replays the warm-up untimed, then the timed requests at positions
/// `sample` (ascending) of `stream`.
pub fn replay(stream: &Stream, sample: &[usize]) -> Replay {
    let mut replicas = Replicas::new();
    let mut failures = Vec::new();
    let mut warm = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    for &t in &stream.warmup {
        let line = stream.line(t).trim_end();
        if let Err(e) = replicas.request(&mut warm, 0, line, stream.texts[t as usize].1) {
            failures.push(e);
        }
        warm.spans.clear();
    }

    let stats0 = replicas
        .service
        .cache()
        .map(|c| c.stats())
        .unwrap_or_default();
    let mut tr = Tracer {
        epoch: Instant::now(),
        spans: Vec::with_capacity(sample.len() * 12),
    };
    let mut probes = Vec::with_capacity(sample.len());
    alloc::set_counting(true);
    for (r, &i) in sample.iter().enumerate() {
        let t = stream.timed[i];
        let line = stream.line(t).trim_end();
        match replicas.request(&mut tr, r as u32, line, stream.texts[t as usize].1) {
            Ok(p) => probes.push(p),
            Err(e) => failures.push(e),
        }
    }
    alloc::set_counting(false);
    let stats = replicas
        .service
        .cache()
        .map(|c| c.stats())
        .unwrap_or_default();

    let spans = tr.spans;
    let k = sample.len().max(1) as f64;
    let of = |names: &'static [&'static str]| spans.iter().filter(move |s| names.contains(&s.name));
    let total_ns: f64 = of(&["request"]).map(Span::ns).sum();
    // `fold` from +0: an empty `sum` of floats is -0.
    let share = |names: &'static [&'static str]| {
        of(names).map(Span::ns).fold(0.0, |a, x| a + x) / total_ns.max(1.0)
    };
    let allocs =
        |names: &'static [&'static str]| of(names).map(|s| s.allocs).sum::<u64>() as f64 / k;
    let median = |name: &'static str, unit: &'static str, xs: Vec<f64>, scale: f64| {
        let (m, iqr) = median_iqr(xs);
        Metric {
            name,
            unit,
            value: m / scale,
            iqr: Some(iqr / scale),
        }
    };
    let p50 = |metric: &'static str, span: &'static str| {
        let xs = spans
            .iter()
            .filter(|s| s.name == span)
            .map(Span::ns)
            .collect();
        median(metric, "ns", xs, 1.0)
    };
    let core_us = |metric: &'static str, alg: Option<&str>| {
        let xs = of(&["core.optimize"])
            .filter(|s| alg.is_none() || s.alg == alg)
            .map(Span::ns)
            .collect();
        median(metric, "us", xs, 1e3)
    };
    let mut core_sorted: Vec<f64> = of(&["core.optimize"]).map(Span::ns).collect();
    core_sorted.sort_by(f64::total_cmp);
    let sum = |f: fn(&Probe) -> u64| probes.iter().map(f).sum::<u64>() as f64;
    let fingerprints = sum(|p| p.fingerprints);
    let (inner, ono_lohman) = (sum(|p| p.counters.inner), sum(|p| p.counters.ono_lohman));

    let metrics = vec![
        p50("telemetry.json_parse_p50_ns", "json.parse"),
        p50("telemetry.json_build_p50_ns", "json.build"),
        Metric::new(
            "telemetry.allocs_per_req",
            "allocs/req",
            allocs(&["json.parse", "json.build"]),
        ),
        Metric::new(
            "telemetry.share",
            "fraction",
            share(&["json.parse", "json.build"]),
        ),
        median(
            "gateway.handle_p50_us",
            "us",
            probes.iter().map(|p| p.handle_ns).collect(),
            1e3,
        ),
        median(
            "gateway.self_p50_ns",
            "ns",
            probes.iter().map(|p| p.handle_ns - p.submit_ns).collect(),
            1.0,
        ),
        Metric::new(
            "gateway.clock_reads_per_req",
            "reads/req",
            sum(|p| p.clock_reads) / k,
        ),
        p50("query.parse_dsl_p50_ns", "query.parse_dsl"),
        p50("query.parse_sql_p50_ns", "query.parse_sql"),
        Metric::new(
            "query.allocs_per_req",
            "allocs/req",
            allocs(&["query.parse_dsl", "query.parse_sql"]),
        ),
        Metric::new(
            "query.share",
            "fraction",
            share(&["query.parse_dsl", "query.parse_sql"]),
        ),
        p50("spec.capture_p50_ns", "spec.capture"),
        p50("spec.instantiate_p50_ns", "spec.instantiate"),
        Metric::new(
            "spec.allocs_per_req",
            "allocs/req",
            allocs(&["spec.capture", "spec.instantiate"]),
        ),
        p50(
            "fingerprint.canonicalize_p50_ns",
            "fingerprint.canonicalize",
        ),
        Metric::new("fingerprint.per_req", "fp/req", fingerprints / k),
        Metric::new(
            "fingerprint.hit_yield",
            "hits/fp",
            (stats.hits - stats0.hits) as f64 / fingerprints.max(1.0),
        ),
        Metric::new(
            "fingerprint.allocs_per_req",
            "allocs/req",
            allocs(&["fingerprint.canonicalize"]),
        ),
        Metric::new(
            "fingerprint.share",
            "fraction",
            share(&["fingerprint.canonicalize"]),
        ),
        p50("cache.lookup_hit_p50_ns", "cache.lookup_hit"),
        p50("cache.lookup_miss_p50_ns", "cache.lookup_miss"),
        p50("cache.insert_p50_ns", "cache.insert"),
        Metric::new(
            "cache.evictions",
            "count",
            (stats.evictions - stats0.evictions) as f64,
        ),
        Metric::new("cache.bytes", "bytes", stats.bytes as f64),
        Metric::new(
            "cache.share",
            "fraction",
            share(&["cache.lookup_hit", "cache.lookup_miss", "cache.insert"]),
        ),
        core_us("core.optimize_p50_us", None),
        Metric::new(
            "core.optimize_p99_us",
            "us",
            quantile(&core_sorted, 0.99) / 1e3,
        ),
        core_us("core.dpccp.optimize_p50_us", Some("dpccp")),
        core_us("core.dpsub.optimize_p50_us", Some("dpsub")),
        core_us("core.dpconv.optimize_p50_us", Some("dpconv")),
        Metric::new("core.inner_per_req", "inner/req", inner / k),
        Metric::new("core.ccp_per_req", "ccp/req", ono_lohman / k),
        Metric::new(
            "core.ccp_per_inner",
            "ccp/inner",
            ono_lohman / inner.max(1.0),
        ),
        Metric::new(
            "core.allocs_per_req",
            "allocs/req",
            allocs(&["core.optimize"]),
        ),
        Metric::new("core.share", "fraction", share(&["core.optimize"])),
    ];
    Replay {
        metrics,
        spans,
        failures,
    }
}

/// Writes `spans` as a JSON document to `path`.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut name = String::new();
    write_escaped(&mut name, workload);
    write!(out, "{{\"workload\":{name},\"seed\":{seed},\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{sep}{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}",
            s.req, s.name, s.start_ns, s.end_ns, s.allocs
        )?;
        if let Some(alg) = s.alg {
            write!(out, ",\"alg\":\"{alg}\"")?;
        }
        out.write_all(b"}")?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}
