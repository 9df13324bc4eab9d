//! Metric names, the result line the benchmark ends with, and the
//! `report.json` document `compare` and `baseline` read back.

use joinopt_telemetry::json::{JsonObject, JsonValue};

/// The end-to-end metrics `BENCHMARK.json` lists, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mib", "MiB"),
];

/// Reported beside [`END_TO_END`] by `run`: the failure share (zero on
/// a correct run, so it cannot carry a relative bound) and the number
/// of timed round trips behind the latency percentiles.
pub const RUN_ONLY: [(&str, &str); 2] = [("error_frac", "fraction"), ("samples", "count")];

/// The per-layer metrics of a traced run: name, unit, and whether
/// higher is better.
pub const PER_LAYER: [(&str, &str, bool); 39] = [
    ("serve.server_total_p50_us", "us", false),
    ("serve.transport_p50_us", "us", false),
    ("serve.share", "fraction", false),
    ("telemetry.json_parse_p50_ns", "ns", false),
    ("telemetry.json_build_p50_ns", "ns", false),
    ("telemetry.allocs_per_req", "allocs/req", false),
    ("telemetry.share", "fraction", false),
    ("gateway.handle_p50_us", "us", false),
    ("gateway.self_p50_ns", "ns", false),
    ("gateway.clock_reads_per_req", "reads/req", false),
    ("query.parse_dsl_p50_ns", "ns", false),
    ("query.parse_sql_p50_ns", "ns", false),
    ("query.allocs_per_req", "allocs/req", false),
    ("query.share", "fraction", false),
    ("spec.capture_p50_ns", "ns", false),
    ("spec.instantiate_p50_ns", "ns", false),
    ("spec.allocs_per_req", "allocs/req", false),
    ("fingerprint.canonicalize_p50_ns", "ns", false),
    ("fingerprint.per_req", "fp/req", false),
    ("fingerprint.hit_yield", "hits/fp", true),
    ("fingerprint.allocs_per_req", "allocs/req", false),
    ("fingerprint.share", "fraction", false),
    ("cache.hit_frac", "fraction", true),
    ("cache.lookup_hit_p50_ns", "ns", false),
    ("cache.lookup_miss_p50_ns", "ns", false),
    ("cache.insert_p50_ns", "ns", false),
    ("cache.evictions", "count", false),
    ("cache.bytes", "bytes", false),
    ("cache.share", "fraction", false),
    ("core.optimize_p50_us", "us", false),
    ("core.optimize_p99_us", "us", false),
    ("core.dpccp.optimize_p50_us", "us", false),
    ("core.dpsub.optimize_p50_us", "us", false),
    ("core.dpconv.optimize_p50_us", "us", false),
    ("core.inner_per_req", "inner/req", false),
    ("core.ccp_per_req", "ccp/req", false),
    ("core.ccp_per_inner", "ccp/inner", true),
    ("core.allocs_per_req", "allocs/req", false),
    ("core.share", "fraction", false),
];

/// Per-layer counts that must repeat exactly between runs at one seed.
pub const EXACT: [&str; 13] = [
    "telemetry.allocs_per_req",
    "gateway.clock_reads_per_req",
    "query.allocs_per_req",
    "spec.allocs_per_req",
    "fingerprint.per_req",
    "fingerprint.hit_yield",
    "fingerprint.allocs_per_req",
    "cache.evictions",
    "cache.bytes",
    "core.inner_per_req",
    "core.ccp_per_req",
    "core.ccp_per_inner",
    "core.allocs_per_req",
];

/// One measured value. `iqr` (same unit) accompanies timings that are
/// medians over many calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Interquartile range of the underlying samples, when a median.
    pub iqr: Option<f64>,
}

impl Metric {
    /// A metric without spread.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            iqr: None,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Timed requests sent.
    pub attempted: u64,
    /// Timed requests that failed (error, rejected or transport) plus
    /// failed answer checks.
    pub failed: u64,
    /// End-to-end metrics: [`END_TO_END`] then [`RUN_ONLY`].
    pub end_to_end: Vec<Metric>,
    /// [`PER_LAYER`] metrics, in that order; empty without `--trace`.
    pub per_layer: Vec<Metric>,
    /// Descriptions of the first failures.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Whether every answer was right and no request failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The `workload metric value unit` lines `run` prints.
    pub fn lines(&self) -> Vec<String> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|m| {
                let mut line = format!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
                if let Some(iqr) = m.iqr {
                    line.push_str(&format!(" (iqr {iqr})"));
                }
                line
            })
            .collect()
    }

    /// The single-workload result object: `--trace 0` carries the
    /// end-to-end metrics of `BENCHMARK.json`, `--trace 1` the per-layer
    /// ones.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            metrics_object(&self.per_layer, false)
        } else {
            let listed = |m: &&Metric| END_TO_END.iter().any(|(n, _)| *n == m.name);
            metrics_object(self.end_to_end.iter().filter(listed), false)
        };
        JsonObject::new()
            .bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics)
            .finish()
    }

    fn to_json(&self) -> String {
        JsonObject::new()
            .str("name", self.workload)
            .bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics_object(&self.end_to_end, true))
            .raw("per_layer", &metrics_object(&self.per_layer, true))
            .finish()
    }
}

fn metrics_object<'a>(metrics: impl IntoIterator<Item = &'a Metric>, with_iqr: bool) -> String {
    metrics
        .into_iter()
        .fold(JsonObject::new(), |o, m| {
            let mut v = JsonObject::new().f64("value", m.value).str("unit", m.unit);
            if let (true, Some(iqr)) = (with_iqr, m.iqr) {
                v = v.f64("iqr", iqr);
            }
            o.raw(m.name, &v.finish())
        })
        .finish()
}

/// Machine metadata recorded with every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Short commit id of the measured tree, or `unknown`.
    pub commit: String,
}

impl Machine {
    /// Reads the metadata of this machine and checkout.
    pub fn detect() -> Machine {
        let command = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".into())
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command("rustc", &["-V"]),
            commit: command("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    fn to_json(&self) -> String {
        JsonObject::new()
            .u64("nproc", self.nproc as u64)
            .str("cpu", &self.cpu)
            .str("rustc", &self.rustc)
            .str("commit", &self.commit)
            .finish()
    }
}

/// Settings of one `run`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSettings {
    /// Workload seed.
    pub seed: u64,
    /// Timed window per workload, in seconds.
    pub seconds: f64,
    /// Whether the traced replay ran.
    pub trace: bool,
    /// Whether request counts were cut to a tenth.
    pub quick: bool,
}

/// Report schema identifier.
pub const SCHEMA: &str = "joinopt-servebench-v1";

/// Renders a `report.json` document.
pub fn report_json(settings: RunSettings, machine: &Machine, outcomes: &[Outcome]) -> String {
    let workloads: Vec<String> = outcomes.iter().map(Outcome::to_json).collect();
    JsonObject::new()
        .str("schema", SCHEMA)
        .u64("seed", settings.seed)
        .f64("seconds", settings.seconds)
        .bool("trace", settings.trace)
        .bool("quick", settings.quick)
        .raw("machine", &machine.to_json())
        .raw("workloads", &format!("[{}]", workloads.join(",")))
        .finish()
}

/// One workload of a parsed report: metric name → value, end-to-end and
/// per-layer together.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportWorkload {
    /// Workload name.
    pub name: String,
    /// Whether the run's answers were all correct.
    pub correct: bool,
    /// `(name, value, unit)` of every metric.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses a `report.json` document.
pub fn parse_report(text: &str) -> Result<(JsonValue, Vec<ReportWorkload>), String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} report"));
    }
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("report has no workloads")?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("workload without a name")?;
        let mut metrics = Vec::new();
        for section in ["metrics", "per_layer"] {
            if let Some(JsonValue::Object(fields)) = w.get(section) {
                for (metric, v) in fields {
                    let value = v
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("{name} {metric}: no value"))?;
                    let unit = v.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                    metrics.push((metric.clone(), value, unit.to_string()));
                }
            }
        }
        out.push(ReportWorkload {
            name: name.to_string(),
            correct: w.get("correct").and_then(JsonValue::as_bool) == Some(true),
            metrics,
        });
    }
    Ok((doc, out))
}

/// Checks a `report.json` document against its schema: every workload
/// once, in order, each with exactly the expected metrics and units,
/// every value finite, every answer correct.
pub fn check_report(text: &str) -> Result<(), String> {
    let (doc, workloads) = parse_report(text)?;
    for key in ["nproc", "cpu", "rustc", "commit"] {
        doc.get("machine")
            .and_then(|m| m.get(key))
            .ok_or(format!("machine metadata lacks {key}"))?;
    }
    let traced = doc.get("trace").and_then(JsonValue::as_bool) == Some(true);
    let names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
    if names != crate::workload::NAMES {
        return Err(format!("workloads {names:?}"));
    }
    let layers = PER_LAYER
        .iter()
        .filter(|_| traced)
        .map(|(n, u, _)| (*n, *u));
    let expected: Vec<(&str, &str)> = END_TO_END
        .into_iter()
        .chain(RUN_ONLY)
        .chain(layers)
        .collect();
    for w in &workloads {
        if !w.correct {
            return Err(format!("{}: wrong answers", w.name));
        }
        let found: Vec<(&str, &str)> = w
            .metrics
            .iter()
            .map(|m| (m.0.as_str(), m.2.as_str()))
            .collect();
        if found != expected {
            return Err(format!("{}: metrics {found:?}", w.name));
        }
        if let Some(m) = w.metrics.iter().find(|m| !m.1.is_finite()) {
            return Err(format!("{}: {} is not finite", w.name, m.0));
        }
    }
    Ok(())
}
