//! `compare A B` and `baseline DIR`: medians and spreads over sets of
//! `report.json` files.

use joinopt_telemetry::json::{JsonObject, JsonValue};

use crate::report::{parse_report, ReportWorkload, EXACT};
use crate::stats::median_iqr;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether higher values are better.
    pub higher_better: bool,
    /// Largest tolerated worsening, as a share of the first median.
    pub bound: f64,
}

/// The end-to-end bounds of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &str) -> Result<Vec<Bound>, String> {
    let doc = JsonValue::parse(benchmark).map_err(|e| e.to_string())?;
    doc.get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_better: m.get("better").and_then(JsonValue::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread is wider than the bound and neither side's runs all
    /// beat the other side's.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges run set `b` against run set `a`.
pub fn verdict(a: &[f64], b: &[f64], higher_better: bool, bound: f64) -> Verdict {
    let (ma, ia) = median_iqr(a.to_vec());
    let (mb, ib) = median_iqr(b.to_vec());
    let beats = |x: f64, y: f64| if higher_better { x > y } else { x < y };
    let all_beat = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| beats(x, y)));
    let separated = all_beat(a, b) || all_beat(b, a);
    let worse_by = if higher_better { ma - mb } else { mb - ma } / ma.abs();
    if ia.max(ib) / ma.abs() > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// A parsed report: the document and its workloads.
type Report = (JsonValue, Vec<ReportWorkload>);

/// Every report in `dir`, in file-name order.
fn read_set(dir: &str) -> Result<Vec<Report>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{dir}: no report files"));
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_report(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The values of `metric` on `workload` across a set, with its unit.
fn values(set: &[Report], workload: &str, metric: &str) -> (Vec<f64>, String) {
    let mut unit = String::new();
    let xs = set
        .iter()
        .flat_map(|r| r.1.iter().filter(|w| w.name == workload))
        .flat_map(|w| w.metrics.iter().filter(|m| m.0 == metric))
        .map(|m| {
            unit.clone_from(&m.2);
            m.1
        })
        .collect();
    (xs, unit)
}

/// Distinct names in first-seen order.
fn distinct<'a>(names: impl Iterator<Item = &'a String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for n in names {
        if !out.contains(n) {
            out.push(n.clone());
        }
    }
    out
}

fn workload_names(set: &[Report]) -> Vec<String> {
    distinct(set.iter().flat_map(|r| r.1.iter().map(|w| &w.name)))
}

/// Prints one line per (workload, end-to-end metric) and the exact-count
/// agreement; returns whether every verdict is `ok`, every run was
/// correct and every exact count matches.
pub fn compare(benchmark: &str, dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let bounds = bounds(benchmark)?;
    let (a, b) = (read_set(dir_a)?, read_set(dir_b)?);
    let mut all_ok = true;
    for side in [&a, &b] {
        for w in side.iter().flat_map(|r| &r.1).filter(|w| !w.correct) {
            println!("{}: a run answered wrongly", w.name);
            all_ok = false;
        }
    }
    println!("workload metric | A median (iqr) | B median (iqr) | change | verdict");
    for workload in workload_names(&a) {
        for m in &bounds {
            let (xa, unit) = values(&a, &workload, &m.name);
            let (xb, _) = values(&b, &workload, &m.name);
            if xa.is_empty() || xb.is_empty() {
                println!("{workload} {} | missing in one set | unresolved", m.name);
                all_ok = false;
                continue;
            }
            let v = verdict(&xa, &xb, m.higher_better, m.bound);
            let ((ma, ia), (mb, ib)) = (median_iqr(xa), median_iqr(xb));
            println!(
                "{workload} {} | {ma:.4} {unit} ({:.1}%) | {mb:.4} {unit} ({:.1}%) | {:+.1}% | {}",
                m.name,
                100.0 * ia / ma,
                100.0 * ib / mb,
                100.0 * (mb - ma) / ma,
                v.name()
            );
            all_ok &= v == Verdict::Ok;
        }
        for metric in EXACT {
            let (mut xs, _) = values(&a, &workload, metric);
            xs.extend(values(&b, &workload, metric).0);
            if xs.windows(2).any(|p| p[0].to_bits() != p[1].to_bits()) {
                println!("{workload} {metric} | exact count differs: {xs:?}");
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}

/// The baseline document of the reports in `dir`: per workload and
/// metric, the median and IQR across runs, with the first report's seed
/// and machine metadata.
pub fn baseline(dir: &str) -> Result<String, String> {
    let set = read_set(dir)?;
    let doc = &set[0].0;
    let machine = doc
        .get("machine")
        .ok_or("report without machine metadata")?;
    let field = |k: &str| {
        machine
            .get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    let machine = JsonObject::new()
        .u64(
            "nproc",
            machine
                .get("nproc")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
        )
        .str("cpu", &field("cpu"))
        .str("rustc", &field("rustc"))
        .str("commit", &field("commit"))
        .finish();
    let mut workloads = JsonObject::new();
    for workload in workload_names(&set) {
        let mut metrics = JsonObject::new();
        let names = distinct(
            set.iter()
                .flat_map(|r| &r.1)
                .filter(|w| w.name == workload)
                .flat_map(|w| w.metrics.iter().map(|m| &m.0)),
        );
        for metric in names {
            let (xs, unit) = values(&set, &workload, &metric);
            let (median, iqr) = median_iqr(xs);
            metrics = metrics.raw(
                &metric,
                &JsonObject::new()
                    .f64("median", median)
                    .f64("iqr", iqr)
                    .str("unit", &unit)
                    .finish(),
            );
        }
        workloads = workloads.raw(&workload, &metrics.finish());
    }
    Ok(JsonObject::new()
        .str("schema", "joinopt-servebench-baseline-v1")
        .u64("runs", set.len() as u64)
        .u64(
            "seed",
            doc.get("seed").and_then(JsonValue::as_u64).unwrap_or(0),
        )
        .f64(
            "seconds",
            doc.get("seconds")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
        )
        .raw("machine", &machine)
        .raw("workloads", &workloads.finish())
        .finish())
}
