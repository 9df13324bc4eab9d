//! Measurement harness shared by the figure-regenerating binaries.
//!
//! The paper's experiments time three algorithms over four graph
//! families for `n` up to 20. Two of the 48 cells of Figure 12 need
//! ~10¹¹ innermost iterations (DPsize on star/clique at n = 20 took
//! 4 791 s and 21 294 s in 2006); to keep the default harness runs
//! tractable, any cell whose *predicted* runtime exceeds a budget is
//! extrapolated from the per-iteration cost measured at the largest
//! feasible size — the counter formulas are exact, so only the
//! nanoseconds-per-iteration factor is estimated. Extrapolated cells are
//! marked `~`; `--full` runs everything honestly.

pub mod chaos;
pub mod microbench;
pub mod perf;

use std::time::{Duration, Instant};

use joinopt_core::formulas;
use joinopt_core::{Counters, DpCcp, DpSize, DpSub, JoinOrderer};
use joinopt_cost::{workload::family_workload, Cout};
use joinopt_qgraph::GraphKind;
use joinopt_telemetry::json::{write_escaped, write_f64};

/// The three algorithms of the paper's evaluation, in figure order.
pub fn paper_algorithms() -> [(&'static dyn JoinOrderer, AlgId); 3] {
    [
        (&DpSize, AlgId::DpSize),
        (&DpSub, AlgId::DpSub),
        (&DpCcp, AlgId::DpCcp),
    ]
}

/// Identifies an algorithm for counter prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgId {
    /// Size-driven enumeration.
    DpSize,
    /// Subset-driven enumeration.
    DpSub,
    /// csg-cmp-pair enumeration.
    DpCcp,
}

impl AlgId {
    /// Predicted `InnerCounter` for a family/size (exact closed forms).
    pub fn predicted_inner(self, kind: GraphKind, n: u64) -> u128 {
        match self {
            AlgId::DpSize => formulas::dpsize_inner(kind, n),
            AlgId::DpSub => formulas::dpsub_inner(kind, n),
            AlgId::DpCcp => formulas::dpccp_inner(kind, n),
        }
    }
}

/// One timed (or extrapolated) cell.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Wall-clock seconds (measured or extrapolated).
    pub seconds: f64,
    /// Counters from the run (predicted values when extrapolated).
    pub counters: Counters,
    /// `true` when `seconds` was extrapolated rather than measured.
    pub extrapolated: bool,
}

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Per-cell time budget; cells predicted to exceed it are
    /// extrapolated. `None` = run everything (`--full`).
    pub budget: Option<Duration>,
    /// Workload seed (statistics only; counters are stats-independent).
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            budget: Some(Duration::from_secs(5)),
            seed: 2006,
        }
    }
}

/// Times one `(algorithm, family, n)` cell.
///
/// Small cells are repeated until ≥ 20 ms of total runtime accumulates,
/// so sub-microsecond measurements are still meaningful. When the
/// predicted runtime (from the exact counter formulas and a
/// per-iteration cost calibrated at the largest feasible size) exceeds
/// the budget, the cell is extrapolated instead of run.
pub fn measure_cell(
    alg: &dyn JoinOrderer,
    id: AlgId,
    kind: GraphKind,
    n: usize,
    config: &HarnessConfig,
) -> Measurement {
    let predicted = id.predicted_inner(kind, n as u64);
    if let Some(budget) = config.budget {
        let ns_per_iter = calibrate(alg, id, kind, n, config);
        let predicted_secs = predicted as f64 * ns_per_iter / 1e9;
        if predicted_secs > budget.as_secs_f64() {
            return Measurement {
                seconds: predicted_secs,
                counters: Counters {
                    inner: predicted.min(u128::from(u64::MAX)) as u64,
                    csg_cmp_pairs: 0,
                    ono_lohman: 0,
                },
                extrapolated: true,
            };
        }
    }
    run_timed(alg, kind, n, config.seed)
}

/// Runs one cell, repeating until enough time accumulates.
pub fn run_timed(alg: &dyn JoinOrderer, kind: GraphKind, n: usize, seed: u64) -> Measurement {
    let w = family_workload(kind, n, seed);
    let mut reps = 0u32;
    let start = Instant::now();
    let (counters, elapsed) = loop {
        let r = alg
            .optimize(&w.graph, &w.catalog, &Cout)
            .expect("family workloads are valid");
        reps += 1;
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(20) || reps >= 10_000 {
            break (r.counters, elapsed);
        }
    };
    Measurement {
        seconds: elapsed.as_secs_f64() / f64::from(reps),
        counters,
        extrapolated: false,
    }
}

/// Estimates nanoseconds per innermost iteration by running the largest
/// size of the same family whose predicted counter stays under ~2·10⁷.
fn calibrate(
    alg: &dyn JoinOrderer,
    id: AlgId,
    kind: GraphKind,
    n: usize,
    config: &HarnessConfig,
) -> f64 {
    const CALIBRATION_ITERS: u128 = 20_000_000;
    let mut probe = n;
    while probe > 2 && id.predicted_inner(kind, probe as u64) > CALIBRATION_ITERS {
        probe -= 1;
    }
    let m = run_timed(alg, kind, probe, config.seed);
    let iters = id.predicted_inner(kind, probe as u64).max(1);
    (m.seconds * 1e9 / iters as f64).max(0.05)
}

/// Formats a duration in the paper's Figure 12 style (seconds with
/// magnitude-appropriate precision, e.g. `7.7e-6`, `0.048`, `4791`).
pub fn format_seconds(secs: f64) -> String {
    if secs < 0.01 {
        format!("{secs:.1e}")
    } else if secs < 100.0 {
        format!("{secs:.2}")
    } else {
        format!("{secs:.0}")
    }
}

/// Simple aligned-table printer for the figure binaries.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with right-aligned columns (first column left-aligned).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i == 0 {
                    line.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
                } else {
                    line.push_str(&format!("  {:>w$}", cells[i], w = widths[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Renders as CSV (no alignment, comma-separated).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes `content` under `bench_results/` (created on demand) and
/// returns the path written.
pub fn write_results(file: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("bench_results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    std::fs::write(&path, content)?;
    Ok(path)
}

/// JSONL run-metadata sidecar written next to each `bench_results/*.csv`.
///
/// Every figure CSV gets a `<name>.meta.jsonl` companion: a header line
/// recording the producing binary and harness configuration, then one
/// line per measured cell — so a plotted figure can always be traced back
/// to what was actually run (seed, budget, which cells were
/// extrapolated). Each line is a JSON object that parses with
/// [`joinopt_telemetry::json::JsonValue`]; the schema is documented in
/// `docs/observability.md`.
pub struct MetaSidecar {
    lines: Vec<String>,
}

impl MetaSidecar {
    /// Starts a sidecar for `bin`, recording the harness seed and
    /// per-cell budget in the `bench_start` header line.
    pub fn new(bin: &str, seed: u64, budget: Option<Duration>) -> MetaSidecar {
        let mut line = String::from("{\"event\":\"bench_start\",\"bin\":");
        write_escaped(&mut line, bin);
        line.push_str(&format!(",\"seed\":{seed},\"budget_secs\":"));
        match budget {
            Some(b) => write_f64(&mut line, b.as_secs_f64()),
            None => line.push_str("null"),
        }
        line.push('}');
        MetaSidecar { lines: vec![line] }
    }

    /// Records one measured (or extrapolated) figure cell.
    pub fn cell(&mut self, kind: GraphKind, n: u64, algorithm: &str, m: &Measurement) {
        let mut line = String::from("{\"event\":\"cell\",\"graph\":");
        write_escaped(&mut line, kind.name());
        line.push_str(&format!(",\"n\":{n},\"algorithm\":"));
        write_escaped(&mut line, algorithm);
        line.push_str(",\"seconds\":");
        write_f64(&mut line, m.seconds);
        line.push_str(&format!(
            ",\"inner\":{},\"csg_cmp_pairs\":{},\"ono_lohman\":{},\"extrapolated\":{}}}",
            m.counters.inner, m.counters.csg_cmp_pairs, m.counters.ono_lohman, m.extrapolated
        ));
        self.lines.push(line);
    }

    /// Appends a pre-rendered single-line JSON object (for binaries whose
    /// rows are not [`Measurement`] cells).
    pub fn push(&mut self, line: String) {
        debug_assert!(
            !line.contains('\n'),
            "sidecar lines must be single-line JSON"
        );
        self.lines.push(line);
    }

    /// Writes the sidecar next to `csv_path` as `<name>.meta.jsonl` and
    /// returns the path written.
    pub fn write_next_to(&self, csv_path: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = csv_path.with_extension("meta.jsonl");
        let mut content = String::with_capacity(self.lines.iter().map(|l| l.len() + 1).sum());
        for line in &self.lines {
            content.push_str(line);
            content.push('\n');
        }
        std::fs::write(&path, content)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_inner_dispatch() {
        assert_eq!(AlgId::DpSize.predicted_inner(GraphKind::Chain, 5), 73);
        assert_eq!(AlgId::DpSub.predicted_inner(GraphKind::Chain, 5), 84);
        assert_eq!(AlgId::DpCcp.predicted_inner(GraphKind::Chain, 5), 20);
    }

    #[test]
    fn measurement_of_tiny_cell() {
        let m = run_timed(&DpCcp, GraphKind::Chain, 5, 1);
        assert!(!m.extrapolated);
        assert!(m.seconds > 0.0 && m.seconds < 1.0);
        assert_eq!(m.counters.inner, 20);
    }

    #[test]
    fn huge_cells_are_extrapolated_under_budget() {
        let config = HarnessConfig {
            budget: Some(Duration::from_millis(50)),
            seed: 1,
        };
        let m = measure_cell(&DpSize, AlgId::DpSize, GraphKind::Clique, 20, &config);
        assert!(m.extrapolated);
        assert!(m.seconds > 0.05);
    }

    #[test]
    fn small_cells_are_measured_under_budget() {
        let config = HarnessConfig::default();
        let m = measure_cell(&DpCcp, AlgId::DpCcp, GraphKind::Chain, 10, &config);
        assert!(!m.extrapolated);
        assert_eq!(m.counters.inner, 165);
    }

    #[test]
    fn format_seconds_styles() {
        assert_eq!(format_seconds(7.7e-6), "7.7e-6");
        assert_eq!(format_seconds(0.0048), "4.8e-3");
        assert_eq!(format_seconds(0.048), "0.05");
        assert_eq!(format_seconds(4791.0), "4791");
    }

    #[test]
    fn table_rendering() {
        let mut t = Table::new(vec!["n", "a", "b"]);
        t.row(vec!["2", "10", "1"]);
        t.row(vec!["20", "1", "1000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n'));
        assert!(lines[3].ends_with("1000"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().nth(1).unwrap(), "2,10,1");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn sidecar_lines_parse_as_json() {
        use joinopt_telemetry::json::JsonValue;

        let mut meta = MetaSidecar::new("figure12", 2006, Some(Duration::from_secs(5)));
        let m = run_timed(&DpCcp, GraphKind::Chain, 5, 2006);
        meta.cell(GraphKind::Chain, 5, "DPccp", &m);
        meta.push("{\"event\":\"config\",\"trials\":3}".to_string());

        assert_eq!(meta.lines.len(), 3);
        for line in &meta.lines {
            JsonValue::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        }
        let header = JsonValue::parse(&meta.lines[0]).unwrap();
        assert_eq!(header.get("event").unwrap().as_str(), Some("bench_start"));
        assert_eq!(header.get("bin").unwrap().as_str(), Some("figure12"));
        assert_eq!(header.get("seed").unwrap().as_u64(), Some(2006));
        let cell = JsonValue::parse(&meta.lines[1]).unwrap();
        assert_eq!(cell.get("graph").unwrap().as_str(), Some("chain"));
        assert_eq!(cell.get("inner").unwrap().as_u64(), Some(20));
        assert_eq!(cell.get("extrapolated").unwrap().as_bool(), Some(false));
        assert!(cell.get("seconds").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn sidecar_path_replaces_csv_extension() {
        let dir = std::env::temp_dir().join(format!("joinopt-meta-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("figure3.csv");
        std::fs::write(&csv, "a,b\n").unwrap();
        let meta = MetaSidecar::new("figure3", 0, None);
        let path = meta.write_next_to(&csv).unwrap();
        assert!(path.ends_with("figure3.meta.jsonl"), "{}", path.display());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"budget_secs\":null"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
