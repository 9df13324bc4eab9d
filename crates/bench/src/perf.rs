//! The performance-baseline subsystem behind `joinopt perf`.
//!
//! Runs a pinned workload matrix — chain/star/clique × DPsize, DPccp,
//! DPconv and DPsub — and records, per cell, the paper's counters, the
//! DP-table and arena footprint, the optimal cost's exact bit pattern
//! and the median-of-k wall time. The result serializes to
//! `BENCH_joinopt.json` (schema `joinopt-perf-v2`, documented in
//! `docs/observability.md`) and [`PerfBaseline::check`] diffs a fresh
//! run against a committed baseline on the exact quantities only:
//! counters, table entries, arena bytes and cost bits are deterministic
//! functions of the workload, so *any* drift is a regression (or an
//! intended change that must re-pin the baseline), on any hardware.
//! The median wall time is recorded for people to read and never gated.

use joinopt_core::{Algorithm, OptimizeRequest};
use joinopt_cost::workload::family_workload;
use joinopt_qgraph::GraphKind;
use joinopt_telemetry::json::{write_escaped, JsonValue};
use joinopt_telemetry::{Fanout, MetricsCollector, NoopObserver, Observer};

/// The pinned graph families of the matrix (the paper's structural
/// extremes: sparsest, star-shaped, densest).
pub const PERF_FAMILIES: [GraphKind; 3] = [GraphKind::Chain, GraphKind::Star, GraphKind::Clique];

/// Current baseline schema identifier.
pub const SCHEMA: &str = "joinopt-perf-v2";

/// Configuration of a perf-baseline run — embedded in the baseline
/// file, so `--check` replays exactly what was pinned.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfConfig {
    /// Relations per query (one fixed size keeps the run fast).
    pub n: usize,
    /// Repetitions per cell; the recorded wall time is the median and
    /// the counters must be identical across all of them.
    pub reps: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            n: 10,
            reps: 5,
            seed: 2006,
        }
    }
}

/// One measured cell of the matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfCell {
    /// Graph family name (`"chain"`, `"star"`, `"clique"`).
    pub family: String,
    /// Algorithm name (`"DPsize"`, `"DPsub"`, `"DPccp"`).
    pub algorithm: String,
    /// `InnerCounter`.
    pub inner: u64,
    /// `CsgCmpPairCounter`.
    pub csg_cmp_pairs: u64,
    /// `OnoLohmanCounter`.
    pub ono_lohman: u64,
    /// Final DP-table size.
    pub table_entries: u64,
    /// Plan-arena bytes.
    pub arena_bytes: u64,
    /// Exact IEEE-754 bit pattern of the optimal plan's cost.
    pub cost_bits: u64,
    /// Median wall time across the configured repetitions.
    pub wall_ns: u64,
}

impl PerfCell {
    fn key(&self) -> (&str, &str) {
        (&self.family, &self.algorithm)
    }
}

/// A complete baseline: the config that produced it plus every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBaseline {
    /// The matrix configuration (replayed by `--check`).
    pub config: PerfConfig,
    /// Cells in matrix order: family-major, then algorithm.
    pub cells: Vec<PerfCell>,
}

/// The cells of the matrix, in deterministic order. DPconv rides the
/// same workloads (the default model is C_out, the only one it
/// accepts); its clique cell against DPccp's is the committed crossover
/// evidence for `Auto`.
fn matrix() -> Vec<(GraphKind, Algorithm, &'static str)> {
    let mut cells = Vec::new();
    for kind in PERF_FAMILIES {
        cells.push((kind, Algorithm::DpSize, "DPsize"));
        cells.push((kind, Algorithm::DpCcp, "DPccp"));
        cells.push((kind, Algorithm::DpConv, "DPconv"));
        cells.push((kind, Algorithm::DpSub, "DPsub"));
    }
    cells
}

/// Runs the full matrix and returns the measured baseline.
///
/// # Errors
///
/// Returns a message when a cell's optimizer run fails or its counters
/// are not bit-stable across the configured repetitions (which would
/// mean the determinism contract is broken — a real bug).
pub fn run_matrix(config: &PerfConfig) -> Result<PerfBaseline, String> {
    run_matrix_observed(config, &NoopObserver)
}

/// [`run_matrix`] with telemetry: every cell's run additionally reports
/// to `obs` (the internal metrics collector that measures the cells is
/// unaffected), so `joinopt perf --trace-json/--prom` can stream or
/// aggregate a whole matrix run.
///
/// # Errors
///
/// Same as [`run_matrix`].
pub fn run_matrix_observed(
    config: &PerfConfig,
    obs: &dyn Observer,
) -> Result<PerfBaseline, String> {
    let reps = config.reps.max(1);
    let mut cells = Vec::new();
    for (kind, alg, alg_name) in matrix() {
        let w = family_workload(kind, config.n, config.seed);
        let mut walls: Vec<u64> = Vec::with_capacity(reps);
        let mut pinned: Option<PerfCell> = None;
        for rep in 0..reps {
            let collector = MetricsCollector::new();
            let fanout = Fanout::new(vec![&collector as &dyn Observer, obs]);
            let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
                .with_algorithm(alg)
                .with_observer(&fanout)
                .run()
                .map_err(|e| format!("{} {alg_name}: {e}", kind.name()))?;
            let report = collector.report();
            let result = outcome.into_result();
            let cell = PerfCell {
                family: kind.name().to_string(),
                algorithm: alg_name.to_string(),
                inner: result.counters.inner,
                csg_cmp_pairs: result.counters.csg_cmp_pairs,
                ono_lohman: result.counters.ono_lohman,
                table_entries: result.table_size as u64,
                arena_bytes: report.arena_bytes as u64,
                cost_bits: result.cost.to_bits(),
                wall_ns: report.total_ns,
            };
            walls.push(report.total_ns);
            match &pinned {
                None => pinned = Some(cell),
                Some(first) => {
                    // Everything but the timing-derived fields must be
                    // bit-stable across repetitions.
                    let same = first.inner == cell.inner
                        && first.csg_cmp_pairs == cell.csg_cmp_pairs
                        && first.ono_lohman == cell.ono_lohman
                        && first.table_entries == cell.table_entries
                        && first.arena_bytes == cell.arena_bytes
                        && first.cost_bits == cell.cost_bits;
                    if !same {
                        return Err(format!(
                            "{} {alg_name}: counters unstable at rep {rep} \
                             (determinism contract broken)",
                            kind.name()
                        ));
                    }
                }
            }
        }
        let mut cell = pinned.unwrap_or_default();
        walls.sort_unstable();
        cell.wall_ns = walls[walls.len() / 2];
        cells.push(cell);
    }
    Ok(PerfBaseline {
        config: config.clone(),
        cells,
    })
}

impl PerfBaseline {
    /// Serializes the baseline as pretty-stable JSON (one cell per
    /// line). `cost_bits` is written as a hex *string* because the
    /// dependency-free JSON parser goes through `f64` and would corrupt
    /// bit patterns above 2⁵³.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut s = String::from("{\n  \"schema\": ");
        write_escaped(&mut s, SCHEMA);
        s.push_str(&format!(
            ",\n  \"config\": {{\"n\": {}, \"reps\": {}, \"seed\": {}}},\n  \"cells\": [\n",
            c.n, c.reps, c.seed
        ));
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str("    {\"family\": ");
            write_escaped(&mut s, &cell.family);
            s.push_str(", \"algorithm\": ");
            write_escaped(&mut s, &cell.algorithm);
            s.push_str(&format!(
                ", \"inner\": {}, \"csg_cmp_pairs\": {}, \"ono_lohman\": {}, \
                 \"table_entries\": {}, \"arena_bytes\": {}, \"cost_bits\": \"{:016x}\", \
                 \"wall_ns\": {}",
                cell.inner,
                cell.csg_cmp_pairs,
                cell.ono_lohman,
                cell.table_entries,
                cell.arena_bytes,
                cell.cost_bits,
                cell.wall_ns
            ));
            s.push('}');
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parses a baseline file produced by [`PerfBaseline::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong schema tag, or a
    /// missing/mistyped field.
    pub fn parse(text: &str) -> Result<PerfBaseline, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("baseline: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("baseline: missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!("baseline: schema {schema:?}, expected {SCHEMA:?}"));
        }
        let cfg = v.get("config").ok_or("baseline: missing \"config\"")?;
        let field_u64 = |obj: &JsonValue, name: &str| -> Result<u64, String> {
            obj.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("baseline: missing field {name:?}"))
        };
        let config = PerfConfig {
            n: field_u64(cfg, "n")? as usize,
            reps: field_u64(cfg, "reps")? as usize,
            seed: field_u64(cfg, "seed")?,
        };
        let mut cells = Vec::new();
        for cell in v
            .get("cells")
            .and_then(JsonValue::as_array)
            .ok_or("baseline: missing \"cells\"")?
        {
            let text_field = |name: &str| -> Result<String, String> {
                cell.get(name)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline: missing field {name:?}"))
            };
            let bits_hex = text_field("cost_bits")?;
            cells.push(PerfCell {
                family: text_field("family")?,
                algorithm: text_field("algorithm")?,
                inner: field_u64(cell, "inner")?,
                csg_cmp_pairs: field_u64(cell, "csg_cmp_pairs")?,
                ono_lohman: field_u64(cell, "ono_lohman")?,
                table_entries: field_u64(cell, "table_entries")?,
                arena_bytes: field_u64(cell, "arena_bytes")?,
                cost_bits: u64::from_str_radix(bits_hex.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("baseline: bad cost_bits {bits_hex:?}: {e}"))?,
                wall_ns: field_u64(cell, "wall_ns")?,
            });
        }
        Ok(PerfBaseline { config, cells })
    }

    /// Diffs `self` (a fresh run) against `baseline`: counters, table
    /// entries, arena bytes and cost bits must match exactly, and a
    /// missing or extra cell is a failure. Wall time is not compared.
    ///
    /// # Errors
    ///
    /// Returns one human-readable line per failed comparison.
    pub fn check(&self, baseline: &PerfBaseline) -> Result<(), Vec<String>> {
        let mut diffs = Vec::new();
        for base in &baseline.cells {
            let label = format!("{}/{}", base.family, base.algorithm);
            let Some(cur) = self.cells.iter().find(|c| c.key() == base.key()) else {
                diffs.push(format!("{label}: cell missing from this run"));
                continue;
            };
            let exact: [(&str, u64, u64); 6] = [
                ("inner", cur.inner, base.inner),
                ("csg_cmp_pairs", cur.csg_cmp_pairs, base.csg_cmp_pairs),
                ("ono_lohman", cur.ono_lohman, base.ono_lohman),
                ("table_entries", cur.table_entries, base.table_entries),
                ("arena_bytes", cur.arena_bytes, base.arena_bytes),
                ("cost_bits", cur.cost_bits, base.cost_bits),
            ];
            for (name, got, want) in exact {
                if got != want {
                    diffs.push(format!(
                        "{label}: {name} regressed: {got} != baseline {want}"
                    ));
                }
            }
        }
        for cur in &self.cells {
            if !baseline.cells.iter().any(|b| b.key() == cur.key()) {
                diffs.push(format!(
                    "{}/{}: cell not present in the baseline",
                    cur.family, cur.algorithm
                ));
            }
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs)
        }
    }

    /// A rendered summary table (family, algorithm, counters, wall
    /// time), for human consumption.
    pub fn render_table(&self) -> String {
        let mut t = crate::Table::new(vec![
            "family",
            "algorithm",
            "inner",
            "ccp",
            "table",
            "arena_bytes",
            "wall",
        ]);
        for c in &self.cells {
            t.row(vec![
                c.family.clone(),
                c.algorithm.clone(),
                c.inner.to_string(),
                c.csg_cmp_pairs.to_string(),
                c.table_entries.to_string(),
                c.arena_bytes.to_string(),
                crate::format_seconds(c.wall_ns as f64 / 1e9),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> PerfConfig {
        PerfConfig {
            n: 7,
            reps: 2,
            seed: 2006,
        }
    }

    #[test]
    fn matrix_shape_is_family_major() {
        let cells = matrix();
        // 3 families × (DPsize + DPccp + DPconv + DPsub).
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].2, "DPsize");
        assert_eq!(cells[1].2, "DPccp");
        assert_eq!(cells[2].2, "DPconv");
        assert_eq!(cells[3].2, "DPsub");
        assert_eq!(cells[4].2, "DPsize");
    }

    #[test]
    fn counters_are_bit_stable_across_runs() {
        let config = small_config();
        let a = run_matrix(&config).unwrap();
        let b = run_matrix(&config).unwrap();
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.key(), y.key());
            assert_eq!(x.inner, y.inner, "{:?}", x.key());
            assert_eq!(x.cost_bits, y.cost_bits, "{:?}", x.key());
            assert_eq!(x.arena_bytes, y.arena_bytes, "{:?}", x.key());
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let baseline = run_matrix(&small_config()).unwrap();
        let text = baseline.to_json();
        let parsed = PerfBaseline::parse(&text).unwrap();
        assert_eq!(parsed, baseline);
        // And a check against itself passes.
        baseline.check(&baseline).unwrap();
    }

    #[test]
    fn check_catches_counter_regressions_and_shape_drift() {
        let baseline = run_matrix(&small_config()).unwrap();
        let mut bad = baseline.clone();
        bad.cells[0].inner += 1;
        let diffs = bad.check(&baseline).unwrap_err();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("inner regressed"), "{}", diffs[0]);

        let mut fat = baseline.clone();
        fat.cells[1].arena_bytes += 8;
        let diffs = fat.check(&baseline).unwrap_err();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("arena_bytes regressed"), "{}", diffs[0]);

        let mut missing = baseline.clone();
        let dropped = missing.cells.pop().unwrap();
        let diffs = missing.check(&baseline).unwrap_err();
        assert!(diffs[0].contains("missing from this run"));
        assert!(diffs[0].contains(&dropped.family));

        // Wall time is recorded, never gated.
        let mut slow = baseline.clone();
        slow.cells[0].wall_ns = baseline.cells[0].wall_ns * 1000 + 1_000_000_000;
        slow.check(&baseline).unwrap();
    }

    #[test]
    fn observed_matrix_reports_runs_without_changing_cells() {
        use joinopt_telemetry::MetricsRegistry;
        let config = PerfConfig {
            n: 6,
            reps: 1,
            seed: 2006,
        };
        let registry = MetricsRegistry::new();
        let observed = run_matrix_observed(&config, &registry).unwrap();
        let plain = run_matrix(&config).unwrap();
        // The external observer sees every cell run...
        let snap = registry.snapshot();
        let runs: u64 = ["DPsize", "DPccp", "DPconv", "DPsub"]
            .iter()
            .filter_map(|alg| snap.counter("joinopt_runs_total", &[("algorithm", alg)]))
            .sum();
        assert_eq!(runs as usize, observed.cells.len());
        // ...and the measured cells are identical to an unobserved run
        // on everything deterministic.
        for (a, b) in observed.cells.iter().zip(&plain.cells) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.inner, b.inner);
            assert_eq!(a.cost_bits, b.cost_bits);
            assert_eq!(a.arena_bytes, b.arena_bytes);
        }
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(PerfBaseline::parse("not json").is_err());
        let err = PerfBaseline::parse("{\"schema\": \"other-v9\", \"config\": {}, \"cells\": []}")
            .unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn render_table_mentions_every_cell() {
        let baseline = run_matrix(&PerfConfig {
            n: 6,
            reps: 1,
            seed: 2006,
        })
        .unwrap();
        let table = baseline.render_table();
        assert!(table.contains("chain"));
        assert!(table.contains("clique"));
        assert!(table.contains("DPsub"));
    }
}
