//! [`MetricsCollector`] — aggregates one run's events into a
//! [`RunReport`] with human, JSON-line and CSV serializations.

use core::fmt;
use std::sync::Mutex;

use crate::json::{json_array, JsonObject};
use crate::observer::{Event, Observer};

/// One completed phase span, as stamped by the emitter (nanoseconds
/// since the run started).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (`"init"`, `"enumerate"`, `"extract"`, …).
    pub name: &'static str,
    /// Start of the phase.
    pub start_ns: u64,
    /// End of the phase (`>= start_ns`; the emitter's clock is
    /// monotonic).
    pub end_ns: u64,
}

impl PhaseSpan {
    /// Wall-clock duration of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Entries materialized at one DP level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCount {
    /// Relation-set size.
    pub size: usize,
    /// Distinct sets of that size entered into the DP table.
    pub new_entries: u64,
}

/// Aggregated metrics of one optimizer run.
///
/// Produced by [`MetricsCollector::report`]. Fields not reported by an
/// algorithm (e.g. table stats for heuristics without a DP table) stay
/// at their zero defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Algorithm name from the `run_start` event.
    pub algorithm: &'static str,
    /// Number of relations in the query.
    pub relations: usize,
    /// Completed phase spans, in completion order.
    pub phases: Vec<PhaseSpan>,
    /// Per-size DP-table entry counts, smallest size first.
    pub levels: Vec<LevelCount>,
    /// Sets with a registered plan (final DP-table size).
    pub table_entries: usize,
    /// Allocated table capacity (0 when not reported).
    pub table_capacity: usize,
    /// `BestPlan` lookups performed.
    pub table_probes: u64,
    /// Lookups that found an existing entry.
    pub table_hits: u64,
    /// Plan nodes materialized.
    pub arena_nodes: usize,
    /// Bytes of plan-node storage.
    pub arena_bytes: usize,
    /// `InnerCounter`.
    pub counter_inner: u64,
    /// `CsgCmpPairCounter`.
    pub counter_csg_cmp_pairs: u64,
    /// `OnoLohmanCounter`.
    pub counter_ono_lohman: u64,
    /// Which budget tripped (`"time"`, `"memory"`, `"cost"`,
    /// `"internal"`), if a `budget_exceeded` event was seen.
    pub budget_exceeded: Option<&'static str>,
    /// The degradation-ladder rung that produced the plan, if a
    /// `degraded` event was seen.
    pub degraded_rung: Option<&'static str>,
    /// Nanoseconds from run start to run end.
    pub total_ns: u64,
}

impl RunReport {
    /// The span for `name`, if that phase completed.
    pub fn phase(&self, name: &str) -> Option<&PhaseSpan> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Sum of all per-level entry counts (equals the DP-table size when
    /// the algorithm reports levels).
    pub fn level_total(&self) -> u64 {
        self.levels.iter().map(|l| l.new_entries).sum()
    }

    /// Table occupancy in `[0, 1]` (0 when capacity was not reported).
    pub fn occupancy(&self) -> f64 {
        if self.table_capacity == 0 {
            0.0
        } else {
            self.table_entries as f64 / self.table_capacity as f64
        }
    }

    /// The report as a single JSON line (no trailing newline).
    ///
    /// Parses back with [`crate::json::JsonValue::parse`]; see
    /// `docs/observability.md` for the schema.
    pub fn to_json_line(&self) -> String {
        let phases = self.phases.iter().map(|p| {
            JsonObject::new()
                .str("name", p.name)
                .u64("start_ns", p.start_ns)
                .u64("end_ns", p.end_ns)
                .u64("duration_ns", p.duration_ns())
                .finish()
        });
        let levels = self.levels.iter().map(|l| {
            JsonObject::new()
                .u64("size", l.size as u64)
                .u64("new_entries", l.new_entries)
                .finish()
        });
        let table = JsonObject::new()
            .u64("entries", self.table_entries as u64)
            .u64("capacity", self.table_capacity as u64)
            .u64("probes", self.table_probes)
            .u64("hits", self.table_hits)
            .f64("occupancy", self.occupancy())
            .finish();
        let arena = JsonObject::new()
            .u64("nodes", self.arena_nodes as u64)
            .u64("bytes", self.arena_bytes as u64)
            .finish();
        let counters = JsonObject::new()
            .u64("inner", self.counter_inner)
            .u64("csg_cmp_pairs", self.counter_csg_cmp_pairs)
            .u64("ono_lohman", self.counter_ono_lohman)
            .finish();
        JsonObject::new()
            .str("algorithm", self.algorithm)
            .u64("relations", self.relations as u64)
            .raw("phases", &json_array(phases))
            .raw("levels", &json_array(levels))
            .raw("table", &table)
            .raw("arena", &arena)
            .raw("counters", &counters)
            .opt_str("budget_exceeded", self.budget_exceeded)
            .opt_str("degraded_rung", self.degraded_rung)
            .u64("total_ns", self.total_ns)
            .finish()
    }

    /// The fixed CSV column set matching [`RunReport::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "algorithm,relations,total_ns,phases,table_entries,table_capacity,\
         table_probes,table_hits,arena_nodes,arena_bytes,\
         counter_inner,counter_csg_cmp_pairs,counter_ono_lohman"
    }

    /// One CSV row. Phase spans are packed into a single
    /// `name:duration_ns;…` cell so the column set stays fixed across
    /// algorithms with different phase structures.
    pub fn to_csv_row(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| format!("{}:{}", p.name, p.duration_ns()))
            .collect();
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.algorithm,
            self.relations,
            self.total_ns,
            phases.join(";"),
            self.table_entries,
            self.table_capacity,
            self.table_probes,
            self.table_hits,
            self.arena_nodes,
            self.arena_bytes,
            self.counter_inner,
            self.counter_csg_cmp_pairs,
            self.counter_ono_lohman,
        )
    }

    /// Header plus this report's row, newline-terminated.
    pub fn to_csv(&self) -> String {
        format!("{}\n{}\n", Self::csv_header(), self.to_csv_row())
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run:        {} on {} relations",
            self.algorithm, self.relations
        )?;
        writeln!(f, "total:      {:.3} ms", self.total_ns as f64 / 1e6)?;
        for p in &self.phases {
            writeln!(
                f,
                "  phase {:<10} {:>12.3} ms",
                p.name,
                p.duration_ns() as f64 / 1e6
            )?;
        }
        if !self.levels.is_empty() {
            write!(f, "dp levels: ")?;
            for l in &self.levels {
                write!(f, " {}:{}", l.size, l.new_entries)?;
            }
            writeln!(f, "  (total {})", self.level_total())?;
        }
        writeln!(
            f,
            "table:      {} entries / {} capacity ({:.1}% occupied), {} probes, {} hits",
            self.table_entries,
            self.table_capacity,
            100.0 * self.occupancy(),
            self.table_probes,
            self.table_hits
        )?;
        writeln!(
            f,
            "arena:      {} nodes, {} bytes",
            self.arena_nodes, self.arena_bytes
        )?;
        writeln!(
            f,
            "counters:   inner={} csgCmpPairs={} onoLohman={}",
            self.counter_inner, self.counter_csg_cmp_pairs, self.counter_ono_lohman
        )?;
        if let (Some(budget), Some(rung)) = (self.budget_exceeded, self.degraded_rung) {
            writeln!(f, "degraded:   {rung} plan after {budget} budget trip")?;
        } else if let Some(budget) = self.budget_exceeded {
            writeln!(f, "budget:     {budget} budget exceeded")?;
        }
        Ok(())
    }
}

/// An [`Observer`] that aggregates a run's events into a [`RunReport`].
///
/// It reads no clock: phase spans and the run's total come stamped on
/// the events themselves. Reusable: a new `run_start` event resets the
/// aggregate state, and [`MetricsCollector::report`] can be called after
/// each run. It is `Sync`, but one collector reports one run at a time,
/// so share it only across runs that do not overlap.
#[derive(Debug, Default)]
pub struct MetricsCollector {
    state: Mutex<RunReport>,
}

impl MetricsCollector {
    /// An empty collector.
    pub fn new() -> MetricsCollector {
        MetricsCollector::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, RunReport> {
        // A poisoned lock only means a panic elsewhere; the report is
        // plain data and always valid.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The aggregated report for the most recent run.
    pub fn report(&self) -> RunReport {
        self.state().clone()
    }
}

impl Observer for MetricsCollector {
    fn on_event(&self, event: Event) {
        let mut r = self.state();
        match event {
            Event::RunStart {
                algorithm,
                relations,
            } => {
                *r = RunReport {
                    algorithm,
                    relations,
                    ..RunReport::default()
                };
            }
            Event::PhaseEnd {
                phase,
                start_ns,
                end_ns,
                ..
            } => {
                r.phases.push(PhaseSpan {
                    name: phase,
                    start_ns,
                    end_ns,
                });
            }
            Event::DpLevel {
                size, new_entries, ..
            } => {
                r.levels.push(LevelCount { size, new_entries });
            }
            Event::TableStats {
                entries,
                capacity,
                probes,
                hits,
                ..
            } => {
                r.table_entries = entries;
                r.table_capacity = capacity;
                r.table_probes = probes;
                r.table_hits = hits;
            }
            Event::ArenaStats { nodes, bytes, .. } => {
                r.arena_nodes = nodes;
                r.arena_bytes = bytes;
            }
            Event::FinalCounters {
                inner,
                csg_cmp_pairs,
                ono_lohman,
                ..
            } => {
                r.counter_inner = inner;
                r.counter_csg_cmp_pairs = csg_cmp_pairs;
                r.counter_ono_lohman = ono_lohman;
            }
            Event::BudgetExceeded { budget } => {
                r.budget_exceeded = Some(budget);
            }
            Event::Degraded { rung } => {
                r.degraded_rung = Some(rung);
            }
            Event::RunEnd { total_ns, .. } => {
                r.total_ns = total_ns;
            }
            // Phase starts carry nothing the end does not; per-candidate
            // detail is for traces and the provenance collector; cache
            // and serve events are cross-run by nature. The per-run
            // report keeps rollups only.
            Event::PhaseStart { .. }
            | Event::PlanCandidate { .. }
            | Event::SearchPruned { .. }
            | Event::CacheLookup { .. }
            | Event::CacheStore { .. }
            | Event::CacheEvict { .. }
            | Event::ServeAccepted { .. }
            | Event::ServeShed { .. }
            | Event::ServeBreakerOpen
            | Event::ServeDrained { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn sample_events(obs: &dyn Observer) {
        let algorithm = "DPccp";
        obs.on_event(Event::RunStart {
            algorithm,
            relations: 4,
        });
        for (phase, start_ns, end_ns) in
            [("init", 10, 20), ("enumerate", 25, 90), ("extract", 95, 99)]
        {
            obs.on_event(Event::PhaseStart { algorithm, phase });
            obs.on_event(Event::PhaseEnd {
                algorithm,
                phase,
                start_ns,
                end_ns,
            });
        }
        for (size, new_entries) in [(1, 4), (2, 3), (3, 2), (4, 1)] {
            obs.on_event(Event::DpLevel {
                algorithm,
                size,
                new_entries,
            });
        }
        obs.on_event(Event::TableStats {
            algorithm,
            entries: 10,
            capacity: 16,
            probes: 30,
            hits: 20,
        });
        obs.on_event(Event::ArenaStats {
            algorithm,
            nodes: 12,
            bytes: 12 * 40,
        });
        obs.on_event(Event::FinalCounters {
            algorithm,
            inner: 9,
            csg_cmp_pairs: 18,
            ono_lohman: 9,
        });
        obs.on_event(Event::RunEnd {
            algorithm,
            total_ns: 100,
        });
    }

    #[test]
    fn aggregates_a_full_run() {
        let mc = MetricsCollector::new();
        sample_events(&mc);
        let r = mc.report();
        assert_eq!(r.algorithm, "DPccp");
        assert_eq!(r.relations, 4);
        assert_eq!(r.phases.len(), 3);
        assert!(r.phase("nonexistent").is_none());
        assert_eq!(r.level_total(), 10);
        assert_eq!(r.level_total(), r.table_entries as u64);
        assert_eq!(r.table_probes, 30);
        assert_eq!(r.table_hits, 20);
        assert!((r.occupancy() - 10.0 / 16.0).abs() < 1e-12);
        assert_eq!(r.arena_nodes, 12);
        assert_eq!(r.counter_inner, 9);
        // Spans and the total are the emitter's stamps, copied verbatim.
        let enumerate = r.phase("enumerate").unwrap();
        assert_eq!((enumerate.start_ns, enumerate.end_ns), (25, 90));
        assert_eq!(enumerate.duration_ns(), 65);
        assert_eq!(r.phase("init").unwrap().duration_ns(), 10);
        assert_eq!(r.phase("extract").unwrap().duration_ns(), 4);
        assert_eq!(r.total_ns, 100);
    }

    #[test]
    fn run_start_resets_state() {
        let mc = MetricsCollector::new();
        sample_events(&mc);
        mc.on_event(Event::RunStart {
            algorithm: "DPsize",
            relations: 2,
        });
        mc.on_event(Event::RunEnd {
            algorithm: "DPsize",
            total_ns: 7,
        });
        let r = mc.report();
        assert_eq!(r.algorithm, "DPsize");
        assert!(r.phases.is_empty());
        assert!(r.levels.is_empty());
        assert_eq!(r.table_entries, 0);
        assert_eq!(r.total_ns, 7);
    }

    #[test]
    fn json_line_round_trips() {
        let mc = MetricsCollector::new();
        sample_events(&mc);
        let line = mc.report().to_json_line();
        assert!(!line.contains('\n'));
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("algorithm").unwrap().as_str(), Some("DPccp"));
        assert_eq!(v.get("relations").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("phases").unwrap().as_array().unwrap().len(), 3);
        let levels = v.get("levels").unwrap().as_array().unwrap();
        assert_eq!(levels.len(), 4);
        assert_eq!(levels[0].get("size").unwrap().as_u64(), Some(1));
        let table = v.get("table").unwrap();
        assert_eq!(table.get("entries").unwrap().as_u64(), Some(10));
        assert_eq!(table.get("probes").unwrap().as_u64(), Some(30));
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("ono_lohman").unwrap().as_u64(), Some(9));
        assert_eq!(v.get("total_ns").unwrap().as_u64(), Some(100));
        let enumerate = &v.get("phases").unwrap().as_array().unwrap()[1];
        assert_eq!(enumerate.get("duration_ns").unwrap().as_u64(), Some(65));
    }

    #[test]
    fn csv_has_matching_columns() {
        let mc = MetricsCollector::new();
        sample_events(&mc);
        let r = mc.report();
        let header_cols = RunReport::csv_header().split(',').count();
        let row_cols = r.to_csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("DPccp"));
        assert!(csv.contains("init:"));
    }

    #[test]
    fn display_mentions_key_figures() {
        let mc = MetricsCollector::new();
        sample_events(&mc);
        let text = mc.report().to_string();
        assert!(text.contains("DPccp"));
        assert!(text.contains("phase init"));
        assert!(text.contains("phase enumerate"));
        assert!(text.contains("phase extract"));
        assert!(text.contains("10 entries"));
        assert!(text.contains("12 nodes"));
        assert!(text.contains("onoLohman=9"));
    }
}
