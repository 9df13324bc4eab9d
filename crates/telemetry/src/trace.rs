//! [`TraceWriter`] — streams events as JSON lines to any `io::Write`.

use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{write_escaped, write_f64};
use crate::observer::{current_thread_id, Event, Observer};

/// An [`Observer`] that writes one JSON object per event.
///
/// Every line carries four common fields —
///
/// * `"event"` — the event's wire name ([`Event::name`]),
/// * `"phase"` — the phase the event belongs to ([`Event::phase`]),
/// * `"elapsed_ns"` — nanoseconds since the writer was created, taken
///   from a monotonic clock, so values never decrease down the file,
/// * `"thread_id"` — the emitting thread
///   ([`current_thread_id`](crate::current_thread_id)), so interleaved
///   lines from batch workers stay attributable —
///
/// plus the event's own payload fields (e.g. `"size"`/`"new_entries"`
/// for `dp_level`). Lines parse with [`crate::json::JsonValue::parse`].
///
/// The writer is `Sync` (serialized behind a mutex), so one trace file
/// can collect events from every worker of a batch
/// (`OptimizerService::submit_batch_observed` in the service crate).
///
/// I/O errors are sticky: the first failure stops further writing and is
/// surfaced by [`TraceWriter::finish`].
pub struct TraceWriter<W: Write> {
    start: Instant,
    inner: Mutex<Inner<W>>,
}

struct Inner<W> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out`; the `elapsed_ns` clock starts now.
    pub fn new(out: W) -> TraceWriter<W> {
        TraceWriter {
            start: Instant::now(),
            inner: Mutex::new(Inner { out, error: None }),
        }
    }

    /// Flushes and returns the underlying writer, or the first write
    /// error encountered while tracing.
    pub fn finish(self) -> io::Result<W> {
        let Inner { mut out, error } = match self.inner.into_inner() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        match error {
            Some(e) => Err(e),
            None => {
                out.flush()?;
                Ok(out)
            }
        }
    }

    fn render(&self, event: Event) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"event\":");
        write_escaped(&mut s, event.name());
        s.push_str(",\"phase\":");
        write_escaped(&mut s, event.phase());
        s.push_str(&format!(
            ",\"elapsed_ns\":{},\"thread_id\":{}",
            u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            current_thread_id()
        ));
        match event {
            Event::RunStart {
                algorithm,
                relations,
            } => {
                s.push_str(",\"algorithm\":");
                write_escaped(&mut s, algorithm);
                s.push_str(&format!(",\"relations\":{relations}"));
            }
            Event::PhaseStart { .. } | Event::PhaseEnd { .. } | Event::RunEnd => {}
            Event::DpLevel { size, new_entries } => {
                s.push_str(&format!(",\"size\":{size},\"new_entries\":{new_entries}"));
            }
            Event::TableStats {
                entries,
                capacity,
                probes,
                hits,
            } => {
                s.push_str(&format!(
                    ",\"entries\":{entries},\"capacity\":{capacity},\"probes\":{probes},\"hits\":{hits}"
                ));
            }
            Event::ArenaStats { nodes, bytes } => {
                s.push_str(&format!(",\"nodes\":{nodes},\"bytes\":{bytes}"));
            }
            Event::FinalCounters {
                inner,
                csg_cmp_pairs,
                ono_lohman,
            } => {
                s.push_str(&format!(
                    ",\"inner\":{inner},\"csg_cmp_pairs\":{csg_cmp_pairs},\"ono_lohman\":{ono_lohman}"
                ));
            }
            Event::BudgetExceeded { budget } => {
                s.push_str(",\"budget\":");
                write_escaped(&mut s, budget);
            }
            Event::Degraded { rung } => {
                s.push_str(",\"rung\":");
                write_escaped(&mut s, rung);
            }
            Event::PlanCandidate {
                set,
                left,
                right,
                cost,
                accepted,
            } => {
                s.push_str(&format!(
                    ",\"set\":{set},\"left\":{left},\"right\":{right},\"cost\":"
                ));
                write_f64(&mut s, cost);
                s.push_str(&format!(",\"accepted\":{accepted}"));
            }
            Event::SearchPruned { set, reason } => {
                s.push_str(&format!(",\"set\":{set},\"reason\":"));
                write_escaped(&mut s, reason);
            }
            Event::CacheLookup { hit } => {
                s.push_str(&format!(",\"hit\":{hit}"));
            }
            Event::CacheStore {
                entry_bytes,
                total_bytes,
            }
            | Event::CacheEvict {
                entry_bytes,
                total_bytes,
            } => {
                s.push_str(&format!(
                    ",\"entry_bytes\":{entry_bytes},\"total_bytes\":{total_bytes}"
                ));
            }
            Event::ServeAccepted { priority } | Event::ServeShed { priority } => {
                s.push_str(",\"priority\":");
                write_escaped(&mut s, priority);
            }
            Event::ServeRetried { attempt } => {
                s.push_str(&format!(",\"attempt\":{attempt}"));
            }
            Event::ServeBreakerOpen => {}
            Event::ServeDrained { in_flight } => {
                s.push_str(&format!(",\"in_flight\":{in_flight}"));
            }
        }
        s.push_str("}\n");
        s
    }
}

impl<W: Write> Observer for TraceWriter<W> {
    // A trace is the full event record; candidate-level provenance
    // belongs in it.
    fn wants_provenance(&self) -> bool {
        true
    }

    fn on_event(&self, event: Event) {
        let line = self.render(event);
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if inner.error.is_some() {
            return;
        }
        if let Err(e) = inner.out.write_all(line.as_bytes()) {
            inner.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn lines_are_valid_json_with_common_fields() {
        let tw = TraceWriter::new(Vec::new());
        tw.on_event(Event::RunStart {
            algorithm: "DPsub",
            relations: 6,
        });
        tw.on_event(Event::PhaseStart { phase: "enumerate" });
        tw.on_event(Event::DpLevel {
            size: 2,
            new_entries: 5,
        });
        tw.on_event(Event::TableStats {
            entries: 9,
            capacity: 64,
            probes: 40,
            hits: 31,
        });
        tw.on_event(Event::ArenaStats {
            nodes: 11,
            bytes: 440,
        });
        tw.on_event(Event::FinalCounters {
            inner: 100,
            csg_cmp_pairs: 10,
            ono_lohman: 5,
        });
        tw.on_event(Event::PhaseEnd { phase: "enumerate" });
        tw.on_event(Event::RunEnd);
        let buf = tw.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut last_elapsed = 0u64;
        let mut events = Vec::new();
        for line in text.lines() {
            let v = JsonValue::parse(line).unwrap();
            events.push(v.get("event").unwrap().as_str().unwrap().to_string());
            assert!(v.get("phase").unwrap().as_str().is_some());
            let elapsed = v.get("elapsed_ns").unwrap().as_u64().unwrap();
            assert!(elapsed >= last_elapsed, "elapsed_ns must be monotonic");
            last_elapsed = elapsed;
        }
        assert_eq!(
            events,
            vec![
                "run_start",
                "phase_start",
                "dp_level",
                "table_stats",
                "arena_stats",
                "final_counters",
                "phase_end",
                "run_end"
            ]
        );
    }

    #[test]
    fn lines_carry_a_thread_id() {
        let tw = TraceWriter::new(Vec::new());
        tw.on_event(Event::PlanCandidate {
            set: 0b11,
            left: 0b01,
            right: 0b10,
            cost: 5.0,
            accepted: true,
        });
        tw.on_event(Event::SearchPruned {
            set: 0b11,
            reason: "bound",
        });
        let text = String::from_utf8(tw.finish().unwrap()).unwrap();
        let lines: Vec<JsonValue> = text.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        let me = super::current_thread_id();
        for v in &lines {
            assert_eq!(v.get("thread_id").unwrap().as_u64(), Some(me));
            assert_eq!(v.get("phase").unwrap().as_str(), Some("enumerate"));
        }
        assert_eq!(
            lines[0].get("event").unwrap().as_str(),
            Some("plan_candidate")
        );
        assert_eq!(lines[1].get("reason").unwrap().as_str(), Some("bound"));
    }

    #[test]
    fn writer_is_sync_and_collects_from_many_threads() {
        let tw = TraceWriter::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tw = &tw;
                scope.spawn(move || {
                    for _ in 0..8 {
                        tw.on_event(Event::RunEnd);
                    }
                });
            }
        });
        let text = String::from_utf8(tw.finish().unwrap()).unwrap();
        let mut tids = std::collections::BTreeSet::new();
        for line in text.lines() {
            let v = JsonValue::parse(line).unwrap();
            tids.insert(v.get("thread_id").unwrap().as_u64().unwrap());
        }
        assert_eq!(text.lines().count(), 32);
        assert_eq!(tids.len(), 4, "each spawned thread has a distinct id");
    }

    #[test]
    fn payload_fields_survive_round_trip() {
        let tw = TraceWriter::new(Vec::new());
        tw.on_event(Event::DpLevel {
            size: 3,
            new_entries: 7,
        });
        let text = String::from_utf8(tw.finish().unwrap()).unwrap();
        let v = JsonValue::parse(text.trim()).unwrap();
        assert_eq!(v.get("size").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("new_entries").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("phase").unwrap().as_str(), Some("run"));
    }

    #[test]
    fn provenance_events_render_and_writer_wants_them() {
        let tw = TraceWriter::new(Vec::new());
        assert!(tw.wants_provenance());
        tw.on_event(Event::PlanCandidate {
            set: 0b0111,
            left: 0b0011,
            right: 0b0100,
            cost: 1234.5,
            accepted: true,
        });
        tw.on_event(Event::SearchPruned {
            set: 0b0111,
            reason: "bound",
        });
        let text = String::from_utf8(tw.finish().unwrap()).unwrap();
        let lines: Vec<JsonValue> = text.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0].get("event").unwrap().as_str(),
            Some("plan_candidate")
        );
        assert_eq!(lines[0].get("set").unwrap().as_u64(), Some(7));
        assert_eq!(lines[0].get("left").unwrap().as_u64(), Some(3));
        assert_eq!(lines[0].get("right").unwrap().as_u64(), Some(4));
        assert_eq!(lines[0].get("cost").unwrap().as_f64(), Some(1234.5));
        assert_eq!(lines[0].get("phase").unwrap().as_str(), Some("enumerate"));
        assert_eq!(
            lines[1].get("event").unwrap().as_str(),
            Some("search_pruned")
        );
        assert_eq!(lines[1].get("reason").unwrap().as_str(), Some("bound"));
    }

    #[derive(Debug)]
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_are_sticky_and_reported() {
        let tw = TraceWriter::new(FailingWriter);
        tw.on_event(Event::RunEnd);
        tw.on_event(Event::RunEnd); // silently skipped after the failure
        let err = tw.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }
}
