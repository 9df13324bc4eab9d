//! Collapsed-stack export: turns a JSONL trace (as written by
//! [`TraceWriter`](crate::TraceWriter)) into the `stack;frames value`
//! format consumed by flamegraph tooling (`flamegraph.pl`, inferno,
//! speedscope).
//!
//! Frames are semantic rather than call frames: completed phase spans
//! become `algorithm;<phase>` weighted by the span's wall time.
//!
//! Events are grouped by the trace's `thread_id` field, so interleaved
//! lines from a batch run fold into per-run stacks. Identical stacks
//! are summed and the output is sorted, making the rendering a pure
//! deterministic function of the trace.

use std::collections::BTreeMap;

use crate::json::JsonValue;

/// A failure to fold a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlameError {
    /// A line was not a JSON object (1-based line number, message).
    Parse(usize, String),
    /// A line was missing a required field (1-based line number, field).
    MissingField(usize, &'static str),
}

impl core::fmt::Display for FlameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FlameError::Parse(line, msg) => write!(f, "trace line {line}: {msg}"),
            FlameError::MissingField(line, field) => {
                write!(f, "trace line {line}: missing field {field:?}")
            }
        }
    }
}

impl std::error::Error for FlameError {}

/// Per-thread folding state.
#[derive(Default)]
struct ThreadState {
    algorithm: String,
    open_phase: Option<(String, u64)>,
}

fn field_u64(v: &JsonValue, line: usize, name: &'static str) -> Result<u64, FlameError> {
    v.get(name)
        .and_then(JsonValue::as_u64)
        .ok_or(FlameError::MissingField(line, name))
}

/// Folds a JSONL trace into collapsed stacks.
///
/// Returns newline-terminated `frame;frame;frame value` lines, sorted
/// by stack. Blank trace lines are skipped; unknown event kinds are
/// ignored (forward compatibility), malformed lines are errors.
pub fn collapse_trace(trace: &str) -> Result<String, FlameError> {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    let mut threads: BTreeMap<u64, ThreadState> = BTreeMap::new();
    for (i, line) in trace.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = JsonValue::parse(line).map_err(|e| FlameError::Parse(lineno, e.to_string()))?;
        let event = v
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or(FlameError::MissingField(lineno, "event"))?;
        // Traces written before thread ids existed fold as one thread.
        let tid = v.get("thread_id").and_then(JsonValue::as_u64).unwrap_or(0);
        let state = threads.entry(tid).or_default();
        match event {
            "run_start" => {
                let algorithm = v
                    .get("algorithm")
                    .and_then(JsonValue::as_str)
                    .ok_or(FlameError::MissingField(lineno, "algorithm"))?;
                state.algorithm = algorithm.to_string();
                state.open_phase = None;
            }
            "phase_start" => {
                let now = field_u64(&v, lineno, "elapsed_ns")?;
                let phase = v
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .ok_or(FlameError::MissingField(lineno, "phase"))?;
                state.open_phase = Some((phase.to_string(), now));
            }
            "phase_end" => {
                let now = field_u64(&v, lineno, "elapsed_ns")?;
                if let Some((phase, start)) = state.open_phase.take() {
                    let algorithm = if state.algorithm.is_empty() {
                        "unknown"
                    } else {
                        &state.algorithm
                    };
                    *stacks.entry(format!("{algorithm};{phase}")).or_insert(0) +=
                        now.saturating_sub(start);
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    for (stack, value) in &stacks {
        out.push_str(&format!("{stack} {value}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{Event, Observer};
    use crate::TraceWriter;

    #[test]
    fn folds_phase_spans() {
        let trace = "\
{\"event\":\"run_start\",\"phase\":\"run\",\"elapsed_ns\":0,\"thread_id\":1,\"algorithm\":\"DPsub\",\"relations\":6}
{\"event\":\"phase_start\",\"phase\":\"enumerate\",\"elapsed_ns\":100,\"thread_id\":1}
{\"event\":\"phase_end\",\"phase\":\"enumerate\",\"elapsed_ns\":600,\"thread_id\":1}
{\"event\":\"run_end\",\"phase\":\"run\",\"elapsed_ns\":700,\"thread_id\":1}
";
        let folded = collapse_trace(trace).unwrap();
        assert_eq!(folded, "DPsub;enumerate 500\n");
    }

    #[test]
    fn interleaved_threads_fold_independently() {
        // Two batch workers interleave; each thread's phases must pair
        // against its own run context.
        let trace = "\
{\"event\":\"run_start\",\"phase\":\"run\",\"elapsed_ns\":0,\"thread_id\":1,\"algorithm\":\"DPccp\",\"relations\":4}
{\"event\":\"run_start\",\"phase\":\"run\",\"elapsed_ns\":5,\"thread_id\":2,\"algorithm\":\"DPsize\",\"relations\":4}
{\"event\":\"phase_start\",\"phase\":\"enumerate\",\"elapsed_ns\":10,\"thread_id\":1}
{\"event\":\"phase_start\",\"phase\":\"enumerate\",\"elapsed_ns\":20,\"thread_id\":2}
{\"event\":\"phase_end\",\"phase\":\"enumerate\",\"elapsed_ns\":110,\"thread_id\":1}
{\"event\":\"phase_end\",\"phase\":\"enumerate\",\"elapsed_ns\":220,\"thread_id\":2}
";
        let folded = collapse_trace(trace).unwrap();
        assert_eq!(folded, "DPccp;enumerate 100\nDPsize;enumerate 200\n");
    }

    #[test]
    fn accepts_real_tracewriter_output() {
        let tw = TraceWriter::new(Vec::new());
        tw.on_event(Event::RunStart {
            algorithm: "DPccp",
            relations: 3,
        });
        tw.on_event(Event::PhaseStart { phase: "init" });
        tw.on_event(Event::PhaseEnd { phase: "init" });
        tw.on_event(Event::RunEnd);
        let text = String::from_utf8(tw.finish().unwrap()).unwrap();
        let folded = collapse_trace(&text).unwrap();
        for line in folded.lines() {
            assert!(line.starts_with("DPccp;init "), "unexpected: {line}");
        }
    }

    #[test]
    fn malformed_lines_are_errors_with_line_numbers() {
        let err = collapse_trace("{\"event\":\"phase_end\",\"phase\":\"x\"}").unwrap_err();
        assert_eq!(err, FlameError::MissingField(1, "elapsed_ns"));
        let err = collapse_trace("not json").unwrap_err();
        assert!(matches!(err, FlameError::Parse(1, _)));
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn unknown_events_and_blank_lines_are_ignored() {
        let trace = "\n{\"event\":\"future_thing\",\"phase\":\"run\",\"elapsed_ns\":1}\n\n";
        assert_eq!(collapse_trace(trace).unwrap(), "");
    }
}
