//! End-to-end tests of every CLI command, driven through
//! [`joinopt_cli::run`] with captured output.

use std::collections::BTreeMap;

use joinopt_cli::{run, CliError};

fn run_ok(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&args, &mut out).unwrap_or_else(|e| panic!("command {args:?} failed: {e}"));
    String::from_utf8(out).expect("utf8 output")
}

fn run_err(args: &[&str]) -> CliError {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&args, &mut out).expect_err("command should fail")
}

fn write_query_file(content: &str) -> tempfile::TempPath {
    use std::io::Write as _;
    let mut f = tempfile::Builder::new()
        .suffix(".query")
        .tempfile()
        .expect("create temp file");
    f.write_all(content.as_bytes()).unwrap();
    f.into_temp_path()
}

/// Minimal stand-in for the `tempfile` crate (not in the offline set):
/// writes to a unique path under the target tmp dir and removes it on
/// drop.
mod tempfile {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct Builder {
        suffix: String,
    }

    impl Builder {
        pub fn new() -> Builder {
            Builder {
                suffix: String::new(),
            }
        }

        pub fn suffix(mut self, s: &str) -> Builder {
            self.suffix = s.to_string();
            self
        }

        pub fn tempfile(self) -> std::io::Result<TempFile> {
            let dir = std::env::temp_dir();
            let unique = format!(
                "joinopt-cli-test-{}-{}{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed),
                self.suffix
            );
            let path = dir.join(unique);
            let file = std::fs::File::create(&path)?;
            Ok(TempFile { file, path })
        }
    }

    pub struct TempFile {
        file: std::fs::File,
        path: PathBuf,
    }

    impl TempFile {
        pub fn into_temp_path(self) -> TempPath {
            TempPath { path: self.path }
        }
    }

    impl std::io::Write for TempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.file, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.file)
        }
    }

    pub struct TempPath {
        path: PathBuf,
    }

    impl std::ops::Deref for TempPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

const CHAIN_QUERY: &str = "\
relation customer 150000
relation orders 1500000
relation lineitem 6000000
join customer orders 6.67e-6
join orders lineitem 6.67e-7
";

#[test]
fn help_prints_usage() {
    let out = run_ok(&["help"]);
    assert!(out.contains("USAGE"));
    assert!(out.contains("optimize"));
    assert!(out.contains("counters"));
}

#[test]
fn help_lists_every_algorithm_name() {
    let out = run_ok(&["help"]);
    let start = out.find("ALGORITHMS:").expect("ALGORITHMS section");
    let end = out[start..]
        .find("COST MODELS:")
        .expect("COST MODELS section")
        + start;
    let listed: Vec<&str> = out[start..end]
        .split(|c: char| c.is_whitespace() || matches!(c, ',' | '(' | ')' | ';'))
        .collect();
    for a in joinopt_core::Algorithm::CONCRETE {
        assert!(listed.contains(&a.name()), "help omits {}", a.name());
    }
}

#[test]
fn optimize_defaults() {
    let path = write_query_file(CHAIN_QUERY);
    let out = run_ok(&["optimize", path.to_str().unwrap()]);
    assert!(out.contains("algorithm:   DPccp"), "{out}");
    assert!(out.contains("cost model:  Cout"));
    assert!(out.contains("customer"));
    assert!(out.contains('⋈'));
    assert!(out.contains("Scan R0"));
}

#[test]
fn optimize_with_explicit_algorithm_and_model() {
    let path = write_query_file(CHAIN_QUERY);
    let out = run_ok(&[
        "optimize",
        path.to_str().unwrap(),
        "--algorithm",
        "dpsize",
        "--cost-model",
        "hash",
    ]);
    assert!(out.contains("algorithm:   DPsize"), "{out}");
    assert!(out.contains("cost model:  HashJoin"));
}

#[test]
fn optimize_rejects_unknowns() {
    let path = write_query_file(CHAIN_QUERY);
    for algorithm in [
        "magic",
        "idp",
        "dpsize-naive",
        "dpsub-nofilter",
        "dpsub-cp",
        "topdown",
        "dpsize-leftdeep",
    ] {
        assert!(matches!(
            run_err(&["optimize", path.to_str().unwrap(), "--algorithm", algorithm]),
            CliError::Usage(m) if m.contains("unknown algorithm")
        ));
    }
    assert!(matches!(
        run_err(&["optimize", path.to_str().unwrap(), "--cost-model", "magic"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["optimize", path.to_str().unwrap(), "--bogus", "1"]),
        CliError::Usage(_)
    ));
}

#[test]
fn optimize_propagates_parse_errors_with_lines() {
    let path = write_query_file("relation a ten\n");
    match run_err(&["optimize", path.to_str().unwrap()]) {
        CliError::Optimize(joinopt_core::OptimizeError::Parse(e)) => {
            assert_eq!(e.line(), Some(1));
        }
        other => panic!("expected parse error, got {other:?}"),
    }
}

#[test]
fn optimize_rejects_disconnected_queries() {
    let path = write_query_file("relation a 10\nrelation b 10\n");
    assert!(matches!(
        run_err(&["optimize", path.to_str().unwrap()]),
        CliError::Optimize(_)
    ));
}

#[test]
fn optimize_missing_file_is_io_error() {
    assert!(matches!(
        run_err(&["optimize", "/nonexistent/query.txt"]),
        CliError::Io(_)
    ));
}

#[test]
fn compare_lists_all_algorithms() {
    let path = write_query_file(CHAIN_QUERY);
    let out = run_ok(&["compare", path.to_str().unwrap()]);
    for name in ["DPsize", "DPsub", "DPccp", "GOO"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn generate_emits_parseable_queries() {
    for family in ["chain", "cycle", "star", "clique"] {
        let out = run_ok(&["generate", family, "6", "--seed", "9"]);
        let body: String = out
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        let q = joinopt_query::parse(&body).expect("generated output must parse");
        assert_eq!(q.hypergraph.num_relations(), 6);
        // Determinism: same seed, same output.
        let again = run_ok(&["generate", family, "6", "--seed", "9"]);
        assert_eq!(out, again);
    }
}

#[test]
fn generate_validates_arguments() {
    assert!(matches!(
        run_err(&["generate", "moebius", "5"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["generate", "chain", "zero"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["generate", "chain", "0"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["generate", "chain", "65"]),
        CliError::Usage(_)
    ));
}

#[test]
fn counters_reproduce_figure3_values() {
    let out = run_ok(&["counters", "star", "20"]);
    // Figure 3 star row n=20: ccp 4980736, DPsub 2323474358, DPsize 59892991338.
    let row = out
        .lines()
        .find(|l| l.starts_with("20"))
        .expect("row for n=20");
    assert!(row.contains("4980736"), "{row}");
    assert!(row.contains("2323474358"), "{row}");
    assert!(row.contains("59892991338"), "{row}");
}

#[test]
fn optimize_routes_complex_queries_to_dphyp() {
    let path = write_query_file(
        "relation a 100\nrelation b 200\nrelation c 50\njoin a b 0.01\njoin a,b c 0.05\n",
    );
    let out = run_ok(&["optimize", path.to_str().unwrap()]);
    assert!(out.contains("algorithm:   DPhyp"), "{out}");
    assert!(
        out.contains("(a ⋈ b) ⋈ c") || out.contains("c ⋈ (a ⋈ b)"),
        "{out}"
    );
    // Explicit simple-graph algorithms are rejected for complex queries.
    assert!(matches!(
        run_err(&["optimize", path.to_str().unwrap(), "--algorithm", "dpsize"]),
        CliError::Usage(_)
    ));
}

#[test]
fn complex_query_refusal_names_dphyp_in_one_line() {
    let path = write_query_file(
        "relation a 100\nrelation b 200\nrelation c 50\njoin a b 0.01\njoin a,b c 0.05\n",
    );
    let err = run_err(&["optimize", path.to_str().unwrap(), "--algorithm", "dpccp"]);
    let CliError::Usage(msg) = err else {
        panic!("expected a usage error, got {err:?}");
    };
    assert_eq!(
        msg,
        "this query has complex (multi-relation) predicates; only DPhyp applies — drop --algorithm"
    );
}

#[test]
fn compare_runs_dphyp_for_complex_queries() {
    let path = write_query_file(
        "relation a 100\nrelation b 200\nrelation c 50\njoin a b 0.01\njoin a,b c 0.05\n",
    );
    let out = run_ok(&["compare", path.to_str().unwrap()]);
    assert!(out.contains("DPhyp"), "{out}");
    assert!(!out.contains("DPsize"), "{out}");
}

#[test]
fn optimize_accepts_sql_files() {
    let path = write_query_file(
        "SELECT *\nFROM customer /*+ rows=150000 */ c, orders /*+ rows=1500000 */ o\n\
         WHERE c.ck = o.ck /*+ sel=6.7e-6 */\n",
    );
    let out = run_ok(&["optimize", path.to_str().unwrap()]);
    assert!(out.contains('⋈'), "{out}");
    assert!(out.contains("c") && out.contains("o"));
    assert!(out.contains("cost:"), "{out}");
}

#[test]
fn sql_parse_errors_are_reported() {
    let path = write_query_file("SELECT * FROM a WHERE ghost.x = a.y\n");
    assert!(matches!(
        run_err(&["optimize", path.to_str().unwrap()]),
        CliError::Optimize(joinopt_core::OptimizeError::Sql(_))
    ));
}

#[test]
fn sql_with_leading_comment_detected() {
    let path = write_query_file("-- a comment\nSELECT * FROM a, b WHERE a.x = b.y\n");
    let out = run_ok(&["compare", path.to_str().unwrap()]);
    assert!(out.contains("DPccp"), "{out}");
}

// ---------------------------------------------------------------------
// Batch flags (--batch / --threads).
// ---------------------------------------------------------------------

#[test]
fn optimize_threads_applies_to_batches_only() {
    // A single query runs on one thread; the flag sizes --batch pools.
    let path = write_query_file(CHAIN_QUERY);
    assert!(matches!(
        run_err(&["optimize", path.to_str().unwrap(), "--threads", "2"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["explain", path.to_str().unwrap(), "--threads", "2"]),
        CliError::Usage(_)
    ));
}

#[test]
fn optimize_threads_validates_value() {
    let path = write_query_file(CHAIN_QUERY);
    assert!(matches!(
        run_err(&["optimize", path.to_str().unwrap(), "--threads", "lots"]),
        CliError::Usage(_)
    ));
}

#[test]
fn batch_optimizes_many_files_and_isolates_failures() {
    let a = write_query_file(CHAIN_QUERY);
    let disconnected = write_query_file("relation x 10\nrelation y 10\n");
    let b = write_query_file(
        "relation a 100\nrelation b 200\nrelation c 50\njoin a b 0.01\njoin b c 0.05\n",
    );
    let out = run_ok(&[
        "optimize",
        a.to_str().unwrap(),
        disconnected.to_str().unwrap(),
        b.to_str().unwrap(),
        "--batch",
        "--threads",
        "2",
    ]);
    assert!(out.contains("3 queries (1 failed)"), "{out}");
    assert!(out.contains("connected"), "failure reason shown: {out}");
    // One row per input file, in input order.
    for (i, p) in [&a, &disconnected, &b].iter().enumerate() {
        let row = out
            .lines()
            .find(|l| l.contains(p.to_str().unwrap()))
            .unwrap_or_else(|| panic!("no row for query {i}: {out}"));
        assert!(row.trim_start().starts_with(&i.to_string()), "{row}");
    }
}

#[test]
fn batch_rejects_telemetry_and_complex_queries() {
    let a = write_query_file(CHAIN_QUERY);
    assert!(matches!(
        run_err(&["optimize", a.to_str().unwrap(), "--batch", "--metrics"]),
        CliError::Usage(_)
    ));
    let complex = write_query_file(
        "relation a 100\nrelation b 200\nrelation c 50\njoin a b 0.01\njoin a,b c 0.05\n",
    );
    assert!(matches!(
        run_err(&["optimize", complex.to_str().unwrap(), "--batch"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["optimize", "--batch"]),
        CliError::Usage(_)
    ));
}

#[test]
fn batch_matches_single_runs() {
    let a = write_query_file(CHAIN_QUERY);
    let single = run_ok(&["optimize", a.to_str().unwrap(), "--algorithm", "dpsub"]);
    let cost_line = single
        .lines()
        .find(|l| l.starts_with("cost:"))
        .expect("cost line");
    let cost = cost_line.split_whitespace().nth(1).expect("cost value");
    let batched = run_ok(&[
        "optimize",
        a.to_str().unwrap(),
        "--batch",
        "--algorithm",
        "dpsub",
    ]);
    assert!(batched.contains(cost), "{batched} missing {cost}");
}

#[test]
fn batch_marks_repeated_query_files_as_cached() {
    let a = write_query_file(CHAIN_QUERY);
    let out = run_ok(&[
        "optimize",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--batch",
        "--threads",
        "1",
    ]);
    // At one worker the second (identical) file is answered from the
    // plan cache; both rows carry the same cost.
    assert!(out.contains("(cached)"), "{out}");
    assert!(out.contains("2 queries (0 failed)"), "{out}");
    let costs: Vec<&str> = out
        .lines()
        .filter(|l| l.contains(".query"))
        .map(|l| l.split_whitespace().nth(1).expect("cost column"))
        .collect();
    assert_eq!(costs.len(), 2);
    assert_eq!(costs[0], costs[1], "{out}");
}

// ---------------------------------------------------------------------
// The chaos gate (`joinopt load --chaos`).
// ---------------------------------------------------------------------

#[test]
fn plain_load_is_a_usage_error_naming_servebench() {
    for args in [
        &["load"][..],
        &["load", "--requests", "60", "--seed", "7"][..],
    ] {
        let err = run_err(args);
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("servebench")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn load_rejects_bad_options() {
    assert!(matches!(
        run_err(&["load", "--chaos", "--requests", "0"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["load", "--chaos", "--repeat-rate", "1.5"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["load", "--chaos", "--max-n", "99"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["load", "--chaos", "--cache-bytes", "lots"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["load", "--chaos", "positional"]),
        CliError::Usage(_)
    ));
}

#[test]
fn unknown_command_is_usage_error() {
    assert!(matches!(run_err(&["explode"]), CliError::Usage(_)));
    assert!(matches!(run_err(&[]), CliError::Usage(_)));
}

// ---------------------------------------------------------------------
// Telemetry flags (--metrics / --trace-json).
// ---------------------------------------------------------------------

/// Replaces the value of the wall-clock `time:` line, the only
/// nondeterministic bytes in `optimize` output.
fn normalize_time(s: &str) -> String {
    let mut result = String::new();
    for line in s.lines() {
        if line.starts_with("time:") {
            result.push_str("time:        <normalized>");
        } else {
            result.push_str(line);
        }
        result.push('\n');
    }
    result
}

#[test]
fn optimize_output_without_telemetry_flags_is_unchanged() {
    let path = write_query_file(CHAIN_QUERY);
    let plain = run_ok(&["optimize", path.to_str().unwrap()]);

    // The pre-telemetry output skeleton: exactly these sections, in this
    // order, with nothing appended after the explain block.
    let lines: Vec<&str> = plain.lines().collect();
    let expected_prefixes = [
        "algorithm:",
        "cost model:",
        "plan:",
        "cost:",
        "cardinality:",
        "counters:",
        "time:",
        "",
    ];
    for (i, prefix) in expected_prefixes.iter().enumerate() {
        assert!(lines[i].starts_with(prefix), "line {i} = {:?}", lines[i]);
    }
    assert!(plain.contains("Scan R0"));
    assert!(
        !plain.contains("run:"),
        "telemetry block leaked into plain output:\n{plain}"
    );
    assert!(
        !plain.contains("phase "),
        "telemetry block leaked into plain output:\n{plain}"
    );

    // With --metrics the report is strictly appended: everything before
    // it is byte-identical to the plain run (modulo the time line).
    let with_metrics = run_ok(&["optimize", path.to_str().unwrap(), "--metrics"]);
    let head = with_metrics
        .split("\nrun:")
        .next()
        .expect("report separator present");
    assert_eq!(normalize_time(&plain), normalize_time(head));
}

#[test]
fn optimize_metrics_appends_human_report() {
    let path = write_query_file(CHAIN_QUERY);
    let out = run_ok(&["optimize", path.to_str().unwrap(), "--metrics"]);
    assert!(out.contains("run:        DPccp on 3 relations"), "{out}");
    assert!(out.contains("phase init"), "{out}");
    assert!(out.contains("phase enumerate"), "{out}");
    assert!(out.contains("phase extract"), "{out}");
    assert!(out.contains("dp levels:"), "{out}");
    assert!(out.contains("table:"), "{out}");
    assert!(out.contains("arena:"), "{out}");
    assert!(out.contains("counters:   inner="), "{out}");
}

#[test]
fn dpconv_metrics_report_no_table_probes() {
    // DPconv's table is a dense array; its work counters (301 inner
    // iterations and 301 csg-cmp pairs on this clique) are not table
    // lookups and must not be reported as probes and hits.
    let query = run_ok(&["generate", "clique", "6", "--seed", "1"]);
    let path = write_query_file(&query);
    let out = run_ok(&[
        "optimize",
        path.to_str().unwrap(),
        "--algorithm",
        "dpconv",
        "--metrics",
    ]);
    assert!(out.contains("run:        DPconv on 6 relations"), "{out}");
    assert!(out.contains(", 0 probes, 0 hits"), "{out}");
    assert!(!out.contains("301 probes"), "{out}");
}

#[test]
fn optimize_trace_json_lines_parse_with_common_fields() {
    use joinopt_telemetry::json::JsonValue;

    let path = write_query_file(CHAIN_QUERY);
    let trace = tempfile::Builder::new()
        .suffix(".jsonl")
        .tempfile()
        .expect("create trace file")
        .into_temp_path();
    run_ok(&[
        "optimize",
        path.to_str().unwrap(),
        "--trace-json",
        trace.to_str().unwrap(),
    ]);

    let text = std::fs::read_to_string(&*trace).expect("trace file written");
    assert!(!text.is_empty(), "trace file is empty");
    let mut events = Vec::new();
    let mut last_elapsed = 0u64;
    for line in text.lines() {
        let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let event = v
            .get("event")
            .and_then(|e| e.as_str())
            .expect("event field");
        assert!(
            v.get("phase").and_then(|p| p.as_str()).is_some(),
            "missing phase field: {line}"
        );
        let elapsed = v
            .get("elapsed_ns")
            .and_then(|e| e.as_u64())
            .expect("elapsed_ns field");
        assert!(elapsed >= last_elapsed, "elapsed_ns went backwards: {line}");
        last_elapsed = elapsed;
        events.push(event.to_string());
    }
    assert_eq!(events.first().map(String::as_str), Some("run_start"));
    assert_eq!(events.last().map(String::as_str), Some("run_end"));
    assert!(events.iter().any(|e| e == "dp_level"), "{events:?}");
    assert!(events.iter().any(|e| e == "final_counters"), "{events:?}");
}

#[test]
fn compare_metrics_emits_csv_per_algorithm() {
    let path = write_query_file(CHAIN_QUERY);
    let out = run_ok(&["compare", path.to_str().unwrap(), "--metrics"]);
    assert!(out.contains("algorithm,relations,total_ns"), "{out}");
    for name in ["DPsize,3", "DPsub,3", "DPccp,3", "GOO,3"] {
        assert!(out.contains(name), "missing CSV row {name} in:\n{out}");
    }
}

#[test]
fn counters_metrics_appends_measured_rows() {
    let out = run_ok(&["counters", "chain", "5", "--metrics"]);
    assert!(out.contains("I_DPccp"), "{out}"); // formula table still there
    assert!(out.contains("measured (seed-2006 workloads):"), "{out}");
    assert!(out.contains("algorithm,relations,total_ns"), "{out}");
    for n in 2..=5 {
        assert!(
            out.contains(&format!("DPccp,{n},")),
            "missing DPccp row for n={n}:\n{out}"
        );
    }
}

#[test]
fn counters_telemetry_rejects_infeasible_sizes() {
    assert!(matches!(
        run_err(&["counters", "chain", "20", "--metrics"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["counters", "clique", "30", "--trace-json", "/tmp/t.jsonl"]),
        CliError::Usage(_)
    ));
}

#[test]
fn counters_trace_json_covers_all_runs() {
    use joinopt_telemetry::json::JsonValue;

    let trace = tempfile::Builder::new()
        .suffix(".jsonl")
        .tempfile()
        .expect("create trace file")
        .into_temp_path();
    run_ok(&[
        "counters",
        "star",
        "4",
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&*trace).expect("trace file written");
    let starts = text
        .lines()
        .filter(|l| {
            JsonValue::parse(l)
                .ok()
                .and_then(|v| v.get("event").and_then(|e| e.as_str()).map(String::from))
                .as_deref()
                == Some("run_start")
        })
        .count();
    // 4 algorithms (DPsize, DPsub, DPccp, DPconv) × sizes 2..=4.
    assert_eq!(starts, 12, "{text}");
}

/// Dense clique whose exact DP table outgrows a small memory budget
/// while the fallback rungs (IDP, greedy) still fit.
fn clique_query(n: usize) -> String {
    let mut q = String::new();
    for i in 0..n {
        q.push_str(&format!("relation r{i} 1000\n"));
    }
    for i in 0..n {
        for j in i + 1..n {
            q.push_str(&format!("join r{i} r{j} 0.1\n"));
        }
    }
    q
}

#[test]
fn optimize_memory_budget_trips_and_degrade_recovers() {
    let path = write_query_file(&clique_query(13));
    let err = run_err(&["optimize", path.to_str().unwrap(), "--memory-budget", "64k"]);
    assert!(
        matches!(
            err,
            CliError::Optimize(joinopt_core::OptimizeError::MemoryBudgetExceeded { .. })
        ),
        "{err}"
    );

    let out = run_ok(&[
        "optimize",
        path.to_str().unwrap(),
        "--memory-budget",
        "64k",
        "--degrade",
    ]);
    assert!(out.contains("plan after memory budget trip"), "{out}");
    assert!(out.contains("degraded:"), "{out}");
    assert!(out.contains('⋈'), "{out}");
}

#[test]
fn optimize_generous_memory_budget_changes_nothing() {
    let path = write_query_file(CHAIN_QUERY);
    let plain = run_ok(&["optimize", path.to_str().unwrap()]);
    let budgeted = run_ok(&[
        "optimize",
        path.to_str().unwrap(),
        "--memory-budget",
        "1g",
        "--degrade",
    ]);
    // Everything but the wall-clock line must be bit-identical.
    let strip = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.starts_with("time:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&plain), strip(&budgeted));
    assert!(!budgeted.contains("degraded:"), "{budgeted}");
}

#[test]
fn optimize_rejects_bad_budget_values_and_batch_combination() {
    let path = write_query_file(CHAIN_QUERY);
    assert!(matches!(
        run_err(&[
            "optimize",
            path.to_str().unwrap(),
            "--memory-budget",
            "nope"
        ]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["optimize", path.to_str().unwrap(), "--memory-budget", "64q"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["optimize", path.to_str().unwrap(), "--degrade", "--batch"]),
        CliError::Usage(_)
    ));
}

#[test]
fn fuzz_smoke_run_is_clean() {
    let out = run_ok(&["fuzz", "--seed", "7", "--iters", "20", "--max-n", "7"]);
    assert!(out.contains("fuzz: seed 7, 20 instances"), "{out}");
    assert!(out.contains("all instances conform"), "{out}");
}

#[test]
fn fuzz_metrics_prints_registry_and_trace_has_thread_ids() {
    use joinopt_telemetry::json::JsonValue;

    let trace = tempfile::Builder::new()
        .suffix(".jsonl")
        .tempfile()
        .expect("create trace file")
        .into_temp_path();
    let out = run_ok(&[
        "fuzz",
        "--seed",
        "7",
        "--iters",
        "10",
        "--max-n",
        "7",
        "--metrics",
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    // Campaign-scale registry snapshot, not a single-run report.
    assert!(out.contains("joinopt_runs_total"), "{out}");
    assert!(out.contains("all instances conform"), "{out}");
    let text = std::fs::read_to_string(&*trace).expect("trace file written");
    assert!(!text.is_empty());
    for line in text.lines() {
        let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        assert!(
            v.get("thread_id").and_then(|t| t.as_u64()).is_some(),
            "missing thread_id: {line}"
        );
    }
}

#[test]
fn fuzz_cache_mode_is_clean() {
    let out = run_ok(&[
        "fuzz", "--seed", "7", "--iters", "15", "--max-n", "7", "--cache",
    ]);
    assert!(out.contains("all instances conform"), "{out}");
}

#[test]
fn fuzz_rejects_bad_options() {
    assert!(matches!(
        run_err(&["fuzz", "--seed", "nope"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["fuzz", "--max-n", "1"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["fuzz", "positional"]),
        CliError::Usage(_)
    ));
}

// ---------------------------------------------------------------------
// Prometheus export (--prom), perf baselines.
// ---------------------------------------------------------------------

#[test]
fn optimize_prom_writes_exposition_file() {
    let path = write_query_file(CHAIN_QUERY);
    let prom = tempfile::Builder::new()
        .suffix(".prom")
        .tempfile()
        .expect("create prom file")
        .into_temp_path();
    run_ok(&[
        "optimize",
        path.to_str().unwrap(),
        "--prom",
        prom.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&*prom).expect("prom file written");
    assert!(text.contains("# TYPE joinopt_runs_total counter"), "{text}");
    assert!(text.contains("algorithm=\"DPccp\""), "{text}");
    assert!(text.contains("joinopt_run_duration_ns_count"), "{text}");
}

#[test]
fn batch_trace_and_prom_aggregate_all_workers() {
    use joinopt_telemetry::json::JsonValue;

    let a = write_query_file(CHAIN_QUERY);
    let b = write_query_file(
        "relation a 100\nrelation b 200\nrelation c 50\njoin a b 0.01\njoin b c 0.05\n",
    );
    let trace = tempfile::Builder::new()
        .suffix(".jsonl")
        .tempfile()
        .expect("create trace file")
        .into_temp_path();
    let prom = tempfile::Builder::new()
        .suffix(".prom")
        .tempfile()
        .expect("create prom file")
        .into_temp_path();
    run_ok(&[
        "optimize",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--batch",
        "--threads",
        "2",
        "--trace-json",
        trace.to_str().unwrap(),
        "--prom",
        prom.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&*trace).expect("trace file written");
    // Interleaved worker lines stay attributable: every run-scoped line
    // carries the algorithm of the run its thread started, and the
    // phase spans on the trace add up, per (algorithm, phase), to
    // exactly what the registry folded from the same events.
    let mut running: BTreeMap<u64, String> = BTreeMap::new();
    let mut spans: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut starts = 0;
    for line in text.lines() {
        let v = JsonValue::parse(line).expect("parseable line");
        let str_field = |k: &str| v.get(k).and_then(|x| x.as_str()).map(String::from);
        let u64_field = |k: &str| v.get(k).and_then(|x| x.as_u64());
        let tid = u64_field("thread_id").expect("thread_id");
        let event = str_field("event").expect("event");
        let algorithm = str_field("algorithm");
        match event.as_str() {
            "run_start" => {
                starts += 1;
                running.insert(tid, algorithm.expect("run_start algorithm"));
                continue;
            }
            "phase_end" => {
                let (start, end) = (u64_field("start_ns").unwrap(), u64_field("end_ns").unwrap());
                assert!(start <= end, "{line}");
                let key = (algorithm.clone().unwrap(), str_field("phase").unwrap());
                *spans.entry(key).or_default() += end - start;
            }
            _ => {}
        }
        if let Some(algorithm) = algorithm {
            assert_eq!(running.get(&tid), Some(&algorithm), "{line}");
        }
    }
    assert_eq!(starts, 2, "{text}");
    let exposition = std::fs::read_to_string(&*prom).expect("prom file written");
    assert!(
        exposition.contains("joinopt_runs_total{algorithm=\"DPccp\"} 2"),
        "{exposition}"
    );
    assert!(!spans.is_empty(), "{text}");
    for ((algorithm, phase), total) in &spans {
        let series = format!(
            "joinopt_phase_ns_sum{{algorithm=\"{algorithm}\",phase=\"{phase}\"}} {total}\n"
        );
        assert!(exposition.contains(&series), "{series} in {exposition}");
    }
}

#[test]
fn perf_writes_baseline_and_check_passes_against_itself() {
    let baseline_path = tempfile::Builder::new()
        .suffix(".json")
        .tempfile()
        .expect("create baseline file")
        .into_temp_path();
    let out = run_ok(&[
        "perf",
        "--n",
        "6",
        "--reps",
        "1",
        "--out",
        baseline_path.to_str().unwrap(),
    ]);
    assert!(out.contains("chain"), "{out}");
    assert!(out.contains("DPsub"), "{out}");
    // 3 families × (DPsize + DPccp + DPconv + DPsub).
    assert!(out.contains("wrote 12 cells"), "{out}");
    let text = std::fs::read_to_string(&*baseline_path).expect("baseline written");
    assert!(text.contains("\"schema\": \"joinopt-perf-v2\""), "{text}");

    let check = run_ok(&["perf", "--check", baseline_path.to_str().unwrap()]);
    assert!(check.contains("perf check passed: 12 cells"), "{check}");
}

#[test]
fn perf_check_fails_on_counter_drift() {
    use joinopt_bench::perf::PerfBaseline;

    let baseline_path = tempfile::Builder::new()
        .suffix(".json")
        .tempfile()
        .expect("create baseline file")
        .into_temp_path();
    run_ok(&[
        "perf",
        "--n",
        "6",
        "--reps",
        "1",
        "--out",
        baseline_path.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&*baseline_path).expect("baseline written");
    let mut tampered = PerfBaseline::parse(&text).expect("parseable baseline");
    tampered.cells[0].inner += 1;
    std::fs::write(&*baseline_path, tampered.to_json()).expect("rewrite baseline");

    let err = run_err(&["perf", "--check", baseline_path.to_str().unwrap()]);
    assert!(matches!(err, CliError::Regression(_)), "{err:?}");
}

#[test]
fn perf_rejects_bad_options_and_garbage_baselines() {
    assert!(matches!(
        run_err(&["perf", "positional"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["perf", "--n", "99"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["perf", "--threads", "1"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["perf", "--noise", "0.5"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["perf", "--check", "BENCH_joinopt.json", "--counters-only"]),
        CliError::Usage(_)
    ));
    let garbage = write_query_file("not json at all");
    assert!(matches!(
        run_err(&["perf", "--check", garbage.to_str().unwrap()]),
        CliError::Data(_)
    ));
}

#[test]
fn explain_renders_text_with_decision_records() {
    let path = write_query_file(CHAIN_QUERY);
    let out = run_ok(&["explain", path.to_str().unwrap()]);
    assert!(out.contains("algorithm:"), "{out}");
    assert!(out.contains("cost model:"), "{out}");
    assert!(out.contains("decision records (DP order):"), "{out}");
    assert!(out.contains("customer"), "{out}");
    assert!(out.contains("lineitem"), "{out}");
    assert!(out.contains("└── "), "{out}");
    assert!(out.contains("candidates="), "{out}");
}

#[test]
fn explain_json_is_structured_and_deterministic() {
    use joinopt_telemetry::json::JsonValue;

    let path = write_query_file(CHAIN_QUERY);
    let args = ["explain", path.to_str().unwrap(), "--format", "json"];
    let first = run_ok(&args);
    let second = run_ok(&args);
    assert_eq!(first, second, "explain JSON must be byte-stable");

    let v = JsonValue::parse(first.trim()).expect("valid JSON");
    assert!(
        v.get("decisions").and_then(JsonValue::as_array).is_some(),
        "{first}"
    );
    assert!(v.get("plan").is_some(), "{first}");
}

#[test]
fn explain_emits_graphviz_dot() {
    let path = write_query_file(CHAIN_QUERY);
    let out = run_ok(&["explain", path.to_str().unwrap(), "--format", "dot"]);
    assert!(out.starts_with("digraph plan {"), "{out}");
    assert!(out.contains("orders"), "{out}");
}

#[test]
fn explain_compare_diffs_two_algorithms() {
    use joinopt_telemetry::json::JsonValue;

    let path = write_query_file(CHAIN_QUERY);
    let out = run_ok(&[
        "explain",
        path.to_str().unwrap(),
        "--compare",
        "dpsize,dpccp",
    ]);
    assert!(out.contains("compare: DPsize vs DPccp"), "{out}");
    assert!(
        out.contains("first divergent decision") || out.contains("no divergent decisions"),
        "{out}"
    );

    let json = run_ok(&[
        "explain",
        path.to_str().unwrap(),
        "--compare",
        "dpsize,dpccp",
        "--format",
        "json",
    ]);
    let v = JsonValue::parse(json.trim()).expect("valid compare JSON");
    assert!(
        v.get("divergences").and_then(JsonValue::as_array).is_some(),
        "{json}"
    );
}

#[test]
fn explain_compare_pinpoints_divergence_on_tie_rich_corpus() {
    let out = run_ok(&[
        "explain",
        "../../tests/corpus/tie-rich-chain-8.query",
        "--compare",
        "dpsize,goo",
    ]);
    assert!(out.contains("plans:   differ"), "{out}");
    assert!(out.contains("first divergent decision"), "{out}");
}

#[test]
fn explain_rejects_bad_options() {
    let path = write_query_file(CHAIN_QUERY);
    assert!(matches!(run_err(&["explain"]), CliError::Usage(_)));
    assert!(matches!(
        run_err(&["explain", path.to_str().unwrap(), "--format", "svg"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["explain", path.to_str().unwrap(), "--compare", "dpsize"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&[
            "explain",
            path.to_str().unwrap(),
            "--compare",
            "dpsize,dpccp",
            "--format",
            "dot"
        ]),
        CliError::Usage(_)
    ));
}

#[test]
fn explain_rejects_complex_predicate_queries() {
    let path = write_query_file(
        "relation a 100\nrelation b 200\nrelation c 50\njoin a b 0.01\njoin a,b c 0.05\n",
    );
    assert!(matches!(
        run_err(&["explain", path.to_str().unwrap()]),
        CliError::Usage(_)
    ));
}

#[test]
fn perf_streams_telemetry_to_trace_and_prom_files() {
    use joinopt_telemetry::json::JsonValue;

    let trace = tempfile::Builder::new()
        .suffix(".jsonl")
        .tempfile()
        .expect("create trace file")
        .into_temp_path();
    let prom = tempfile::Builder::new()
        .suffix(".prom")
        .tempfile()
        .expect("create prom file")
        .into_temp_path();
    let baseline = tempfile::Builder::new()
        .suffix(".json")
        .tempfile()
        .expect("create baseline file")
        .into_temp_path();
    run_ok(&[
        "perf",
        "--n",
        "6",
        "--reps",
        "1",
        "--out",
        baseline.to_str().unwrap(),
        "--trace-json",
        trace.to_str().unwrap(),
        "--prom",
        prom.to_str().unwrap(),
    ]);

    let trace_text = std::fs::read_to_string(&*trace).expect("trace written");
    let run_starts = trace_text
        .lines()
        .filter(|l| {
            let v = JsonValue::parse(l).expect("valid JSONL line");
            v.get("event").and_then(JsonValue::as_str) == Some("run_start")
        })
        .count();
    assert!(run_starts > 0, "expected run_start events:\n{trace_text}");

    let prom_text = std::fs::read_to_string(&*prom).expect("prom written");
    assert!(prom_text.contains("joinopt_runs_total"), "{prom_text}");
}

#[test]
fn load_chaos_rejects_misused_options() {
    // `--threads` never reached the chaos run (it has `--drivers`), and
    // the hit-rate floor belonged to the removed plain load run.
    for (flag, value) in [("--threads", "2"), ("--min-hit-rate", "0.5")] {
        let err = run_err(&["load", "--chaos", flag, value]);
        assert!(
            matches!(&err, CliError::Usage(m) if *m == format!("unknown option {flag}")),
            "{flag}: {err}"
        );
    }
    assert!(matches!(
        run_err(&["load", "--chaos", "--drivers", "0"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["load", "--chaos", "--burst-faults", "0"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["load", "--chaos", "--recheck", "0"]),
        CliError::Usage(_)
    ));
}

// Without the failpoints cfg there is nothing to inject, so the chaos
// harness must refuse loudly instead of "passing" a burst-free run.
// (The affirmative chaos run is exercised in the bench crate's own
// integration test and by the ci.sh gate, both under the failpoints
// build.)
#[cfg(not(failpoints))]
#[test]
fn load_chaos_refuses_without_failpoints_build() {
    let err = run_err(&["load", "--chaos", "--requests", "20"]);
    assert!(
        matches!(&err, CliError::Regression(m) if m.contains("failpoints")),
        "{err}"
    );
}

#[test]
fn serve_rejects_bad_options() {
    assert!(matches!(
        run_err(&["serve", "positional"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["serve", "--bogus", "x"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["serve", "--drain-timeout-ms", "soon"]),
        CliError::Usage(_)
    ));
    let err = run_err(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--unix",
        "/tmp/joinopt-test.sock",
    ]);
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("exclusive")),
        "{err}"
    );
    let err = run_err(&["serve", "--smoke", "--addr", "127.0.0.1:0"]);
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("loopback")),
        "{err}"
    );
}

#[test]
fn serve_span_timeline_is_byte_deterministic() {
    use joinopt_telemetry::json::JsonValue;

    let path = tempfile::Builder::new()
        .suffix(".json")
        .tempfile()
        .expect("create timeline file")
        .into_temp_path();
    let out = run_ok(&["serve", "--span-timeline", path.to_str().unwrap()]);
    assert!(out.contains("wrote span timeline"), "{out}");
    let first = std::fs::read_to_string(&*path).expect("timeline written");
    run_ok(&["serve", "--span-timeline", path.to_str().unwrap()]);
    let second = std::fs::read_to_string(&*path).expect("timeline rewritten");
    assert_eq!(first, second, "span timeline must be run-to-run identical");
    let doc = JsonValue::parse(&first).expect("timeline is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("joinopt-span-timeline-v1")
    );
}

#[test]
fn serve_done_prints_the_summary_with_the_refused_count() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let sock = std::env::temp_dir().join(format!("joinopt-serve-done-{}.sock", std::process::id()));
    let args = ["serve", "--unix", sock.to_str().expect("utf8 temp path")];
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let server = std::thread::spawn(move || {
        let mut out = Vec::new();
        run(&args, &mut out).map(|()| String::from_utf8(out).expect("utf8 output"))
    });
    let mut stream = (0..500)
        .find_map(|_| {
            UnixStream::connect(&sock)
                .inspect_err(|_| std::thread::sleep(std::time::Duration::from_millis(10)))
                .ok()
        })
        .expect("server listening");
    stream.write_all(b"{\"verb\":\"shutdown\"}\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
    let out = server.join().unwrap().expect("serve run");
    std::fs::remove_file(&sock).ok();
    let done = out.lines().last().unwrap_or_default();
    assert_eq!(
        done,
        "serve done: 1 connection(s), 0 refused, 0 accepted, 0 completed, 0 failed, 0 shed, \
         0 breaker-rejected, drained: true",
        "{out}"
    );
}

#[test]
fn top_once_renders_the_windowed_latency_table() {
    use joinopt_service::server::LineClient;
    use joinopt_service::{Server, ServerConfig};

    let server = Server::bind(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().expect("tcp addr");
    let handle = std::thread::spawn(move || server.run());

    // Put one traced optimize through so the window has stage series.
    let mut client = LineClient::connect(addr).expect("connect");
    let resp = client
        .call("{\"verb\":\"optimize\",\"query\":\"relation a 10\\nrelation b 20\\njoin a b 0.1\"}")
        .expect("optimize");
    assert_eq!(resp.get("status").and_then(|v| v.as_str()), Some("ok"));

    let out = run_ok(&["top", "--once", "--addr", &addr.to_string()]);
    assert!(out.contains("joinopt top"), "{out}");
    for needle in ["tenant", "stage", "optimize", "p99", "total"] {
        assert!(out.contains(needle), "top output missing {needle}: {out}");
    }

    client.call("{\"verb\":\"shutdown\"}").expect("shutdown");
    handle.join().unwrap().expect("server run");

    assert!(matches!(
        run_err(&["top", "positional"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["top", "--interval-ms", "soon"]),
        CliError::Usage(_)
    ));
    assert!(matches!(
        run_err(&["top", "--addr", "not-an-addr"]),
        CliError::Usage(_)
    ));
}
