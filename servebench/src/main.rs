//! `joinopt-benchmark`: the `joinopt serve` benchmark. See `README.md`.

use std::path::Path;
use std::process::ExitCode;

use joinopt_benchmark::report::{check_report, report_json, Machine, Outcome, RunSettings};
use joinopt_benchmark::runner::run_workload;
use joinopt_benchmark::{affinity, compare, serve, workload};

const USAGE: &str = "usage:
  joinopt-benchmark --workload NAME --seed N --seconds S --trace 0|1
  joinopt-benchmark run [--seed N] [--seconds S] [--trace] [--quick] [--out FILE]
  joinopt-benchmark compare DIR_A DIR_B
  joinopt-benchmark baseline DIR
  joinopt-benchmark check-report FILE";

/// Where sockets, traces and the default report go (relative to the
/// package directory, which `run.sh` changes into).
const OUT: &str = "out";

struct Args {
    workload: Option<String>,
    settings: RunSettings,
    out: String,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        settings: RunSettings {
            seed: 2006,
            seconds: 20.0,
            trace: false,
            quick: false,
        },
        out: format!("{OUT}/report.json"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.settings.seed = value()?.parse().map_err(|_| "bad seed".to_string())?,
            "--seconds" => {
                a.settings.seconds = value()?.parse().map_err(|_| "bad seconds".to_string())?
            }
            "--out" => a.out = value()?,
            "--quick" => a.settings.quick = true,
            // `--trace 0|1` in the single-workload form, a bare flag in `run`.
            "--trace" => {
                a.settings.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.settings.seconds > 0.0 && a.settings.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn report_errors(o: &Outcome) {
    for e in &o.errors {
        eprintln!("{}: {e}", o.workload);
    }
}

/// One workload, ending with the single-line JSON result.
fn one(a: Args) -> Result<bool, String> {
    let name = a.workload.ok_or("--workload is required")?;
    let name = workload::NAMES
        .into_iter()
        .find(|n| *n == name)
        .ok_or(format!("unknown workload {name}"))?;
    std::fs::create_dir_all(OUT).map_err(|e| e.to_string())?;
    let o = run_workload(name, a.settings, Path::new(OUT))?;
    report_errors(&o);
    for line in o.lines() {
        println!("{line}");
    }
    println!("{}", o.result_line(a.settings.trace));
    Ok(o.correct())
}

/// Every workload, printed and written to a report.
fn run(a: Args) -> Result<bool, String> {
    std::fs::create_dir_all(OUT).map_err(|e| e.to_string())?;
    let mut outcomes = Vec::new();
    for name in workload::NAMES {
        let o = run_workload(name, a.settings, Path::new(OUT))?;
        report_errors(&o);
        for line in o.lines() {
            println!("{line}");
        }
        outcomes.push(o);
    }
    if let Some(dir) = Path::new(&a.out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let doc = report_json(a.settings, &Machine::detect(), &outcomes);
    std::fs::write(&a.out, doc + "\n").map_err(|e| format!("{}: {e}", a.out))?;
    println!("wrote {}", a.out);
    Ok(outcomes.iter().all(Outcome::correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(serve::SERVE_ARG) if (2..=3).contains(&args.len()) => {
            if let Some(cpu) = args.get(2).and_then(|c| c.parse::<u32>().ok()) {
                affinity::pin(1 << cpu.min(63));
            }
            let serve = ["serve".to_string(), "--unix".to_string(), args[1].clone()];
            joinopt_cli::run(&serve, &mut std::io::stdout().lock())
                .map(|()| true)
                .map_err(|e| e.to_string())
        }
        Some("run") => parse(&args[1..]).and_then(run),
        Some("compare") if args.len() == 3 => std::fs::read_to_string("../BENCHMARK.json")
            .map_err(|e| format!("../BENCHMARK.json: {e}"))
            .and_then(|b| compare::compare(&b, &args[1], &args[2])),
        Some("baseline") if args.len() == 2 => compare::baseline(&args[1]).map(|doc| {
            println!("{doc}");
            true
        }),
        Some("check-report") if args.len() == 2 => std::fs::read_to_string(&args[1])
            .map_err(|e| format!("{}: {e}", args[1]))
            .and_then(|text| check_report(&text))
            .map(|()| {
                println!("{}: schema ok", args[1]);
                true
            }),
        Some(flag) if flag.starts_with("--") => parse(&args).and_then(one),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
