//! Plan-quality experiment (extension beyond the paper's figures):
//! how far do restricted or heuristic strategies fall from the optimal
//! bushy plan that DPccp guarantees?
//!
//! Sweeps random workloads across query-graph densities and reports, for
//! each strategy, the distribution of `cost(strategy) / cost(optimal)`:
//!
//! * optimal left-deep (Selinger space, exact DP);
//! * IDP with small block sizes;
//! * GOO greedy.
//!
//! Usage: `cargo run --release -p joinopt-bench --bin quality [--trials T] [--n N]`

use joinopt_core::greedy::Goo;
use joinopt_core::{DpCcp, DpSizeLeftDeep, Idp, JoinOrderer};
use joinopt_cost::{workload, Cout};

use joinopt_bench::{write_results, MetaSidecar, Table};

/// One table row: the median, p90 and max of `ratios` (sorted in place).
fn quantile_row(label: &str, density: f64, ratios: &mut [f64]) -> Vec<String> {
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |p: f64| ratios[((ratios.len() - 1) as f64 * p) as usize];
    vec![
        label.to_string(),
        format!("{density:.1}"),
        ratios.len().to_string(),
        format!("{:.3}", q(0.5)),
        format!("{:.3}", q(0.9)),
        format!("{:.3}", q(1.0)),
    ]
}

fn main() {
    let mut trials: u64 = 100;
    let mut n: usize = 10;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trials" => {
                i += 1;
                trials = args[i].parse().expect("--trials takes an integer");
            }
            "--n" => {
                i += 1;
                n = args[i].parse().expect("--n takes an integer");
            }
            other => panic!("unknown argument: {other}"),
        }
        i += 1;
    }
    assert!(trials > 0, "--trials must be at least 1");

    println!(
        "plan quality vs optimal bushy (DPccp), {trials} random workloads per density, n = {n}\n"
    );
    let mut table = Table::new(vec!["strategy", "density", "cases", "median", "p90", "max"]);
    // Workload seeds are derived as `seed * 7 + 1`; the sidecar records
    // the sweep configuration so the ratios are reproducible.
    let mut meta = MetaSidecar::new("quality", 1, None);
    meta.push(format!(
        "{{\"event\":\"config\",\"trials\":{trials},\"n\":{n}}}"
    ));
    let idp3 = Idp::with_block_size(3);
    let idp6 = Idp::with_block_size(6);
    let strategies: [(&str, &dyn JoinOrderer); 4] = [
        ("left-deep (exact)", &DpSizeLeftDeep),
        ("IDP k=3", &idp3),
        ("IDP k=6", &idp6),
        ("GOO greedy", &Goo),
    ];
    for density in [0.0, 0.3, 0.6] {
        let mut ratios = vec![Vec::new(); strategies.len()];
        for seed in 0..trials {
            let w = workload::random_workload(n, density, seed * 7 + 1);
            let optimal = DpCcp
                .optimize(&w.graph, &w.catalog, &Cout)
                .expect("valid workload")
                .cost;
            for ((_, strategy), ratios) in strategies.iter().zip(&mut ratios) {
                let cost = strategy
                    .optimize(&w.graph, &w.catalog, &Cout)
                    .expect("valid")
                    .cost;
                ratios.push(cost / optimal);
            }
        }
        for ((label, _), ratios) in strategies.iter().zip(&mut ratios) {
            let row = quantile_row(label, density, ratios);
            meta.push(format!(
                "{{\"event\":\"row\",\"strategy\":\"{}\",\"density\":{},\"cases\":{},\
                 \"median\":{},\"p90\":{},\"max\":{}}}",
                row[0], row[1], row[2], row[3], row[4], row[5]
            ));
            table.row(row);
        }
    }
    println!("{}", table.render());
    match write_results("quality.csv", &table.to_csv()) {
        Ok(path) => {
            println!("wrote {}", path.display());
            match meta.write_next_to(&path) {
                Ok(meta_path) => println!("wrote {}", meta_path.display()),
                Err(e) => eprintln!("could not write run metadata: {e}"),
            }
        }
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    println!("(ratios: 1.000 = matched the bushy optimum)");
}
