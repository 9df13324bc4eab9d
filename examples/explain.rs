//! Plan provenance: capture every decision a DP run makes on a star
//! query, walk the per-set records — winning split, runner-up and the
//! cost delta between them — and render the explained plan.
//!
//! The interesting number here is the runner-up delta: on a star query
//! most intermediate sets have one obvious winner (join the next
//! dimension into the fact-table component), but the near-ties show
//! where a slightly different catalog would have flipped the plan.
//!
//! Run with: `cargo run --release --example explain`

use joinopt::core::explain::{compare, default_namer, Explanation};
use joinopt::prelude::*;

/// `{R0,R3,R5}`-style label for a relation-set bitmask.
fn label(bits: u64) -> String {
    let names: Vec<String> = RelSet::from_bits(bits).iter().map(default_namer).collect();
    format!("{{{}}}", names.join(","))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A seeded 10-relation star: R0 is the fact table, every predicate
    // touches it.
    let w = joinopt::cost::workload::family_workload(GraphKind::Star, 10, 2006);

    // Capture a DPccp run with provenance collection attached. The
    // observer records one PlanCandidate event per considered split;
    // the collector folds them into one DecisionRecord per set.
    let e = Explanation::capture(&w.graph, &w.catalog, &Cout, &DpCcp)?;
    println!(
        "{} on a {}-relation star: {} decision sets, {} candidates considered\n",
        e.algorithm,
        e.relations,
        e.records.len(),
        e.total_candidates()
    );

    // Walk the decision records in DP order (ascending set size) and
    // print each set's winner with its runner-up delta — how much worse
    // the second-best split was.
    println!(
        "{:<28} {:>12} {:>14}  runner-up margin",
        "set", "cost", "candidates"
    );
    for set in e.decision_sets() {
        let rec = &e.records[&set];
        let Some(winner) = rec.winner else { continue };
        let margin = match rec.cost_delta() {
            Some(0.0) => "tie (enumeration order decides)".to_string(),
            Some(delta) => format!("Δ={delta:e}"),
            None => "(sole candidate)".to_string(),
        };
        println!(
            "{:<28} {:>12.4e} {:>14}  {margin}",
            label(set),
            winner.cost,
            rec.candidates
        );
    }

    // The full rendered document: header, ASCII plan tree, decision
    // table. `--format dot` / `--format json` of `joinopt explain`
    // come from render_dot / to_json on the same Explanation.
    println!("\n{}", e.render_text(&default_namer));

    // Diff against DPsize: both are exact, so they agree on cost; on a
    // tie-rich instance they may still commit different equal-cost
    // splits, which compare() pinpoints decision by decision.
    let other = Explanation::capture(&w.graph, &w.catalog, &Cout, &DpSize)?;
    let diff = compare(&e, &other);
    println!("{}", diff.render_text());
    Ok(())
}
