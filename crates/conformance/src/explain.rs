//! Explained diffs for fuzz divergences.
//!
//! When the differential [`oracle`](crate::oracle) catches two
//! optimizers disagreeing, the divergence detail says *that* they
//! disagree; the provenance subsystem can additionally say *where* —
//! which DP decision the two runs first committed differently. This
//! module re-runs the two sides of a failed comparison with
//! provenance collection attached and renders the decision-level diff
//! (see [`joinopt_core::explain`]), so a minimized fuzz repro arrives
//! with its root-cause attribution already printed.

use joinopt_core::explain::{compare, Explanation};
use joinopt_core::Algorithm;
use joinopt_cost::Cout;

use crate::fuzz::Failure;
use crate::generator::Instance;

/// Report labels the oracle uses, mapped to their algorithms. Longest
/// labels first so substring scans of a divergence detail cannot match
/// a prefix (`DPsize` inside `DPsize-naive`).
const LABELS: [(&str, Algorithm); 7] = [
    ("DPsize-naive", Algorithm::DpSizeNaive),
    ("DPsub-nofilter", Algorithm::DpSubUnfiltered),
    ("DPsub-cp", Algorithm::DpSubCrossProducts),
    ("DPsize", Algorithm::DpSize),
    ("DPsub", Algorithm::DpSub),
    ("DPccp", Algorithm::DpCcp),
    ("top-down", Algorithm::TopDown),
];

/// Renders an explained diff for a fuzz failure, preferring the
/// minimized repro when shrinking produced one.
///
/// Returns `None` for divergences that are not a comparison of two
/// plan-producing runs (counter formula mismatches, plan-validity
/// violations, parse errors, …) or when the re-run no longer
/// reproduces a decision-level difference.
pub fn explain_failure(failure: &Failure) -> Option<String> {
    let inst = failure.minimized.as_ref().unwrap_or(&failure.instance);
    match failure.divergence.check {
        "optimal-cost" | "exhaustive" => explain_vs_reference(inst, &failure.divergence.detail),
        _ => None,
    }
}

/// Optimal-cost / exhaustive divergences: re-run the algorithm the
/// detail names against the DPccp reference.
fn explain_vs_reference(inst: &Instance, detail: &str) -> Option<String> {
    let (label, alg) = LABELS
        .into_iter()
        .find(|(label, _)| detail.contains(label))?;
    if alg == Algorithm::DpCcp {
        return None;
    }
    let suspect = Explanation::capture(&inst.graph, &inst.catalog, &Cout, alg).ok()?;
    let reference =
        Explanation::capture(&inst.graph, &inst.catalog, &Cout, Algorithm::DpCcp).ok()?;
    let diff = compare(&suspect, &reference);
    if diff.same_plan && diff.divergences.is_empty() {
        return None;
    }
    Some(format!(
        "explained diff ({}: {label} vs DPccp reference):\n{}",
        inst.name,
        diff.render_text()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator;
    use crate::oracle::Divergence;

    #[test]
    fn only_plan_comparisons_are_explained() {
        let failure = Failure {
            instance: generator::tie_rich_chain(6),
            divergence: Divergence {
                check: "counters",
                detail: "DPsub inner counter".into(),
            },
            minimized: None,
        };
        assert!(explain_failure(&failure).is_none());
        // The reference cannot diverge from itself.
        assert!(explain_vs_reference(&failure.instance, "DPccp found").is_none());
    }

    #[test]
    fn reference_divergence_names_the_first_divergent_decision() {
        // Top-down search and DPccp break a tie of this tie-rich chain
        // in different enumeration orders: same cost, different plans.
        let inst = generator::tie_rich_chain(6);
        let text = explain_vs_reference(&inst, "top-down found cost 1e3").expect("plans differ");
        assert!(text.contains("top-down vs DPccp reference"), "{text}");
        assert!(text.contains("first divergent decision"), "{text}");
        assert!(text.contains("tie broken by enumeration order"), "{text}");
    }
}
