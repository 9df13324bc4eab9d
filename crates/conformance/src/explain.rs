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
use joinopt_core::DpCcp;
use joinopt_cost::Cout;

use crate::fuzz::Failure;
use crate::generator::Instance;
use crate::oracle::EXACT;

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

/// Optimal-cost / exhaustive divergences: re-run the exact algorithm
/// the detail names against the DPccp reference. The oracle writes
/// every such detail as `"{instance}: {label} …"`, so the label is the
/// word after that prefix, matched exactly against the oracle's own
/// table of exact algorithms; anything else (a heuristic, the
/// cross-product variant, the exhaustive oracle) is not explained.
fn explain_vs_reference(inst: &Instance, detail: &str) -> Option<String> {
    let rest = detail
        .strip_prefix(inst.name.as_str())?
        .strip_prefix(": ")?;
    let word = rest.split(' ').next()?;
    let (alg, label) = EXACT.into_iter().find(|&(_, label)| label == word)?;
    if label == "DPccp" {
        return None;
    }
    let suspect = Explanation::capture(&inst.graph, &inst.catalog, &Cout, alg).ok()?;
    let reference = Explanation::capture(&inst.graph, &inst.catalog, &Cout, &DpCcp).ok()?;
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
        let inst = &failure.instance;
        let name = &inst.name;
        for detail in [
            // The reference cannot diverge from itself.
            format!("{name}: DPccp found cost 1e3 but DPccp found 2e3"),
            // Heuristics, the cross-product variant and the exhaustive
            // oracle are not exact engines: nothing to re-run. A
            // substring scan would have taken the left-deep heuristic
            // for DPsize.
            format!("{name}: DPsize-leftdeep (heuristic) found cost 1e2 below the optimum 1e3"),
            format!("{name}: DPsub-cp (larger search space) found cost 2e3 above DPccp's 1e3"),
            format!("{name}: the exhaustive oracle found cost 1e3 but DPccp found 2e3"),
            // A detail about another instance names nothing here.
            format!("other-{name}: top-down found cost 1e3 but DPccp found 1e3"),
        ] {
            assert!(explain_vs_reference(inst, &detail).is_none(), "{detail}");
        }
    }

    #[test]
    fn reference_divergence_names_the_first_divergent_decision() {
        // Top-down search and DPccp break a tie of this tie-rich chain
        // in different enumeration orders: same cost, different plans.
        let inst = generator::tie_rich_chain(6);
        let name = &inst.name;
        let detail = format!("{name}: top-down found cost 1e3 but DPccp found 1e3");
        let text = explain_vs_reference(&inst, &detail).expect("plans differ");
        assert!(text.contains("top-down vs DPccp reference"), "{text}");
        assert!(text.contains("first divergent decision"), "{text}");
        assert!(text.contains("tie broken by enumeration order"), "{text}");
        // DPconv is an exact engine too. A substring scan matched the
        // "DPccp" in "… but DPccp found …" and never explained it.
        let detail = format!("{name}: DPconv found cost 1e3 but DPccp found 1e3");
        let text = explain_vs_reference(&inst, &detail).expect("plans differ");
        assert!(text.contains("DPconv vs DPccp reference"), "{text}");
        assert!(text.contains("first divergent decision"), "{text}");
    }
}
