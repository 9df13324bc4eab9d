//! Search-space introspection: capture a run's per-set decision
//! records and render the plan *with its provenance* — as an annotated
//! text document, a Graphviz DOT graph, or a stable JSON document —
//! plus side-by-side comparison of two runs with first-divergent-
//! decision attribution.
//!
//! The DP algorithms make exactly one decision per connected relation
//! set: which split of the set to keep. [`Explanation::capture`] runs
//! an orderer with a [`ProvenanceCollector`] attached and packages
//! the result together with that decision table; [`compare`] lines two
//! explanations up and pinpoints the *first* (smallest-set) decision
//! where they part ways — which, for equal-cost plans, is always a tie
//! broken by enumeration order.
//!
//! ```
//! use joinopt_core::explain::{compare, Explanation};
//! use joinopt_core::{DpCcp, DpSize};
//! use joinopt_cost::{workload, Cout};
//! use joinopt_qgraph::GraphKind;
//!
//! let w = workload::family_workload(GraphKind::Star, 5, 0);
//! let a = Explanation::capture(&w.graph, &w.catalog, &Cout, &DpSize).unwrap();
//! let b = Explanation::capture(&w.graph, &w.catalog, &Cout, &DpCcp).unwrap();
//! let diff = compare(&a, &b);
//! assert_eq!(a.result.cost.to_bits(), b.result.cost.to_bits());
//! println!("{}", diff.render_text());
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use joinopt_cost::{Catalog, CostModel};
use joinopt_plan::JoinTree;
use joinopt_qgraph::QueryGraph;
use joinopt_relset::{RelIdx, RelSet};
use joinopt_telemetry::json::{write_escaped, write_f64};
use joinopt_telemetry::{DecisionRecord, ProvenanceCollector, SplitChoice};

use crate::error::OptimizeError;
use crate::result::{DpResult, JoinOrderer};

/// Names relations `R0`, `R1`, … — the default when the caller has no
/// catalog of real names.
pub fn default_namer(r: RelIdx) -> String {
    format!("R{r}")
}

/// One optimization run plus the provenance of every decision it made.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Report name of the algorithm that ran (e.g. `"DPccp"`).
    pub algorithm: &'static str,
    /// Name of the cost model the run used.
    pub cost_model: &'static str,
    /// Number of relations in the query.
    pub relations: usize,
    /// The optimization result (plan, cost, counters, statistics).
    pub result: DpResult,
    /// Per-set decision records, keyed by relation-set bitmask
    /// (ascending, so serializations are deterministic).
    pub records: BTreeMap<u64, DecisionRecord>,
}

impl Explanation {
    /// Runs `orderer` with provenance collection attached. A served
    /// algorithm, `Auto` included, passes
    /// [`Algorithm::orderer`](crate::Algorithm::orderer).
    ///
    /// # Errors
    ///
    /// Propagates any [`OptimizeError`] from the run itself.
    pub fn capture(
        graph: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        orderer: &dyn JoinOrderer,
    ) -> Result<Explanation, OptimizeError> {
        let prov = ProvenanceCollector::new();
        let result = orderer.optimize_observed(graph, catalog, model, &prov)?;
        Ok(Explanation {
            algorithm: orderer.name(),
            cost_model: model.name(),
            relations: graph.num_relations(),
            result,
            records: prov.records(),
        })
    }

    /// Decision sets in DP order: ascending set size, then ascending
    /// bitmask — the order in which a bottom-up DP commits decisions.
    pub fn decision_sets(&self) -> Vec<u64> {
        let mut sets: Vec<u64> = self.records.keys().copied().collect();
        sets.sort_by_key(|s| (s.count_ones(), *s));
        sets
    }

    /// Total candidates considered across all sets.
    pub fn total_candidates(&self) -> u64 {
        self.records.values().map(|r| r.candidates).sum()
    }

    /// Number of sets whose enumeration was cut short by pruning.
    pub fn pruned_sets(&self) -> usize {
        self.records.values().filter(|r| r.pruned.is_some()).count()
    }

    /// The annotated text document: header, rendered plan, and the
    /// per-set decision table in DP order. Fully deterministic (no
    /// clocks), so it can be golden-tested.
    pub fn render_text(&self, name_of: &dyn Fn(RelIdx) -> String) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "algorithm:   {}", self.algorithm);
        let _ = writeln!(out, "cost model:  {}", self.cost_model);
        let _ = writeln!(out, "relations:   {}", self.relations);
        let _ = writeln!(out, "cost:        {:e}", self.result.cost);
        let _ = writeln!(out, "cardinality: {:e}", self.result.cardinality);
        let _ = writeln!(out, "counters:    {}", self.result.counters);
        let _ = writeln!(
            out,
            "dp table:    {} entries, {} plans built",
            self.result.table_size, self.result.plans_built
        );
        let _ = writeln!(
            out,
            "decisions:   {} sets, {} candidates, {} pruned",
            self.records.len(),
            self.total_candidates(),
            self.pruned_sets()
        );
        out.push('\n');
        out.push_str(&self.result.tree.render_ascii_with(name_of));
        out.push('\n');
        let _ = writeln!(out, "decision records (DP order):");
        for set in self.decision_sets() {
            let rec = &self.records[&set];
            let _ = write!(out, "  {}", set_label(set, name_of));
            match rec.winner {
                Some(w) => {
                    let _ = write!(out, "  <- {}", split_label(&w, name_of));
                    let _ = write!(out, "  cost={:e}", w.cost);
                }
                None => {
                    let _ = write!(out, "  <- (no winner)");
                }
            }
            let _ = write!(out, "  candidates={}", rec.candidates);
            match (rec.runner_up, rec.cost_delta()) {
                (Some(r), Some(delta)) => {
                    let _ = write!(
                        out,
                        "  runner-up {} Δ={:e}",
                        split_label(&r, name_of),
                        delta
                    );
                }
                _ => {
                    let _ = write!(out, "  (no runner-up)");
                }
            }
            if let Some(reason) = rec.pruned {
                let _ = write!(out, "  pruned={reason}");
            }
            out.push('\n');
        }
        out
    }

    /// The plan as a Graphviz DOT digraph (see
    /// [`JoinTree::render_dot_with`]).
    pub fn render_dot(&self, name_of: &dyn Fn(RelIdx) -> String) -> String {
        self.result.tree.render_dot_with(name_of)
    }

    /// The stable JSON document: algorithm, result summary, the plan as
    /// a nested object and the decision table in DP order. Key order is
    /// fixed and map iteration is `BTreeMap`-ordered, so equal inputs
    /// produce byte-equal documents.
    pub fn to_json(&self, name_of: &dyn Fn(RelIdx) -> String) -> String {
        let mut s = String::from("{\"algorithm\":");
        write_escaped(&mut s, self.algorithm);
        s.push_str(",\"cost_model\":");
        write_escaped(&mut s, self.cost_model);
        let _ = write!(s, ",\"relations\":{}", self.relations);
        s.push_str(",\"cost\":");
        write_f64(&mut s, self.result.cost);
        s.push_str(",\"cardinality\":");
        write_f64(&mut s, self.result.cardinality);
        let c = &self.result.counters;
        let _ = write!(
            s,
            ",\"counters\":{{\"inner\":{},\"csg_cmp_pairs\":{},\"ono_lohman\":{}}}",
            c.inner, c.csg_cmp_pairs, c.ono_lohman
        );
        let _ = write!(
            s,
            ",\"table\":{{\"entries\":{},\"plans_built\":{}}}",
            self.result.table_size, self.result.plans_built
        );
        s.push_str(",\"plan\":");
        write_plan_json(&mut s, &self.result.tree, name_of);
        s.push_str(",\"decisions\":[");
        for (i, set) in self.decision_sets().into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let rec = &self.records[&set];
            let _ = write!(s, "{{\"set\":");
            write_set_json(&mut s, set, name_of);
            let _ = write!(s, ",\"bits\":{set}");
            if let Some(w) = rec.winner {
                s.push_str(",\"winner\":");
                write_split_json(&mut s, &w, name_of);
            }
            if let Some(r) = rec.runner_up {
                s.push_str(",\"runner_up\":");
                write_split_json(&mut s, &r, name_of);
            }
            if let Some(delta) = rec.cost_delta() {
                s.push_str(",\"cost_delta\":");
                write_f64(&mut s, delta);
            }
            let _ = write!(s, ",\"candidates\":{}", rec.candidates);
            if let Some(reason) = rec.pruned {
                s.push_str(",\"pruned\":");
                write_escaped(&mut s, reason);
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

fn set_label(bits: u64, name_of: &dyn Fn(RelIdx) -> String) -> String {
    let parts: Vec<String> = RelSet::from_bits(bits).iter().map(name_of).collect();
    format!("{{{}}}", parts.join(","))
}

fn split_label(split: &SplitChoice, name_of: &dyn Fn(RelIdx) -> String) -> String {
    format!(
        "{} ⋈ {}",
        set_label(split.left, name_of),
        set_label(split.right, name_of)
    )
}

fn write_set_json(s: &mut String, bits: u64, name_of: &dyn Fn(RelIdx) -> String) {
    s.push('[');
    for (i, r) in RelSet::from_bits(bits).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_escaped(s, &name_of(r));
    }
    s.push(']');
}

fn write_split_json(s: &mut String, split: &SplitChoice, name_of: &dyn Fn(RelIdx) -> String) {
    s.push_str("{\"left\":");
    write_set_json(s, split.left, name_of);
    s.push_str(",\"right\":");
    write_set_json(s, split.right, name_of);
    s.push_str(",\"cost\":");
    write_f64(s, split.cost);
    s.push('}');
}

fn write_plan_json(s: &mut String, tree: &JoinTree, name_of: &dyn Fn(RelIdx) -> String) {
    match tree {
        JoinTree::Scan {
            relation,
            cardinality,
        } => {
            s.push_str("{\"scan\":");
            write_escaped(s, &name_of(*relation));
            s.push_str(",\"cardinality\":");
            write_f64(s, *cardinality);
            s.push('}');
        }
        JoinTree::Join {
            left,
            right,
            cardinality,
            cost,
        } => {
            s.push_str("{\"cardinality\":");
            write_f64(s, *cardinality);
            s.push_str(",\"cost\":");
            write_f64(s, *cost);
            s.push_str(",\"left\":");
            write_plan_json(s, left, name_of);
            s.push_str(",\"right\":");
            write_plan_json(s, right, name_of);
            s.push('}');
        }
    }
}

/// How two runs' decisions for the same set differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Different partitions of the set (genuinely different subplans).
    Split,
    /// Same partition, swapped operand orientation.
    Orientation,
}

/// One set where the two compared runs committed different decisions.
#[derive(Debug, Clone)]
pub struct DecisionDivergence {
    /// The relation set (bitmask) whose decision differs.
    pub set: u64,
    /// Split vs orientation difference.
    pub kind: DivergenceKind,
    /// The first run's decision record.
    pub a: DecisionRecord,
    /// The second run's decision record.
    pub b: DecisionRecord,
}

/// The result of [`compare`]: summary statistics plus every divergent
/// decision in DP order.
#[derive(Debug, Clone)]
pub struct ExplainDiff {
    /// Report name of the first run's algorithm.
    pub algorithm_a: &'static str,
    /// Report name of the second run's algorithm.
    pub algorithm_b: &'static str,
    /// Optimal cost of each run.
    pub costs: (f64, f64),
    /// One-line infix renderings of the two plans.
    pub plans: (String, String),
    /// Whether the two join trees are identical.
    pub same_plan: bool,
    /// Sets both runs recorded a decision for.
    pub shared_sets: usize,
    /// Divergent decisions in DP order (set size, then bitmask),
    /// partition differences before orientation differences.
    pub divergences: Vec<DecisionDivergence>,
}

impl ExplainDiff {
    /// The first (smallest-set) divergent decision — the root cause a
    /// bottom-up DP committed to first. Partition differences rank
    /// before orientation-only differences.
    pub fn first_divergence(&self) -> Option<&DecisionDivergence> {
        self.divergences
            .iter()
            .find(|d| d.kind == DivergenceKind::Split)
            .or_else(|| self.divergences.first())
    }

    /// Side-by-side text rendering with first-divergent-decision
    /// attribution. Deterministic.
    pub fn render_text(&self) -> String {
        self.render_text_with(&default_namer)
    }

    /// [`ExplainDiff::render_text`] with a caller-supplied relation
    /// namer.
    pub fn render_text_with(&self, name_of: &dyn Fn(RelIdx) -> String) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "compare: {} vs {}", self.algorithm_a, self.algorithm_b);
        let _ = writeln!(
            out,
            "cost:    {:e} vs {:e} (Δ={:e})",
            self.costs.0,
            self.costs.1,
            self.costs.1 - self.costs.0
        );
        let _ = writeln!(out, "plan a:  {}", self.plans.0);
        let _ = writeln!(out, "plan b:  {}", self.plans.1);
        let _ = writeln!(
            out,
            "plans:   {}",
            if self.same_plan {
                "identical"
            } else {
                "differ"
            }
        );
        let splits = self
            .divergences
            .iter()
            .filter(|d| d.kind == DivergenceKind::Split)
            .count();
        let _ = writeln!(
            out,
            "shared:  {} sets, {} divergent ({} split, {} orientation)",
            self.shared_sets,
            self.divergences.len(),
            splits,
            self.divergences.len() - splits
        );
        if let Some(d) = self.first_divergence() {
            let kind = match d.kind {
                DivergenceKind::Split => "split",
                DivergenceKind::Orientation => "orientation",
            };
            let _ = writeln!(
                out,
                "first divergent decision: {} ({kind})",
                set_label(d.set, name_of)
            );
            for (label, rec) in [("a", &d.a), ("b", &d.b)] {
                if let Some(w) = rec.winner {
                    let _ = write!(
                        out,
                        "  {label}: {}  cost={:e}  candidates={}",
                        split_label(&w, name_of),
                        w.cost,
                        rec.candidates
                    );
                    if let Some(delta) = rec.cost_delta() {
                        let _ = write!(out, "  runner-up Δ={delta:e}");
                    }
                    out.push('\n');
                }
            }
            if let (Some(wa), Some(wb)) = (d.a.winner, d.b.winner) {
                if wa.cost.to_bits() == wb.cost.to_bits() {
                    let _ = writeln!(
                        out,
                        "  equal-cost candidates: tie broken by enumeration order"
                    );
                }
            }
        } else if self.same_plan {
            let _ = writeln!(out, "no divergent decisions");
        }
        out
    }

    /// The stable JSON document for a comparison: both runs' costs and
    /// plans plus every divergent decision in DP order.
    pub fn to_json(&self, name_of: &dyn Fn(RelIdx) -> String) -> String {
        let mut s = String::from("{\"algorithms\":[");
        write_escaped(&mut s, self.algorithm_a);
        s.push(',');
        write_escaped(&mut s, self.algorithm_b);
        s.push_str("],\"costs\":[");
        write_f64(&mut s, self.costs.0);
        s.push(',');
        write_f64(&mut s, self.costs.1);
        s.push_str("],\"plans\":[");
        write_escaped(&mut s, &self.plans.0);
        s.push(',');
        write_escaped(&mut s, &self.plans.1);
        let _ = write!(
            s,
            "],\"same_plan\":{},\"shared_sets\":{},\"divergences\":[",
            self.same_plan, self.shared_sets
        );
        for (i, d) in self.divergences.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"set\":");
            write_set_json(&mut s, d.set, name_of);
            let _ = write!(s, ",\"bits\":{}", d.set);
            s.push_str(",\"kind\":");
            write_escaped(
                &mut s,
                match d.kind {
                    DivergenceKind::Split => "split",
                    DivergenceKind::Orientation => "orientation",
                },
            );
            for (label, rec) in [("a", &d.a), ("b", &d.b)] {
                if let Some(w) = rec.winner {
                    let _ = write!(s, ",\"{label}\":");
                    write_split_json(&mut s, &w, name_of);
                }
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// Lines two explanations up decision-by-decision.
///
/// Only sets *both* runs recorded are compared — different algorithms
/// legitimately enumerate different portions of the search space (the
/// top-down search memoizes lazily, IDP re-plans blocks), so a set
/// known to one side only is not a divergence.
pub fn compare(a: &Explanation, b: &Explanation) -> ExplainDiff {
    let mut divergences = Vec::new();
    let mut shared = 0usize;
    for (&set, ra) in &a.records {
        let Some(rb) = b.records.get(&set) else {
            continue;
        };
        shared += 1;
        let (Some(wa), Some(wb)) = (ra.winner, rb.winner) else {
            continue;
        };
        let kind = if wa.left == wb.left && wa.right == wb.right {
            continue;
        } else if wa.left == wb.right && wa.right == wb.left {
            DivergenceKind::Orientation
        } else {
            DivergenceKind::Split
        };
        divergences.push(DecisionDivergence {
            set,
            kind,
            a: *ra,
            b: *rb,
        });
    }
    divergences.sort_by_key(|d| (d.set.count_ones(), d.set));
    ExplainDiff {
        algorithm_a: a.algorithm,
        algorithm_b: b.algorithm,
        costs: (a.result.cost, b.result.cost),
        plans: (a.result.tree.to_string(), b.result.tree.to_string()),
        same_plan: a.result.tree == b.result.tree,
        shared_sets: shared,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_cost::{workload, Cout};
    use joinopt_qgraph::GraphKind;
    use joinopt_telemetry::json::JsonValue;

    #[test]
    fn capture_explains_a_run_and_serializes_deterministically() {
        let w = workload::family_workload(GraphKind::Star, 6, 0);
        let e = Explanation::capture(&w.graph, &w.catalog, &Cout, &crate::DpCcp).unwrap();
        assert_eq!(e.algorithm, "DPccp");
        assert_eq!(e.relations, 6);
        assert!(!e.records.is_empty());

        let text = e.render_text(&default_namer);
        assert!(text.contains("algorithm:   DPccp"), "{text}");
        assert!(text.contains("decision records (DP order):"), "{text}");

        let json = e.to_json(&default_namer);
        let v = JsonValue::parse(&json).unwrap_or_else(|err| panic!("{err}: {json}"));
        assert_eq!(v.get("algorithm").unwrap().as_str(), Some("DPccp"));
        assert_eq!(
            v.get("decisions").unwrap().as_array().unwrap().len(),
            e.records.len()
        );
        // Byte-equal on a second capture: the document is stable.
        let again = Explanation::capture(&w.graph, &w.catalog, &Cout, &crate::DpCcp).unwrap();
        assert_eq!(json, again.to_json(&default_namer));

        let dot = e.render_dot(&default_namer);
        assert!(dot.starts_with("digraph plan {"), "{dot}");
    }

    #[test]
    fn identical_runs_compare_clean() {
        let w = workload::family_workload(GraphKind::Chain, 6, 1);
        let a = Explanation::capture(&w.graph, &w.catalog, &Cout, &crate::DpSize).unwrap();
        let b = Explanation::capture(&w.graph, &w.catalog, &Cout, &crate::DpSize).unwrap();
        let diff = compare(&a, &b);
        assert!(diff.same_plan);
        assert!(diff.divergences.is_empty());
        assert_eq!(diff.first_divergence().map(|d| d.set), None);
        assert!(diff.render_text().contains("no divergent decisions"));
    }

    #[test]
    fn tie_rich_instances_attribute_the_first_divergent_decision() {
        // All-equal cardinalities and selectivities: every split of
        // every set ties, so plan choice is pure enumeration order and
        // algorithms legitimately part ways.
        let mut src = String::new();
        for i in 0..6 {
            src.push_str(&format!("relation R{i} 1000\n"));
        }
        for i in 0..5 {
            src.push_str(&format!("join R{i} R{} 0.1\n", i + 1));
        }
        let q = joinopt_query::parse(&src).unwrap();
        let g = q.graph().unwrap();
        let a = Explanation::capture(g, &q.catalog, &Cout, &crate::DpSize).unwrap();
        let b = Explanation::capture(g, &q.catalog, &Cout, &crate::DpCcp).unwrap();
        assert_eq!(a.result.cost.to_bits(), b.result.cost.to_bits());
        let diff = compare(&a, &b);
        if let Some(d) = diff.first_divergence() {
            // The first divergence must be minimal: no smaller shared
            // set diverges.
            for other in &diff.divergences {
                assert!(other.set.count_ones() >= d.set.count_ones());
            }
            // On an all-ties instance the winners cost the same.
            let (wa, wb) = (d.a.winner.unwrap(), d.b.winner.unwrap());
            assert_eq!(wa.cost.to_bits(), wb.cost.to_bits());
            let text = diff.render_text();
            assert!(text.contains("first divergent decision"), "{text}");
            assert!(text.contains("tie broken by enumeration order"), "{text}");
        } else {
            // If the two algorithms happened to agree everywhere the
            // plans must actually be identical.
            assert!(diff.same_plan);
        }
    }
}
