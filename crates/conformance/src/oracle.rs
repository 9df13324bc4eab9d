//! The differential oracle: every registered optimizer against every
//! other one, plus plan validation and counter cross-checks.
//!
//! Comparison policy (what "agree" means, and why):
//!
//! * **Across algorithm families** (DPsize vs DPsub vs DPccp vs DPconv
//!   vs top-down vs DPhyp vs the exhaustive oracle) the optimal *cost*
//!   must agree within a `1e-9` relative tolerance. The algorithms sum
//!   the same per-plan terms in different orders, so the last few bits
//!   may legitimately differ; anything beyond rounding noise is a bug.
//! * **Counters** are deterministic properties of the graph, not the
//!   statistics: they must *equal* the paper's Section 2.3.2 closed
//!   forms (for the four closed-form families) and the csg-profile
//!   predictions (for every connected graph).

use joinopt_core::formulas::{
    dpsize_inner_from_profile, dpsize_naive_inner_from_profile, dpsub_inner_from_profile,
    dpsub_unfiltered_inner,
};
use joinopt_core::{exhaustive, Algorithm, DpHyp, DpResult, OptimizeError};
use joinopt_cost::Cout;
use joinopt_plan::JoinTree;
use joinopt_qgraph::hypergraph::Hypergraph;
use joinopt_qgraph::profile::CsgProfile;
use joinopt_qgraph::{csg, formulas as qformulas, QueryGraph};
use joinopt_relset::RelSet;

use crate::generator::Instance;

/// One conformance failure: which check tripped and a human-readable
/// account of the disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Stable label of the failed check (the shrinking minimizer keeps
    /// only candidates that reproduce the *same* label).
    pub check: &'static str,
    /// What disagreed with what.
    pub detail: String,
}

impl core::fmt::Display for Divergence {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

impl std::error::Error for Divergence {}

/// Largest instance the brute-force exhaustive oracle runs on.
pub const EXHAUSTIVE_MAX_N: usize = 9;

/// Relative tolerance for cost agreement across algorithm *families*.
pub const COST_TOLERANCE: f64 = 1e-9;

fn diverge(check: &'static str, detail: String) -> Divergence {
    Divergence { check, detail }
}

fn costs_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= COST_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// Serializes a join tree to a canonical string so shape differences
/// cannot hide behind equal costs.
fn shape(t: &JoinTree) -> String {
    match t {
        JoinTree::Scan { relation, .. } => format!("R{relation}"),
        JoinTree::Join { left, right, .. } => format!("({} {})", shape(left), shape(right)),
    }
}

/// The exact cross-product-free algorithms the oracle differentials,
/// with their report names.
const EXACT: [(Algorithm, &str); 7] = [
    (Algorithm::DpSize, "DPsize"),
    (Algorithm::DpSizeNaive, "DPsize-naive"),
    (Algorithm::DpSub, "DPsub"),
    (Algorithm::DpSubUnfiltered, "DPsub-nofilter"),
    (Algorithm::DpCcp, "DPccp"),
    (Algorithm::DpConv, "DPconv"),
    (Algorithm::TopDown, "top-down"),
];

/// Largest instance the `O(2^n · n²)` ranked-subset-convolution counter
/// cross-check runs on (the transform allocates `(n+1) · 2^n` words).
pub const RANKED_CHECK_MAX_N: usize = 16;

/// Runs the full differential matrix on one instance.
///
/// Connected instances get the complete treatment; single-relation and
/// disconnected instances check the edge-case contracts instead (every
/// algorithm produces the lone scan, resp. every cross-product-free
/// algorithm refuses while the cross-product variant still plans).
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_instance(inst: &Instance) -> Result<(), Divergence> {
    check_instance_observed(inst, &joinopt_telemetry::NoopObserver)
}

/// [`check_instance`] with telemetry: the reference DPccp run on each
/// connected instance reports its events to `obs`, so a fuzz campaign's
/// enumeration work is visible to metrics and traces (the other matrix
/// runs stay unobserved — they re-derive the same answer and would only
/// multiply every counter).
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_instance_observed(
    inst: &Instance,
    obs: &dyn joinopt_telemetry::Observer,
) -> Result<(), Divergence> {
    let g = &inst.graph;
    let n = g.num_relations();
    if n == 1 {
        return check_singleton(inst);
    }
    if !g.is_connected() {
        return check_disconnected(inst);
    }

    let run = |alg: Algorithm, label: &str| -> Result<DpResult, Divergence> {
        alg.orderer(g)
            .optimize(g, &inst.catalog, &Cout)
            .map_err(|e| {
                diverge(
                    "optimizer-error",
                    format!("{}: {label} failed on a connected instance: {e}", inst.name),
                )
            })
    };

    // 1. Every exact algorithm agrees on the optimal cost and returns a
    //    valid, cross-product-free plan of that cost.
    let reference = Algorithm::DpCcp
        .orderer(g)
        .optimize_observed(g, &inst.catalog, &Cout, obs)
        .map_err(|e| {
            diverge(
                "optimizer-error",
                format!("{}: DPccp failed on a connected instance: {e}", inst.name),
            )
        })?;
    validate_tree(inst, &reference.tree, "DPccp", true)?;
    let mut results: Vec<(&str, DpResult)> = Vec::new();
    for (alg, label) in EXACT {
        let r = if alg == Algorithm::DpCcp {
            reference.clone()
        } else {
            let r = run(alg, label)?;
            validate_tree(inst, &r.tree, label, true)?;
            if !costs_agree(r.cost, reference.cost) {
                return Err(diverge(
                    "optimal-cost",
                    format!(
                        "{}: {label} found cost {:e} but DPccp found {:e}",
                        inst.name, r.cost, reference.cost
                    ),
                ));
            }
            r
        };
        results.push((label, r));
    }

    // 2. The cross-product variant may only improve on the constrained
    //    optimum, and its plan must still cover every relation.
    let cp = run(Algorithm::DpSubCrossProducts, "DPsub-cp")?;
    validate_tree(inst, &cp.tree, "DPsub-cp", false)?;
    if cp.cost > reference.cost * (1.0 + COST_TOLERANCE) {
        return Err(diverge(
            "optimal-cost",
            format!(
                "{}: DPsub-cp (larger search space) found cost {:e} above DPccp's {:e}",
                inst.name, cp.cost, reference.cost
            ),
        ));
    }

    // 3. GOO is heuristic: valid and never better than optimal.
    let goo = run(Algorithm::Goo, "GOO")?;
    validate_tree(inst, &goo.tree, "GOO", true)?;
    if goo.cost < reference.cost * (1.0 - COST_TOLERANCE) {
        return Err(diverge(
            "optimal-cost",
            format!(
                "{}: GOO (heuristic) found cost {:e} below the optimum {:e}",
                inst.name, goo.cost, reference.cost
            ),
        ));
    }

    // 4. DPhyp on the equivalent singleton-edge hypergraph.
    let hyper = singleton_hypergraph(g).map_err(|e| {
        diverge(
            "dphyp",
            format!("{}: hypergraph conversion failed: {e}", inst.name),
        )
    })?;
    let hyp = DpHyp
        .optimize(&hyper, &inst.catalog, &Cout)
        .map_err(|e| diverge("dphyp", format!("{}: DPhyp failed: {e}", inst.name)))?;
    if !costs_agree(hyp.cost, reference.cost) {
        return Err(diverge(
            "dphyp",
            format!(
                "{}: DPhyp found cost {:e} but DPccp found {:e}",
                inst.name, hyp.cost, reference.cost
            ),
        ));
    }

    // 5. The structurally independent exhaustive oracle, for small n.
    if n <= EXHAUSTIVE_MAX_N {
        let exact = exhaustive::optimal_cost(g, &inst.catalog, &Cout).map_err(|e| {
            diverge(
                "exhaustive",
                format!("{}: exhaustive oracle failed: {e}", inst.name),
            )
        })?;
        if !costs_agree(exact, reference.cost) {
            return Err(diverge(
                "exhaustive",
                format!(
                    "{}: exhaustive oracle found cost {:e} but DPccp found {:e}",
                    inst.name, exact, reference.cost
                ),
            ));
        }
        let exact_cp = exhaustive::optimal_cost_with_cross_products(g, &inst.catalog, &Cout)
            .map_err(|e| {
                diverge(
                    "exhaustive",
                    format!("{}: exhaustive cross-product oracle failed: {e}", inst.name),
                )
            })?;
        if !costs_agree(exact_cp, cp.cost) {
            return Err(diverge(
                "exhaustive",
                format!(
                    "{}: exhaustive cross-product optimum {:e} but DPsub-cp found {:e}",
                    inst.name, exact_cp, cp.cost
                ),
            ));
        }
    }

    // 6. Counter cross-validation against the Section 2.3.2 analysis.
    check_counters(inst, &results)
}

/// n = 1: every algorithm returns the lone scan at zero cost.
fn check_singleton(inst: &Instance) -> Result<(), Divergence> {
    let g = &inst.graph;
    let card = inst.catalog.cardinality(0);
    for (alg, label) in EXACT {
        let r = alg
            .orderer(g)
            .optimize(g, &inst.catalog, &Cout)
            .map_err(|e| {
                diverge(
                    "singleton",
                    format!("{}: {label} failed on a single relation: {e}", inst.name),
                )
            })?;
        let ok = matches!(
            r.tree,
            JoinTree::Scan { relation: 0, cardinality } if cardinality.to_bits() == card.to_bits()
        );
        if !ok || r.cost != 0.0 {
            return Err(diverge(
                "singleton",
                format!(
                    "{}: {label} returned {} at cost {:e} instead of the lone scan at 0",
                    inst.name,
                    shape(&r.tree),
                    r.cost
                ),
            ));
        }
    }
    Ok(())
}

/// Disconnected: the cross-product-free algorithms must refuse with the
/// typed error; the cross-product variant must still produce a plan
/// covering every relation.
fn check_disconnected(inst: &Instance) -> Result<(), Divergence> {
    let g = &inst.graph;
    for (alg, label) in EXACT {
        match alg.orderer(g).optimize(g, &inst.catalog, &Cout) {
            Err(OptimizeError::NoPlanWithoutCrossProducts | OptimizeError::Graph(_)) => {}
            Err(e) => {
                return Err(diverge(
                    "disconnected",
                    format!(
                        "{}: {label} failed with `{e}` instead of the disconnected error",
                        inst.name
                    ),
                ))
            }
            Ok(r) => {
                return Err(diverge(
                    "disconnected",
                    format!(
                        "{}: {label} produced {} for a disconnected graph",
                        inst.name,
                        shape(&r.tree)
                    ),
                ))
            }
        }
    }
    let cp = Algorithm::DpSubCrossProducts
        .orderer(g)
        .optimize(g, &inst.catalog, &Cout)
        .map_err(|e| {
            diverge(
                "disconnected",
                format!(
                    "{}: DPsub-cp must plan disconnected graphs but failed: {e}",
                    inst.name
                ),
            )
        })?;
    validate_tree(inst, &cp.tree, "DPsub-cp", false)
}

/// Counter cross-validation: instrumented runs ⇔ csg-profile
/// predictions ⇔ (for the four closed-form families) the paper's
/// Section 2.3.2 formulas.
fn check_counters(inst: &Instance, results: &[(&str, DpResult)]) -> Result<(), Divergence> {
    let g = &inst.graph;
    let n = g.num_relations() as u64;
    let profile = CsgProfile::compute(g);
    let csgs = csg::count_csg(g);
    let ccps = csg::count_ccp_distinct(g);

    let expect = |label: &str, what: &str, got: u128, want: u128| -> Result<(), Divergence> {
        if got != want {
            return Err(diverge(
                "counters",
                format!(
                    "{}: {label} {what} = {got}, analysis says {want}",
                    inst.name
                ),
            ));
        }
        Ok(())
    };

    for (label, r) in results {
        // Top-down is branch-and-bound: pruning legitimately skips
        // pairs and table entries, so only its cost and plan validity
        // are checked (done by the differential pass above).
        if *label == "top-down" {
            continue;
        }
        // #ccp is a property of the graph: identical for every exact
        // bottom-up algorithm, twice the unordered Ono/Lohman count.
        expect(
            label,
            "csgCmpPairs",
            r.counters.csg_cmp_pairs.into(),
            (2 * ccps).into(),
        )?;
        expect(
            label,
            "onoLohman",
            r.counters.ono_lohman.into(),
            ccps.into(),
        )?;
        // Every exact no-cross-product bottom-up algorithm materializes
        // plans for exactly the connected subsets.
        expect(label, "table size", r.table_size as u128, csgs.into())?;
        let inner = u128::from(r.counters.inner);
        match *label {
            "DPsize" => expect(label, "inner", inner, dpsize_inner_from_profile(&profile))?,
            "DPsize-naive" => expect(
                label,
                "inner",
                inner,
                dpsize_naive_inner_from_profile(&profile),
            )?,
            "DPsub" => expect(label, "inner", inner, dpsub_inner_from_profile(&profile))?,
            "DPsub-nofilter" => expect(label, "inner", inner, dpsub_unfiltered_inner(n))?,
            "DPccp" => expect(label, "inner", inner, ccps.into())?,
            _ => {}
        }
    }

    // An algorithm-independent re-derivation of #ccp through DPconv's
    // own algebra: convolve the connectivity indicator with itself via
    // the exact O(2^n · n²) ranked zeta/Möbius transform. For each
    // connected S, h[S] counts the ordered pairs of disjoint non-empty
    // connected sets covering S — each of which has a cross edge
    // (otherwise S would be disconnected), i.e. exactly the ordered
    // csg-cmp-pairs. Every enumeration algorithm above and the ranked
    // transform must therefore land on the same total.
    if g.num_relations() <= RANKED_CHECK_MAX_N {
        let size = 1usize << g.num_relations();
        let indicator: Vec<i64> = (0..size)
            .map(|s| {
                let set = RelSet::from_bits(s as u64);
                i64::from(!set.is_empty() && g.is_connected_set(set))
            })
            .collect();
        let h = joinopt_core::transform::ranked_subset_convolution(&indicator, &indicator);
        let ordered: i64 = (0..size).filter(|&s| indicator[s] == 1).map(|s| h[s]).sum();
        expect(
            "ranked transform",
            "ordered ccp total",
            ordered as u128,
            (2 * ccps).into(),
        )?;
    }

    // The four paper families additionally have closed forms in n.
    if let Some(kind) = inst.kind {
        expect(
            "closed form",
            "#csg",
            csgs.into(),
            qformulas::csg_count(kind, n),
        )?;
        expect(
            "closed form",
            "#ccp",
            ccps.into(),
            qformulas::ccp_distinct(kind, n),
        )?;
    }
    Ok(())
}

/// Validates plan structure: full coverage, n−1 joins, finite stats,
/// scan cardinalities straight from the catalog, and (for
/// `require_connected`) cross-product freedom — both operands of every
/// join connect through an edge of the graph.
fn validate_tree(
    inst: &Instance,
    tree: &JoinTree,
    label: &str,
    require_connected: bool,
) -> Result<(), Divergence> {
    let g = &inst.graph;
    if tree.relations() != g.all_relations() {
        return Err(diverge(
            "plan-validity",
            format!(
                "{}: {label} plan covers {:?}, query has {:?}",
                inst.name,
                tree.relations(),
                g.all_relations()
            ),
        ));
    }
    if tree.num_joins() != g.num_relations() - 1 {
        return Err(diverge(
            "plan-validity",
            format!(
                "{}: {label} plan has {} joins for {} relations",
                inst.name,
                tree.num_joins(),
                g.num_relations()
            ),
        ));
    }
    if !tree.cost().is_finite() || !tree.cardinality().is_finite() {
        return Err(diverge(
            "plan-validity",
            format!("{}: {label} plan has non-finite statistics", inst.name),
        ));
    }
    walk(inst, g, tree, label, require_connected).map(|_| ())
}

/// Recursive walk: returns the subtree's relation set after checking it.
fn walk(
    inst: &Instance,
    g: &QueryGraph,
    tree: &JoinTree,
    label: &str,
    require_connected: bool,
) -> Result<RelSet, Divergence> {
    match tree {
        JoinTree::Scan {
            relation,
            cardinality,
        } => {
            let want = inst.catalog.cardinality(*relation);
            if cardinality.to_bits() != want.to_bits() {
                return Err(diverge(
                    "plan-validity",
                    format!(
                        "{}: {label} scan of R{relation} claims cardinality {:e}, catalog says {:e}",
                        inst.name, cardinality, want
                    ),
                ));
            }
            Ok(RelSet::single(*relation))
        }
        JoinTree::Join { left, right, .. } => {
            let ls = walk(inst, g, left, label, require_connected)?;
            let rs = walk(inst, g, right, label, require_connected)?;
            if ls.overlaps(rs) {
                return Err(diverge(
                    "plan-validity",
                    format!(
                        "{}: {label} join reuses relations ({:?} ∩ {:?})",
                        inst.name, ls, rs
                    ),
                ));
            }
            if require_connected && !g.sets_connected(ls, rs) {
                return Err(diverge(
                    "cross-product-free",
                    format!(
                        "{}: {label} joins {:?} with {:?} without a connecting edge",
                        inst.name, ls, rs
                    ),
                ));
            }
            Ok(ls.union(rs))
        }
    }
}

/// Converts a simple graph to the equivalent hypergraph (one
/// singleton-set edge per graph edge, same edge ids so the catalog's
/// selectivities line up).
fn singleton_hypergraph(g: &QueryGraph) -> Result<Hypergraph, String> {
    let mut h = Hypergraph::new(g.num_relations()).map_err(|e| e.to_string())?;
    for e in g.edges() {
        h.add_edge(RelSet::single(e.u), RelSet::single(e.v))
            .map_err(|e| e.to_string())?;
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{self, generate_instance};

    #[test]
    fn clean_instances_pass() {
        for index in 0..12 {
            let inst = generate_instance(2006, index, 8);
            check_instance(&inst).unwrap_or_else(|d| panic!("{}: {d}", inst.name));
        }
    }

    #[test]
    fn tie_rich_instances_pass_without_injection() {
        for n in [3, 5, 8] {
            let inst = generator::tie_rich_chain(n);
            check_instance(&inst).unwrap_or_else(|d| panic!("{}: {d}", inst.name));
        }
    }

    #[test]
    fn corrupt_catalog_statistics_are_caught() {
        // A scan cardinality that doesn't match the catalog is the kind
        // of divergence the plan-validity check exists for; simulate it
        // by validating a plan against a different catalog.
        let inst = generator::tie_rich_chain(4);
        let r = Algorithm::DpCcp
            .orderer(&inst.graph)
            .optimize(&inst.graph, &inst.catalog, &Cout)
            .expect("chain-4 optimizes");
        let mut other = inst.clone();
        other
            .catalog
            .set_cardinality(0, 999.0)
            .expect("valid cardinality");
        let d = validate_tree(&other, &r.tree, "DPccp", true).unwrap_err();
        assert_eq!(d.check, "plan-validity");
        assert!(d.detail.contains("catalog says"), "{d}");
    }

    #[test]
    fn disconnected_contract_is_enforced() {
        let mut g = QueryGraph::new(3).expect("size ok");
        g.add_edge(0, 1).expect("edge ok");
        let catalog = generator::uniform_catalog(&g);
        let inst = Instance {
            name: "disconnected-3".into(),
            seed: 0,
            kind: None,
            graph: g,
            catalog,
        };
        check_instance(&inst).unwrap_or_else(|d| panic!("{d}"));
    }

    #[test]
    fn singleton_contract_is_enforced() {
        let g = QueryGraph::new(1).expect("size ok");
        let catalog = generator::uniform_catalog(&g);
        let inst = Instance {
            name: "single-1".into(),
            seed: 0,
            kind: None,
            graph: g,
            catalog,
        };
        check_instance(&inst).unwrap_or_else(|d| panic!("{d}"));
    }
}
