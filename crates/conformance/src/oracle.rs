//! The differential oracle: every registered optimizer against every
//! other one, plus plan validation and counter cross-checks.
//!
//! Comparison policy (what "agree" means, and why):
//!
//! * **Across algorithm families** (DPsize vs DPsub vs DPccp vs DPconv
//!   vs top-down vs DPhyp vs the exhaustive oracle) the optimal *cost*
//!   must be the same f64, bit for bit. Every engine prices a set with
//!   the estimator's set-only cardinality fold and a join with one
//!   pair-cost kernel, `(left.cost + right.cost) + operator term`, so a
//!   tree's cost depends on the tree alone; and since f64 addition and
//!   multiplication are monotone, every exact DP returns the f64
//!   minimum over all trees. A differing bit is a bug.
//! * **Ordered bounds** are exact too: the cross-product search space
//!   contains every cross-product-free tree, so DPsub-cp's optimum is
//!   `<=` DPccp's; GOO, IDP and left-deep DP return some tree, so their
//!   cost is `>=` it.
//! * **Every plan re-costs to itself**: each join's stored cardinality
//!   and cost equal the fold and [`CostModel::join_cost`] re-derived
//!   from its children, bit for bit, and the result's cost is the
//!   root's.
//! * **Asymmetric models**: the exact engines other than DPconv (which
//!   refuses non-`C_out` models) also agree bit for bit under
//!   [`HashJoin`], whose build/probe roles make orientation matter.
//! * **Counters** are deterministic properties of the graph, not the
//!   statistics: they must *equal* the paper's Section 2.3.2 closed
//!   forms (for the four closed-form families) and the csg-profile
//!   predictions (for every connected graph).

use joinopt_core::formulas::{
    dpsize_inner_from_profile, dpsize_naive_inner_from_profile, dpsub_inner_from_profile,
    dpsub_unfiltered_inner,
};
use joinopt_core::greedy::Goo;
use joinopt_core::{
    exhaustive, DpCcp, DpConv, DpHyp, DpResult, DpSize, DpSizeLeftDeep, DpSizeNaive, DpSub,
    DpSubCrossProducts, DpSubUnfiltered, Idp, JoinOrderer, OptimizeError, TopDown,
};
use joinopt_cost::{CardinalityEstimator, CostModel, Cout, HashJoin, PlanStats};
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

fn diverge(check: &'static str, detail: String) -> Divergence {
    Divergence { check, detail }
}

/// Bit-for-bit cost agreement of `label` with `reference`.
fn same_cost(
    check: &'static str,
    inst: &Instance,
    (label, cost): (&str, f64),
    (reference, want): (&str, f64),
) -> Result<(), Divergence> {
    if cost.to_bits() == want.to_bits() {
        return Ok(());
    }
    Err(diverge(
        check,
        format!(
            "{}: {label} found cost {cost:e} but {reference} found {want:e}",
            inst.name
        ),
    ))
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
pub(crate) const EXACT: [(&dyn JoinOrderer, &str); 7] = [
    (&DpSize, "DPsize"),
    (&DpSizeNaive, "DPsize-naive"),
    (&DpSub, "DPsub"),
    (&DpSubUnfiltered, "DPsub-nofilter"),
    (&DpCcp, "DPccp"),
    (&DpConv, "DPconv"),
    (&TopDown { pruning: true }, "top-down"),
];

/// The heuristics: valid plans that re-cost exactly, never below the
/// optimum.
const HEURISTIC: [(&dyn JoinOrderer, &str); 3] = [
    (&Goo, "GOO"),
    (&Idp::with_block_size(10), "IDP"),
    (&DpSizeLeftDeep, "DPsize-leftdeep"),
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

    let est = CardinalityEstimator::new(g, &inst.catalog).map_err(|e| {
        diverge(
            "optimizer-error",
            format!("{}: the estimator rejected the catalog: {e}", inst.name),
        )
    })?;
    let run = |orderer: &dyn JoinOrderer, label: &str, model: &dyn CostModel| {
        orderer.optimize(g, &inst.catalog, model).map_err(|e| {
            diverge(
                "optimizer-error",
                format!("{}: {label} failed on a connected instance: {e}", inst.name),
            )
        })
    };

    // 1. Every exact algorithm finds the same optimal cost bits and
    //    returns a valid, cross-product-free plan of that cost.
    let reference = DpCcp
        .optimize_observed(g, &inst.catalog, &Cout, obs)
        .map_err(|e| {
            diverge(
                "optimizer-error",
                format!("{}: DPccp failed on a connected instance: {e}", inst.name),
            )
        })?;
    validate(inst, &est, &Cout, &reference, "DPccp", true)?;
    let optimum = ("DPccp", reference.cost);
    let mut results: Vec<(&str, DpResult)> = Vec::new();
    for (alg, label) in EXACT {
        let r = if label == "DPccp" {
            reference.clone()
        } else {
            let r = run(alg, label, &Cout)?;
            validate(inst, &est, &Cout, &r, label, true)?;
            same_cost("optimal-cost", inst, (label, r.cost), optimum)?;
            r
        };
        results.push((label, r));
    }

    // 2. The cross-product variant may only improve on the constrained
    //    optimum, and its plan must still cover every relation.
    let cp = run(&DpSubCrossProducts, "DPsub-cp", &Cout)?;
    validate(inst, &est, &Cout, &cp, "DPsub-cp", false)?;
    if cp.cost > reference.cost {
        return Err(diverge(
            "optimal-cost",
            format!(
                "{}: DPsub-cp (larger search space) found cost {:e} above DPccp's {:e}",
                inst.name, cp.cost, reference.cost
            ),
        ));
    }

    // 3. The heuristics: valid and never better than optimal.
    for (alg, label) in HEURISTIC {
        let r = run(alg, label, &Cout)?;
        validate(inst, &est, &Cout, &r, label, true)?;
        if r.cost < reference.cost {
            return Err(diverge(
                "optimal-cost",
                format!(
                    "{}: {label} (heuristic) found cost {:e} below the optimum {:e}",
                    inst.name, r.cost, reference.cost
                ),
            ));
        }
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
    same_cost("dphyp", inst, ("DPhyp", hyp.cost), optimum)?;

    // 5. The structurally independent exhaustive oracle, for small n.
    if n <= EXHAUSTIVE_MAX_N {
        let exact = exhaustive::optimal_cost(g, &inst.catalog, &Cout).map_err(|e| {
            diverge(
                "exhaustive",
                format!("{}: exhaustive oracle failed: {e}", inst.name),
            )
        })?;
        same_cost(
            "exhaustive",
            inst,
            ("the exhaustive oracle", exact),
            optimum,
        )?;
        let exact_cp = exhaustive::optimal_cost_with_cross_products(g, &inst.catalog, &Cout)
            .map_err(|e| {
                diverge(
                    "exhaustive",
                    format!("{}: exhaustive cross-product oracle failed: {e}", inst.name),
                )
            })?;
        same_cost(
            "exhaustive",
            inst,
            ("the exhaustive cross-product oracle", exact_cp),
            ("DPsub-cp", cp.cost),
        )?;
    }

    // 6. Under the asymmetric hash-join model orientation matters; every
    //    exact engine that accepts the model still agrees bit for bit.
    let hash_reference = run(&DpCcp, "DPccp", &HashJoin)?;
    validate(inst, &est, &HashJoin, &hash_reference, "DPccp", true)?;
    for (alg, label) in EXACT {
        if label == "DPccp" || label == "DPconv" {
            continue;
        }
        let r = run(alg, label, &HashJoin)?;
        validate(inst, &est, &HashJoin, &r, label, true)?;
        same_cost(
            "asymmetric-cost",
            inst,
            (label, r.cost),
            ("DPccp", hash_reference.cost),
        )?;
    }

    // 7. Counter cross-validation against the Section 2.3.2 analysis.
    check_counters(inst, &results)
}

/// n = 1: every algorithm returns the lone scan at zero cost.
fn check_singleton(inst: &Instance) -> Result<(), Divergence> {
    let g = &inst.graph;
    let card = inst.catalog.cardinality(0);
    for (alg, label) in EXACT {
        let r = alg.optimize(g, &inst.catalog, &Cout).map_err(|e| {
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
        match alg.optimize(g, &inst.catalog, &Cout) {
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
    let cp = DpSubCrossProducts
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
    let est = CardinalityEstimator::new(g, &inst.catalog).map_err(|e| {
        diverge(
            "disconnected",
            format!("{}: the estimator rejected the catalog: {e}", inst.name),
        )
    })?;
    validate(inst, &est, &Cout, &cp, "DPsub-cp", false)
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

/// Validates a result's plan: full coverage, n−1 joins, finite stats, scan
/// cardinalities straight from the catalog, every join's stored
/// cardinality and cost re-derived from its children (the fold and
/// `model`'s [`CostModel::join_cost`], bit for bit), the result's cost
/// equal to the root's, and (for `require_connected`) cross-product
/// freedom — both operands of every join connect through an edge of
/// the graph.
fn validate(
    inst: &Instance,
    est: &CardinalityEstimator,
    model: &dyn CostModel,
    r: &DpResult,
    label: &str,
    require_connected: bool,
) -> Result<(), Divergence> {
    let g = &inst.graph;
    let tree = &r.tree;
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
    let (_, root) = walk(inst, est, model, tree, label, require_connected)?;
    if r.cost.to_bits() != root.cost.to_bits() {
        return Err(diverge(
            "plan-validity",
            format!(
                "{}: {label} reports cost {:e} for a plan that costs {:e}",
                inst.name, r.cost, root.cost
            ),
        ));
    }
    Ok(())
}

/// Recursive walk: returns the subtree's relation set and re-derived
/// stats after checking it.
fn walk(
    inst: &Instance,
    est: &CardinalityEstimator,
    model: &dyn CostModel,
    tree: &JoinTree,
    label: &str,
    require_connected: bool,
) -> Result<(RelSet, PlanStats), Divergence> {
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
            Ok((RelSet::single(*relation), PlanStats::base(want)))
        }
        JoinTree::Join {
            left,
            right,
            cardinality,
            cost,
        } => {
            let (ls, lstats) = walk(inst, est, model, left, label, require_connected)?;
            let (rs, rstats) = walk(inst, est, model, right, label, require_connected)?;
            if ls.overlaps(rs) {
                return Err(diverge(
                    "plan-validity",
                    format!(
                        "{}: {label} join reuses relations ({:?} ∩ {:?})",
                        inst.name, ls, rs
                    ),
                ));
            }
            if require_connected && !inst.graph.sets_connected(ls, rs) {
                return Err(diverge(
                    "cross-product-free",
                    format!(
                        "{}: {label} joins {:?} with {:?} without a connecting edge",
                        inst.name, ls, rs
                    ),
                ));
            }
            let set = ls.union(rs);
            let card = est.set_cardinality(set);
            let recost = model.join_cost(&lstats, &rstats, card);
            if card.to_bits() != cardinality.to_bits() || recost.to_bits() != cost.to_bits() {
                return Err(diverge(
                    "plan-validity",
                    format!(
                        "{}: {label} join {set} stores cardinality {cardinality:e} and cost \
                         {cost:e}, its children re-derive {card:e} and {recost:e}",
                        inst.name
                    ),
                ));
            }
            Ok((
                set,
                PlanStats {
                    cardinality: card,
                    cost: recost,
                },
            ))
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
        let r = DpCcp
            .optimize(&inst.graph, &inst.catalog, &Cout)
            .expect("chain-4 optimizes");
        let mut other = inst.clone();
        other
            .catalog
            .set_cardinality(0, 999.0)
            .expect("valid cardinality");
        let est = CardinalityEstimator::new(&other.graph, &other.catalog).expect("same shape");
        let d = validate(&other, &est, &Cout, &r, "DPccp", true).unwrap_err();
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
