//! Metamorphic properties: transformations of an instance with a known
//! effect on the optimum, checked without any reference oracle.
//!
//! * **Renumbering invariance** — relabeling the relations by any
//!   permutation must not change the optimal cost (within
//!   `RENUMBER_TOLERANCE`: the estimator's fold multiplies the same
//!   factors in a different order).
//! * **Scaling invariance** — multiplying every join cost by a power
//!   of two scales the optimum *exactly* (power-of-two scaling only
//!   shifts f64 exponents) and must not change the chosen plan shape:
//!   all comparisons are preserved.
//! * **Selectivity tightening** — lowering one selectivity shrinks
//!   every intermediate result that predicate touches, so under
//!   `C_out` no plan gets more expensive and the optimum is monotone
//!   non-increasing — exactly, since f64 multiplication and addition
//!   are monotone and the fold keeps its order.

use joinopt_cost::{Catalog, CostModel, Cout, PlanStats};
use joinopt_plan::JoinTree;
use joinopt_qgraph::bfs;
use joinopt_relset::XorShift64;

use crate::generator::Instance;
use crate::oracle::Divergence;

/// `C_out` with every join's operator term (the emitted-tuple count)
/// multiplied by a constant factor. The children's costs are added by
/// [`CostModel::join_cost`] as usual, so by induction every plan's
/// total is exactly `factor ×` its `C_out` total. With a power-of-two
/// factor the scaling is bit-exact (multiplication by a power of two
/// commutes with f64 rounding), so optimal costs must scale bit-exactly
/// too.
struct ScaledCout {
    factor: f64,
}

impl CostModel for ScaledCout {
    fn operator_cost(&self, _left: &PlanStats, _right: &PlanStats, out_card: f64) -> f64 {
        self.factor * out_card
    }

    fn name(&self) -> &'static str {
        "scaled-cout"
    }

    fn is_symmetric(&self) -> bool {
        Cout.is_symmetric()
    }
}

/// The power-of-two factor the scaling property uses.
const SCALE: f64 = 4.0;

/// Relative tolerance of the renumbering property, the one check that
/// keeps one: relabeling changes the ascending order in which the
/// cardinality fold multiplies a set's factors, so the relabeled
/// optimum may differ from the original in its last bits.
const RENUMBER_TOLERANCE: f64 = 1e-9;

fn diverge(check: &'static str, detail: String) -> Divergence {
    Divergence { check, detail }
}

fn optimal(
    graph: &joinopt_qgraph::QueryGraph,
    catalog: &Catalog,
    model: &dyn CostModel,
) -> Result<joinopt_core::DpResult, joinopt_core::OptimizeError> {
    use joinopt_core::{DpCcp, JoinOrderer};
    DpCcp.optimize(graph, catalog, model)
}

fn shape(t: &JoinTree) -> String {
    match t {
        JoinTree::Scan { relation, .. } => format!("R{relation}"),
        JoinTree::Join { left, right, .. } => format!("({} {})", shape(left), shape(right)),
    }
}

/// Runs all three metamorphic properties on a connected instance with
/// at least two relations (smaller or disconnected instances have
/// nothing to transform and pass vacuously).
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_metamorphic(inst: &Instance) -> Result<(), Divergence> {
    if inst.graph.num_relations() < 2 || !inst.graph.is_connected() {
        return Ok(());
    }
    let base = optimal(&inst.graph, &inst.catalog, &Cout).map_err(|e| {
        diverge(
            "metamorphic",
            format!("{}: base optimization failed: {e}", inst.name),
        )
    })?;
    check_renumbering(inst, base.cost)?;
    check_scaling(inst, &base)?;
    check_tightening(inst, base.cost)
}

/// Permutation of the relation labels: same query, same optimum.
fn check_renumbering(inst: &Instance, base_cost: f64) -> Result<(), Divergence> {
    let n = inst.graph.num_relations();
    let mut rng = XorShift64::seed_from_u64(inst.seed ^ 0x5265_6e75_6d62_6572); // "Renumber"
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    // `renumber` preserves edge order, so selectivities keep their edge
    // ids; only the cardinalities move with their relations.
    let graph = bfs::renumber(&inst.graph, &order);
    let mut catalog = Catalog::with_shape(n, inst.graph.num_edges());
    for (new, &old) in order.iter().enumerate() {
        catalog
            .set_cardinality(new, inst.catalog.cardinality(old))
            .map_err(|e| {
                diverge(
                    "metamorphic-renumber",
                    format!("{}: permuted catalog rejected: {e}", inst.name),
                )
            })?;
    }
    for e in 0..inst.graph.num_edges() {
        catalog
            .set_selectivity(e, inst.catalog.selectivity(e))
            .map_err(|e| {
                diverge(
                    "metamorphic-renumber",
                    format!("{}: permuted catalog rejected: {e}", inst.name),
                )
            })?;
    }
    let renamed = optimal(&graph, &catalog, &Cout).map_err(|e| {
        diverge(
            "metamorphic-renumber",
            format!("{}: renumbered instance failed to optimize: {e}", inst.name),
        )
    })?;
    let tol = RENUMBER_TOLERANCE * base_cost.abs().max(1.0);
    if (renamed.cost - base_cost).abs() > tol {
        return Err(diverge(
            "metamorphic-renumber",
            format!(
                "{}: optimal cost changed under relabeling {order:?}: {:e} vs {:e}",
                inst.name, renamed.cost, base_cost
            ),
        ));
    }
    Ok(())
}

/// Power-of-two cost scaling: bit-exact cost scaling, identical shape.
fn check_scaling(inst: &Instance, base: &joinopt_core::DpResult) -> Result<(), Divergence> {
    let scaled =
        optimal(&inst.graph, &inst.catalog, &ScaledCout { factor: SCALE }).map_err(|e| {
            diverge(
                "metamorphic-scale",
                format!("{}: scaled instance failed to optimize: {e}", inst.name),
            )
        })?;
    if scaled.cost.to_bits() != (SCALE * base.cost).to_bits() {
        return Err(diverge(
            "metamorphic-scale",
            format!(
                "{}: {SCALE}×-scaled optimum is {:e}, expected exactly {:e}",
                inst.name,
                scaled.cost,
                SCALE * base.cost
            ),
        ));
    }
    if shape(&scaled.tree) != shape(&base.tree) {
        return Err(diverge(
            "metamorphic-scale",
            format!(
                "{}: cost scaling changed the chosen plan: {} vs {}",
                inst.name,
                shape(&scaled.tree),
                shape(&base.tree)
            ),
        ));
    }
    Ok(())
}

/// Tightening one selectivity: the optimum never increases.
fn check_tightening(inst: &Instance, base_cost: f64) -> Result<(), Divergence> {
    let m = inst.graph.num_edges();
    if m == 0 {
        return Ok(());
    }
    let mut rng = XorShift64::seed_from_u64(inst.seed ^ 0x5469_6768_7465_6e21); // "Tighten!"
    let edge = rng.gen_range(0..m);
    let mut catalog = inst.catalog.clone();
    catalog
        .set_selectivity(edge, inst.catalog.selectivity(edge) * 0.25)
        .map_err(|e| {
            diverge(
                "metamorphic-tighten",
                format!("{}: tightened catalog rejected: {e}", inst.name),
            )
        })?;
    let tightened = optimal(&inst.graph, &catalog, &Cout).map_err(|e| {
        diverge(
            "metamorphic-tighten",
            format!("{}: tightened instance failed to optimize: {e}", inst.name),
        )
    })?;
    if tightened.cost > base_cost {
        return Err(diverge(
            "metamorphic-tighten",
            format!(
                "{}: tightening edge {edge} *raised* the optimum: {:e} from {:e}",
                inst.name, tightened.cost, base_cost
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{self, generate_instance};

    #[test]
    fn clean_instances_satisfy_all_properties() {
        for index in 0..15 {
            let inst = generate_instance(99, index, 8);
            check_metamorphic(&inst).unwrap_or_else(|d| panic!("{}: {d}", inst.name));
        }
    }

    #[test]
    fn tiny_and_tie_rich_instances_pass() {
        check_metamorphic(&generator::tie_rich_chain(2)).unwrap();
        check_metamorphic(&generator::tie_rich_chain(6)).unwrap();
    }

    #[test]
    fn scaled_cout_reports_itself() {
        let m = ScaledCout { factor: 4.0 };
        assert_eq!(m.name(), "scaled-cout");
        assert_eq!(m.is_symmetric(), Cout.is_symmetric());
    }
}
