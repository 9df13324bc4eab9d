//! The one pair-costing kernel every engine prices a join with.
//!
//! A set's cardinality comes from the estimator's set-only fold and a
//! join's total from [`CostModel::join_cost`]'s one sum order, so the
//! cost of a tree depends on the tree alone. Every engine prices its
//! candidate joins here, which is what makes the exact engines agree
//! bit for bit.

use joinopt_cost::{ensure_finite, CostModel, PlanStats};

use crate::error::OptimizeError;

/// The cost of joining two operands into a set of `out_card` rows, in
/// the cheaper orientation: `(cost, swapped)`, where `swapped` means
/// `right ⋈ left` is strictly cheaper than `left ⋈ right`.
///
/// With `commute` false, or for a symmetric model (whose two
/// orientations cost the same bits), only `left ⋈ right` is evaluated.
/// Enumerators that visit both orders themselves, or may not swap
/// (left-deep), pass `commute = false`.
///
/// # Errors
///
/// [`OptimizeError::Cost`] when an evaluated cost is not finite.
#[inline]
pub(crate) fn pair_cost(
    model: &dyn CostModel,
    left: &PlanStats,
    right: &PlanStats,
    out_card: f64,
    commute: bool,
) -> Result<(f64, bool), OptimizeError> {
    let forward = ensure_finite("cost", model.join_cost(left, right, out_card))?;
    if !commute || model.is_symmetric() {
        return Ok((forward, false));
    }
    let backward = ensure_finite("cost", model.join_cost(right, left, out_card))?;
    Ok(if backward < forward {
        (backward, true)
    } else {
        (forward, false)
    })
}
