//! The one pair-costing kernel every engine prices a join with.
//!
//! A set's cardinality comes from the estimator's set-only fold and a
//! join's total from [`CostModel::join_cost`]'s one sum order, so the
//! cost of a tree depends on the tree alone. Every engine prices its
//! candidate joins here, which is what makes the exact engines agree
//! bit for bit. A `C_out`-shaped model ([`CostModel::is_cout_shaped`])
//! may be priced by [`cout_cost`] instead of through the trait object:
//! the same sum in the same order, so the same bits, checked by
//! [`finite_cost`] once per set.

use joinopt_cost::{ensure_finite, CardinalityEstimator, CostModel, PlanStats};
use joinopt_relset::RelSet;

use crate::error::OptimizeError;

/// The estimator's cardinality of `s` (at least two relations), given
/// `below`, the cardinality an engine stored for `s ∖ {max s}` if it
/// holds that set: one [`CardinalityEstimator::extend_cardinality`]
/// step from it, else the whole fold. Both give the fold's bits, so an
/// engine may hold any subset of the sets it reached.
///
/// # Errors
///
/// [`OptimizeError::Cost`] when the cardinality is not finite.
#[inline]
pub(crate) fn cardinality(
    est: &CardinalityEstimator,
    s: RelSet,
    below: Option<f64>,
) -> Result<f64, OptimizeError> {
    let card = match below {
        Some(below) => est.extend_cardinality(below, s),
        None => est.set_cardinality(s),
    };
    Ok(ensure_finite("cardinality", card)?)
}

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
    let forward = finite_cost(model.join_cost(left, right, out_card))?;
    if !commute || model.is_symmetric() {
        return Ok((forward, false));
    }
    let backward = finite_cost(model.join_cost(right, left, out_card))?;
    Ok(if backward < forward {
        (backward, true)
    } else {
        (forward, false)
    })
}

/// The cost of a join under a `C_out`-shaped model, priced inline:
/// `(left + right) + out_card` over the operands' costs, which is
/// [`CostModel::join_cost`]'s sum order with `out_card` as the operator
/// term, so it equals that model's `join_cost` bit for bit.
///
/// The price is not checked: pass it, or the largest price of a set,
/// to [`finite_cost`]. Costs and cardinalities are finite and
/// non-negative (the catalog admits cardinalities `≥ 1` and
/// selectivities in `(0, 1]`), and the sum is monotone in each operand,
/// so a set's largest price overflows exactly when one of its prices
/// does, and one check per set fails the run as a check per price
/// would.
#[inline]
pub(crate) fn cout_cost(left: f64, right: f64, out_card: f64) -> f64 {
    (left + right) + out_card
}

/// `cost`, or the typed error every engine fails with when a price is
/// not finite.
///
/// # Errors
///
/// [`OptimizeError::Cost`] when `cost` is not finite.
#[inline]
pub(crate) fn finite_cost(cost: f64) -> Result<f64, OptimizeError> {
    Ok(ensure_finite("cost", cost)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_cost::{CostError, Cout};

    fn costing(cost: f64) -> PlanStats {
        PlanStats {
            cardinality: 1.0,
            cost,
        }
    }

    #[test]
    fn inline_cout_price_is_the_models_bit_for_bit() {
        // Zero, a subnormal, ordinary values and one near the top.
        let edges = [0.0, f64::MIN_POSITIVE / 4.0, 0.1, 1.0, 1e300];
        for left in edges {
            for right in edges {
                for out in edges {
                    let (l, r) = (costing(left), costing(right));
                    let got = finite_cost(cout_cost(left, right, out)).unwrap();
                    let want = Cout.join_cost(&l, &r, out);
                    assert_eq!(got.to_bits(), want.to_bits(), "{left} {right} {out}");
                    let (kernel, _) = pair_cost(&Cout, &l, &r, out, false).unwrap();
                    assert_eq!(got.to_bits(), kernel.to_bits(), "{left} {right} {out}");
                }
            }
        }
    }

    #[test]
    fn inline_cout_price_refuses_overflow_like_the_kernel() {
        for (left, right, out) in [
            (1e308, 1e308, 0.0),
            (0.0, 1.5e308, 1.5e308),
            (f64::INFINITY, 0.0, 1.0),
        ] {
            let err = finite_cost(cout_cost(left, right, out)).unwrap_err();
            assert!(
                matches!(
                    err,
                    OptimizeError::Cost(CostError::NonFiniteEstimate { what: "cost", .. })
                ),
                "{err:?}"
            );
            let kernel = pair_cost(&Cout, &costing(left), &costing(right), out, false);
            assert_eq!(kernel.unwrap_err(), err);
        }
    }
}
