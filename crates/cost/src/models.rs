//! Cost models for join operators.
//!
//! The enumeration algorithms are cost-model agnostic: anything
//! implementing [`CostModel`] can drive them. [`Cout`] — the sum of
//! intermediate result sizes — is the standard model of the join-ordering
//! literature and the default throughout this workspace; the physical
//! models ([`NestedLoopJoin`], [`HashJoin`], [`SortMergeJoin`],
//! [`MinOverPhysical`]) exist so plan-quality experiments can show that
//! optimality transfers across models and that commutativity matters
//! (hash join is asymmetric in build/probe roles).

/// Cardinality and accumulated cost of a (sub-)plan — the inputs a cost
/// model sees for each side of a join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStats {
    /// Estimated output cardinality of the sub-plan.
    pub cardinality: f64,
    /// Accumulated cost of producing the sub-plan.
    pub cost: f64,
}

impl PlanStats {
    /// Stats of a base-table scan: its cardinality, at zero cost (the
    /// convention of the C_out model, where scans are free).
    pub fn base(cardinality: f64) -> PlanStats {
        PlanStats {
            cardinality,
            cost: 0.0,
        }
    }
}

/// A cost model assigns a total cost to joining two sub-plans.
///
/// A model supplies only its operator's own term
/// ([`CostModel::operator_cost`]); the total is always
/// [`CostModel::join_cost`]`= (left.cost + right.cost) + operator_cost`,
/// summed in that order. Because f64 addition is commutative and
/// monotone, a model whose operator term is symmetric in its operands
/// is symmetric bit for bit, and every total is non-decreasing in the
/// children's costs — so an exact DP's minimum over its sub-plans is
/// the f64 minimum over all trees, whatever order it enumerates them in.
pub trait CostModel: Send + Sync {
    /// The join operator's own cost for `left ⋈ right` with output size
    /// `out_card`, excluding the children's accumulated costs.
    fn operator_cost(&self, left: &PlanStats, right: &PlanStats, out_card: f64) -> f64;

    /// Total cost of the join `left ⋈ right` with output size
    /// `out_card`: `(left.cost + right.cost) + operator_cost(…)`.
    /// Implementations must not override it: the one sum order is what
    /// makes exact engines agree bit for bit.
    #[inline]
    fn join_cost(&self, left: &PlanStats, right: &PlanStats, out_card: f64) -> f64 {
        (left.cost + right.cost) + self.operator_cost(left, right, out_card)
    }

    /// Human-readable model name for reports.
    fn name(&self) -> &'static str;

    /// Whether `operator_cost` is symmetric in its operands, bit for
    /// bit (and so `join_cost` too). Symmetric models let enumerators
    /// skip the commutative partner probe.
    fn is_symmetric(&self) -> bool {
        false
    }

    /// Whether the model is `C_out`-shaped: the operator term is the
    /// output cardinality, so a join's cost is a function of the
    /// relation *set* plus the children's costs. This is the structural
    /// property that lets the join-ordering DP collapse to subset
    /// convolution over the ranked lattice (DPconv): the per-set term
    /// `|S|` can be added once per set instead of once per split.
    /// Models whose cost depends on the operand decomposition (input
    /// cardinalities, build/probe roles, sort costs) must leave this
    /// `false`; enumerators that rely on it refuse such models with a
    /// typed error rather than silently optimizing the wrong function.
    fn is_cout_shaped(&self) -> bool {
        false
    }
}

/// Boxed models are models: lets call sites that select a model at
/// runtime (`Box<dyn CostModel>`) hand it to APIs taking
/// `impl CostModel` without an adapter.
impl<M: CostModel + ?Sized> CostModel for Box<M> {
    #[inline]
    fn operator_cost(&self, left: &PlanStats, right: &PlanStats, out_card: f64) -> f64 {
        (**self).operator_cost(left, right, out_card)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }

    fn is_cout_shaped(&self) -> bool {
        (**self).is_cout_shaped()
    }
}

/// `C_out`: the sum of the sizes of all intermediate results.
///
/// `cost(p1 ⋈ p2) = (cost(p1) + cost(p2)) + |p1 ⋈ p2|`, base tables free.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cout;

impl CostModel for Cout {
    #[inline]
    fn operator_cost(&self, _left: &PlanStats, _right: &PlanStats, out_card: f64) -> f64 {
        out_card
    }

    fn name(&self) -> &'static str {
        "Cout"
    }

    fn is_symmetric(&self) -> bool {
        true
    }

    fn is_cout_shaped(&self) -> bool {
        true
    }
}

/// Tuple-at-a-time nested-loop join: `|L| · |R|` probe work.
#[derive(Debug, Clone, Copy, Default)]
pub struct NestedLoopJoin;

impl CostModel for NestedLoopJoin {
    #[inline]
    fn operator_cost(&self, left: &PlanStats, right: &PlanStats, _out_card: f64) -> f64 {
        left.cardinality * right.cardinality
    }

    fn name(&self) -> &'static str {
        "NestedLoopJoin"
    }

    fn is_symmetric(&self) -> bool {
        true
    }
}

/// Hash join: build on the left input, probe with the right.
///
/// `1.2·|L| + |R|` plus output materialization. Deliberately asymmetric:
/// the enumerators must consider both operand orders (the paper's DPccp
/// explicitly joins both `(p1, p2)` and `(p2, p1)`).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashJoin;

impl CostModel for HashJoin {
    #[inline]
    fn operator_cost(&self, left: &PlanStats, right: &PlanStats, out_card: f64) -> f64 {
        1.2 * left.cardinality + right.cardinality + out_card
    }

    fn name(&self) -> &'static str {
        "HashJoin"
    }
}

/// Sort-merge join: both inputs sorted (`x·log₂x` each), then merged.
#[derive(Debug, Clone, Copy, Default)]
pub struct SortMergeJoin;

#[inline]
fn nlogn(x: f64) -> f64 {
    if x <= 1.0 {
        x
    } else {
        x * x.log2()
    }
}

impl CostModel for SortMergeJoin {
    #[inline]
    fn operator_cost(&self, left: &PlanStats, right: &PlanStats, out_card: f64) -> f64 {
        nlogn(left.cardinality) + nlogn(right.cardinality) + out_card
    }

    fn name(&self) -> &'static str {
        "SortMergeJoin"
    }

    fn is_symmetric(&self) -> bool {
        true
    }
}

/// Physical-operator choice: the cheapest of nested-loop, hash and
/// sort-merge for each join.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinOverPhysical;

impl CostModel for MinOverPhysical {
    #[inline]
    fn operator_cost(&self, left: &PlanStats, right: &PlanStats, out_card: f64) -> f64 {
        let nl = NestedLoopJoin.operator_cost(left, right, out_card);
        let hj = HashJoin.operator_cost(left, right, out_card);
        let sm = SortMergeJoin.operator_cost(left, right, out_card);
        nl.min(hj).min(sm)
    }

    fn name(&self) -> &'static str {
        "MinOverPhysical"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(card: f64, cost: f64) -> PlanStats {
        PlanStats {
            cardinality: card,
            cost,
        }
    }

    #[test]
    fn base_stats_are_free() {
        let b = PlanStats::base(500.0);
        assert_eq!(b.cardinality, 500.0);
        assert_eq!(b.cost, 0.0);
    }

    #[test]
    fn cout_sums_intermediates() {
        let c = Cout.join_cost(&stats(10.0, 100.0), &stats(20.0, 200.0), 50.0);
        assert_eq!(c, 350.0);
        assert!(Cout.is_symmetric());
        assert_eq!(Cout.name(), "Cout");
    }

    #[test]
    fn only_cout_is_cout_shaped() {
        assert!(Cout.is_cout_shaped());
        let physical: [&dyn CostModel; 4] =
            [&NestedLoopJoin, &HashJoin, &SortMergeJoin, &MinOverPhysical];
        for m in physical {
            assert!(
                !m.is_cout_shaped(),
                "{} depends on operand cardinalities, not the set alone",
                m.name()
            );
        }
        // The boxed forwarder preserves the flag.
        let boxed: Box<dyn CostModel> = Box::new(Cout);
        assert!(boxed.is_cout_shaped());
        let boxed_hash: Box<dyn CostModel> = Box::new(HashJoin);
        assert!(!boxed_hash.is_cout_shaped());
    }

    #[test]
    fn nested_loop_is_product() {
        let c = NestedLoopJoin.join_cost(&stats(10.0, 5.0), &stats(20.0, 7.0), 999.0);
        assert_eq!(c, 212.0);
    }

    #[test]
    fn hash_join_is_asymmetric() {
        let l = stats(1000.0, 0.0);
        let r = stats(10.0, 0.0);
        let lr = HashJoin.join_cost(&l, &r, 100.0);
        let rl = HashJoin.join_cost(&r, &l, 100.0);
        assert!(lr != rl, "hash join must distinguish build and probe sides");
        assert!(rl < lr, "building on the small side must be cheaper");
        assert!(!HashJoin.is_symmetric());
    }

    #[test]
    fn sort_merge_handles_tiny_inputs() {
        // No negative/NaN costs for cardinalities ≤ 1.
        let c = SortMergeJoin.join_cost(&stats(1.0, 0.0), &stats(0.5, 0.0), 1.0);
        assert!(c.is_finite() && c > 0.0);
    }

    #[test]
    fn min_over_physical_lower_bounds_components() {
        let l = stats(300.0, 40.0);
        let r = stats(700.0, 60.0);
        let out = 420.0;
        let min = MinOverPhysical.join_cost(&l, &r, out);
        assert!(min <= NestedLoopJoin.join_cost(&l, &r, out));
        assert!(min <= HashJoin.join_cost(&l, &r, out));
        assert!(min <= SortMergeJoin.join_cost(&l, &r, out));
    }

    #[test]
    fn costs_are_monotone_in_child_cost() {
        // Bellman's optimality principle requires that a cheaper sub-plan
        // never makes the total more expensive.
        let cheap = stats(100.0, 10.0);
        let dear = stats(100.0, 99.0);
        let other = stats(50.0, 0.0);
        let models: [&dyn CostModel; 4] = [&Cout, &NestedLoopJoin, &HashJoin, &SortMergeJoin];
        for m in models {
            assert!(
                m.join_cost(&cheap, &other, 25.0) < m.join_cost(&dear, &other, 25.0),
                "{} is not monotone",
                m.name()
            );
        }
    }
}
