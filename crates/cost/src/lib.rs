//! Statistics, cardinality estimation and cost models.
//!
//! The dynamic-programming algorithms of the paper are *enumeration*
//! strategies; to turn an enumerated csg-cmp-pair into a plan decision
//! they need `cost(CreateJoinTree(p1, p2))`, which in turn needs
//! cardinalities. This crate supplies that substrate:
//!
//! * [`Catalog`] — base-table cardinalities and per-join-predicate
//!   selectivities, validated on construction;
//! * [`CardinalityEstimator`] — the classical independence-assumption
//!   estimator as one set-only fold (`|S|` is the product of `S`'s base
//!   cardinalities and the selectivities of the predicates inside `S`,
//!   multiplied in one documented order), for query graphs and
//!   hypergraphs alike, so every engine gets the same bits for a set;
//! * [`CostModel`] implementations — [`Cout`] (sum of intermediate result
//!   sizes, the standard model in the join-ordering literature),
//!   [`NestedLoopJoin`], [`HashJoin`], [`SortMergeJoin`] and
//!   [`MinOverPhysical`] (cheapest physical operator per join);
//! * [`workload`] — seeded random workload generation so experiments are
//!   reproducible.
//!
//! # Example
//!
//! ```
//! use joinopt_qgraph::generators;
//! use joinopt_cost::{Catalog, CardinalityEstimator, CostModel, Cout, PlanStats};
//! use joinopt_relset::RelSet;
//!
//! let g = generators::chain(3).unwrap();
//! let mut cat = Catalog::new(&g);
//! cat.set_cardinality(0, 1000.0).unwrap();
//! cat.set_cardinality(1, 100.0).unwrap();
//! cat.set_cardinality(2, 10.0).unwrap();
//! cat.set_selectivity(0, 0.01).unwrap(); // R0 ⋈ R1
//! cat.set_selectivity(1, 0.5).unwrap();  // R1 ⋈ R2
//!
//! let est = CardinalityEstimator::new(&g, &cat).unwrap();
//! let s01 = est.set_cardinality(RelSet::from_indices([0, 1]));
//! assert_eq!(s01, 1000.0); // 1000 · 100 · 0.01
//! // (R0 ⋈ R1) ⋈ R2: the left child already cost its own 1000 rows.
//! let cost = Cout.join_cost(
//!     &PlanStats { cardinality: s01, cost: s01 },
//!     &PlanStats::base(10.0),
//!     est.set_cardinality(RelSet::full(3)),
//! );
//! assert_eq!(cost, 6000.0); // (1000 + 0) + 1000 · 100 · 10 · 0.01 · 0.5
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod error;
mod estimator;
mod models;
pub mod workload;

pub use catalog::Catalog;
pub use error::CostError;
pub use estimator::{ensure_finite, CardinalityEstimator};
pub use models::{
    CostModel, Cout, HashJoin, MinOverPhysical, NestedLoopJoin, PlanStats, SortMergeJoin,
};
