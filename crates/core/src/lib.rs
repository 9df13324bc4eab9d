//! Dynamic-programming join ordering: DPsize, DPsub and DPccp.
//!
//! This crate implements the three algorithms of Moerkotte & Neumann,
//! *"Analysis of Two Existing and One New Dynamic Programming Algorithm
//! for the Generation of Optimal Bushy Join Trees without Cross
//! Products"* (VLDB 2006), together with the instrumentation the paper
//! uses to analyze them:
//!
//! * [`DpSize`] — size-driven enumeration (Fig. 1), including the
//!   `s₁ = s₂` optimization the paper's counter formulas assume;
//!   [`DpSizeNaive`] is the literal pseudocode for ablation studies;
//! * [`DpSub`] — subset-driven enumeration (Fig. 2) with the `*`
//!   connectedness pre-check; [`DpSubUnfiltered`] omits the pre-check,
//!   and [`DpSubCrossProducts`] is the Vance/Maier original that
//!   considers cross products;
//! * [`DpCcp`] — the paper's new algorithm (Fig. 4), driven by the
//!   csg-cmp-pair enumeration of [`joinopt_qgraph::csg`]; its
//!   `InnerCounter` equals the Ono/Lohman lower bound by construction;
//! * [`Counters`] — `InnerCounter`, `CsgCmpPairCounter` and
//!   `OnoLohmanCounter`, maintained with exactly the semantics of the
//!   paper's pseudocode so Figure 3 can be reproduced bit-for-bit;
//! * [`formulas`] — closed forms for the counters (Sections 2.1–2.2,
//!   with the published typos corrected) plus profile-based predictions
//!   that work for arbitrary query graphs;
//! * [`Algorithm`] — one table naming every engine, with an `Auto` mode
//!   that adapts to the query graph's density (the paper's concluding
//!   recommendation);
//! * [`OptimizeRequest`] — the one entry point for a query: algorithm,
//!   cost model, time/cost/memory budgets, cooperative cancellation and
//!   telemetry in one builder, with pooled allocations via [`Session`]
//!   and an opt-in degradation ladder (exact → IDP → greedy) that turns
//!   budget trips into cheaper plans instead of errors
//!   ([`BudgetAction::Degrade`]);
//! * [`exhaustive`] — an independent top-down oracle used by the test
//!   suite, and [`greedy`] — a GOO baseline for plan-quality context;
//! * [`DpConv`] — the subset-convolution formulation of the DP over the
//!   popcount-ranked lattice (Stoian & Kipf, arXiv 2409.08013) for
//!   `C_out`-shaped cost models, backed by the fast zeta/Möbius
//!   [`transform`] module.
//!
//! # Example
//!
//! ```
//! use joinopt_core::{DpCcp, JoinOrderer};
//! use joinopt_cost::{workload, Cout};
//! use joinopt_qgraph::GraphKind;
//!
//! let w = workload::family_workload(GraphKind::Star, 7, 42);
//! let result = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
//! println!("{}", result.tree.explain());
//! // DPccp's InnerCounter equals the number of csg-cmp-pairs:
//! assert_eq!(result.counters.inner, result.counters.ono_lohman);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod cancel;
mod counters;
mod degrade;
mod dpccp;
mod dpconv;
mod dphyp;
mod dpsize;
mod dpsub;
mod driver;
mod error;
pub mod exhaustive;
pub mod explain;
pub mod failpoint;
pub mod formulas;
pub mod greedy;
mod idp;
mod kernel;
mod leftdeep;
mod optimizer;
mod request;
mod result;
pub mod table;
mod topdown;
pub mod transform;

pub use cancel::{CancelFlag, CancellationToken};
pub use counters::Counters;
pub use degrade::{BudgetAction, DegradationInfo, DegradationRung, TripKind};
pub use dpccp::DpCcp;
pub use dpconv::DpConv;
pub use dphyp::DpHyp;
pub use dpsize::{DpSize, DpSizeNaive};
pub use dpsub::{DpSub, DpSubCrossProducts, DpSubUnfiltered, Session};
pub use error::OptimizeError;
pub use idp::Idp;
pub use leftdeep::DpSizeLeftDeep;
pub use optimizer::Algorithm;
pub use request::{OptimizeOutcome, OptimizeRequest};
pub use result::{DpResult, JoinOrderer};
pub use topdown::TopDown;
