//! Differential conformance harness for the optimizer family.
//!
//! The paper's central claim is that DPsize, DPsub and DPccp are
//! *equivalent* plan generators differing only in enumeration order and
//! counter behavior. This crate turns that claim into machinery:
//!
//! * [`generator`] — a deterministic SplitMix64-seeded generator of
//!   random query instances over all six graph families (chain, cycle,
//!   star, clique, grid, tree) plus random-topology graphs, with random
//!   or deliberately tie-rich uniform catalogs;
//! * [`oracle`] — a differential oracle that runs every registered
//!   optimizer (the DP family, top-down, DPhyp, and the brute-force
//!   exhaustive oracle for small `n`) on one instance and cross-checks
//!   optimal cost, cross-product freedom, plan validity and the paper's
//!   Section 2.3.2 counter formulas;
//! * [`metamorphic`] — properties that need no oracle at all:
//!   relation-renumbering invariance, exact cost-model scaling
//!   invariance and monotonicity under selectivity tightening;
//! * [`fingerprint`] — service-layer properties: the canonical query
//!   fingerprint of `joinopt-service` is invariant under relation
//!   renumbering and join-edge reordering, and a warm plan-cache hit
//!   replays the cold run bit for bit (`joinopt fuzz --cache`);
//! * [`shrink`] — a greedy minimizer that deletes relations and edges
//!   while a divergence still reproduces, yielding a minimal repro that
//!   serializes to the query DSL for the `tests/corpus/` directory;
//! * [`fuzz`] — the driver tying them together, exposed as the
//!   `joinopt fuzz` CLI subcommand and a bounded smoke pass in `ci.sh`.
//!
//! The crate is dependency-free like the rest of the workspace and is
//! meant to be inherited by every future perf or robustness PR: change
//! a hot loop, run `joinopt fuzz`, commit any minimized repro.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explain;
pub mod fingerprint;
pub mod fuzz;
pub mod generator;
pub mod metamorphic;
pub mod oracle;
pub mod shrink;

pub use explain::explain_failure;
pub use fingerprint::{check_cache_replay, check_fingerprint};
pub use fuzz::run_fuzz_observed;
pub use fuzz::{run_fuzz, Failure, FuzzConfig, FuzzReport};
pub use generator::{generate_instance, Family, Instance, SplitMix64};
pub use oracle::{check_instance, check_instance_observed, Divergence};
pub use shrink::minimize;

/// Runs every check the harness knows — the differential [`oracle`]
/// first, then the [`metamorphic`] properties, then the service
/// [`fingerprint`] invariance — on one instance. (The optional
/// cold/warm cache replay is driven separately by
/// [`FuzzConfig::cache`].)
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_full(inst: &Instance) -> Result<(), Divergence> {
    check_full_observed(inst, &joinopt_telemetry::NoopObserver)
}

/// [`check_full`] with telemetry: the instance's reference DPccp run
/// reports to `obs` (see [`oracle::check_instance_observed`]).
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_full_observed(
    inst: &Instance,
    obs: &dyn joinopt_telemetry::Observer,
) -> Result<(), Divergence> {
    oracle::check_instance_observed(inst, obs)?;
    metamorphic::check_metamorphic(inst)?;
    fingerprint::check_fingerprint(inst)
}

/// Replays a committed repro: parses the query DSL text, rebuilds an
/// [`Instance`] and runs [`check_full`] on it. Used by the
/// `tests/corpus/` regression gate.
///
/// # Errors
///
/// Returns a [`Divergence`] when the text does not parse, describes a
/// non-simple (hypergraph) query, or fails any conformance check.
pub fn check_dsl(text: &str) -> Result<(), Divergence> {
    let inst = Instance::from_dsl(text).map_err(|detail| Divergence {
        check: "dsl-parse",
        detail,
    })?;
    check_full(&inst)
}
