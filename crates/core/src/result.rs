//! Optimization results and the [`JoinOrderer`] interface.

use joinopt_cost::{Catalog, CostModel};
use joinopt_plan::JoinTree;
use joinopt_qgraph::QueryGraph;
use joinopt_telemetry::{NoopObserver, Observer};

use crate::cancel::CancellationToken;
use crate::counters::Counters;
use crate::dpsub::Session;
use crate::error::OptimizeError;

/// The outcome of one optimizer run.
#[derive(Debug, Clone)]
pub struct DpResult {
    /// The optimal bushy join tree.
    pub tree: JoinTree,
    /// Total cost of `tree` under the cost model used.
    pub cost: f64,
    /// Estimated output cardinality of the full join.
    pub cardinality: f64,
    /// The paper's instrumentation counters.
    pub counters: Counters,
    /// Number of relation sets with a registered plan (DP table size).
    pub table_size: usize,
    /// Number of plan nodes materialized (scans + accepted joins).
    pub plans_built: usize,
}

/// A join-ordering algorithm: everything the request layer, the
/// benchmark harness and the conformance oracle need to drive DPsize,
/// DPsub, DPccp and their variants uniformly. [`crate::Algorithm::orderer`]
/// maps each algorithm to its implementation, and
/// [`OptimizeRequest`](crate::OptimizeRequest) runs every algorithm
/// through [`JoinOrderer::optimize_in`].
pub trait JoinOrderer {
    /// Short algorithm name as used in the paper's figures
    /// (`"DPsize"`, `"DPsub"`, `"DPccp"`, …).
    fn name(&self) -> &'static str;

    /// Computes an optimal bushy join tree for `g` under `model`,
    /// reporting progress and statistics to `obs` and honouring the
    /// stop conditions of `ctl` (cancellation flag, deadline, memory
    /// budget) at whatever granularity the algorithm supports — the DP
    /// enumerators poll inside their inner loops. The exact engines run
    /// on the pooled DP table, plan arena and DPconv scratch of
    /// `session`; the heuristics (GOO, IDP) and top-down search ignore
    /// it.
    ///
    /// With a disabled observer ([`Observer::enabled`] returning
    /// `false`, e.g. [`NoopObserver`]) and an unlimited token,
    /// implementations must behave bit-identically to an
    /// uninstrumented run — same plan, cost, and counters — and a
    /// pooled session must not change the result either. Failed runs
    /// may leave a `run_start` without a matching `run_end` in the
    /// event stream.
    ///
    /// # Errors
    ///
    /// Fails for empty or disconnected graphs (cross-product-free join
    /// trees only exist for connected query graphs) and for catalogs not
    /// matching `g`'s shape. [`crate::DpSubCrossProducts`] lifts the
    /// connectivity requirement. Additionally fails with the budget and
    /// cancellation errors of [`CancellationToken`] when `ctl` trips.
    fn optimize_in(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
        session: &mut Session,
    ) -> Result<DpResult, OptimizeError>;

    /// [`JoinOrderer::optimize_in`] on a fresh [`Session`].
    fn optimize_controlled(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
    ) -> Result<DpResult, OptimizeError> {
        self.optimize_in(g, catalog, model, obs, ctl, &mut Session::new())
    }

    /// [`JoinOrderer::optimize_controlled`] with an unlimited token.
    fn optimize_observed(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
    ) -> Result<DpResult, OptimizeError> {
        self.optimize_controlled(g, catalog, model, obs, &CancellationToken::unlimited())
    }

    /// [`JoinOrderer::optimize_controlled`] without telemetry or stop
    /// conditions.
    fn optimize(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
    ) -> Result<DpResult, OptimizeError> {
        self.optimize_controlled(
            g,
            catalog,
            model,
            &NoopObserver,
            &CancellationToken::unlimited(),
        )
    }
}
