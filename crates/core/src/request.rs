//! The session API: [`OptimizeRequest`] and [`OptimizeOutcome`].
//!
//! `OptimizeRequest` is the library's one entry point for a single
//! query: one builder that carries the algorithm, the cost model,
//! optional time, memory and cost budgets, a cancellation flag, the
//! budget policy, and a telemetry observer — and that can run inside a
//! pooled [`Session`] so repeated queries reuse the DP-table and
//! plan-arena allocations. With every default,
//! `OptimizeRequest::new(&graph, &catalog).run()?.into_result()` answers
//! "give me the best plan". Batches of owned queries go through the
//! service crate's `OptimizerService`.
//!
//! With [`BudgetAction::Degrade`] a tripped budget does not fail the
//! request: the run falls down the ladder described in
//! [`crate::degrade`] and the outcome carries a [`DegradationInfo`]
//! explaining which rung produced the plan and why.
//!
//! ```
//! use joinopt_core::{Algorithm, OptimizeRequest};
//! use joinopt_cost::{workload, HashJoin};
//! use joinopt_qgraph::GraphKind;
//!
//! let w = workload::family_workload(GraphKind::Clique, 8, 7);
//! let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
//!     .with_algorithm(Algorithm::DpSub)
//!     .with_cost_model(&HashJoin)
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.algorithm, Algorithm::DpSub);
//! assert_eq!(outcome.result.tree.num_relations(), 8);
//! ```

use std::time::{Duration, Instant};

use joinopt_cost::{Catalog, CostModel, Cout};
use joinopt_qgraph::QueryGraph;
use joinopt_telemetry::{Event, NoopObserver, Observer};

use crate::cancel::{CancelFlag, CancellationToken};
use crate::degrade::{
    BudgetAction, DegradationInfo, DegradationRung, TripKind, DEGRADE_IDP_BLOCK_SIZE,
};
use crate::dpsub::Session;
use crate::error::OptimizeError;
use crate::greedy::Goo;
use crate::idp::Idp;
use crate::optimizer::Algorithm;
use crate::result::{DpResult, JoinOrderer};

/// A fully configured optimization run, built incrementally.
///
/// Defaults: [`Algorithm::Auto`], the `C_out` cost model, no budgets,
/// no telemetry. Every run uses the calling thread only; the exact
/// engines (DPsize and its variants, DPsub, DPccp, DPconv) run on the
/// session's pooled buffers.
#[must_use = "an OptimizeRequest does nothing until run"]
pub struct OptimizeRequest<'a> {
    graph: &'a QueryGraph,
    catalog: &'a Catalog,
    algorithm: Algorithm,
    model: &'a dyn CostModel,
    time_budget: Option<Duration>,
    cost_budget: Option<f64>,
    memory_budget: Option<usize>,
    on_budget: BudgetAction,
    cancel: Option<CancelFlag>,
    observer: &'a dyn Observer,
}

/// What an [`OptimizeRequest`] produced: the plan plus the resolved
/// execution parameters.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The optimization result (plan, cost, counters, statistics).
    pub result: DpResult,
    /// The concrete algorithm that ran (`Auto` resolved).
    pub algorithm: Algorithm,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// `Some` when a budget tripped and [`BudgetAction::Degrade`] let a
    /// ladder rung produce the plan; `None` on the exact path.
    pub degradation: Option<DegradationInfo>,
}

impl OptimizeOutcome {
    /// Discards the execution metadata, keeping the [`DpResult`].
    pub fn into_result(self) -> DpResult {
        self.result
    }
}

impl<'a> OptimizeRequest<'a> {
    /// A request for one query with all defaults.
    pub fn new(graph: &'a QueryGraph, catalog: &'a Catalog) -> OptimizeRequest<'a> {
        OptimizeRequest {
            graph,
            catalog,
            algorithm: Algorithm::Auto,
            model: &Cout,
            time_budget: None,
            cost_budget: None,
            memory_budget: None,
            on_budget: BudgetAction::Error,
            cancel: None,
            observer: &NoopObserver,
        }
    }

    /// Selects the algorithm (default [`Algorithm::Auto`]).
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the cost model (default `C_out`).
    pub fn with_cost_model(mut self, model: &'a dyn CostModel) -> Self {
        self.model = model;
        self
    }

    /// Ignored: every run uses the calling thread only. Kept so callers
    /// written against the earlier multi-threaded DPsub still compile.
    #[deprecated(note = "runs are single-threaded; the thread count is ignored")]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Aborts the run if it exceeds `budget` wall-clock time. The
    /// algorithms poll the shared [`CancellationToken`] inside their
    /// inner enumeration loops, so even a mid-level run stops within a
    /// bounded number of iterations.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Fails the run (after optimization) if even the *optimal* plan
    /// costs more than `budget` — a guard for callers that would rather
    /// reject a query than execute a catastrophic join.
    pub fn with_cost_budget(mut self, budget: f64) -> Self {
        self.cost_budget = Some(budget);
        self
    }

    /// Aborts the run once its DP tables and plan arenas have grown
    /// past `bytes`. Accounting covers the dominant allocations (the
    /// memo table and the plan arena), not every transient vector.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Chooses what a tripped budget does: fail the request (the
    /// default, [`BudgetAction::Error`]) or fall down the degradation
    /// ladder ([`BudgetAction::Degrade`]) and return a best-effort plan
    /// tagged with [`DegradationInfo`].
    pub fn on_budget_exceeded(mut self, action: BudgetAction) -> Self {
        self.on_budget = action;
        self
    }

    /// Attaches a cooperative cancellation flag: setting it from any
    /// thread makes the run (including every degraded rung) return
    /// [`OptimizeError::Cancelled`] at its next poll.
    pub fn with_cancel_flag(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Streams telemetry events to `observer` (default: none).
    pub fn with_observer(mut self, observer: &'a dyn Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Runs the request in a fresh [`Session`].
    pub fn run(self) -> Result<OptimizeOutcome, OptimizeError> {
        let mut session = Session::new();
        self.run_in(&mut session)
    }

    /// Runs the request inside `session`, reusing its pooled DP-table
    /// and plan-arena allocations.
    pub fn run_in(self, session: &mut Session) -> Result<OptimizeOutcome, OptimizeError> {
        let start = Instant::now();
        let algorithm = match self.algorithm {
            Algorithm::Auto => Algorithm::select_auto_with_model(self.graph, self.model),
            concrete => concrete,
        };
        let ctl = CancellationToken::new(self.cancel.clone(), self.time_budget, self.memory_budget);
        // The exact engines run on the session's pooled buffers.
        let attempt = algorithm.orderer(self.graph).optimize_in(
            self.graph,
            self.catalog,
            self.model,
            self.observer,
            &ctl,
            session,
        );
        match attempt {
            Ok(result) => {
                if let Some(budget) = self.cost_budget {
                    if result.cost > budget {
                        let err = OptimizeError::CostBudgetExceeded {
                            cost: result.cost,
                            budget,
                        };
                        if self.on_budget != BudgetAction::Degrade {
                            return Err(err);
                        }
                        // The exact plan already exists and nothing
                        // cheaper can beat it: keep it, tagged so the
                        // caller knows the cost guard tripped.
                        self.emit_budget_exceeded(TripKind::Cost);
                        self.emit_degraded(DegradationRung::Exact);
                        let degradation = Some(self.degradation_info(
                            DegradationRung::Exact,
                            TripKind::Cost,
                            &err,
                            &ctl,
                        ));
                        return Ok(OptimizeOutcome {
                            result,
                            algorithm,
                            elapsed: start.elapsed(),
                            degradation,
                        });
                    }
                }
                Ok(OptimizeOutcome {
                    result,
                    algorithm,
                    elapsed: start.elapsed(),
                    degradation: None,
                })
            }
            Err(err) => {
                let Some(trigger) = TripKind::from_error(&err) else {
                    return Err(err); // validation error or explicit cancellation
                };
                if self.on_budget != BudgetAction::Degrade {
                    return Err(err);
                }
                self.degrade(algorithm, trigger, err, &ctl, start)
            }
        }
    }

    /// Walks the ladder below the exact attempt: IDP with a small block
    /// size, then GOO. Each rung runs under a fresh token that keeps
    /// the cancellation flag and the memory cap (the heuristics'
    /// footprints are far smaller) but drops the wall-clock deadline —
    /// the original deadline has already passed, so re-using it would
    /// trip instantly and no rung could ever succeed.
    fn degrade(
        &self,
        algorithm: Algorithm,
        trigger: TripKind,
        original: OptimizeError,
        tripped: &CancellationToken,
        start: Instant,
    ) -> Result<OptimizeOutcome, OptimizeError> {
        let rungs = [
            DegradationRung::Idp {
                block_size: DEGRADE_IDP_BLOCK_SIZE,
            },
            DegradationRung::Greedy,
        ];
        for rung in rungs {
            let ctl = CancellationToken::new(self.cancel.clone(), None, self.memory_budget);
            let attempt = match rung {
                DegradationRung::Idp { block_size } => Idp::with_block_size(block_size)
                    .optimize_controlled(self.graph, self.catalog, self.model, self.observer, &ctl),
                DegradationRung::Greedy => Goo.optimize_controlled(
                    self.graph,
                    self.catalog,
                    self.model,
                    self.observer,
                    &ctl,
                ),
                DegradationRung::Exact => unreachable!("the ladder starts below the exact rung"),
            };
            match attempt {
                Ok(result) => {
                    // Emitted after the rung's own RunStart..RunEnd so
                    // observers that aggregate per run (the metrics
                    // collector resets on RunStart) attribute the pair
                    // to the run that produced the returned plan.
                    self.emit_budget_exceeded(trigger);
                    self.emit_degraded(rung);
                    let degradation =
                        Some(self.degradation_info(rung, trigger, &original, tripped));
                    return Ok(OptimizeOutcome {
                        result,
                        algorithm,
                        elapsed: start.elapsed(),
                        degradation,
                    });
                }
                // A rung that trips its own budget falls through to the
                // next one; cancellation (or a validation error) is
                // final and outranks the original budget error.
                Err(e) if TripKind::from_error(&e).is_some() => continue,
                Err(e) => return Err(e),
            }
        }
        Err(original)
    }

    fn emit_budget_exceeded(&self, trigger: TripKind) {
        if self.observer.enabled() {
            self.observer.on_event(Event::BudgetExceeded {
                budget: trigger.as_str(),
            });
        }
    }

    fn emit_degraded(&self, rung: DegradationRung) {
        if self.observer.enabled() {
            self.observer.on_event(Event::Degraded {
                rung: rung.as_str(),
            });
        }
    }

    fn degradation_info(
        &self,
        rung: DegradationRung,
        trigger: TripKind,
        original: &OptimizeError,
        tripped: &CancellationToken,
    ) -> DegradationInfo {
        DegradationInfo {
            rung,
            trigger,
            detail: original.to_string(),
            time_budget: self.time_budget,
            memory_budget: self.memory_budget,
            memory_used: tripped.memory_used(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpCcp, DpSize};
    use joinopt_cost::{workload, HashJoin};
    use joinopt_qgraph::GraphKind;

    #[test]
    fn dpconv_pools_sessions_and_matches_direct_runs() {
        use crate::result::JoinOrderer as _;
        let mut session = Session::new();
        for seed in 0..3 {
            let w = workload::family_workload(GraphKind::Clique, 9, seed);
            let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
                .with_algorithm(Algorithm::DpConv)
                .run_in(&mut session)
                .unwrap();
            let direct = crate::DpConv
                .optimize(&w.graph, &w.catalog, &joinopt_cost::Cout)
                .unwrap();
            assert_eq!(outcome.result.cost.to_bits(), direct.cost.to_bits());
            assert_eq!(outcome.result.tree, direct.tree);
            assert_eq!(outcome.result.counters, direct.counters);
        }
        assert_eq!(session.runs(), 3, "pooled DPconv runs are served runs");
        assert!(session.pooled_bytes() > 0, "scratch stays pooled");
    }

    #[test]
    fn driver_engines_pool_sessions_and_match_direct_runs() {
        // Sizes on both sides of the dense-table bound, interleaved in
        // one session: the 17-star and the 20-chain run on the hash
        // table, the others on the pooled dense table left by a larger
        // or smaller earlier run. (DPsize's pair loop is quadratic in
        // the star's 2ⁿ⁻¹ connected sets, so it runs on chains.)
        use crate::table::DenseDpTable;
        let bound = DenseDpTable::MAX_DRIVER_RELATIONS;
        let star = |n| workload::family_workload(GraphKind::Star, n, n as u64);
        let chain = |n| workload::family_workload(GraphKind::Chain, n, n as u64);
        let cells = [
            (Algorithm::DpCcp, star(bound - 1)),
            (Algorithm::DpCcp, star(bound + 1)),
            (Algorithm::DpCcp, star(bound)),
            (Algorithm::DpCcp, chain(20)),
            (Algorithm::DpSize, chain(bound - 1)),
            (Algorithm::DpSize, chain(20)),
            (Algorithm::DpSize, chain(bound + 1)),
            (Algorithm::DpSize, chain(bound)),
        ];
        let mut session = Session::new();
        for (alg, w) in &cells {
            let pooled = OptimizeRequest::new(&w.graph, &w.catalog)
                .with_algorithm(*alg)
                .run_in(&mut session)
                .unwrap()
                .into_result();
            let direct = match alg {
                Algorithm::DpCcp => DpCcp.optimize(&w.graph, &w.catalog, &Cout),
                _ => DpSize.optimize(&w.graph, &w.catalog, &Cout),
            }
            .unwrap();
            let n = w.graph.num_relations();
            assert_eq!(pooled.cost.to_bits(), direct.cost.to_bits(), "{alg:?} {n}");
            assert_eq!(pooled.tree, direct.tree, "{alg:?} {n}");
            assert_eq!(pooled.counters, direct.counters, "{alg:?} {n}");
            assert_eq!(pooled.table_size, direct.table_size, "{alg:?} {n}");
        }
        assert_eq!(session.runs(), cells.len() as u64);
    }

    #[test]
    fn dpconv_model_refusal_bypasses_the_degradation_ladder() {
        // The pinned cost-model contract at the request level: an
        // incompatible model is a typed refusal even when the caller
        // opted into degraded plans — the ladder is for budget trips,
        // not for optimizing the wrong objective with a heuristic.
        let w = workload::family_workload(GraphKind::Clique, 6, 1);
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpConv)
            .with_cost_model(&HashJoin)
            .on_budget_exceeded(BudgetAction::Degrade)
            .run()
            .expect_err("typed refusal, not a degraded heuristic plan");
        assert!(
            matches!(err, OptimizeError::UnsupportedCostModel { .. }),
            "{err}"
        );
    }

    #[test]
    fn auto_resolution_is_model_aware() {
        // A crossover-sized C_out clique resolves Auto to DPconv; the
        // same query under HashJoin must not (DPconv would refuse it).
        let w = workload::family_workload(GraphKind::Clique, Algorithm::DPCONV_MIN_RELATIONS, 0);
        let cout = OptimizeRequest::new(&w.graph, &w.catalog).run().unwrap();
        assert_eq!(cout.algorithm, Algorithm::DpConv);
        let hash = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_cost_model(&HashJoin)
            .run()
            .unwrap();
        assert_ne!(hash.algorithm, Algorithm::DpConv);
        // And the two exact engines agree with each other where both
        // apply: the Auto hand-off cannot change the optimum.
        let pinned = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpCcp)
            .run()
            .unwrap();
        assert_eq!(cout.result.cost.to_bits(), pinned.result.cost.to_bits());
    }

    #[test]
    fn defaults_resolve_auto_and_succeed() {
        let w = workload::family_workload(GraphKind::Chain, 7, 0);
        let outcome = OptimizeRequest::new(&w.graph, &w.catalog).run().unwrap();
        assert_ne!(outcome.algorithm, Algorithm::Auto, "Auto must resolve");
        assert_eq!(outcome.result.tree.num_relations(), 7);
        let direct = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(outcome.result.cost.to_bits(), direct.cost.to_bits());
    }

    #[test]
    fn cost_model_and_non_engine_algorithms_pass_through() {
        let w = workload::family_workload(GraphKind::Star, 7, 2);
        let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpCcp)
            .with_cost_model(&HashJoin)
            .run()
            .unwrap();
        let direct = DpCcp.optimize(&w.graph, &w.catalog, &HashJoin).unwrap();
        assert_eq!(outcome.result.cost.to_bits(), direct.cost.to_bits());
    }

    #[test]
    fn cost_budget_rejects_expensive_plans_and_admits_cheap_ones() {
        let w = workload::family_workload(GraphKind::Chain, 6, 1);
        let optimal = OptimizeRequest::new(&w.graph, &w.catalog)
            .run()
            .unwrap()
            .result
            .cost;
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_cost_budget(optimal / 2.0)
            .run()
            .unwrap_err();
        assert!(matches!(err, OptimizeError::CostBudgetExceeded { .. }));
        let ok = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_cost_budget(optimal * 2.0)
            .run();
        assert!(ok.is_ok());
    }

    #[test]
    fn time_budget_zero_aborts_engine_runs() {
        let w = workload::family_workload(GraphKind::Clique, 10, 0);
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_time_budget(Duration::ZERO)
            .run()
            .unwrap_err();
        assert!(matches!(err, OptimizeError::TimeBudgetExceeded { .. }));
    }

    #[test]
    fn outcome_into_result_keeps_plan() {
        let w = workload::family_workload(GraphKind::Chain, 5, 5);
        let outcome = OptimizeRequest::new(&w.graph, &w.catalog).run().unwrap();
        let cost = outcome.result.cost;
        assert_eq!(outcome.into_result().cost, cost);
    }

    #[test]
    fn memory_budget_errors_by_default() {
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_memory_budget(1024)
            .run()
            .unwrap_err();
        assert!(matches!(err, OptimizeError::MemoryBudgetExceeded { .. }));
    }

    #[test]
    fn degrade_falls_back_after_a_time_trip() {
        use joinopt_telemetry::MetricsCollector;
        let w = workload::family_workload(GraphKind::Clique, 10, 3);
        let metrics = MetricsCollector::new();
        let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_time_budget(Duration::ZERO)
            .on_budget_exceeded(BudgetAction::Degrade)
            .with_observer(&metrics)
            .run()
            .unwrap();
        let info = outcome.degradation.as_ref().expect("ladder must be taken");
        assert_eq!(
            info.rung,
            DegradationRung::Idp {
                block_size: DEGRADE_IDP_BLOCK_SIZE
            }
        );
        assert_eq!(info.trigger, TripKind::Time);
        assert_eq!(info.time_budget, Some(Duration::ZERO));
        assert!(
            info.detail.contains("time budget"),
            "detail: {}",
            info.detail
        );
        // The degraded plan is still a complete, connected plan.
        assert_eq!(outcome.result.tree.relations(), w.graph.all_relations());
        assert_eq!(outcome.result.tree.num_joins(), 9);
        assert!(outcome.result.cost.is_finite());
        let report = metrics.report();
        assert_eq!(report.budget_exceeded, Some("time"));
        assert_eq!(report.degraded_rung, Some("idp"));
    }

    #[test]
    fn degrade_falls_back_after_a_memory_trip() {
        let w = workload::family_workload(GraphKind::Clique, 13, 0);
        let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_memory_budget(64 * 1024)
            .on_budget_exceeded(BudgetAction::Degrade)
            .run()
            .unwrap();
        let info = outcome.degradation.as_ref().expect("ladder must be taken");
        assert_eq!(info.trigger, TripKind::Memory);
        assert_eq!(info.memory_budget, Some(64 * 1024));
        assert!(info.memory_used > 64 * 1024);
        assert_eq!(outcome.result.tree.relations(), w.graph.all_relations());
    }

    #[test]
    fn degrade_keeps_the_exact_plan_on_a_cost_trip() {
        let w = workload::family_workload(GraphKind::Chain, 6, 1);
        let optimal = OptimizeRequest::new(&w.graph, &w.catalog)
            .run()
            .unwrap()
            .result
            .cost;
        let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_cost_budget(optimal / 2.0)
            .on_budget_exceeded(BudgetAction::Degrade)
            .run()
            .unwrap();
        let info = outcome
            .degradation
            .as_ref()
            .expect("cost trip must be tagged");
        assert_eq!(info.rung, DegradationRung::Exact);
        assert_eq!(info.trigger, TripKind::Cost);
        assert_eq!(outcome.result.cost.to_bits(), optimal.to_bits());
    }

    #[test]
    fn cancellation_outranks_the_degradation_ladder() {
        use crate::cancel::CancelFlag;
        let w = workload::family_workload(GraphKind::Clique, 10, 0);
        let flag = CancelFlag::new();
        flag.cancel();
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_cancel_flag(flag)
            .on_budget_exceeded(BudgetAction::Degrade)
            .run()
            .unwrap_err();
        assert!(matches!(err, OptimizeError::Cancelled));
    }

    #[test]
    fn untripped_budgets_leave_results_bit_identical() {
        let w = workload::family_workload(GraphKind::Cycle, 9, 4);
        let plain = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .run()
            .unwrap();
        let budgeted = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_time_budget(Duration::from_secs(3600))
            .with_memory_budget(1 << 30)
            .on_budget_exceeded(BudgetAction::Degrade)
            .run()
            .unwrap();
        assert!(budgeted.degradation.is_none());
        assert_eq!(budgeted.result.cost.to_bits(), plain.result.cost.to_bits());
        assert_eq!(budgeted.result.tree, plain.result.tree);
        assert_eq!(budgeted.result.counters, plain.result.counters);
    }
}
