//! The graceful-degradation matrix: budgets, cancellation, panic
//! isolation and (under `--cfg failpoints`) injected faults.
//!
//! Every test asserts the pipeline's core promise: a tripped budget or
//! an isolated fault either degrades to a *valid connected plan* tagged
//! with [`DegradationInfo`], or fails with a typed error for the
//! affected query alone — it never panics the caller and never returns
//! a malformed plan.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use joinopt_core::{
    Algorithm, BudgetAction, CancelFlag, DegradationRung, OptimizeError, OptimizeOutcome,
    OptimizeRequest, Optimizer, TripKind,
};
use joinopt_cost::workload::{self, Workload};
use joinopt_cost::Catalog;
use joinopt_qgraph::{GraphKind, QueryGraph};

/// The failpoint registry is process-global, so every test here
/// serializes on this lock: under `--cfg failpoints` a site armed by one
/// test must never fire inside another (the ladder's rungs reach
/// `table-insert`, `arena-alloc` and `estimator` too).
static FP_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn assert_complete_plan(outcome: &OptimizeOutcome, w: &Workload) {
    assert_eq!(outcome.result.tree.relations(), w.graph.all_relations());
    assert_eq!(outcome.result.tree.num_joins(), w.graph.num_relations() - 1);
    assert!(outcome.result.cost.is_finite() && outcome.result.cost > 0.0);
}

#[test]
fn every_algorithm_honours_a_zero_time_budget() {
    let _serial = serial();
    let w = workload::family_workload(GraphKind::Clique, 10, 0);
    for alg in Algorithm::CONCRETE {
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(alg)
            .with_time_budget(Duration::ZERO)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, OptimizeError::TimeBudgetExceeded { .. }),
            "{alg:?}: {err}"
        );
    }
}

#[test]
fn every_algorithm_honours_a_preset_cancel_flag() {
    let _serial = serial();
    let w = workload::family_workload(GraphKind::Clique, 10, 0);
    for alg in Algorithm::CONCRETE {
        let flag = CancelFlag::new();
        flag.cancel();
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(alg)
            .with_cancel_flag(flag)
            .run()
            .unwrap_err();
        assert!(matches!(err, OptimizeError::Cancelled), "{alg:?}: {err}");
    }
}

#[test]
fn memory_accounted_algorithms_honour_a_tiny_budget() {
    let _serial = serial();
    // Every algorithm builds a DP table or grows a plan arena, charges
    // the shared token and must trip.
    let w = workload::family_workload(GraphKind::Clique, 12, 0);
    for alg in Algorithm::CONCRETE {
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(alg)
            .with_memory_budget(16)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, OptimizeError::MemoryBudgetExceeded { .. }),
            "{alg:?}: {err}"
        );
    }
}

#[test]
fn time_trip_degrades_to_a_valid_plan_on_every_graph_kind() {
    let _serial = serial();
    for kind in GraphKind::ALL {
        let w = workload::family_workload(kind, 9, 7);
        let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpCcp)
            .with_time_budget(Duration::ZERO)
            .on_budget_exceeded(BudgetAction::Degrade)
            .run()
            .unwrap();
        let info = outcome.degradation.as_ref().expect("ladder taken");
        assert_eq!(info.trigger, TripKind::Time, "{kind}");
        assert!(
            matches!(info.rung, DegradationRung::Idp { .. }),
            "{kind}: first rung should succeed"
        );
        assert_complete_plan(&outcome, &w);
    }
}

#[test]
fn memory_trip_degrades_through_the_pooled_dpsub_path() {
    let _serial = serial();
    // Clique 13 needs ~2^13 pooled table slots: far beyond 64 KiB, while
    // the IDP rung's bounded per-round tables fit comfortably.
    let w = workload::family_workload(GraphKind::Clique, 13, 0);
    let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
        .with_algorithm(Algorithm::DpSub)
        .with_memory_budget(64 * 1024)
        .on_budget_exceeded(BudgetAction::Degrade)
        .run()
        .unwrap();
    let info = outcome.degradation.as_ref().expect("ladder taken");
    assert_eq!(info.trigger, TripKind::Memory);
    assert!(info.memory_used > 64 * 1024);
    assert_complete_plan(&outcome, &w);
}

#[test]
fn degradation_info_records_the_original_failure() {
    let _serial = serial();
    let w = workload::family_workload(GraphKind::Clique, 11, 0);
    let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
        .with_algorithm(Algorithm::DpSub)
        .with_time_budget(Duration::ZERO)
        .on_budget_exceeded(BudgetAction::Degrade)
        .run()
        .unwrap();
    let info = outcome.degradation.expect("ladder taken");
    assert_eq!(info.time_budget, Some(Duration::ZERO));
    assert_eq!(info.memory_budget, None);
    assert!(
        info.detail.contains("time budget"),
        "detail should render the original error: {}",
        info.detail
    );
}

#[test]
fn degraded_plans_cost_no_less_than_the_optimum() {
    let _serial = serial();
    // The ladder trades optimality for survival — never correctness.
    let w = workload::family_workload(GraphKind::Cycle, 9, 3);
    let exact = OptimizeRequest::new(&w.graph, &w.catalog)
        .with_algorithm(Algorithm::DpCcp)
        .run()
        .unwrap();
    let degraded = OptimizeRequest::new(&w.graph, &w.catalog)
        .with_algorithm(Algorithm::DpCcp)
        .with_time_budget(Duration::ZERO)
        .on_budget_exceeded(BudgetAction::Degrade)
        .run()
        .unwrap();
    assert!(degraded.degradation.is_some());
    assert!(degraded.result.cost >= exact.result.cost * (1.0 - 1e-9));
}

#[test]
fn ladder_exhausted_when_even_goo_trips() {
    let _serial = serial();
    // A 16-byte budget is below even GOO's small accounted footprint,
    // so the ladder runs out of rungs: exact trips, IDP trips, GOO
    // trips — and the caller gets the typed error of the *last* rung
    // instead of a plan. Degradation trades optimality for survival,
    // but it never fabricates a plan it could not build.
    let w = workload::family_workload(GraphKind::Clique, 10, 0);
    let err = OptimizeRequest::new(&w.graph, &w.catalog)
        .with_algorithm(Algorithm::DpSub)
        .with_memory_budget(16)
        .on_budget_exceeded(BudgetAction::Degrade)
        .run()
        .unwrap_err();
    assert!(
        matches!(err, OptimizeError::MemoryBudgetExceeded { .. }),
        "exhausted ladder must surface the budget error, got: {err}"
    );
}

#[test]
fn batch_isolates_invalid_queries_between_valid_ones() {
    let _serial = serial();
    let good: Vec<_> = (0..4)
        .map(|seed| workload::family_workload(GraphKind::ALL[seed % 4], 6, seed as u64))
        .collect();
    let disconnected = QueryGraph::new(3).unwrap();
    let disc_cat = Catalog::new(&disconnected);
    let empty = QueryGraph::new(0).unwrap();
    let empty_cat = Catalog::new(&empty);
    let mut queries: Vec<(&QueryGraph, &Catalog)> =
        good.iter().map(|w| (&w.graph, &w.catalog)).collect();
    queries.insert(1, (&disconnected, &disc_cat));
    queries.insert(3, (&empty, &empty_cat));
    // Twice on the same optimizer: worker count is automatic now, and
    // isolation must hold on a fresh pool and on a reused one alike.
    for _ in 0..2 {
        let results = Optimizer::new().optimize_batch(&queries);
        assert_eq!(results.len(), 6);
        assert!(results[1].is_err() && results[3].is_err());
        for i in [0, 2, 4, 5] {
            assert!(results[i].is_ok(), "query {i} must survive its neighbours");
        }
    }
}

#[test]
fn cancel_flag_shared_across_requests_stops_each() {
    let _serial = serial();
    let w = workload::family_workload(GraphKind::Clique, 9, 0);
    let flag = CancelFlag::new();
    // Not yet cancelled: runs complete.
    let ok = OptimizeRequest::new(&w.graph, &w.catalog)
        .with_cancel_flag(flag.clone())
        .run();
    assert!(ok.is_ok());
    flag.cancel();
    for alg in [Algorithm::DpSub, Algorithm::DpCcp, Algorithm::Goo] {
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(alg)
            .with_cancel_flag(flag.clone())
            .run()
            .unwrap_err();
        assert!(matches!(err, OptimizeError::Cancelled), "{alg:?}");
    }
}

/// Injected-fault matrix: only meaningful when the crate is compiled
/// with `RUSTFLAGS="--cfg failpoints"` (see `ci.sh`).
#[cfg(failpoints)]
mod failpoints {
    use super::*;
    use joinopt_core::failpoint::{self, FailAction};

    /// Takes the shared lock and clears the registry before arming.
    fn armed() -> MutexGuard<'static, ()> {
        let guard = serial();
        failpoint::clear_all();
        guard
    }

    /// Sites reachable from a sequential exact attempt, paired with the
    /// algorithm that exercises them.
    const SEQUENTIAL_SITES: [(&str, Algorithm); 3] = [
        ("table-insert", Algorithm::DpCcp),
        ("arena-alloc", Algorithm::DpSize),
        ("estimator", Algorithm::DpSub),
    ];

    #[test]
    fn injected_errors_fail_typed_without_degradation() {
        let _guard = armed();
        let w = workload::family_workload(GraphKind::Cycle, 7, 1);
        for (site, alg) in SEQUENTIAL_SITES {
            failpoint::configure_times(site, FailAction::Error, 1);
            let err = OptimizeRequest::new(&w.graph, &w.catalog)
                .with_algorithm(alg)
                .run()
                .unwrap_err();
            assert!(
                matches!(err, OptimizeError::Internal(ref m) if m.contains(site)),
                "{site}: {err}"
            );
            failpoint::clear_all();
        }
    }

    #[test]
    fn injected_errors_degrade_to_a_valid_plan() {
        let _guard = armed();
        let w = workload::family_workload(GraphKind::Cycle, 8, 2);
        for (site, alg) in SEQUENTIAL_SITES {
            // One shot: the exact attempt absorbs the fault, the ladder
            // runs clean and the first rung wins.
            failpoint::configure_times(site, FailAction::Error, 1);
            let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
                .with_algorithm(alg)
                .on_budget_exceeded(BudgetAction::Degrade)
                .run()
                .unwrap();
            let info = outcome.degradation.as_ref().expect("ladder taken");
            assert_eq!(info.trigger, TripKind::Internal, "{site}");
            assert!(matches!(info.rung, DegradationRung::Idp { .. }), "{site}");
            assert!(info.detail.contains(site), "{site}: {}", info.detail);
            assert_complete_plan(&outcome, &w);
            failpoint::clear_all();
        }
    }

    #[test]
    fn persistent_faults_walk_the_whole_ladder() {
        let _guard = armed();
        // "table-insert" armed for every hit kills the exact DP *and*
        // the IDP rung (both insert into DP tables); GOO never touches a
        // table and survives as the last rung.
        let w = workload::family_workload(GraphKind::Chain, 7, 4);
        failpoint::configure("table-insert", FailAction::Error);
        let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpCcp)
            .on_budget_exceeded(BudgetAction::Degrade)
            .run()
            .unwrap();
        failpoint::clear_all();
        let info = outcome.degradation.as_ref().expect("ladder taken");
        assert_eq!(info.rung, DegradationRung::Greedy);
        assert_eq!(info.trigger, TripKind::Internal);
        assert_complete_plan(&outcome, &w);
    }

    #[test]
    fn faults_in_every_rung_surface_the_original_error() {
        let _guard = armed();
        // estimator fails everywhere: exact, IDP and GOO all need it.
        let w = workload::family_workload(GraphKind::Star, 6, 5);
        failpoint::configure("estimator", FailAction::Error);
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .on_budget_exceeded(BudgetAction::Degrade)
            .run()
            .unwrap_err();
        failpoint::clear_all();
        assert!(
            matches!(err, OptimizeError::Internal(ref m) if m.contains("estimator")),
            "{err}"
        );
    }

    #[test]
    fn injected_panic_is_isolated_to_one_batch_query() {
        let _guard = armed();
        let workloads: Vec<_> = (0..3)
            .map(|seed| workload::family_workload(GraphKind::Cycle, 7, seed))
            .collect();
        let queries: Vec<(&QueryGraph, &Catalog)> =
            workloads.iter().map(|w| (&w.graph, &w.catalog)).collect();
        // One panic: exactly one query blows up (worker count is
        // automatic now, so whichever worker reaches a table insert
        // first consumes the trigger) and the rest must complete on
        // fresh sessions.
        failpoint::configure_times("table-insert", FailAction::Panic, 1);
        let results = Optimizer::new()
            .with_algorithm(Algorithm::DpCcp)
            .optimize_batch(&queries);
        failpoint::clear_all();
        assert_eq!(results.len(), 3);
        let mut panicked = 0;
        for (i, r) in results.iter().enumerate() {
            match r {
                Err(e) => {
                    assert!(
                        matches!(e, OptimizeError::Internal(m) if m.contains("panic")),
                        "query {i}: {e}"
                    );
                    panicked += 1;
                }
                Ok(ok) => {
                    assert_eq!(ok.tree.relations(), workloads[i].graph.all_relations());
                }
            }
        }
        assert_eq!(panicked, 1, "exactly one query consumes the trigger");
    }

    #[test]
    fn batch_survives_every_query_panicking() {
        let _guard = armed();
        // Unlimited panics: every query in the batch blows up its
        // worker session. Each slot must come back as a typed error —
        // never a silent drop, a wrong-index shift, or a poisoned pool
        // corrupting a neighbour — and a follow-up batch on the same
        // optimizer must work again once the fault is cleared (the pool
        // discards every panicked session instead of reusing it).
        let workloads: Vec<_> = (0..4)
            .map(|seed| workload::family_workload(GraphKind::Chain, 6, seed))
            .collect();
        let queries: Vec<(&QueryGraph, &Catalog)> =
            workloads.iter().map(|w| (&w.graph, &w.catalog)).collect();
        failpoint::configure("table-insert", FailAction::Panic);
        let optimizer = Optimizer::new().with_algorithm(Algorithm::DpCcp);
        let results = optimizer.optimize_batch(&queries);
        failpoint::clear_all();
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            let err = r.as_ref().expect_err("every query must fail");
            assert!(
                matches!(err, OptimizeError::Internal(m) if m.contains("panic")),
                "query {i}: {err}"
            );
        }
        // Same optimizer, fault cleared: the pool must be clean.
        let recovered = optimizer.optimize_batch(&queries);
        for (i, r) in recovered.iter().enumerate() {
            let ok = r
                .as_ref()
                .unwrap_or_else(|e| panic!("query {i} after recovery: {e}"));
            assert_eq!(ok.tree.relations(), workloads[i].graph.all_relations());
        }
    }

    #[test]
    fn injected_panic_in_a_request_is_catchable_by_the_caller() {
        let _guard = armed();
        // Outside optimize_batch no isolation is promised — but the
        // panic must stay an unwind (caller-catchable), not an abort.
        let w = workload::family_workload(GraphKind::Chain, 6, 6);
        failpoint::configure_times("arena-alloc", FailAction::Panic, 1);
        let caught = std::panic::catch_unwind(|| {
            OptimizeRequest::new(&w.graph, &w.catalog)
                .with_algorithm(Algorithm::DpSize)
                .run()
        });
        failpoint::clear_all();
        assert!(caught.is_err(), "the injected panic must propagate");
    }
}
