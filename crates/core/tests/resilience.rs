//! The graceful-degradation matrix: budgets, cancellation and (under
//! `--cfg failpoints`) injected faults.
//!
//! Every test asserts the pipeline's core promise: a tripped budget or
//! an injected fault either degrades to a *valid connected plan* tagged
//! with [`DegradationInfo`], or fails with a typed error for the
//! affected query alone — it never returns a malformed plan. Panic
//! isolation belongs to the service's worker pool and is tested there
//! (`crates/service/tests/resilience_matrix.rs`).

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use joinopt_core::{
    Algorithm, BudgetAction, CancelFlag, DegradationRung, DpHyp, OptimizeError, OptimizeOutcome,
    OptimizeRequest, Session, TripKind,
};
use joinopt_cost::workload::{self, Workload};
use joinopt_cost::{Catalog, CostError, Cout};
use joinopt_qgraph::generators::generate;
use joinopt_qgraph::{GraphKind, Hypergraph};

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
fn memory_budget_verdict_does_not_depend_on_session_history() {
    let _serial = serial();
    // `joinopt serve` keeps one session per connection, so a request
    // must get the verdict a fresh session gives it, whatever larger
    // queries the session served before and left capacity behind.
    let budget = 64 * 1024;
    let small = workload::family_workload(GraphKind::Chain, 4, 0);
    let engines = [
        Algorithm::DpSub,
        Algorithm::DpConv,
        Algorithm::DpCcp,
        Algorithm::DpSize,
    ];
    let run_small = |alg, session: &mut Session| {
        OptimizeRequest::new(&small.graph, &small.catalog)
            .with_algorithm(alg)
            .with_memory_budget(budget)
            .run_in(session)
    };
    let earlier = [
        (Algorithm::DpConv, GraphKind::Clique, 12),
        (Algorithm::DpSub, GraphKind::Clique, 14),
        (Algorithm::DpCcp, GraphKind::Star, 16),
    ];
    for (prior_alg, kind, n) in earlier {
        let mut session = Session::new();
        for alg in engines {
            assert!(run_small(alg, &mut session).is_ok(), "{alg:?} fresh");
        }
        let prior = workload::family_workload(kind, n, 0);
        OptimizeRequest::new(&prior.graph, &prior.catalog)
            .with_algorithm(prior_alg)
            .run_in(&mut session)
            .unwrap();
        for alg in engines {
            let verdict = run_small(alg, &mut session);
            assert!(
                verdict.is_ok(),
                "{alg:?} after {prior_alg:?} on {kind} {n}: {:?}",
                verdict.err()
            );
        }
    }
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
#[test]
fn overflowing_statistics_are_a_typed_error_in_every_engine() {
    let _serial = serial();
    // 1e200 × 1e200 overflows f64 at the first join; selectivity 1.0
    // keeps the product from shrinking back. No engine may hand back an
    // infinite plan cost as a success.
    for kind in [GraphKind::Chain, GraphKind::Star, GraphKind::Clique] {
        let g = generate(kind, 4);
        let mut catalog = Catalog::new(&g);
        for i in 0..g.num_relations() {
            catalog.set_cardinality(i, 1e200).unwrap();
        }
        for e in 0..g.num_edges() {
            catalog.set_selectivity(e, 1.0).unwrap();
        }
        let mut outcomes: Vec<(String, Result<f64, OptimizeError>)> = Algorithm::CONCRETE
            .into_iter()
            .map(|alg| {
                let r = OptimizeRequest::new(&g, &catalog).with_algorithm(alg).run();
                (format!("{alg:?}"), r.map(|o| o.result.cost))
            })
            .collect();
        let h = Hypergraph::from_query_graph(&g);
        outcomes.push((
            "DpHyp".into(),
            DpHyp.optimize(&h, &catalog, &Cout).map(|r| r.cost),
        ));
        for (name, r) in outcomes {
            assert!(
                matches!(
                    r,
                    Err(OptimizeError::Cost(CostError::NonFiniteEstimate { .. }))
                ),
                "{name} on {kind}: {r:?}"
            );
        }
    }
}

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
    fn injected_panic_in_a_request_is_catchable_by_the_caller() {
        let _guard = armed();
        // Outside the service's worker pool no isolation is promised — but the
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
