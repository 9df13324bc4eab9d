//! The service-level resilience matrix under injected faults: a fault
//! burst opens the tenant's circuit breaker, the breaker recloses after
//! the cooldown, and a drain started with requests still in flight
//! completes cleanly; a failed request is not run again; and a batch
//! isolates every panicking request to its own slot, whether one
//! request panics or all of them do.
//!
//! Lives in its own integration binary (own process), and its tests
//! serialize on one lock: the failpoint registry is process-global, so
//! a site armed by one test must never fire inside another. Only the
//! failpoints build (`RUSTFLAGS="--cfg failpoints"`) can inject faults,
//! so the whole file is gated on that cfg.

#![cfg(failpoints)]

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use joinopt_core::failpoint::{self, FailAction};
use joinopt_core::{Algorithm, OptimizeError};
use joinopt_qgraph::GraphKind;
use joinopt_service::{
    BreakerConfig, BreakerState, Clock, Gateway, GatewayConfig, GatewayError, OptimizerService,
    QuerySpec, ServiceConfig, ServiceOutcome, ServiceRequest,
};
use joinopt_telemetry::NoopObserver;

static FP_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spec_of(kind: GraphKind, n: usize, seed: u64) -> QuerySpec {
    let w = joinopt_cost::workload::family_workload(kind, n, seed);
    QuerySpec::capture(&w.graph, &w.catalog).expect("family workloads are connected")
}

fn spec(n: usize, seed: u64) -> QuerySpec {
    spec_of(GraphKind::Chain, n, seed)
}

/// A service without a plan cache, so every request runs the engine.
fn uncached() -> OptimizerService {
    OptimizerService::new(ServiceConfig {
        cache: None,
        ..ServiceConfig::default()
    })
}

fn assert_panicked(r: &Result<ServiceOutcome, OptimizeError>, i: usize) {
    let err = r.as_ref().expect_err("the request must fail");
    assert!(
        matches!(err, OptimizeError::Internal(m) if m.contains("panic")),
        "request {i}: {err}"
    );
}

#[test]
fn fault_burst_opens_breaker_and_drain_completes() {
    let _serial = serial();
    let gw = Gateway::with_clock(
        OptimizerService::new(ServiceConfig::default()),
        GatewayConfig {
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(250),
                success_threshold: 1,
            },
            ..GatewayConfig::default()
        },
        Clock::manual(),
    );
    let mut session = None;
    let obs = NoopObserver;

    // Healthy baseline for the tenant.
    let warm = ServiceRequest::new(spec(5, 1)).with_tenant("acme");
    gw.handle(&warm, None, &mut session, &obs)
        .expect("baseline request succeeds");
    assert_eq!(gw.breaker_state("acme"), BreakerState::Closed);

    // Fault burst: three consecutive injected worker panics trip the
    // breaker at its failure threshold.
    failpoint::configure_times("serve-worker-panic", FailAction::Panic, 3);
    for seed in 2..5 {
        let req = ServiceRequest::new(spec(5, seed)).with_tenant("acme");
        match gw.handle(&req, None, &mut session, &obs) {
            Err(GatewayError::Failed(e)) => {
                assert!(format!("{e}").contains("panic"), "unexpected failure: {e}");
            }
            other => panic!("burst request must fail: {other:?}"),
        }
    }
    failpoint::clear("serve-worker-panic");
    assert_eq!(gw.breaker_state("acme"), BreakerState::Open);
    assert!(gw.stats().breaker_opens >= 1);

    // While open, the tenant is rejected without reaching a worker —
    // and other tenants are unaffected (the breaker is per-tenant).
    let rejected = ServiceRequest::new(spec(5, 6)).with_tenant("acme");
    assert!(matches!(
        gw.handle(&rejected, None, &mut session, &obs),
        Err(GatewayError::Rejected(_))
    ));
    let other = ServiceRequest::new(spec(5, 7)).with_tenant("globex");
    gw.handle(&other, None, &mut session, &obs)
        .expect("other tenants keep flowing");

    // After the cooldown a probe succeeds and the breaker recloses.
    gw.clock().advance(Duration::from_millis(300));
    let probe = ServiceRequest::new(spec(5, 8)).with_tenant("acme");
    gw.handle(&probe, None, &mut session, &obs)
        .expect("post-cooldown probe succeeds");
    assert_eq!(gw.breaker_state("acme"), BreakerState::Closed);

    // Drain with a request still in flight: the drain must wait for it
    // and then complete cleanly.
    let gw = std::sync::Arc::new(gw);
    let bg = {
        let gw = std::sync::Arc::clone(&gw);
        std::thread::spawn(move || {
            let mut session = None;
            let req = ServiceRequest::new(spec(9, 9)).with_tenant("acme");
            gw.handle(&req, None, &mut session, &NoopObserver)
        })
    };
    // Give the background request a moment to enter, then drain.
    for _ in 0..200 {
        if gw.stats().in_flight > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    gw.begin_drain();
    let refused = ServiceRequest::new(spec(5, 10)).with_tenant("acme");
    assert!(matches!(
        gw.handle(&refused, None, &mut session, &obs),
        Err(GatewayError::Rejected(_))
    ));
    gw.await_drained(Duration::from_secs(10), &obs)
        .expect("drain completes within the timeout");
    bg.join()
        .expect("background thread exits")
        .expect("in-flight request completes during the drain");
    assert_eq!(gw.stats().in_flight, 0);
}

#[test]
fn an_internal_failure_is_terminal() {
    let _serial = serial();
    let gw = Gateway::with_clock(
        OptimizerService::new(ServiceConfig::default()),
        GatewayConfig::default(),
        Clock::manual(),
    );
    let mut session = None;
    let req = ServiceRequest::new(spec(6, 11)).with_tenant("acme");

    // One injected worker panic: the request that hits it fails typed,
    // and the gateway does not run it a second time.
    failpoint::configure_times("serve-worker-panic", FailAction::Panic, 1);
    let first = gw.handle(&req, None, &mut session, &NoopObserver);
    failpoint::clear("serve-worker-panic");
    match first {
        Err(GatewayError::Failed(OptimizeError::Internal(m))) => {
            assert!(m.contains("panic"), "{m}");
        }
        other => panic!("the panicked request must fail: {other:?}"),
    }

    // The identical request then runs on a fresh session and succeeds.
    assert!(session.is_none(), "a panicked run leaves no session behind");
    let second = gw
        .handle(&req, None, &mut session, &NoopObserver)
        .expect("the repeat succeeds once the fault is gone");
    assert!(!second.cache_hit);
    let stats = gw.stats();
    assert_eq!((stats.failed, stats.completed), (1, 1));
}

#[test]
fn injected_panic_is_isolated_to_one_batch_query() {
    let _serial = serial();
    let reqs: Vec<_> = (0..3)
        .map(|seed| {
            ServiceRequest::new(spec_of(GraphKind::Cycle, 7, seed)).with_algorithm(Algorithm::DpCcp)
        })
        .collect();
    // One panic: exactly one request blows up (whichever worker reaches
    // a table insert first consumes the trigger) and the rest must
    // complete on their workers' sessions.
    failpoint::configure_times("table-insert", FailAction::Panic, 1);
    let results = uncached().submit_batch(&reqs, &NoopObserver);
    failpoint::clear_all();
    assert_eq!(results.len(), 3);
    let mut panicked = 0;
    for (i, r) in results.iter().enumerate() {
        match r {
            Err(_) => {
                assert_panicked(r, i);
                panicked += 1;
            }
            Ok(ok) => assert_eq!(ok.result.tree.num_relations(), 7, "request {i}"),
        }
    }
    assert_eq!(panicked, 1, "exactly one request consumes the trigger");
}

#[test]
fn batch_survives_every_query_panicking() {
    let _serial = serial();
    // Unlimited panics: every request in the batch blows up its
    // worker's session. Each slot must come back as a typed error —
    // never a silent drop, a wrong-index shift, or a poisoned session
    // corrupting a neighbour — and a follow-up batch on the same
    // service must work again once the fault is cleared (a panicked
    // session is discarded, never reused).
    let reqs: Vec<_> = (0..4)
        .map(|seed| ServiceRequest::new(spec(6, seed)).with_algorithm(Algorithm::DpCcp))
        .collect();
    let service = uncached();
    failpoint::configure("table-insert", FailAction::Panic);
    let results = service.submit_batch(&reqs, &NoopObserver);
    failpoint::clear_all();
    assert_eq!(results.len(), 4);
    for (i, r) in results.iter().enumerate() {
        assert_panicked(r, i);
    }
    let recovered = service.submit_batch(&reqs, &NoopObserver);
    for (i, r) in recovered.iter().enumerate() {
        let ok = r
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i} after recovery: {e}"));
        assert_eq!(ok.result.tree.num_relations(), 6);
    }
}
