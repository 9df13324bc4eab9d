//! Pinned behavior: with no [`RequestTrace`] attached, the gateway's
//! request path reads the clock a **fixed, minimal** number of times
//! and produces bit-identical plans — the zero-overhead promise of the
//! serve-path tracing.
//!
//! This lives in its own integration-test binary on purpose: it is the
//! sole user of the process-global [`clock_reads`] counter, so no
//! concurrently running test can pollute the deltas. Everything runs
//! under a manual clock; no wall time is read outside the counter.

use std::time::Duration;

use joinopt_cost::workload;
use joinopt_qgraph::GraphKind;
use joinopt_service::{
    clock_reads, Clock, Gateway, GatewayConfig, OptimizerService, QuerySpec, ServiceConfig,
    ServiceRequest,
};
use joinopt_telemetry::{NoopObserver, RequestTrace};

fn request(seed: u64) -> ServiceRequest {
    let w = workload::family_workload(GraphKind::Chain, 6, seed);
    let spec = QuerySpec::capture(&w.graph, &w.catalog).expect("chain captures");
    ServiceRequest::new(spec)
}

fn manual_gateway() -> Gateway {
    Gateway::with_clock(
        OptimizerService::new(ServiceConfig::default()),
        GatewayConfig::default(),
        Clock::manual(),
    )
}

/// One test function on purpose: the counter is global, so the checks
/// must run sequentially even under the default parallel test runner.
#[test]
fn untraced_serve_path_is_zero_overhead() {
    let obs = NoopObserver;
    let gateway = manual_gateway();
    let mut session = None;
    let req = request(0);

    // Untraced, no deadline: admission stamp + breaker admission — two
    // reads, cold or warm. Any third read is tracing leaking into the
    // fast path.
    let before = clock_reads();
    let cold = gateway
        .handle(&req, None, &mut session, &obs)
        .expect("cold optimize");
    let cold_reads = clock_reads() - before;
    assert!(!cold.cache_hit);
    assert_eq!(
        cold_reads, 2,
        "untraced cold request must cost exactly two clock reads"
    );

    let before = clock_reads();
    let warm = gateway
        .handle(&req, None, &mut session, &obs)
        .expect("warm optimize");
    let warm_reads = clock_reads() - before;
    assert!(warm.cache_hit);
    assert_eq!(
        warm_reads, 2,
        "untraced warm request must cost exactly two clock reads"
    );

    // A lifecycle deadline adds exactly one read per attempt (the
    // remaining-allowance computation), nothing more.
    let before = clock_reads();
    gateway
        .handle(&req, Some(Duration::from_secs(10)), &mut session, &obs)
        .expect("deadlined optimize");
    assert_eq!(
        clock_reads() - before,
        3,
        "a deadline costs exactly one extra read per attempt"
    );

    // Traced, the same request pays for its span boundaries — strictly
    // more reads — while the plan's cost bits stay identical: tracing
    // observes the computation, never steers it.
    let traced_gateway = manual_gateway();
    let mut traced_session = None;
    let mut trace = RequestTrace::new(
        "t-overhead".to_string(),
        &req.tenant,
        "optimize",
        traced_gateway.clock().now_ns(),
    );
    let before = clock_reads();
    let traced = traced_gateway
        .handle_traced(&req, None, &mut traced_session, &obs, Some(&mut trace))
        .expect("traced optimize");
    let traced_reads = clock_reads() - before;
    assert!(
        traced_reads > cold_reads,
        "tracing must actually record span boundaries ({traced_reads} vs {cold_reads})"
    );
    assert_eq!(trace.open_count(), 0, "all spans closed on success");
    assert!(
        trace.spans().iter().any(|s| s.stage == "optimize"),
        "cold traced request records an optimize span"
    );
    assert_eq!(
        traced.result.cost.to_bits(),
        cold.result.cost.to_bits(),
        "traced and untraced plans must be bit-identical"
    );
    assert_eq!(
        traced.result.cardinality.to_bits(),
        cold.result.cardinality.to_bits()
    );
}
