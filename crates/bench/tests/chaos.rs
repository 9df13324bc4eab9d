//! End-to-end gate for `joinopt load --chaos`.
//!
//! Runs in its own test binary (= its own process) because the chaos
//! harness arms the process-global `serve-worker-panic` failpoint: in
//! the library's shared test process the burst would leak panics into
//! unrelated concurrently-running tests.
//!
//! Only meaningful under `--cfg failpoints`; the plain-cfg variant
//! checks that chaos mode refuses to run without fault injection.

use joinopt_bench::chaos::{run_chaos, ChaosConfig};
use joinopt_telemetry::NoopObserver;

#[cfg(not(failpoints))]
#[test]
fn chaos_refuses_without_failpoints_build() {
    let err = run_chaos(&ChaosConfig::default(), &NoopObserver).unwrap_err();
    assert!(err.contains("failpoints"), "{err}");
}

#[cfg(failpoints)]
#[test]
fn chaos_run_passes_its_gates() {
    use joinopt_telemetry::json::JsonValue;

    let report = run_chaos(
        &ChaosConfig {
            requests: 120,
            max_n: 7,
            ..ChaosConfig::default()
        },
        &NoopObserver,
    )
    .unwrap();
    report.verify().unwrap();
    assert!(
        report.burst.errors.panic > 0,
        "burst must see injected panics: {report:?}"
    );
    assert!(report.breaker_opens >= 1);
    assert_eq!(report.wrong_plans, 0);
    assert!(report.rechecked > 0);
    assert!(report.drained);

    let v = JsonValue::parse(&report.to_json()).unwrap();
    assert_eq!(v.get("mode").unwrap().as_str(), Some("chaos"));
    assert_eq!(
        v.get("chaos").unwrap().get("wrong_plans").unwrap().as_u64(),
        Some(0)
    );
    assert!(report.render().contains("recovery"));
}
