//! Answer checks against an independent reference.
//!
//! A sampled reply is right when its `cost` equals, bit for bit, a run
//! of a fresh cache-less [`OptimizerService`] with the algorithm the
//! reply names, on the spec captured from the generator's own graph and
//! catalog (never from the request text), and lies within `1e-9`
//! relative of DPccp's optimal cost.

use joinopt_core::Algorithm;
use joinopt_service::{OptimizerService, QuerySpec, ServiceConfig, ServiceRequest};
use joinopt_telemetry::json::JsonValue;
use joinopt_telemetry::NoopObserver;

use crate::workload::Stream;

/// Relative tolerance against DPccp's cost.
const TOLERANCE: f64 = 1e-9;

/// The cost of `spec` under `algorithm` from a fresh cache-less service.
pub fn reference_cost(spec: &QuerySpec, algorithm: Algorithm) -> Result<f64, String> {
    let service = OptimizerService::new(ServiceConfig {
        cache: None,
        ..ServiceConfig::default()
    });
    let req = ServiceRequest::new(spec.clone()).with_algorithm(algorithm);
    service
        .submit_one(&req, &mut None, &NoopObserver)
        .map(|o| o.result.cost)
        .map_err(|e| e.to_string())
}

/// The spec of text `t` captured from the generator's own graph and
/// catalog.
pub fn generator_spec(stream: &Stream, t: u32) -> QuerySpec {
    let w = stream.texts[t as usize].0.build();
    QuerySpec::capture(&w.graph, &w.catalog).expect("generated catalogs match their graphs")
}

/// Checks one reply to the request line of text `t`.
pub fn check_reply(stream: &Stream, t: u32, reply: &str) -> Result<(), String> {
    let v = JsonValue::parse(reply).map_err(|e| format!("text {t}: bad reply JSON: {e}"))?;
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("text {t}: reply lacks {k}: {reply}"))
    };
    if field("status")?.as_str() != Some("ok") {
        return Err(format!("text {t}: not ok: {reply}"));
    }
    if field("id")?.as_str() != Some(t.to_string().as_str()) {
        return Err(format!("text {t}: reply to another request: {reply}"));
    }
    let name = field("algorithm")?.as_str().unwrap_or("");
    let algorithm =
        Algorithm::parse(name).ok_or_else(|| format!("text {t}: unknown algorithm {name}"))?;
    let cost = field("cost")?
        .as_f64()
        .ok_or_else(|| format!("text {t}: non-numeric cost"))?;
    let spec = generator_spec(stream, t);
    if field("relations")?.as_u64() != Some(spec.num_relations() as u64) {
        return Err(format!("text {t}: wrong relation count: {reply}"));
    }
    let reference = reference_cost(&spec, algorithm)?;
    if reference.to_bits() != cost.to_bits() {
        return Err(format!(
            "text {t}: {name} cost {cost:e} differs from the reference {reference:e}"
        ));
    }
    let optimal = if algorithm == Algorithm::DpCcp {
        reference
    } else {
        reference_cost(&spec, Algorithm::DpCcp)?
    };
    if (cost - optimal).abs() > TOLERANCE * optimal.abs() {
        return Err(format!(
            "text {t}: cost {cost:e} is not DPccp's optimum {optimal:e}"
        ));
    }
    Ok(())
}

/// Checks every sampled `(text, reply)` pair on two threads; returns the
/// failures.
pub fn check_sample(stream: &Stream, sample: &[(u32, String)]) -> Vec<String> {
    let half = sample.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = sample
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|(t, reply)| check_reply(stream, *t, reply).err())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("checker thread panicked"))
            .collect()
    })
}
