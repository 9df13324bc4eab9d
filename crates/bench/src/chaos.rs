//! The chaos gate behind `joinopt load --chaos`.
//!
//! Replays a seeded chain/star/clique request stream through the
//! server's [`Gateway`]: each request is, with probability
//! `repeat_rate`, an exact repeat of an earlier query (the warm path the
//! plan cache exists for) and otherwise a fresh query. A fault burst is
//! injected mid-run (the `serve-worker-panic` failpoint, so the run
//! needs a `--cfg failpoints` build): a warmup third must run
//! error-free, the burst third panics every attempt until the breaker
//! opens, and the recovery third — after the faults clear and the
//! breaker recloses — must return to a healthy hit rate and p99. A
//! seeded sample of distinct answered requests is differentially
//! re-checked against a fresh sequential cold run: chaos may slow
//! requests down or fail them, but it must never change a plan.
//!
//! Throughput and per-layer latency of the real `joinopt serve` are
//! measured by the standalone `servebench/` package, not here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use joinopt_cost::workload::family_workload;
use joinopt_qgraph::GraphKind;
use joinopt_relset::XorShift64;
use joinopt_service::{
    BreakerConfig, BreakerState, CacheConfig, Gateway, GatewayConfig, GatewayStats,
    OptimizerService, Priority, QuerySpec, ServiceConfig, ServiceRequest, ShedConfig,
};
use joinopt_telemetry::json::{write_escaped, write_f64};
use joinopt_telemetry::Histogram;

/// The families the request mix draws from (the paper's structural
/// extremes, same as the perf matrix).
const LOAD_FAMILIES: [GraphKind; 3] = [GraphKind::Chain, GraphKind::Star, GraphKind::Clique];

/// Schema identifier of the chaos JSON report.
const SCHEMA: &str = "joinopt-load-v3";

/// Configuration of a `load --chaos` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Requests in the stream.
    pub requests: usize,
    /// Stream seed; the whole request mix is a pure function of it.
    pub seed: u64,
    /// Probability in `[0, 1]` that a request repeats an earlier query.
    pub repeat_rate: f64,
    /// Largest relation count in the mix (inclusive; fresh queries
    /// cycle n through `4..=max_n`).
    pub max_n: usize,
    /// Plan-cache byte budget.
    pub cache_bytes: usize,
    /// Concurrent client driver threads.
    pub drivers: usize,
    /// `serve-worker-panic` triggers armed at the start of the burst
    /// third (each failing request consumes one per attempt).
    pub burst_faults: usize,
    /// Distinct answered requests to differentially re-check against a
    /// fresh sequential cold run.
    pub recheck_samples: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            requests: 200,
            seed: 2006,
            repeat_rate: 0.5,
            max_n: 9,
            cache_bytes: 8 << 20,
            drivers: 4,
            burst_faults: 30,
            recheck_samples: 16,
        }
    }
}

/// Per-type error counts of a phase: the same reporting labels the serve
/// protocol uses for `error_type`, rolled up per request stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorBreakdown {
    /// Deadline/time-budget blowouts.
    pub timeout: usize,
    /// Memory-budget blowouts.
    pub memory: usize,
    /// Shed at a load watermark (or refused while draining).
    pub shed: usize,
    /// Worker panics (isolated by `catch_unwind`).
    pub panic: usize,
    /// Rejected by an open circuit breaker.
    pub breaker_open: usize,
    /// Everything else (parse, admission, internal).
    pub other: usize,
}

impl ErrorBreakdown {
    /// Books one error under its reporting label (a
    /// [`Rejection::kind`](joinopt_service::Rejection::kind) or
    /// [`error_kind`](joinopt_service::gateway::error_kind) string).
    pub fn record(&mut self, kind: &str) {
        match kind {
            "timeout" => self.timeout += 1,
            "memory" => self.memory += 1,
            "shed" | "draining" => self.shed += 1,
            "panic" => self.panic += 1,
            "breaker-open" => self.breaker_open += 1,
            _ => self.other += 1,
        }
    }

    /// Total errors across all types.
    pub fn total(&self) -> usize {
        self.timeout + self.memory + self.shed + self.panic + self.breaker_open + self.other
    }

    /// Errors that mean work was admitted and *died* — excludes the
    /// gateway's typed refusals (shed, breaker-open), which a client
    /// simply retries elsewhere.
    pub fn hard(&self) -> usize {
        self.timeout + self.memory + self.panic + self.other
    }

    fn to_json_object(self) -> String {
        format!(
            "{{\"timeout\": {}, \"memory\": {}, \"shed\": {}, \"panic\": {}, \
             \"breaker_open\": {}, \"other\": {}}}",
            self.timeout, self.memory, self.shed, self.panic, self.breaker_open, self.other
        )
    }
}

/// Builds the seeded request mix for `config`: fresh queries cycle
/// through family × size, repeats re-issue a uniformly chosen earlier
/// spec.
fn build_stream(config: &ChaosConfig) -> Vec<ServiceRequest> {
    let mut rng = XorShift64::seed_from_u64(config.seed ^ 0x4c6f_6164_4d69_7821); // "LoadMix!"
    let sizes = 4..=config.max_n.max(4);
    let mut fresh = 0u64;
    let mut specs: Vec<QuerySpec> = Vec::new();
    let mut stream = Vec::with_capacity(config.requests);
    for _ in 0..config.requests {
        let repeat = !specs.is_empty() && rng.next_f64() < config.repeat_rate;
        let spec = if repeat {
            specs[rng.gen_range(0..specs.len())].clone()
        } else {
            let kind = LOAD_FAMILIES[fresh as usize % LOAD_FAMILIES.len()];
            let n = sizes.clone().nth(fresh as usize % sizes.clone().count());
            let w = family_workload(kind, n.unwrap_or(4), config.seed.wrapping_add(fresh));
            fresh += 1;
            let spec =
                QuerySpec::capture(&w.graph, &w.catalog).expect("family workloads capture cleanly");
            specs.push(spec.clone());
            spec
        };
        stream.push(ServiceRequest::new(spec).with_tenant("load"));
    }
    stream
}

/// The hardened gateway the chaos run drives: one service worker with a
/// plan cache, a low watermark of 3 (so low-priority requests shed under
/// concurrency) and a breaker that opens after 3 consecutive failures.
fn chaos_gateway(config: &ChaosConfig, requests: usize) -> Gateway {
    let service = OptimizerService::new(ServiceConfig {
        worker_threads: 1,
        queue_capacity: requests.max(1),
        tenant_limit: requests.max(1),
        cache: Some(CacheConfig {
            byte_budget: config.cache_bytes,
            ..CacheConfig::default()
        }),
    });
    Gateway::new(
        service,
        GatewayConfig {
            shed: ShedConfig {
                low_watermark: 3,
                ..ShedConfig::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(100),
                success_threshold: 1,
            },
            seed: config.seed,
            ..GatewayConfig::default()
        },
    )
}

/// Outcome counters of one chaos phase (warmup / burst / recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Requests issued in the phase.
    pub requests: usize,
    /// Requests answered with a plan.
    pub completed: usize,
    /// Completed requests served from the plan cache.
    pub hits: usize,
    /// Hit rate over completed requests.
    pub hit_rate: f64,
    /// Per-type error counts (typed refusals included).
    pub errors: ErrorBreakdown,
    /// 99th-percentile latency of completed requests, nanoseconds.
    pub p99_ns: u64,
}

/// Results of one chaos run; [`ChaosReport::verify`] applies the gates.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The configuration that produced the run.
    pub config: ChaosConfig,
    /// The fault-free first third.
    pub warmup: PhaseStats,
    /// The middle third, run with the panic burst armed.
    pub burst: PhaseStats,
    /// The final third, after faults cleared and the breaker reclosed.
    pub recovery: PhaseStats,
    /// Breaker open transitions observed by the gateway.
    pub breaker_opens: u64,
    /// Whether the tenant's breaker was closed again before recovery.
    pub breaker_reclosed: bool,
    /// Sampled answers that diverged from the sequential cold re-run
    /// (must be 0: chaos may fail requests, never change plans).
    pub wrong_plans: usize,
    /// Distinct sampled answers re-checked.
    pub rechecked: usize,
    /// Whether the final drain completed with nothing in flight.
    pub drained: bool,
    /// Final gateway counters.
    pub gateway: GatewayStats,
}

fn arm_panic_burst(times: usize) {
    #[cfg(failpoints)]
    joinopt_core::failpoint::configure_times(
        "serve-worker-panic",
        joinopt_core::failpoint::FailAction::Panic,
        times,
    );
    #[cfg(not(failpoints))]
    let _ = times;
}

fn clear_faults() {
    #[cfg(failpoints)]
    joinopt_core::failpoint::clear("serve-worker-panic");
}

/// Runs the chaos scenario. Requires a `--cfg failpoints` build (the
/// burst has nothing to inject otherwise, so the run refuses to
/// pretend).
pub fn run_chaos(
    config: &ChaosConfig,
    obs: &(dyn joinopt_telemetry::Observer + Sync),
) -> Result<ChaosReport, String> {
    if !cfg!(failpoints) {
        return Err(
            "chaos mode needs fault injection: rebuild with RUSTFLAGS=\"--cfg failpoints\""
                .to_string(),
        );
    }
    // Mixed priorities over the seeded stream: ~10% low (sheds first
    // under the gateway's tightened watermark), ~10% high.
    let mut stream = build_stream(config);
    let mut rng = XorShift64::seed_from_u64(config.seed ^ 0x4368_616f_7321); // "Chaos!"
    for req in &mut stream {
        let r = rng.next_f64();
        let priority = if r < 0.1 {
            Priority::Low
        } else if r > 0.9 {
            Priority::High
        } else {
            Priority::Normal
        };
        *req = req.clone().with_priority(priority);
    }

    let gateway = chaos_gateway(config, stream.len());

    let third = stream.len() / 3;
    let (warm_reqs, rest) = stream.split_at(third);
    let (burst_reqs, recovery_reqs) = rest.split_at(third);

    let warmup = run_phase(&gateway, warm_reqs, 0, config.drivers, obs);
    arm_panic_burst(config.burst_faults);
    let burst = run_phase(&gateway, burst_reqs, third, config.drivers, obs);
    clear_faults();

    // Let the tenant's breaker reclose before judging recovery: probe
    // with the (cached) first query until the half-open probe succeeds.
    let mut breaker_reclosed = gateway.breaker_state("load") == BreakerState::Closed;
    if !breaker_reclosed {
        let probe = stream[0].clone();
        let mut session = None;
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(10));
            let _ = gateway.handle(&probe, None, &mut session, obs);
            if gateway.breaker_state("load") == BreakerState::Closed {
                breaker_reclosed = true;
                break;
            }
        }
    }

    let recovery = run_phase(&gateway, recovery_reqs, 2 * third, config.drivers, obs);

    let (rechecked, wrong_plans) = recheck(
        &stream,
        &[&warmup.1[..], &burst.1[..], &recovery.1[..]].concat(),
        config.recheck_samples,
        config.seed,
    );

    gateway.begin_drain();
    let drained = gateway.await_drained(Duration::from_secs(10), obs).is_ok();
    let stats = gateway.stats();
    Ok(ChaosReport {
        config: config.clone(),
        warmup: warmup.0,
        burst: burst.0,
        recovery: recovery.0,
        breaker_opens: stats.breaker_opens,
        breaker_reclosed,
        wrong_plans,
        rechecked,
        drained,
        gateway: stats,
    })
}

/// Drives one phase's slice of the stream through the gateway with
/// `drivers` concurrent client threads. Returns the phase counters and
/// the `(stream_index, cost_bits)` of every answered request (the
/// re-check pool).
fn run_phase(
    gateway: &Gateway,
    reqs: &[ServiceRequest],
    base_index: usize,
    drivers: usize,
    obs: &(dyn joinopt_telemetry::Observer + Sync),
) -> (PhaseStats, Vec<(usize, u64)>) {
    let next = AtomicUsize::new(0);
    // (request index, outcome): cost bits + cache-hit flag + latency ns
    // on success, the typed error kind on failure.
    type DriverOutcome = (usize, Result<(u64, bool, u64), &'static str>);
    let outcomes: Mutex<Vec<DriverOutcome>> = Mutex::new(Vec::with_capacity(reqs.len()));
    std::thread::scope(|scope| {
        for _ in 0..drivers.max(1) {
            scope.spawn(|| {
                let mut session = None;
                loop {
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    let Some(req) = reqs.get(k) else { break };
                    let r = match gateway.handle(req, None, &mut session, obs) {
                        Ok(o) => Ok((
                            o.result.cost.to_bits(),
                            o.cache_hit,
                            u64::try_from(o.elapsed.as_nanos()).unwrap_or(u64::MAX),
                        )),
                        Err(e) => Err(e.kind()),
                    };
                    let mut guard = outcomes
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    guard.push((base_index + k, r));
                }
            });
        }
    });
    let outcomes = outcomes
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    let mut stats = PhaseStats {
        requests: reqs.len(),
        ..PhaseStats::default()
    };
    let mut latencies = Histogram::default();
    let mut answered = Vec::new();
    for (idx, r) in outcomes {
        match r {
            Ok((cost_bits, hit, elapsed_ns)) => {
                stats.completed += 1;
                stats.hits += usize::from(hit);
                latencies.record(elapsed_ns);
                answered.push((idx, cost_bits));
            }
            Err(kind) => stats.errors.record(kind),
        }
    }
    stats.hit_rate = if stats.completed == 0 {
        0.0
    } else {
        stats.hits as f64 / stats.completed as f64
    };
    stats.p99_ns = latencies.quantile(0.99);
    (stats, answered)
}

/// Differential exactness check: re-runs a seeded sample of distinct
/// answered requests on a fresh, cache-less, sequential service and compares
/// cost bits. Returns `(rechecked, wrong)`.
fn recheck(
    stream: &[ServiceRequest],
    answered: &[(usize, u64)],
    samples: usize,
    seed: u64,
) -> (usize, usize) {
    if answered.is_empty() {
        return (0, 0);
    }
    let fresh = OptimizerService::new(ServiceConfig {
        worker_threads: 1,
        queue_capacity: 1,
        tenant_limit: samples.max(1),
        cache: None,
    });
    let picks = distinct_sample(answered.len(), samples, seed);
    let mut session = None;
    let mut wrong = 0usize;
    for &pick in &picks {
        let (idx, bits) = answered[pick];
        let req = ServiceRequest::new(stream[idx].spec.clone());
        match fresh.submit_one(&req, &mut session, &joinopt_telemetry::NoopObserver) {
            Ok(o) if o.result.cost.to_bits() == bits => {}
            // A diverging cost — or a cold run that cannot even
            // complete — is a wrong plan for the gate's purposes.
            _ => wrong += 1,
        }
    }
    (picks.len(), wrong)
}

/// `min(samples, len)` distinct indices into `0..len`, drawn by a
/// partial Fisher–Yates shuffle seeded from `seed`: the re-check never
/// re-runs the same answer twice, and a sample at least as large as the
/// pool covers every answer exactly once.
fn distinct_sample(len: usize, samples: usize, seed: u64) -> Vec<usize> {
    let mut rng = XorShift64::seed_from_u64(seed ^ 0x5265_6368_6563_6b21); // "Recheck!"
    let mut pool: Vec<usize> = (0..len).collect();
    let count = samples.min(len);
    for i in 0..count {
        let j = rng.gen_range(i..len);
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

impl ChaosReport {
    /// The chaos gates: bounded errors, zero wrong plans, breaker
    /// opened and reclosed, post-burst hit-rate and p99 recovery, clean
    /// drain. Returns every violation, not just the first.
    pub fn verify(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.warmup.errors.hard() > 0 {
            problems.push(format!(
                "warmup must be error-free, saw {} hard errors",
                self.warmup.errors.hard()
            ));
        }
        if self.burst.errors.total() > self.burst.requests {
            problems.push(format!(
                "burst errors ({}) exceed burst requests ({})",
                self.burst.errors.total(),
                self.burst.requests
            ));
        }
        if self.breaker_opens == 0 {
            problems.push("fault burst never opened the breaker".to_string());
        }
        if !self.breaker_reclosed {
            problems.push("breaker did not reclose after the faults cleared".to_string());
        }
        if self.recovery.errors.hard() > 0 {
            problems.push(format!(
                "recovery must be error-free, saw {} hard errors",
                self.recovery.errors.hard()
            ));
        }
        if self.recovery.hit_rate < 0.2 {
            problems.push(format!(
                "recovery hit rate {:.3} below the 0.2 floor",
                self.recovery.hit_rate
            ));
        }
        let p99_ceiling = (8 * self.warmup.p99_ns).max(20_000_000);
        if self.recovery.p99_ns > p99_ceiling {
            problems.push(format!(
                "recovery p99 {}ns above ceiling {}ns",
                self.recovery.p99_ns, p99_ceiling
            ));
        }
        if self.rechecked == 0 {
            problems.push("differential re-check sampled nothing".to_string());
        }
        if self.wrong_plans > 0 {
            problems.push(format!(
                "{} of {} re-checked answers diverged from the sequential cold run",
                self.wrong_plans, self.rechecked
            ));
        }
        if !self.drained {
            problems.push("drain did not complete".to_string());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// Serializes the chaos report (schema `joinopt-load-v3` with
    /// `"mode": "chaos"` and a `"chaos"` section).
    pub fn to_json(&self) -> String {
        let phase = |p: &PhaseStats| {
            let mut s = format!(
                "{{\"requests\": {}, \"completed\": {}, \"hits\": {}, \"p99_ns\": {}, \
                 \"errors\": {}, \"hit_rate\": ",
                p.requests,
                p.completed,
                p.hits,
                p.p99_ns,
                p.errors.to_json_object()
            );
            write_f64(&mut s, p.hit_rate);
            s.push('}');
            s
        };
        let mut s = String::from("{\n  \"schema\": ");
        write_escaped(&mut s, SCHEMA);
        s.push_str(",\n  \"mode\": \"chaos\"");
        s.push_str(&format!(
            ",\n  \"config\": {{\"requests\": {}, \"drivers\": {}, \"seed\": {}, \
             \"burst_faults\": {}, \"recheck_samples\": {}}}",
            self.config.requests,
            self.config.drivers,
            self.config.seed,
            self.config.burst_faults,
            self.config.recheck_samples
        ));
        s.push_str(&format!(
            ",\n  \"chaos\": {{\n    \"warmup\": {},\n    \"burst\": {},\n    \"recovery\": {},\n    \
             \"breaker_opens\": {}, \"breaker_reclosed\": {}, \"wrong_plans\": {}, \
             \"rechecked\": {}, \"drained\": {}\n  }}",
            phase(&self.warmup),
            phase(&self.burst),
            phase(&self.recovery),
            self.breaker_opens,
            self.breaker_reclosed,
            self.wrong_plans,
            self.rechecked,
            self.drained
        ));
        s.push_str(&format!(
            ",\n  \"gateway\": {{\"accepted\": {}, \"shed\": {}, \"breaker_rejected\": {}, \
             \"retried\": {}, \"completed\": {}, \"failed\": {}}}\n}}\n",
            self.gateway.accepted,
            self.gateway.shed,
            self.gateway.breaker_rejected,
            self.gateway.retried,
            self.gateway.completed,
            self.gateway.failed
        ));
        s
    }

    /// A rendered per-phase summary for human consumption.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(vec![
            "phase",
            "requests",
            "completed",
            "errors",
            "shed",
            "panics",
            "breaker-open",
            "hit_rate",
            "p99",
        ]);
        for (name, p) in [
            ("warmup", &self.warmup),
            ("burst", &self.burst),
            ("recovery", &self.recovery),
        ] {
            t.row(vec![
                name.to_string(),
                p.requests.to_string(),
                p.completed.to_string(),
                p.errors.total().to_string(),
                p.errors.shed.to_string(),
                p.errors.panic.to_string(),
                p.errors.breaker_open.to_string(),
                format!("{:.3}", p.hit_rate),
                crate::format_seconds(p.p99_ns as f64 / 1e9),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "breaker: opened {}x, reclosed: {}; re-checked {} answers, {} wrong; retried {}; drained: {}\n",
            self.breaker_opens,
            self.breaker_reclosed,
            self.rechecked,
            self.wrong_plans,
            self.gateway.retried,
            self.drained
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_telemetry::NoopObserver;

    fn small_config() -> ChaosConfig {
        ChaosConfig {
            requests: 40,
            seed: 7,
            max_n: 6,
            ..ChaosConfig::default()
        }
    }

    /// Stream positions whose spec already appeared earlier.
    fn repeats(stream: &[ServiceRequest]) -> usize {
        stream
            .iter()
            .enumerate()
            .filter(|(i, r)| stream[..*i].iter().any(|p| p.spec == r.spec))
            .count()
    }

    #[test]
    fn stream_is_deterministic_and_mixed() {
        let config = small_config();
        let a = build_stream(&config);
        let b = build_stream(&config);
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
        }
        // Some (but not all) requests repeat an earlier spec.
        let repeats = repeats(&a);
        assert!(repeats > 0 && repeats < a.len(), "repeats={repeats}");
    }

    #[test]
    fn single_worker_run_hits_on_every_repeat() {
        // The plan-cache hit gate: at one driver, requests execute in
        // arrival order, so every repeated spec is already cached when
        // its repeat arrives — the hit count is exact, not a floor.
        let config = small_config();
        let stream = build_stream(&config);
        let gateway = chaos_gateway(&config, stream.len());
        let (stats, answered) = run_phase(&gateway, &stream, 0, 1, &NoopObserver);
        assert_eq!(stats.errors.total(), 0, "{stats:?}");
        assert_eq!(stats.completed, stream.len());
        assert_eq!(answered.len(), stream.len());
        assert_eq!(stats.hits, repeats(&stream));
    }

    #[test]
    fn recheck_draws_distinct_answers_deterministically() {
        for seed in [0, 7, 2006] {
            let draw = distinct_sample(50, 16, seed);
            assert_eq!(draw, distinct_sample(50, 16, seed), "seed {seed}");
            assert_eq!(draw.len(), 16);
            let mut sorted = draw.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 16, "duplicate index in {draw:?}");
            assert!(draw.iter().all(|&i| i < 50));
            // Asking for at least the pool covers every answer once.
            for samples in [10, 25] {
                let mut all = distinct_sample(10, samples, seed);
                all.sort_unstable();
                assert_eq!(all, (0..10).collect::<Vec<_>>());
            }
        }
        assert!(distinct_sample(0, 16, 7).is_empty());
    }

    #[test]
    fn error_breakdown_records_by_label() {
        let mut b = ErrorBreakdown::default();
        for kind in [
            "timeout",
            "memory",
            "shed",
            "draining",
            "panic",
            "breaker-open",
            "parse",
        ] {
            b.record(kind);
        }
        assert_eq!(b.timeout, 1);
        assert_eq!(b.memory, 1);
        assert_eq!(b.shed, 2, "draining folds into shed");
        assert_eq!(b.panic, 1);
        assert_eq!(b.breaker_open, 1);
        assert_eq!(b.other, 1);
        assert_eq!(b.total(), 7);
        assert_eq!(b.hard(), 4);
    }

    // The end-to-end chaos gate test lives in `tests/chaos.rs`: it arms
    // process-global failpoints, so it needs its own test process.
}
