//! The server gateway: the hardened request lifecycle between a
//! protocol frontend and the [`OptimizerService`].
//!
//! Every `joinopt serve` request — and every request of the chaos
//! harness, which drives this same type without sockets — passes
//! through one [`Gateway::handle`] call:
//!
//! 1. **Drain check** — a draining gateway refuses new work with a
//!    typed [`Rejection::Draining`] so a restarting client retries
//!    elsewhere.
//! 2. **Load shedding** — admission is compared against per-priority
//!    watermarks over the current in-flight count ([`ShedConfig`]):
//!    `Low` priority sheds first, `Normal` next, `High` only at the
//!    hard cap. A shed request costs no optimizer work and carries a
//!    `Retry-After` hint.
//! 3. **Circuit breaker** — one [`CircuitBreaker`] per tenant fails
//!    fast while the tenant's requests reliably die (see
//!    [`crate::breaker`]).
//! 4. **Deadline propagation** — the request's lifecycle deadline is
//!    measured from admission; the remaining slice becomes the
//!    optimizer's time budget and flows into the core
//!    `CancellationToken`, so a request never outlives its deadline by
//!    more than the few hundred splits between two of its full checks.
//!
//! An admitted request runs exactly once. Every engine is a
//! deterministic function of the graph, the catalog and the cost model,
//! so running a failed request again repeats the same failure: its
//! error goes straight back to the client.
//!
//! All sleeps and time reads go through the injectable [`Clock`], so
//! the unit tests below pin exact breaker timings with zero real
//! sleeps. The lifecycle emits the `serve` telemetry vocabulary
//! ([`Event::ServeAccepted`], [`Event::ServeShed`],
//! [`Event::ServeBreakerOpen`], [`Event::ServeDrained`]), which the
//! registry folds into the `joinopt_serve_*_total` series.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use joinopt_core::{OptimizeError, Session};
use joinopt_telemetry::{Event, Observer, RequestTrace, TenantTable};

use crate::breaker::{BreakerConfig, BreakerDecision, BreakerState, CircuitBreaker};
use crate::clock::Clock;
use crate::service::{OptimizerService, Priority, ServiceOutcome, ServiceRequest};

/// Load-shedding watermarks over the gateway's in-flight count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedConfig {
    /// In-flight count at which `Low`-priority requests shed.
    pub low_watermark: usize,
    /// In-flight count at which `Normal`-priority requests shed.
    pub high_watermark: usize,
    /// Hard cap: even `High`-priority requests shed here.
    pub max_in_flight: usize,
    /// Base `Retry-After` hint attached to shed rejections.
    pub retry_after: Duration,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            low_watermark: 8,
            high_watermark: 16,
            max_in_flight: 32,
            retry_after: Duration::from_millis(50),
        }
    }
}

/// Gateway tuning: shedding and the per-tenant breaker.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Shedding watermarks.
    pub shed: ShedConfig,
    /// Per-tenant breaker tuning.
    pub breaker: BreakerConfig,
    /// Seed of the server's trace-id minter.
    pub seed: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shed: ShedConfig::default(),
            breaker: BreakerConfig::default(),
            seed: 2006,
        }
    }
}

/// A typed refusal: the gateway did not run the request and the client
/// should wait [`Rejection::retry_after`] before trying again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Shed at a load watermark.
    Shed {
        /// Priority of the shed request.
        priority: Priority,
        /// In-flight count observed at admission.
        in_flight: usize,
        /// Suggested client backoff.
        retry_after: Duration,
    },
    /// The tenant's circuit breaker is open (or its half-open probe
    /// slot is taken).
    BreakerOpen {
        /// Remaining cooldown (or probe window).
        retry_after: Duration,
    },
    /// The server is draining for shutdown.
    Draining {
        /// Suggested client backoff (against another instance).
        retry_after: Duration,
    },
}

impl Rejection {
    /// The wire/reporting kind: `shed`, `breaker-open` or `draining`.
    pub fn kind(&self) -> &'static str {
        match self {
            Rejection::Shed { .. } => "shed",
            Rejection::BreakerOpen { .. } => "breaker-open",
            Rejection::Draining { .. } => "draining",
        }
    }

    /// The `Retry-After` hint.
    pub fn retry_after(&self) -> Duration {
        match *self {
            Rejection::Shed { retry_after, .. }
            | Rejection::BreakerOpen { retry_after }
            | Rejection::Draining { retry_after } => retry_after,
        }
    }
}

/// How one gateway-handled request ended unsuccessfully.
#[derive(Debug)]
pub enum GatewayError {
    /// Refused before any optimizer work.
    Rejected(Rejection),
    /// Ran and failed.
    Failed(OptimizeError),
}

impl GatewayError {
    /// The reporting label: a rejection's [`Rejection::kind`], or the
    /// failure's [`error_kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            GatewayError::Rejected(r) => r.kind(),
            GatewayError::Failed(e) => error_kind(e),
        }
    }
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Rejected(r) => write!(
                f,
                "rejected ({}), retry after {:?}",
                r.kind(),
                r.retry_after()
            ),
            GatewayError::Failed(e) => write!(f, "{e}"),
        }
    }
}

/// A point-in-time snapshot of the gateway's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Requests admitted past shedding and breaker checks.
    pub accepted: u64,
    /// Requests shed at a watermark (including drain refusals).
    pub shed: u64,
    /// Requests rejected by an open breaker.
    pub breaker_rejected: u64,
    /// Closed→open (and half-open→open) breaker transitions.
    pub breaker_opens: u64,
    /// Admitted requests that returned a plan.
    pub completed: u64,
    /// Admitted requests that failed.
    pub failed: u64,
    /// Requests currently executing.
    pub in_flight: usize,
}

/// The hardened request lifecycle around an [`OptimizerService`].
/// Methods take `&self`; one gateway is shared across connection
/// threads.
pub struct Gateway {
    service: OptimizerService,
    config: GatewayConfig,
    clock: Clock,
    breakers: Mutex<TenantTable<CircuitBreaker>>,
    in_flight: Mutex<usize>,
    idle: Condvar,
    draining: AtomicBool,
    drain_in_flight: AtomicUsize,
    accepted: AtomicU64,
    shed: AtomicU64,
    breaker_rejected: AtomicU64,
    breaker_opens: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

impl Gateway {
    /// A gateway over `service` on the real clock.
    pub fn new(service: OptimizerService, config: GatewayConfig) -> Gateway {
        Gateway::with_clock(service, config, Clock::system())
    }

    /// A gateway on an explicit (possibly manual) clock.
    pub fn with_clock(service: OptimizerService, config: GatewayConfig, clock: Clock) -> Gateway {
        Gateway {
            service,
            config,
            clock,
            breakers: Mutex::new(TenantTable::new()),
            in_flight: Mutex::new(0),
            idle: Condvar::new(),
            draining: AtomicBool::new(false),
            drain_in_flight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            breaker_rejected: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// The underlying service (cache statistics, direct submission).
    pub fn service(&self) -> &OptimizerService {
        &self.service
    }

    /// The gateway's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The gateway's configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GatewayStats {
        GatewayStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            breaker_rejected: self.breaker_rejected.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            in_flight: *lock(&self.in_flight),
        }
    }

    /// The named tenant's current breaker state (`Closed` when the
    /// tenant has never been seen).
    pub fn breaker_state(&self, tenant: &str) -> BreakerState {
        lock(&self.breakers)
            .get(tenant)
            .map_or(BreakerState::Closed, CircuitBreaker::state)
    }

    /// Whether new requests are being refused for shutdown.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Stops admitting new requests; in-flight requests keep running.
    /// Records the in-flight count at the moment the drain began (the
    /// number [`Event::ServeDrained`] later reports as completed).
    pub fn begin_drain(&self) {
        let in_flight = *lock(&self.in_flight);
        self.drain_in_flight.store(in_flight, Ordering::SeqCst);
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Blocks until every in-flight request has completed, then emits
    /// [`Event::ServeDrained`]. Returns `Ok(completed_in_flight)` or,
    /// if `timeout` (real time) expires first, `Err(still_in_flight)`.
    pub fn await_drained(&self, timeout: Duration, obs: &dyn Observer) -> Result<usize, usize> {
        let mut guard = lock(&self.in_flight);
        let deadline = std::time::Instant::now() + timeout;
        while *guard > 0 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(*guard);
            }
            let (g, _) = self
                .idle
                .wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
        drop(guard);
        let in_flight = self.drain_in_flight.load(Ordering::SeqCst);
        if obs.enabled() {
            obs.on_event(Event::ServeDrained { in_flight });
        }
        Ok(in_flight)
    }

    /// Runs one request through the full lifecycle. `deadline` is the
    /// end-to-end allowance measured from this call; `session` is the
    /// caller's pooled optimizer session.
    pub fn handle(
        &self,
        req: &ServiceRequest,
        deadline: Option<Duration>,
        session: &mut Option<Session>,
        obs: &dyn Observer,
    ) -> Result<ServiceOutcome, GatewayError> {
        self.handle_traced(req, deadline, session, obs, None)
    }

    /// [`Gateway::handle`] with an optional flight recorder: when
    /// `trace` is `Some`, each lifecycle stage (shed-check, breaker,
    /// cache-lookup, optimize) lands as a [`RequestTrace`] span and
    /// rejections/failures stamp their kind on the trace. When `trace` is `None` this path performs exactly
    /// the clock reads of the untraced lifecycle — every span timestamp
    /// below is gated on the trace — which the pinned test in
    /// `tests/trace_overhead.rs` holds it to via [`crate::clock_reads`].
    pub fn handle_traced(
        &self,
        req: &ServiceRequest,
        deadline: Option<Duration>,
        session: &mut Option<Session>,
        obs: &dyn Observer,
        mut trace: Option<&mut RequestTrace>,
    ) -> Result<ServiceOutcome, GatewayError> {
        let admitted_ns = self.clock.now_ns();
        if let Some(tr) = trace.as_mut() {
            tr.begin("shed-check", admitted_ns);
        }

        if self.is_draining() {
            self.shed.fetch_add(1, Ordering::Relaxed);
            if obs.enabled() {
                obs.on_event(Event::ServeShed {
                    priority: req.priority.name(),
                });
            }
            if let Some(tr) = trace.as_mut() {
                tr.close_open(self.clock.now_ns());
                tr.error_kind = Some("draining");
            }
            return Err(GatewayError::Rejected(Rejection::Draining {
                retry_after: self.config.shed.retry_after,
            }));
        }

        // Watermark shedding: the comparison and the in-flight
        // increment happen under a single lock acquisition, so racing
        // admissions cannot collectively overshoot the watermark.
        let watermark = match req.priority {
            Priority::Low => self.config.shed.low_watermark,
            Priority::Normal => self.config.shed.high_watermark,
            Priority::High => self.config.shed.max_in_flight,
        }
        .min(self.config.shed.max_in_flight);
        let _guard = match InFlightGuard::try_enter(self, watermark) {
            Ok(guard) => guard,
            Err(in_flight) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                if obs.enabled() {
                    obs.on_event(Event::ServeShed {
                        priority: req.priority.name(),
                    });
                }
                if let Some(tr) = trace.as_mut() {
                    tr.close_open(self.clock.now_ns());
                    tr.error_kind = Some("shed");
                }
                return Err(GatewayError::Rejected(Rejection::Shed {
                    priority: req.priority,
                    in_flight,
                    retry_after: self.config.shed.retry_after,
                }));
            }
        };

        if let Some(tr) = trace.as_mut() {
            let t = self.clock.now_ns();
            tr.end(t);
            tr.begin("breaker", t);
        }

        // Per-tenant breaker admission. A breaker rejection releases
        // the just-reserved in-flight slot via the guard's drop.
        {
            let mut breakers = lock(&self.breakers);
            let breaker = breakers.get_or_insert_with(&req.tenant, || {
                CircuitBreaker::new(self.config.breaker.clone())
            });
            if let BreakerDecision::Reject { retry_after } = breaker.admit(self.clock.now_ns()) {
                drop(breakers);
                self.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(tr) = trace.as_mut() {
                    tr.close_open(self.clock.now_ns());
                    tr.error_kind = Some("breaker-open");
                }
                return Err(GatewayError::Rejected(Rejection::BreakerOpen {
                    retry_after,
                }));
            }
        }
        if let Some(tr) = trace.as_mut() {
            tr.end(self.clock.now_ns());
        }

        self.accepted.fetch_add(1, Ordering::Relaxed);
        if obs.enabled() {
            obs.on_event(Event::ServeAccepted {
                priority: req.priority.name(),
            });
        }

        // A wedged worker, when injected: the request stalls before it
        // runs, eating into the deadline below.
        const SLOW_REQUEST_DELAY: Duration = Duration::from_millis(25);
        if joinopt_core::failpoint::flag("serve-slow-request") {
            self.clock.sleep(SLOW_REQUEST_DELAY);
        }

        // Deadline propagation: the remaining end-to-end allowance caps
        // the optimizer time budget (and with it the core
        // CancellationToken's deadline). Without a deadline the request
        // runs as it came.
        let mut capped;
        let effective = match deadline {
            None => req,
            Some(d) => {
                let elapsed = Duration::from_nanos(self.clock.now_ns().saturating_sub(admitted_ns));
                let Some(remaining) = d.checked_sub(elapsed).filter(|r| !r.is_zero()) else {
                    if let Some(tr) = trace.as_mut() {
                        tr.close_open(self.clock.now_ns());
                        tr.error_kind = Some("timeout");
                    }
                    return Err(self.finish_failed(
                        req,
                        OptimizeError::TimeBudgetExceeded { budget: d },
                        obs,
                    ));
                };
                capped = req.clone();
                capped.time_budget = Some(req.time_budget.map_or(remaining, |b| b.min(remaining)));
                &capped
            }
        };

        let tracer = trace.as_deref_mut().map(|tr| (&self.clock, tr));
        match self
            .service
            .submit_one_traced(effective, session, obs, tracer)
        {
            Ok(outcome) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                if let Some(b) = lock(&self.breakers).get_mut(&req.tenant) {
                    b.on_success();
                }
                Ok(outcome)
            }
            Err(e) => {
                // A panicking run unwinds past its span closes.
                if let Some(tr) = trace.as_mut() {
                    tr.close_open(self.clock.now_ns());
                    tr.error_kind = Some(error_kind(&e));
                }
                Err(self.finish_failed(req, e, obs))
            }
        }
    }

    /// Books a terminal failure: feeds the tenant's breaker (emitting
    /// [`Event::ServeBreakerOpen`] on the closed→open edge) and wraps
    /// the error. Failures the breaker does not count still resolve
    /// the admission as neutral, so a half-open probe slot is never
    /// leaked (which would lock the tenant out until restart).
    fn finish_failed(
        &self,
        req: &ServiceRequest,
        e: OptimizeError,
        obs: &dyn Observer,
    ) -> GatewayError {
        self.failed.fetch_add(1, Ordering::Relaxed);
        if counts_for_breaker(&e) {
            let opened = lock(&self.breakers)
                .get_mut(&req.tenant)
                .is_some_and(|b| b.on_failure(self.clock.now_ns()));
            if opened {
                self.breaker_opens.fetch_add(1, Ordering::Relaxed);
                if obs.enabled() {
                    obs.on_event(Event::ServeBreakerOpen);
                }
            }
        } else if let Some(b) = lock(&self.breakers).get_mut(&req.tenant) {
            b.on_neutral();
        }
        GatewayError::Failed(e)
    }
}

/// RAII in-flight accounting: decrements and wakes drain waiters even
/// when a request path unwinds.
struct InFlightGuard<'a> {
    gateway: &'a Gateway,
}

impl<'a> InFlightGuard<'a> {
    /// Unconditionally occupies one in-flight slot (test scaffolding
    /// for pinning synthetic load; the request path uses `try_enter`).
    #[cfg(test)]
    fn enter(gateway: &'a Gateway) -> InFlightGuard<'a> {
        *lock(&gateway.in_flight) += 1;
        InFlightGuard { gateway }
    }

    /// Atomically admits one request against `watermark`: checks and
    /// increments the in-flight count under one lock acquisition.
    /// Returns `Err(observed_count)`, leaving the count untouched,
    /// when the count is already at or above the watermark.
    fn try_enter(gateway: &'a Gateway, watermark: usize) -> Result<InFlightGuard<'a>, usize> {
        let mut guard = lock(&gateway.in_flight);
        if *guard >= watermark {
            return Err(*guard);
        }
        *guard += 1;
        Ok(InFlightGuard { gateway })
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut guard = lock(&self.gateway.in_flight);
        *guard = guard.saturating_sub(1);
        drop(guard);
        self.gateway.idle.notify_all();
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The reporting label an optimizer error rolls up under in serve
/// responses and the load report's per-type error breakdown:
/// `timeout`, `memory`, `panic`, `parse` or `other`.
pub fn error_kind(e: &OptimizeError) -> &'static str {
    match e {
        OptimizeError::TimeBudgetExceeded { .. } => "timeout",
        OptimizeError::MemoryBudgetExceeded { .. } => "memory",
        OptimizeError::Parse(_) | OptimizeError::Sql(_) => "parse",
        OptimizeError::Internal(msg) if msg.contains("panic") => "panic",
        _ => "other",
    }
}

/// Failures that feed the circuit breaker: service-side malfunction
/// (panics surface as `Internal`) and deadline blowouts — not
/// per-query client errors (parse, shape).
fn counts_for_breaker(e: &OptimizeError) -> bool {
    matches!(
        e,
        OptimizeError::Internal(_) | OptimizeError::TimeBudgetExceeded { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::spec::QuerySpec;
    use joinopt_cost::workload::family_workload;
    use joinopt_qgraph::GraphKind;
    use joinopt_telemetry::NoopObserver;

    fn spec(n: usize, seed: u64) -> QuerySpec {
        let w = family_workload(GraphKind::Chain, n, seed);
        QuerySpec::capture(&w.graph, &w.catalog).unwrap()
    }

    fn gateway(config: GatewayConfig) -> Gateway {
        Gateway::with_clock(
            OptimizerService::new(ServiceConfig::default()),
            config,
            Clock::manual(),
        )
    }

    #[test]
    fn happy_path_completes_and_counts() {
        let gw = gateway(GatewayConfig::default());
        let mut session = None;
        let req = ServiceRequest::new(spec(6, 1)).with_tenant("t");
        let out = gw
            .handle(
                &req,
                Some(Duration::from_secs(10)),
                &mut session,
                &NoopObserver,
            )
            .unwrap();
        assert!(!out.cache_hit);
        let out2 = gw.handle(&req, None, &mut session, &NoopObserver).unwrap();
        assert!(out2.cache_hit, "second identical request hits the cache");
        let stats = gw.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.in_flight, 0);
        assert_eq!((stats.shed, stats.failed), (0, 0));
    }

    #[test]
    fn watermarks_shed_by_priority() {
        let gw = gateway(GatewayConfig {
            shed: ShedConfig {
                low_watermark: 1,
                high_watermark: 2,
                max_in_flight: 3,
                retry_after: Duration::from_millis(40),
            },
            ..GatewayConfig::default()
        });
        let mut session = None;
        // Hold two synthetic in-flight slots.
        let _a = InFlightGuard::enter(&gw);
        let low = ServiceRequest::new(spec(4, 2)).with_priority(Priority::Low);
        let normal = ServiceRequest::new(spec(4, 3));
        let high = ServiceRequest::new(spec(4, 4)).with_priority(Priority::High);
        match gw.handle(&low, None, &mut session, &NoopObserver) {
            Err(GatewayError::Rejected(Rejection::Shed {
                priority,
                in_flight,
                retry_after,
            })) => {
                assert_eq!(priority, Priority::Low);
                assert_eq!(in_flight, 1);
                assert_eq!(retry_after, Duration::from_millis(40));
            }
            other => panic!("low must shed: {other:?}"),
        }
        let _b = InFlightGuard::enter(&gw);
        assert!(matches!(
            gw.handle(&normal, None, &mut session, &NoopObserver),
            Err(GatewayError::Rejected(Rejection::Shed { .. }))
        ));
        // High still flows below the hard cap.
        assert!(gw.handle(&high, None, &mut session, &NoopObserver).is_ok());
        let _c = InFlightGuard::enter(&gw);
        assert!(matches!(
            gw.handle(&high, None, &mut session, &NoopObserver),
            Err(GatewayError::Rejected(Rejection::Shed { .. }))
        ));
        assert_eq!(gw.stats().shed, 3);
    }

    #[test]
    fn draining_rejects_new_requests_and_drain_completes() {
        let gw = gateway(GatewayConfig::default());
        let mut session = None;
        gw.begin_drain();
        assert!(gw.is_draining());
        let req = ServiceRequest::new(spec(4, 5));
        assert!(matches!(
            gw.handle(&req, None, &mut session, &NoopObserver),
            Err(GatewayError::Rejected(Rejection::Draining { .. }))
        ));
        assert_eq!(
            gw.await_drained(Duration::from_secs(1), &NoopObserver),
            Ok(0)
        );
    }

    #[test]
    fn deadline_zero_fails_typed_without_running() {
        let gw = gateway(GatewayConfig::default());
        let mut session = None;
        let req = ServiceRequest::new(spec(6, 6));
        // The manual clock never advances on its own, so force the
        // elapsed time past the deadline with the slow-request stall
        // disabled: a zero deadline is already expired at admission.
        match gw.handle(&req, Some(Duration::ZERO), &mut session, &NoopObserver) {
            Err(GatewayError::Failed(OptimizeError::TimeBudgetExceeded { budget })) => {
                assert_eq!(budget, Duration::ZERO);
            }
            other => panic!("expected typed deadline error: {other:?}"),
        }
        assert_eq!(gw.stats().failed, 1);
        assert_eq!(gw.stats().completed, 0);
    }

    #[test]
    fn deadline_caps_the_time_budget() {
        let gw = gateway(GatewayConfig::default());
        let mut session = None;
        // A generous explicit budget is clamped to the small remaining
        // deadline; the run itself is fast enough to finish anyway.
        let req = ServiceRequest::new(spec(5, 7)).with_time_budget(Duration::from_secs(3600));
        assert!(gw
            .handle(
                &req,
                Some(Duration::from_secs(1)),
                &mut session,
                &NoopObserver
            )
            .is_ok());
    }

    #[test]
    fn breaker_opens_after_consecutive_deadline_failures_and_recloses() {
        let clock = Clock::manual();
        let gw = Gateway::with_clock(
            OptimizerService::new(ServiceConfig::default()),
            GatewayConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_millis(100),
                    success_threshold: 1,
                },
                ..GatewayConfig::default()
            },
            clock.clone(),
        );
        let mut session = None;
        let req = ServiceRequest::new(spec(6, 8)).with_tenant("acme");
        for _ in 0..3 {
            assert!(matches!(
                gw.handle(&req, Some(Duration::ZERO), &mut session, &NoopObserver),
                Err(GatewayError::Failed(
                    OptimizeError::TimeBudgetExceeded { .. }
                ))
            ));
        }
        assert_eq!(gw.breaker_state("acme"), BreakerState::Open);
        assert_eq!(gw.stats().breaker_opens, 1);
        // Open: rejected with the remaining cooldown.
        match gw.handle(&req, None, &mut session, &NoopObserver) {
            Err(GatewayError::Rejected(Rejection::BreakerOpen { retry_after })) => {
                assert!(retry_after <= Duration::from_millis(100));
            }
            other => panic!("expected breaker rejection: {other:?}"),
        }
        // Other tenants are unaffected.
        let other = ServiceRequest::new(spec(6, 9)).with_tenant("beta");
        assert!(gw.handle(&other, None, &mut session, &NoopObserver).is_ok());
        // Cooldown elapses on the virtual clock; the probe succeeds and
        // the breaker re-closes.
        clock.advance(Duration::from_millis(150));
        assert!(gw.handle(&req, None, &mut session, &NoopObserver).is_ok());
        assert_eq!(gw.breaker_state("acme"), BreakerState::Closed);
    }

    #[test]
    fn default_and_named_tenants_trip_separate_breakers() {
        for (tripped, spared) in [("", "acme"), ("acme", "")] {
            let gw = Gateway::with_clock(
                OptimizerService::new(ServiceConfig::default()),
                GatewayConfig {
                    breaker: BreakerConfig {
                        failure_threshold: 2,
                        cooldown: Duration::from_secs(60),
                        success_threshold: 1,
                    },
                    ..GatewayConfig::default()
                },
                Clock::manual(),
            );
            let mut session = None;
            let failing = ServiceRequest::new(spec(6, 8)).with_tenant(tripped);
            for _ in 0..2 {
                assert!(gw
                    .handle(&failing, Some(Duration::ZERO), &mut session, &NoopObserver)
                    .is_err());
            }
            assert_eq!(gw.breaker_state(tripped), BreakerState::Open);
            assert_eq!(gw.breaker_state(spared), BreakerState::Closed);
            assert!(matches!(
                gw.handle(&failing, None, &mut session, &NoopObserver),
                Err(GatewayError::Rejected(Rejection::BreakerOpen { .. }))
            ));
            let other = ServiceRequest::new(spec(6, 9)).with_tenant(spared);
            assert!(gw.handle(&other, None, &mut session, &NoopObserver).is_ok());
            assert_eq!(gw.breaker_state(spared), BreakerState::Closed);
        }
    }

    #[test]
    fn uncounted_probe_failure_frees_the_slot_instead_of_locking_the_tenant_out() {
        let clock = Clock::manual();
        let gw = Gateway::with_clock(
            OptimizerService::new(ServiceConfig::default()),
            GatewayConfig {
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_millis(100),
                    success_threshold: 1,
                },
                ..GatewayConfig::default()
            },
            clock.clone(),
        );
        let mut session = None;
        let req = ServiceRequest::new(spec(6, 40)).with_tenant("acme");
        for _ in 0..2 {
            assert!(gw
                .handle(&req, Some(Duration::ZERO), &mut session, &NoopObserver)
                .is_err());
        }
        assert_eq!(gw.breaker_state("acme"), BreakerState::Open);
        clock.advance(Duration::from_millis(150));

        // The half-open probe fails with an error the breaker does not
        // count (a tripped memory budget). The probe slot must be
        // released — a leaked slot would reject the tenant forever.
        let w = family_workload(GraphKind::Clique, 12, 41);
        let heavy = QuerySpec::capture(&w.graph, &w.catalog).unwrap();
        let probe = ServiceRequest::new(heavy)
            .with_tenant("acme")
            .with_algorithm(joinopt_core::Algorithm::DpSub)
            .with_memory_budget(1024);
        assert!(matches!(
            gw.handle(&probe, None, &mut session, &NoopObserver),
            Err(GatewayError::Failed(
                OptimizeError::MemoryBudgetExceeded { .. }
            ))
        ));
        assert_eq!(gw.breaker_state("acme"), BreakerState::HalfOpen);
        // The next request takes the freed probe slot; its success
        // closes the breaker.
        assert!(gw.handle(&req, None, &mut session, &NoopObserver).is_ok());
        assert_eq!(gw.breaker_state("acme"), BreakerState::Closed);
    }

    #[test]
    fn stats_and_rejection_kinds_render() {
        let r = Rejection::Shed {
            priority: Priority::Low,
            in_flight: 9,
            retry_after: Duration::from_millis(10),
        };
        assert_eq!(r.kind(), "shed");
        assert_eq!(r.retry_after(), Duration::from_millis(10));
        assert_eq!(
            Rejection::BreakerOpen {
                retry_after: Duration::from_millis(5)
            }
            .kind(),
            "breaker-open"
        );
        assert_eq!(
            Rejection::Draining {
                retry_after: Duration::from_millis(5)
            }
            .kind(),
            "draining"
        );
        let err = GatewayError::Rejected(r);
        assert!(err.to_string().contains("shed"));
    }
}
