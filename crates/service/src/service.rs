//! [`ServiceRequest`], admission control and the batch executor.
//!
//! The service is the one blessed entry point for *owned* work: a
//! [`ServiceRequest`] carries its [`QuerySpec`], a tenant label, a
//! priority and per-request budgets, so it can sit in a queue, be
//! rejected with a typed error, or be answered straight from the plan
//! cache. Execution rides the core crate end to end: each worker pools
//! a [`Session`] across the queries it claims,
//! budget trips walk the exact → IDP → GOO degradation ladder when the
//! request opted in, and panics are isolated per request.
//!
//! ## Admission
//!
//! A submitted batch is admitted in arrival order under two limits:
//! per-tenant concurrency (`tenant_limit` requests of one tenant in
//! flight per batch) and total queue capacity. Rejected slots come back
//! immediately as [`OptimizeError::TenantLimitExceeded`] /
//! [`OptimizeError::QueueFull`] without disturbing their neighbours.
//! Admitted requests execute highest [`Priority`] first (stable within
//! a priority class), spread across the worker pool.
//!
//! ## Caching
//!
//! With a cache configured, each request canonicalizes its spec
//! ([`crate::fingerprint`]), probes the cache under
//! (fingerprint, resolved algorithm, cost-model id) and, on a miss
//! whose run completes exactly (no degradation), stores the resulting
//! plan. Hits return bit-identical cost bits and plan shape to the cold
//! run of the same spec. Without a cache the fingerprint path is
//! skipped entirely — see [`crate::fingerprint::fingerprints_computed`].

use std::time::{Duration, Instant};

use joinopt_core::{
    Algorithm, BudgetAction, DegradationInfo, DpResult, OptimizeError, OptimizeRequest, Session,
};
use joinopt_cost::{CostModel, Cout, HashJoin, MinOverPhysical, NestedLoopJoin, SortMergeJoin};
use joinopt_telemetry::{NoopObserver, Observer, RequestTrace};

use crate::cache::{CacheConfig, PlanCache};
use crate::clock::Clock;
use crate::fingerprint::canonicalize;
use crate::spec::QuerySpec;

/// The gateway's per-attempt tracing hookup: the clock that stamps
/// span boundaries, the 0-based retry attempt, and the request's
/// flight record. Bundled as a tuple so the untraced path stays a
/// single `None`.
pub type AttemptTracer<'a> = (&'a Clock, u32, &'a mut RequestTrace);

/// The cost models the service can name — a closed, hashable id so the
/// cache key stays `Copy` and model identity is never a dangling
/// pointer comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostModelId {
    /// `C_out` (the paper's model; the default).
    #[default]
    Cout,
    /// Nested-loop join cost.
    NestedLoopJoin,
    /// Hash join cost.
    HashJoin,
    /// Sort-merge join cost.
    SortMergeJoin,
    /// Minimum over the physical operators.
    MinOverPhysical,
}

impl CostModelId {
    /// The CLI-facing id (`cout`, `nlj`, `hash`, `smj`, `min`).
    pub fn name(self) -> &'static str {
        match self {
            CostModelId::Cout => "cout",
            CostModelId::NestedLoopJoin => "nlj",
            CostModelId::HashJoin => "hash",
            CostModelId::SortMergeJoin => "smj",
            CostModelId::MinOverPhysical => "min",
        }
    }

    /// Parses a CLI-facing id.
    pub fn parse(s: &str) -> Option<CostModelId> {
        match s.to_ascii_lowercase().as_str() {
            "cout" => Some(CostModelId::Cout),
            "nlj" => Some(CostModelId::NestedLoopJoin),
            "hash" => Some(CostModelId::HashJoin),
            "smj" => Some(CostModelId::SortMergeJoin),
            "min" => Some(CostModelId::MinOverPhysical),
            _ => None,
        }
    }

    /// The model itself (all five are stateless unit structs).
    pub fn model(self) -> &'static dyn CostModel {
        match self {
            CostModelId::Cout => &Cout,
            CostModelId::NestedLoopJoin => &NestedLoopJoin,
            CostModelId::HashJoin => &HashJoin,
            CostModelId::SortMergeJoin => &SortMergeJoin,
            CostModelId::MinOverPhysical => &MinOverPhysical,
        }
    }
}

/// Request priority: higher executes earlier within a batch, and the
/// server's load shedding drops lower priorities first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work; runs after everything else.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive; runs first.
    High,
}

impl Priority {
    /// The wire name (`low`, `normal`, `high`) used by the serve
    /// protocol and the `joinopt_serve_*` metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        match s.to_ascii_lowercase().as_str() {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

/// An owned, queueable optimization request.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    /// The owned query.
    pub spec: QuerySpec,
    /// Tenant label for admission accounting.
    pub tenant: String,
    /// Scheduling priority within a batch.
    pub priority: Priority,
    /// Algorithm (possibly `Auto`, resolved per query).
    pub algorithm: Algorithm,
    /// Cost model id (part of the cache key).
    pub cost_model: CostModelId,
    /// Optional wall-clock budget for the run.
    pub time_budget: Option<Duration>,
    /// Optional ceiling on the optimal plan's cost.
    pub cost_budget: Option<f64>,
    /// Optional ceiling on DP table + arena bytes.
    pub memory_budget: Option<usize>,
    /// Whether a tripped budget degrades down the ladder
    /// (exact → IDP → GOO) instead of erroring.
    pub degrade: bool,
}

impl ServiceRequest {
    /// A request for `spec` with default tenant (`""`), normal priority,
    /// `Auto` algorithm, `C_out` and no budgets.
    pub fn new(spec: QuerySpec) -> ServiceRequest {
        ServiceRequest {
            spec,
            tenant: String::new(),
            priority: Priority::Normal,
            algorithm: Algorithm::Auto,
            cost_model: CostModelId::Cout,
            time_budget: None,
            cost_budget: None,
            memory_budget: None,
            degrade: false,
        }
    }

    /// Sets the tenant label.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Sets the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Chooses a specific algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Chooses a cost model.
    #[must_use]
    pub fn with_cost_model(mut self, model: CostModelId) -> Self {
        self.cost_model = model;
        self
    }

    /// Sets a wall-clock budget.
    #[must_use]
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets a plan-cost ceiling.
    #[must_use]
    pub fn with_cost_budget(mut self, budget: f64) -> Self {
        self.cost_budget = Some(budget);
        self
    }

    /// Sets a memory ceiling in bytes.
    #[must_use]
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Lets tripped budgets fall down the degradation ladder instead of
    /// erroring.
    #[must_use]
    pub fn with_degradation(mut self) -> Self {
        self.degrade = true;
        self
    }
}

/// Service sizing and policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for batch execution. `0` = the machine's
    /// available parallelism.
    pub worker_threads: usize,
    /// Maximum requests admitted per batch.
    pub queue_capacity: usize,
    /// Maximum requests of one tenant in flight per batch.
    pub tenant_limit: usize,
    /// Plan-cache sizing; `None` disables caching entirely (and with it
    /// the whole fingerprint path).
    pub cache: Option<CacheConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            worker_threads: 0,
            queue_capacity: 1024,
            tenant_limit: 256,
            cache: Some(CacheConfig::default()),
        }
    }
}

/// One answered request.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Plan, cost, counters and statistics. On a cache hit the counters
    /// are zero — no enumeration ran.
    pub result: DpResult,
    /// The concrete algorithm (`Auto` resolved) that produced — or, on
    /// a hit, whose cache slot served — the plan.
    pub algorithm: Algorithm,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// `Some` when a budget tripped and a ladder rung produced the plan.
    pub degradation: Option<DegradationInfo>,
    /// Wall-clock time spent answering this request (lookup or run).
    pub elapsed: Duration,
}

/// The optimizer service: a plan cache plus a batch executor with
/// admission control. Methods take `&self`; one service is shared
/// across submitting threads.
pub struct OptimizerService {
    config: ServiceConfig,
    cache: Option<PlanCache>,
}

impl Default for OptimizerService {
    fn default() -> Self {
        OptimizerService::new(ServiceConfig::default())
    }
}

impl OptimizerService {
    /// A service with the given sizing.
    pub fn new(config: ServiceConfig) -> OptimizerService {
        let cache = config.cache.map(PlanCache::new);
        OptimizerService { config, cache }
    }

    /// The plan cache, when one is configured.
    pub fn cache(&self) -> Option<&PlanCache> {
        self.cache.as_ref()
    }

    /// Submits a batch. Results come back in input order; admission
    /// rejections occupy their slots as typed errors.
    pub fn submit_batch(
        &self,
        requests: &[ServiceRequest],
    ) -> Vec<Result<ServiceOutcome, OptimizeError>> {
        self.submit_batch_observed(requests, &NoopObserver)
    }

    /// [`OptimizerService::submit_batch`] with telemetry: every run and
    /// every cache lookup/store/evict reports to `obs` (which must be
    /// `Sync`; workers emit concurrently, tagged by thread id).
    pub fn submit_batch_observed(
        &self,
        requests: &[ServiceRequest],
        obs: &(dyn Observer + Sync),
    ) -> Vec<Result<ServiceOutcome, OptimizeError>> {
        use std::collections::HashMap;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;

        let mut results: Vec<Option<Result<ServiceOutcome, OptimizeError>>> =
            (0..requests.len()).map(|_| None).collect();

        // Admission in arrival order: tenant caps first, then capacity.
        let mut in_flight: HashMap<&str, usize> = HashMap::new();
        let mut admitted: Vec<usize> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            let tenant_count = in_flight.entry(req.tenant.as_str()).or_insert(0);
            if *tenant_count >= self.config.tenant_limit {
                results[i] = Some(Err(OptimizeError::TenantLimitExceeded {
                    tenant: req.tenant.clone(),
                    in_flight: *tenant_count,
                    limit: self.config.tenant_limit,
                }));
                continue;
            }
            if admitted.len() >= self.config.queue_capacity {
                results[i] = Some(Err(OptimizeError::QueueFull {
                    queued: admitted.len(),
                    capacity: self.config.queue_capacity,
                }));
                continue;
            }
            *tenant_count += 1;
            admitted.push(i);
        }
        // Highest priority first; stable, so arrival order breaks ties.
        admitted.sort_by_key(|&i| std::cmp::Reverse(requests[i].priority));

        let workers = if self.config.worker_threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.config.worker_threads
        }
        .min(admitted.len())
        .max(1);

        let run_one = |session: &mut Option<Session>, req: &ServiceRequest| {
            self.submit_one(req, session, obs)
        };

        if workers == 1 {
            let mut session = None;
            for &i in &admitted {
                results[i] = Some(run_one(&mut session, &requests[i]));
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    let run_one = &run_one;
                    let admitted = &admitted;
                    scope.spawn(move || {
                        let mut session = None;
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = admitted.get(k) else { break };
                            if tx.send((i, run_one(&mut session, &requests[i]))).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                for (i, r) in rx {
                    results[i] = Some(r);
                }
            });
        }
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(OptimizeError::Internal(
                        "request was never claimed by a service worker".into(),
                    ))
                })
            })
            .collect()
    }

    /// Answers one request outside a batch — the `joinopt serve` path.
    /// Skips batch admission (the server gateway does its own shedding
    /// and breaker checks before calling this), shares the plan cache,
    /// isolates panics exactly like a batch worker, and reuses the
    /// caller's pooled session across calls.
    pub fn submit_one(
        &self,
        req: &ServiceRequest,
        session: &mut Option<Session>,
        obs: &dyn Observer,
    ) -> Result<ServiceOutcome, OptimizeError> {
        self.submit_one_traced(req, session, obs, None)
    }

    /// [`OptimizerService::submit_one`] with the gateway's flight
    /// recorder: when `tracer` is `Some`, the cache probe and the
    /// engine run land as `cache-lookup` / `optimize` spans stamped
    /// from the gateway's clock and tagged with the retry attempt.
    /// `None` keeps this path free of clock reads entirely (the
    /// zero-overhead contract pinned in `tests/trace_overhead.rs`).
    pub fn submit_one_traced(
        &self,
        req: &ServiceRequest,
        session: &mut Option<Session>,
        obs: &dyn Observer,
        tracer: Option<AttemptTracer<'_>>,
    ) -> Result<ServiceOutcome, OptimizeError> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.answer(session, req, obs, tracer)
        }));
        match outcome {
            Ok(r) => r,
            Err(payload) => {
                *session = None; // discard the half-mutated session
                Err(OptimizeError::Internal(panic_message(payload.as_ref())))
            }
        }
    }

    /// Answers one admitted request: cache probe, then (on a miss) a
    /// full optimization, then (when exact) a cache store.
    ///
    /// Two service-level failpoint sites live here (cfg-gated, see
    /// `docs/robustness.md`): `serve-worker-panic` fires before any
    /// work — its panics are swallowed by the caller's `catch_unwind`
    /// like a real worker bug — and `serve-cache-poison` replaces the
    /// canonical fingerprint with a constant, forcing every distinct
    /// query into one cache slot to prove the full-encoding
    /// verification turns collisions into misses, never wrong plans.
    fn answer(
        &self,
        session: &mut Option<Session>,
        req: &ServiceRequest,
        obs: &dyn Observer,
        mut tracer: Option<AttemptTracer<'_>>,
    ) -> Result<ServiceOutcome, OptimizeError> {
        joinopt_core::failpoint::check("serve-worker-panic")?;
        let started = Instant::now();
        let model = req.cost_model.model();
        let model_id = req.cost_model.name();

        // Resolve `Auto` from the spec's density, exactly like the core
        // policy at one intra-query thread, so the cache key is concrete.
        let algorithm = if req.algorithm == Algorithm::Auto {
            resolve_auto(&req.spec)
        } else {
            req.algorithm
        };

        // Probe the cache (fingerprinting is skipped entirely when no
        // cache is configured). The canonicalization is billed to the
        // cache-lookup span: it exists only to produce the cache key.
        if let Some((clock, attempt, tr)) = tracer.as_mut() {
            tr.begin_attempt("cache-lookup", *attempt, clock.now_ns());
        }
        let mut canon = self.cache.as_ref().map(|_| canonicalize(&req.spec));
        if let Some(c) = canon.as_mut() {
            if joinopt_core::failpoint::flag("serve-cache-poison") {
                // Simulate the worst-case fingerprint collision: every
                // query maps to the same slot. Correctness must now rest
                // entirely on the cache's word-for-word encoding check.
                c.fingerprint = crate::Fingerprint {
                    hi: 0xdead_beef_dead_beef,
                    lo: 0xfeed_face_feed_face,
                };
            }
        }
        if let (Some(cache), Some(canon)) = (&self.cache, &canon) {
            if let Some(hit) = cache.lookup_observed(
                canon.fingerprint,
                algorithm,
                model_id,
                &canon.encoding,
                &canon.order,
                obs,
            ) {
                if let Some((clock, _, tr)) = tracer.as_mut() {
                    tr.end(clock.now_ns());
                }
                return Ok(ServiceOutcome {
                    result: DpResult {
                        tree: hit.tree,
                        cost: hit.cost,
                        cardinality: hit.cardinality,
                        counters: Default::default(),
                        table_size: 0,
                        plans_built: 0,
                    },
                    algorithm,
                    cache_hit: true,
                    degradation: None,
                    elapsed: started.elapsed(),
                });
            }
        }

        // Miss (or no cache): the optimize span covers graph
        // instantiation, the engine run and the post-run cache store.
        if let Some((clock, attempt, tr)) = tracer.as_mut() {
            let t = clock.now_ns();
            tr.end(t);
            tr.begin_attempt("optimize", *attempt, t);
        }
        let (graph, catalog) = req.spec.instantiate()?;
        let mut s = session.take().unwrap_or_default();
        let mut request = OptimizeRequest::new(&graph, &catalog)
            .with_algorithm(algorithm)
            .with_cost_model(model)
            .with_observer(obs);
        if let Some(budget) = req.time_budget {
            request = request.with_time_budget(budget);
        }
        if let Some(budget) = req.cost_budget {
            request = request.with_cost_budget(budget);
        }
        if let Some(bytes) = req.memory_budget {
            request = request.with_memory_budget(bytes);
        }
        if req.degrade {
            request = request.on_budget_exceeded(BudgetAction::Degrade);
        }
        let outcome = request.run_in(&mut s);
        *session = Some(s);
        let outcome = outcome?;

        // Only exact plans are worth remembering: a degraded plan is an
        // artifact of this request's budgets, not of the query.
        if let (Some(cache), Some(canon)) = (&self.cache, &canon) {
            if outcome.degradation.is_none() {
                cache.insert_observed(
                    canon.fingerprint,
                    algorithm,
                    model_id,
                    &canon.encoding,
                    &canon.order,
                    &outcome.result.tree,
                    outcome.result.cost,
                    outcome.result.cardinality,
                    obs,
                );
            }
        }
        if let Some((clock, _, tr)) = tracer.as_mut() {
            tr.end(clock.now_ns());
        }
        Ok(ServiceOutcome {
            result: outcome.result,
            algorithm: outcome.algorithm,
            cache_hit: false,
            degradation: outcome.degradation,
            elapsed: started.elapsed(),
        })
    }
}

/// Resolves `Auto` from an owned spec without instantiating the graph:
/// [`Algorithm::select_auto`]'s density rule, so the service picks DPsub
/// or DPccp and never DPconv.
fn resolve_auto(spec: &QuerySpec) -> Algorithm {
    Algorithm::select_by_density(spec.num_relations(), spec.num_edges())
}

/// Renders a caught panic payload for [`OptimizeError::Internal`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("request panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("request panicked: {s}")
    } else {
        "request panicked".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_cost::workload;
    use joinopt_qgraph::GraphKind;

    fn spec(kind: GraphKind, n: usize, seed: u64) -> QuerySpec {
        let w = workload::family_workload(kind, n, seed);
        QuerySpec::capture(&w.graph, &w.catalog).unwrap()
    }

    #[test]
    fn resolve_auto_is_the_core_density_rule() {
        use joinopt_cost::Catalog;
        use joinopt_qgraph::QueryGraph;
        for n in 6..=14 {
            // A chain backbone keeps every graph connected; the other
            // pairs follow in lexicographic order.
            let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
            for i in 0..n {
                for j in i + 2..n {
                    pairs.push((i, j));
                }
            }
            let max_edges = pairs.len();
            for edges in max_edges / 2..=max_edges {
                let g = QueryGraph::from_edges(n, pairs[..edges].iter().copied()).unwrap();
                let spec = QuerySpec::capture(&g, &Catalog::new(&g)).unwrap();
                let picked = resolve_auto(&spec);
                assert_eq!(picked, Algorithm::select_auto(&g), "n={n} edges={edges}");
                assert!(
                    matches!(picked, Algorithm::DpSub | Algorithm::DpCcp),
                    "n={n} edges={edges}: {picked:?}"
                );
            }
        }
    }

    #[test]
    fn cost_model_ids_round_trip() {
        for id in [
            CostModelId::Cout,
            CostModelId::NestedLoopJoin,
            CostModelId::HashJoin,
            CostModelId::SortMergeJoin,
            CostModelId::MinOverPhysical,
        ] {
            assert_eq!(CostModelId::parse(id.name()), Some(id));
        }
        assert_eq!(CostModelId::parse("bogus"), None);
    }

    #[test]
    fn warm_hit_is_bit_identical_to_the_cold_run() {
        let service = OptimizerService::default();
        let req = ServiceRequest::new(spec(GraphKind::Chain, 7, 11));
        let cold = &service.submit_batch(std::slice::from_ref(&req))[0];
        let cold = cold.as_ref().unwrap();
        assert!(!cold.cache_hit);
        let warm = &service.submit_batch(std::slice::from_ref(&req))[0];
        let warm = warm.as_ref().unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.result.cost.to_bits(), cold.result.cost.to_bits());
        assert_eq!(warm.result.tree, cold.result.tree);
        let stats = service.cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
    }

    #[test]
    fn tenant_limit_rejects_in_place() {
        let service = OptimizerService::new(ServiceConfig {
            tenant_limit: 2,
            ..ServiceConfig::default()
        });
        let reqs: Vec<_> = (0..4)
            .map(|i| ServiceRequest::new(spec(GraphKind::Star, 5, i)).with_tenant("acme"))
            .collect();
        let results = service.submit_batch(&reqs);
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        for r in &results[2..] {
            assert!(matches!(
                r,
                Err(OptimizeError::TenantLimitExceeded { tenant, limit: 2, .. })
                    if tenant == "acme"
            ));
        }
    }

    #[test]
    fn queue_capacity_rejects_the_overflow() {
        let service = OptimizerService::new(ServiceConfig {
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let reqs: Vec<_> = (0..3)
            .map(|i| ServiceRequest::new(spec(GraphKind::Chain, 4, i)))
            .collect();
        let results = service.submit_batch(&reqs);
        assert!(results[0].is_ok());
        for r in &results[1..] {
            assert!(matches!(
                r,
                Err(OptimizeError::QueueFull { capacity: 1, .. })
            ));
        }
    }

    #[test]
    fn batch_matches_individual_requests_and_preserves_errors() {
        let service = OptimizerService::new(ServiceConfig {
            cache: None,
            worker_threads: 3,
            ..ServiceConfig::default()
        });
        let mut reqs: Vec<_> = (0..5u64)
            .map(|i| {
                ServiceRequest::new(spec(GraphKind::ALL[i as usize % 4], 5 + i as usize % 3, i))
            })
            .collect();
        // A disconnected and an empty spec mid-batch must each fail alone.
        let invalid = |n| {
            let g = joinopt_qgraph::QueryGraph::new(n).unwrap();
            ServiceRequest::new(QuerySpec::capture(&g, &joinopt_cost::Catalog::new(&g)).unwrap())
        };
        reqs.insert(2, invalid(3));
        reqs.insert(4, invalid(0));
        // Twice on the same service: isolation must hold on a fresh pool
        // and on a reused one alike.
        for _ in 0..2 {
            let results = service.submit_batch(&reqs);
            assert_eq!(results.len(), 7);
            assert!(
                matches!(results[2], Err(OptimizeError::Graph(_))),
                "disconnected request fails in place: {:?}",
                results[2]
            );
            assert!(
                matches!(results[4], Err(OptimizeError::EmptyQuery)),
                "empty request fails in place: {:?}",
                results[4]
            );
            for (i, req) in reqs.iter().enumerate() {
                if i == 2 || i == 4 {
                    continue;
                }
                let batch = results[i].as_ref().unwrap();
                let single = &service.submit_batch(std::slice::from_ref(req))[0];
                let single = single.as_ref().unwrap();
                assert_eq!(batch.result.cost.to_bits(), single.result.cost.to_bits());
                assert_eq!(batch.result.tree, single.result.tree);
            }
        }
        // Empty batches are fine.
        assert!(service.submit_batch(&[]).is_empty());
    }

    #[test]
    fn batch_observed_traces_tag_every_run_with_a_thread_id() {
        use joinopt_telemetry::json::JsonValue;
        use joinopt_telemetry::{current_thread_id, TraceWriter};
        let service = OptimizerService::new(ServiceConfig {
            cache: None,
            worker_threads: 2,
            ..ServiceConfig::default()
        });
        let reqs: Vec<_> = [(6, 0), (7, 1), (8, 2), (6, 3)]
            .into_iter()
            .map(|(n, seed)| ServiceRequest::new(spec(GraphKind::Chain, n, seed)))
            .collect();
        let trace = TraceWriter::new(Vec::new());
        let results = service.submit_batch_observed(&reqs, &trace);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(Result::is_ok));
        let text = String::from_utf8(trace.finish().unwrap()).unwrap();

        let mut starts = 0usize;
        let mut tids = Vec::new();
        for line in text.lines() {
            let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            let tid = v
                .get("thread_id")
                .and_then(|t| t.as_u64())
                .expect("thread_id on every event");
            tids.push(tid);
            if v.get("event").and_then(|e| e.as_str()) == Some("run_start") {
                starts += 1;
            }
        }
        // One run per request, and the events came from the pooled
        // workers, not the coordinating thread.
        assert_eq!(starts, 4, "{text}");
        assert!(!tids.is_empty());
        assert!(!tids.contains(&current_thread_id()), "{text}");
    }

    #[test]
    fn priorities_only_reorder_execution_not_results() {
        let service = OptimizerService::default();
        let reqs = vec![
            ServiceRequest::new(spec(GraphKind::Chain, 5, 0)).with_priority(Priority::Low),
            ServiceRequest::new(spec(GraphKind::Star, 5, 1)).with_priority(Priority::High),
        ];
        let results = service.submit_batch(&reqs);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(Result::is_ok));
        // Slot 0 is still the chain (5 relations, 4 edges).
        assert_eq!(results[0].as_ref().unwrap().result.tree.num_relations(), 5);
    }

    #[test]
    fn degraded_plans_are_not_cached() {
        let service = OptimizerService::default();
        // A cost budget of 0 always trips; with degradation the GOO rung
        // answers, and nothing must be stored.
        let req = ServiceRequest::new(spec(GraphKind::Clique, 7, 3))
            .with_cost_budget(0.0)
            .with_degradation();
        let r = &service.submit_batch(std::slice::from_ref(&req))[0];
        let r = r.as_ref().unwrap();
        assert!(r.degradation.is_some());
        assert_eq!(service.cache().unwrap().stats().stores, 0);
    }
}
