//! [`ServiceRequest`] and the batch executor.
//!
//! The service is the one blessed entry point for *owned* work: a
//! [`ServiceRequest`] carries its [`QuerySpec`], a tenant label, a
//! priority and per-request budgets, so it can sit in a queue or be
//! answered straight from the plan cache. Execution rides the core
//! crate end to end: each worker pools a [`Session`] across the queries
//! it claims, budget trips walk the exact → IDP → GOO degradation
//! ladder when the request opted in, and panics are isolated per
//! request.
//!
//! ## Batches and admission
//!
//! [`OptimizerService::submit_batch`] runs every request of a batch on
//! the worker pool and returns the results in input order; a failing
//! request fails in its own slot without disturbing its neighbours.
//! The batch path has no admission step of its own: the only admission
//! is the server's [`Gateway`](crate::Gateway), whose watermarks shed
//! by [`Priority`] and cap in-flight requests before
//! [`OptimizerService::submit_one`] runs.
//!
//! ## Caching
//!
//! With a cache configured, each request takes its spec's canonical
//! form ([`crate::fingerprint`]) from the request when it carries one
//! (a query served from the server's [`crate::memo`]) and computes it
//! otherwise (handing it back on a hit, so the memo can store it),
//! probes the cache under
//! (fingerprint, resolved algorithm, cost-model id) and, on a miss
//! whose run completes exactly (no degradation), stores the resulting
//! plan. Hits return bit-identical cost bits and plan shape to the cold
//! run of the same spec. Without a cache the fingerprint path is
//! skipped entirely — see [`crate::fingerprint::fingerprints_computed`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use joinopt_core::{
    Algorithm, BudgetAction, DegradationInfo, DpResult, OptimizeError, OptimizeRequest, Session,
};
use joinopt_cost::{CostModel, Cout, HashJoin, MinOverPhysical, NestedLoopJoin, SortMergeJoin};
use joinopt_telemetry::{Observer, RequestTrace};

use crate::cache::{CacheConfig, PlanCache};
use crate::clock::Clock;
use crate::fingerprint::{canonicalize, CanonicalForm};
use crate::memo::ParsedQuery;
use crate::spec::QuerySpec;

/// The gateway's tracing hookup: the clock that stamps span boundaries
/// and the request's flight record. Bundled as a tuple so the untraced
/// path stays a single `None`.
pub type StageTracer<'a> = (&'a Clock, &'a mut RequestTrace);

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

/// Request priority: the server's load shedding drops lower priorities
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work; shed first.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive; shed last.
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

/// An owned, queueable optimization request. Cloning it shares the
/// query instead of copying it.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    /// The query, shared with clones (and with the server's memo).
    query: Arc<ParsedQuery>,
    /// Tenant label for the gateway's breaker and metrics.
    pub tenant: String,
    /// Priority for the gateway's load shedding.
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
        ServiceRequest::from_parsed(Arc::new(ParsedQuery::new(spec)))
    }

    /// [`ServiceRequest::new`] for an already parsed query; when it
    /// carries its canonical form, the service uses that instead of
    /// canonicalizing the spec again.
    pub(crate) fn from_parsed(query: Arc<ParsedQuery>) -> ServiceRequest {
        ServiceRequest {
            query,
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

    /// The owned query.
    pub fn spec(&self) -> &QuerySpec {
        self.query.spec()
    }

    /// The query's canonical form, when the request carries one.
    pub(crate) fn canonical(&self) -> Option<&CanonicalForm> {
        self.query.canonical()
    }

    /// The owned query, moved out unless a clone still shares it.
    pub(crate) fn into_spec(self) -> QuerySpec {
        Arc::try_unwrap(self.query).map_or_else(|q| q.spec().clone(), ParsedQuery::into_spec)
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

/// Service sizing.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for batch execution. `0` = the machine's
    /// available parallelism.
    pub worker_threads: usize,
    /// Plan-cache sizing; `None` disables caching entirely (and with it
    /// the whole fingerprint path).
    pub cache: Option<CacheConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            worker_threads: 0,
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
    /// On a cache hit, the canonical form computed for the probe (`None`
    /// when the request carried one), for the server's memo to store.
    pub(crate) canonical: Option<CanonicalForm>,
}

/// The optimizer service: a plan cache plus a batch executor. Methods
/// take `&self`; one service is shared across submitting threads.
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

    /// Submits a batch: every request runs on the worker pool, and the
    /// results come back in input order. Every run and every cache
    /// lookup/store/evict reports to `obs` (which must be `Sync`;
    /// workers emit concurrently, tagged by thread id).
    pub fn submit_batch(
        &self,
        requests: &[ServiceRequest],
        obs: &(dyn Observer + Sync),
    ) -> Vec<Result<ServiceOutcome, OptimizeError>> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;

        let workers = if self.config.worker_threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.config.worker_threads
        }
        .min(requests.len())
        .max(1);

        let run_one = |session: &mut Option<Session>, req: &ServiceRequest| {
            self.submit_one(req, session, obs)
        };

        if workers == 1 {
            let mut session = None;
            return requests
                .iter()
                .map(|req| run_one(&mut session, req))
                .collect();
        }
        let mut results: Vec<Option<Result<ServiceOutcome, OptimizeError>>> =
            (0..requests.len()).map(|_| None).collect();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let run_one = &run_one;
                scope.spawn(move || {
                    let mut session = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        if tx.send((i, run_one(&mut session, req))).is_err() {
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

    /// Answers one request outside a batch — the `joinopt serve` path
    /// (the server gateway does its shedding and breaker checks before
    /// calling this). Shares the plan cache,
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
    /// from the gateway's clock.
    /// `None` keeps this path free of clock reads entirely (the
    /// zero-overhead contract pinned in `tests/trace_overhead.rs`).
    pub fn submit_one_traced(
        &self,
        req: &ServiceRequest,
        session: &mut Option<Session>,
        obs: &dyn Observer,
        tracer: Option<StageTracer<'_>>,
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

    /// Answers one request: cache probe, then (on a miss) a
    /// full optimization, then (when exact) a cache store.
    ///
    /// Two service-level failpoint sites live here (cfg-gated, see
    /// `docs/robustness.md`): `serve-worker-panic` fires before any
    /// work — its panics are swallowed by the caller's `catch_unwind`
    /// like a real worker bug — and `serve-cache-poison` replaces the
    /// request's cache-key fingerprint with a constant, forcing every
    /// distinct query into one cache slot to prove the full-encoding
    /// verification turns collisions into misses, never wrong plans.
    /// It rewrites only this request's local key, never a canonical
    /// form the request carries.
    fn answer(
        &self,
        session: &mut Option<Session>,
        req: &ServiceRequest,
        obs: &dyn Observer,
        mut tracer: Option<StageTracer<'_>>,
    ) -> Result<ServiceOutcome, OptimizeError> {
        joinopt_core::failpoint::check("serve-worker-panic")?;
        let started = Instant::now();
        let model = req.cost_model.model();
        let model_id = req.cost_model.name();

        // Resolve `Auto` by the one density rule, from the spec's counts
        // without instantiating the graph, so the cache key is concrete.
        let algorithm = if req.algorithm == Algorithm::Auto {
            Algorithm::select_by_density(req.spec().num_relations(), req.spec().num_edges())
        } else {
            req.algorithm
        };

        // Probe the cache (fingerprinting is skipped entirely when no
        // cache is configured). A canonical form the request carries is
        // used as is; otherwise it is computed here, billed to the
        // cache-lookup span: it exists only to produce the cache key.
        if let Some((clock, tr)) = tracer.as_mut() {
            tr.begin("cache-lookup", clock.now_ns());
        }
        let computed = match (&self.cache, req.canonical()) {
            (Some(_), None) => Some(canonicalize(req.spec())),
            _ => None,
        };
        let canon = self
            .cache
            .as_ref()
            .and(req.canonical().or(computed.as_ref()));
        let key = canon.map(|c| {
            // Simulate the worst-case fingerprint collision: every query
            // maps to the same slot. Correctness must now rest entirely
            // on the cache's word-for-word encoding check.
            let fingerprint = if joinopt_core::failpoint::flag("serve-cache-poison") {
                crate::Fingerprint {
                    hi: 0xdead_beef_dead_beef,
                    lo: 0xfeed_face_feed_face,
                }
            } else {
                c.fingerprint
            };
            (fingerprint, c)
        });
        if let (Some(cache), Some((fingerprint, canon))) = (&self.cache, key) {
            if let Some(hit) = cache.lookup_observed(
                fingerprint,
                algorithm,
                model_id,
                &canon.encoding,
                &canon.order,
                obs,
            ) {
                if let Some((clock, tr)) = tracer.as_mut() {
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
                    canonical: computed,
                });
            }
        }

        // Miss (or no cache): the optimize span covers graph
        // instantiation, the engine run and the post-run cache store.
        if let Some((clock, tr)) = tracer.as_mut() {
            let t = clock.now_ns();
            tr.end(t);
            tr.begin("optimize", t);
        }
        let (graph, catalog) = req.spec().instantiate()?;
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
        if let (Some(cache), Some((fingerprint, canon))) = (&self.cache, key) {
            if outcome.degradation.is_none() {
                cache.insert_observed(
                    fingerprint,
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
        if let Some((clock, tr)) = tracer.as_mut() {
            tr.end(clock.now_ns());
        }
        Ok(ServiceOutcome {
            result: outcome.result,
            algorithm: outcome.algorithm,
            cache_hit: false,
            degradation: outcome.degradation,
            elapsed: started.elapsed(),
            canonical: None,
        })
    }
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
    use joinopt_telemetry::NoopObserver;

    fn spec(kind: GraphKind, n: usize, seed: u64) -> QuerySpec {
        let w = workload::family_workload(kind, n, seed);
        QuerySpec::capture(&w.graph, &w.catalog).unwrap()
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
        let cold = service.submit_one(&req, &mut None, &NoopObserver).unwrap();
        assert!(!cold.cache_hit);
        let warm = service.submit_one(&req, &mut None, &NoopObserver).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.result.cost.to_bits(), cold.result.cost.to_bits());
        assert_eq!(warm.result.tree, cold.result.tree);
        let stats = service.cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
    }

    #[test]
    fn batch_matches_individual_requests_and_preserves_errors() {
        let service = OptimizerService::new(ServiceConfig {
            worker_threads: 3,
            cache: None,
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
            let results = service.submit_batch(&reqs, &NoopObserver);
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
                let single = service.submit_one(req, &mut None, &NoopObserver).unwrap();
                assert_eq!(batch.result.cost.to_bits(), single.result.cost.to_bits());
                assert_eq!(batch.result.tree, single.result.tree);
            }
        }
        // Empty batches are fine.
        assert!(service.submit_batch(&[], &NoopObserver).is_empty());
    }

    #[test]
    fn batch_observed_traces_tag_every_run_with_a_thread_id() {
        use joinopt_telemetry::json::JsonValue;
        use joinopt_telemetry::{current_thread_id, TraceWriter};
        let service = OptimizerService::new(ServiceConfig {
            worker_threads: 2,
            cache: None,
        });
        let reqs: Vec<_> = [(6, 0), (7, 1), (8, 2), (6, 3)]
            .into_iter()
            .map(|(n, seed)| ServiceRequest::new(spec(GraphKind::Chain, n, seed)))
            .collect();
        let trace = TraceWriter::new(Vec::new());
        let results = service.submit_batch(&reqs, &trace);
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
    fn every_slot_of_a_large_single_tenant_batch_answers_in_input_order() {
        // One tenant, mixed priorities, more requests than any per-tenant
        // or per-batch limit the service once had: every slot answers,
        // in input order, with the cost bits of a cold single run.
        let service = OptimizerService::default();
        let cold = OptimizerService::new(ServiceConfig {
            cache: None,
            ..ServiceConfig::default()
        });
        let priorities = [Priority::Low, Priority::Normal, Priority::High];
        let reqs: Vec<_> = (0..300u64)
            .map(|i| {
                let kind = GraphKind::ALL[i as usize % 4];
                ServiceRequest::new(spec(kind, 4 + i as usize % 3, i))
                    .with_tenant("acme")
                    .with_priority(priorities[i as usize % 3])
            })
            .collect();
        let results = service.submit_batch(&reqs, &NoopObserver);
        assert_eq!(results.len(), reqs.len());
        for (i, (req, r)) in reqs.iter().zip(&results).enumerate() {
            let batch = r.as_ref().unwrap_or_else(|e| panic!("slot {}: {e}", i + 1));
            let single = cold.submit_one(req, &mut None, &NoopObserver).unwrap();
            assert_eq!(
                batch.result.cost.to_bits(),
                single.result.cost.to_bits(),
                "slot {}",
                i + 1
            );
            assert_eq!(batch.result.tree, single.result.tree, "slot {}", i + 1);
        }
    }

    #[test]
    fn degraded_plans_are_not_cached() {
        let service = OptimizerService::default();
        // A cost budget of 0 always trips; with degradation the GOO rung
        // answers, and nothing must be stored.
        let req = ServiceRequest::new(spec(GraphKind::Clique, 7, 3))
            .with_cost_budget(0.0)
            .with_degradation();
        let r = service.submit_one(&req, &mut None, &NoopObserver).unwrap();
        assert!(r.degradation.is_some());
        assert_eq!(service.cache().unwrap().stats().stores, 0);
    }
}
