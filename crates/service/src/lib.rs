//! Optimizer-as-a-service: the owned request API, the canonical plan
//! cache and the batch executor on top of `joinopt-core`.
//!
//! The core crate's [`OptimizeRequest`](joinopt_core::OptimizeRequest)
//! is a borrowed, zero-cost builder: perfect for embedding, useless for
//! queueing — a request that borrows its graph cannot outlive the call
//! site. This crate adds the service half of the story:
//!
//! * [`spec`] — [`QuerySpec`]/[`CatalogSpec`], owned and hashable forms
//!   of a query graph plus statistics catalog, convertible back to the
//!   borrowed types in O(n + m);
//! * [`fingerprint`] — a canonical 128-bit **query fingerprint** built
//!   on the renumbering invariance proven by the conformance harness:
//!   two specs that differ only by a relabeling of their relations or a
//!   reordering of their join edges fingerprint identically;
//! * [`cache`] — a sharded in-memory [`PlanCache`] keyed by fingerprint
//!   × algorithm × cost-model id, storing detached plan trees with
//!   their cost bits under an exact LRU byte budget;
//! * [`memo`] — the server's bounded query-text memo: a repeated
//!   `optimize` text reuses its parsed spec and canonical form instead
//!   of being parsed and canonicalized again;
//! * [`service`] — [`ServiceRequest`] (owned spec + tenant + priority +
//!   budgets) and [`OptimizerService`], a batch executor riding the
//!   core crate's exact → IDP → GOO degradation ladder;
//! * [`clock`] / [`breaker`] — the injectable clock and the per-tenant
//!   circuit breaker behind the server;
//! * [`gateway`] — [`Gateway`], the hardened request lifecycle
//!   (shedding watermarks, breaker, deadline propagation, graceful
//!   drain) shared by the TCP server and the chaos harness; each
//!   admitted request runs exactly once;
//! * [`server`] — `joinopt serve`: a dependency-free TCP/unix-socket
//!   server speaking newline-delimited JSON.
//!
//! Like the rest of the workspace the crate is dependency-free; cache
//! traffic reports through the zero-overhead
//! [`Observer`](joinopt_telemetry::Observer) vocabulary
//! (`CacheLookup`/`CacheStore`/`CacheEvict`) and folds into the
//! [`MetricsRegistry`](joinopt_telemetry::MetricsRegistry) as
//! `joinopt_cache_*` series. See `docs/service.md` for the design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod breaker;
pub mod cache;
pub mod clock;
pub mod fingerprint;
pub mod gateway;
mod lru;
pub mod memo;
pub mod server;
pub mod service;
pub mod spec;

pub use breaker::{BreakerConfig, BreakerDecision, BreakerState, CircuitBreaker};
pub use cache::{CacheConfig, CacheStats, CachedPlan, PlanCache};
pub use clock::{clock_reads, Clock};
pub use fingerprint::{canonicalize, fingerprints_computed, CanonicalForm, Fingerprint};
pub use gateway::{
    error_kind, Gateway, GatewayConfig, GatewayError, GatewayStats, Rejection, ShedConfig,
};
pub use memo::{MemoStats, QueryMemo, MEMO_BYTES};
pub use server::{Handler, ServeSummary, Server, ServerConfig};
pub use service::{
    CostModelId, OptimizerService, Priority, ServiceConfig, ServiceOutcome, ServiceRequest,
    StageTracer,
};
pub use spec::{CatalogSpec, QuerySpec};
