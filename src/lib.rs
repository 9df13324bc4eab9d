//! # joinopt — optimal bushy join trees without cross products
//!
//! A from-scratch Rust implementation of the three dynamic-programming
//! join-ordering algorithms analyzed in Moerkotte & Neumann, *"Analysis
//! of Two Existing and One New Dynamic Programming Algorithm for the
//! Generation of Optimal Bushy Join Trees without Cross Products"*
//! (VLDB 2006): **DPsize**, **DPsub** and the paper's new **DPccp** —
//! plus the full substrate a plan generator needs (query graphs,
//! statistics, cardinality estimation, cost models, plan trees) and the
//! paper's analytical counter apparatus.
//!
//! This crate is a façade that re-exports the workspace members:
//!
//! | crate | contents |
//! |---|---|
//! | [`relset`] | bitset relation sets, Vance/Maier subset enumeration |
//! | [`qgraph`] | query graphs, generators, BFS numbering, `EnumerateCsg`/`EnumerateCmp`, `#csg`/`#ccp` formulas |
//! | [`cost`] | catalog, cardinality estimator, cost models, workloads |
//! | [`plan`] | plan arena and join trees |
//! | [`core`] | DPsize / DPsub / DPccp / DPconv / DPhyp, counters, counter formulas, oracle, GOO, the [`OptimizeRequest`](crate::prelude::OptimizeRequest) entry point with pooled sessions |
//! | [`query`] | textual query-description format and SQL frontend |
//! | [`telemetry`] | zero-overhead observer API; events stamped once at the emitter and folded by stateless sinks: run metrics, the metrics registry, JSONL tracing |
//! | [`service`] | optimizer-as-a-service: owned [`QuerySpec`](crate::prelude::QuerySpec)s, canonical query fingerprints, the sharded plan cache, and [`OptimizerService`](crate::prelude::OptimizerService), the batch entry point over a worker pool |
//!
//! # Quickstart
//!
//! ```
//! use joinopt::prelude::*;
//!
//! // A 5-relation star query (fact table R0, four dimensions).
//! let graph = qgraph::generators::star(5).unwrap();
//! let mut catalog = Catalog::new(&graph);
//! catalog.set_cardinality(0, 1_000_000.0).unwrap();
//! for dim in 1..5 {
//!     catalog.set_cardinality(dim, 100.0).unwrap();
//!     catalog.set_selectivity(dim - 1, 0.01).unwrap();
//! }
//!
//! let result = OptimizeRequest::new(&graph, &catalog).run().unwrap().into_result();
//! println!("{}", result.tree.explain());
//! assert_eq!(result.tree.num_relations(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use joinopt_core as core;
pub use joinopt_cost as cost;
pub use joinopt_plan as plan;
pub use joinopt_qgraph as qgraph;
pub use joinopt_query as query;
pub use joinopt_relset as relset;
pub use joinopt_service as service;
pub use joinopt_telemetry as telemetry;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use joinopt_core::{
        Algorithm, Counters, DpCcp, DpHyp, DpResult, DpSize, DpSizeLeftDeep, DpSub, JoinOrderer,
        OptimizeError, OptimizeOutcome, OptimizeRequest, Session,
    };
    pub use joinopt_cost::{
        CardinalityEstimator, Catalog, CostModel, Cout, HashJoin, MinOverPhysical, NestedLoopJoin,
        PlanStats, SortMergeJoin,
    };
    pub use joinopt_plan::JoinTree;
    pub use joinopt_qgraph::{self as qgraph, GraphKind, QueryGraph};
    pub use joinopt_relset::{RelIdx, RelSet};
    pub use joinopt_service::{
        CacheConfig, CostModelId, OptimizerService, Priority, QuerySpec, ServiceConfig,
        ServiceRequest,
    };
    pub use joinopt_telemetry::{
        MetricsCollector, MetricsRegistry, NoopObserver, Observer, RunReport, TraceWriter,
    };
}
