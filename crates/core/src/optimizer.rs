//! The [`Optimizer`] façade and adaptive algorithm selection.

use joinopt_cost::{Catalog, CostModel, Cout};
use joinopt_qgraph::QueryGraph;
use joinopt_telemetry::{NoopObserver, Observer};

use crate::dpccp::DpCcp;
use crate::dpconv::DpConv;
use crate::dpsize::{DpSize, DpSizeNaive};
use crate::dpsub::{DpSub, DpSubCrossProducts, DpSubUnfiltered};
use crate::error::OptimizeError;
use crate::greedy::Goo;
use crate::idp::Idp;
use crate::leftdeep::DpSizeLeftDeep;
use crate::result::{DpResult, JoinOrderer};
use crate::table::DenseDpTable;
use crate::topdown::TopDown;

/// Selects which join-ordering algorithm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Size-driven DP (optimized variant).
    DpSize,
    /// Literal Fig. 1 pseudocode (ablation).
    DpSizeNaive,
    /// Subset-driven DP with the `*` pre-check.
    DpSub,
    /// Subset-driven DP without the pre-check (ablation).
    DpSubUnfiltered,
    /// Vance/Maier with cross products.
    DpSubCrossProducts,
    /// csg-cmp-pair driven DP (the paper's new algorithm).
    DpCcp,
    /// Subset-convolution DP over the popcount-ranked lattice (DPconv);
    /// exact, but only for `C_out`-shaped cost models.
    DpConv,
    /// Size-driven DP restricted to left-deep trees (Selinger space).
    DpSizeLeftDeep,
    /// Iterative DP (IDP-1, Kossmann & Stocker): near-optimal plans for
    /// queries too large for exact DP.
    Idp,
    /// Top-down memoized partitioning with branch-and-bound pruning.
    TopDown,
    /// Greedy Operator Ordering (non-optimal baseline).
    Goo,
    /// Adapt to the query graph (see [`Algorithm::select_auto`]).
    #[default]
    Auto,
}

impl Algorithm {
    /// All concrete (non-`Auto`) algorithms.
    pub const CONCRETE: [Algorithm; 11] = [
        Algorithm::DpSize,
        Algorithm::DpSizeNaive,
        Algorithm::DpSub,
        Algorithm::DpSubUnfiltered,
        Algorithm::DpSubCrossProducts,
        Algorithm::DpCcp,
        Algorithm::DpConv,
        Algorithm::TopDown,
        Algorithm::DpSizeLeftDeep,
        Algorithm::Idp,
        Algorithm::Goo,
    ];

    /// Smallest query size at which `Auto` prefers [`DpConv`] over the
    /// DPsub/DPccp pair on dense `C_out` queries.
    ///
    /// Measured on the `joinopt perf` clique matrix: DPconv and DPsub
    /// relax the same `Θ(3ⁿ)` candidate space on a clique, but DPconv's
    /// per-*set* cardinality term and witness-only table make its inner
    /// loop three array reads and one compare, with no hash-table or
    /// per-split estimator work — it wins at *every* measured clique
    /// size (2–4× from n = 4 up), so this floor is not a performance
    /// crossover. Below it every exact algorithm finishes in tens of
    /// microseconds and `Auto` keeps the longest-validated DPsub; from
    /// 12 relations the absolute gap turns material (milliseconds) and
    /// the lighter loop is worth the engine switch (see
    /// `docs/ALGORITHMS.md` §7 for the measured data).
    pub const DPCONV_MIN_RELATIONS: usize = 12;

    /// Resolves `Auto` for a given graph — the same answer on every
    /// machine.
    ///
    /// See [`Algorithm::select_by_density`] for the policy.
    pub fn select_auto(g: &QueryGraph) -> Algorithm {
        Algorithm::select_by_density(g.num_relations(), g.num_edges())
    }

    /// The density rule behind `Auto`, for a graph of `n` relations and
    /// `edges` join edges.
    ///
    /// The paper's evaluation shows DPccp is the best or near-best choice
    /// everywhere; its only (bounded, ≤ 30 %) loss is against DPsub on
    /// very dense graphs, where the subset enumeration's trivial inner
    /// loop beats the more complex csg machinery. `Auto` therefore picks
    /// DPsub when at least 90 % of all possible edges are present and
    /// DPccp otherwise.
    ///
    /// Queries too large for DPsub's direct-addressed table
    /// (`n >` [`DenseDpTable::MAX_RELATIONS`]) always resolve to DPccp —
    /// at that size DPsub's `Θ(3ⁿ)` enumeration is hopeless.
    pub fn select_by_density(n: usize, edges: usize) -> Algorithm {
        if (2..=DenseDpTable::MAX_RELATIONS).contains(&n) {
            let max_edges = n * (n - 1) / 2;
            if 100 * edges >= 90 * max_edges {
                return Algorithm::DpSub;
            }
        }
        Algorithm::DpCcp
    }

    /// Resolves `Auto` for a given graph *and* cost model — the
    /// resolution the request layer uses.
    ///
    /// Extends [`Algorithm::select_auto`] with the one choice that
    /// depends on the cost model: on dense graphs of
    /// [`Algorithm::DPCONV_MIN_RELATIONS`] or more relations where the
    /// model is `C_out`-shaped ([`CostModel::is_cout_shaped`]), the
    /// subset-convolution engine [`DpConv`] replaces the DPsub/DPccp
    /// pair. The guard on the model is load-bearing: DPconv refuses
    /// non-`C_out` models with a typed error, so `Auto` must never route
    /// a `HashJoin`-costed query to it.
    pub fn select_auto_with_model(g: &QueryGraph, model: &dyn CostModel) -> Algorithm {
        let picked = Algorithm::select_auto(g);
        if picked == Algorithm::DpSub
            && g.num_relations() >= Algorithm::DPCONV_MIN_RELATIONS
            && model.is_cout_shaped()
        {
            return Algorithm::DpConv;
        }
        picked
    }

    /// The underlying [`JoinOrderer`] (after `Auto` resolution).
    pub fn orderer(self, g: &QueryGraph) -> &'static dyn JoinOrderer {
        match self {
            Algorithm::DpSize => &DpSize,
            Algorithm::DpSizeNaive => &DpSizeNaive,
            Algorithm::DpSub => &DpSub,
            Algorithm::DpSubUnfiltered => &DpSubUnfiltered,
            Algorithm::DpSubCrossProducts => &DpSubCrossProducts,
            Algorithm::DpCcp => &DpCcp,
            Algorithm::DpConv => &DpConv,
            Algorithm::DpSizeLeftDeep => &DpSizeLeftDeep,
            Algorithm::Idp => {
                const DEFAULT_IDP: Idp = Idp::with_block_size(10);
                &DEFAULT_IDP
            }
            Algorithm::TopDown => {
                const DEFAULT_TD: TopDown = TopDown { pruning: true };
                &DEFAULT_TD
            }
            Algorithm::Goo => &Goo,
            Algorithm::Auto => Algorithm::select_auto(g).orderer(g),
        }
    }

    /// The lower-case name [`Algorithm::parse`] accepts — the CLI and
    /// wire name of the algorithm.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::DpSize => "dpsize",
            Algorithm::DpSizeNaive => "dpsize-naive",
            Algorithm::DpSub => "dpsub",
            Algorithm::DpSubUnfiltered => "dpsub-nofilter",
            Algorithm::DpSubCrossProducts => "dpsub-cp",
            Algorithm::DpCcp => "dpccp",
            Algorithm::DpConv => "dpconv",
            Algorithm::DpSizeLeftDeep => "dpsize-leftdeep",
            Algorithm::Idp => "idp",
            Algorithm::TopDown => "topdown",
            Algorithm::Goo => "goo",
            Algorithm::Auto => "auto",
        }
    }

    /// Parses an algorithm name: the case-insensitive inverse of
    /// [`Algorithm::name`] over [`Algorithm::CONCRETE`] plus `Auto`.
    pub fn parse(s: &str) -> Option<Algorithm> {
        Algorithm::CONCRETE
            .into_iter()
            .chain([Algorithm::Auto])
            .find(|a| a.name().eq_ignore_ascii_case(s))
    }
}

/// High-level entry point: pick an algorithm (or let `Auto` adapt) and a
/// cost model, then optimize queries.
///
/// ```
/// use joinopt_core::Optimizer;
/// use joinopt_cost::workload;
/// use joinopt_qgraph::GraphKind;
///
/// let w = workload::family_workload(GraphKind::Chain, 6, 0);
/// let result = Optimizer::new().optimize(&w.graph, &w.catalog).unwrap();
/// assert_eq!(result.tree.num_relations(), 6);
/// ```
pub struct Optimizer {
    algorithm: Algorithm,
    model: Box<dyn CostModel>,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::new()
    }
}

impl Optimizer {
    /// An optimizer with `Auto` algorithm selection and the `C_out`
    /// cost model.
    pub fn new() -> Optimizer {
        Optimizer {
            algorithm: Algorithm::Auto,
            model: Box::new(Cout),
        }
    }

    /// Chooses a specific algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Optimizer {
        self.algorithm = algorithm;
        self
    }

    /// Chooses a cost model.
    #[must_use]
    pub fn with_cost_model(mut self, model: impl CostModel + 'static) -> Optimizer {
        self.model = Box::new(model);
        self
    }

    /// The configured algorithm (possibly `Auto`).
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Optimizes one query.
    ///
    /// Thin forward to [`OptimizeRequest`](crate::OptimizeRequest) —
    /// equivalent to building a request with this optimizer's algorithm
    /// and cost model, then discarding the execution
    /// metadata of its [`OptimizeOutcome`](crate::OptimizeOutcome).
    ///
    /// # Errors
    ///
    /// Propagates the underlying algorithm's validation errors.
    pub fn optimize(&self, g: &QueryGraph, catalog: &Catalog) -> Result<DpResult, OptimizeError> {
        self.optimize_observed(g, catalog, &NoopObserver)
    }

    /// [`Optimizer::optimize`] with telemetry: the resolved algorithm
    /// reports phase spans, DP-level progress and table/arena statistics
    /// to `obs` (see [`joinopt_telemetry::Event`] for the vocabulary).
    ///
    /// # Errors
    ///
    /// Propagates the underlying algorithm's validation errors.
    pub fn optimize_observed(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        obs: &dyn Observer,
    ) -> Result<DpResult, OptimizeError> {
        crate::request::OptimizeRequest::new(g, catalog)
            .with_algorithm(self.algorithm)
            .with_cost_model(self.model.as_ref())
            .with_observer(obs)
            .run()
            .map(crate::request::OptimizeOutcome::into_result)
    }

    /// Optimizes a batch of queries, spreading them across worker
    /// threads for throughput.
    ///
    /// Each worker owns a pooled [`crate::Session`] and claims queries
    /// from a shared queue, so a batch of mixed sizes load-balances and
    /// every query after a worker's first reuses its table and arena
    /// allocations. Results come back in
    /// input order, each independently `Ok` or `Err` (one invalid query
    /// does not poison the batch). A query that *panics* is likewise
    /// isolated: the panic is caught, reported as
    /// [`OptimizeError::Internal`] for that query only, and the worker
    /// continues with a fresh session (the half-mutated one is
    /// discarded). Telemetry is not threaded through this entry point;
    /// use [`Optimizer::optimize_batch_observed`] with a `Sync` observer
    /// (e.g. [`joinopt_telemetry::RegistryObserver`] or a
    /// [`joinopt_telemetry::TraceWriter`]) to watch a batch.
    pub fn optimize_batch(
        &self,
        queries: &[(&QueryGraph, &Catalog)],
    ) -> Vec<Result<DpResult, OptimizeError>> {
        self.optimize_batch_observed(queries, &NoopObserver)
    }

    /// Like [`Optimizer::optimize_batch`], but every per-query run
    /// reports its events to `obs`.
    ///
    /// The observer must be `Sync`: batch workers emit concurrently,
    /// each from its own thread for the whole of a query's run, so
    /// per-thread event streams stay internally ordered and
    /// attributable (trace lines carry
    /// [`joinopt_telemetry::current_thread_id`]).
    pub fn optimize_batch_observed(
        &self,
        queries: &[(&QueryGraph, &Catalog)],
        obs: &(dyn Observer + Sync),
    ) -> Vec<Result<DpResult, OptimizeError>> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;

        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(queries.len())
            .max(1);

        // `None` means "allocate a fresh session before the next query" —
        // the state after a panic tore through a pooled session.
        let run_one = |session: &mut Option<crate::Session>,
                       (g, catalog): (&QueryGraph, &Catalog)|
         -> Result<DpResult, OptimizeError> {
            let mut s = session.take().unwrap_or_default();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::request::OptimizeRequest::new(g, catalog)
                    .with_algorithm(self.algorithm)
                    .with_cost_model(self.model.as_ref())
                    .with_observer(obs)
                    .run_in(&mut s)
                    .map(crate::request::OptimizeOutcome::into_result)
            }));
            match outcome {
                Ok(r) => {
                    *session = Some(s);
                    r
                }
                Err(payload) => Err(OptimizeError::Internal(panic_message(payload.as_ref()))),
            }
        };

        if workers == 1 {
            let mut session = None;
            return queries.iter().map(|&q| run_one(&mut session, q)).collect();
        }

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
                        let Some(&q) = queries.get(i) else { break };
                        if tx.send((i, run_one(&mut session, q))).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        drop(tx);
        let mut results: Vec<Option<Result<DpResult, OptimizeError>>> =
            (0..queries.len()).map(|_| None).collect();
        for (i, r) in rx {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(OptimizeError::Internal(
                        "query was never claimed by a batch worker".into(),
                    ))
                })
            })
            .collect()
    }
}

/// Renders a caught panic payload (the `&str`/`String` cases the panic
/// machinery produces for message panics) for [`OptimizeError::Internal`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("query panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("query panicked: {s}")
    } else {
        "query panicked".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_cost::{workload, HashJoin};
    use joinopt_qgraph::{generators, GraphKind};

    #[test]
    fn auto_picks_dpsub_on_cliques_and_dpccp_elsewhere() {
        assert_eq!(
            Algorithm::select_auto(&generators::clique(8).unwrap()),
            Algorithm::DpSub
        );
        for kind in [GraphKind::Chain, GraphKind::Cycle, GraphKind::Star] {
            assert_eq!(
                Algorithm::select_auto(&generators::generate(kind, 8)),
                Algorithm::DpCcp,
                "{kind}"
            );
        }
        // Near-clique (one edge removed) still counts as dense.
        let mut h = QueryGraph::new(6).unwrap();
        for i in 0..6 {
            for j in i + 1..6 {
                if !(i == 0 && j == 5) {
                    h.add_edge(i, j).unwrap();
                }
            }
        }
        assert_eq!(Algorithm::select_auto(&h), Algorithm::DpSub);
    }

    #[test]
    fn auto_density_rule_is_one_column() {
        // n=8 graphs at controlled densities (28 possible edges). Edges
        // are added in lexicographic pair order, so every graph with
        // ≥ 7 edges contains the star around relation 0 and is connected.
        fn graph_with_edges(edges: usize) -> QueryGraph {
            let mut g = QueryGraph::new(8).unwrap();
            let mut added = 0;
            'outer: for i in 0..8 {
                for j in i + 1..8 {
                    if added == edges {
                        break 'outer;
                    }
                    g.add_edge(i, j).unwrap();
                    added += 1;
                }
            }
            assert_eq!(g.num_edges(), edges);
            g
        }
        use Algorithm::{DpCcp as C, DpSub as S};
        // (edges, expected algorithm) — the documented 90 % threshold.
        let table = [
            (14, C), // 50 %
            (20, C), // 71 %
            (23, C), // 82 %
            (25, C), // 89 %
            (26, S), // 93 %: near-clique
            (28, S), // clique
        ];
        for (edges, want) in table {
            let g = graph_with_edges(edges);
            assert_eq!(Algorithm::select_auto(&g), want, "edges={edges}");
            assert_eq!(
                Algorithm::select_by_density(8, edges),
                want,
                "edges={edges}"
            );
        }
        // Beyond the dense-table cap even a clique resolves to DPccp.
        let huge = generators::clique(DenseDpTable::MAX_RELATIONS + 1).unwrap();
        assert_eq!(Algorithm::select_auto(&huge), Algorithm::DpCcp);
    }

    #[test]
    fn batch_matches_individual_runs_and_preserves_errors() {
        let workloads: Vec<_> = (0..6)
            .map(|seed| {
                workload::family_workload(GraphKind::ALL[seed % 4], 5 + seed % 3, seed as u64)
            })
            .collect();
        let opt = Optimizer::new();
        let mut queries: Vec<(&QueryGraph, &Catalog)> =
            workloads.iter().map(|w| (&w.graph, &w.catalog)).collect();
        // A disconnected graph mid-batch must fail alone.
        let disc = QueryGraph::new(3).unwrap();
        let disc_cat = Catalog::new(&disc);
        queries.insert(3, (&disc, &disc_cat));
        let results = opt.optimize_batch(&queries);
        assert_eq!(results.len(), 7);
        assert!(results[3].is_err(), "disconnected query fails in place");
        for (i, w) in workloads.iter().enumerate() {
            let idx = if i < 3 { i } else { i + 1 };
            let batch = results[idx].as_ref().unwrap();
            let single = opt.optimize(&w.graph, &w.catalog).unwrap();
            assert_eq!(batch.cost.to_bits(), single.cost.to_bits(), "query {i}");
            assert_eq!(batch.tree, single.tree, "query {i}");
        }
        // Empty batches are fine.
        assert!(opt.optimize_batch(&[]).is_empty());
    }

    #[test]
    fn auto_routes_dense_cout_queries_to_dpconv_but_guards_the_model() {
        let big = generators::clique(Algorithm::DPCONV_MIN_RELATIONS).unwrap();
        // C_out-shaped model on a crossover-sized clique: DPconv.
        assert_eq!(
            Algorithm::select_auto_with_model(&big, &Cout),
            Algorithm::DpConv
        );
        // The model guard: DPconv would refuse HashJoin with a typed
        // error, so Auto must fall back to DPsub on the same graph.
        assert_eq!(
            Algorithm::select_auto_with_model(&big, &HashJoin),
            Algorithm::DpSub
        );
        // Below the measured crossover the DPsub choice stands even for
        // C_out, and sparse graphs stay with DPccp at any size.
        let small = generators::clique(Algorithm::DPCONV_MIN_RELATIONS - 1).unwrap();
        assert_eq!(
            Algorithm::select_auto_with_model(&small, &Cout),
            Algorithm::DpSub
        );
        let sparse = generators::chain(Algorithm::DPCONV_MIN_RELATIONS + 2).unwrap();
        assert_eq!(
            Algorithm::select_auto_with_model(&sparse, &Cout),
            Algorithm::DpCcp
        );
        // Past the dense-table cap nothing dense-table-backed is viable.
        let huge = generators::clique(DenseDpTable::MAX_RELATIONS + 1).unwrap();
        assert_eq!(
            Algorithm::select_auto_with_model(&huge, &Cout),
            Algorithm::DpCcp
        );
    }

    #[test]
    fn auto_handles_tiny_graphs() {
        assert_eq!(
            Algorithm::select_auto(&generators::chain(1).unwrap()),
            Algorithm::DpCcp
        );
        // n=2 chain IS the 2-clique.
        assert_eq!(
            Algorithm::select_auto(&generators::chain(2).unwrap()),
            Algorithm::DpSub
        );
    }

    #[test]
    fn facade_matches_direct_invocation() {
        let w = workload::family_workload(GraphKind::Star, 7, 9);
        let direct = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        let facade = Optimizer::new()
            .with_algorithm(Algorithm::DpCcp)
            .optimize(&w.graph, &w.catalog)
            .unwrap();
        assert_eq!(direct.cost, facade.cost);
        assert_eq!(direct.counters, facade.counters);
    }

    #[test]
    fn facade_cost_model_is_respected() {
        let w = workload::family_workload(GraphKind::Chain, 6, 2);
        let cout = Optimizer::new().optimize(&w.graph, &w.catalog).unwrap();
        let hash = Optimizer::new()
            .with_cost_model(HashJoin)
            .optimize(&w.graph, &w.catalog)
            .unwrap();
        assert_ne!(cout.cost, hash.cost);
    }

    #[test]
    fn parse_roundtrip() {
        for alg in Algorithm::CONCRETE {
            let g = generators::chain(4).unwrap();
            assert_eq!(Algorithm::parse(alg.name()), Some(alg));
            let name = alg.orderer(&g).name();
            assert_eq!(Algorithm::parse(name), Some(alg), "{name}");
        }
        assert_eq!(Algorithm::parse("AUTO"), Some(Algorithm::Auto));
        assert_eq!(Algorithm::parse("sa"), None);
    }

    #[test]
    fn all_concrete_algorithms_agree_on_optimal_cost() {
        // Except GOO (heuristic), every algorithm is exact; cross-product
        // DP can only be ≤.
        let w = workload::random_workload(7, 0.5, 33);
        let reference = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap().cost;
        for alg in [
            Algorithm::DpSize,
            Algorithm::DpSizeNaive,
            Algorithm::DpSub,
            Algorithm::DpSubUnfiltered,
        ] {
            let r = alg
                .orderer(&w.graph)
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            assert_eq!(
                r.cost.to_bits(),
                reference.to_bits(),
                "{alg:?}: {} vs {}",
                r.cost,
                reference
            );
        }
        let cp = Algorithm::DpSubCrossProducts
            .orderer(&w.graph)
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert!(cp.cost <= reference);
        let goo = Algorithm::Goo
            .orderer(&w.graph)
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert!(goo.cost >= reference);
    }
}
