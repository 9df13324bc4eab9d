//! The [`Algorithm`] table: names, the engine behind each algorithm,
//! and adaptive (`Auto`) selection.

use joinopt_cost::CostModel;
use joinopt_qgraph::QueryGraph;

use crate::dpccp::DpCcp;
use crate::dpconv::DpConv;
use crate::dpsize::{DpSize, DpSizeNaive};
use crate::dpsub::{DpSub, DpSubCrossProducts, DpSubUnfiltered};
use crate::greedy::Goo;
use crate::idp::Idp;
use crate::leftdeep::DpSizeLeftDeep;
use crate::result::JoinOrderer;
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

    /// The engine behind `self` — the one table from algorithm to code:
    /// [`OptimizeRequest`](crate::OptimizeRequest) runs every algorithm
    /// through it. `Auto` resolves by [`Algorithm::select_auto`] here;
    /// the request layer resolves it with the cost model first.
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

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_cost::{workload, Cout, HashJoin};
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
