//! The [`Algorithm`] table: names, the engine behind each algorithm,
//! and adaptive (`Auto`) selection.

use joinopt_qgraph::QueryGraph;

use crate::dpccp::DpCcp;
use crate::dpconv::DpConv;
use crate::dpsize::DpSize;
use crate::dpsub::DpSub;
use crate::greedy::Goo;
use crate::result::JoinOrderer;
use crate::table::DenseDpTable;

/// Selects which join-ordering algorithm runs: the engines the system
/// serves. The ablations and baselines ([`DpSizeNaive`](crate::DpSizeNaive),
/// [`DpSubUnfiltered`](crate::DpSubUnfiltered),
/// [`DpSubCrossProducts`](crate::DpSubCrossProducts),
/// [`TopDown`](crate::TopDown), [`DpSizeLeftDeep`](crate::DpSizeLeftDeep))
/// are orderers that the oracle, the tests and the benchmarks build
/// directly; no caller can name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Size-driven DP (optimized variant).
    DpSize,
    /// Subset-driven DP with the `*` pre-check.
    DpSub,
    /// csg-cmp-pair driven DP (the paper's new algorithm).
    DpCcp,
    /// Subset-convolution DP over the popcount-ranked lattice (DPconv);
    /// exact, but only for `C_out`-shaped cost models.
    DpConv,
    /// Greedy Operator Ordering (non-optimal baseline).
    Goo,
    /// Adapt to the query graph (see [`Algorithm::select_auto`]).
    #[default]
    Auto,
}

impl Algorithm {
    /// The concrete (non-`Auto`) algorithms a caller can name: the
    /// paper's three DPs, DPconv and GOO, the degradation ladder's last
    /// rung. IDP ([`Idp`](crate::Idp)) is no algorithm a caller can
    /// name: its rounds have no work bound, and on cliques it is slower
    /// than the fastest exact engine. It runs as the degradation
    /// ladder's block-4 rung and in the conformance oracle's heuristic
    /// leg.
    pub const CONCRETE: [Algorithm; 5] = [
        Algorithm::DpSize,
        Algorithm::DpSub,
        Algorithm::DpCcp,
        Algorithm::DpConv,
        Algorithm::Goo,
    ];

    /// Resolves `Auto` for a given graph — the same answer on every
    /// machine and under every cost model.
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
    ///
    /// The rule never picks [`DpConv`]: on cliques from 8 to 20
    /// relations, DPsub is the faster engine (`docs/ALGORITHMS.md` §7).
    /// It is `Auto`'s one rule: the request layer, [`Algorithm::orderer`]
    /// and the service, which counts a spec's relations and edges without
    /// building its graph, all call it.
    pub fn select_by_density(n: usize, edges: usize) -> Algorithm {
        if (2..=DenseDpTable::MAX_RELATIONS).contains(&n) {
            let max_edges = n * (n - 1) / 2;
            if 100 * edges >= 90 * max_edges {
                return Algorithm::DpSub;
            }
        }
        Algorithm::DpCcp
    }

    /// The engine behind `self` — the one table from algorithm to code:
    /// [`OptimizeRequest`](crate::OptimizeRequest) runs every algorithm
    /// through it. `Auto` resolves by [`Algorithm::select_auto`], as it
    /// does everywhere.
    pub fn orderer(self, g: &QueryGraph) -> &'static dyn JoinOrderer {
        match self {
            Algorithm::DpSize => &DpSize,
            Algorithm::DpSub => &DpSub,
            Algorithm::DpCcp => &DpCcp,
            Algorithm::DpConv => &DpConv,
            Algorithm::Goo => &Goo,
            Algorithm::Auto => Algorithm::select_auto(g).orderer(g),
        }
    }

    /// The lower-case name [`Algorithm::parse`] accepts — the CLI and
    /// wire name of the algorithm.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::DpSize => "dpsize",
            Algorithm::DpSub => "dpsub",
            Algorithm::DpCcp => "dpccp",
            Algorithm::DpConv => "dpconv",
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
    use joinopt_cost::{workload, Cout};
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
        for gone in [
            "idp",
            "dpsize-naive",
            "dpsub-nofilter",
            "dpsub-cp",
            "topdown",
            "dpsize-leftdeep",
        ] {
            assert_eq!(Algorithm::parse(gone), None, "{gone}");
        }
    }

    #[test]
    fn all_concrete_algorithms_agree_on_optimal_cost() {
        // Except GOO (heuristic), every algorithm is exact.
        let w = workload::random_workload(7, 0.5, 33);
        let reference = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap().cost;
        for alg in [Algorithm::DpSize, Algorithm::DpSub] {
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
        let goo = Algorithm::Goo
            .orderer(&w.graph)
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert!(goo.cost >= reference);
    }
}
