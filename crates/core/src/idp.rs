//! IDP — Iterative Dynamic Programming (Kossmann & Stocker, TODS 2000).
//!
//! The paper's intro cites iterative DP as the standard answer to
//! queries too large for exact dynamic programming: run *bounded* DP up
//! to a block size `k`, commit the cheapest largest sub-plan as a new
//! compound "relation", and iterate until one plan remains (the IDP-1
//! balanced variant). With `k ≥ n` it degenerates to exact DP; with
//! small `k` it runs in polynomial time and produces near-optimal bushy
//! trees, smoothly trading optimality for time.
//!
//! The implementation works over *components* (initially the base
//! relations), each carrying a relation set and its best plan. Bounded
//! DP enumerates connected component-subsets size-by-size, exactly like
//! DPsize, with connectivity and cardinalities delegated to the
//! underlying query graph — so no cross products are ever introduced.

use joinopt_cost::{ensure_finite, CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::{PlanArena, PlanId};
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;
use joinopt_telemetry::Observer;

use crate::cancel::CancellationToken;
use crate::counters::Counters;
use crate::dpsub::Session;
use crate::driver::Spans;
use crate::error::OptimizeError;
use crate::failpoint;
use crate::kernel::pair_cost;
use crate::result::{DpResult, JoinOrderer};
use crate::table::{DpTable, TableEntry};

/// Iterative dynamic programming (IDP-1) with a configurable block size.
#[derive(Debug, Clone, Copy)]
pub struct Idp {
    block_size: usize,
}

impl Default for Idp {
    fn default() -> Self {
        Idp::with_block_size(10)
    }
}

impl Idp {
    /// Creates an IDP optimizer that runs exact DP over at most `k`
    /// components per round. Values below 2 are treated as 2.
    pub const fn with_block_size(k: usize) -> Idp {
        Idp {
            block_size: if k < 2 { 2 } else { k },
        }
    }

    /// The configured block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }
}

#[derive(Clone, Copy)]
struct Component {
    rels: RelSet,
    plan: PlanId,
    stats: PlanStats,
}

impl JoinOrderer for Idp {
    fn name(&self) -> &'static str {
        "IDP"
    }

    fn optimize_in(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
        _session: &mut Session,
    ) -> Result<DpResult, OptimizeError> {
        let mut spans = Spans::start(obs, self.name(), g.num_relations());
        spans.begin("init");
        if g.num_relations() == 0 {
            return Err(OptimizeError::EmptyQuery);
        }
        g.require_connected()?;
        ctl.check()?;
        failpoint::check("estimator")?;
        let est = CardinalityEstimator::new(g, catalog)?;
        let n = g.num_relations();
        let mut arena = PlanArena::with_capacity(4 * n);
        let mut counters = Counters::new();
        let mut table_high_water = 0usize;
        let mut pace = 0u32;
        // High-water mark of table + arena bytes charged so far; per-round
        // tables release their storage but the budget is not refunded.
        let mut charged = 0usize;

        let mut comps: Vec<Component> = (0..n)
            .map(|i| {
                let card = est.base_cardinality(i);
                Component {
                    rels: RelSet::single(i),
                    plan: arena.add_scan(i, card),
                    stats: PlanStats::base(card),
                }
            })
            .collect();
        spans.end("init");

        spans.begin("enumerate");
        while comps.len() > 1 {
            let m = comps.len();
            let cap = self.block_size.min(m);
            // Bounded DPsize over component-index masks. `table` maps a
            // component mask to the best plan joining those components.
            let mut table = DpTable::new();
            // Each level stores (component mask, covered relation set).
            let mut by_size: Vec<Vec<(RelSet, RelSet)>> = vec![Vec::new(); cap + 1];
            for (ci, comp) in comps.iter().enumerate() {
                let mask = RelSet::single(ci);
                table.insert(
                    mask,
                    TableEntry {
                        plan: comp.plan,
                        stats: comp.stats,
                    },
                );
                by_size[1].push((mask, comp.rels));
            }

            for s in 2..=cap {
                for s1 in 1..=s / 2 {
                    let s2 = s - s1;
                    let (lo, hi) = (0, by_size[s1].len());
                    for i in lo..hi {
                        let (a, ra) = by_size[s1][i];
                        let j0 = if s1 == s2 { i + 1 } else { 0 };
                        for j in j0..by_size[s2].len() {
                            let (b, rb) = by_size[s2][j];
                            counters.inner += 1;
                            ctl.poll(&mut pace, 1)?;
                            if a.overlaps(b) {
                                continue;
                            }
                            if !g.sets_connected(ra, rb) {
                                continue;
                            }
                            counters.csg_cmp_pairs += 2;
                            counters.ono_lohman += 1;
                            let (Some(e1), Some(e2)) =
                                (table.get(a).copied(), table.get(b).copied())
                            else {
                                return Err(OptimizeError::Internal(
                                    "IDP operand missing from the round table".into(),
                                ));
                            };
                            let union = a | b;
                            let incumbent = table.get(union).map(|ex| ex.stats);
                            let out = match incumbent {
                                Some(ex) => ex.cardinality,
                                None => ensure_finite("cardinality", est.set_cardinality(ra | rb))?,
                            };
                            let (cost, swapped) =
                                pair_cost(model, &e1.stats, &e2.stats, out, true)?;
                            let (l, r, rl, rr) = if swapped {
                                (&e2, &e1, rb, ra)
                            } else {
                                (&e1, &e2, ra, rb)
                            };
                            let accepted = incumbent.is_none_or(|best| cost < best.cost);
                            // Provenance speaks relation sets, not this
                            // round's component masks.
                            spans.candidate((ra | rb).bits(), rl.bits(), rr.bits(), cost, accepted);
                            if accepted {
                                let stats = PlanStats {
                                    cardinality: out,
                                    cost,
                                };
                                let plan = arena.add_join(l.plan, r.plan, stats);
                                failpoint::check("table-insert")?;
                                table.insert(union, TableEntry { plan, stats });
                                let now = arena.bytes() + table.bytes();
                                if now > charged {
                                    ctl.charge(now - charged)?;
                                    charged = now;
                                }
                            }
                            if incumbent.is_none() {
                                by_size[s].push((union, ra | rb));
                            }
                        }
                    }
                }
            }
            table_high_water = table_high_water.max(table.len());

            // Commit the cheapest plan of the largest size reached.
            let Some(level) = by_size.iter().rev().find(|lvl| !lvl.is_empty()) else {
                return Err(OptimizeError::Internal(
                    "IDP round produced no plans at any size".into(),
                ));
            };
            let mut best: Option<(RelSet, RelSet, TableEntry)> = None;
            for &(mask, rels) in level {
                let Some(entry) = table.get(mask).copied() else {
                    return Err(OptimizeError::Internal(
                        "IDP committed mask missing from the round table".into(),
                    ));
                };
                // `total_cmp` keeps the first of equally cheap plans, as
                // the previous `min_by` did; costs are finite by the
                // `ensure_finite` guards above.
                if best
                    .as_ref()
                    .is_none_or(|(_, _, b)| entry.stats.cost.total_cmp(&b.stats.cost).is_lt())
                {
                    best = Some((mask, rels, entry));
                }
            }
            let Some((best_mask, best_rels, best_entry)) = best else {
                return Err(OptimizeError::Internal(
                    "IDP found no committable plan in a non-empty level".into(),
                ));
            };
            if best_mask.is_singleton() {
                // Cannot happen for a connected graph with ≥ 2 components:
                // size-2 plans always exist. Defensive guard.
                unreachable!("bounded DP failed to combine any components");
            }
            let merged = Component {
                rels: best_rels,
                plan: best_entry.plan,
                stats: best_entry.stats,
            };
            let mut next: Vec<Component> = comps
                .iter()
                .enumerate()
                .filter(|(ci, _)| !best_mask.contains(*ci))
                .map(|(_, c)| *c)
                .collect();
            next.push(merged);
            comps = next;
        }
        spans.end("enumerate");

        let top = comps[0];
        spans.begin("extract");
        let tree = arena.extract(top.plan);
        spans.end("extract");
        spans.finish(None, &arena, &counters);
        Ok(DpResult {
            tree,
            cost: top.stats.cost,
            cardinality: top.stats.cardinality,
            counters,
            table_size: table_high_water,
            plans_built: arena.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpCcp, JoinOrderer};
    use joinopt_cost::{workload, Cout, HashJoin};
    use joinopt_qgraph::GraphKind;
    use std::time::Instant;

    #[test]
    fn block_size_clamped() {
        assert_eq!(Idp::with_block_size(0).block_size(), 2);
        assert_eq!(Idp::with_block_size(7).block_size(), 7);
        assert_eq!(Idp::default().block_size(), 10);
    }

    #[test]
    fn exact_when_block_covers_query() {
        for kind in GraphKind::ALL {
            for seed in 0..4 {
                let w = workload::family_workload(kind, 8, seed);
                let idp = Idp::with_block_size(8)
                    .optimize(&w.graph, &w.catalog, &Cout)
                    .unwrap();
                let opt = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                assert_eq!(
                    idp.cost.to_bits(),
                    opt.cost.to_bits(),
                    "{kind} seed {seed}: {} vs {}",
                    idp.cost,
                    opt.cost
                );
            }
        }
    }

    #[test]
    fn never_better_than_optimal_and_valid() {
        for seed in 0..15 {
            let w = workload::random_workload(10, 0.3, seed);
            let idp = Idp::with_block_size(4)
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            let opt = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert!(
                idp.cost >= opt.cost - 1e-9 * opt.cost.abs().max(1.0),
                "seed {seed}"
            );
            assert_eq!(idp.tree.relations(), w.graph.all_relations());
            assert_eq!(idp.tree.num_joins(), 9);
            // No cross products.
            fn check(g: &joinopt_qgraph::QueryGraph, t: &joinopt_plan::JoinTree) {
                if let joinopt_plan::JoinTree::Join { left, right, .. } = t {
                    assert!(g.sets_connected(left.relations(), right.relations()));
                    check(g, left);
                    check(g, right);
                }
            }
            check(&w.graph, &idp.tree);
        }
    }

    #[test]
    fn larger_blocks_do_not_hurt_much() {
        // Bigger k explores strictly more per round; require it to be at
        // least as good on average (allow per-seed noise).
        let mut sum_small = 0.0;
        let mut sum_large = 0.0;
        for seed in 0..20 {
            let w = workload::random_workload(12, 0.25, seed);
            let small = Idp::with_block_size(3)
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            let large = Idp::with_block_size(8)
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            let opt = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            sum_small += small.cost / opt.cost;
            sum_large += large.cost / opt.cost;
        }
        assert!(
            sum_large <= sum_small + 1e-6,
            "k=8 (avg ratio {:.3}) worse than k=3 (avg ratio {:.3})",
            sum_large / 20.0,
            sum_small / 20.0
        );
    }

    #[test]
    fn scales_beyond_exact_dp() {
        // A 25-relation clique is far beyond exact DP (3²⁵ ≈ 8·10¹¹
        // subset steps); IDP with k = 3 finishes in well under a second
        // even unoptimized. (The release-mode benches push this to 40+.)
        let w = workload::family_workload(GraphKind::Clique, 25, 1);
        let start = Instant::now();
        let r = Idp::with_block_size(3)
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert!(start.elapsed().as_secs() < 20, "took {:?}", start.elapsed());
        assert_eq!(r.tree.num_relations(), 25);
        assert!(r.cost.is_finite());
        // And a 40-relation chain with a bigger block.
        let w = workload::family_workload(GraphKind::Chain, 40, 1);
        let r = Idp::with_block_size(6)
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert_eq!(r.tree.num_relations(), 40);
    }

    #[test]
    fn works_with_asymmetric_models() {
        let w = workload::random_workload(9, 0.4, 5);
        let r = Idp::with_block_size(5)
            .optimize(&w.graph, &w.catalog, &HashJoin)
            .unwrap();
        assert!(r.cost.is_finite() && r.cost > 0.0);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = QueryGraph::new(0).unwrap();
        assert!(Idp::default()
            .optimize(&g, &Catalog::new(&g), &Cout)
            .is_err());
        let disc = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(Idp::default()
            .optimize(&disc, &Catalog::new(&disc), &Cout)
            .is_err());
    }

    #[test]
    fn single_relation() {
        let w = workload::family_workload(GraphKind::Chain, 1, 0);
        let r = Idp::default()
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert_eq!(r.tree.num_joins(), 0);
    }
}
