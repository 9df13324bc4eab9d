//! GOO — Greedy Operator Ordering — a non-optimal baseline.
//!
//! GOO (Fegaras) repeatedly joins the pair of current components whose
//! join result is smallest, until one component remains. It runs in
//! `O(n³)` and produces bushy trees, but offers no optimality guarantee;
//! the workspace uses it to contextualize how far greedy plans fall from
//! the DP optimum (see the plan-quality example and benches).

use joinopt_cost::{ensure_finite, CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::{PlanArena, PlanId};
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;
use joinopt_telemetry::{Event, Observer};

use crate::cancel::CancellationToken;
use crate::counters::Counters;
use crate::dpsub::Session;
use crate::driver::Spans;
use crate::error::OptimizeError;
use crate::kernel::pair_cost;
use crate::result::{DpResult, JoinOrderer};

/// The GOO greedy heuristic (smallest intermediate result first).
#[derive(Debug, Clone, Copy, Default)]
pub struct Goo;

impl JoinOrderer for Goo {
    fn name(&self) -> &'static str {
        "GOO"
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
        let spans = Spans::start(obs, self.name(), g.num_relations());
        let provenance = obs.enabled() && obs.wants_provenance();
        spans.begin("init");
        if g.num_relations() == 0 {
            return Err(OptimizeError::EmptyQuery);
        }
        g.require_connected()?;
        ctl.check()?;
        crate::failpoint::check("estimator")?;
        let est = CardinalityEstimator::new(g, catalog)?;
        let n = g.num_relations();
        let mut arena = PlanArena::with_capacity(2 * n);
        let mut counters = Counters::new();
        let mut pace = 0u32;

        struct Component {
            set: RelSet,
            plan: PlanId,
            stats: PlanStats,
        }
        let mut comps: Vec<Component> = (0..n)
            .map(|i| {
                let card = est.base_cardinality(i);
                Component {
                    set: RelSet::single(i),
                    plan: arena.add_scan(i, card),
                    stats: PlanStats::base(card),
                }
            })
            .collect();
        ctl.charge(arena.bytes())?;
        let mut charged = arena.bytes();
        spans.end("init");

        spans.begin("enumerate");
        while comps.len() > 1 {
            // Pick the connected pair with the smallest join result.
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..comps.len() {
                for j in i + 1..comps.len() {
                    counters.inner += 1;
                    ctl.checkpoint(&mut pace)?;
                    if !g.sets_connected(comps[i].set, comps[j].set) {
                        continue;
                    }
                    let out = ensure_finite(
                        "cardinality",
                        est.set_cardinality(comps[i].set | comps[j].set),
                    )?;
                    if best.is_none_or(|(_, _, b)| out < b) {
                        best = Some((i, j, out));
                    }
                }
            }
            let Some((i, j, out)) = best else {
                return Err(OptimizeError::Internal(
                    "no joinable component pair in a connected graph".into(),
                ));
            };
            let (cost, swapped) = pair_cost(model, &comps[i].stats, &comps[j].stats, out, true)?;
            let (left, right) = if swapped { (j, i) } else { (i, j) };
            if provenance {
                // Greedy makes exactly one (always accepted) decision
                // per merged component: the pair with the smallest
                // intermediate result, oriented by cheaper join cost.
                obs.on_event(Event::PlanCandidate {
                    set: (comps[i].set | comps[j].set).bits(),
                    left: comps[left].set.bits(),
                    right: comps[right].set.bits(),
                    cost,
                    accepted: true,
                });
            }
            let stats = PlanStats {
                cardinality: out,
                cost,
            };
            let plan = arena.add_join(comps[left].plan, comps[right].plan, stats);
            if arena.bytes() > charged {
                ctl.charge(arena.bytes() - charged)?;
                charged = arena.bytes();
            }
            let set = comps[i].set | comps[j].set;
            // Replace component i, remove j (swap_remove keeps O(1)).
            comps[i] = Component { set, plan, stats };
            comps.swap_remove(j);
        }
        spans.end("enumerate");

        let top = &comps[0];
        spans.begin("extract");
        let tree = arena.extract(top.plan);
        spans.end("extract");
        spans.arena_stats(&arena);
        spans.finish(&counters);
        Ok(DpResult {
            tree,
            cost: top.stats.cost,
            cardinality: top.stats.cardinality,
            counters,
            table_size: 0,
            plans_built: arena.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpCcp, JoinOrderer};
    use joinopt_cost::{workload, Cout};
    use joinopt_qgraph::GraphKind;

    #[test]
    fn goo_produces_complete_valid_trees() {
        for kind in GraphKind::ALL {
            let w = workload::family_workload(kind, 9, 5);
            let r = Goo.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(r.tree.relations(), w.graph.all_relations());
            assert_eq!(r.tree.num_joins(), 8);
            assert!(r.cost.is_finite() && r.cost > 0.0);
        }
    }

    #[test]
    fn goo_is_never_better_than_optimal() {
        for seed in 0..20 {
            let w = workload::random_workload(9, 0.3, seed);
            let greedy = Goo.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let opt = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert!(
                greedy.cost >= opt.cost - 1e-9 * opt.cost.abs().max(1.0),
                "seed {seed}: greedy {} < optimal {}?!",
                greedy.cost,
                opt.cost
            );
        }
    }

    #[test]
    fn goo_is_sometimes_strictly_worse() {
        let mut suboptimal_seen = false;
        for seed in 0..30 {
            let w = workload::random_workload(9, 0.4, seed);
            let greedy = Goo.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let opt = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            suboptimal_seen |= greedy.cost > opt.cost * 1.001;
        }
        assert!(
            suboptimal_seen,
            "GOO matched the optimum on all 30 seeds — suspicious"
        );
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = QueryGraph::new(0).unwrap();
        assert!(Goo.optimize(&g, &Catalog::new(&g), &Cout).is_err());
        let disc = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(Goo.optimize(&disc, &Catalog::new(&disc), &Cout).is_err());
    }

    #[test]
    fn single_relation() {
        let w = workload::family_workload(GraphKind::Chain, 1, 0);
        let r = Goo.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(r.tree.num_joins(), 0);
        assert_eq!(r.cost, 0.0);
    }
}
