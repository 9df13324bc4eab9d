//! Shared plumbing for the DP algorithms: singleton initialization, the
//! `CreateJoinTree` + `BestPlan` update step, result extraction, and the
//! telemetry instrumentation every driver-based enumerator shares.

use joinopt_cost::{ensure_finite, CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::{PlanArena, PlanId};
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;
use joinopt_telemetry::{Event, Observer};

use crate::cancel::CancellationToken;
use crate::counters::Counters;
use crate::dpsub::Session;
use crate::error::OptimizeError;
use crate::failpoint;
use crate::result::{DpResult, JoinOrderer};
use crate::table::{arena_charge, DenseDpTable, DenseRun, DpTable, PlanTable, TableEntry};

/// Lightweight span emitter for the algorithms that do not run on the
/// [`Driver`] (heuristics, top-down search, DPhyp): produces the same
/// `run_start` → `init`/`enumerate`/`extract` → statistics → `run_end`
/// skeleton at span granularity. All methods are no-ops when the
/// observer is disabled.
pub(crate) struct Spans<'a> {
    obs: &'a dyn Observer,
    on: bool,
}

impl<'a> Spans<'a> {
    /// Emits `run_start` (when observing) and returns the emitter.
    ///
    /// Call before validation so failed runs still leave a `run_start`
    /// in the trace (with no matching `run_end`).
    pub fn start(obs: &'a dyn Observer, algorithm: &'static str, relations: usize) -> Spans<'a> {
        let on = obs.enabled();
        if on {
            obs.on_event(Event::RunStart {
                algorithm,
                relations,
            });
        }
        Spans { obs, on }
    }

    /// Opens the named phase span.
    pub fn begin(&self, phase: &'static str) {
        if self.on {
            self.obs.on_event(Event::PhaseStart { phase });
        }
    }

    /// Closes the named phase span.
    pub fn end(&self, phase: &'static str) {
        if self.on {
            self.obs.on_event(Event::PhaseEnd { phase });
        }
    }

    /// Emits `table_stats` for algorithms with memo/DP storage.
    pub fn table_stats(&self, entries: usize, capacity: usize, probes: u64, hits: u64) {
        if self.on {
            self.obs.on_event(Event::TableStats {
                entries,
                capacity,
                probes,
                hits,
            });
        }
    }

    /// Emits `arena_stats` for the given arena.
    pub fn arena_stats(&self, arena: &PlanArena) {
        if self.on {
            self.obs.on_event(Event::ArenaStats {
                nodes: arena.len(),
                bytes: arena.bytes(),
            });
        }
    }

    /// Emits `final_counters` and `run_end`.
    pub fn finish(&self, counters: &Counters) {
        if self.on {
            self.obs.on_event(Event::FinalCounters {
                inner: counters.inner,
                csg_cmp_pairs: counters.csg_cmp_pairs,
                ono_lohman: counters.ono_lohman,
            });
            self.obs.on_event(Event::RunEnd);
        }
    }
}

/// A bottom-up enumerator that runs on the [`Driver`]: DPsize, its
/// naive and left-deep variants, and DPccp.
pub(crate) trait Enumerator: JoinOrderer {
    /// Feeds every pair the algorithm considers to `d` and keeps the
    /// paper's counters.
    fn enumerate<T: PlanTable>(&self, d: &mut Driver<'_, T>) -> Result<(), OptimizeError>;
}

/// Runs `engine` on the pooled buffers of `session`: the dense table up
/// to [`DenseDpTable::MAX_DRIVER_RELATIONS`] relations, a fresh hash
/// [`DpTable`] above, and the pooled arena either way. The run is
/// charged only for the table it uses and the nodes it stores.
pub(crate) fn run_pooled<E: Enumerator>(
    engine: &E,
    g: &QueryGraph,
    catalog: &Catalog,
    model: &dyn CostModel,
    obs: &dyn Observer,
    ctl: &CancellationToken,
    session: &mut Session,
) -> Result<DpResult, OptimizeError> {
    let observe = obs.enabled();
    let n = g.num_relations();
    if observe {
        // Emitted before validation so failed runs still leave a
        // `run_start` in the trace (with no matching `run_end`).
        obs.on_event(Event::RunStart {
            algorithm: engine.name(),
            relations: n,
        });
        obs.on_event(Event::PhaseStart { phase: "init" });
    }
    if n == 0 {
        return Err(OptimizeError::EmptyQuery);
    }
    g.require_connected()?;
    ctl.check()?;
    failpoint::check("estimator")?;
    let est = CardinalityEstimator::new(g, catalog)?;
    if n <= DenseDpTable::MAX_DRIVER_RELATIONS {
        let (table, arena) = session.dense_run(n);
        let table = DenseRun::new(table, n);
        Driver::new(g, est, model, obs, ctl, arena, table)?.run(engine)
    } else {
        let table = DpTable::with_capacity(4 * n);
        Driver::new(g, est, model, obs, ctl, session.arena_run(), table)?.run(engine)
    }
}

/// Mutable state threaded through one optimizer run over a `BestPlan`
/// table `T` ([`PlanTable`]).
///
/// The driver owns all telemetry emission for the span skeleton
/// (`init` → `enumerate` → `extract`) and the end-of-run statistics
/// events. All instrumentation is guarded by `observe`, cached once from
/// [`Observer::enabled`]: with the no-op observer the whole machinery
/// reduces to one predictable branch per probe and allocates nothing
/// (`level_new` stays an empty `Vec`).
pub(crate) struct Driver<'a, T> {
    pub g: &'a QueryGraph,
    est: CardinalityEstimator,
    model: &'a dyn CostModel,
    arena: &'a mut PlanArena,
    table: T,
    pub counters: Counters,
    obs: &'a dyn Observer,
    observe: bool,
    /// Whether per-candidate provenance events are wanted, cached once
    /// from [`Observer::wants_provenance`] like `observe`.
    provenance: bool,
    /// Stop conditions polled by every emit call.
    ctl: &'a CancellationToken,
    /// Pacing state for [`CancellationToken::checkpoint`].
    pace: u32,
    /// Table + arena bytes already charged against the memory budget.
    charged: usize,
    /// `BestPlan` lookups of union sets performed.
    probes: u64,
    /// Probes that found an existing entry.
    hits: u64,
    /// New table entries per relation-set size (index = popcount).
    /// Empty when not observing.
    level_new: Vec<u64>,
}

impl<'a, T: PlanTable> Driver<'a, T> {
    /// Initializes `BestPlan({R_i}) = R_i` for all relations of the
    /// validated graph `g`, on an empty `table` and `arena`.
    fn new(
        g: &'a QueryGraph,
        est: CardinalityEstimator,
        model: &'a dyn CostModel,
        obs: &'a dyn Observer,
        ctl: &'a CancellationToken,
        arena: &'a mut PlanArena,
        mut table: T,
    ) -> Result<Driver<'a, T>, OptimizeError> {
        let observe = obs.enabled();
        let n = g.num_relations();
        for i in 0..n {
            let card = est.base_cardinality(i);
            let id = arena.add_scan(i, card);
            table.insert(
                RelSet::single(i),
                TableEntry {
                    plan: id,
                    stats: PlanStats {
                        cardinality: card,
                        cost: 0.0,
                    },
                },
            );
        }
        let mut level_new = Vec::new();
        if observe {
            level_new = vec![0u64; n + 1];
            level_new[1] = n as u64;
            obs.on_event(Event::PhaseEnd { phase: "init" });
            obs.on_event(Event::PhaseStart { phase: "enumerate" });
        }
        let charged = table.bytes() + arena_charge(arena.len());
        ctl.charge(charged)?;
        Ok(Driver {
            g,
            est,
            model,
            arena,
            table,
            counters: Counters::new(),
            obs,
            observe,
            provenance: observe && obs.wants_provenance(),
            ctl,
            pace: 0,
            charged,
            probes: 0,
            hits: 0,
            level_new,
        })
    }

    /// Runs `engine`'s enumeration and extracts the result.
    fn run<E: Enumerator>(mut self, engine: &E) -> Result<DpResult, OptimizeError> {
        engine.enumerate(&mut self)?;
        self.finish()
    }

    /// Re-charges the memory budget with any growth of the DP table or
    /// the arena's stored nodes since the last call.
    #[inline]
    fn charge_memory(&mut self) -> Result<(), OptimizeError> {
        let now = self.table.bytes() + arena_charge(self.arena.len());
        if now > self.charged {
            self.ctl.charge(now - self.charged)?;
            self.charged = now;
        }
        Ok(())
    }

    /// `CreateJoinTree` with the arena-allocation failpoint applied.
    #[inline]
    fn add_join(
        &mut self,
        left: PlanId,
        right: PlanId,
        stats: PlanStats,
    ) -> Result<PlanId, OptimizeError> {
        failpoint::check("arena-alloc")?;
        Ok(self.arena.add_join(left, right, stats))
    }

    /// Records a probe of the union set and, when the probe missed (a
    /// set reached for the first time), its size-histogram entry.
    #[inline]
    fn note_union_probe(&mut self, union: RelSet, hit: bool) {
        if self.observe {
            self.probes += 1;
            if hit {
                self.hits += 1;
            } else {
                self.level_new[union.len()] += 1;
            }
        }
    }

    /// Emits one provenance candidate when the observer opted in.
    #[inline]
    fn note_candidate(
        &self,
        union: RelSet,
        left: RelSet,
        right: RelSet,
        cost: f64,
        accepted: bool,
    ) {
        if self.provenance {
            self.obs.on_event(Event::PlanCandidate {
                set: union.bits(),
                left: left.bits(),
                right: right.bits(),
                cost,
                accepted,
            });
        }
    }

    /// Fetches the operand entry for `s`, failing with an internal
    /// error if the enumerator broke the "operands are built first"
    /// invariant instead of panicking into the caller.
    #[inline]
    fn operand(&self, s: RelSet) -> Result<TableEntry, OptimizeError> {
        match self.table.get(s) {
            Some(e) => Ok(e),
            None => Err(OptimizeError::Internal(format!(
                "BestPlan({s}) missing for an emitted pair"
            ))),
        }
    }

    /// `CreateJoinTree(p1, p2)` + `BestPlan` update for the oriented pair
    /// `(s1, s2)`: computes the candidate's cost and registers it if it
    /// improves the table. Returns `true` iff the union set was new.
    ///
    /// Both operands must already have table entries. Every call polls
    /// the cancellation token (paced) and charges table/arena growth
    /// against the memory budget.
    ///
    /// The union's output cardinality is a property of the *set*, not of
    /// the decomposition, so it is computed from the cut selectivities
    /// only the first time the set is reached; later pairs for the same
    /// set reuse the cached value (one table probe instead of an
    /// O(cut-size) product).
    #[inline]
    pub fn emit_pair_one_order(&mut self, s1: RelSet, s2: RelSet) -> Result<bool, OptimizeError> {
        let e1 = self.operand(s1)?;
        let e2 = self.operand(s2)?;
        self.ctl.checkpoint(&mut self.pace)?;
        let union = s1 | s2;
        match self.table.get(union) {
            Some(existing) => {
                self.note_union_probe(union, true);
                let out_card = existing.stats.cardinality;
                let cost =
                    ensure_finite("cost", self.model.join_cost(&e1.stats, &e2.stats, out_card))?;
                let accepted = cost < existing.stats.cost;
                self.note_candidate(union, s1, s2, cost, accepted);
                if accepted {
                    let stats = PlanStats {
                        cardinality: out_card,
                        cost,
                    };
                    let plan = self.add_join(e1.plan, e2.plan, stats)?;
                    failpoint::check("table-insert")?;
                    self.table.insert(union, TableEntry { plan, stats });
                    self.charge_memory()?;
                }
                Ok(false)
            }
            None => {
                self.note_union_probe(union, false);
                let out_card = ensure_finite(
                    "cardinality",
                    self.est
                        .join_cardinality(e1.stats.cardinality, e2.stats.cardinality, s1, s2),
                )?;
                let cost =
                    ensure_finite("cost", self.model.join_cost(&e1.stats, &e2.stats, out_card))?;
                self.note_candidate(union, s1, s2, cost, true);
                let stats = PlanStats {
                    cardinality: out_card,
                    cost,
                };
                let plan = self.add_join(e1.plan, e2.plan, stats)?;
                failpoint::check("table-insert")?;
                self.table.insert(union, TableEntry { plan, stats });
                self.charge_memory()?;
                Ok(true)
            }
        }
    }

    /// Like [`Driver::emit_pair_one_order`] but considers both operand
    /// orders (DPccp's explicit commutativity handling; also used by the
    /// optimized DPsize, which enumerates unordered pairs). For symmetric
    /// cost models the second evaluation is skipped.
    #[inline]
    pub fn emit_pair_both_orders(&mut self, s1: RelSet, s2: RelSet) -> Result<bool, OptimizeError> {
        self.ctl.checkpoint(&mut self.pace)?;
        let e1 = self.operand(s1)?;
        let e2 = self.operand(s2)?;
        let union = s1 | s2;
        let (out_card, incumbent) = match self.table.get(union) {
            Some(existing) => (existing.stats.cardinality, Some(existing.stats.cost)),
            None => (
                ensure_finite(
                    "cardinality",
                    self.est
                        .join_cardinality(e1.stats.cardinality, e2.stats.cardinality, s1, s2),
                )?,
                None,
            ),
        };
        self.note_union_probe(union, incumbent.is_some());
        let c12 = ensure_finite("cost", self.model.join_cost(&e1.stats, &e2.stats, out_card))?;
        let (cost, left, right, left_set, right_set) = if self.model.is_symmetric() {
            (c12, &e1, &e2, s1, s2)
        } else {
            let c21 = ensure_finite("cost", self.model.join_cost(&e2.stats, &e1.stats, out_card))?;
            if c21 < c12 {
                (c21, &e2, &e1, s2, s1)
            } else {
                (c12, &e1, &e2, s1, s2)
            }
        };
        let accepted = incumbent.is_none_or(|best| cost < best);
        self.note_candidate(union, left_set, right_set, cost, accepted);
        if accepted {
            let stats = PlanStats {
                cardinality: out_card,
                cost,
            };
            let (left, right) = (left.plan, right.plan);
            let plan = self.add_join(left, right, stats)?;
            failpoint::check("table-insert")?;
            self.table.insert(union, TableEntry { plan, stats });
            self.charge_memory()?;
        }
        Ok(incumbent.is_none())
    }

    /// Extracts the final result for the full relation set.
    ///
    /// When observing, closes the `enumerate` span, wraps extraction in
    /// the `extract` span, then emits the end-of-run statistics events
    /// (`dp_level` per non-empty size, `table_stats`, `arena_stats`,
    /// `final_counters`) and `run_end` — so the caller must finalize its
    /// counter conventions *before* calling this.
    fn finish(self) -> Result<DpResult, OptimizeError> {
        if self.observe {
            self.obs.on_event(Event::PhaseEnd { phase: "enumerate" });
            self.obs.on_event(Event::PhaseStart { phase: "extract" });
        }
        let full = self.g.all_relations();
        let Some(entry) = self.table.get(full) else {
            return Err(OptimizeError::Internal(
                "enumeration finished without a plan for the full relation set".into(),
            ));
        };
        let tree = self.arena.extract(entry.plan);
        if self.observe {
            self.obs.on_event(Event::PhaseEnd { phase: "extract" });
            for (size, &new_entries) in self.level_new.iter().enumerate() {
                if new_entries > 0 {
                    self.obs.on_event(Event::DpLevel { size, new_entries });
                }
            }
            self.obs.on_event(Event::TableStats {
                entries: self.table.len(),
                capacity: self.table.capacity(),
                probes: self.probes,
                hits: self.hits,
            });
            self.obs.on_event(Event::ArenaStats {
                nodes: self.arena.len(),
                bytes: self.arena.bytes(),
            });
            self.obs.on_event(Event::FinalCounters {
                inner: self.counters.inner,
                csg_cmp_pairs: self.counters.csg_cmp_pairs,
                ono_lohman: self.counters.ono_lohman,
            });
            self.obs.on_event(Event::RunEnd);
        }
        Ok(DpResult {
            cost: entry.stats.cost,
            cardinality: entry.stats.cardinality,
            tree,
            counters: self.counters,
            table_size: self.table.len(),
            plans_built: self.arena.len(),
        })
    }
}
