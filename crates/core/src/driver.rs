//! Shared plumbing for the DP algorithms: singleton initialization, the
//! `CreateJoinTree` + `BestPlan` update step, result extraction, and the
//! telemetry instrumentation every driver-based enumerator shares.

use std::time::Instant;

use joinopt_cost::{CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::{PlanArena, PlanId};
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;
use joinopt_telemetry::{Event, Observer};

use crate::cancel::CancellationToken;
use crate::counters::Counters;
use crate::dpsub::Session;
use crate::error::OptimizeError;
use crate::failpoint;
use crate::kernel::{cardinality, cout_cost, finite_cost, pair_cost};
use crate::result::{DpResult, JoinOrderer};
use crate::table::{arena_charge, DenseDpTable, DenseRun, DpTable, PlanTable, TableEntry};

/// The largest relation-set size a run can reach: sets are `u64`
/// bitmasks.
const MAX_LEVEL: usize = 64;

/// The `table_stats` payload of a run with memo or DP storage.
pub(crate) struct TableStats {
    /// Sets with a registered plan.
    pub entries: usize,
    /// Allocated capacity.
    pub capacity: usize,
    /// `BestPlan` lookups performed.
    pub probes: u64,
    /// Probes that found an existing entry.
    pub hits: u64,
}

/// The one emitter of run-scoped events. Every engine builds its
/// `run_start` → `init`/`enumerate`/`extract` → statistics → `run_end`
/// skeleton, its provenance events and its per-level tally through it.
///
/// It stamps each run's context once: every event carries the run's
/// algorithm, `phase_end` its span and `run_end` the run's total, in
/// nanoseconds since run start. The clock is read only when observing,
/// and only at run start, phase boundaries and run end — two reads per
/// phase plus two, never inside a DP loop. All methods are no-ops when
/// the observer is disabled, and none allocates.
pub(crate) struct Spans<'a> {
    obs: &'a dyn Observer,
    algorithm: &'static str,
    /// When the run started; `None` when not observing.
    start: Option<Instant>,
    /// Whether per-candidate provenance events are wanted, read once
    /// from [`Observer::wants_provenance`].
    provenance: bool,
    /// Start of the open phase, in nanoseconds since run start.
    phase_start_ns: u64,
    /// New table entries per relation-set size (index = size).
    levels: [u64; MAX_LEVEL + 1],
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
        Spans {
            obs,
            algorithm,
            start: on.then(Instant::now),
            provenance: on && obs.wants_provenance(),
            phase_start_ns: 0,
            levels: [0; MAX_LEVEL + 1],
        }
    }

    /// Whether the observer is enabled.
    #[inline]
    pub fn on(&self) -> bool {
        self.start.is_some()
    }

    /// Whether per-candidate provenance events are wanted.
    #[inline]
    pub fn provenance(&self) -> bool {
        self.provenance
    }

    fn elapsed_ns(&self) -> u64 {
        self.start.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Opens the named phase span.
    pub fn begin(&mut self, phase: &'static str) {
        if self.on() {
            self.phase_start_ns = self.elapsed_ns();
            self.obs.on_event(Event::PhaseStart {
                algorithm: self.algorithm,
                phase,
            });
        }
    }

    /// Closes the named phase span, stamping it with its start and end.
    pub fn end(&self, phase: &'static str) {
        if self.on() {
            self.obs.on_event(Event::PhaseEnd {
                algorithm: self.algorithm,
                phase,
                start_ns: self.phase_start_ns,
                end_ns: self.elapsed_ns(),
            });
        }
    }

    /// Tallies `new_entries` table entries of relation-set size `size`,
    /// reported as `dp_level` events by [`Spans::finish`].
    #[inline]
    pub fn level(&mut self, size: usize, new_entries: u64) {
        if self.on() {
            self.levels[size] += new_entries;
        }
    }

    /// Emits one provenance candidate when the observer opted in.
    #[inline]
    pub fn candidate(&self, set: u64, left: u64, right: u64, cost: f64, accepted: bool) {
        if self.provenance {
            self.obs.on_event(Event::PlanCandidate {
                algorithm: self.algorithm,
                set,
                left,
                right,
                cost,
                accepted,
            });
        }
    }

    /// Emits `search_pruned` when the observer opted in.
    pub fn pruned(&self, set: u64, reason: &'static str) {
        if self.provenance {
            self.obs.on_event(Event::SearchPruned {
                algorithm: self.algorithm,
                set,
                reason,
            });
        }
    }

    /// Emits the end-of-run statistics — `dp_level` per non-empty
    /// tallied size, `table_stats` (for engines with a table),
    /// `arena_stats`, `final_counters` — and `run_end`, so callers
    /// finalize their counter conventions first.
    pub fn finish(&self, table: Option<TableStats>, arena: &PlanArena, counters: &Counters) {
        if !self.on() {
            return;
        }
        let algorithm = self.algorithm;
        for (size, &new_entries) in self.levels.iter().enumerate() {
            if new_entries > 0 {
                self.obs.on_event(Event::DpLevel {
                    algorithm,
                    size,
                    new_entries,
                });
            }
        }
        if let Some(t) = table {
            self.obs.on_event(Event::TableStats {
                algorithm,
                entries: t.entries,
                capacity: t.capacity,
                probes: t.probes,
                hits: t.hits,
            });
        }
        self.obs.on_event(Event::ArenaStats {
            algorithm,
            nodes: arena.len(),
            bytes: arena.bytes(),
        });
        self.obs.on_event(Event::FinalCounters {
            algorithm,
            inner: counters.inner,
            csg_cmp_pairs: counters.csg_cmp_pairs,
            ono_lohman: counters.ono_lohman,
        });
        self.obs.on_event(Event::RunEnd {
            algorithm,
            total_ns: self.elapsed_ns(),
        });
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
    let n = g.num_relations();
    let mut spans = Spans::start(obs, engine.name(), n);
    spans.begin("init");
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
        Driver::new(g, est, model, spans, ctl, arena, table)?.run(engine)
    } else {
        let table = DpTable::with_capacity(4 * n);
        Driver::new(g, est, model, spans, ctl, session.arena_run(), table)?.run(engine)
    }
}

/// Mutable state threaded through one optimizer run over a `BestPlan`
/// table `T` ([`PlanTable`]).
///
/// The driver emits the span skeleton (`init` → `enumerate` →
/// `extract`) and the end-of-run statistics through its [`Spans`]. All
/// instrumentation is guarded by [`Spans::on`], read once from
/// [`Observer::enabled`]: with the no-op observer the whole machinery
/// reduces to one predictable branch per probe, and observed or not it
/// allocates nothing.
pub(crate) struct Driver<'a, T> {
    pub g: &'a QueryGraph,
    est: CardinalityEstimator,
    model: &'a dyn CostModel,
    arena: &'a mut PlanArena,
    table: T,
    pub counters: Counters,
    spans: Spans<'a>,
    /// Stop conditions polled by every emit call.
    ctl: &'a CancellationToken,
    /// `model` is symmetric and `C_out`-shaped, so a pair is priced
    /// inline.
    cout: bool,
    /// Pacing state for [`CancellationToken::poll`].
    pace: u32,
    /// Table + arena bytes already charged against the memory budget.
    charged: usize,
    /// `BestPlan` lookups of union sets performed.
    probes: u64,
    /// Probes that found an existing entry.
    hits: u64,
}

impl<'a, T: PlanTable> Driver<'a, T> {
    /// Initializes `BestPlan({R_i}) = R_i` for all relations of the
    /// validated graph `g`, on an empty `table` and `arena`.
    fn new(
        g: &'a QueryGraph,
        est: CardinalityEstimator,
        model: &'a dyn CostModel,
        mut spans: Spans<'a>,
        ctl: &'a CancellationToken,
        arena: &'a mut PlanArena,
        mut table: T,
    ) -> Result<Driver<'a, T>, OptimizeError> {
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
        spans.level(1, n as u64);
        spans.end("init");
        spans.begin("enumerate");
        let charged = table.bytes() + arena_charge(arena.len());
        ctl.charge(charged)?;
        Ok(Driver {
            g,
            est,
            model,
            arena,
            table,
            counters: Counters::new(),
            spans,
            ctl,
            cout: model.is_symmetric() && model.is_cout_shaped(),
            pace: 0,
            charged,
            probes: 0,
            hits: 0,
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
        if self.spans.on() {
            self.probes += 1;
            if hit {
                self.hits += 1;
            } else {
                self.spans.level(union.len(), 1);
            }
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

    /// `CreateJoinTree(p1, p2)` + `BestPlan` update for the pair
    /// `(s1, s2)`: prices the candidate with [`pair_cost`] and registers
    /// it if it improves the table. Returns `true` iff the union set was
    /// new.
    ///
    /// With `commute` both operand orders are considered (DPccp's
    /// explicit commutativity handling; also the optimized DPsize, which
    /// enumerates unordered pairs); without it only `s1 ⋈ s2` is (the
    /// enumerators that visit every ordered pair, or only left-deep
    /// ones).
    ///
    /// Both operands must already have table entries. Every call polls
    /// the cancellation token with one split of work and charges
    /// table/arena growth against the memory budget. The union's
    /// cardinality is the estimator's set-only fold, computed the first
    /// time the set is reached and cached in its table slot. A
    /// symmetric `C_out`-shaped model is priced inline ([`cout_cost`]),
    /// not through the trait object: the same sum, so the same bits,
    /// and never swapped.
    #[inline]
    pub fn emit_pair(
        &mut self,
        s1: RelSet,
        s2: RelSet,
        commute: bool,
    ) -> Result<bool, OptimizeError> {
        self.ctl.poll(&mut self.pace, 1)?;
        let e1 = self.operand(s1)?;
        let e2 = self.operand(s2)?;
        let union = s1 | s2;
        let incumbent = self.table.get(union).map(|e| e.stats);
        self.note_union_probe(union, incumbent.is_some());
        let out_card = match incumbent {
            Some(existing) => existing.cardinality,
            None => {
                let below = union.without(union.max_index().unwrap_or(0));
                let below = self.table.get(below).map(|e| e.stats.cardinality);
                cardinality(&self.est, union, below)?
            }
        };
        let (cost, swapped) = if self.cout {
            let cost = cout_cost(e1.stats.cost, e2.stats.cost, out_card);
            (finite_cost(cost)?, false)
        } else {
            pair_cost(self.model, &e1.stats, &e2.stats, out_card, commute)?
        };
        let ((left, left_set), (right, right_set)) = if swapped {
            ((e2, s2), (e1, s1))
        } else {
            ((e1, s1), (e2, s2))
        };
        let accepted = incumbent.is_none_or(|best| cost < best.cost);
        self.spans.candidate(
            union.bits(),
            left_set.bits(),
            right_set.bits(),
            cost,
            accepted,
        );
        if accepted {
            let stats = PlanStats {
                cardinality: out_card,
                cost,
            };
            let plan = self.add_join(left.plan, right.plan, stats)?;
            failpoint::check("table-insert")?;
            self.table.insert(union, TableEntry { plan, stats });
            self.charge_memory()?;
        }
        Ok(incumbent.is_none())
    }

    /// Extracts the final result for the full relation set.
    ///
    /// When observing, closes the `enumerate` span, wraps extraction in
    /// the `extract` span, then emits the end-of-run statistics through
    /// [`Spans::finish`] — so the caller must finalize its counter
    /// conventions *before* calling this.
    fn finish(mut self) -> Result<DpResult, OptimizeError> {
        self.spans.end("enumerate");
        self.spans.begin("extract");
        let full = self.g.all_relations();
        let Some(entry) = self.table.get(full) else {
            return Err(OptimizeError::Internal(
                "enumeration finished without a plan for the full relation set".into(),
            ));
        };
        let tree = self.arena.extract(entry.plan);
        self.spans.end("extract");
        let table = TableStats {
            entries: self.table.len(),
            capacity: self.table.capacity(),
            probes: self.probes,
            hits: self.hits,
        };
        self.spans.finish(Some(table), self.arena, &self.counters);
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
