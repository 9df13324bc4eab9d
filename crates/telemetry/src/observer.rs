//! The [`Observer`] trait and the event vocabulary optimizers emit.

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// A small, portable thread identifier: dense `u64`s handed out in
/// first-use order (the std `ThreadId` has no stable integer form).
/// Used to attribute telemetry emitted from parallel-engine workers and
/// batch threads — ids are process-unique but *assignment* depends on
/// scheduling, so treat them as labels, not stable keys.
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// One telemetry event emitted by an optimizer run.
///
/// Events are plain `Copy` data with `&'static str` labels: constructing
/// one never allocates, so the *only* cost of an instrumentation point is
/// the branch on [`Observer::enabled`] guarding it. Timing is the
/// observer's job — collectors stamp events against their own monotonic
/// clock on receipt — which keeps `Instant::now()` calls off the
/// optimizer's hot path entirely.
///
/// The expected sequence for a DP run is:
///
/// ```text
/// RunStart
///   PhaseStart("init")    … singleton plans …    PhaseEnd("init")
///   PhaseStart("enumerate") … DP loops …         PhaseEnd("enumerate")
///   PhaseStart("extract") … tree extraction …    PhaseEnd("extract")
/// DpLevel*  TableStats  ArenaStats  FinalCounters
/// RunEnd
/// ```
///
/// Heuristics without a DP table emit the same span skeleton (with their
/// own phase names where appropriate) and whichever summary events apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// An optimizer run begins.
    RunStart {
        /// Algorithm name as reported by `JoinOrderer::name`.
        algorithm: &'static str,
        /// Number of relations in the query graph.
        relations: usize,
    },
    /// A named phase begins. Phases do not nest.
    PhaseStart {
        /// Phase name (`"init"`, `"enumerate"`, `"extract"`, …).
        phase: &'static str,
    },
    /// The matching phase ends.
    PhaseEnd {
        /// Phase name.
        phase: &'static str,
    },
    /// Plans materialized at one DP level: `new_entries` table entries
    /// whose relation sets have exactly `size` elements. Emitted once
    /// per non-empty level after enumeration, smallest size first,
    /// mirroring the paper's size-driven vs. subset-driven structure.
    DpLevel {
        /// Relation-set size (1 = singletons).
        size: usize,
        /// Number of distinct sets of that size entered into the table.
        new_entries: u64,
    },
    /// Final DP-table statistics.
    TableStats {
        /// Sets with a registered plan.
        entries: usize,
        /// Allocated capacity (slots for the dense table, bucket
        /// capacity for the sparse one) — `entries / capacity` is the
        /// occupancy.
        capacity: usize,
        /// `BestPlan` lookups performed by the enumerator.
        probes: u64,
        /// Probes that found an existing entry.
        hits: u64,
    },
    /// Final plan-arena accounting.
    ArenaStats {
        /// Plan nodes materialized (scans + accepted joins).
        nodes: usize,
        /// Bytes of node storage backing them.
        bytes: usize,
    },
    /// The paper's instrumentation counters, reported at the end of the
    /// run so observers need not understand per-algorithm conventions.
    FinalCounters {
        /// Innermost-loop iterations (`InnerCounter`).
        inner: u64,
        /// Oriented csg-cmp-pairs (`CsgCmpPairCounter`).
        csg_cmp_pairs: u64,
        /// Unordered csg-cmp-pairs (`OnoLohmanCounter`).
        ono_lohman: u64,
    },
    /// A resource budget tripped mid-run. Whether the run then fails or
    /// falls back to a cheaper algorithm is the caller's policy; a
    /// `Degraded` event follows when a fallback produced a plan.
    BudgetExceeded {
        /// Which budget tripped: `"time"`, `"memory"`, `"cost"` or
        /// `"internal"` (an isolated internal failure).
        budget: &'static str,
    },
    /// A degradation-ladder rung produced the plan after a budget trip.
    Degraded {
        /// The rung that succeeded: `"idp"`, `"greedy"` or `"exact"`
        /// (the exact plan was kept despite a post-run cost trip).
        rung: &'static str,
    },
    /// One candidate split considered for a relation set during DP or
    /// memo enumeration — the plan-provenance vocabulary. Relation sets
    /// travel as raw bitmasks so the event stays `Copy` and
    /// allocation-free. Candidates are orders of magnitude more
    /// frequent than the summary events, so emitters additionally gate
    /// them on [`Observer::wants_provenance`]; a metrics-only run never
    /// sees them.
    PlanCandidate {
        /// Bitmask of the joined relation set (`left | right`).
        set: u64,
        /// Bitmask of the left (outer) operand's relation set.
        left: u64,
        /// Bitmask of the right (inner) operand's relation set.
        right: u64,
        /// Total plan cost of the candidate under the run's cost model.
        cost: f64,
        /// Whether the candidate beat the incumbent and was kept.
        accepted: bool,
    },
    /// A search branch was abandoned without evaluating its remaining
    /// splits (top-down branch-and-bound). Gated on
    /// [`Observer::wants_provenance`] like [`Event::PlanCandidate`].
    SearchPruned {
        /// Bitmask of the relation set whose remaining splits were cut.
        set: u64,
        /// Why: `"bound"` (lower bound reached the incumbent's cost).
        reason: &'static str,
    },
    /// A plan-cache lookup completed (service layer, outside any run).
    CacheLookup {
        /// Whether a cached plan was found and served.
        hit: bool,
    },
    /// A plan was stored in the plan cache.
    CacheStore {
        /// Size charged to the cache for this entry.
        entry_bytes: usize,
        /// Total bytes resident in the cache after the store.
        total_bytes: usize,
    },
    /// A plan was evicted from the plan cache to honor its byte budget.
    CacheEvict {
        /// Size the evicted entry had been charged.
        entry_bytes: usize,
        /// Total bytes resident in the cache after the eviction.
        total_bytes: usize,
    },
    /// The server gateway admitted a request past shedding and breaker
    /// checks (service layer, outside any run).
    ServeAccepted {
        /// Request priority (`"low"`, `"normal"`, `"high"`).
        priority: &'static str,
    },
    /// The server gateway shed a request at a load watermark before any
    /// optimizer work happened; the client received a typed rejection
    /// with a `Retry-After` hint.
    ServeShed {
        /// Priority of the shed request.
        priority: &'static str,
    },
    /// The server gateway is retrying a transiently failed request
    /// after a jittered backoff sleep.
    ServeRetried {
        /// 1-based retry attempt (1 = first retry after the initial
        /// attempt failed).
        attempt: u32,
    },
    /// A per-tenant circuit breaker transitioned to open: subsequent
    /// requests from that tenant fail fast until the cooldown elapses
    /// and a half-open probe succeeds.
    ServeBreakerOpen,
    /// A graceful drain completed: the server stopped accepting work,
    /// every in-flight request ran to completion, and final metrics
    /// were flushed.
    ServeDrained {
        /// Requests that were in flight when the drain began and ran to
        /// completion during it.
        in_flight: usize,
    },
    /// The run is complete (successfully or not — emitted on the success
    /// path only, so its absence in a trace indicates an error).
    RunEnd,
}

impl Event {
    /// The event's wire name, as used in JSONL traces.
    pub fn name(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::PhaseStart { .. } => "phase_start",
            Event::PhaseEnd { .. } => "phase_end",
            Event::DpLevel { .. } => "dp_level",
            Event::TableStats { .. } => "table_stats",
            Event::ArenaStats { .. } => "arena_stats",
            Event::FinalCounters { .. } => "final_counters",
            Event::BudgetExceeded { .. } => "budget_exceeded",
            Event::Degraded { .. } => "degraded",
            Event::PlanCandidate { .. } => "plan_candidate",
            Event::SearchPruned { .. } => "search_pruned",
            Event::CacheLookup { .. } => "cache_lookup",
            Event::CacheStore { .. } => "cache_store",
            Event::CacheEvict { .. } => "cache_evict",
            Event::ServeAccepted { .. } => "serve_accepted",
            Event::ServeShed { .. } => "serve_shed",
            Event::ServeRetried { .. } => "serve_retried",
            Event::ServeBreakerOpen => "serve_breaker_open",
            Event::ServeDrained { .. } => "serve_drained",
            Event::RunEnd => "run_end",
        }
    }

    /// The phase this event belongs to: the named phase for span events,
    /// `"enumerate"` for the provenance events (they are emitted between
    /// that phase's start and end), `"cache"` for the
    /// plan-cache events (emitted by the service layer outside any
    /// optimizer run), `"serve"` for the server-gateway lifecycle
    /// events, `"run"` for everything else.
    pub fn phase(&self) -> &'static str {
        match self {
            Event::PhaseStart { phase } | Event::PhaseEnd { phase } => phase,
            Event::PlanCandidate { .. } | Event::SearchPruned { .. } => "enumerate",
            Event::CacheLookup { .. } | Event::CacheStore { .. } | Event::CacheEvict { .. } => {
                "cache"
            }
            Event::ServeAccepted { .. }
            | Event::ServeShed { .. }
            | Event::ServeRetried { .. }
            | Event::ServeBreakerOpen
            | Event::ServeDrained { .. } => "serve",
            _ => "run",
        }
    }
}

/// A sink for optimizer telemetry.
///
/// Implementations receive events through a shared reference (optimizers
/// hold `&dyn Observer`), so stateful observers use interior mutability.
/// Optimizers guard every instrumentation point on [`Observer::enabled`];
/// when it returns `false` — the [`NoopObserver`] default — the entire
/// observer path reduces to one well-predicted branch per run and no
/// events are constructed, no clocks read, and nothing allocated.
pub trait Observer {
    /// Whether this observer wants events at all. Optimizers read this
    /// once per run and skip all bookkeeping when it is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Whether this observer also wants the per-candidate provenance
    /// events ([`Event::PlanCandidate`], [`Event::SearchPruned`]).
    /// These fire once per considered split — orders of magnitude more
    /// often than the summary events — so emitters read this once per
    /// run (alongside [`Observer::enabled`]) and skip candidate
    /// bookkeeping entirely when it is `false`, the default. Sinks that
    /// record full search-space provenance (e.g.
    /// [`crate::TraceWriter`], [`crate::ProvenanceCollector`]) override
    /// it to `true`.
    fn wants_provenance(&self) -> bool {
        false
    }

    /// Receives one event. Called in emission order from a single thread.
    fn on_event(&self, event: Event);
}

/// The default observer: discards everything and reports itself
/// disabled, so instrumented code skips its bookkeeping entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_event(&self, _event: Event) {}
}

/// Fans events out to any number of observers, in push order — e.g. a
/// [`crate::MetricsCollector`] and a [`crate::TraceWriter`] on the same
/// run, or the sink set a CLI assembles from its flags. Disabled sinks
/// receive nothing.
///
/// The sink type defaults to `dyn Observer`; a `Fanout<dyn Observer +
/// Sync>` is itself `Sync`, so it can be shared across the worker
/// threads of a batch.
pub struct Fanout<'a, O: ?Sized + Observer = dyn Observer> {
    sinks: Vec<&'a O>,
}

impl<'a, O: ?Sized + Observer> Fanout<'a, O> {
    /// An observer forwarding to every sink in `sinks`.
    pub fn new(sinks: Vec<&'a O>) -> Fanout<'a, O> {
        Fanout { sinks }
    }
}

impl<O: ?Sized + Observer> Observer for Fanout<'_, O> {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn wants_provenance(&self) -> bool {
        self.sinks
            .iter()
            .any(|s| s.enabled() && s.wants_provenance())
    }

    fn on_event(&self, event: Event) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.on_event(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct CountingObserver {
        seen: Cell<usize>,
    }

    impl Observer for CountingObserver {
        fn on_event(&self, _event: Event) {
            self.seen.set(self.seen.get() + 1);
        }
    }

    #[test]
    fn noop_is_disabled() {
        let obs = NoopObserver;
        assert!(!obs.enabled());
        obs.on_event(Event::RunEnd); // must not panic
    }

    #[test]
    fn custom_observers_default_to_enabled() {
        let obs = CountingObserver { seen: Cell::new(0) };
        assert!(obs.enabled());
    }

    #[test]
    fn event_names_and_phases() {
        assert_eq!(
            Event::RunStart {
                algorithm: "DPccp",
                relations: 3
            }
            .name(),
            "run_start"
        );
        assert_eq!(
            Event::PhaseStart { phase: "enumerate" }.phase(),
            "enumerate"
        );
        assert_eq!(Event::PhaseEnd { phase: "extract" }.phase(), "extract");
        assert_eq!(
            Event::DpLevel {
                size: 2,
                new_entries: 4
            }
            .phase(),
            "run"
        );
        assert_eq!(
            Event::TableStats {
                entries: 1,
                capacity: 2,
                probes: 3,
                hits: 4
            }
            .name(),
            "table_stats"
        );
        assert_eq!(
            Event::ArenaStats {
                nodes: 1,
                bytes: 64
            }
            .name(),
            "arena_stats"
        );
        assert_eq!(
            Event::FinalCounters {
                inner: 1,
                csg_cmp_pairs: 2,
                ono_lohman: 1
            }
            .name(),
            "final_counters"
        );
        assert_eq!(
            Event::BudgetExceeded { budget: "time" }.name(),
            "budget_exceeded"
        );
        assert_eq!(Event::BudgetExceeded { budget: "memory" }.phase(), "run");
        assert_eq!(Event::Degraded { rung: "greedy" }.name(), "degraded");
        let cand = Event::PlanCandidate {
            set: 0b111,
            left: 0b011,
            right: 0b100,
            cost: 42.0,
            accepted: true,
        };
        assert_eq!(cand.name(), "plan_candidate");
        assert_eq!(cand.phase(), "enumerate");
        let pruned = Event::SearchPruned {
            set: 0b111,
            reason: "bound",
        };
        assert_eq!(pruned.name(), "search_pruned");
        assert_eq!(pruned.phase(), "enumerate");
        let lookup = Event::CacheLookup { hit: true };
        assert_eq!(lookup.name(), "cache_lookup");
        assert_eq!(lookup.phase(), "cache");
        let store = Event::CacheStore {
            entry_bytes: 128,
            total_bytes: 256,
        };
        assert_eq!(store.name(), "cache_store");
        assert_eq!(store.phase(), "cache");
        let evict = Event::CacheEvict {
            entry_bytes: 128,
            total_bytes: 128,
        };
        assert_eq!(evict.name(), "cache_evict");
        assert_eq!(evict.phase(), "cache");
        let accepted = Event::ServeAccepted { priority: "normal" };
        assert_eq!(accepted.name(), "serve_accepted");
        assert_eq!(accepted.phase(), "serve");
        let shed = Event::ServeShed { priority: "low" };
        assert_eq!(shed.name(), "serve_shed");
        assert_eq!(shed.phase(), "serve");
        let retried = Event::ServeRetried { attempt: 1 };
        assert_eq!(retried.name(), "serve_retried");
        assert_eq!(retried.phase(), "serve");
        assert_eq!(Event::ServeBreakerOpen.name(), "serve_breaker_open");
        assert_eq!(Event::ServeBreakerOpen.phase(), "serve");
        let drained = Event::ServeDrained { in_flight: 2 };
        assert_eq!(drained.name(), "serve_drained");
        assert_eq!(drained.phase(), "serve");
        assert_eq!(Event::RunEnd.name(), "run_end");
    }

    struct ProvenanceWanting;

    impl Observer for ProvenanceWanting {
        fn wants_provenance(&self) -> bool {
            true
        }

        fn on_event(&self, _event: Event) {}
    }

    struct DisabledButWanting;

    impl Observer for DisabledButWanting {
        fn enabled(&self) -> bool {
            false
        }

        fn wants_provenance(&self) -> bool {
            true
        }

        fn on_event(&self, _event: Event) {}
    }

    #[test]
    fn provenance_is_opt_in_and_fanout_requires_an_enabled_sink() {
        let plain = CountingObserver { seen: Cell::new(0) };
        assert!(!plain.wants_provenance(), "default is off");
        assert!(!NoopObserver.wants_provenance());
        let cases: [(Vec<&dyn Observer>, bool); 6] = [
            (vec![&plain, &ProvenanceWanting], true),
            (vec![&NoopObserver, &ProvenanceWanting], true),
            (vec![&plain, &NoopObserver], false),
            // A disabled sink never receives events, so its provenance
            // wish must not switch the emitters on.
            (vec![&plain, &DisabledButWanting], false),
            (vec![&DisabledButWanting], false),
            (Vec::new(), false),
        ];
        for (i, (sinks, want)) in cases.into_iter().enumerate() {
            assert_eq!(Fanout::new(sinks).wants_provenance(), want, "case {i}");
        }
    }

    #[test]
    fn fanout_forwards_to_all_enabled_sinks() {
        let a = CountingObserver { seen: Cell::new(0) };
        let b = CountingObserver { seen: Cell::new(0) };
        // (sinks, whether the fanout is enabled)
        let cases: [(Vec<&dyn Observer>, bool); 5] = [
            (vec![&a, &b], true),
            (vec![&a, &NoopObserver, &b], true),
            (vec![&a, &NoopObserver], true),
            (vec![&NoopObserver, &NoopObserver], false),
            (Vec::new(), false),
        ];
        for (i, (sinks, enabled)) in cases.into_iter().enumerate() {
            let counting = sinks.iter().filter(|s| s.enabled()).count();
            let before = a.seen.get() + b.seen.get();
            let fan = Fanout::new(sinks);
            assert_eq!(fan.enabled(), enabled, "case {i}");
            fan.on_event(Event::RunEnd);
            fan.on_event(Event::PhaseStart { phase: "init" });
            assert_eq!(
                a.seen.get() + b.seen.get() - before,
                2 * counting,
                "case {i}"
            );
        }
        assert_eq!((a.seen.get(), b.seen.get()), (6, 4));
    }

    #[test]
    fn thread_ids_are_nonzero_stable_and_distinct_across_threads() {
        let here = current_thread_id();
        assert!(here > 0);
        assert_eq!(here, current_thread_id(), "stable within a thread");
        let there = std::thread::spawn(current_thread_id).join().unwrap();
        assert_ne!(here, there);
    }
}
