//! [`ProvenanceCollector`] — folds the per-candidate provenance event
//! stream into per-subset [`DecisionRecord`]s.
//!
//! DP join ordering makes one decision per connected relation set: which
//! split (and hence which join tree) to keep. The collector reconstructs
//! exactly that decision table from [`Event::PlanCandidate`] /
//! [`Event::SearchPruned`] events — winning split, best runner-up,
//! candidate count and pruning reason per set — keyed by the set's
//! bitmask in a `BTreeMap`, so iteration (and every serialization built
//! on it) is deterministic.
//!
//! ```
//! use joinopt_telemetry::{Event, Observer, ProvenanceCollector};
//!
//! let prov = ProvenanceCollector::new();
//! assert!(prov.wants_provenance());
//! let algorithm = "DPccp";
//! prov.on_event(Event::PlanCandidate {
//!     algorithm, set: 0b011, left: 0b001, right: 0b010, cost: 10.0, accepted: true,
//! });
//! prov.on_event(Event::PlanCandidate {
//!     algorithm, set: 0b011, left: 0b010, right: 0b001, cost: 14.0, accepted: false,
//! });
//! let rec = prov.record(0b011).unwrap();
//! assert_eq!(rec.winner.unwrap().cost, 10.0);
//! assert_eq!(rec.cost_delta(), Some(4.0));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::observer::{Event, Observer};

/// One candidate split of a relation set: operand bitmasks plus the
/// candidate plan's total cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitChoice {
    /// Bitmask of the left (outer) operand's relation set.
    pub left: u64,
    /// Bitmask of the right (inner) operand's relation set.
    pub right: u64,
    /// Total plan cost of the candidate.
    pub cost: f64,
}

/// The provenance of one DP decision: everything recorded about how the
/// best plan for one relation set was chosen.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecisionRecord {
    /// The winning split (the last accepted candidate). `None` only
    /// when every candidate was rejected — which cannot happen for a
    /// set that made it into the DP table.
    pub winner: Option<SplitChoice>,
    /// The cheapest losing candidate — the split the winner beat.
    /// `None` when only one candidate was ever considered.
    pub runner_up: Option<SplitChoice>,
    /// Total candidates considered for this set.
    pub candidates: u64,
    /// Why enumeration for this set stopped early, if it did
    /// (`"bound"` for top-down branch-and-bound).
    pub pruned: Option<&'static str>,
}

impl DecisionRecord {
    /// How much worse the runner-up was than the winner (`runner_up.cost
    /// − winner.cost`, `>= 0`); `None` without both. A zero delta marks
    /// a tie decided purely by enumeration order — the interesting case
    /// for cross-algorithm divergence.
    pub fn cost_delta(&self) -> Option<f64> {
        Some(self.runner_up?.cost - self.winner?.cost)
    }

    fn observe(&mut self, left: u64, right: u64, cost: f64, accepted: bool) {
        self.candidates += 1;
        let candidate = SplitChoice { left, right, cost };
        if accepted {
            // The dethroned incumbent is now the best loser so far.
            let loser = self.winner.replace(candidate);
            if let Some(loser) = loser {
                if self.runner_up.is_none_or(|r| loser.cost < r.cost) {
                    self.runner_up = Some(loser);
                }
            }
        } else if self.runner_up.is_none_or(|r| cost < r.cost) {
            self.runner_up = Some(candidate);
        }
    }
}

/// An [`Observer`] that aggregates provenance events into per-set
/// [`DecisionRecord`]s.
///
/// It opts into candidate events ([`Observer::wants_provenance`] returns
/// `true`) and resets on `run_start`, so one collector can watch
/// consecutive runs. Like [`crate::MetricsCollector`] it is single-run
/// single-threaded (interior mutability via `RefCell`); the parallel
/// engine replays its workers' candidates from the emitting thread at
/// the merge barrier, so one run's events always arrive from one thread.
pub struct ProvenanceCollector {
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    algorithm: &'static str,
    relations: usize,
    records: BTreeMap<u64, DecisionRecord>,
}

impl ProvenanceCollector {
    /// An empty collector.
    pub fn new() -> ProvenanceCollector {
        ProvenanceCollector {
            state: RefCell::new(State::default()),
        }
    }

    /// Algorithm name from the last `run_start` seen (`""` before any).
    pub fn algorithm(&self) -> &'static str {
        self.state.borrow().algorithm
    }

    /// Relation count from the last `run_start` seen.
    pub fn relations(&self) -> usize {
        self.state.borrow().relations
    }

    /// The decision record for one relation set (bitmask), if any
    /// candidate was recorded for it.
    pub fn record(&self, set: u64) -> Option<DecisionRecord> {
        self.state.borrow().records.get(&set).copied()
    }

    /// All decision records, keyed by relation-set bitmask. The map is
    /// ordered (ascending bitmask), so smaller sets — whose decisions
    /// feed larger ones — come first for same-size prefixes and
    /// iteration order is deterministic.
    pub fn records(&self) -> BTreeMap<u64, DecisionRecord> {
        self.state.borrow().records.clone()
    }

    /// Total candidates recorded across all sets.
    pub fn total_candidates(&self) -> u64 {
        self.state
            .borrow()
            .records
            .values()
            .map(|r| r.candidates)
            .sum()
    }
}

impl Default for ProvenanceCollector {
    fn default() -> ProvenanceCollector {
        ProvenanceCollector::new()
    }
}

impl Observer for ProvenanceCollector {
    fn wants_provenance(&self) -> bool {
        true
    }

    fn on_event(&self, event: Event) {
        let mut s = self.state.borrow_mut();
        match event {
            Event::RunStart {
                algorithm,
                relations,
            } => {
                *s = State {
                    algorithm,
                    relations,
                    records: BTreeMap::new(),
                };
            }
            Event::PlanCandidate {
                set,
                left,
                right,
                cost,
                accepted,
                ..
            } => {
                s.records
                    .entry(set)
                    .or_default()
                    .observe(left, right, cost, accepted);
            }
            Event::SearchPruned { set, reason, .. } => {
                s.records.entry(set).or_default().pruned = Some(reason);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_winner_runner_up_and_counts() {
        let prov = ProvenanceCollector::new();
        prov.on_event(Event::RunStart {
            algorithm: "DPsize",
            relations: 3,
        });
        // Accept 10, accept 5 (10 becomes runner-up), reject 7 (closer
        // runner-up), reject 20 (ignored).
        for (cost, accepted) in [(10.0, true), (5.0, true), (7.0, false), (20.0, false)] {
            prov.on_event(Event::PlanCandidate {
                algorithm: "DPsize",
                set: 0b011,
                left: 0b001,
                right: 0b010,
                cost,
                accepted,
            });
        }
        let rec = prov.record(0b011).unwrap();
        assert_eq!(rec.candidates, 4);
        assert_eq!(rec.winner.unwrap().cost, 5.0);
        assert_eq!(rec.runner_up.unwrap().cost, 7.0);
        assert_eq!(rec.cost_delta(), Some(2.0));
        assert_eq!(rec.pruned, None);
        assert_eq!(prov.algorithm(), "DPsize");
        assert_eq!(prov.relations(), 3);
        assert_eq!(prov.total_candidates(), 4);
        assert_eq!(prov.record(0b111), None);
    }

    #[test]
    fn single_candidate_has_no_runner_up_and_pruning_is_recorded() {
        let prov = ProvenanceCollector::new();
        prov.on_event(Event::PlanCandidate {
            algorithm: "DPsize",
            set: 0b011,
            left: 0b010,
            right: 0b001,
            cost: 3.0,
            accepted: true,
        });
        prov.on_event(Event::SearchPruned {
            algorithm: "TopDown",
            set: 0b011,
            reason: "bound",
        });
        let rec = prov.record(0b011).unwrap();
        assert_eq!(rec.runner_up, None);
        assert_eq!(rec.cost_delta(), None);
        assert_eq!(rec.pruned, Some("bound"));
    }

    #[test]
    fn run_start_resets_and_records_iterate_in_set_order() {
        let prov = ProvenanceCollector::new();
        for set in [0b110u64, 0b011, 0b101] {
            prov.on_event(Event::PlanCandidate {
                algorithm: "DPsize",
                set,
                left: set & (set - 1),
                right: set & set.wrapping_neg(),
                cost: 1.0,
                accepted: true,
            });
        }
        let keys: Vec<u64> = prov.records().keys().copied().collect();
        assert_eq!(keys, [0b011, 0b101, 0b110]);
        prov.on_event(Event::RunStart {
            algorithm: "DPccp",
            relations: 2,
        });
        assert!(prov.records().is_empty());
        assert_eq!(prov.algorithm(), "DPccp");
    }
}
