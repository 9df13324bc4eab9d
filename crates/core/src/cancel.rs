//! Cooperative cancellation and resource budgets: [`CancelFlag`] and
//! [`CancellationToken`].
//!
//! A token bundles the three ways a run can be asked to stop — an
//! external cancellation flag, a wall-clock deadline, and a memory
//! budget — behind two operations sized for different call sites:
//!
//! * [`CancellationToken::check`] consults everything including the
//!   clock; call it at coarse boundaries (level barriers, per-query
//!   setup).
//! * [`CancellationToken::poll`] is the form for inner DP loops: the
//!   caller reports the splits it does before its next poll, and once
//!   they add up to [`POLL_PERIOD`] the poll runs the full `check`.
//!   Below that it is one add and one compare on a caller-local
//!   counter: no atomic load and no clock read. A dense loop runs in
//!   counted blocks of at most `POLL_PERIOD` splits with one poll
//!   before each, so it holds no cancellation code at all; a loop
//!   that does one split per step polls with `work = 1`.
//!
//! Between two full checks a loop therefore does fewer than
//! `2 · POLL_PERIOD` splits, and the clock is read at most once per
//! `POLL_PERIOD` of them: a raised flag, a passed deadline or a trip
//! latched elsewhere stops the run within `2 · POLL_PERIOD` splits, not
//! at the very next one.
//!
//! Memory is accounted by the *consumers* (DP table, plan arena)
//! calling [`CancellationToken::charge`] with byte deltas as their
//! footprint grows; the token trips once the running total exceeds the
//! budget.
//!
//! Whichever condition trips first wins: the token latches the trip
//! reason with a compare-and-swap, and every later check reports the
//! same error, so a run stops with one deterministic cause.

use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::OptimizeError;

/// [`CancellationToken::poll`] runs the full check once this many
/// splits have been reported since the last one.
pub(crate) const POLL_PERIOD: u32 = 256;

const TRIP_NONE: u8 = 0;
const TRIP_TIME: u8 = 1;
const TRIP_MEMORY: u8 = 2;
const TRIP_CANCELLED: u8 = 3;

/// A shareable cancel switch: clone it, hand one copy to the optimizer
/// via [`OptimizeRequest::with_cancel_flag`](crate::OptimizeRequest::with_cancel_flag),
/// and flip it from any thread to abort the run at its next full check.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag {
    inner: Arc<AtomicBool>,
}

impl CancelFlag {
    /// A new, un-cancelled flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.load(Ordering::Relaxed)
    }
}

/// The per-run bundle of stop conditions threaded through the DP loops.
/// See the module docs for the check/poll split.
#[derive(Debug)]
pub struct CancellationToken {
    flag: Option<CancelFlag>,
    deadline: Option<Instant>,
    time_budget: Duration,
    memory_budget: usize,
    memory_used: AtomicUsize,
    trip: AtomicU8,
}

impl Default for CancellationToken {
    fn default() -> CancellationToken {
        CancellationToken::unlimited()
    }
}

impl CancellationToken {
    /// A token that never trips on its own (no flag, no deadline, no
    /// memory cap) — the default for uncontrolled entry points.
    pub fn unlimited() -> CancellationToken {
        CancellationToken::new(None, None, None)
    }

    /// A token with the given stop conditions; the deadline clock
    /// starts now.
    pub fn new(
        flag: Option<CancelFlag>,
        time_budget: Option<Duration>,
        memory_budget: Option<usize>,
    ) -> CancellationToken {
        CancellationToken {
            flag,
            deadline: time_budget.map(|b| Instant::now() + b),
            time_budget: time_budget.unwrap_or(Duration::ZERO),
            memory_budget: memory_budget.unwrap_or(usize::MAX),
            memory_used: AtomicUsize::new(0),
            trip: AtomicU8::new(TRIP_NONE),
        }
    }

    /// The configured time budget, if any.
    pub fn time_budget(&self) -> Option<Duration> {
        self.deadline.map(|_| self.time_budget)
    }

    /// The configured memory budget in bytes, if any.
    pub fn memory_budget(&self) -> Option<usize> {
        (self.memory_budget != usize::MAX).then_some(self.memory_budget)
    }

    /// Bytes charged against the memory budget so far.
    pub fn memory_used(&self) -> usize {
        self.memory_used.load(Ordering::Relaxed)
    }

    /// Latches `code` as the trip reason if nothing tripped earlier.
    fn trip(&self, code: u8) {
        let _ = self
            .trip
            .compare_exchange(TRIP_NONE, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// The error for an already-tripped token, if any. All threads see
    /// the same answer once one of them trips.
    pub fn trip_error(&self) -> Option<OptimizeError> {
        match self.trip.load(Ordering::Relaxed) {
            TRIP_TIME => Some(OptimizeError::TimeBudgetExceeded {
                budget: self.time_budget,
            }),
            TRIP_MEMORY => Some(OptimizeError::MemoryBudgetExceeded {
                used: self.memory_used(),
                budget: self.memory_budget,
            }),
            TRIP_CANCELLED => Some(OptimizeError::Cancelled),
            _ => None,
        }
    }

    fn check_flag(&self) -> Result<(), OptimizeError> {
        if let Some(flag) = &self.flag {
            if flag.is_cancelled() {
                self.trip(TRIP_CANCELLED);
                return Err(OptimizeError::Cancelled);
            }
        }
        Ok(())
    }

    fn check_deadline(&self) -> Result<(), OptimizeError> {
        if let Some(dl) = self.deadline {
            if Instant::now() > dl {
                self.trip(TRIP_TIME);
                return Err(OptimizeError::TimeBudgetExceeded {
                    budget: self.time_budget,
                });
            }
        }
        Ok(())
    }

    /// The full check: trip latch, flag and deadline. Reads the clock.
    pub fn check(&self) -> Result<(), OptimizeError> {
        if let Some(e) = self.trip_error() {
            return Err(e);
        }
        self.check_flag()?;
        self.check_deadline()
    }

    /// The paced check for inner loops. `pace` is caller-local state
    /// (one per run, initialized to 0) and `work` the splits the caller
    /// does between this poll and its next, at most `POLL_PERIOD`
    /// (256). Once the splits add up to `POLL_PERIOD`, the full
    /// [`check`](Self::check) runs and the count starts over; below
    /// that nothing is loaded and the clock is not read. So with a
    /// deadline set, the clock is read at most once per `POLL_PERIOD`
    /// splits, and a trip is seen fewer than `2 · POLL_PERIOD` splits
    /// after it happens.
    #[inline]
    pub(crate) fn poll(&self, pace: &mut u32, work: u32) -> Result<(), OptimizeError> {
        debug_assert!(work <= POLL_PERIOD);
        *pace += work;
        if *pace < POLL_PERIOD {
            return Ok(());
        }
        *pace = 0;
        self.check()
    }

    /// Charges `delta` bytes against the memory budget, tripping the
    /// token when the running total exceeds it.
    pub fn charge(&self, delta: usize) -> Result<(), OptimizeError> {
        let used = self
            .memory_used
            .fetch_add(delta, Ordering::Relaxed)
            .saturating_add(delta);
        if used > self.memory_budget {
            self.trip(TRIP_MEMORY);
            return Err(OptimizeError::MemoryBudgetExceeded {
                used,
                budget: self.memory_budget,
            });
        }
        Ok(())
    }
}

/// Test support for the engines' mid-run stop tests.
#[cfg(test)]
pub(crate) mod stop_probe {
    use std::cell::Cell;

    use joinopt_cost::{workload::Workload, Cout};
    use joinopt_telemetry::{Event, Observer};

    use super::{CancelFlag, CancellationToken};
    use crate::dpsub::Session;
    use crate::error::OptimizeError;
    use crate::result::JoinOrderer;

    /// Raises the cancel flag at the first candidate split of `full`
    /// and counts the candidates reported from then on, that one
    /// included.
    struct CancelAtSet {
        full: u64,
        flag: CancelFlag,
        after: Cell<u64>,
    }

    impl Observer for CancelAtSet {
        fn wants_provenance(&self) -> bool {
            true
        }

        fn on_event(&self, event: Event) {
            if let Event::PlanCandidate { set, .. } = event {
                if set == self.full {
                    self.flag.cancel();
                }
                if self.flag.is_cancelled() {
                    self.after.set(self.after.get() + 1);
                }
            }
        }
    }

    /// Runs `orderer` on `w` under `C_out`, raising a cancel flag at the
    /// first candidate split of the full relation set: the run's error
    /// and the candidates reported from the raise on. Only the engine's
    /// inner-loop polls can see the flag once it is up.
    pub(crate) fn cancel_at_the_full_set(
        orderer: &dyn JoinOrderer,
        w: &Workload,
    ) -> (Result<(), OptimizeError>, u64) {
        let obs = CancelAtSet {
            full: w.graph.all_relations().bits(),
            flag: CancelFlag::new(),
            after: Cell::new(0),
        };
        let ctl = CancellationToken::new(Some(obs.flag.clone()), None, None);
        let run = orderer.optimize_in(&w.graph, &w.catalog, &Cout, &obs, &ctl, &mut Session::new());
        (run.map(|_| ()), obs.after.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_token_never_trips() {
        let ctl = CancellationToken::unlimited();
        let mut pace = 0u32;
        for _ in 0..10_000 {
            ctl.poll(&mut pace, 1).unwrap();
        }
        ctl.check().unwrap();
        ctl.charge(usize::MAX / 2).unwrap();
        assert_eq!(ctl.time_budget(), None);
        assert_eq!(ctl.memory_budget(), None);
    }

    #[test]
    fn flag_cancels_and_latches() {
        let flag = CancelFlag::new();
        let ctl = CancellationToken::new(Some(flag.clone()), None, None);
        ctl.check().unwrap();
        flag.cancel();
        assert_eq!(ctl.check(), Err(OptimizeError::Cancelled));
        // The trip is latched even for checks that skip the flag.
        assert_eq!(ctl.trip_error(), Some(OptimizeError::Cancelled));
    }

    #[test]
    fn zero_time_budget_trips_when_the_work_crosses_the_period() {
        let budget = Duration::ZERO;
        // One split at a time: the first POLL_PERIOD − 1 polls pass.
        let ctl = CancellationToken::new(None, Some(budget), None);
        let mut pace = 0u32;
        for _ in 1..POLL_PERIOD {
            ctl.poll(&mut pace, 1).unwrap();
        }
        assert_eq!(
            ctl.poll(&mut pace, 1),
            Err(OptimizeError::TimeBudgetExceeded { budget })
        );
        // Blocks: the poll whose work reaches the period trips.
        let ctl = CancellationToken::new(None, Some(budget), None);
        let mut pace = 0u32;
        ctl.poll(&mut pace, 100).unwrap();
        ctl.poll(&mut pace, POLL_PERIOD - 101).unwrap();
        assert_eq!(
            ctl.poll(&mut pace, 2),
            Err(OptimizeError::TimeBudgetExceeded { budget })
        );
    }

    #[test]
    fn a_full_block_polls_at_once_and_the_count_starts_over() {
        let budget = Duration::ZERO;
        let ctl = CancellationToken::new(None, Some(budget), None);
        let mut pace = 0u32;
        assert!(ctl.poll(&mut pace, POLL_PERIOD).is_err());
        assert_eq!(pace, 0);
        // Unlimited: the count wraps at the period and never trips.
        let ctl = CancellationToken::unlimited();
        for work in [POLL_PERIOD, 7, POLL_PERIOD - 7, 3] {
            ctl.poll(&mut pace, work).unwrap();
        }
        assert_eq!(pace, 3);
    }

    #[test]
    fn a_raised_flag_is_seen_at_the_next_period_boundary() {
        let flag = CancelFlag::new();
        let ctl = CancellationToken::new(Some(flag.clone()), None, None);
        let mut pace = 0u32;
        ctl.poll(&mut pace, 10).unwrap();
        flag.cancel();
        for _ in 10..POLL_PERIOD - 1 {
            ctl.poll(&mut pace, 1).unwrap();
        }
        assert_eq!(ctl.poll(&mut pace, 1), Err(OptimizeError::Cancelled));
        assert_eq!(ctl.trip_error(), Some(OptimizeError::Cancelled));
    }

    #[test]
    fn a_memory_trip_is_reported_at_the_next_period_boundary() {
        let ctl = CancellationToken::new(None, None, Some(100));
        let mut pace = 0u32;
        ctl.poll(&mut pace, POLL_PERIOD - 1).unwrap();
        // A trip latched elsewhere (another consumer's charge).
        let _ = ctl.charge(200).unwrap_err();
        assert!(matches!(
            ctl.poll(&mut pace, 1),
            Err(OptimizeError::MemoryBudgetExceeded {
                used: 200,
                budget: 100
            })
        ));
        // Inside the next period the poll does not look.
        ctl.poll(&mut pace, POLL_PERIOD - 1).unwrap();
        assert!(ctl.poll(&mut pace, 1).is_err());
    }

    #[test]
    fn memory_budget_trips_on_cumulative_charges() {
        let ctl = CancellationToken::new(None, None, Some(100));
        ctl.charge(60).unwrap();
        let err = ctl.charge(60).unwrap_err();
        assert_eq!(
            err,
            OptimizeError::MemoryBudgetExceeded {
                used: 120,
                budget: 100
            }
        );
        assert_eq!(ctl.memory_used(), 120);
        // Latched: every later full check fails.
        assert!(ctl.check().is_err());
    }

    #[test]
    fn first_trip_wins() {
        let flag = CancelFlag::new();
        let ctl = CancellationToken::new(Some(flag.clone()), None, Some(10));
        let _ = ctl.charge(100).unwrap_err();
        flag.cancel();
        // Memory tripped first; cancellation does not overwrite it.
        assert!(matches!(
            ctl.trip_error(),
            Some(OptimizeError::MemoryBudgetExceeded { .. })
        ));
    }
}
