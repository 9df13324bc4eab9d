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
//! * [`CancellationToken::checkpoint`] is the fine-grained form for
//!   inner DP loops: it always observes an already-tripped token and
//!   the atomic flag (one relaxed load each), but only reads the
//!   monotonic clock every [`TIME_CHECK_PERIOD`] calls, so the cost per
//!   inner iteration stays at a couple of predictable branches.
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

/// [`CancellationToken::checkpoint`] reads the clock once per this many
/// calls (must be a power of two).
pub const TIME_CHECK_PERIOD: u32 = 256;

const TRIP_NONE: u8 = 0;
const TRIP_TIME: u8 = 1;
const TRIP_MEMORY: u8 = 2;
const TRIP_CANCELLED: u8 = 3;

/// A shareable cancel switch: clone it, hand one copy to the optimizer
/// via [`OptimizeRequest::with_cancel_flag`](crate::OptimizeRequest::with_cancel_flag),
/// and flip it from any thread to abort the run at its next checkpoint.
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
/// See the module docs for the check/checkpoint split.
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

    /// The paced check for inner loops. `counter` is caller-local
    /// pacing state (one per loop, initialized to 0); the deadline is
    /// only consulted every [`TIME_CHECK_PERIOD`] calls.
    #[inline]
    pub fn checkpoint(&self, counter: &mut u32) -> Result<(), OptimizeError> {
        if let Some(e) = self.trip_error() {
            return Err(e);
        }
        self.check_flag()?;
        *counter = counter.wrapping_add(1);
        if *counter & (TIME_CHECK_PERIOD - 1) == 0 {
            self.check_deadline()?;
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_token_never_trips() {
        let ctl = CancellationToken::unlimited();
        let mut pace = 0u32;
        for _ in 0..10_000 {
            ctl.checkpoint(&mut pace).unwrap();
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
    fn zero_time_budget_trips_via_paced_checkpoint() {
        let ctl = CancellationToken::new(None, Some(Duration::ZERO), None);
        let mut pace = 0u32;
        let mut err = None;
        for _ in 0..=TIME_CHECK_PERIOD {
            if let Err(e) = ctl.checkpoint(&mut pace) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(
            err,
            Some(OptimizeError::TimeBudgetExceeded {
                budget: Duration::ZERO
            })
        );
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
        // Latched: subsequent checkpoints fail immediately.
        let mut pace = 0u32;
        assert!(ctl.checkpoint(&mut pace).is_err());
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
