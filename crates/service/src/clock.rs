//! An injectable clock for the server's deadline, breaker and tracing
//! logic.
//!
//! Everything in the gateway that measures or waits for time goes
//! through a [`Clock`] handle: production code uses [`Clock::system`]
//! (monotonic [`Instant`] reads, real [`std::thread::sleep`]s), unit
//! tests use [`Clock::manual`] — a virtual clock whose `sleep` advances
//! time instantly and whose `advance` moves it explicitly. That keeps
//! every deadline and breaker cooldown in `cargo test -q`
//! deterministic and free of real sleeps: a test that "waits" 300ms of
//! cooldown runs in nanoseconds and can pin exact expected timings.
//!
//! Clones share the underlying time source, so a test can hold one
//! handle to advance time while the gateway under test reads another.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-global count of [`Clock::now_ns`] calls, for the
/// zero-overhead pinning tests.
static CLOCK_READS: AtomicU64 = AtomicU64::new(0);

/// How many times any [`Clock`] in this process has been read. The
/// tracing layer's contract is that, with tracing disabled, a gateway
/// request performs *exactly* the same clock reads as before tracing
/// existed; the pinned test in `tests/trace_overhead.rs` asserts the
/// delta. The counter is monotonic and shared, so observing tests must
/// run in their own test binary.
pub fn clock_reads() -> u64 {
    CLOCK_READS.load(Ordering::Relaxed)
}

/// A monotonic clock: either the real one or a manually advanced
/// virtual one. Cheap to clone; clones share the time source.
#[derive(Debug, Clone)]
pub struct Clock {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    /// Real time, reported as nanoseconds since the clock was created.
    System { epoch: Instant },
    /// Virtual time in nanoseconds, advanced only by `sleep`/`advance`.
    Manual { now_ns: Arc<AtomicU64> },
}

impl Default for Clock {
    fn default() -> Self {
        Clock::system()
    }
}

impl Clock {
    /// The real monotonic clock. `now_ns` is nanoseconds since this
    /// handle (or the handle it was cloned from) was created.
    pub fn system() -> Clock {
        Clock {
            inner: Inner::System {
                epoch: Instant::now(),
            },
        }
    }

    /// A virtual clock starting at zero. Time moves only through
    /// [`Clock::sleep`] and [`Clock::advance`].
    pub fn manual() -> Clock {
        Clock {
            inner: Inner::Manual {
                now_ns: Arc::new(AtomicU64::new(0)),
            },
        }
    }

    /// Whether this is a manual (virtual) clock.
    pub fn is_manual(&self) -> bool {
        matches!(self.inner, Inner::Manual { .. })
    }

    /// Nanoseconds since the clock's epoch.
    pub fn now_ns(&self) -> u64 {
        CLOCK_READS.fetch_add(1, Ordering::Relaxed);
        match &self.inner {
            Inner::System { epoch } => {
                u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            Inner::Manual { now_ns } => now_ns.load(Ordering::SeqCst),
        }
    }

    /// Time since the clock's epoch as a [`Duration`].
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.now_ns())
    }

    /// Blocks for `d` on the system clock; advances virtual time by `d`
    /// instantly on a manual clock.
    pub fn sleep(&self, d: Duration) {
        match &self.inner {
            Inner::System { .. } => std::thread::sleep(d),
            Inner::Manual { now_ns } => {
                let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                now_ns.fetch_add(ns, Ordering::SeqCst);
            }
        }
    }

    /// Advances a manual clock by `d` without blocking anybody. On the
    /// system clock this is a no-op (real time cannot be steered).
    pub fn advance(&self, d: Duration) {
        if let Inner::Manual { now_ns } = &self.inner {
            let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            now_ns.fetch_add(ns, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_starts_at_zero_and_sleeps_instantly() {
        let clock = Clock::manual();
        assert!(clock.is_manual());
        assert_eq!(clock.now_ns(), 0);
        let wall = Instant::now();
        clock.sleep(Duration::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(1), "no real sleep");
        assert_eq!(clock.now(), Duration::from_secs(3600));
    }

    #[test]
    fn manual_clones_share_time() {
        let a = Clock::manual();
        let b = a.clone();
        b.advance(Duration::from_millis(250));
        assert_eq!(a.now_ns(), 250_000_000);
    }

    #[test]
    fn system_clock_is_monotonic_and_ignores_advance() {
        let clock = Clock::system();
        assert!(!clock.is_manual());
        let t0 = clock.now_ns();
        clock.advance(Duration::from_secs(1000));
        clock.sleep(Duration::from_millis(1));
        let t1 = clock.now_ns();
        assert!(t1 >= t0 + 1_000_000, "slept at least 1ms");
        assert!(t1 < t0 + 500_000_000_000, "advance was a no-op");
    }
}
