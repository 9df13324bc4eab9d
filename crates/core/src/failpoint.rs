//! Compile-time-gated fault injection, in the spirit of tikv's
//! `fail-rs` but dependency-free.
//!
//! Optimizer internals call [`check`] at named sites; in normal builds
//! the call compiles to `Ok(())` and vanishes. Building with
//! `RUSTFLAGS="--cfg failpoints"` activates a process-global registry
//! where tests arm sites with [`configure`] to return an error or
//! panic, proving the degradation ladder and panic isolation handle
//! every failure mode (see `tests/resilience.rs`).
//!
//! # Sites
//!
//! | site                    | location                                   |
//! |-------------------------|--------------------------------------------|
//! | `table-insert`          | DP-table insert path (driver and IDP)      |
//! | `arena-alloc`           | plan-arena node allocation                 |
//! | `estimator`             | cardinality-estimator construction         |
//! | `dpconv-rank-skip`      | behavioral [`flag`]: DPconv drops the      |
//! |                         | balanced convolution layer of its final    |
//! |                         | rank (`n ≥ 4`) — a silent wrong-cost bug   |
//! |                         | the differential oracle must catch         |
//!
//! The registry is a global mutex; tests that arm sites must serialize
//! themselves (the resilience suite shares one test lock). A panicking
//! site poisons nothing permanently: the registry recovers the lock
//! with [`std::sync::PoisonError::into_inner`].

use crate::error::OptimizeError;

/// What an armed failpoint does when its site is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Return `OptimizeError::Internal` from the site.
    Error,
    /// Panic at the site (exercises `catch_unwind` isolation).
    Panic,
}

#[cfg(failpoints)]
mod registry {
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use super::FailAction;

    struct Armed {
        action: FailAction,
        /// Remaining triggers; `None` means unlimited.
        remaining: Option<usize>,
    }

    static REGISTRY: Mutex<Option<HashMap<&'static str, Armed>>> = Mutex::new(None);

    fn lock() -> MutexGuard<'static, Option<HashMap<&'static str, Armed>>> {
        // A panic injected while the lock was held must not disable the
        // harness for the rest of the process.
        REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `site` to fire `action` on every hit until cleared.
    pub fn configure(site: &'static str, action: FailAction) {
        lock().get_or_insert_with(HashMap::new).insert(
            site,
            Armed {
                action,
                remaining: None,
            },
        );
    }

    /// Arms `site` for at most `times` hits, then auto-disarms.
    pub fn configure_times(site: &'static str, action: FailAction, times: usize) {
        lock().get_or_insert_with(HashMap::new).insert(
            site,
            Armed {
                action,
                remaining: Some(times),
            },
        );
    }

    /// Disarms `site`.
    pub fn clear(site: &str) {
        if let Some(map) = lock().as_mut() {
            map.remove(site);
        }
    }

    /// Disarms every site.
    pub fn clear_all() {
        if let Some(map) = lock().as_mut() {
            map.clear();
        }
    }

    /// Whether `site` is currently armed, without consuming a trigger.
    pub fn is_armed(site: &str) -> bool {
        lock()
            .as_ref()
            .is_some_and(|map| map.get(site).is_some_and(|a| a.remaining != Some(0)))
    }

    /// The action `site` should take now, decrementing its trigger
    /// count. `None` when the site is not armed.
    pub fn fire(site: &str) -> Option<FailAction> {
        let mut guard = lock();
        let map = guard.as_mut()?;
        let armed = map.get_mut(site)?;
        let action = armed.action;
        match &mut armed.remaining {
            Some(0) => return None,
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    map.remove(site);
                }
            }
            None => {}
        }
        Some(action)
    }
}

#[cfg(failpoints)]
pub use registry::{clear, clear_all, configure, configure_times};

/// Evaluates the failpoint at `site`. A no-op unless the crate was
/// built with `--cfg failpoints` *and* a test armed the site.
#[cfg(failpoints)]
pub fn check(site: &'static str) -> Result<(), OptimizeError> {
    match registry::fire(site) {
        None => Ok(()),
        Some(FailAction::Error) => Err(OptimizeError::Internal(format!(
            "failpoint {site} injected error"
        ))),
        Some(FailAction::Panic) => panic!("failpoint {site} injected panic"),
    }
}

/// Evaluates the failpoint at `site`. A no-op unless the crate was
/// built with `--cfg failpoints` *and* a test armed the site.
#[cfg(not(failpoints))]
#[inline(always)]
pub fn check(_site: &'static str) -> Result<(), OptimizeError> {
    Ok(())
}

/// A *behavioral* failpoint: `true` while `site` is armed (with any
/// [`FailAction`] — the action is ignored and no trigger is consumed).
/// Sites branch on it to flip an internal policy rather than fail, so
/// the conformance harness can prove it detects subtle divergence
/// (DPconv's `dpconv-rank-skip`).
#[cfg(failpoints)]
pub fn flag(site: &'static str) -> bool {
    registry::is_armed(site)
}

/// A *behavioral* failpoint: constant `false` in normal builds, so the
/// branch it guards folds away entirely.
#[cfg(not(failpoints))]
#[inline(always)]
pub fn flag(_site: &'static str) -> bool {
    false
}

#[cfg(all(test, failpoints))]
mod tests {
    use super::*;

    // These run under the shared lock in tests/resilience.rs when the
    // full suite runs; within this unit module they only touch sites
    // the integration tests never arm.
    #[test]
    fn unarmed_site_is_ok() {
        assert_eq!(check("unit-test-unarmed"), Ok(()));
    }

    #[test]
    fn count_limited_site_disarms_itself() {
        configure_times("unit-test-counted", FailAction::Error, 2);
        assert!(check("unit-test-counted").is_err());
        assert!(check("unit-test-counted").is_err());
        assert_eq!(check("unit-test-counted"), Ok(()));
        clear("unit-test-counted");
    }
}
