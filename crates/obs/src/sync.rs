//! The workspace's shared lock helpers behind a loom swap point.
//!
//! Normal builds use `std::sync`; under `RUSTFLAGS="--cfg loom"` the
//! same names resolve to loom's model-checked versions, so locking in
//! every crate that routes through this module runs unchanged inside
//! `loom::model` schedule exploration (`cargo xtask loom`).
//!
//! This is deliberately the *only* lock-helper module in the workspace:
//! `openmeta-net`, `openmeta-pbio` and `openmeta-echo` re-export it as
//! their `sync` module rather than carrying copies, so the lock-order
//! analyzer (`openmeta protolint`, engine 2) has a single set of
//! acquisition entry points — `sync::lock`, `sync::wait`,
//! `sync::wait_timeout` — to key on.  `openmeta-obs` hosts it because it
//! is the workspace's base crate (everything else already depends on it).
//!
//! The helpers also centralize poison recovery: a holder that panics
//! only ever does so between two consistent single-step states in every
//! call site audited so far, so continuing past a poisoned lock is
//! sound — and the libraries stay free of `unwrap()`.

#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

use std::sync::PoisonError;
use std::time::Duration;

/// Acquire `m`, recovering the guard if a previous holder panicked.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access through `&mut`, recovering from poisoning.
pub fn get_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv`, recovering the guard if a notifier panicked.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Wait with a timeout, recovering the guard if a notifier panicked.
/// Returns the guard and whether the wait timed out.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, bool) {
    let (guard, result) = cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner);
    (guard, result.timed_out())
}
