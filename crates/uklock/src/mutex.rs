//! Mutex primitive.
//!
//! The mutex is a state machine over thread (context) ids rather than an OS
//! lock: in a single-address-space unikernel with a cooperative scheduler,
//! a mutex is just an owner field and a FIFO of waiters. Under
//! [`LockConfig::BARE`](crate::LockConfig::BARE) acquisition always succeeds
//! and no state is kept — the compile-out case of §3.3.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::LockConfig;

/// Outcome of a lock attempt by a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The caller now owns the mutex.
    Acquired,
    /// The mutex is held; the caller was queued and must block.
    MustWait,
}

#[derive(Debug, Default)]
struct MutexInner {
    owner: Option<u64>,
    waiters: VecDeque<u64>,
}

/// A FIFO mutex over scheduler context ids.
///
/// # Examples
///
/// ```
/// use uklock::{LockConfig, Mutex};
/// use uklock::mutex::Acquire;
///
/// let m = Mutex::new(LockConfig::THREADED);
/// assert_eq!(m.lock(1), Acquire::Acquired);
/// assert_eq!(m.lock(2), Acquire::MustWait);
/// assert_eq!(m.unlock(1), Some(2)); // 2 should be woken and now owns it
/// ```
#[derive(Debug, Clone)]
pub struct Mutex {
    config: LockConfig,
    inner: Rc<RefCell<MutexInner>>,
}

impl Mutex {
    /// Creates a mutex under the given lock configuration.
    pub fn new(config: LockConfig) -> Self {
        Mutex {
            config,
            inner: Rc::new(RefCell::new(MutexInner::default())),
        }
    }

    /// Attempts to acquire for context `ctx`.
    ///
    /// Under `BARE` config this always succeeds (there is nobody to race).
    pub fn lock(&self, ctx: u64) -> Acquire {
        if !self.config.needs_state() {
            return Acquire::Acquired;
        }
        let mut inner = self.inner.borrow_mut();
        match inner.owner {
            None => {
                inner.owner = Some(ctx);
                Acquire::Acquired
            }
            // Non-recursive: relocking by the owner is a bug in Unikraft
            // too, but we queue it like any contender rather than
            // deadlocking the sim.
            Some(_) => {
                inner.waiters.push_back(ctx);
                Acquire::MustWait
            }
        }
    }

    /// Releases the mutex held by `ctx`. Hands ownership to the first
    /// waiter, returning its context id so the scheduler can wake it.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` does not own the mutex (a genuine bug, matching
    /// Unikraft's `UK_ASSERT`).
    pub fn unlock(&self, ctx: u64) -> Option<u64> {
        if !self.config.needs_state() {
            return None;
        }
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.owner,
            Some(ctx),
            "mutex unlocked by non-owner context {ctx}"
        );
        match inner.waiters.pop_front() {
            Some(next) => {
                inner.owner = Some(next);
                Some(next)
            }
            None => {
                inner.owner = None;
                None
            }
        }
    }

    /// Current owner, if any.
    pub fn owner(&self) -> Option<u64> {
        if !self.config.needs_state() {
            return None;
        }
        self.inner.borrow().owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_lock_unlock() {
        let m = Mutex::new(LockConfig::THREADED);
        assert_eq!(m.lock(1), Acquire::Acquired);
        assert_eq!(m.owner(), Some(1));
        assert_eq!(m.unlock(1), None);
        assert_eq!(m.owner(), None);
    }

    #[test]
    fn contended_lock_queues_fifo() {
        let m = Mutex::new(LockConfig::THREADED);
        assert_eq!(m.lock(1), Acquire::Acquired);
        assert_eq!(m.lock(2), Acquire::MustWait);
        assert_eq!(m.lock(3), Acquire::MustWait);
        assert_eq!(m.unlock(1), Some(2));
        assert_eq!(m.owner(), Some(2));
        assert_eq!(m.unlock(2), Some(3));
        assert_eq!(m.unlock(3), None);
    }

    #[test]
    fn bare_config_is_noop() {
        let m = Mutex::new(LockConfig::BARE);
        assert_eq!(m.lock(1), Acquire::Acquired);
        assert_eq!(m.lock(2), Acquire::Acquired);
        assert_eq!(m.unlock(9), None);
        assert_eq!(m.owner(), None);
    }

    #[test]
    #[should_panic(expected = "non-owner")]
    fn unlock_by_non_owner_panics() {
        let m = Mutex::new(LockConfig::THREADED);
        m.lock(1);
        m.unlock(2);
    }
}
