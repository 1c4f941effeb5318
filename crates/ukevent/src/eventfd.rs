//! `eventfd`: a 64-bit counter with readiness semantics.
//!
//! The Linux object the paper's §4.1 lists as missing from Unikraft's
//! POSIX layer. Semantics follow `eventfd(2)`:
//!
//! - `write(v)` adds `v` to the counter; it would block (here:
//!   `EAGAIN`) if the sum would exceed `u64::MAX - 1`, and `v ==
//!   u64::MAX` is `EINVAL`.
//! - `read` returns the whole counter and resets it to zero — unless
//!   `EFD_SEMAPHORE` was given, in which case it returns 1 and
//!   decrements. A zero counter reads as `EAGAIN`.
//! - Readiness: `EPOLLIN` while the counter is non-zero, `EPOLLOUT`
//!   while a write of 1 could complete.

use ukplat::{Errno, Result};

use crate::mask::EventMask;
use crate::source::{Pollable, ReadySource};

/// `EFD_SEMAPHORE`: reads decrement by one instead of resetting.
pub const EFD_SEMAPHORE: u32 = 0x1;
/// `EFD_NONBLOCK`: accepted; all our reads/writes are
/// already non-blocking (they return `EAGAIN` instead of sleeping).
pub(crate) const EFD_NONBLOCK: u32 = 0x800;

const MAX_COUNTER: u64 = u64::MAX - 1;

/// An eventfd object.
#[derive(Debug)]
pub struct EventFd {
    counter: u64,
    semaphore: bool,
    source: ReadySource,
}

impl EventFd {
    /// Creates an eventfd with an initial counter (`eventfd2`). Unknown
    /// flag bits are rejected with `EINVAL`, as Linux does.
    pub fn new(initval: u64, flags: u32) -> Result<Self> {
        if flags & !(EFD_SEMAPHORE | EFD_NONBLOCK) != 0 {
            return Err(Errno::Inval);
        }
        let efd = EventFd {
            counter: initval,
            semaphore: flags & EFD_SEMAPHORE != 0,
            source: ReadySource::new(),
        };
        efd.publish(false);
        Ok(efd)
    }

    /// Adds `value` to the counter. `EINVAL` for `u64::MAX`, `EAGAIN`
    /// when the counter would overflow `u64::MAX - 1`.
    pub fn write(&mut self, value: u64) -> Result<()> {
        if value == u64::MAX {
            return Err(Errno::Inval);
        }
        if self.counter.checked_add(value).map_or(true, |s| s > MAX_COUNTER) {
            return Err(Errno::Again);
        }
        self.counter += value;
        self.publish(true);
        Ok(())
    }

    /// Reads the counter: the whole value (reset to 0), or 1 in
    /// semaphore mode (decrement). `EAGAIN` when zero.
    pub fn read(&mut self) -> Result<u64> {
        if self.counter == 0 {
            return Err(Errno::Again);
        }
        let v = if self.semaphore {
            self.counter -= 1;
            1
        } else {
            std::mem::take(&mut self.counter)
        };
        self.publish(false);
        Ok(v)
    }

    /// Current counter value (not part of the Linux API; for tests and
    /// reports).
    pub fn value(&self) -> u64 {
        self.counter
    }

    /// Publishes the counter's readiness; `new_input` for a write, which
    /// wakes edge-triggered waiters even while `IN` is already high.
    fn publish(&self, new_input: bool) {
        let mut m = EventMask::EMPTY;
        if self.counter > 0 {
            m |= EventMask::IN;
        }
        if self.counter < MAX_COUNTER {
            m |= EventMask::OUT;
        }
        self.source.publish(m, new_input);
    }
}

impl Pollable for EventFd {
    fn poll_events(&self) -> EventMask {
        self.source.current()
    }

    fn ready_source(&self) -> ReadySource {
        self.source.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets_on_read() {
        let mut e = EventFd::new(0, 0).unwrap();
        assert_eq!(e.read().unwrap_err(), Errno::Again);
        e.write(3).unwrap();
        e.write(4).unwrap();
        assert_eq!(e.read().unwrap(), 7);
        assert_eq!(e.read().unwrap_err(), Errno::Again);
    }

    #[test]
    fn semaphore_mode_decrements() {
        let mut e = EventFd::new(2, EFD_SEMAPHORE).unwrap();
        assert_eq!(e.read().unwrap(), 1);
        assert_eq!(e.read().unwrap(), 1);
        assert_eq!(e.read().unwrap_err(), Errno::Again);
    }

    #[test]
    fn overflow_rules_match_linux() {
        let mut e = EventFd::new(0, 0).unwrap();
        assert_eq!(e.write(u64::MAX).unwrap_err(), Errno::Inval);
        e.write(u64::MAX - 1).unwrap();
        assert_eq!(e.write(1).unwrap_err(), Errno::Again);
        assert!(!e.poll_events().contains(EventMask::OUT), "counter full");
        assert_eq!(e.read().unwrap(), u64::MAX - 1);
        assert!(e.poll_events().contains(EventMask::OUT));
    }

    #[test]
    fn readiness_tracks_counter() {
        let mut e = EventFd::new(0, 0).unwrap();
        assert!(!e.poll_events().contains(EventMask::IN));
        assert!(e.poll_events().contains(EventMask::OUT));
        e.write(1).unwrap();
        assert!(e.poll_events().contains(EventMask::IN));
        e.read().unwrap();
        assert!(!e.poll_events().contains(EventMask::IN));
    }

    /// Every write wakes an `EPOLLET` waiter, not only the one that
    /// made the counter non-zero (Linux's `eventfd_write` wakes on each).
    #[test]
    fn every_write_is_an_edge_for_edge_triggered_waiters() {
        let mut e = EventFd::new(0, 0).unwrap();
        let mut q = crate::EventQueue::new();
        q.ctl_add(1, &e, EventMask::IN | EventMask::ET).unwrap();
        e.write(1).unwrap();
        assert_eq!(q.poll_ready(4).len(), 1, "first write");
        e.write(1).unwrap();
        assert_eq!(q.poll_ready(4).len(), 1, "second write, counter still readable");
        assert_eq!(q.poll_ready(4).len(), 0, "no write, no edge");
        assert_eq!(e.read().unwrap(), 2);
        assert_eq!(q.poll_ready(4).len(), 0, "a read is not input");
    }

    #[test]
    fn unknown_flags_rejected() {
        assert_eq!(EventFd::new(0, 0x4).unwrap_err(), Errno::Inval);
        assert!(EventFd::new(5, EFD_SEMAPHORE | EFD_NONBLOCK).is_ok());
    }

    #[test]
    fn initval_is_readable_immediately() {
        let mut e = EventFd::new(41, 0).unwrap();
        assert!(e.poll_events().contains(EventMask::IN));
        assert_eq!(e.read().unwrap(), 41);
    }
}
