//! Shared readiness cells — the producer side of the subsystem.
//!
//! A [`ReadySource`] plays the role the wait-queue head inside a Linux
//! `struct file` plays for `poll`: the object's owner publishes its
//! current readiness here, and every [`EventQueue`](crate::EventQueue)
//! holding the object in its interest list observes the change. Edge
//! (`EPOLLET`) consumers additionally see a monotonically increasing
//! *edge sequence* that is bumped whenever a bit rises 0→1: a queue's
//! ready-scan still visits every entry of its interest list, but an
//! edge-triggered entry is decided by one compare against the sequence
//! it last delivered — no per-watcher "seen" state lives in the cell.
//!
//! Publishing is per-event work (a socket does it once per request), so
//! this file is on `ukcheck`'s hot list: a rising edge must not allocate.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use crate::mask::EventMask;
use crate::queue::QueueShared;

pub(crate) struct SourceInner {
    /// Current level-triggered readiness.
    events: EventMask,
    /// Bumped on every rising edge of any bit.
    edge_seq: u64,
    /// Queues watching this source.
    watchers: Vec<Weak<RefCell<QueueShared>>>,
}

/// A shared, cloneable readiness cell for one file-like object.
///
/// Clones share state (like `Rc`); the producing subsystem keeps one
/// clone and updates it, while event queues keep another in their
/// interest lists.
#[derive(Clone)]
pub struct ReadySource {
    inner: Rc<RefCell<SourceInner>>,
}

impl Default for ReadySource {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ReadySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ReadySource")
            .field("events", &inner.events)
            .field("edge_seq", &inner.edge_seq)
            .field("watchers", &inner.watchers.len())
            .finish()
    }
}

impl ReadySource {
    /// Creates a cell with no readiness.
    // ukcheck: allow(alloc) -- minting a cell is control plane (once per
    // watched socket); publishing through it never allocates
    pub fn new() -> Self {
        ReadySource {
            inner: Rc::new(RefCell::new(SourceInner {
                events: EventMask::EMPTY,
                edge_seq: 0,
                watchers: Vec::new(),
            })),
        }
    }

    /// Whether two handles refer to the same cell.
    pub fn same_as(&self, other: &ReadySource) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Current level-triggered readiness.
    pub fn current(&self) -> EventMask {
        self.inner.borrow().events
    }

    /// Current edge sequence number.
    pub fn edge_seq(&self) -> u64 {
        self.inner.borrow().edge_seq
    }

    /// Replaces the level state with `events`. Bits that rise 0→1 count
    /// as an edge: the sequence number is bumped and watching queues are
    /// woken. Falling bits update the level silently (nobody is woken by
    /// a buffer becoming empty).
    pub fn set_level(&self, events: EventMask) {
        let rising = {
            let mut inner = self.inner.borrow_mut();
            let rising = events - inner.events;
            inner.events = events;
            if !rising.is_empty() {
                inner.edge_seq += 1;
            }
            rising
        };
        if !rising.is_empty() {
            self.notify_watchers();
        }
    }

    /// Sets bits (rising edges wake watchers), leaving other bits alone.
    pub fn raise(&self, events: EventMask) {
        let current = self.current();
        self.set_level(current | events);
    }

    /// Signals fresh activity without a level transition: bumps the edge
    /// sequence and wakes watchers even though the bits are unchanged.
    /// Producers call this when *more* data arrives while the readable
    /// level is already high — Linux re-triggers `EPOLLET` consumers on
    /// every new arrival, not only on empty→non-empty transitions.
    pub fn pulse(&self) {
        self.inner.borrow_mut().edge_seq += 1;
        self.notify_watchers();
    }

    /// Clears bits without waking anyone.
    pub fn clear(&self, events: EventMask) {
        let current = self.current();
        self.set_level(current - events);
    }

    // ukcheck: allow(alloc) -- `ctl_add` is control plane: the watcher
    // list grows once per (cell, queue) pair
    pub(crate) fn subscribe(&self, queue: &Rc<RefCell<QueueShared>>) {
        let mut inner = self.inner.borrow_mut();
        // Prune dead queues while we're here.
        inner.watchers.retain(|w| w.strong_count() > 0);
        if !inner
            .watchers
            .iter()
            .any(|w| w.as_ptr() == Rc::as_ptr(queue))
        {
            inner.watchers.push(Rc::downgrade(queue));
        }
    }

    pub(crate) fn unsubscribe(&self, queue: &Rc<RefCell<QueueShared>>) {
        self.inner
            .borrow_mut()
            .watchers
            .retain(|w| w.strong_count() > 0 && w.as_ptr() != Rc::as_ptr(queue));
    }

    fn notify_watchers(&self) {
        // One watcher at a time, by index, with the cell's borrow
        // released around the call: waking may re-enter user code that
        // touches this source, its watcher list included.
        let mut i = 0;
        loop {
            let watcher = match self.inner.borrow().watchers.get(i) {
                Some(w) => w.upgrade(),
                None => break,
            };
            i += 1;
            if let Some(q) = watcher {
                q.borrow_mut().on_readiness();
            }
        }
    }
}

/// Implemented by fd-bearing objects that can be placed on an
/// [`EventQueue`](crate::EventQueue) — the analog of Linux's
/// `file_operations.poll`.
pub trait Pollable {
    /// The object's current level-triggered readiness.
    fn poll_events(&self) -> EventMask;

    /// The shared cell edges are published through. Must return clones
    /// of the same cell on every call.
    fn ready_source(&self) -> ReadySource;
}

/// A bare cell is trivially pollable (used when a subsystem hands out
/// raw sources, as `uknetstack` does for sockets).
impl Pollable for ReadySource {
    fn poll_events(&self) -> EventMask {
        self.current()
    }

    fn ready_source(&self) -> ReadySource {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = ReadySource::new();
        let b = a.clone();
        a.raise(EventMask::IN);
        assert!(b.current().contains(EventMask::IN));
        assert!(a.same_as(&b));
        assert!(!a.same_as(&ReadySource::new()));
    }

    #[test]
    fn rising_edge_bumps_seq_falling_does_not() {
        let s = ReadySource::new();
        assert_eq!(s.edge_seq(), 0);
        s.raise(EventMask::IN);
        assert_eq!(s.edge_seq(), 1);
        s.raise(EventMask::IN); // already set: no edge
        assert_eq!(s.edge_seq(), 1);
        s.clear(EventMask::IN); // falling: no edge
        assert_eq!(s.edge_seq(), 1);
        s.raise(EventMask::IN); // rises again
        assert_eq!(s.edge_seq(), 2);
    }

    #[test]
    fn set_level_mixed_transition_is_one_edge() {
        let s = ReadySource::new();
        s.set_level(EventMask::IN | EventMask::OUT);
        assert_eq!(s.edge_seq(), 1);
        // OUT falls, RDHUP rises: net one more edge.
        s.set_level(EventMask::IN | EventMask::RDHUP);
        assert_eq!(s.edge_seq(), 2);
        assert_eq!(s.current(), EventMask::IN | EventMask::RDHUP);
    }
}
