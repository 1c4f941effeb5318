//! Wait queues.
//!
//! Drivers and filesystems park threads here until an event (interrupt,
//! completion) wakes one or all of them — the mechanism behind §3.1's
//! "the interrupt callback could be used to unblock a receiving or
//! sending thread".

use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::thread::ThreadId;

/// Global park/wake counters shared by every wait queue (names dedup in
/// the registry anyway; one resolve pays the registration lock once).
fn counters() -> &'static (ukstats::Counter, ukstats::Counter) {
    static C: OnceLock<(ukstats::Counter, ukstats::Counter)> = OnceLock::new();
    C.get_or_init(|| {
        (
            ukstats::Counter::register("uksched.parks"),
            ukstats::Counter::register("uksched.wakes"),
        )
    })
}

/// A FIFO wait queue of thread ids.
#[derive(Debug, Default, Clone)]
pub struct WaitQueue {
    waiters: VecDeque<ThreadId>,
}

impl WaitQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks `id` on the queue. The caller must also block the thread in
    /// its scheduler.
    pub fn wait(&mut self, id: ThreadId) {
        if !self.waiters.contains(&id) {
            self.waiters.push_back(id);
            counters().0.inc();
        }
    }

    /// Drains all waiters.
    pub fn wake_all(&mut self) -> Vec<ThreadId> {
        let woken: Vec<ThreadId> = self.waiters.drain(..).collect();
        counters().1.add(woken.len() as u64);
        woken
    }

    /// Removes a specific thread (e.g. on timeout).
    pub fn remove(&mut self, id: ThreadId) -> bool {
        match self.waiters.iter().position(|w| *w == id) {
            Some(i) => {
                self.waiters.remove(i);
                true
            }
            None => false,
        }
    }

    /// Number of parked threads.
    pub fn len(&self) -> usize {
        self.waiters.len()
    }

    /// Whether nobody waits.
    pub fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = WaitQueue::new();
        q.wait(ThreadId(1));
        q.wait(ThreadId(2));
        assert_eq!(q.wake_all(), [ThreadId(1), ThreadId(2)]);
        assert!(q.wake_all().is_empty());
    }

    #[test]
    fn duplicate_wait_ignored() {
        let mut q = WaitQueue::new();
        q.wait(ThreadId(1));
        q.wait(ThreadId(1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn wake_all_drains() {
        let mut q = WaitQueue::new();
        for i in 0..5 {
            q.wait(ThreadId(i));
        }
        let woken = q.wake_all();
        assert_eq!(woken.len(), 5);
        assert!(q.is_empty());
    }

    #[test]
    fn remove_specific() {
        let mut q = WaitQueue::new();
        q.wait(ThreadId(1));
        q.wait(ThreadId(2));
        assert!(q.remove(ThreadId(1)));
        assert!(!q.remove(ThreadId(9)));
        assert_eq!(q.wake_all(), [ThreadId(2)]);
    }
}
