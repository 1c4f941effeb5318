//! The epoll-like interest list and wait loop.

use std::cell::RefCell;
use std::collections::btree_map::{BTreeMap, RangeMut};
use std::rc::Rc;

use ukplat::{Errno, Result};
use ukstats::CounterSet;
use uksched::{ThreadId, WaitQueue};

use crate::mask::EventMask;
use crate::source::{Pollable, ReadySource};

/// One delivered readiness event (`struct epoll_event`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen token (`epoll_data`), usually the fd.
    pub token: u64,
    /// The readiness bits that fired.
    pub events: EventMask,
}

/// What [`EventQueue::wait`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Events were ready; the thread keeps running.
    Ready(Vec<Event>),
    /// Nothing ready; the calling thread was parked on the queue's
    /// [`WaitQueue`] and must block until woken by a readiness edge.
    Parked,
    /// Nothing ready and the wait's deadline is due: `epoll_wait`'s
    /// "returned 0 events" outcome. Only produced by
    /// [`EventQueue::wait_until`].
    TimedOut,
}

/// `wait` times one ready-scan in this many for the `ukevent.wait_ns`
/// histogram: on a short interest list the two clock reads cost more
/// than the scan. `ukevent.waits` counts every wait.
const WAIT_NS_SAMPLE_EVERY: u64 = 64;

ukstats::counter_rows! {
    mod row {
        /// `wait` calls (ready and parked alike); also selects the ones
        /// whose scan is timed.
        waits => "ukevent.waits";
        /// `wait` calls that found nothing ready and parked the caller.
        parks => "ukevent.parks";
        /// Threads released by readiness edges.
        wakeups => "ukevent.wakeups";
        /// Rising edges observed from watched sources.
        edges => "ukevent.edges";
        /// Timed waits that expired with nothing ready.
        timeouts => "ukevent.timeouts";
    }
}

/// State shared between the queue and the sources watching it; the part
/// a readiness edge must reach without borrowing the whole queue.
pub(crate) struct QueueShared {
    /// Threads parked in `wait`.
    waiters: WaitQueue,
    /// Threads a readiness edge released; drained by `take_wakeups` and
    /// handed to the scheduler.
    wakeups: Vec<ThreadId>,
    /// Set when any watched source published an edge (or a `ctl_add` /
    /// `ctl_mod` found its source already ready); cleared by the next
    /// ready-scan. Reported by [`EventQueue::has_pending`] so an event
    /// loop can tell "an edge arrived since I last looked" without
    /// scanning; the scan itself never consults it.
    pending: bool,
    /// When the current parked spell began (set by `wait`, consumed by
    /// the next waking edge).
    park_started: Option<std::time::Instant>,
    /// Absolute deadlines (virtual-clock ns) for threads parked via
    /// [`EventQueue::wait_until`]; expired by `fire_deadlines`.
    deadlines: Vec<(ThreadId, u64)>,
    /// What the queue counted, one cell per [`row`]. It lives here, on
    /// the side a readiness edge reaches, so the queue and its sources
    /// write the same cells — one at a time, behind the `RefCell`.
    counts: CounterSet,
    /// Park-to-wake latency: time between parking in `wait` and the
    /// readiness edge that released the queue's waiters.
    park_to_wake_ns: ukstats::Histogram,
}

impl QueueShared {
    /// Called by a source on a rising edge.
    pub(crate) fn on_readiness(&mut self) {
        self.pending = true;
        self.counts.add(row::edges, 1);
        let woken = self.waiters.wake_all();
        if !woken.is_empty() {
            // Readiness beat the timers: the woken threads' deadlines
            // are moot (re-armed on their next timed wait).
            self.deadlines.retain(|(t, _)| !woken.contains(t));
            self.counts.add(row::wakeups, woken.len() as u64);
            if let Some(parked_at) = self.park_started.take() {
                self.park_to_wake_ns.record(parked_at.elapsed().as_nanos() as u64);
            }
        }
        self.wakeups.extend(woken);
    }
}

struct Interest {
    source: ReadySource,
    mask: EventMask,
    /// Last edge sequence delivered to an `EPOLLET` subscriber.
    last_seq: u64,
    /// `EPOLLONESHOT` fired; disarmed until `ctl_mod`.
    disarmed: bool,
}

impl Interest {
    /// What this entry reports to a ready-scan, consuming the edge (and
    /// the one shot) it reports.
    fn fire(&mut self) -> Option<EventMask> {
        if self.disarmed {
            return None;
        }
        let fired = self.source.current() & (self.mask.payload() | EventMask::ALWAYS);
        if fired.is_empty() {
            return None;
        }
        if self.mask.contains(EventMask::ET) {
            let seq = self.source.edge_seq();
            if seq <= self.last_seq {
                return None; // Edge already consumed.
            }
            self.last_seq = seq;
        }
        if self.mask.contains(EventMask::ONESHOT) {
            self.disarmed = true;
        }
        Some(fired)
    }
}

/// An epoll instance: interest list, ready scan, parking wait.
pub struct EventQueue {
    shared: Rc<RefCell<QueueShared>>,
    /// Token → interest. BTreeMap gives deterministic delivery order.
    interest: BTreeMap<u64, Interest>,
    /// Events delivered over the queue's lifetime.
    delivered: u64,
    /// Scan cursor: the token after the last one delivered. Each
    /// ready-scan starts here so a full `max_events` batch of low
    /// tokens cannot starve higher ones (Linux rotates its ready list
    /// the same way).
    scan_from: u64,
    /// `epoll_wait` latency: duration of the ready-scan inside `wait`
    /// (one wait in [`WAIT_NS_SAMPLE_EVERY`] is timed).
    wait_ns: ukstats::Histogram,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("interest", &self.interest.len())
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl EventQueue {
    /// Creates an empty queue (`epoll_create1`).
    pub fn new() -> Self {
        EventQueue {
            shared: Rc::new(RefCell::new(QueueShared {
                waiters: WaitQueue::new(),
                wakeups: Vec::new(),
                pending: false,
                park_started: None,
                deadlines: Vec::new(),
                counts: CounterSet::new(row::NAMES),
                park_to_wake_ns: ukstats::Histogram::register("ukevent.park_to_wake_ns"),
            })),
            interest: BTreeMap::new(),
            delivered: 0,
            scan_from: 0,
            wait_ns: ukstats::Histogram::register("ukevent.wait_ns"),
        }
    }

    /// Adds `pollable` under `token` (`EPOLL_CTL_ADD`). Fails with
    /// `EEXIST` if the token is already present.
    pub fn ctl_add(&mut self, token: u64, pollable: &dyn Pollable, mask: EventMask) -> Result<()> {
        if self.interest.contains_key(&token) {
            return Err(Errno::Exist);
        }
        let source = pollable.ready_source();
        source.subscribe(&self.shared);
        // A source that is already ready must be delivered by the next
        // wait, even in edge mode (Linux does the same on ADD).
        let last_seq = source.edge_seq().saturating_sub(u64::from(
            !source.current().payload().is_empty(),
        ));
        if !source.current().intersects(mask.payload() | EventMask::ALWAYS) {
            // Nothing ready right now; nothing pending from this source.
        } else {
            self.shared.borrow_mut().pending = true;
        }
        self.interest.insert(
            token,
            Interest {
                source,
                mask,
                last_seq,
                disarmed: false,
            },
        );
        Ok(())
    }

    /// Changes the mask for `token` (`EPOLL_CTL_MOD`); re-arms a fired
    /// `EPOLLONESHOT` entry. Fails with `ENOENT` for unknown tokens.
    pub fn ctl_mod(&mut self, token: u64, mask: EventMask) -> Result<()> {
        let entry = self.interest.get_mut(&token).ok_or(Errno::NoEnt)?;
        entry.mask = mask;
        entry.disarmed = false;
        if entry
            .source
            .current()
            .intersects(mask.payload() | EventMask::ALWAYS)
        {
            self.shared.borrow_mut().pending = true;
        }
        Ok(())
    }

    /// Removes `token` (`EPOLL_CTL_DEL`). Fails with `ENOENT` if absent.
    pub fn ctl_del(&mut self, token: u64) -> Result<()> {
        let entry = self.interest.remove(&token).ok_or(Errno::NoEnt)?;
        // Another token may watch the same cell; only drop the queue's
        // subscription when the last such entry goes.
        let still_watched = self
            .interest
            .values()
            .any(|e| e.source.same_as(&entry.source));
        if !still_watched {
            entry.source.unsubscribe(&self.shared);
        }
        Ok(())
    }

    /// Whether `token` is registered.
    pub fn watches(&self, token: u64) -> bool {
        self.interest.contains_key(&token)
    }

    /// Number of interest-list entries.
    pub fn len(&self) -> usize {
        self.interest.len()
    }

    /// Whether the interest list is empty.
    pub fn is_empty(&self) -> bool {
        self.interest.is_empty()
    }

    /// Scans the interest list and returns up to `max_events` ready
    /// events without blocking (`epoll_wait` with timeout 0) — the
    /// allocating convenience form of
    /// [`poll_ready_into`](Self::poll_ready_into).
    pub fn poll_ready(&mut self, max_events: usize) -> Vec<Event> {
        let mut out = Vec::new();
        self.poll_ready_into(&mut out, max_events);
        out
    }

    /// The ready-scan proper: clears `out`, then fills it with up to
    /// `max_events` ready events. An event loop
    /// keeps one `out` for its lifetime (`epoll_wait`'s caller-owned
    /// `events` array), so a turn of the loop takes nothing from the
    /// heap once that vector has held a full batch.
    ///
    /// Level-triggered entries report whenever their readiness
    /// intersects the mask; edge-triggered entries only report when the
    /// source's edge sequence advanced past the last delivery. `EPOLLERR`
    /// and `EPOLLHUP` are always reported, subscribed or not.
    pub fn poll_ready_into(&mut self, out: &mut Vec<Event>, max_events: usize) {
        self.shared.borrow_mut().pending = false;
        let cap = max_events.max(1);
        out.clear();
        let mut scan = |range: RangeMut<'_, u64, Interest>| {
            for (&token, entry) in range {
                if out.len() >= cap {
                    break;
                }
                if let Some(events) = entry.fire() {
                    out.push(Event { token, events });
                }
            }
        };
        // Rotated scan order: tokens >= cursor first, then the rest.
        scan(self.interest.range_mut(self.scan_from..));
        scan(self.interest.range_mut(..self.scan_from));
        if let Some(last) = out.last() {
            self.scan_from = last.token.wrapping_add(1);
        }
        self.delivered += out.len() as u64;
    }

    /// `epoll_wait`: returns ready events, or parks `tid` on the queue's
    /// wait queue when nothing is ready. The caller's thread must then
    /// block ([`uksched::StepResult::Block`]); a readiness edge releases
    /// it through [`take_wakeups`](Self::take_wakeups).
    pub fn wait(&mut self, max_events: usize, tid: ThreadId) -> WaitOutcome {
        self.wait_inner(max_events, tid, None)
    }

    /// `epoll_wait(timeout)`: like [`wait`](Self::wait), but the park
    /// carries an absolute virtual-clock deadline. A deadline already
    /// due returns [`WaitOutcome::TimedOut`] without parking (epoll's
    /// `timeout == 0` poll). Otherwise the caller blocks and whoever
    /// drives the clock — typically a timer-wheel slot armed at
    /// [`next_deadline`](Self::next_deadline) — expires the park with
    /// [`fire_deadlines`](Self::fire_deadlines); the rerun `wait_until`
    /// then observes the due deadline and reports the timeout.
    pub fn wait_until(
        &mut self,
        max_events: usize,
        tid: ThreadId,
        now_ns: u64,
        deadline_ns: u64,
    ) -> WaitOutcome {
        self.wait_inner(max_events, tid, Some((now_ns, deadline_ns)))
    }

    /// Both waits: scan, then park unless `timed`'s `(now_ns,
    /// deadline_ns)` says the deadline is due.
    fn wait_inner(
        &mut self,
        max_events: usize,
        tid: ThreadId,
        timed: Option<(u64, u64)>,
    ) -> WaitOutcome {
        let scan_start = {
            let shared = self.shared.borrow();
            let waits = shared.counts.get(row::waits);
            shared.counts.add(row::waits, 1);
            waits.is_multiple_of(WAIT_NS_SAMPLE_EVERY).then(std::time::Instant::now)
        };
        let events = self.poll_ready(max_events);
        if let Some(t0) = scan_start {
            self.wait_ns.record(t0.elapsed().as_nanos() as u64);
        }
        if !events.is_empty() {
            return WaitOutcome::Ready(events);
        }
        let mut shared = self.shared.borrow_mut();
        // This wait's deadline — or its having none — supersedes any
        // the thread left behind.
        shared.deadlines.retain(|(t, _)| *t != tid);
        if let Some((now_ns, deadline_ns)) = timed {
            if deadline_ns <= now_ns {
                shared.counts.add(row::timeouts, 1);
                return WaitOutcome::TimedOut;
            }
            shared.deadlines.push((tid, deadline_ns));
        }
        shared.counts.add(row::parks, 1);
        shared.park_started = Some(std::time::Instant::now());
        shared.waiters.wait(tid);
        WaitOutcome::Parked
    }

    /// Expires timed parks: every thread whose deadline is ≤ `now_ns`
    /// leaves the wait queue and joins the wakeup list (drained by
    /// [`take_wakeups`](Self::take_wakeups)). Returns how many expired.
    pub fn fire_deadlines(&mut self, now_ns: u64) -> usize {
        let mut shared = self.shared.borrow_mut();
        let mut fired = 0;
        let mut i = 0;
        while i < shared.deadlines.len() {
            if shared.deadlines[i].1 <= now_ns {
                let (tid, _) = shared.deadlines.swap_remove(i);
                if shared.waiters.remove(tid) {
                    shared.wakeups.push(tid);
                    fired += 1;
                }
            } else {
                i += 1;
            }
        }
        fired
    }

    /// Earliest deadline among parked timed waits — the instant a
    /// timer wheel should arm its wakeup for this queue.
    pub fn next_deadline(&self) -> Option<u64> {
        self.shared.borrow().deadlines.iter().map(|&(_, d)| d).min()
    }

    /// Threads released by readiness edges since the last call; hand
    /// them to `Scheduler::wake`.
    pub fn take_wakeups(&mut self) -> Vec<ThreadId> {
        std::mem::take(&mut self.shared.borrow_mut().wakeups)
    }

    /// Whether an edge arrived since the last ready-scan.
    pub fn has_pending(&self) -> bool {
        self.shared.borrow().pending
    }

    /// Parked thread count.
    pub fn waiter_count(&self) -> usize {
        self.shared.borrow().waiters.len()
    }

    /// Events delivered over the queue's lifetime.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Rising edges observed from watched sources.
    pub fn edges_seen(&self) -> u64 {
        self.shared.borrow().counts.get(row::edges)
    }
}

impl Drop for EventQueue {
    fn drop(&mut self) {
        for entry in self.interest.values() {
            entry.source.unsubscribe(&self.shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_tokens(events: &[Event]) -> Vec<u64> {
        events.iter().map(|e| e.token).collect()
    }

    #[test]
    fn level_triggered_fires_until_cleared() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        q.ctl_add(1, &s, EventMask::IN).unwrap();
        assert!(q.poll_ready(8).is_empty());
        s.raise(EventMask::IN);
        assert_eq!(ready_tokens(&q.poll_ready(8)), vec![1]);
        // Still set: level-triggered fires again.
        assert_eq!(ready_tokens(&q.poll_ready(8)), vec![1]);
        s.clear(EventMask::IN);
        assert!(q.poll_ready(8).is_empty());
    }

    #[test]
    fn edge_triggered_fires_once_per_edge() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        q.ctl_add(1, &s, EventMask::IN | EventMask::ET).unwrap();
        s.raise(EventMask::IN);
        assert_eq!(q.poll_ready(8).len(), 1);
        assert!(q.poll_ready(8).is_empty(), "edge consumed");
        // No new edge while the level stays high.
        s.raise(EventMask::IN);
        assert!(q.poll_ready(8).is_empty());
        // Falling then rising is a fresh edge.
        s.clear(EventMask::IN);
        s.raise(EventMask::IN);
        assert_eq!(q.poll_ready(8).len(), 1);
    }

    #[test]
    fn oneshot_disarms_until_mod() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        q.ctl_add(1, &s, EventMask::IN | EventMask::ONESHOT).unwrap();
        s.raise(EventMask::IN);
        assert_eq!(q.poll_ready(8).len(), 1);
        assert!(q.poll_ready(8).is_empty(), "disarmed");
        q.ctl_mod(1, EventMask::IN | EventMask::ONESHOT).unwrap();
        assert_eq!(q.poll_ready(8).len(), 1, "re-armed by MOD");
    }

    #[test]
    fn hup_and_err_report_even_unsubscribed() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        q.ctl_add(1, &s, EventMask::IN).unwrap();
        s.raise(EventMask::HUP);
        let ev = q.poll_ready(8);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].events.contains(EventMask::HUP));
    }

    #[test]
    fn ctl_errors_match_epoll() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        q.ctl_add(1, &s, EventMask::IN).unwrap();
        assert_eq!(q.ctl_add(1, &s, EventMask::IN).unwrap_err(), Errno::Exist);
        assert_eq!(q.ctl_mod(2, EventMask::IN).unwrap_err(), Errno::NoEnt);
        assert_eq!(q.ctl_del(2).unwrap_err(), Errno::NoEnt);
        q.ctl_del(1).unwrap();
        assert!(!q.watches(1));
    }

    #[test]
    fn add_of_already_ready_source_is_delivered_in_et_mode() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        s.raise(EventMask::IN);
        q.ctl_add(1, &s, EventMask::IN | EventMask::ET).unwrap();
        assert_eq!(q.poll_ready(8).len(), 1, "pre-existing readiness delivers");
    }

    #[test]
    fn wait_parks_and_edge_wakes() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        q.ctl_add(1, &s, EventMask::IN).unwrap();
        let tid = ThreadId(7);
        assert_eq!(q.wait(8, tid), WaitOutcome::Parked);
        assert_eq!(q.waiter_count(), 1);
        assert!(q.take_wakeups().is_empty());
        s.raise(EventMask::IN);
        assert_eq!(q.take_wakeups(), vec![tid]);
        assert_eq!(q.waiter_count(), 0);
        match q.wait(8, tid) {
            WaitOutcome::Ready(ev) => assert_eq!(ev[0].token, 1),
            other => panic!("should be ready, got {other:?}"),
        }
    }

    #[test]
    fn scan_rotates_so_low_tokens_cannot_starve() {
        let mut q = EventQueue::new();
        let sources: Vec<ReadySource> = (0..5).map(|_| ReadySource::new()).collect();
        for (i, s) in sources.iter().enumerate() {
            q.ctl_add(i as u64, s, EventMask::IN).unwrap();
            s.raise(EventMask::IN);
        }
        // With everything persistently ready and max_events=2, repeated
        // scans must visit every token, not the lowest two forever.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..5 {
            for ev in q.poll_ready(2) {
                seen.insert(ev.token);
            }
        }
        assert_eq!(seen.len(), 5, "rotation covers all tokens: {seen:?}");
    }

    #[test]
    fn max_events_caps_delivery() {
        let mut q = EventQueue::new();
        let sources: Vec<ReadySource> = (0..5).map(|_| ReadySource::new()).collect();
        for (i, s) in sources.iter().enumerate() {
            q.ctl_add(i as u64, s, EventMask::IN).unwrap();
            s.raise(EventMask::IN);
        }
        assert_eq!(q.poll_ready(3).len(), 3);
        assert_eq!(q.poll_ready(100).len(), 5);
    }

    #[test]
    fn ctl_del_keeps_subscription_for_sibling_token() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        q.ctl_add(1, &s, EventMask::IN).unwrap();
        q.ctl_add(2, &s, EventMask::IN).unwrap();
        q.ctl_del(1).unwrap();
        // The remaining token must still produce wakeups for parked
        // waiters: the queue stays subscribed to the shared cell.
        let tid = ThreadId(3);
        assert_eq!(q.wait(8, tid), WaitOutcome::Parked);
        s.raise(EventMask::IN);
        assert_eq!(q.take_wakeups(), vec![tid]);
        match q.wait(8, tid) {
            WaitOutcome::Ready(ev) => assert_eq!(ev[0].token, 2),
            other => panic!("sibling token must deliver, got {other:?}"),
        }
        // Removing the last token drops the subscription for real.
        q.ctl_del(2).unwrap();
        s.clear(EventMask::IN);
        assert_eq!(q.wait(8, tid), WaitOutcome::Parked);
        s.raise(EventMask::IN);
        assert!(q.take_wakeups().is_empty(), "no interest, no wakeup");
    }

    #[test]
    fn timed_wait_expires_via_fire_deadlines() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        q.ctl_add(1, &s, EventMask::IN).unwrap();
        let tid = ThreadId(9);
        // Nothing ready, future deadline: parks and records it.
        assert_eq!(q.wait_until(8, tid, 1_000, 5_000), WaitOutcome::Parked);
        assert_eq!(q.waiter_count(), 1);
        assert_eq!(q.next_deadline(), Some(5_000));
        // Clock short of the deadline: nothing fires.
        assert_eq!(q.fire_deadlines(4_999), 0);
        assert!(q.take_wakeups().is_empty());
        // Deadline reached: the parked thread becomes a wakeup, and
        // its rerun wait observes the timeout.
        assert_eq!(q.fire_deadlines(5_000), 1);
        assert_eq!(q.take_wakeups(), vec![tid]);
        assert_eq!(q.waiter_count(), 0);
        assert_eq!(q.next_deadline(), None);
        assert_eq!(q.wait_until(8, tid, 5_000, 5_000), WaitOutcome::TimedOut);
    }

    #[test]
    fn timed_wait_prefers_readiness_over_timeout() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        q.ctl_add(1, &s, EventMask::IN).unwrap();
        let tid = ThreadId(4);
        assert_eq!(q.wait_until(8, tid, 0, 1_000), WaitOutcome::Parked);
        // The edge wins the race: wakes the thread and retires its
        // deadline so a later clock tick cannot double-wake it.
        s.raise(EventMask::IN);
        assert_eq!(q.take_wakeups(), vec![tid]);
        assert_eq!(q.next_deadline(), None);
        assert_eq!(q.fire_deadlines(1_000), 0);
        match q.wait_until(8, tid, 500, 1_000) {
            WaitOutcome::Ready(ev) => assert_eq!(ev[0].token, 1),
            other => panic!("expected events, got {other:?}"),
        }
        // An expired deadline with events ready still delivers them.
        match q.wait_until(8, tid, 2_000, 1_000) {
            WaitOutcome::Ready(ev) => assert_eq!(ev[0].token, 1),
            other => panic!("expected events, got {other:?}"),
        }
    }

    #[test]
    fn untimed_wait_clears_stale_deadline() {
        let mut q = EventQueue::new();
        let s = ReadySource::new();
        q.ctl_add(1, &s, EventMask::IN).unwrap();
        let tid = ThreadId(2);
        assert_eq!(q.wait_until(8, tid, 0, 700), WaitOutcome::Parked);
        // Rewaiting without a timeout supersedes the old deadline: a
        // later clock tick must not wake this park.
        assert_eq!(q.wait(8, tid), WaitOutcome::Parked);
        assert_eq!(q.next_deadline(), None);
        assert_eq!(q.fire_deadlines(u64::MAX), 0);
        assert_eq!(q.waiter_count(), 1, "still parked, untimed");
    }

    #[test]
    fn multiple_queues_watch_one_source() {
        let mut q1 = EventQueue::new();
        let mut q2 = EventQueue::new();
        let s = ReadySource::new();
        q1.ctl_add(1, &s, EventMask::IN).unwrap();
        q2.ctl_add(2, &s, EventMask::IN | EventMask::ET).unwrap();
        s.raise(EventMask::IN);
        assert_eq!(q1.poll_ready(8).len(), 1);
        assert_eq!(q2.poll_ready(8).len(), 1);
        assert_eq!(q1.poll_ready(8).len(), 1, "LT re-fires");
        assert!(q2.poll_ready(8).is_empty(), "ET consumed");
    }
}
