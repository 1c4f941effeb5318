//! Time: when a connection wants waking, the wake when its deadline
//! comes due, and the reaping of a connection whose time is up.
//!
//! Every stack has a clock from construction
//! ([`NetStack::set_clock`] replaces it). A connection's timeouts are
//! all its TCB's but one, the linger of a closed connection; the
//! connection table queues each connection once, at the earliest
//! ([`Tcb::next_deadline`]) as of its last flush, to the nanosecond
//! (README, "Time").
//!
//! [`Tcb::next_deadline`]: crate::tcp::Tcb::next_deadline

use ukevent::EventMask;

use super::conns::{ConnId, TcpConn};
use super::sockets::publish;
use super::stats::publish_tcb_stats;
#[cfg_attr(not(feature = "trace"), allow(unused_imports))]
use super::tp;
use super::NetStack;
use crate::tcp::TcpState;

/// A connection closed by its peer or a reset lingers this long before
/// its slot is reclaimed (and keeps being re-checked on the same
/// cadence while the application still has readable data to drain) —
/// the one deadline of a connection that is the stack's, not its TCB's.
const CLOSED_LINGER_NS: u64 = 10_000_000;

// Reap-reason codes carried by the `tcp_conn_reaped` tracepoint.
const REAP_CLOSED: u64 = 0;
const REAP_HANDSHAKE: u64 = 1;
const REAP_KEEPALIVE: u64 = 2;
const REAP_FINWAIT2: u64 = 3;
pub(super) const REAP_TIMEWAIT: u64 = 4;
pub(super) const REAP_SYN_EVICTED: u64 = 5;

impl TcpConn {
    /// When the connection wants waking, as a flush leaves it: its
    /// TCB's earliest deadline while it is open; once it is closed, the
    /// end of its linger, which starts at the first flush that sees it
    /// closed — whatever its TCB had armed was for its past — and again
    /// after a wake that found the application still owing a read.
    #[inline]
    pub(super) fn wake_at(&mut self, now: u64) -> Option<u64> {
        if self.tcb.state == TcpState::Closed {
            Some(*self.linger_until.get_or_insert(now + CLOSED_LINGER_NS))
        } else {
            self.tcb.next_deadline()
        }
    }
}

impl NetStack {
    /// Wakes every connection whose deadline is due, earliest first.
    /// Cost is O(log n) per connection woken, not O(connections) — 100
    /// K idle connections cost the tick nothing. A wake never puts its
    /// connection back on the queue (the flush does), so the loop ends.
    pub(super) fn tcp_timer_tick(&mut self) {
        let now = self.now_ns();
        while let Some(id) = self.conns.pop_due(now) {
            self.dispatch_timer(id, now);
        }
    }

    /// Wakes connection `id`, whose deadline came due: its TCB fires
    /// whatever is due. A connection its protocol timeout just closed
    /// is reaped here, and so is a lingering closed one nobody owes a
    /// read; any other goes on the dirty list, and the flush that
    /// follows polls what the fire left and queues the deadline it now
    /// wants. A wake that finds nothing due comes from an ingest
    /// earlier in this sweep, which moved the deadline and dirtied the
    /// connection already, or from a linger the application still owes
    /// a read, which starts over: the flush re-keys both.
    fn dispatch_timer(&mut self, id: ConnId, now: u64) {
        let Some(c) = self.conns.get_mut(id) else { return };
        let lingered = c.linger_until.take().is_some();
        c.tcb.on_time(now);
        let key = id.key();
        publish_tcb_stats(&self.counts, &mut self.trace, key, now, &mut c.published, c.tcb.stats());
        let reap = match c.tcb.timed_out() {
            Some(TcpState::SynSent | TcpState::SynReceived) => Some(REAP_HANDSHAKE),
            Some(TcpState::FinWait2) => Some(REAP_FINWAIT2),
            Some(TcpState::TimeWait) => Some(REAP_TIMEWAIT),
            Some(_) => Some(REAP_KEEPALIVE),
            None if lingered && c.tcb.readable() == 0 => Some(REAP_CLOSED),
            None => None,
        };
        match reap {
            Some(reason) => self.reap_conn(id, reason),
            None => self.conns.mark_dirty(id),
        }
    }

    /// Tears a connection down completely: takes it off the timer
    /// queue and the flow table, scrubs it from its listener's queues,
    /// returns **every** buffer it holds (send, receive, reassembly,
    /// staged control) to the pool, frees the slab slot and publishes
    /// the final `EPOLLHUP` — the cell then drops with the connection,
    /// so the slot's next occupant can never publish into this one's
    /// watchers. In-flight TX frames tagged with the old generation
    /// fall through to the pool on return — nothing leaks.
    // `_reason` feeds only the `tcp_conn_reaped` tracepoint (unused
    // when tracing is compiled out, hence the underscore).
    pub(super) fn reap_conn(&mut self, id: ConnId, _reason: u64) {
        let Some(mut c) = self.conns.remove(id) else {
            return;
        };
        if let Some(l) = self.listeners.get_mut(&c.local_port) {
            l.syn_queue.retain(|&s| s != id);
            l.backlog.retain(|&s| s != id.handle());
            publish(&l.ready, || l.readiness(), false);
        }
        self.gro.forget(id);
        c.tcb.drain_all_buffers(|nb| self.pool.give_back_chain(nb));
        uktrace::trace!(self.trace, tp::tcp_conn_reaped, id.key(), _reason);
        publish(&c.ready, || EventMask::HUP, false);
    }
}
