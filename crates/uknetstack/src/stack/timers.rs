//! Time: the one wheel entry a connection keeps, the wake when it
//! fires, and the reaping of a connection whose time is up.
//!
//! Every stack has a clock from construction
//! ([`NetStack::set_clock`] replaces it). A connection's timeouts are
//! all its TCB's; the stack keeps **one** wheel entry per connection, at
//! or before the earliest ([`Tcb::next_deadline`]), re-armed lazily
//! (README, "Time").
//!
//! [`Tcb::next_deadline`]: crate::tcp::Tcb::next_deadline

use ukevent::EventMask;
use ukstats::CounterSet;

use super::conns::{ConnId, TcpConn};
use super::sockets::publish;
use super::stats::{publish_tcb_stats, row};
#[cfg_attr(not(feature = "trace"), allow(unused_imports))]
use super::tp;
use super::NetStack;
use crate::tcp::TcpState;
use crate::timer::{TimerToken, TimerWheel};

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
    /// Brings the connection's wheel entry in line with what its TCB
    /// now wants, after a flush polled it — lazily: a deadline that
    /// moved *later* leaves the entry where it is (it fires, finds
    /// nothing due, and is brought in line again), so a
    /// request/response exchange, whose every deadline is later than
    /// the last, touches the wheel not at all. Only an earlier deadline
    /// re-arms, and only a TCB that wants nothing cancels.
    /// (`ConnTable::sync_timer` is the caller: it knows the key.)
    #[inline]
    pub(super) fn sync_timer(
        &mut self,
        wheel: &mut TimerWheel,
        counts: &CounterSet,
        key: u64,
        now: u64,
    ) {
        let want = if self.tcb.state != TcpState::Closed {
            self.tcb.next_deadline()
        } else if self.lingering {
            return;
        } else {
            // Closed by the peer or a reset: whatever was armed was for
            // the connection's past. The linger starts now.
            wheel.cancel(std::mem::take(&mut self.timer));
            self.lingering = true;
            Some(now + CLOSED_LINGER_NS)
        };
        match want {
            Some(d) if self.timer.is_none() || d < self.armed_at => {
                wheel.cancel(self.timer);
                self.timer = wheel.arm(d, key);
                self.armed_at = d;
                counts.add(row::timer_arms, 1);
            }
            Some(_) => {}
            None => {
                wheel.cancel(std::mem::take(&mut self.timer));
            }
        }
    }
}

impl NetStack {
    /// Advances the timer wheel to the clock and wakes every
    /// connection whose entry expired. Cost is O(expired entries), not
    /// O(connections) — 100 K idle connections cost the tick nothing.
    pub(super) fn tcp_timer_tick(&mut self) {
        let now = self.now_ns();
        self.fired_scratch.clear();
        self.wheel.advance(now, |key, _deadline| self.fired_scratch.push(key));
        for i in 0..self.fired_scratch.len() {
            self.dispatch_timer(self.fired_scratch[i], now);
        }
    }

    /// Wakes the connection an expired wheel entry belongs to (the key
    /// carries the slot and the generation it was armed under — a
    /// reused slot ignores stale fires): its TCB fires whatever is due.
    /// When that is nothing — the entry outlived its deadline — the
    /// entry is re-armed for the current one, and that is all. A
    /// connection its protocol timeout just closed is reaped here, and
    /// so is a lingering closed one nobody owes a read; after any other
    /// fire the flush polls what it left and arms the next entry.
    fn dispatch_timer(&mut self, key: u64, now: u64) {
        let Some(id) = ConnId::from_key(key) else { return };
        let Some(c) = self.conns.get_mut(id) else { return };
        c.timer = TimerToken::NONE;
        let lingered = std::mem::take(&mut c.lingering);
        let fired = c.tcb.on_time(now);
        publish_tcb_stats(&self.counts, &mut self.trace, key, now, &mut c.published, c.tcb.stats());
        let reap = match c.tcb.timed_out() {
            Some(TcpState::SynSent | TcpState::SynReceived) => Some(REAP_HANDSHAKE),
            Some(TcpState::FinWait2) => Some(REAP_FINWAIT2),
            Some(TcpState::TimeWait) => Some(REAP_TIMEWAIT),
            Some(_) => Some(REAP_KEEPALIVE),
            // While the application still owes a read, the linger
            // starts over.
            None if lingered && c.tcb.readable() == 0 => Some(REAP_CLOSED),
            None => None,
        };
        match reap {
            Some(reason) => self.reap_conn(id, reason),
            None if fired => self.conns.mark_dirty(id),
            None => self.conns.sync_timer(id, &mut self.wheel, &self.counts, now),
        }
    }

    /// Tears a connection down completely: cancels its wheel entry,
    /// removes its flow entry, scrubs it from its listener's queues,
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
        self.wheel.cancel(c.timer);
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

    /// The lazy re-arm's invariant, checked like the readiness one: the
    /// wheel holds at most one entry per connection, and every
    /// connection the last flush left clean has its earliest deadline
    /// covered by an entry armed at or before it.
    #[cfg(debug_assertions)]
    pub(super) fn assert_deadlines_armed(&self) {
        assert!(self.wheel.len() <= self.tcp_conn_count(), "more wheel entries than connections");
        for c in self.conns.clean().filter(|c| c.tcb.state != TcpState::Closed) {
            if let Some(d) = c.tcb.next_deadline() {
                assert!(!c.timer.is_none() && c.armed_at <= d, "deadline {d} has no wheel entry");
            }
        }
    }
}
