//! The five deadlines a TCB keeps ([`TcbTimer`]): reporting them,
//! firing them, and [`TcbTimer::Life`] — the protocol timeout of the
//! state the connection is in — whole. What an RTO or RACK fire *does*
//! is `recovery`'s; the output poll is what arms.

use super::*;

/// The timers a TCB runs: [`Tcb::deadline`] says when each is due and
/// [`Tcb::on_timer`] fires it. An owner needs neither — it wakes the
/// TCB at [`Tcb::next_deadline`] and [`Tcb::on_time`] fires whatever is
/// due, in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcbTimer {
    /// Retransmission timeout, or the persist timer behind a closed
    /// zero window.
    Rto,
    /// The hold on the ACK of in-order data (rule (e) of the ACK
    /// policy).
    DelAck,
    /// RACK: the nearer of the reordering-window and tail-loss-probe
    /// deadlines.
    Rack,
    /// The recovery pacing gate's next release.
    Pace,
    /// The protocol timeout of the current state: the handshake
    /// ([`HANDSHAKE_TIMEOUT_NS`]), FIN_WAIT_2 ([`FINWAIT2_TIMEOUT_NS`])
    /// and TIME_WAIT (2 × [`TCP_MSL_NS`]) end in `Closed` when it
    /// fires; with [`keepalive`](super::TcbConfig::keepalive) an idle
    /// established connection is probed and, unanswered, closed.
    Life,
}

impl TcbTimer {
    /// Every kind, in firing order.
    pub const ALL: [TcbTimer; 5] =
        [TcbTimer::Rto, TcbTimer::DelAck, TcbTimer::Rack, TcbTimer::Pace, TcbTimer::Life];
}

impl Tcb {
    /// The earliest armed deadline, if any: when the owner must next
    /// call [`on_time`](Self::on_time). It moves with every segment and
    /// poll; an owner that wakes the TCB at a stale, earlier time loses
    /// nothing (`on_time` then fires nothing).
    pub fn next_deadline(&self) -> Option<u64> {
        TcbTimer::ALL.into_iter().filter_map(|kind| self.deadline(kind)).min()
    }

    /// Fires every timer that is due at `now_ns`, in [`TcbTimer::ALL`]
    /// order, and says whether any was. Whatever the fires decided
    /// leaves at the next output poll — except a [`TcbTimer::Life`]
    /// expiry, which closes the connection on the spot
    /// ([`timed_out`](Self::timed_out)).
    pub fn on_time(&mut self, now_ns: u64) -> bool {
        self.set_now(now_ns);
        let mut fired = false;
        for kind in TcbTimer::ALL {
            if self.deadline(kind).is_some_and(|d| d <= now_ns) {
                self.on_timer(kind, now_ns);
                fired = true;
            }
        }
        fired
    }

    /// The state the connection was in when its protocol timeout closed
    /// it: `SynSent`/`SynReceived` (handshake), `Established`/`CloseWait`
    /// (keepalive found the peer dead), `FinWait2` or `TimeWait`. `None`
    /// for a connection that is open or closed some other way.
    pub fn timed_out(&self) -> Option<TcpState> {
        self.timed_out
    }

    /// When `kind` is due, if it is armed.
    pub fn deadline(&self, kind: TcbTimer) -> Option<u64> {
        match kind {
            TcbTimer::Rto => self.rtx_deadline_ns,
            TcbTimer::DelAck => self.ack_deadline_ns,
            TcbTimer::Rack => match (self.reo_deadline_ns, self.tlp_deadline_ns) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            TcbTimer::Pace => self.pace_deadline_ns,
            TcbTimer::Life => self.life_deadline_ns,
        }
    }

    /// The timer for `kind` expired at `now_ns`. Whatever the fire
    /// decided leaves at the next output poll; what it counted shows in
    /// [`stats`](Self::stats) (`rto_fires`, `delack_fires`,
    /// `fast_retransmits` or `tlp_probes`, `paced_releases`,
    /// `keepalive_probes` or `keepalive_drops`). A fire that finds its
    /// deadline moved on or disarmed does nothing.
    pub fn on_timer(&mut self, kind: TcbTimer, now_ns: u64) {
        self.set_now(now_ns);
        match kind {
            TcbTimer::Rto => self.on_rto(now_ns),
            // Rule (e) of the ACK policy: the held ACK leaves now.
            TcbTimer::DelAck => {
                if self.ack_deadline_ns.take().is_some() {
                    self.ack_now = true;
                    self.stats.delack_fires += 1;
                }
            }
            TcbTimer::Rack => self.on_rack(now_ns),
            TcbTimer::Pace => {
                if self.pace_deadline_ns.is_some_and(|d| d <= now_ns) {
                    self.pace_deadline_ns = None;
                    self.pace_budget = self.pace_quantum();
                    self.stats.paced_releases += 1;
                }
            }
            TcbTimer::Life => self.on_life(now_ns),
        }
    }

    /// Derives the [`TcbTimer::Life`] deadline of the state the
    /// connection is in now, if it is not the state the armed one was
    /// derived in: each timed state is given its whole timeout from the
    /// poll that first sees it, and retransmissions within it do not
    /// start it over.
    pub(super) fn arm_life(&mut self) {
        if self.state == self.life_state {
            return;
        }
        self.life_state = self.state;
        self.life_deadline_ns = match self.state {
            TcpState::SynSent | TcpState::SynReceived => Some(self.now_ns + HANDSHAKE_TIMEOUT_NS),
            TcpState::FinWait2 => Some(self.now_ns + FINWAIT2_TIMEOUT_NS),
            TcpState::TimeWait => {
                self.stats.timewait += 1;
                Some(self.now_ns + 2 * TCP_MSL_NS)
            }
            TcpState::Established | TcpState::CloseWait if self.cfg.keepalive => {
                Some(self.last_activity_ns + KEEPALIVE_IDLE_NS)
            }
            _ => None,
        };
    }

    /// [`TcbTimer::Life`] fired. A handshake, FIN_WAIT_2 or TIME_WAIT
    /// that has lasted its whole timeout ends in `Closed`. Keepalive
    /// (RFC 1122 §4.2.3.6) first looks at when the peer was last heard:
    /// inside the idle time it waits out the rest; past it, it probes
    /// every [`KEEPALIVE_INTVL_NS`] — any answer is a segment, which
    /// starts the idle time over — and closes after
    /// [`KEEPALIVE_PROBES`] unanswered ones.
    fn on_life(&mut self, now_ns: u64) {
        if self.life_deadline_ns.is_none_or(|d| now_ns < d) {
            return;
        }
        if self.state != self.life_state {
            // Armed for a state a segment has since moved the
            // connection out of; the poll that follows has not run yet.
            self.arm_life();
            return;
        }
        if matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            let idle_until = self.last_activity_ns + KEEPALIVE_IDLE_NS;
            if now_ns < idle_until {
                self.life_deadline_ns = Some(idle_until);
                return;
            }
            if self.ka_probes < KEEPALIVE_PROBES {
                // A pure ACK one sequence number below `snd_nxt` is
                // outside the peer's window, so a live peer must answer
                // it at once.
                self.ka_probes += 1;
                self.stats.keepalive_probes += 1;
                let probe = self.header_at(self.snd_nxt.wrapping_sub(1), TcpFlags::ACK);
                self.out.push_back(probe);
                self.life_deadline_ns = Some(now_ns + KEEPALIVE_INTVL_NS);
                return;
            }
            self.stats.keepalive_drops += 1;
        }
        self.timed_out = Some(self.state);
        self.state = TcpState::Closed;
        self.life_deadline_ns = None;
    }

    /// Advances the TCB's notion of time without running the timer —
    /// the stack stamps active connections from the pump so RTT
    /// probes and newly armed deadlines are measured from fresh time
    /// even though idle connections are never scanned.
    pub fn set_now(&mut self, now_ns: u64) {
        if now_ns > self.now_ns {
            self.now_ns = now_ns;
        }
    }
}
