//! Retransmission without re-copying. Emitted data frames carry a
//! [`TcpHold`](uknetdev::netbuf::TcpHold) tag; when the frame returns
//! from the device (TX reclaim / wire recycle), the stack files its
//! still-unacknowledged payload extents back into the TCB's
//! retransmission queue ([`Tcb::rtx_return`]) instead of the pool.
//! The wire only ever destroys the *receiver-side DMA copy* of a
//! frame — the sender's pooled buffer always comes home, so the
//! retransmission queue regenerates from the frames themselves and
//! application bytes are never copied again. ACKs release covered
//! extents back to the pool; partial coverage trims in place.
//!
//! What asks for it: the timer (`on_rto`: data at `snd_una` is flagged
//! for re-emission, a lost SYN/SYN-ACK/FIN is re-queued, and a closed
//! peer window with queued data turns the timer into a persist —
//! zero-window probe — timer), a loss episode opened short of a timeout
//! (`enter_fast_recovery`, by `ack` or by RACK's `on_rack`, RFC 8985)
//! and, inside one, the scoreboard's `hole_walk` (RFC 6675).

use super::*;

/// RACK reordering-window floor: how long after loss evidence (first
/// duplicate ACK / SACK advance) the sender waits before declaring
/// loss, so mere reordering can cancel the episode. Half the SRTT,
/// floored here to stay above the virtual wire's delivery quantum.
const RACK_REO_WND_MIN_NS: u64 = 10_000_000;

impl Tcb {
    /// The reordering window RACK currently applies before declaring
    /// loss (exported as the `netstack.tcp.rack_reorder_window_ns`
    /// gauge).
    pub(crate) fn reo_wnd_ns(&self) -> u64 {
        (self.rto.srtt() / 2).max(RACK_REO_WND_MIN_NS)
    }

    /// RACK timer fired: settle whichever deadlines have passed. An
    /// expired reordering window with the hole still open is loss —
    /// enter fast retransmit exactly as the 3rd duplicate ACK would
    /// have (the dup-ACK count merely *arms* the window with RACK on;
    /// expiry is what declares loss, so reordering that resolves
    /// within the window never triggers a retransmission). An expired
    /// PTO owes the wire a tail-loss probe.
    pub(super) fn on_rack(&mut self, now_ns: u64) {
        if self.reo_deadline_ns.is_some_and(|d| d <= now_ns) {
            self.reo_deadline_ns = None;
            if self.snd_una != self.snd_nxt
                && !self.in_recovery
                && (self.dup_ack_rx > 0 || !self.scoreboard.ranges().is_empty())
            {
                self.enter_fast_recovery();
            }
        }
        if self.tlp_deadline_ns.is_some_and(|d| d <= now_ns) {
            self.tlp_deadline_ns = None;
            if self.snd_una != self.snd_nxt && !self.in_recovery && !self.tlp_consumed {
                self.tlp_pending = true;
                self.tlp_consumed = true;
                self.stats.tlp_probes += 1;
            }
        }
    }

    /// Opens a loss episode short of a timeout — the 3rd duplicate ACK,
    /// an expired reordering window, or the scoreboard's own verdict
    /// (`Scoreboard::says_lost`): the hole at
    /// `snd_una` is retransmitted at the next poll and partial ACKs
    /// inside the episode retransmit the next hole directly; cwnd
    /// surgery on top only when NewReno is on.
    pub(super) fn enter_fast_recovery(&mut self) {
        self.stats.fast_retransmits += 1;
        self.rtx_request = true;
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        self.scoreboard.mark_walked(self.snd_una);
        self.cc.on_loss(&self.cfg, self.bytes_in_flight() as usize);
    }

    /// Pops retransmission-queue extents fully covered by `snd_una`
    /// into `rtx_released` (recycled at the next ingest) and trims a
    /// partially covered front extent in place.
    pub(super) fn rtx_release(&mut self) {
        while let Some((seq, _, nb)) = self.rtx_q.front_mut() {
            let end = seq.wrapping_add(nb.len() as u32);
            if seq_le(end, self.snd_una) {
                let Some((_, _, nb)) = self.rtx_q.pop_front() else {
                    // front_mut() above proved the queue is non-empty.
                    debug_assert!(false, "rtx_q emptied between front_mut() and pop_front()");
                    break;
                };
                self.rtx_released.push(nb);
            } else if seq_lt(*seq, self.snd_una) {
                let trim = self.snd_una.wrapping_sub(*seq) as usize;
                nb.pull_header(trim);
                *seq = self.snd_una;
                break;
            } else {
                break;
            }
        }
    }

    /// Whether a TX frame coming home can change what the next output
    /// poll does — read before its extents go back with
    /// [`rtx_return`](Self::rtx_return): a requested retransmission is
    /// waiting for its front extent, a tail-loss probe is pending, or no
    /// RTO backs the connection yet (the return arms one, and the
    /// owner's timer must follow). Otherwise the frame only refills the
    /// queue: output, deadlines and readiness stay as the last poll left
    /// them (`send_capacity` reads the send queue only).
    pub(crate) fn return_needs_poll(&self) -> bool {
        self.rtx_request || self.tlp_pending || self.rtx_deadline_ns.is_none()
    }

    /// Files a returning TX frame's payload extent back into the
    /// retransmission queue (sequence-sorted, overlap-trimmed against
    /// both neighbours and `snd_una`). Returns the buffer when its
    /// bytes are already acknowledged or duplicated — the caller
    /// recycles it to the pool. The stack calls this when a frame
    /// tagged with a [`TcpHold`](uknetdev::netbuf::TcpHold) comes back
    /// from the device; `sent_ns` is the hold's transmission stamp —
    /// the extent keeps it in the queue so RACK can judge freshness.
    pub(crate) fn rtx_return(&mut self, seq: u32, sent_ns: u64, nb: Netbuf) -> Option<Netbuf> {
        let mut seq = seq;
        let mut nb = nb;
        if nb.is_empty() || self.state == TcpState::Closed {
            return Some(nb);
        }
        let mut end = seq.wrapping_add(nb.len() as u32);
        if seq_le(end, self.snd_una) {
            return Some(nb); // Fully acknowledged while in flight.
        }
        if seq_lt(seq, self.snd_una) {
            let trim = self.snd_una.wrapping_sub(seq) as usize;
            nb.pull_header(trim);
            seq = self.snd_una;
        }
        let mut idx = self.rtx_q.len();
        while idx > 0 && seq_lt(seq, self.rtx_q[idx - 1].0) {
            idx -= 1;
        }
        if idx > 0 {
            // A retransmitted copy of this range may already sit in the
            // queue (original and retransmission both came home): keep
            // only the uncovered tail.
            let (pseq, _, pnb) = &self.rtx_q[idx - 1];
            let pend = pseq.wrapping_add(pnb.len() as u32);
            if seq_le(end, pend) {
                return Some(nb);
            }
            if seq_lt(seq, pend) {
                let trim = pend.wrapping_sub(seq) as usize;
                nb.pull_header(trim);
                seq = pend;
            }
        }
        if idx < self.rtx_q.len() {
            let succ_seq = self.rtx_q[idx].0;
            end = seq.wrapping_add(nb.len() as u32);
            if seq_lt(succ_seq, end) {
                let keep = succ_seq.wrapping_sub(seq) as usize;
                if keep == 0 {
                    return Some(nb);
                }
                nb.truncate(keep);
            }
        }
        self.rtx_q.insert(idx, (seq, sent_ns, nb));
        // Unacknowledged bytes are now held locally: make sure a timer
        // backs them.
        if self.rtx_deadline_ns.is_none() {
            self.rtx_deadline_ns = Some(self.now_ns.saturating_add(self.rto.timeout_ns()));
        }
        None
    }

    /// Fires the retransmission/persist timer if its deadline passed
    /// (an ACK may have moved it on since the owner was told of it).
    pub(super) fn on_rto(&mut self, now_ns: u64) {
        if self.rtx_deadline_ns.is_none_or(|d| now_ns < d) {
            return;
        }
        self.stats.rto_fires += 1;
        self.rto.on_timeout();
        match self.state {
            TcpState::SynSent => self.emit_at(self.snd_una, TcpFlags::SYN),
            TcpState::SynReceived => self.emit_at(
                self.snd_una,
                TcpFlags { syn: true, ..TcpFlags::ACK },
            ),
            _ => {
                if self
                    .rtx_q
                    .front()
                    .is_some_and(|(seq, _, _)| *seq == self.snd_una)
                {
                    // Timeout: retransmit the oldest hole and open (or
                    // refresh) a loss episode up to `snd_nxt`, so the
                    // partial ACKs that follow walk the remaining holes
                    // one per ACK instead of one per timeout. With cc
                    // on this is a full loss event — restart slow
                    // start. The RTO supersedes any armed RACK
                    // deadlines, and the hole-walk mark resets so the
                    // front hole is eligible again.
                    self.rtx_request = true;
                    self.in_recovery = true;
                    self.recover = self.snd_nxt;
                    self.scoreboard.mark_walked(self.snd_una);
                    self.reo_deadline_ns = None;
                    self.tlp_deadline_ns = None;
                    // Reneging safeguard (RFC 6675 §5.1): a receiver
                    // under memory pressure may discard data it
                    // already SACKed (see `shed_newest_ooo`), so an
                    // RTO distrusts the whole scoreboard — everything
                    // outstanding is eligible for retransmission
                    // again.
                    self.scoreboard.clear();
                    self.cc.on_rto(&self.cfg, self.bytes_in_flight() as usize);
                } else if self.fin_sent && self.snd_una != self.snd_nxt && self.rtx_q.is_empty()
                {
                    // Only our FIN is unacknowledged: re-emit it.
                    self.emit_at(
                        self.snd_nxt.wrapping_sub(1),
                        TcpFlags { fin: true, ..TcpFlags::ACK },
                    );
                } else if self.snd_una == self.snd_nxt
                    && self.send_q_len > 0
                    && self.window_closed()
                {
                    // Persist timer: the window-update ACK reopening a
                    // zero window may itself have been lost — probe
                    // with one byte beyond the window.
                    self.probe_pending = true;
                }
                // Otherwise the lost bytes are still in flight back to
                // us (not yet reclaimed): keep backing off, the frames
                // re-file themselves via `rtx_return` when they arrive.
            }
        }
        self.rtx_deadline_ns = Some(now_ns.saturating_add(self.rto.timeout_ns()));
    }

    /// Queues a control segment at an explicit (re)transmission
    /// sequence position — SYN / SYN-ACK / FIN retransmission.
    fn emit_at(&mut self, seq: u32, flags: TcpFlags) {
        self.stats.retransmits += 1;
        let header = self.header_at(seq, flags);
        self.out.push_back(header);
    }

    /// Whether data may be re-emitted in this state: from the first
    /// byte sent until our FIN is acknowledged.
    pub(super) fn can_retransmit(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait | TcpState::LastAck
        )
    }

    /// Re-emits the retransmission-queue extent `nb` at `start`: the
    /// original frame's payload buffer (headers stripped, headroom
    /// restored), moved back out without a copy; its next return
    /// re-files it. Karn: an RTT sample over a retransmission would lie.
    pub(super) fn retransmit<F: FnMut(TcpHeader, Netbuf)>(&mut self, start: u32, nb: Netbuf, emit: &mut F) {
        let header = self.header_at(start, TcpFlags { psh: true, ..TcpFlags::ACK });
        self.stats.retransmits += 1;
        self.rto.void_probe();
        emit(header, nb);
    }

    /// The SACK scoreboard's surgical retransmission pass (see
    /// [`poll_output_chain_with`](Self::poll_output_chain_with)):
    /// walks the retransmission queue ascending and re-emits only
    /// extents below the highest SACKed byte that the scoreboard does
    /// not cover — the holes. Returns whether anything was emitted.
    ///
    /// Guards against re-sending a hole every ACK: with RACK on, an
    /// extent is eligible only once its last transmission is at least
    /// `srtt + reo_wnd` old (a just-retransmitted extent gets its
    /// round trip); with RACK off, the episode mark admits each hole
    /// once per episode. The pacing/cwnd budget caps the walk's total
    /// bytes, but the first eligible extent always goes (forward
    /// progress).
    pub(super) fn hole_walk<F>(&mut self, emit: &mut F, pacing: bool, pace_starved: &mut bool) -> bool
    where
        F: FnMut(TcpHeader, Netbuf),
    {
        let Some(&(_, high)) = self.scoreboard.ranges().last() else {
            return false;
        };
        let mut budget = if pacing {
            self.pace_budget
        } else {
            self.cc.hole_budget(&self.cfg, self.snd_wnd as usize)
        };
        let age_floor = self.rto.srtt() + self.reo_wnd_ns();
        let mut emitted = false;
        let mut i = 0;
        while i < self.rtx_q.len() {
            let (seq, sent) = (self.rtx_q[i].0, self.rtx_q[i].1);
            let len = self.rtx_q[i].2.len();
            let end = seq.wrapping_add(len as u32);
            if !seq_lt(seq, high) {
                // Nothing above the highest SACKed byte is known lost
                // (the tail is the probe's and the RTO's business).
                break;
            }
            if self.scoreboard.covers(seq, end) {
                i += 1;
                continue;
            }
            let eligible = if self.cfg.rack {
                self.now_ns.saturating_sub(sent) >= age_floor
            } else {
                self.scoreboard.unwalked(seq)
            };
            if !eligible {
                i += 1;
                continue;
            }
            if emitted && len > budget {
                if pacing {
                    *pace_starved = true;
                }
                break;
            }
            let Some((start, _, nb)) = self.rtx_q.remove(i) else {
                // The loop condition bounds i below rtx_q.len(); stop
                // the walk rather than panic (RTO covers what's left).
                debug_assert!(false, "rtx_q index went stale during hole walk");
                break;
            };
            if start != self.snd_una {
                // A hole beyond the first: the retransmission classic
                // go-back-N recovery would only reach a round trip
                // later (or re-send everything in between).
                self.stats.sack_rtx += 1;
            }
            if !self.cfg.rack {
                self.scoreboard.mark_walked(end);
            }
            budget = budget.saturating_sub(len);
            self.retransmit(start, nb, emit);
            emitted = true;
        }
        if pacing {
            self.pace_budget = budget;
        }
        emitted
    }

    /// Recycles every buffer held for loss recovery (retransmission
    /// queue, pending releases, reassembly queue) — called when the
    /// connection dies and can no longer use them.
    pub(super) fn drain_recovery_queues<R: FnMut(Netbuf)>(&mut self, recycle: &mut R) {
        while let Some((_, _, nb)) = self.rtx_q.pop_front() {
            recycle(nb);
        }
        while let Some(nb) = self.rtx_released.pop() {
            recycle(nb);
        }
        self.reasm.clear(recycle);
        self.rtx_deadline_ns = None;
        self.scoreboard.clear();
        self.reo_deadline_ns = None;
        self.tlp_deadline_ns = None;
        self.tlp_pending = false;
        self.pace_deadline_ns = None;
        self.pace_budget = 0;
    }
}
