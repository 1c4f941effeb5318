//! What a segment's acknowledgement, window and SACK blocks do to the
//! sender half. Loss evidence — a duplicate ACK, new SACK coverage —
//! only arms RACK's reordering window (RFC 8985); its expiry with the
//! hole still open is what opens the episode (`recovery`'s `on_rack`).
//! Inside one, NewReno partial ACKs retransmit the next hole until the
//! recovery point is crossed (RFC 6582).

use super::*;

impl Tcb {
    /// Processes a segment's parsed TCP options — called by the stack
    /// before [`on_segment_bufs`](Self::on_segment_bufs) whenever the
    /// data offset exceeded 20. SYN/SYN-ACK latch the peer's
    /// SACK-permitted announcement. Once SACK is in force (a peer that
    /// never negotiated it has its blocks ignored), SACK blocks feed the
    /// sender scoreboard: a D-SACK first block (at/below the cumulative
    /// ACK, or re-reporting already-SACKed bytes — RFC 2883 §4) counts a
    /// spurious retransmission and undoes the RTO backoff it caused
    /// (the Eifel-style response: the network delivered twice, it
    /// didn't lose), every other valid block merges into the
    /// scoreboard. New scoreboard coverage is loss evidence: it arms
    /// the RACK reordering window and re-requests the hole-walk
    /// mid-episode.
    pub fn process_options(&mut self, h: &TcpHeader, opts: &TcpOptions) {
        if h.flags.syn {
            self.peer_sack_ok = opts.sack_permitted;
        }
        if !self.sack_in_force() || !h.flags.ack || opts.sack_count == 0 {
            return;
        }
        let mut advanced = false;
        for i in 0..opts.sack_count {
            let (s, e) = opts.sack_blocks[i];
            if !seq_lt(s, e) {
                continue;
            }
            if i == 0 && (seq_le(e, h.ack) || self.scoreboard.covers(s, e)) {
                // D-SACK: the peer received these bytes twice — our
                // retransmission was spurious. Karn already voided the
                // RTT sample; the backoff the false loss inflicted is
                // undone here.
                self.stats.spurious_rtx += 1;
                self.rto.on_progress();
                continue;
            }
            // A usable block lies strictly inside (cumack, snd_nxt].
            if !seq_lt(h.ack, s) || !seq_le(e, self.snd_nxt) {
                continue;
            }
            advanced |= self.scoreboard.merge(s, e);
        }
        if advanced {
            self.arm_reo_window();
            if self.in_recovery {
                // Fresh coverage mid-episode exposes newly confirmed
                // holes below it: run the hole-walk again.
                self.rtx_request = true;
            }
        }
    }

    /// Loss evidence arms RACK's reordering window, once, while data is
    /// outstanding and no episode is open.
    fn arm_reo_window(&mut self) {
        if !self.in_recovery && self.snd_una != self.snd_nxt && self.reo_deadline_ns.is_none() {
            self.reo_deadline_ns = Some(self.now_ns.saturating_add(self.reo_wnd_ns()));
        }
    }

    /// Processes the acknowledgement and window fields of a segment.
    /// `seg_payload` is the segment's payload byte count — a pure ACK
    /// (no payload, no SYN/FIN) at `snd_una` with data outstanding
    /// that does not open the window is a *duplicate ACK* (RFC 5681
    /// §2), the fast-retransmit signal. The window clause matters: a
    /// window update after a drain repeats the cumulative ACK without
    /// saying anything about loss. (RFC 5681 asks for an *unchanged*
    /// window; this stack's receiver acknowledges before its
    /// application drains, so its duplicate ACKs carry a window that
    /// shrinks as in-order data queues up — only growth is an update.)
    pub(super) fn process_ack(&mut self, h: &TcpHeader, seg_payload: usize) {
        if !h.flags.ack {
            return;
        }
        let window = u32::from(h.window);
        let window_grew = window > self.snd_wnd;
        // Take the window only from a segment no older than the one
        // the current window came from (RFC 793 p.72, with Linux's
        // tie-break): between two pure ACKs at the same position —
        // an ACK and the window update that followed it, swapped on
        // the wire — only the larger window can be the later one.
        if seq_lt(self.snd_una, h.ack)
            || seq_lt(self.snd_wl1, h.seq)
            || (self.snd_wl1 == h.seq && window_grew)
        {
            self.snd_wnd = window;
            self.snd_wl1 = h.seq;
        }
        if seq_lt(self.snd_una, h.ack) && seq_le(h.ack, self.snd_nxt) {
            // New data acknowledged: release covered retransmission
            // extents, take the RTT sample, grow/deflate cwnd, restart
            // the timer.
            let acked = h.ack.wrapping_sub(self.snd_una) as usize;
            self.snd_una = h.ack;
            self.dup_ack_rx = 0;
            self.rtx_request = false;
            // Cumulative progress: retire scoreboard ranges the ACK
            // overtook, restart the hole-walk mark, and disarm the
            // RACK deadlines — the hole they watched is gone (loss
            // evidence that persists re-arms them immediately).
            self.scoreboard.retire_below(self.snd_una);
            self.reo_deadline_ns = None;
            self.tlp_deadline_ns = None;
            self.tlp_consumed = false;
            self.rtx_release();
            self.rto.on_ack(h.ack, self.now_ns);
            if self.in_recovery {
                if seq_le(self.recover, h.ack) {
                    // Full ACK: the loss episode is over.
                    self.in_recovery = false;
                    self.cc.on_full_ack();
                } else {
                    // NewReno partial ACK: the next hole starts at the
                    // new `snd_una` — retransmit it immediately (this
                    // also paces go-back-N recovery of a multi-segment
                    // loss after an RTO: one hole per arriving ACK
                    // instead of one per timeout), deflating by the
                    // bytes this ACK covered.
                    self.rtx_request = true;
                    self.cc.on_partial_ack(acked);
                }
            }
            if !self.in_recovery {
                self.cc.on_ack(acked);
            }
            self.rtx_deadline_ns = if self.snd_una == self.snd_nxt {
                None
            } else {
                Some(self.now_ns.saturating_add(self.rto.timeout_ns()))
            };
        } else if h.ack == self.snd_una
            && seg_payload == 0
            && !window_grew
            && !h.flags.syn
            && !h.flags.fin
            && self.snd_una != self.snd_nxt
        {
            // Duplicate ACK: the peer is missing the segment at
            // `snd_una`. A dup-ACK count is reordering-ambiguous, so it
            // only *arms* the reordering window — expiry with the hole
            // still open declares loss (`on_rack`); cumulative progress
            // before that cancels it silently.
            self.dup_ack_rx += 1;
            self.arm_reo_window();
            if self.dup_ack_rx > 3 && self.in_recovery {
                self.cc.on_dup_ack();
            }
        }
    }
}
