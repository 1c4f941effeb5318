//! The send half and the ACK policy. The send queue is **zero-copy**:
//! [`Tcb::app_send_with`] writes application bytes once into pooled
//! netbufs, and [`Tcb::poll_output_chain_with`] *moves* those buffers
//! into outgoing frames — as one scatter-gather super-segment of up to
//! a GSO budget when segmentation is offloaded (sequence/window
//! accounting once per super-segment), or per-MSS in software when it
//! is not. Received data is acknowledged once per poll, on the reply
//! when there is one (the ACK policy documented on
//! [`Tcb::poll_output_chain_with`]).

use ukplat::{Errno, Result};

use super::*;

/// Pacing-gate release interval floor (the interval is `srtt / 8` —
/// eight sub-bursts per RTT — floored to stay schedulable).
const PACE_INTERVAL_MIN_NS: u64 = 1_000_000;

impl Tcb {
    /// Queues application data for transmission, accepting at most the
    /// free send-buffer space — a partial write, like non-blocking
    /// `send(2)`. Returns the bytes accepted; `EAGAIN` when the buffer
    /// is full (tx window closed and backlog at capacity).
    ///
    /// Buffers come from the heap; the stack's pooled path is
    /// [`app_send_with`](Self::app_send_with).
    pub fn app_send(&mut self, data: &[u8]) -> Result<usize> {
        let (cap, headroom) = SEND_BUF_SHAPE;
        self.app_send_with(data, || Netbuf::alloc(cap, headroom))
    }

    /// [`app_send`](Self::app_send) with an explicit buffer supplier:
    /// the bytes are written **once**, straight into supplied buffers
    /// (coalescing into the last queued buffer's tailroom first) —
    /// the single copy bulk data ever takes inside the stack. Supplied
    /// buffers must be empty with enough headroom for all protocol
    /// headers, since the first buffer of every outgoing segment
    /// becomes the frame head.
    pub(crate) fn app_send_with<T: FnMut() -> Netbuf>(
        &mut self,
        data: &[u8],
        mut take_buf: T,
    ) -> Result<usize> {
        match self.state {
            TcpState::Established | TcpState::CloseWait | TcpState::SynReceived => {
                let space = SND_BUF_CAP - self.send_q_len.min(SND_BUF_CAP);
                if space == 0 {
                    return Err(Errno::Again);
                }
                let n = data.len().min(space);
                let mut off = 0;
                while off < n {
                    let room = self.send_q.back().map_or(0, |b| b.tailroom());
                    if room == 0 {
                        self.send_q.push_back(take_buf());
                        continue;
                    }
                    let Some(back) = self.send_q.back_mut() else {
                        // room > 0 above implies a back buffer exists;
                        // recover by taking a fresh one if not.
                        debug_assert!(false, "send_q lost its back buffer mid-append");
                        self.send_q.push_back(take_buf());
                        continue;
                    };
                    let take = room.min(n - off);
                    back.append(&data[off..off + take]);
                    off += take;
                }
                self.send_q_len += n;
                Ok(n)
            }
            _ => Err(Errno::NotConn),
        }
    }

    /// Free space in the send buffer (0 when not in a sendable state).
    pub(crate) fn send_capacity(&self) -> usize {
        match self.state {
            TcpState::Established | TcpState::CloseWait | TcpState::SynReceived => {
                SND_BUF_CAP - self.send_q_len.min(SND_BUF_CAP)
            }
            _ => 0,
        }
    }

    /// Whether control output (ACKs, window updates, handshake
    /// segments) must leave at the next poll — the cheap "does a flush
    /// have anything to do" probe the receive paths use to avoid a
    /// full output poll per read. A held ACK is not pending control:
    /// flushing on its account would send it ahead of the reply meant
    /// to carry it.
    pub(crate) fn has_pending_control(&self) -> bool {
        !self.out.is_empty() || self.dup_ack_now || self.wnd_update_due
    }

    /// Rule (c) of the ACK policy: owes the peer a window update when
    /// draining moved the right edge it may send up to by at least
    /// min(`RCV_BUF_CAP`/2, 2·MSS) past the one last advertised
    /// (RFC 1122 §4.2.3.3's receiver-side SWS avoidance), or reopened
    /// a window advertised as zero. Without it a sender that filled
    /// the advertised window waits for an ACK nothing else triggers.
    /// A flag rather than a queued segment, so a burst of drains is
    /// answered with one update carrying the final window.
    pub(super) fn window_update_after_drain(&mut self) {
        if self.wnd_update_due || self.state == TcpState::Closed {
            return;
        }
        let edge = self.rcv_nxt.wrapping_add(u32::from(self.rcv_window()));
        let advertised = self.last_ack_sent.wrapping_add(u32::from(self.last_adv_wnd));
        let gain = edge.wrapping_sub(advertised) as usize;
        self.wnd_update_due =
            self.last_adv_wnd == 0 || gain >= (RCV_BUF_CAP / 2).min(2 * self.cfg.mss);
    }

    /// Whether the pacing gate currently meters emission: only during
    /// a loss episode (recovery or backed-off RTO) — the lossless
    /// path is byte-identical with pacing compiled in and armed.
    fn pacing_active(&self) -> bool {
        self.cfg.pacing && (self.in_recovery || self.rto.backed_off())
    }

    /// Bytes one pacing release admits: an eighth of the effective
    /// window, floored at two segments so recovery always progresses.
    pub(super) fn pace_quantum(&self) -> usize {
        ((self.snd_wnd as usize).min(self.cc.cwnd()) / 8).max(2 * self.cfg.mss)
    }

    /// Assembles the next `n` bytes of the send queue into an outgoing
    /// buffer chain. Whole buffers *move* (the zero-copy path); only
    /// two cases copy:
    ///
    /// - `n` spans several buffers but fits one wire frame
    ///   (`n <= mss`): the parts coalesce into a single fresh buffer,
    ///   since a sub-MSS frame must be one contiguous extent;
    /// - the boundary splits a buffer (window edge or segment cap):
    ///   the split-off front is copied out and the remainder stays
    ///   queued with its headroom grown past the consumed bytes.
    fn assemble_chain<T: FnMut() -> Netbuf>(&mut self, n: usize, take_buf: &mut T) -> Netbuf {
        debug_assert!(n > 0 && n <= self.send_q_len);
        let single_frame = n <= self.cfg.mss;
        let mut head: Option<Netbuf> = None;
        let link = |head: &mut Option<Netbuf>, nb: Netbuf| match head.as_mut() {
            None => *head = Some(nb),
            Some(h) => h.chain_append(nb),
        };
        let mut assembled = 0;
        while assembled < n {
            let need = n - assembled;
            let Some(front_len) = self.send_q.front().map(Netbuf::len) else {
                // `send_q_len` accounting (asserted at entry) says more
                // bytes are queued; stop and emit the short chain
                // rather than panic if the queue and counter disagree.
                debug_assert!(false, "send_q ran dry before n assembled bytes");
                break;
            };
            let whole = front_len <= need;
            let take = front_len.min(need);
            if single_frame {
                // A sub-MSS frame must be one contiguous extent: move
                // the front buffer only when it covers the frame by
                // itself; otherwise coalesce the parts by copy. A
                // buffer emptied by the copy still belongs to a pool,
                // so it rides the chain as an empty fragment and gets
                // recycled with the frame.
                if whole && take == n {
                    if let Some(b) = self.send_q.pop_front() {
                        link(&mut head, b);
                    }
                } else {
                    let h = head.get_or_insert_with(|| take_buf());
                    if let Some(front) = self.send_q.front_mut() {
                        h.append(&front.payload()[..take]);
                        front.pull_header(take);
                    }
                    if whole {
                        if let Some(spent) = self.send_q.pop_front() {
                            h.chain_append(spent);
                        }
                    }
                }
            } else if whole {
                // Chain frame: whole buffers move, zero-copy.
                if let Some(b) = self.send_q.pop_front() {
                    link(&mut head, b);
                }
            } else {
                // Boundary splits the buffer: copy out the split-off
                // front, keep the remainder queued (its start advances
                // over the consumed bytes, growing the headroom).
                let mut part = take_buf();
                if let Some(front) = self.send_q.front_mut() {
                    part.append(&front.payload()[..take]);
                    front.pull_header(take);
                }
                link(&mut head, part);
            }
            assembled += take;
        }
        self.send_q_len -= assembled;
        let head = head.unwrap_or_else(|| {
            // Unreachable unless the accounting check above fired: the
            // entry assertion guarantees at least one loop iteration.
            debug_assert!(false, "assemble_chain produced no head buffer");
            take_buf()
        });
        debug_assert_eq!(head.chain_len(), assembled);
        head
    }

    /// Whether the pending ACK may be held for a data segment to carry
    /// — the negation of rules (a)–(e) of the ACK policy (see
    /// [`poll_output_chain_with`](Self::poll_output_chain_with)).
    /// Duplicate, out-of-window and out-of-order arrivals, hole fills,
    /// owed window updates and D-SACKs and the hold timer all raise
    /// `ack_now`; a FIN moves the state off `Established`.
    fn ack_may_wait(&self) -> bool {
        !self.ack_now
            && self.state == TcpState::Established
            && self.reasm.is_empty()
            && self.rcv_nxt.wrapping_sub(self.last_ack_sent) as usize <= self.cfg.mss
    }

    /// Streams pending transmission through `emit`: queued control
    /// segments first, then segmentation of queued data (chunks of up
    /// to `max_seg` bytes, capped by the peer's receive window, PSH on
    /// the last), then FIN once the queue drains, then — only if
    /// nothing else left — a coalesced pure ACK for ingested data.
    ///
    /// `emit` receives each segment as an owned buffer chain: queued
    /// buffers move out whole (a data segment carries at least one
    /// byte), a control segment rides an empty buffer from `take_buf`,
    /// and the caller prepends the headers into the head's headroom —
    /// bulk data never takes a send-ring copy. With
    /// `max_seg` equal to the MSS this is software segmentation; with
    /// a GSO budget (e.g. 60 KB) each data `emit` hands out one
    /// super-segment, the sequence/window accounting done **once**
    /// per super-segment, and the caller attaches a
    /// [`GsoRequest`](uknetdev::netbuf::GsoRequest) so the device
    /// cuts the MSS frames. A partial peer window splits a
    /// super-segment at the window edge exactly like an MSS segment:
    /// the tail stays queued, sequence numbers advance only past
    /// emitted bytes.
    ///
    /// # ACK policy
    ///
    /// Every segment emitted here carries the cumulative ACK. When
    /// received data is unacknowledged and nothing else is leaving,
    /// the one decision below holds the ACK up to [`DELACK_NS`] so the
    /// next data segment — typically the reply — carries it (RFC 1122
    /// §4.2.3.2), *unless* ([`ack_may_wait`](Self::ack_may_wait)):
    ///
    /// - (a) more than one MSS of in-order bytes is unacknowledged,
    ///   counted in bytes since the last ACK sent, so a GRO run or a
    ///   TSO super-frame counts for what it carries (RFC 5681 §4.2's
    ///   "at least every second full-sized segment");
    /// - (b) the reassembly queue is non-empty, the data filled all or
    ///   part of a hole, or the segment was a duplicate or out of
    ///   window (RFC 5681 §4.2: the sender's loss recovery runs on
    ///   these ACKs);
    /// - (c) the application's drain moved the advertised right edge
    ///   by min(`RCV_BUF_CAP`/2, 2·MSS) or reopened a zero window
    ///   (RFC 1122 §4.2.3.3) — a window-limited sender waits on it;
    /// - (d) a FIN arrived, the connection is not `Established`, or a
    ///   SACK/D-SACK block is owed (those ride pure ACKs only);
    /// - (e) the hold timer fired
    ///   ([`on_timer`](Self::on_timer) with [`TcbTimer::DelAck`]).
    pub(crate) fn poll_output_chain_with<T, F>(&mut self, max_seg: usize, mut take_buf: T, mut emit: F)
    where
        T: FnMut() -> Netbuf,
        F: FnMut(TcpHeader, Netbuf),
    {
        let mut emitted_ack = false;
        if self.wnd_update_due {
            self.wnd_update_due = false;
            self.stats.window_updates += 1;
            self.ack_pending = true;
            self.ack_now = true;
        }
        while let Some(h) = self.out.pop_front() {
            emitted_ack |= h.flags.ack;
            emit(h, take_buf());
        }
        // Whether the pending ACK ends up riding payload is read off
        // these afterwards: every data emission below either advances
        // `snd_nxt` or counts a retransmission.
        let bare_ack = emitted_ack || self.dup_ack_now;
        let (snd_nxt0, rtx0) = (self.snd_nxt, self.stats.retransmits);
        // Owed duplicate ACK: emitted as a *pure* ACK (the peer's
        // dup-ACK counter ignores segments with payload) with the
        // final cumulative position of the sweep, before any data —
        // and at most once per poll cycle, however many gapped
        // segments the sweep carried.
        if self.dup_ack_now && self.state != TcpState::Closed {
            self.dup_ack_now = false;
            let header = self.make_header(TcpFlags::ACK);
            emit(header, take_buf());
            emitted_ack = true;
        }
        // Pacing gate: during a loss episode (recovery or a backed-off
        // RTO) the budget meters how many bytes one poll may emit —
        // retransmissions and post-RTO slow-start data alike — and the
        // timer wheel releases the next quantum over the SRTT instead
        // of the whole window leaving as one burst. Outside an episode
        // the gate is inert: the lossless path is byte-identical with
        // pacing compiled in and armed.
        let pacing = self.pacing_active();
        let mut pace_starved = false;
        if !pacing {
            self.pace_deadline_ns = None;
            self.pace_budget = 0;
        } else if self.pace_budget == 0 && self.pace_deadline_ns.is_none() {
            // Fresh episode: the first quantum is free.
            self.pace_budget = self.pace_quantum();
        }
        // Retransmission first: a requested re-emission (RTO fire,
        // fast retransmit, NewReno partial ACK, SACK evidence) goes
        // out before any new data — the peer is stalled on exactly
        // these bytes. With a populated scoreboard the hole-walk
        // re-emits every known hole surgically; without one, the
        // single extent at `snd_una`.
        if self.rtx_request && self.can_retransmit() {
            let front_home = self
                .rtx_q
                .front()
                .is_some_and(|&(seq, _, _)| seq == self.snd_una);
            if self.cfg.sack && !self.scoreboard.ranges().is_empty() {
                emitted_ack |= self.hole_walk(&mut emit, pacing, &mut pace_starved);
                if front_home {
                    self.rtx_request = false;
                }
            } else if front_home {
                self.rtx_request = false;
                let Some((start, _, nb)) = self.rtx_q.pop_front() else {
                    // `front_home` above proved the front exists; skip
                    // this retransmission rather than panic (the RTO
                    // will re-request it if anything is really lost).
                    debug_assert!(false, "rtx_q emptied between front() and pop_front()");
                    return;
                };
                self.retransmit(start, nb, &mut emit);
                emitted_ack = true;
            }
            // If the front extent is not at `snd_una` (still in flight
            // back to us), the request stays pending: the next poll
            // after the frame re-files itself satisfies it.
        }
        // Tail-loss probe: re-emit the highest outstanding extent so a
        // dropped flight tail produces the ACK/SACK evidence normal
        // recovery needs, without waiting out a full RTO.
        if self.tlp_pending {
            self.tlp_pending = false;
            if self.can_retransmit() {
                if let Some((start, _, nb)) = self.rtx_q.pop_back() {
                    self.retransmit(start, nb, &mut emit);
                    emitted_ack = true;
                }
            }
        }
        if matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            while self.send_q_len > 0 {
                let in_flight = self.bytes_in_flight();
                // The peer's window and (when the ablation is on) the
                // congestion window both bound what may be in flight;
                // a TSO super-segment splits at the combined edge.
                let wnd = self.cc.window(&self.cfg, self.snd_wnd as usize);
                let window_room = wnd.saturating_sub(in_flight as usize);
                if window_room == 0 {
                    break; // Tx window closed; data stays queued.
                }
                if pacing && self.pace_budget == 0 {
                    // Quantum spent: the rest of this window leaves on
                    // the next pacing release, not in this burst.
                    pace_starved = true;
                    break;
                }
                let mut n = self.send_q_len.min(max_seg).min(window_room);
                if pacing {
                    n = n.min(self.pace_budget);
                }
                let last = n == self.send_q_len;
                let header = self.make_header(TcpFlags { psh: last, ..TcpFlags::ACK });
                let chain = self.assemble_chain(n, &mut take_buf);
                emit(header, chain);
                emitted_ack = true;
                self.snd_nxt = self.snd_nxt.wrapping_add(n as u32);
                if pacing {
                    self.pace_budget -= n;
                }
                // Time this flight for the RFC 6298 estimator.
                self.rto.probe(self.snd_nxt, self.now_ns);
            }
            if self.probe_pending {
                self.probe_pending = false;
                if self.send_q_len > 0 && self.snd_una == self.snd_nxt && self.snd_wnd == 0 {
                    // Zero-window probe: one byte beyond the window.
                    // The receiver accepts in-order data regardless of
                    // the advertised edge and its ACK re-synchronizes
                    // the window; the byte rides the normal
                    // retransmission machinery if the probe is lost.
                    let header = self.make_header(TcpFlags { psh: true, ..TcpFlags::ACK });
                    let chain = self.assemble_chain(1, &mut take_buf);
                    emit(header, chain);
                    emitted_ack = true;
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                }
            }
            if self.closing && self.send_q_len == 0 {
                let header = self.make_header(TcpFlags { fin: true, ..TcpFlags::ACK });
                emit(header, take_buf());
                emitted_ack = true;
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
                self.fin_sent = true;
                self.state = if self.state == TcpState::CloseWait {
                    TcpState::LastAck
                } else {
                    TcpState::FinWait
                };
                self.closing = false;
            }
        }
        // The ACK decision. Ingested data is still unacknowledged and
        // no segment carried the cumulative ACK out: either the ACK
        // may wait for a data segment to carry it — the hold timer
        // bounds the wait — or one pure ACK answers the whole poll's
        // worth of arrivals now.
        if self.state == TcpState::Closed {
            self.ack_pending = false;
            self.ack_deadline_ns = None;
        } else if self.ack_pending && !emitted_ack {
            if self.ack_may_wait() {
                if self.ack_deadline_ns.is_none() {
                    self.ack_deadline_ns = Some(self.now_ns.saturating_add(DELACK_NS));
                }
            } else {
                let header = self.make_header(TcpFlags::ACK);
                emit(header, take_buf());
                emitted_ack = true;
            }
        } else if self.ack_pending
            && !bare_ack
            && (self.snd_nxt != snd_nxt0 || self.stats.retransmits != rtx0)
        {
            self.stats.acks_piggybacked += 1;
        }
        if emitted_ack {
            // The cumulative position went out: nothing is held.
            self.ack_deadline_ns = None;
            self.ack_pending = false;
            self.ack_now = false;
        }
        // Arm the retransmission/persist timer: anything unacknowledged
        // in the sequence space (data, SYN, FIN) — or queued data
        // behind a closed zero window — must be backed by a deadline.
        if self.state == TcpState::Closed {
            self.rtx_deadline_ns = None;
        } else if self.snd_una != self.snd_nxt || (self.send_q_len > 0 && self.snd_wnd == 0) {
            if self.rtx_deadline_ns.is_none() {
                self.rtx_deadline_ns = Some(self.now_ns.saturating_add(self.rto.timeout_ns()));
            }
        } else {
            self.rtx_deadline_ns = None;
        }
        // RACK deadlines: nothing outstanding disarms everything; an
        // outstanding tail with no open episode is backed by the
        // tail-loss probe (PTO of two SRTTs plus the delayed-ACK
        // allowance — well under the RTO floor, so a dropped last
        // segment is probed, not timed out).
        if self.state == TcpState::Closed || self.snd_una == self.snd_nxt {
            self.reo_deadline_ns = None;
            self.tlp_deadline_ns = None;
            self.pace_deadline_ns = None;
        } else if self.cfg.rack
            && !self.in_recovery
            && !self.tlp_consumed
            && self.tlp_deadline_ns.is_none()
            && self.can_retransmit()
        {
            let mut pto = self.rto.pto_ns();
            // RFC 8985 §7.2: the ACK of a flight of at most one
            // segment may be sitting out the peer's hold timer — allow
            // for it, so a held ACK is never answered with a probe.
            if self.bytes_in_flight() as usize <= self.cfg.mss {
                pto += DELACK_NS;
            }
            self.tlp_deadline_ns = Some(self.now_ns.saturating_add(pto));
        }
        if pace_starved && self.pace_deadline_ns.is_none() {
            self.pace_deadline_ns = Some(
                self.now_ns
                    .saturating_add((self.rto.srtt() / 8).max(PACE_INTERVAL_MIN_NS)),
            );
        }
        self.arm_life();
    }

    /// Owned-segment convenience over
    /// [`poll_output_chain_with`](Self::poll_output_chain_with)
    /// (tests, diagnostics): each segment's payload is collected into
    /// a `Vec`, segmented at the connection's MSS.
    pub fn poll_output(&mut self) -> Vec<OutSegment> {
        let mss = self.cfg.mss;
        self.poll_output_seg(mss)
    }

    /// [`poll_output`](Self::poll_output) with an explicit
    /// segmentation bound (tests drive GSO-sized super-segments
    /// through this).
    // ukcheck: allow(alloc) -- owned-segment convenience for tests and
    // diagnostics; the datapath uses `poll_output_chain_with` on
    // pooled buffers
    pub(super) fn poll_output_seg(&mut self, max_seg: usize) -> Vec<OutSegment> {
        let (cap, headroom) = SEND_BUF_SHAPE;
        let mut segs = Vec::new();
        self.poll_output_chain_with(
            max_seg,
            || Netbuf::alloc(cap, headroom),
            |header, nb| {
                let payload = nb.chain_segments().flatten().copied().collect();
                segs.push(OutSegment { header, payload });
            },
        );
        segs
    }
}
