//! The receive half. The **receive queue is zero-copy**:
//! [`Tcb::on_segment_bufs`] *keeps* the RX netbufs the payload arrived
//! in (trimmed to the TCP body) instead of copying bytes into a ring,
//! and readers either copy out
//! ([`app_recv_into_with`](Tcb::app_recv_into_with)) or take whole
//! buffers ([`app_recv_netbuf`](Tcb::app_recv_netbuf)).
//!
//! Ingest is never silent: dropped *or queued-out-of-order* data
//! forces a duplicate ACK (capped at one immediate dup-ACK per ingest
//! sweep) so the peer's fast retransmit always has its signal without
//! ACK-storming the wire. A FIN is processed only when it lands in
//! sequence, i.e. after every payload byte preceding it was accepted; a
//! FIN riding dropped or queued-out-of-order data neither advances
//! `rcv_nxt` nor changes state (the peer's FIN retransmission recovers
//! it).

use super::*;

impl Tcb {
    /// Handles an incoming segment (borrowed-payload convenience over
    /// [`on_segment_bufs`](Self::on_segment_bufs); accepted payload is
    /// copied into a heap netbuf — tests and diagnostics only, the
    /// stack's hot path hands the RX buffer itself over).
    pub fn on_segment(&mut self, h: &TcpHeader, payload: &[u8]) {
        let nb = (!payload.is_empty()).then(|| Netbuf::from_slice(payload));
        self.on_segment_bufs(h, nb, |_| {})
    }

    /// The zero-copy ingest entry: handles one logical segment whose
    /// payload arrives as *owned* netbufs (consecutive extents starting
    /// at `h.seq` — one trimmed RX buffer, the flattened extents of a
    /// big-receive chain, or a GRO-coalesced run of per-MSS segments).
    /// Accepted buffers **move into the receive queue**; buffers whose
    /// data is not accepted (old/duplicated/out-of-window), and every
    /// buffer of a control segment, are handed to `recycle` so the
    /// caller can return them to their pool.
    ///
    /// Ingest is in-order only, and never silent: dropped data forces
    /// an immediate duplicate ACK (`ack_pending`) so the peer learns
    /// our cumulative position instead of waiting forever.
    pub(crate) fn on_segment_bufs<I, R>(&mut self, h: &TcpHeader, payload: I, mut recycle: R)
    where
        I: IntoIterator<Item = Netbuf>,
        R: FnMut(Netbuf),
    {
        let payload = payload.into_iter();
        self.last_activity_ns = self.now_ns;
        self.ka_probes = 0;
        if h.flags.rst {
            // A listener must survive RSTs: an RST aimed at a LISTEN
            // socket acknowledges nothing and resets nothing (RFC 793
            // p.65 — return to LISTEN) — wedging the listener on a
            // stray RST would let one spoofed packet kill the service.
            if self.state == TcpState::Listen {
                payload.for_each(&mut recycle);
                return;
            }
            self.state = TcpState::Closed;
            payload.for_each(&mut recycle);
            // A dead connection holds nothing back for retransmission
            // or reassembly: return every queued buffer to the pool.
            self.drain_recovery_queues(&mut recycle);
            return;
        }
        match self.state {
            TcpState::Listen => {
                if h.flags.syn {
                    self.remote_port = h.src_port;
                    self.rcv_nxt = h.seq.wrapping_add(1);
                    self.emit(TcpFlags { syn: true, ..TcpFlags::ACK });
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.state = TcpState::SynReceived;
                }
                payload.for_each(&mut recycle);
            }
            TcpState::SynSent => {
                if h.flags.syn && h.flags.ack {
                    self.process_ack(h, 0);
                    self.rcv_nxt = h.seq.wrapping_add(1);
                    self.emit(TcpFlags::ACK);
                    self.state = TcpState::Established;
                }
                payload.for_each(&mut recycle);
            }
            TcpState::SynReceived => {
                if h.flags.ack {
                    self.process_ack(h, 0);
                    self.state = TcpState::Established;
                    // The ACK completing the handshake may carry data.
                    self.ingest_bufs(h, payload, &mut recycle);
                } else {
                    payload.for_each(&mut recycle);
                }
            }
            TcpState::Established
            | TcpState::FinWait
            | TcpState::FinWait2
            | TcpState::CloseWait => {
                let seg_end = self.ingest_bufs(h, payload, &mut recycle);
                let seg_payload = seg_end.wrapping_sub(h.seq) as usize;
                self.process_ack(h, seg_payload);
                // The ACK covering our FIN promotes FIN-WAIT-1 →
                // FIN-WAIT-2 (a FIN riding the same segment then lands
                // in TIME_WAIT below).
                if self.state == TcpState::FinWait && self.fin_sent && self.snd_una == self.snd_nxt
                {
                    self.state = TcpState::FinWait2;
                }
                // A FIN is in sequence only when it lands exactly at
                // `rcv_nxt` — i.e. after every payload byte preceding
                // it was accepted. A FIN riding dropped (out-of-order
                // or duplicated) data must not advance the sequence
                // space or transition state; the forced duplicate ACK
                // from the drop tells the peer where we really are.
                let fin_in_order = self.rcv_nxt == seg_end;
                if h.flags.fin && !fin_in_order {
                    self.ack_pending = true;
                    self.ack_now = true;
                } else if h.flags.fin && self.state != TcpState::CloseWait {
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                    self.peer_fin = true;
                    self.emit(TcpFlags::ACK);
                    self.state = if self.state == TcpState::Established {
                        TcpState::CloseWait
                    } else {
                        // Both FINs exchanged: park in TIME_WAIT for 2MSL
                        // (a retransmitted peer FIN still finds us and our
                        // final ACK can be regenerated).
                        TcpState::TimeWait
                    };
                }
            }
            TcpState::TimeWait => {
                // The peer retransmitting its FIN means our final ACK
                // was lost: regenerate it. Stale data duplicates in
                // 2MSL get the same treatment — re-ACK our position so
                // the peer can converge (RFC 793 p.73).
                let mut had_payload = false;
                for nb in payload {
                    had_payload |= !nb.is_empty();
                    recycle(nb);
                }
                if h.flags.fin || had_payload {
                    self.emit(TcpFlags::ACK);
                }
            }
            TcpState::LastAck => {
                self.process_ack(h, 0);
                // Only the ACK that covers our FIN closes; a stale or
                // duplicate ACK (rampant on a lossy wire) must not.
                if h.flags.ack && h.ack == self.snd_nxt {
                    self.state = TcpState::Closed;
                }
                payload.for_each(&mut recycle);
            }
            TcpState::Closed => {
                // Reply RST to anything but RST.
                self.emit(TcpFlags { rst: true, ..TcpFlags::ACK });
                payload.for_each(&mut recycle);
            }
        }
        // Extents the segment's ACK released go home with its buffers.
        while let Some(nb) = self.rtx_released.pop() {
            recycle(nb);
        }
    }

    /// Moves payload buffers into the receive queue (chains are
    /// flattened). An extent landing exactly at `rcv_nxt` is accepted;
    /// one spanning `rcv_nxt` is overlap-trimmed and its new tail
    /// accepted (a retransmission often re-covers bytes we already
    /// have); one landing ahead is filed into the bounded reassembly
    /// queue; wholly old or out-of-horizon data is recycled. Returns
    /// the segment's end sequence number (`h.seq` + total payload
    /// length) — the position a trailing FIN would occupy.
    fn ingest_bufs<I, R>(&mut self, h: &TcpHeader, payload: I, recycle: &mut R) -> u32
    where
        I: IntoIterator<Item = Netbuf>,
        R: FnMut(Netbuf),
    {
        let mut seq = h.seq;
        let mut ingested = false;
        let mut dropped = false;
        let mut had_payload = false;
        let mut scratch = std::mem::take(&mut self.flatten_scratch);
        for mut head in payload {
            // Flatten a chain into its extents, head first (the
            // detached head keeps its fragment-list capacity, so the
            // buffer still builds chains allocation-free after it is
            // recycled).
            head.take_frags_into(&mut scratch);
            for mut nb in std::iter::once(head).chain(scratch.drain(..)) {
                let len = nb.len();
                if len == 0 {
                    // An empty buffer carries no sequence space: the
                    // segment is still "pure ACK" for the
                    // out-of-window probe check below.
                    recycle(nb);
                    continue;
                }
                had_payload = true;
                let end = seq.wrapping_add(len as u32);
                if seq == self.rcv_nxt {
                    self.accept_in_order(nb, recycle);
                    ingested = true;
                } else if seq_le(end, self.rcv_nxt) {
                    // Wholly old/duplicated: drop — but never silently
                    // (see below); the duplicate arrival is reported
                    // back as a D-SACK so the peer can tell a spurious
                    // retransmission from a lost ACK.
                    dropped = true;
                    self.reasm.note_dsack(self.sack_in_force(), seq, end);
                    recycle(nb);
                } else if seq_lt(seq, self.rcv_nxt) {
                    // Spans `rcv_nxt`: trim the already-received front,
                    // accept the new tail (a retransmitted segment
                    // whose front we already took must not deadlock).
                    let trim = self.rcv_nxt.wrapping_sub(seq) as usize;
                    nb.pull_header(trim);
                    self.accept_in_order(nb, recycle);
                    ingested = true;
                } else {
                    // Ahead of `rcv_nxt`: reassembly-queue it (bounded;
                    // overflow recycles). Either way it is a hole
                    // signal — count it as dropped so the duplicate
                    // ACK goes out.
                    dropped = true;
                    let report = self.sack_in_force();
                    if self.reasm.insert(seq, nb, self.rcv_nxt, report, recycle) {
                        self.stats.ooo_queued += 1;
                    }
                }
                seq = end;
            }
        }
        self.flatten_scratch = scratch;
        // A zero-length segment that is not at `rcv_nxt` is outside
        // the acceptable window — RFC 793 demands an ACK in reply.
        // This is what answers a keepalive probe (a pure ACK one
        // sequence number below `rcv_nxt`): a live peer acks it
        // immediately, a dead one stays silent.
        if !had_payload && h.seq != self.rcv_nxt && !h.flags.syn && !h.flags.fin {
            dropped = true;
        }
        if ingested {
            // Bytes accepted in front of a non-empty reassembly queue
            // fill all or part of a hole: the sender is in recovery
            // and needs to hear about it at once (RFC 5681 §4.2).
            self.ack_now |= !self.reasm.is_empty();
            // The accepted bytes may have closed the hole in front of
            // the reassembly queue: drain every now-contiguous extent.
            while let Some(nb) = self.reasm.pop_ready(self.rcv_nxt, recycle) {
                self.accept_in_order(nb, recycle);
            }
            // ACK coalescing: the acknowledgement rides the next
            // outgoing segment (or one pure ACK when the poll-time
            // policy says so), so a burst of segments is answered
            // once per poll, not once per segment.
            self.ack_pending = true;
        }
        if dropped {
            // Duplicate ACK: dropped or queued-out-of-order data
            // *must* be acknowledged at our current cumulative
            // position, or a peer whose segment was lost in delivery
            // would wait forever for an acknowledgement that never
            // comes. Emit at most one immediate dup-ACK per poll
            // cycle: a burst carrying N gapped segments answers with
            // one dup-ACK, not N (`ack_pending` still guarantees the
            // cumulative position goes out).
            self.ack_pending = true;
            self.ack_now = true;
            self.stats.dup_acks += 1;
            self.dup_ack_now = true;
        }
        seq
    }

    /// Accepts one extent at `rcv_nxt` into the receive queue,
    /// coalescing into the queue tail's tailroom when the extent fits
    /// (Linux's `tcp_try_coalesce`): the advertised window counts
    /// payload bytes, but each retained buffer pins a whole pool
    /// buffer — a fine-grained sender (many small segments) must not
    /// pin a buffer per segment. The copy touches only small extents;
    /// a full-MSS stream never fits the tail and stays zero-copy.
    fn accept_in_order<R: FnMut(Netbuf)>(&mut self, nb: Netbuf, recycle: &mut R) {
        let len = nb.len();
        self.recv_q_len += len;
        self.rcv_nxt = self.rcv_nxt.wrapping_add(len as u32);
        match self.recv_q.back_mut() {
            Some(tail) if len <= tail.tailroom() => {
                tail.append(nb.payload());
                recycle(nb);
            }
            _ => self.recv_q.push_back(nb),
        }
    }

    /// The SACK option for the next pure ACK (`Reassembly`'s
    /// `fill_sack_option`); the stack calls this once per output poll
    /// and attaches the bytes to the first pure ACK it emits (data
    /// frames can't carry options — the GSO cutter assumes a bare
    /// header).
    pub fn fill_sack_option(&mut self, buf: &mut [u8; TCP_MAX_OPT_LEN]) -> usize {
        self.reasm.fill_sack_option(self.sack_in_force(), buf)
    }

    /// Sheds the newest (highest-sequence) reassembly-queue extent
    /// back to the pool — the low-pool graceful-degradation policy.
    /// Newest first because the peer must retransmit shed bytes
    /// anyway and the oldest extents are the ones an imminent hole
    /// fill will drain. Returns whether an extent was shed.
    pub(crate) fn shed_newest_ooo<R: FnMut(Netbuf)>(&mut self, recycle: &mut R) -> bool {
        let Some(nb) = self.reasm.shed_newest() else {
            return false;
        };
        self.stats.ooo_shed += 1;
        recycle(nb);
        true
    }

    /// Reads up to `max` bytes the peer sent. A drain that reopens the
    /// receive window far enough owes the peer a window-update ACK so
    /// its transmission can resume (rule c of the ACK policy).
    // ukcheck: allow(alloc) -- allocating convenience API; zero-copy
    // callers use `app_recv_into_with`/`app_recv_netbuf`
    pub fn app_recv(&mut self, max: usize) -> Vec<u8> {
        let mut data = vec![0u8; max.min(self.recv_q_len)];
        let n = self.app_recv_into_with(&mut data, |_| {});
        data.truncate(n);
        data
    }

    /// Copies up to `out.len()` received bytes into `out` (the
    /// allocation-free receive copy path), returning the count. Queue
    /// buffers drained to exhaustion are handed to `recycle` (the stack
    /// returns them to its pool; `|_| {}` drops them). A buffer only
    /// partially consumed by the copy retains its tail — the start of
    /// its payload advances over the copied bytes and it stays at the
    /// queue front (split-and-retain). Same window-update semantics as
    /// [`app_recv`](Self::app_recv).
    pub(crate) fn app_recv_into_with<R: FnMut(Netbuf)>(&mut self, out: &mut [u8], mut recycle: R) -> usize {
        let mut n = 0;
        while n < out.len() {
            let Some(front) = self.recv_q.front_mut() else {
                break;
            };
            let take = front.len().min(out.len() - n);
            out[n..n + take].copy_from_slice(&front.payload()[..take]);
            front.pull_header(take);
            n += take;
            if front.is_empty() {
                match self.recv_q.pop_front() {
                    Some(spent) => recycle(spent),
                    // front_mut() above proved the queue is non-empty.
                    None => debug_assert!(false, "recv_q emptied between front_mut() and pop_front()"),
                }
            }
        }
        self.recv_q_len -= n;
        if n > 0 {
            self.window_update_after_drain();
        }
        n
    }

    /// Takes the next received buffer whole — the zero-copy receive
    /// path (`tcp_recv_burst_netbuf`): the payload extent the peer's bytes
    /// arrived in moves straight to the application, which owns it and
    /// must hand it back to the stack's pool when done. Same
    /// window-update semantics as [`app_recv`](Self::app_recv).
    pub(crate) fn app_recv_netbuf(&mut self) -> Option<Netbuf> {
        let nb = self.recv_q.pop_front()?;
        self.recv_q_len -= nb.len();
        self.window_update_after_drain();
        Some(nb)
    }

    /// Bytes available to read.
    pub(crate) fn readable(&self) -> usize {
        self.recv_q_len
    }

    /// Whether the peer has closed and all data was read.
    pub(crate) fn peer_closed(&self) -> bool {
        self.peer_fin && self.recv_q_len == 0
    }

    /// Whether the peer's FIN has arrived (data may remain buffered) —
    /// the `EPOLLRDHUP` condition.
    pub(crate) fn peer_fin_seen(&self) -> bool {
        self.peer_fin
    }
}
