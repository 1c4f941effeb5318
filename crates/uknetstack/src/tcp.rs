//! TCP: header codec and a compact connection state machine.
//!
//! Enough TCP to run the paper's request/response servers over real
//! packets — and over a *lossy* wire: three-way handshake, sequence/ack
//! tracking, MSS segmentation, PSH data delivery, FIN teardown, RST on
//! unexpected segments, plus the full loss-recovery suite (see below).
//!
//! Since the large-transfer fast path, the send queue is **zero-copy**:
//! [`Tcb::app_send_with`] writes application bytes once into pooled
//! netbufs, and [`Tcb::poll_output_chain_with`] *moves* those buffers
//! into outgoing frames — as one scatter-gather super-segment of up to
//! a GSO budget when segmentation is offloaded (sequence/window
//! accounting once per super-segment), or per-MSS in software when it
//! is not. Received data is acknowledged once per poll, on the reply
//! when there is one (the ACK policy documented on
//! [`Tcb::poll_output_chain_with`]), and a big-receive super-segment
//! arriving as a buffer chain is ingested in one
//! [`Tcb::on_segment_parts`] call.
//!
//! Since the receive-side fast path, the **receive queue is zero-copy
//! too**: [`Tcb::on_segment_bufs`] *keeps* the RX netbufs the payload
//! arrived in (trimmed to the TCP body) instead of copying bytes into
//! a ring, and readers either copy out
//! ([`app_recv_into_with`](Tcb::app_recv_into_with)) or take whole
//! buffers ([`app_recv_netbuf`](Tcb::app_recv_netbuf) — the
//! `tcp_recv_burst_netbuf` substrate, the receiver's mirror of the zero-copy
//! send queue).
//!
//! # Loss recovery
//!
//! The TCB survives arbitrary drop/dup/reorder fault schedules with
//! byte-identical delivery. Four interlocking pieces:
//!
//! - **Retransmission without re-copying.** Emitted data frames carry a
//!   [`TcpHold`](uknetdev::netbuf::TcpHold) tag; when the frame returns
//!   from the device (TX reclaim / wire recycle), the stack files its
//!   still-unacknowledged payload extents back into the TCB's
//!   retransmission queue ([`Tcb::rtx_return`]) instead of the pool.
//!   The wire only ever destroys the *receiver-side DMA copy* of a
//!   frame — the sender's pooled buffer always comes home, so the
//!   retransmission queue regenerates from the frames themselves and
//!   application bytes are never copied again. ACKs release covered
//!   extents back to the pool ([`Tcb::process_ack`]); partial coverage
//!   trims in place.
//! - **RTO timers on the virtual clock (RFC 6298).** SRTT/RTTVAR
//!   estimation with Karn's rule (samples are invalidated by any
//!   retransmission), exponential backoff, 200 ms floor / 60 s ceiling.
//!   [`Tcb::on_timer`] fires the timer: data at `snd_una` is flagged for
//!   re-emission, a lost SYN/SYN-ACK/FIN is re-queued, and a closed
//!   peer window with queued data turns the timer into a persist
//!   (zero-window probe) timer.
//! - **Fast retransmit / NewReno recovery (RFC 6582).** Three duplicate
//!   ACKs retransmit the segment at `snd_una` without waiting for the
//!   RTO; with congestion control enabled
//!   ([`TcbConfig::congestion_control`], a `StackConfig` ablation) this
//!   also halves `ssthresh`, inflates `cwnd` per extra dup-ACK, and
//!   NewReno partial ACKs retransmit the next hole until the recovery
//!   point is crossed. `cwnd` (slow start / congestion avoidance)
//!   bounds emission alongside the peer window and composes with the
//!   TSO super-segment budget (a super-segment splits at the
//!   `min(cwnd, snd_wnd)` edge exactly like at the window edge).
//! - **Bounded out-of-order reassembly.** A payload extent landing
//!   ahead of `rcv_nxt` is queued (sequence-sorted, overlap-trimmed
//!   against both neighbours and `rcv_nxt`) in a budgeted reassembly
//!   queue instead of being discarded; the hole's arrival drains every
//!   contiguous queued extent in one sweep. Extents that exceed the
//!   budget, duplicate queued data, or land outside the sequence
//!   horizon are recycled to their pool — never leaked. Dropped *or
//!   queued-out-of-order* data still forces a duplicate ACK (capped at
//!   one immediate dup-ACK per ingest sweep) so the peer's fast
//!   retransmit always has its signal without ACK-storming the wire.
//!
//! A FIN is processed only when it lands in sequence, i.e. after every
//! payload byte preceding it was accepted; a FIN riding dropped or
//! queued-out-of-order data neither advances `rcv_nxt` nor changes
//! state (the peer's FIN retransmission recovers it).
//!
//! # The owner's side
//!
//! A [`Tcb`] knows nothing of wheels, registries or pools. Its owner
//! (`NetStack`, or a test) hands it one [`TcbConfig`] at creation,
//! tells it the time ([`Tcb::set_now`]), wakes it when its earliest
//! deadline has passed ([`Tcb::next_deadline`] / [`Tcb::on_time`]; the
//! five [`TcbTimer`]s behind them are the TCB's own business), and
//! reads what happened off one [`TcbStats`] ([`Tcb::stats`]) —
//! `crates/uknetstack/README.md`, "Time" and "The TCB seam".

use std::collections::VecDeque;

use uknetdev::netbuf::Netbuf;
use ukplat::{Errno, Result};

use crate::ipv4::Ipv4Header;
use crate::{inet_checksum, Csum};

/// TCP header length (no options).
pub const TCP_HDR_LEN: usize = 20;
/// Maximum segment size used by the stack (Ethernet MTU minus headers).
pub const MSS: usize = 1460;
/// Send-buffer capacity: bytes the application may queue beyond what the
/// peer's receive window has admitted. `app_send` accepts partial writes
/// against this cap, like a non-blocking `send(2)`.
pub const SND_BUF_CAP: usize = 64 * 1024;
/// Storage/headroom shape of the buffers [`Tcb::app_send`] allocates
/// when no pool-backed supplier is given (mirrors the stack's TX
/// buffers).
const SEND_BUF_SHAPE: (usize, usize) = (2048, 64);
/// Receive-buffer capacity; also the largest window we advertise (the
/// field is 16 bits without window scaling).
pub const RCV_BUF_CAP: usize = 65_535;
/// Initial retransmission timeout before the first RTT sample
/// (RFC 6298 §2 says 1 s; we keep it).
const RTO_INITIAL_NS: u64 = 1_000_000_000;
/// RTO floor: the in-process wire's RTT is far below real-network
/// granularity, so the classic 1 s floor would dominate every test —
/// 200 ms keeps backoff doubling observable while staying well above
/// any virtual-clock RTT.
const RTO_MIN_NS: u64 = 200_000_000;
/// RTO ceiling (RFC 6298 §2.4 allows 60 s).
const RTO_MAX_NS: u64 = 60_000_000_000;
/// Reassembly-queue budget, in buffers: each queued out-of-order
/// extent pins a pool buffer, so the queue is capped independently of
/// byte count.
const OOO_QUEUE_BUFS: usize = 64;
/// Reassembly-queue budget, in payload bytes (one receive window).
const OOO_QUEUE_BYTES: usize = RCV_BUF_CAP;
/// How far ahead of `rcv_nxt` an out-of-order extent may start and
/// still be queued; anything beyond is garbage (or an attack) and is
/// recycled immediately.
const OOO_SEQ_HORIZON: u32 = 1 << 17;
/// Initial congestion window, in segments (RFC 6928's IW10).
const INITIAL_CWND_SEGS: usize = 10;
/// Longest the ACK of in-order data is held for a data segment to
/// carry it (RFC 1122 §4.2.3.2 caps the delay at 500 ms; 40 ms matches
/// Linux's default quick timeout) — see the ACK policy on
/// [`Tcb::poll_output_chain_with`].
pub const DELACK_NS: u64 = 40_000_000;
/// TCP maximum segment lifetime against the virtual clock (TIME_WAIT
/// lingers 2×MSL before its port recycles). Deliberately compressed
/// versus RFC 793's 2 minutes — with a virtual clock the constant is
/// policy, and tests/benches drive hours of it in milliseconds.
pub const TCP_MSL_NS: u64 = 500_000_000;
/// A connection stuck in the handshake (SYN_SENT / SYN_RECEIVED) is
/// closed after this long: generous against SYN-retransmit backoff,
/// finite against a peer that vanished mid-handshake.
pub const HANDSHAKE_TIMEOUT_NS: u64 = 6_000_000_000;
/// FIN_WAIT_2 orphan timeout: the peer acked our FIN but never sent
/// its own (Linux's `tcp_fin_timeout` shape).
pub const FINWAIT2_TIMEOUT_NS: u64 = 3_000_000_000;
/// Keepalive: idle time on an established connection before the first
/// probe is sent.
pub const KEEPALIVE_IDLE_NS: u64 = 5_000_000_000;
/// Keepalive: spacing between unanswered probes.
pub const KEEPALIVE_INTVL_NS: u64 = 1_000_000_000;
/// Keepalive: unanswered probes before the peer is declared dead and
/// the connection closed.
pub const KEEPALIVE_PROBES: u32 = 3;
/// Most SACK blocks one option ever carries: 3 regular blocks
/// (RFC 2018 §3 with a NOP-NOP-prefixed option) plus one leading
/// D-SACK block (RFC 2883 §4).
pub const MAX_SACK_BLOCKS: usize = 4;
/// Largest TCP option run the stack emits: `NOP NOP kind len` plus
/// [`MAX_SACK_BLOCKS`] 8-byte blocks — already a multiple of 4.
pub const TCP_MAX_OPT_LEN: usize = 4 + 8 * MAX_SACK_BLOCKS;
/// SACK-permitted option (kind 4), NOP-padded to a 4-byte word; rides
/// SYN and SYN-ACK segments only (RFC 2018 §2).
pub const SACK_PERMITTED_OPT: [u8; 4] = [1, 1, 4, 2];
/// Scoreboard capacity: disjoint SACKed ranges tracked per
/// connection. A 64 KB send buffer is ≤ 45 MSS segments, so ≤ 23
/// alternating holes; 32 ranges cover every reachable episode and the
/// `Vec` never reallocates in steady state.
const MAX_SACKED_RANGES: usize = 32;
/// RACK reordering-window floor: how long after loss evidence (first
/// duplicate ACK / SACK advance) the sender waits before declaring
/// loss, so mere reordering can cancel the episode. Half the SRTT,
/// floored here to stay above the virtual wire's delivery quantum.
const RACK_REO_WND_MIN_NS: u64 = 10_000_000;
/// Tail-loss-probe floor (the PTO is `2 * srtt` once an RTT sample
/// exists; before that, half the initial RTO).
const TLP_MIN_NS: u64 = 2_000_000;
/// Pacing-gate release interval floor (the interval is `srtt / 8` —
/// eight sub-bursts per RTT — floored to stay schedulable).
const PACE_INTERVAL_MIN_NS: u64 = 1_000_000;

/// TCP flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN.
    pub fin: bool,
    /// RST.
    pub rst: bool,
    /// PSH.
    pub psh: bool,
}

impl TcpFlags {
    /// A SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// A pure ACK.
    const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };

    fn to_u8(self) -> u8 {
        (u8::from(self.fin))
            | (u8::from(self.syn) << 1)
            | (u8::from(self.rst) << 2)
            | (u8::from(self.psh) << 3)
            | (u8::from(self.ack) << 4)
    }

    fn from_u8(v: u8) -> Self {
        TcpFlags {
            fin: v & 1 != 0,
            syn: v & 2 != 0,
            rst: v & 4 != 0,
            psh: v & 8 != 0,
            ack: v & 16 != 0,
        }
    }
}

/// A parsed TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Serializes header + payload into a segment with a valid checksum.
    // ukcheck: allow(alloc) -- test/tooling codec; the datapath writes
    // headers in place via `emit` on pooled buffers
    pub fn encode(&self, ip: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
        let mut seg = Vec::with_capacity(TCP_HDR_LEN + payload.len());
        seg.extend_from_slice(&self.src_port.to_be_bytes());
        seg.extend_from_slice(&self.dst_port.to_be_bytes());
        seg.extend_from_slice(&self.seq.to_be_bytes());
        seg.extend_from_slice(&self.ack.to_be_bytes());
        seg.push(5 << 4); // Data offset 5 words.
        seg.push(self.flags.to_u8());
        seg.extend_from_slice(&self.window.to_be_bytes());
        seg.extend_from_slice(&[0, 0]); // Checksum placeholder.
        seg.extend_from_slice(&[0, 0]); // Urgent pointer.
        seg.extend_from_slice(payload);
        let ck = inet_checksum(&seg, ip.pseudo_header_sum());
        seg[16..18].copy_from_slice(&ck.to_be_bytes());
        seg
    }

    /// Prepends the header — 20 bytes plus `opts` — into `nb`'s headroom;
    /// the payload already in the buffer becomes the segment body
    /// without being copied. `opts` must be NOP-padded to a multiple of
    /// 4 and counted in `ip.payload_len`; they ride uncut frames only
    /// (SACK-permitted on SYNs, SACK blocks on pure ACKs — the GSO
    /// cutter rejects a header with options). `csum` says who fills
    /// the checksum field:
    ///
    /// - [`Csum::Software`]: computed here over the whole segment with
    ///   the pseudo-header seed — without options, byte-identical to
    ///   [`encode`](Self::encode).
    /// - [`Csum::Offload`]: the field holds the *folded pseudo-header
    ///   sum* (uncomplemented) and a
    ///   [`CsumRequest`](uknetdev::netbuf::CsumRequest) spanning the
    ///   segment has the device complete it on `tx_burst`. The wire
    ///   frame is checksum-equivalent to the software one (the device
    ///   emits a computed `0x0000` as the congruent `0xffff`, which the
    ///   software path leaves raw; both verify identically).
    /// - [`Csum::Gso`]: `Offload` for a scatter-gather super-segment —
    ///   header on the *chain head*, request spanning the chain
    ///   (`ip.payload_len` must too), plus a
    ///   [`GsoRequest`](uknetdev::netbuf::GsoRequest) for the host
    ///   side to cut per-`mss` wire frames and complete their
    ///   checksums (`uknetdev::gso`).
    ///
    /// # Panics
    ///
    /// Panics if `nb` lacks `20 + opts.len()` bytes of headroom, if
    /// `opts.len()` is not a multiple of 4, or on a zero `mss`.
    pub fn emit(&self, ip: &Ipv4Header, nb: &mut Netbuf, opts: &[u8], csum: Csum) {
        assert_eq!(opts.len() % 4, 0, "options must be padded to 32-bit words");
        let hlen = TCP_HDR_LEN + opts.len();
        let hdr = nb.push_header_uninit(hlen);
        hdr[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        hdr[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        hdr[4..8].copy_from_slice(&self.seq.to_be_bytes());
        hdr[8..12].copy_from_slice(&self.ack.to_be_bytes());
        hdr[12] = ((hlen / 4) as u8) << 4; // Data offset, in words.
        hdr[13] = self.flags.to_u8();
        hdr[14..16].copy_from_slice(&self.window.to_be_bytes());
        let seed = match csum {
            Csum::Software => 0,
            Csum::Offload | Csum::Gso { .. } => {
                uknetdev::csum::fold_partial_sum(u64::from(ip.pseudo_header_sum()))
            }
        };
        hdr[16..18].copy_from_slice(&seed.to_be_bytes());
        hdr[18..20].copy_from_slice(&[0, 0]); // Urgent pointer.
        hdr[20..].copy_from_slice(opts);
        match csum {
            Csum::Software => {
                let ck = inet_checksum(nb.payload(), ip.pseudo_header_sum());
                nb.payload_mut()[16..18].copy_from_slice(&ck.to_be_bytes());
            }
            Csum::Offload => nb.request_csum(nb.len(), 16),
            Csum::Gso { mss } => {
                nb.request_csum(nb.chain_len(), 16);
                nb.request_gso(mss);
            }
        }
    }

    /// Parses and verifies a segment; returns header + payload.
    pub fn decode<'a>(ip: &Ipv4Header, seg: &'a [u8]) -> Result<(TcpHeader, &'a [u8])> {
        Self::decode_inner(ip, seg, true)
    }

    /// [`decode`](Self::decode) for a frame the wire/device already
    /// marked checksum-validated (`VIRTIO_NET_F_GUEST_CSUM`):
    /// structural validation only, the checksum pass over the segment
    /// is skipped.
    pub fn decode_trusted<'a>(ip: &Ipv4Header, seg: &'a [u8]) -> Result<(TcpHeader, &'a [u8])> {
        Self::decode_inner(ip, seg, false)
    }

    fn decode_inner<'a>(
        ip: &Ipv4Header,
        seg: &'a [u8],
        verify_csum: bool,
    ) -> Result<(TcpHeader, &'a [u8])> {
        if seg.len() < TCP_HDR_LEN {
            return Err(Errno::Inval);
        }
        let doff = (seg[12] >> 4) as usize * 4;
        if doff < TCP_HDR_LEN || doff > seg.len() {
            return Err(Errno::Inval);
        }
        if verify_csum && inet_checksum(seg, ip.pseudo_header_sum()) != 0 {
            return Err(Errno::Io);
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([seg[0], seg[1]]),
                dst_port: u16::from_be_bytes([seg[2], seg[3]]),
                seq: u32::from_be_bytes([seg[4], seg[5], seg[6], seg[7]]),
                ack: u32::from_be_bytes([seg[8], seg[9], seg[10], seg[11]]),
                flags: TcpFlags::from_u8(seg[13]),
                window: u16::from_be_bytes([seg[14], seg[15]]),
            },
            &seg[doff..],
        ))
    }
}

/// Parsed TCP options — the subset the stack understands (SACK
/// machinery; everything else is skipped structurally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpOptions {
    /// SACK-permitted (kind 4) was present — legal on SYN/SYN-ACK
    /// only, which is the only place the stack emits or honors it.
    pub sack_permitted: bool,
    /// SACK blocks (kind 5) in wire order; `sack_count` entries valid.
    pub sack_blocks: [(u32, u32); MAX_SACK_BLOCKS],
    /// Number of valid entries in `sack_blocks`.
    pub sack_count: usize,
}

impl TcpOptions {
    /// Parses the option bytes between the fixed header and the data
    /// offset (`&seg[20..doff]`). Unknown options are skipped by their
    /// length byte; a malformed tail ends the walk (the fixed header
    /// was already validated, so the segment itself stands).
    pub fn parse(opts: &[u8]) -> Self {
        let mut out = TcpOptions::default();
        let mut i = 0;
        while i < opts.len() {
            match opts[i] {
                0 => break,  // End of option list.
                1 => i += 1, // NOP.
                kind => {
                    if i + 1 >= opts.len() {
                        break;
                    }
                    let len = opts[i + 1] as usize;
                    if len < 2 || i + len > opts.len() {
                        break;
                    }
                    if kind == 4 && len == 2 {
                        out.sack_permitted = true;
                    } else if kind == 5 && len >= 10 && (len - 2) % 8 == 0 {
                        let nblocks = (len - 2) / 8;
                        for b in 0..nblocks.min(MAX_SACK_BLOCKS) {
                            let o = i + 2 + b * 8;
                            // Length-validated above (`i + len <= opts.len()`),
                            // so the indexed form has no failure path.
                            let s = u32::from_be_bytes([opts[o], opts[o + 1], opts[o + 2], opts[o + 3]]);
                            let e =
                                u32::from_be_bytes([opts[o + 4], opts[o + 5], opts[o + 6], opts[o + 7]]);
                            out.sack_blocks[out.sack_count] = (s, e);
                            out.sack_count += 1;
                        }
                    }
                    i += len;
                }
            }
        }
        out
    }

    /// Whether anything the stack acts on was present.
    pub fn is_empty(&self) -> bool {
        !self.sack_permitted && self.sack_count == 0
    }
}

/// TCP connection states (subset of RFC 793).
///
/// `FinWait` merges FIN-WAIT-1 and CLOSING; an acknowledged FIN
/// promotes to [`FinWait2`](Self::FinWait2) and the final FIN lands the
/// TCB in [`TimeWait`](Self::TimeWait), which [`TcbTimer::Life`] ends
/// in [`Closed`](Self::Closed) 2MSL later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Passive open.
    Listen,
    /// Active open sent.
    SynSent,
    /// Handshake reply sent.
    SynReceived,
    /// Data flows.
    Established,
    /// We sent FIN (FIN-WAIT-1 / CLOSING).
    FinWait,
    /// Our FIN is acknowledged; awaiting the peer's (timed out if it
    /// never comes).
    FinWait2,
    /// Peer sent FIN; we may still send.
    CloseWait,
    /// We sent FIN after CloseWait.
    LastAck,
    /// Both FINs exchanged; lingering 2MSL so a retransmitted peer FIN
    /// still finds the TCB (and our final ACK can be regenerated).
    TimeWait,
    /// Done.
    Closed,
}

/// An outgoing segment (flags + payload), produced by the TCB.
///
/// This owned form exists for tests and diagnostics; the stack's hot
/// path uses [`Tcb::poll_output_chain_with`], which hands out the
/// payload as the send queue's own pooled buffers, moved into the
/// outgoing frame chain without a copy.
#[derive(Debug, Clone)]
pub struct OutSegment {
    /// Header to send.
    pub header: TcpHeader,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

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
    /// fires; with [`TcbConfig::keepalive`] an idle established
    /// connection is probed and, unanswered, closed.
    Life,
}

impl TcbTimer {
    /// Every kind, in firing order.
    pub const ALL: [TcbTimer; 5] =
        [TcbTimer::Rto, TcbTimer::DelAck, TcbTimer::Rack, TcbTimer::Pace, TcbTimer::Life];
}

/// A TCB's cumulative event counters, read whole through
/// [`Tcb::stats`]. The stack publishes what moved since it last looked
/// under `netstack.tcp.*` (the table in `stack.rs` names the counter
/// and tracepoint of each field). Per connection they are `u32`s, as
/// in `tcp_info`; the registry sums them in `u64`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcbStats {
    /// Immediate duplicate ACKs forced by dropped (old, out-of-order,
    /// out-of-window) ingest data.
    pub dup_acks: u32,
    /// Retransmission-timeout fires.
    pub rto_fires: u32,
    /// Segments re-emitted: data, SYN, SYN-ACK and FIN retransmissions.
    pub retransmits: u32,
    /// Loss episodes opened short of a timeout (3rd duplicate ACK, an
    /// expired RACK reordering window, or the scoreboard's verdict).
    pub fast_retransmits: u32,
    /// Extents filed into the reassembly queue.
    pub ooo_queued: u32,
    /// Scoreboard-driven retransmissions of holes beyond the first.
    pub sack_rtx: u32,
    /// Spurious retransmissions the peer reported via D-SACK.
    pub spurious_rtx: u32,
    /// Tail-loss probes fired in place of a full RTO.
    pub tlp_probes: u32,
    /// Pacing-gate releases during recovery episodes.
    pub paced_releases: u32,
    /// Reassembly-queue extents shed under pool pressure.
    pub ooo_shed: u32,
    /// Held ACKs that sat out their whole hold time.
    pub delack_fires: u32,
    /// ACKs that rode a data segment out instead of leaving alone.
    pub acks_piggybacked: u32,
    /// Window updates sent because a drain reopened the receive window
    /// (rule (c) of the ACK policy).
    pub window_updates: u32,
    /// Entries into TIME_WAIT (at most one per connection).
    pub timewait: u32,
    /// Keepalive probes sent.
    pub keepalive_probes: u32,
    /// Closes by keepalive dead-peer detection (at most one per
    /// connection).
    pub keepalive_drops: u32,
}

/// Everything the owner decides about a TCB, handed over once by
/// [`Tcb::configure`] while its queues are still empty. The default is
/// a raw TCB: full MSS, every mechanism off. The stack fills it from
/// the `StackConfig` fields of the same names, which say what each
/// mechanism buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcbConfig {
    /// Maximum segment size for software segmentation (and the cut
    /// size a GSO super-segment requests); must not be zero.
    pub mss: usize,
    /// NewReno's congestion window bounds emission beside the peer
    /// window. Fast retransmit and the RTO work either way.
    pub congestion_control: bool,
    /// This side generates and consumes SACK blocks — once the peer's
    /// SYN also carried SACK-permitted.
    pub sack: bool,
    /// RACK's reordering window and the tail-loss probe replace the
    /// 3-dup-ACK threshold.
    pub rack: bool,
    /// Recovery-episode emission is metered through the pacing gate.
    pub pacing: bool,
    /// An idle established connection probes its peer and closes when
    /// [`KEEPALIVE_PROBES`] go unanswered.
    pub keepalive: bool,
    /// The queues start empty and grow on demand instead of
    /// preallocated at their steady-state depth.
    pub lean: bool,
}

impl Default for TcbConfig {
    fn default() -> Self {
        TcbConfig {
            mss: MSS,
            congestion_control: false,
            sack: false,
            rack: false,
            pacing: false,
            keepalive: false,
            lean: false,
        }
    }
}

/// A transmission control block.
#[derive(Debug)]
pub struct Tcb {
    /// Connection state.
    pub state: TcpState,
    local_port: u16,
    remote_port: u16,
    snd_nxt: u32,
    rcv_nxt: u32,
    /// Oldest unacknowledged sequence number (flow control).
    snd_una: u32,
    /// Peer's advertised receive window.
    snd_wnd: u32,
    /// Sequence number of the segment `snd_wnd` was last taken from
    /// (RFC 793's SND.WL1): a reordered older segment must not bring
    /// its stale window back.
    snd_wl1: u32,
    /// Window we advertised in our last segment (zero-window tracking).
    last_adv_wnd: u16,
    /// Cumulative ACK our last segment carried. `rcv_nxt` minus this
    /// is the in-order bytes the peer has no acknowledgement for —
    /// what rule (a) of the ACK policy counts — and together with
    /// `last_adv_wnd` it is the right edge the peer may send up to.
    last_ack_sent: u32,
    /// Application data queued for transmission, held as the pooled
    /// buffers it was written into — the zero-copy send queue.
    /// [`app_send`](Self::app_send) writes bytes once (coalescing into
    /// the last buffer's tailroom); emission *moves* whole buffers
    /// into the outgoing frame chain, so bulk data never takes a
    /// send-ring copy. Only a window split mid-buffer copies, and only
    /// the split-off part.
    send_q: VecDeque<Netbuf>,
    /// Bytes across `send_q` (the send-buffer fill level).
    send_q_len: usize,
    /// Received data, held as the pooled RX buffers it arrived in
    /// (each trimmed to its TCP payload extent) — the zero-copy
    /// receive queue, the mirror of `send_q`. Ingest *moves* buffers
    /// in ([`on_segment_bufs`](Self::on_segment_bufs)); readers copy
    /// out ([`app_recv_into_with`](Self::app_recv_into_with)) or take
    /// buffers whole ([`app_recv_netbuf`](Self::app_recv_netbuf)).
    /// Entries are always flat (chains are flattened at ingest).
    recv_q: VecDeque<Netbuf>,
    /// Bytes across `recv_q` (what [`readable`](Self::readable)
    /// reports and the advertised window subtracts).
    recv_q_len: usize,
    /// Scratch for flattening ingested chains (reused; capacity
    /// reaches steady state after the first big receive).
    flatten_scratch: Vec<Netbuf>,
    /// Control segments (no payload) ready to be emitted on the wire.
    /// Data segments are never queued here: their buffers move out of
    /// `send_q` at `poll_output_chain_with` time.
    out: VecDeque<TcpHeader>,
    /// Received data awaits acknowledgement: instead of one ACK per
    /// ingested segment, the next emitted segment carries the
    /// cumulative ACK, and the ACK policy of
    /// [`poll_output_chain_with`](Self::poll_output_chain_with) decides
    /// at poll time whether a pure ACK leaves or waits for one. A
    /// burst of 40 MSS segments (one cut super-segment) costs one ACK
    /// on the return path, not 40.
    ack_pending: bool,
    /// The pending ACK may not wait (rules b–e of the ACK policy): a
    /// hole was touched, a window update or D-SACK is owed, or the
    /// hold timer fired.
    ack_now: bool,
    /// Draining reopened the receive window far enough to tell the
    /// peer (rule c); the next poll emits the update.
    wnd_update_due: bool,
    /// What the owner decided ([`configure`](Self::configure)).
    cfg: TcbConfig,
    /// Cumulative event counters ([`stats`](Self::stats)).
    stats: TcbStats,
    /// Whether the app asked to close after the send buffer drains.
    closing: bool,
    /// Peer closed its direction.
    peer_fin: bool,
    /// Whether our FIN has been emitted (so the RTO can re-emit it).
    fin_sent: bool,
    /// Retransmission queue: unacknowledged payload extents as
    /// `(seq, sent_ns, buffer)`, sequence-sorted, regenerated from
    /// returning TX frames ([`rtx_return`](Self::rtx_return)) — the
    /// buffers *are* the frames' payload, so retransmission never
    /// re-copies application bytes. `sent_ns` is the extent's last
    /// transmission time off the virtual clock (the RACK freshness
    /// input); a retransmission refreshes it when the frame re-files.
    rtx_q: VecDeque<(u32, u64, Netbuf)>,
    /// Extents fully acknowledged between polls, awaiting recycle (the
    /// next `on_segment_bufs` drains them through its recycle sink).
    rtx_released: Vec<Netbuf>,
    /// Retransmission of the extent at `snd_una` is due at the next
    /// output poll (set by the RTO, fast retransmit, and NewReno
    /// partial ACKs).
    rtx_request: bool,
    /// Virtual-clock time of the most recent stack tick (ns).
    now_ns: u64,
    /// Smoothed RTT (RFC 6298); 0 until the first sample.
    srtt_ns: u64,
    /// RTT variance (RFC 6298).
    rttvar_ns: u64,
    /// Current retransmission timeout (includes backoff).
    rto_ns: u64,
    /// Armed retransmission/persist deadline, if anything is
    /// outstanding.
    rtx_deadline_ns: Option<u64>,
    /// Consecutive RTO fires without forward progress (backoff level).
    backoff: u32,
    /// In-flight RTT measurement: `(end_seq, sent_at_ns)`; Karn's rule
    /// clears it on any retransmission.
    rtt_probe: Option<(u32, u64)>,
    /// A zero-window probe is due at the next output poll (persist
    /// timer fired).
    probe_pending: bool,
    /// Consecutive duplicate ACKs received (fast-retransmit trigger).
    dup_ack_rx: u32,
    /// Whether NewReno fast recovery is active.
    in_recovery: bool,
    /// NewReno recovery point: `snd_nxt` when recovery was entered.
    recover: u32,
    /// Congestion window (bytes).
    cwnd: usize,
    /// Slow-start threshold (bytes).
    ssthresh: usize,
    /// An immediate duplicate ACK is owed; the next output poll emits
    /// exactly one pure ACK for it, however many gapped segments the
    /// sweep carried (dup-ACK coalescing).
    dup_ack_now: bool,
    /// Out-of-order reassembly queue: `(seq, extent)` sorted by
    /// sequence, overlap-trimmed, bounded by [`OOO_QUEUE_BUFS`] /
    /// [`OOO_QUEUE_BYTES`].
    ooo_q: VecDeque<(u32, Netbuf)>,
    /// Payload bytes across `ooo_q`.
    ooo_bytes: usize,
    /// Deadline of the ACK being held (the stack mirrors this onto its
    /// timer wheel).
    ack_deadline_ns: Option<u64>,
    /// Peer announced SACK-permitted on its SYN/SYN-ACK.
    peer_sack_ok: bool,
    /// Start of the most recently queued out-of-order extent — the
    /// block RFC 2018 §4 requires first in the next SACK option.
    sack_recent: Option<u32>,
    /// Pending duplicate-arrival report (RFC 2883 D-SACK), emitted as
    /// the first block of exactly one SACK option.
    dsack_pending: Option<(u32, u32)>,
    /// Sender scoreboard: disjoint, ascending SACKed ranges strictly
    /// above `snd_una`, merged from the peer's SACK blocks. The
    /// hole-walk retransmits only `rtx_q` extents *not* covered here.
    sacked: Vec<(u32, u32)>,
    /// Highest sequence end the hole-walk has retransmitted this
    /// episode (reset when `snd_una` advances or the RTO fires) — the
    /// RACK-less guard against re-sending the same hole every ACK.
    sack_rtx_mark: u32,
    /// Armed reordering-window deadline: loss evidence arrived and
    /// the episode opens when it expires — unless cumulative progress
    /// cancels it first (reordering, not loss).
    reo_deadline_ns: Option<u64>,
    /// Armed tail-loss-probe deadline (PTO).
    tlp_deadline_ns: Option<u64>,
    /// A tail-loss probe is due at the next output poll.
    tlp_pending: bool,
    /// A probe was already spent on this tail (one per episode; reset
    /// when `snd_una` advances).
    tlp_consumed: bool,
    /// Bytes the pacing gate still admits before the next release.
    pace_budget: usize,
    /// Armed pacing-gate release deadline.
    pace_deadline_ns: Option<u64>,
    /// Armed [`TcbTimer::Life`] deadline, and the state it was derived
    /// in: the output poll re-derives it when the state has moved on.
    life_deadline_ns: Option<u64>,
    life_state: TcpState,
    /// When the last segment arrived (the keepalive idle reference).
    last_activity_ns: u64,
    /// Keepalive probes sent since then.
    ka_probes: u32,
    /// The state [`TcbTimer::Life`] expired in, once it has.
    timed_out: Option<TcpState>,
}

impl Tcb {
    /// Creates a listening TCB (server side).
    pub fn listen(local_port: u16) -> Self {
        Tcb::new(TcpState::Listen, local_port, 0, 0)
    }

    /// Creates a connecting TCB and queues the SYN (client side).
    pub fn connect(local_port: u16, remote_port: u16, iss: u32) -> Self {
        let mut tcb = Tcb::new(TcpState::SynSent, local_port, remote_port, iss);
        tcb.emit(TcpFlags::SYN);
        tcb.snd_nxt = tcb.snd_nxt.wrapping_add(1); // SYN consumes a sequence.
        tcb
    }

    // ukcheck: allow(alloc) -- one-time TCB construction: queues are
    // pre-sized for steady-state bulk depth precisely so the segment
    // path never grows them (the zero_alloc suite enforces it)
    fn new(state: TcpState, local_port: u16, remote_port: u16, iss: u32) -> Self {
        Tcb {
            state,
            local_port,
            remote_port,
            snd_nxt: iss,
            rcv_nxt: 0,
            snd_una: iss,
            snd_wnd: RCV_BUF_CAP as u32,
            snd_wl1: 0,
            last_adv_wnd: RCV_BUF_CAP as u16,
            last_ack_sent: 0,
            // Pre-sized for their steady-state bulk depth (the
            // zero-alloc tier-1 invariant): a full send buffer is ~32
            // pool-sized extents; the receive queue holds at most a
            // receive window of per-MSS frames (~46) plus a reassembly
            // drain burst. Recovery timing shifts queue depth between
            // runs, so lazy growth would allocate mid-measurement.
            send_q: VecDeque::with_capacity(OOO_QUEUE_BUFS),
            send_q_len: 0,
            recv_q: VecDeque::with_capacity(2 * OOO_QUEUE_BUFS),
            recv_q_len: 0,
            flatten_scratch: Vec::new(),
            out: VecDeque::new(),
            ack_pending: false,
            ack_now: false,
            wnd_update_due: false,
            cfg: TcbConfig::default(),
            stats: TcbStats::default(),
            closing: false,
            peer_fin: false,
            fin_sent: false,
            // Pre-sized so steady-state loss recovery never touches
            // the heap (the zero-alloc tier-1 invariant): a full send
            // buffer is at most SND_BUF_CAP/MSS ≈ 45 in-flight extents.
            rtx_q: VecDeque::with_capacity(OOO_QUEUE_BUFS),
            rtx_released: Vec::with_capacity(OOO_QUEUE_BUFS),
            rtx_request: false,
            now_ns: 0,
            srtt_ns: 0,
            rttvar_ns: 0,
            rto_ns: RTO_INITIAL_NS,
            rtx_deadline_ns: None,
            backoff: 0,
            rtt_probe: None,
            probe_pending: false,
            dup_ack_rx: 0,
            in_recovery: false,
            recover: iss,
            cwnd: INITIAL_CWND_SEGS * MSS,
            ssthresh: SND_BUF_CAP,
            dup_ack_now: false,
            ooo_q: VecDeque::with_capacity(OOO_QUEUE_BUFS),
            ooo_bytes: 0,
            ack_deadline_ns: None,
            peer_sack_ok: false,
            sack_recent: None,
            dsack_pending: None,
            sacked: Vec::with_capacity(MAX_SACKED_RANGES),
            sack_rtx_mark: iss,
            reo_deadline_ns: None,
            tlp_deadline_ns: None,
            tlp_pending: false,
            tlp_consumed: false,
            pace_budget: 0,
            pace_deadline_ns: None,
            life_deadline_ns: None,
            life_state: TcpState::Closed,
            last_activity_ns: 0,
            ka_probes: 0,
            timed_out: None,
        }
    }

    /// Hands the owner's decisions to a TCB, once, while its queues are
    /// still empty (the stack's `configure_tcb` does it at creation and
    /// is the one production caller). `lean` releases the queue
    /// preallocation — the zero-alloc invariant is a steady-state
    /// property, so the warm-up growth amortizes away.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.mss` is zero.
    // ukcheck: allow(alloc) -- empty VecDeque/Vec::new perform no heap
    // allocation; this *releases* memory for lean idle TCBs
    pub fn configure(&mut self, cfg: TcbConfig) {
        assert!(cfg.mss > 0, "zero mss");
        debug_assert!(self.send_q.is_empty() && self.recv_q.is_empty());
        self.cfg = cfg;
        // The initial window is denominated in segments (IW10).
        self.cwnd = INITIAL_CWND_SEGS * cfg.mss;
        if cfg.lean {
            self.send_q = VecDeque::new();
            self.recv_q = VecDeque::new();
            self.rtx_q = VecDeque::new();
            self.rtx_released = Vec::new();
            self.ooo_q = VecDeque::new();
            self.sacked = Vec::new();
        }
    }

    /// The cumulative event counters, as of now.
    pub fn stats(&self) -> &TcbStats {
        &self.stats
    }

    /// Current congestion window in bytes (meaningful with congestion
    /// control on; exported as the `netstack.tcp.cwnd` gauge).
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// The reordering window RACK currently applies before declaring
    /// loss (exported as the `netstack.tcp.rack_reorder_window_ns`
    /// gauge).
    pub fn reo_wnd_ns(&self) -> u64 {
        (self.srtt_ns / 2).max(RACK_REO_WND_MIN_NS)
    }

    /// The sender scoreboard: disjoint ascending SACKed ranges above
    /// `snd_una` (diagnostics; the proptests compare this against a
    /// per-byte bitmap reference).
    pub fn sacked_ranges(&self) -> &[(u32, u32)] {
        &self.sacked
    }

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
    fn arm_life(&mut self) {
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

    /// RACK timer fired: settle whichever deadlines have passed. An
    /// expired reordering window with the hole still open is loss —
    /// enter fast retransmit exactly as the 3rd duplicate ACK would
    /// have (the dup-ACK count merely *arms* the window with RACK on;
    /// expiry is what declares loss, so reordering that resolves
    /// within the window never triggers a retransmission). An expired
    /// PTO owes the wire a tail-loss probe.
    fn on_rack(&mut self, now_ns: u64) {
        if self.reo_deadline_ns.is_some_and(|d| d <= now_ns) {
            self.reo_deadline_ns = None;
            if self.snd_una != self.snd_nxt
                && !self.in_recovery
                && (self.dup_ack_rx > 0 || !self.sacked.is_empty())
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
    /// ([`sack_says_lost`](Self::sack_says_lost)): the hole at
    /// `snd_una` is retransmitted at the next poll and partial ACKs
    /// inside the episode retransmit the next hole directly; cwnd
    /// surgery on top only when NewReno is on.
    fn enter_fast_recovery(&mut self) {
        self.stats.fast_retransmits += 1;
        self.rtx_request = true;
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        self.sack_rtx_mark = self.snd_una;
        if self.cfg.congestion_control {
            let flight = self.bytes_in_flight() as usize;
            self.ssthresh = (flight / 2).max(2 * self.cfg.mss);
            self.cwnd = self.ssthresh + 3 * self.cfg.mss;
        }
    }

    /// RFC 6675 §4's `IsLost(snd_una)`: the segment at `snd_una` is
    /// lost once three discontiguous ranges, or more than two segments'
    /// worth of bytes, are SACKed above it. The byte form of the
    /// 3-dup-ACK rule — it still works when the peer answers a whole
    /// flight with one ACK, as this stack's receiver does (one ACK per
    /// poll, and fewer still since ACKs ride replies).
    fn sack_says_lost(&self) -> bool {
        let sacked: usize = self
            .sacked
            .iter()
            .map(|&(s, e)| e.wrapping_sub(s) as usize)
            .sum();
        self.sacked.len() >= 3 || sacked > 2 * self.cfg.mss
    }

    /// Whether the pacing gate currently meters emission: only during
    /// a loss episode (recovery or backed-off RTO) — the lossless
    /// path is byte-identical with pacing compiled in and armed.
    fn pacing_active(&self) -> bool {
        self.cfg.pacing && (self.in_recovery || self.backoff > 0)
    }

    /// Bytes one pacing release admits: an eighth of the effective
    /// window, floored at two segments so recovery always progresses.
    fn pace_quantum(&self) -> usize {
        ((self.snd_wnd as usize).min(self.cwnd) / 8).max(2 * self.cfg.mss)
    }

    /// Sheds the newest (highest-sequence) reassembly-queue extent
    /// back to the pool — the low-pool graceful-degradation policy.
    /// Newest first because the peer must retransmit shed bytes
    /// anyway and the oldest extents are the ones an imminent hole
    /// fill will drain. Returns whether an extent was shed.
    pub fn shed_newest_ooo<R: FnMut(Netbuf)>(&mut self, recycle: &mut R) -> bool {
        let Some((_, nb)) = self.ooo_q.pop_back() else {
            return false;
        };
        self.ooo_bytes -= nb.len();
        self.stats.ooo_shed += 1;
        recycle(nb);
        true
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

    /// The receive window to advertise: free space in the receive buffer.
    fn rcv_window(&self) -> u16 {
        (RCV_BUF_CAP - self.recv_q_len.min(RCV_BUF_CAP)) as u16
    }

    /// Records what the segment being built tells the peer — our
    /// cumulative position and window, i.e. the right edge it may send
    /// up to — and returns the window for the header.
    fn advertise(&mut self) -> u16 {
        let window = self.rcv_window();
        self.last_adv_wnd = window;
        self.last_ack_sent = self.rcv_nxt;
        window
    }

    /// Builds the header of a segment at sequence position `seq`.
    fn header_at(&mut self, seq: u32, flags: TcpFlags) -> TcpHeader {
        let window = self.advertise();
        TcpHeader {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack: self.rcv_nxt,
            flags,
            window,
        }
    }

    /// Builds the header for the next outgoing segment.
    fn make_header(&mut self, flags: TcpFlags) -> TcpHeader {
        self.header_at(self.snd_nxt, flags)
    }

    /// Queues a control (payload-free) segment.
    fn emit(&mut self, flags: TcpFlags) {
        let header = self.make_header(flags);
        self.out.push_back(header);
    }

    /// `a <= b` in sequence space.
    fn seq_le(a: u32, b: u32) -> bool {
        b.wrapping_sub(a) as i32 >= 0
    }

    /// `a < b` in sequence space.
    fn seq_lt(a: u32, b: u32) -> bool {
        (b.wrapping_sub(a) as i32) > 0
    }

    /// Processes a segment's parsed TCP options — called by the stack
    /// before [`on_segment_bufs`](Self::on_segment_bufs) whenever the
    /// data offset exceeded 20. SYN/SYN-ACK latch the peer's
    /// SACK-permitted announcement; SACK blocks feed the sender
    /// scoreboard: a D-SACK first block (at/below the cumulative ACK,
    /// or re-reporting already-SACKed bytes — RFC 2883 §4) counts a
    /// spurious retransmission and undoes the RTO backoff it caused
    /// (the Eifel-style response: the network delivered twice, it
    /// didn't lose), every other valid block merges into the
    /// scoreboard. New scoreboard coverage is loss evidence: it arms
    /// the RACK reordering window — or, without RACK, opens the episode
    /// itself once [`sack_says_lost`](Self::sack_says_lost) holds —
    /// and re-requests the hole-walk mid-episode.
    pub fn process_options(&mut self, h: &TcpHeader, opts: &TcpOptions) {
        if h.flags.syn {
            self.peer_sack_ok = opts.sack_permitted;
        }
        if !self.cfg.sack || !h.flags.ack || opts.sack_count == 0 {
            return;
        }
        let mut advanced = false;
        for i in 0..opts.sack_count {
            let (s, e) = opts.sack_blocks[i];
            if !Self::seq_lt(s, e) {
                continue;
            }
            if i == 0 && (Self::seq_le(e, h.ack) || self.sack_covers(s, e)) {
                // D-SACK: the peer received these bytes twice — our
                // retransmission was spurious. Karn already voided the
                // RTT sample; the backoff the false loss inflicted is
                // undone here.
                self.stats.spurious_rtx += 1;
                if self.backoff > 0 {
                    self.backoff = 0;
                    self.rto_ns = self.computed_rto();
                }
                continue;
            }
            // A usable block lies strictly inside (cumack, snd_nxt].
            if !Self::seq_lt(h.ack, s) || !Self::seq_le(e, self.snd_nxt) {
                continue;
            }
            advanced |= self.sack_merge(s, e);
        }
        if advanced {
            let open = !self.in_recovery && self.snd_una != self.snd_nxt;
            if self.cfg.rack {
                if open && self.reo_deadline_ns.is_none() {
                    self.reo_deadline_ns = Some(self.now_ns.saturating_add(self.reo_wnd_ns()));
                }
            } else if open && self.sack_says_lost() {
                // Without RACK's reordering window the scoreboard is
                // the loss detector (RFC 6675 §5 step 4.1).
                self.enter_fast_recovery();
            }
            if self.in_recovery {
                // Fresh coverage mid-episode exposes newly confirmed
                // holes below it: run the hole-walk again.
                self.rtx_request = true;
            }
        }
    }

    /// Whether the scoreboard fully covers `[s, e)`.
    fn sack_covers(&self, s: u32, e: u32) -> bool {
        self.sacked
            .iter()
            .any(|&(rs, re)| Self::seq_le(rs, s) && Self::seq_le(e, re))
    }

    /// Merges `[s, e)` into the sorted, disjoint scoreboard. Returns
    /// whether any previously uncovered byte became covered.
    fn sack_merge(&mut self, s: u32, e: u32) -> bool {
        if self.sack_covers(s, e) {
            return false;
        }
        let mut s = s;
        let mut e = e;
        // Absorb every overlapping/touching range into the new one.
        let mut i = 0;
        while i < self.sacked.len() {
            let (rs, re) = self.sacked[i];
            if Self::seq_le(rs, e) && Self::seq_le(s, re) {
                if Self::seq_lt(rs, s) {
                    s = rs;
                }
                if Self::seq_lt(e, re) {
                    e = re;
                }
                self.sacked.remove(i);
            } else {
                i += 1;
            }
        }
        let idx = self
            .sacked
            .iter()
            .position(|&(rs, _)| Self::seq_lt(s, rs))
            .unwrap_or(self.sacked.len());
        if self.sacked.len() < MAX_SACKED_RANGES {
            self.sacked.insert(idx, (s, e));
        }
        // A full scoreboard drops the new range: bounded memory beats
        // completeness — uncovered bytes are merely retransmitted.
        true
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
    fn process_ack(&mut self, h: &TcpHeader, seg_payload: usize) {
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
        if Self::seq_lt(self.snd_una, h.ack)
            || Self::seq_lt(self.snd_wl1, h.seq)
            || (self.snd_wl1 == h.seq && window_grew)
        {
            self.snd_wnd = window;
            self.snd_wl1 = h.seq;
        }
        if Self::seq_lt(self.snd_una, h.ack) && Self::seq_le(h.ack, self.snd_nxt) {
            // New data acknowledged: release covered retransmission
            // extents, take the RTT sample, grow/deflate cwnd, restart
            // the timer.
            let acked = h.ack.wrapping_sub(self.snd_una) as usize;
            self.snd_una = h.ack;
            self.dup_ack_rx = 0;
            self.rtx_request = false;
            if self.backoff > 0 {
                self.backoff = 0;
                self.rto_ns = self.computed_rto();
            }
            // Cumulative progress: retire scoreboard ranges the ACK
            // overtook, restart the hole-walk mark, and disarm the
            // RACK deadlines — the hole they watched is gone (loss
            // evidence that persists re-arms them immediately).
            self.sacked.retain(|&(_, e)| Self::seq_lt(self.snd_una, e));
            if let Some(first) = self.sacked.first_mut() {
                if Self::seq_lt(first.0, self.snd_una) {
                    first.0 = self.snd_una;
                }
            }
            self.sack_rtx_mark = self.snd_una;
            self.reo_deadline_ns = None;
            self.tlp_deadline_ns = None;
            self.tlp_consumed = false;
            self.rtx_release();
            if let Some((end, sent_at)) = self.rtt_probe {
                if Self::seq_le(end, h.ack) {
                    let sample = self.now_ns.saturating_sub(sent_at);
                    self.rtt_sample(sample);
                    self.rtt_probe = None;
                }
            }
            if self.in_recovery {
                if Self::seq_le(self.recover, h.ack) {
                    // Full ACK: the loss episode is over.
                    self.in_recovery = false;
                    if self.cfg.congestion_control {
                        self.cwnd = self.ssthresh.max(2 * self.cfg.mss);
                    }
                } else {
                    // NewReno partial ACK: the next hole starts at the
                    // new `snd_una` — retransmit it immediately (this
                    // also paces go-back-N recovery of a multi-segment
                    // loss after an RTO: one hole per arriving ACK
                    // instead of one per timeout), deflating by the
                    // bytes this ACK covered when cc is on.
                    self.rtx_request = true;
                    if self.cfg.congestion_control {
                        self.cwnd =
                            self.cwnd.saturating_sub(acked).max(2 * self.cfg.mss) + self.cfg.mss;
                    }
                }
            }
            if self.cfg.congestion_control && !self.in_recovery {
                if self.cwnd < self.ssthresh {
                    // Slow start: one MSS per ACK (bounded by bytes
                    // actually covered, so stretch ACKs don't over-open).
                    self.cwnd += acked.min(self.cfg.mss);
                } else {
                    // Congestion avoidance: ~one MSS per RTT.
                    self.cwnd += (self.cfg.mss * self.cfg.mss / self.cwnd.max(1)).max(1);
                }
                self.cwnd = self.cwnd.min(4 * SND_BUF_CAP);
            }
            self.rtx_deadline_ns = if self.snd_una == self.snd_nxt {
                None
            } else {
                Some(self.now_ns.saturating_add(self.rto_ns))
            };
        } else if h.ack == self.snd_una
            && seg_payload == 0
            && !window_grew
            && !h.flags.syn
            && !h.flags.fin
            && self.snd_una != self.snd_nxt
        {
            // Duplicate ACK: the peer is missing the segment at
            // `snd_una`.
            self.dup_ack_rx += 1;
            if self.cfg.rack {
                // RACK: a dup-ACK count is reordering-ambiguous, so it
                // only *arms* the reordering window — expiry with the
                // hole still open declares loss (`on_rack`); cumulative
                // progress before that cancels it silently.
                if !self.in_recovery && self.reo_deadline_ns.is_none() {
                    self.reo_deadline_ns =
                        Some(self.now_ns.saturating_add(self.reo_wnd_ns()));
                }
                if self.dup_ack_rx > 3 && self.cfg.congestion_control && self.in_recovery {
                    self.cwnd += self.cfg.mss;
                }
            } else if self.dup_ack_rx == 3 {
                if self.in_recovery {
                    self.stats.fast_retransmits += 1;
                    self.rtx_request = true;
                } else {
                    self.enter_fast_recovery();
                }
            } else if self.dup_ack_rx > 3 && self.cfg.congestion_control && self.in_recovery {
                // Each further dup-ACK means another segment left the
                // network: inflate.
                self.cwnd += self.cfg.mss;
            }
        }
    }

    /// Pops retransmission-queue extents fully covered by `snd_una`
    /// into `rtx_released` (recycled at the next ingest) and trims a
    /// partially covered front extent in place.
    fn rtx_release(&mut self) {
        while let Some((seq, _, nb)) = self.rtx_q.front_mut() {
            let end = seq.wrapping_add(nb.len() as u32);
            if Self::seq_le(end, self.snd_una) {
                let Some((_, _, nb)) = self.rtx_q.pop_front() else {
                    // front_mut() above proved the queue is non-empty.
                    debug_assert!(false, "rtx_q emptied between front_mut() and pop_front()");
                    break;
                };
                self.rtx_released.push(nb);
            } else if Self::seq_lt(*seq, self.snd_una) {
                let trim = self.snd_una.wrapping_sub(*seq) as usize;
                nb.pull_header(trim);
                *seq = self.snd_una;
                break;
            } else {
                break;
            }
        }
    }

    /// Files a returning TX frame's payload extent back into the
    /// retransmission queue (sequence-sorted, overlap-trimmed against
    /// both neighbours and `snd_una`). Returns the buffer when its
    /// bytes are already acknowledged or duplicated — the caller
    /// recycles it to the pool. The stack calls this when a frame
    /// tagged with a [`TcpHold`](uknetdev::netbuf::TcpHold) comes back
    /// from the device; `sent_ns` is the hold's transmission stamp —
    /// the extent keeps it in the queue so RACK can judge freshness.
    pub fn rtx_return(&mut self, seq: u32, sent_ns: u64, nb: Netbuf) -> Option<Netbuf> {
        let mut seq = seq;
        let mut nb = nb;
        if nb.is_empty() || self.state == TcpState::Closed {
            return Some(nb);
        }
        let mut end = seq.wrapping_add(nb.len() as u32);
        if Self::seq_le(end, self.snd_una) {
            return Some(nb); // Fully acknowledged while in flight.
        }
        if Self::seq_lt(seq, self.snd_una) {
            let trim = self.snd_una.wrapping_sub(seq) as usize;
            nb.pull_header(trim);
            seq = self.snd_una;
        }
        let mut idx = self.rtx_q.len();
        while idx > 0 && Self::seq_lt(seq, self.rtx_q[idx - 1].0) {
            idx -= 1;
        }
        if idx > 0 {
            // A retransmitted copy of this range may already sit in the
            // queue (original and retransmission both came home): keep
            // only the uncovered tail.
            let (pseq, _, pnb) = &self.rtx_q[idx - 1];
            let pend = pseq.wrapping_add(pnb.len() as u32);
            if Self::seq_le(end, pend) {
                return Some(nb);
            }
            if Self::seq_lt(seq, pend) {
                let trim = pend.wrapping_sub(seq) as usize;
                nb.pull_header(trim);
                seq = pend;
            }
        }
        if idx < self.rtx_q.len() {
            let succ_seq = self.rtx_q[idx].0;
            end = seq.wrapping_add(nb.len() as u32);
            if Self::seq_lt(succ_seq, end) {
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
            self.rtx_deadline_ns = Some(self.now_ns.saturating_add(self.rto_ns));
        }
        None
    }

    /// Feeds an RTT measurement into the RFC 6298 estimator.
    fn rtt_sample(&mut self, sample_ns: u64) {
        if self.srtt_ns == 0 {
            self.srtt_ns = sample_ns.max(1);
            self.rttvar_ns = sample_ns / 2;
        } else {
            let diff = self.srtt_ns.abs_diff(sample_ns);
            self.rttvar_ns = (3 * self.rttvar_ns + diff) / 4;
            self.srtt_ns = (7 * self.srtt_ns + sample_ns) / 8;
        }
        self.rto_ns = self.computed_rto();
    }

    /// The un-backed-off RTO from the current estimator state.
    fn computed_rto(&self) -> u64 {
        if self.srtt_ns == 0 {
            RTO_INITIAL_NS
        } else {
            (self.srtt_ns + (4 * self.rttvar_ns).max(1)).clamp(RTO_MIN_NS, RTO_MAX_NS)
        }
    }

    /// Fires the retransmission/persist timer if its deadline passed
    /// (an ACK may have moved it on since the owner was told of it).
    fn on_rto(&mut self, now_ns: u64) {
        if self.rtx_deadline_ns.is_none_or(|d| now_ns < d) {
            return;
        }
        self.stats.rto_fires += 1;
        self.backoff = self.backoff.saturating_add(1);
        self.rto_ns = (self.rto_ns * 2).min(RTO_MAX_NS);
        self.rtt_probe = None; // Karn: samples over retransmits lie.
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
                    self.sack_rtx_mark = self.snd_una;
                    self.reo_deadline_ns = None;
                    self.tlp_deadline_ns = None;
                    // Reneging safeguard (RFC 6675 §5.1): a receiver
                    // under memory pressure may discard data it
                    // already SACKed (see `shed_newest_ooo`), so an
                    // RTO distrusts the whole scoreboard — everything
                    // outstanding is eligible for retransmission
                    // again.
                    self.sacked.clear();
                    if self.cfg.congestion_control {
                        let flight = self.bytes_in_flight() as usize;
                        self.ssthresh = (flight / 2).max(2 * self.cfg.mss);
                        self.cwnd = self.cfg.mss;
                    }
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
        self.rtx_deadline_ns = Some(now_ns.saturating_add(self.rto_ns));
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
    fn can_retransmit(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait | TcpState::LastAck
        )
    }

    /// Re-emits the retransmission-queue extent `nb` at `start`: the
    /// original frame's payload buffer (headers stripped, headroom
    /// restored), moved back out without a copy; its next return
    /// re-files it. Karn: an RTT sample over a retransmission would lie.
    fn retransmit<F: FnMut(TcpHeader, Netbuf)>(&mut self, start: u32, nb: Netbuf, emit: &mut F) {
        let header = self.header_at(start, TcpFlags { psh: true, ..TcpFlags::ACK });
        self.stats.retransmits += 1;
        self.rtt_probe = None;
        emit(header, nb);
    }

    /// Handles an incoming segment (borrowed-payload convenience over
    /// [`on_segment_bufs`](Self::on_segment_bufs); accepted payload is
    /// copied into a heap netbuf — tests and diagnostics only, the
    /// stack's hot path hands the RX buffer itself over).
    pub fn on_segment(&mut self, h: &TcpHeader, payload: &[u8]) {
        self.on_segment_parts(h, std::iter::once(payload))
    }

    /// [`on_segment`](Self::on_segment) for a payload delivered as
    /// several contiguous extents — the shape of a big-receive
    /// (`VIRTIO_NET_F_GUEST_TSO4`) super-segment. The parts are one
    /// segment: control processing happens once, the parts are
    /// ingested back-to-back in sequence order.
    pub fn on_segment_parts<'a, I>(&mut self, h: &TcpHeader, payload: I)
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        self.on_segment_bufs(
            h,
            payload
                .into_iter()
                .filter(|p| !p.is_empty())
                .map(Netbuf::from_slice),
            |_| {},
        )
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
    pub fn on_segment_bufs<I, R>(&mut self, h: &TcpHeader, payload: I, mut recycle: R)
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
                payload.for_each(recycle);
            }
            TcpState::SynSent => {
                if h.flags.syn && h.flags.ack {
                    self.process_ack(h, 0);
                    self.rcv_nxt = h.seq.wrapping_add(1);
                    self.emit(TcpFlags::ACK);
                    self.state = TcpState::Established;
                }
                payload.for_each(recycle);
            }
            TcpState::SynReceived => {
                if h.flags.ack {
                    self.process_ack(h, 0);
                    self.state = TcpState::Established;
                    // The ACK completing the handshake may carry data.
                    self.ingest_bufs(h, payload, &mut recycle);
                } else {
                    payload.for_each(recycle);
                }
            }
            TcpState::Established
            | TcpState::FinWait
            | TcpState::FinWait2
            | TcpState::CloseWait => {
                let seg_end = self.ingest_bufs(h, payload, &mut recycle);
                let seg_payload = seg_end.wrapping_sub(h.seq) as usize;
                self.process_ack(h, seg_payload);
                while let Some(nb) = self.rtx_released.pop() {
                    recycle(nb);
                }
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
                } else if h.flags.fin && self.state == TcpState::Established {
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                    self.peer_fin = true;
                    self.emit(TcpFlags::ACK);
                    self.state = TcpState::CloseWait;
                } else if h.flags.fin
                    && matches!(self.state, TcpState::FinWait | TcpState::FinWait2)
                {
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                    self.peer_fin = true;
                    self.emit(TcpFlags::ACK);
                    // Both FINs exchanged: park in TIME_WAIT for 2MSL
                    // (a retransmitted peer FIN still finds us and our
                    // final ACK can be regenerated).
                    self.state = TcpState::TimeWait;
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
                while let Some(nb) = self.rtx_released.pop() {
                    recycle(nb);
                }
            }
            TcpState::Closed => {
                // Reply RST to anything but RST.
                self.emit(TcpFlags { rst: true, ..TcpFlags::ACK });
                payload.for_each(recycle);
            }
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
                } else if Self::seq_le(end, self.rcv_nxt) {
                    // Wholly old/duplicated: drop — but never silently
                    // (see below); the duplicate arrival is reported
                    // back as a D-SACK so the peer can tell a spurious
                    // retransmission from a lost ACK.
                    dropped = true;
                    self.note_dsack(seq, end);
                    recycle(nb);
                } else if Self::seq_lt(seq, self.rcv_nxt) {
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
                    self.ooo_insert(seq, nb, recycle);
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
            self.ack_now |= !self.ooo_q.is_empty();
            // The accepted bytes may have closed the hole in front of
            // the reassembly queue: drain every now-contiguous extent.
            self.ooo_drain(recycle);
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

    /// Files an out-of-order extent into the reassembly queue:
    /// sequence-sorted insert, overlap trimmed against both neighbours
    /// (fully covered, over-budget, or out-of-horizon extents are
    /// recycled instead).
    fn ooo_insert<R: FnMut(Netbuf)>(&mut self, seq: u32, nb: Netbuf, recycle: &mut R) {
        let mut seq = seq;
        let mut nb = nb;
        if self.ooo_q.len() >= OOO_QUEUE_BUFS
            || self.ooo_bytes + nb.len() > OOO_QUEUE_BYTES
            || seq.wrapping_sub(self.rcv_nxt) > OOO_SEQ_HORIZON
        {
            recycle(nb);
            return;
        }
        let mut idx = self.ooo_q.len();
        while idx > 0 && Self::seq_lt(seq, self.ooo_q[idx - 1].0) {
            idx -= 1;
        }
        let mut end = seq.wrapping_add(nb.len() as u32);
        if idx > 0 {
            let (pseq, pnb) = &self.ooo_q[idx - 1];
            let pend = pseq.wrapping_add(pnb.len() as u32);
            if Self::seq_le(end, pend) {
                // Fully covered by a queued extent: a duplicate
                // arrival, reported back as a D-SACK.
                self.note_dsack(seq, end);
                recycle(nb);
                return;
            }
            if Self::seq_lt(seq, pend) {
                let trim = pend.wrapping_sub(seq) as usize;
                nb.pull_header(trim);
                seq = pend;
            }
        }
        if idx < self.ooo_q.len() {
            let succ_seq = self.ooo_q[idx].0;
            end = seq.wrapping_add(nb.len() as u32);
            if Self::seq_lt(succ_seq, end) {
                // Keep only the part in front of the queued successor;
                // any tail beyond it is the peer's to retransmit.
                let keep = succ_seq.wrapping_sub(seq) as usize;
                if keep == 0 {
                    self.note_dsack(seq, end);
                    recycle(nb);
                    return;
                }
                nb.truncate(keep);
            }
        }
        self.ooo_bytes += nb.len();
        self.stats.ooo_queued += 1;
        // RFC 2018 §4: the first SACK block must report the block
        // containing the most recently received extent.
        self.sack_recent = Some(seq);
        self.ooo_q.insert(idx, (seq, nb));
    }

    /// Records a duplicate data arrival for D-SACK reporting
    /// (RFC 2883) — only when the SACK machinery is on and the peer
    /// negotiated it; at most one pending report (the newest wins),
    /// emitted as the first block of exactly one SACK option.
    fn note_dsack(&mut self, seq: u32, end: u32) {
        if self.cfg.sack && self.peer_sack_ok {
            self.dsack_pending = Some((seq, end));
        }
    }

    /// Builds the SACK option for the next pure ACK into `buf`,
    /// returning its total length (0 = nothing to report). Layout:
    /// `NOP NOP 5 len` then up to [`MAX_SACK_BLOCKS`] 8-byte blocks —
    /// a pending D-SACK first (RFC 2883), then the merged reassembly
    /// range containing the most recently queued extent (RFC 2018
    /// §4's recency rule), then the remaining merged ranges ascending,
    /// at most 3 non-D-SACK blocks. Consumes the pending D-SACK; the
    /// stack calls this once per output poll and attaches the bytes
    /// to the first pure ACK it emits (data frames can't carry
    /// options — the GSO cutter assumes a bare header).
    pub fn fill_sack_option(&mut self, buf: &mut [u8; TCP_MAX_OPT_LEN]) -> usize {
        if !self.cfg.sack || !self.peer_sack_ok {
            self.dsack_pending = None;
            return 0;
        }
        let dsack = self.dsack_pending.take();
        if dsack.is_none() && self.ooo_q.is_empty() {
            return 0;
        }
        let mut blocks = [(0u32, 0u32); MAX_SACK_BLOCKS];
        let mut n = 0;
        if let Some(d) = dsack {
            blocks[n] = d;
            n += 1;
        }
        // Merge the (sorted, overlap-trimmed) reassembly extents into
        // contiguous ranges on the fly: the range holding the most
        // recent insert is set aside to lead, the rest collect
        // ascending.
        let recent = self.sack_recent;
        let mut recent_block: Option<(u32, u32)> = None;
        let mut asc = [(0u32, 0u32); MAX_SACK_BLOCKS];
        let mut asc_n = 0;
        let file = |r: (u32, u32),
                        recent_block: &mut Option<(u32, u32)>,
                        asc: &mut [(u32, u32); MAX_SACK_BLOCKS],
                        asc_n: &mut usize| {
            if recent.is_some_and(|p| Self::seq_le(r.0, p) && Self::seq_lt(p, r.1)) {
                *recent_block = Some(r);
            } else if *asc_n < asc.len() {
                asc[*asc_n] = r;
                *asc_n += 1;
            }
        };
        let mut cur: Option<(u32, u32)> = None;
        for (seq, nb) in &self.ooo_q {
            let end = seq.wrapping_add(nb.len() as u32);
            match cur {
                Some((s, e)) if e == *seq => cur = Some((s, end)),
                Some(r) => {
                    file(r, &mut recent_block, &mut asc, &mut asc_n);
                    cur = Some((*seq, end));
                }
                None => cur = Some((*seq, end)),
            }
        }
        if let Some(r) = cur {
            file(r, &mut recent_block, &mut asc, &mut asc_n);
        }
        let mut normal = 0;
        if let Some(r) = recent_block {
            blocks[n] = r;
            n += 1;
            normal += 1;
        }
        let mut i = 0;
        while normal < 3 && i < asc_n && n < MAX_SACK_BLOCKS {
            blocks[n] = asc[i];
            n += 1;
            normal += 1;
            i += 1;
        }
        if n == 0 {
            return 0;
        }
        buf[0] = 1; // NOP.
        buf[1] = 1; // NOP.
        buf[2] = 5; // SACK.
        buf[3] = (2 + 8 * n) as u8;
        for (i, (s, e)) in blocks[..n].iter().enumerate() {
            let o = 4 + i * 8;
            buf[o..o + 4].copy_from_slice(&s.to_be_bytes());
            buf[o + 4..o + 8].copy_from_slice(&e.to_be_bytes());
        }
        4 + 8 * n
    }

    /// Drains reassembly-queue extents made contiguous by an advance
    /// of `rcv_nxt` into the receive queue (front-trimming partial
    /// overlap, recycling wholly stale entries).
    fn ooo_drain<R: FnMut(Netbuf)>(&mut self, recycle: &mut R) {
        while let Some(&(seq, _)) = self.ooo_q.front() {
            if Self::seq_lt(self.rcv_nxt, seq) {
                break; // Still a hole in front of the queue.
            }
            let Some((seq, mut nb)) = self.ooo_q.pop_front() else {
                // front() above proved the queue is non-empty.
                debug_assert!(false, "ooo_q emptied between front() and pop_front()");
                break;
            };
            self.ooo_bytes -= nb.len();
            let end = seq.wrapping_add(nb.len() as u32);
            if Self::seq_le(end, self.rcv_nxt) {
                recycle(nb); // Stale: in-order delivery overtook it.
                continue;
            }
            if Self::seq_lt(seq, self.rcv_nxt) {
                let trim = self.rcv_nxt.wrapping_sub(seq) as usize;
                nb.pull_header(trim);
            }
            self.accept_in_order(nb, recycle);
        }
    }

    /// Recycles **every** pooled buffer the TCB holds — send queue,
    /// receive queue, and the recovery queues — and clears the armed
    /// deadlines. The stack's reaper calls this — after a protocol
    /// timeout, a closed connection's linger or a SYN-queue eviction —
    /// so a torn-down connection returns its memory to the pools in
    /// full.
    pub fn drain_all_buffers<R: FnMut(Netbuf)>(&mut self, mut recycle: R) {
        while let Some(nb) = self.send_q.pop_front() {
            recycle(nb);
        }
        self.send_q_len = 0;
        while let Some(nb) = self.recv_q.pop_front() {
            recycle(nb);
        }
        self.recv_q_len = 0;
        self.drain_recovery_queues(&mut recycle);
        self.ack_deadline_ns = None;
        self.life_deadline_ns = None;
        self.ack_pending = false;
        self.ack_now = false;
        self.wnd_update_due = false;
        self.out.clear();
    }

    /// Recycles every buffer held for loss recovery (retransmission
    /// queue, pending releases, reassembly queue) — called when the
    /// connection dies and can no longer use them.
    fn drain_recovery_queues<R: FnMut(Netbuf)>(&mut self, recycle: &mut R) {
        while let Some((_, _, nb)) = self.rtx_q.pop_front() {
            recycle(nb);
        }
        while let Some(nb) = self.rtx_released.pop() {
            recycle(nb);
        }
        while let Some((_, nb)) = self.ooo_q.pop_front() {
            recycle(nb);
        }
        self.ooo_bytes = 0;
        self.rtx_deadline_ns = None;
        self.sacked.clear();
        self.dsack_pending = None;
        self.sack_recent = None;
        self.reo_deadline_ns = None;
        self.tlp_deadline_ns = None;
        self.tlp_pending = false;
        self.pace_deadline_ns = None;
        self.pace_budget = 0;
    }

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
    pub fn app_send_with<T: FnMut() -> Netbuf>(
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

    /// Reads up to `max` bytes the peer sent. A drain that reopens the
    /// receive window far enough owes the peer a window-update ACK so
    /// its transmission can resume (rule c of the ACK policy).
    // ukcheck: allow(alloc) -- allocating convenience API; zero-copy
    // callers use `app_recv_into`/`app_recv_into_with`
    pub fn app_recv(&mut self, max: usize) -> Vec<u8> {
        let mut data = vec![0u8; max.min(self.recv_q_len)];
        let n = self.app_recv_into(&mut data);
        data.truncate(n);
        data
    }

    /// Copies up to `out.len()` received bytes into `out` (the
    /// allocation-free receive copy path), returning the count. Spent
    /// queue buffers are dropped — the pooled path is
    /// [`app_recv_into_with`](Self::app_recv_into_with). Same
    /// window-update semantics as [`app_recv`](Self::app_recv).
    pub fn app_recv_into(&mut self, out: &mut [u8]) -> usize {
        self.app_recv_into_with(out, |_| {})
    }

    /// [`app_recv_into`](Self::app_recv_into) with an explicit buffer
    /// sink: queue buffers drained to exhaustion are handed to
    /// `recycle` (the stack returns them to its pool). A buffer only
    /// partially consumed by the copy retains its tail — the start of
    /// its payload advances over the copied bytes and it stays at the
    /// queue front (split-and-retain).
    pub fn app_recv_into_with<R: FnMut(Netbuf)>(&mut self, out: &mut [u8], mut recycle: R) -> usize {
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
    pub fn app_recv_netbuf(&mut self) -> Option<Netbuf> {
        let nb = self.recv_q.pop_front()?;
        self.recv_q_len -= nb.len();
        self.window_update_after_drain();
        Some(nb)
    }

    /// Rule (c) of the ACK policy: owes the peer a window update when
    /// draining moved the right edge it may send up to by at least
    /// min(`RCV_BUF_CAP`/2, 2·MSS) past the one last advertised
    /// (RFC 1122 §4.2.3.3's receiver-side SWS avoidance), or reopened
    /// a window advertised as zero. Without it a sender that filled
    /// the advertised window waits for an ACK nothing else triggers.
    /// A flag rather than a queued segment, so a burst of drains is
    /// answered with one update carrying the final window.
    fn window_update_after_drain(&mut self) {
        if self.wnd_update_due || self.state == TcpState::Closed {
            return;
        }
        let edge = self.rcv_nxt.wrapping_add(u32::from(self.rcv_window()));
        let advertised = self.last_ack_sent.wrapping_add(u32::from(self.last_adv_wnd));
        let gain = edge.wrapping_sub(advertised) as usize;
        self.wnd_update_due =
            self.last_adv_wnd == 0 || gain >= (RCV_BUF_CAP / 2).min(2 * self.cfg.mss);
    }

    /// Bytes available to read.
    pub fn readable(&self) -> usize {
        self.recv_q_len
    }

    /// Whether control output (ACKs, window updates, handshake
    /// segments) must leave at the next poll — the cheap "does a flush
    /// have anything to do" probe the receive paths use to avoid a
    /// full output poll per read. A held ACK is not pending control:
    /// flushing on its account would send it ahead of the reply meant
    /// to carry it.
    pub fn has_pending_control(&self) -> bool {
        !self.out.is_empty() || self.dup_ack_now || self.wnd_update_due
    }

    /// Whether the peer has closed and all data was read.
    pub fn peer_closed(&self) -> bool {
        self.peer_fin && self.recv_q_len == 0
    }

    /// Whether the peer's FIN has arrived (data may remain buffered) —
    /// the `EPOLLRDHUP` condition.
    pub fn peer_fin_seen(&self) -> bool {
        self.peer_fin
    }

    /// Starts an orderly close once the send buffer drains.
    pub fn app_close(&mut self) {
        self.closing = true;
    }

    /// Bytes sent but not yet acknowledged.
    pub fn bytes_in_flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Oldest unacknowledged sequence number.
    pub fn snd_una(&self) -> u32 {
        self.snd_una
    }

    /// Next sequence number to be sent.
    pub fn snd_nxt(&self) -> u32 {
        self.snd_nxt
    }

    /// Next sequence number expected from the peer.
    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    /// Whether the peer's advertised window admits no more data.
    pub fn window_closed(&self) -> bool {
        self.bytes_in_flight() >= self.snd_wnd
    }

    /// Free space in the send buffer (0 when not in a sendable state).
    pub fn send_capacity(&self) -> usize {
        match self.state {
            TcpState::Established | TcpState::CloseWait | TcpState::SynReceived => {
                SND_BUF_CAP - self.send_q_len.min(SND_BUF_CAP)
            }
            _ => 0,
        }
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
            && self.ooo_q.is_empty()
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
    pub fn poll_output_chain_with<T, F>(&mut self, max_seg: usize, mut take_buf: T, mut emit: F)
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
            if self.cfg.sack && !self.sacked.is_empty() {
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
                let wnd = if self.cfg.congestion_control {
                    (self.snd_wnd as usize).min(self.cwnd)
                } else {
                    self.snd_wnd as usize
                };
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
                if self.rtt_probe.is_none() && self.backoff == 0 {
                    // Time this flight for the RFC 6298 estimator.
                    self.rtt_probe = Some((self.snd_nxt, self.now_ns));
                }
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
                self.rtx_deadline_ns = Some(self.now_ns.saturating_add(self.rto_ns));
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
            let mut pto = if self.srtt_ns > 0 {
                2 * self.srtt_ns
            } else {
                RTO_INITIAL_NS / 2
            }
            .max(TLP_MIN_NS);
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
                    .saturating_add((self.srtt_ns / 8).max(PACE_INTERVAL_MIN_NS)),
            );
        }
        self.arm_life();
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
    fn hole_walk<F>(&mut self, emit: &mut F, pacing: bool, pace_starved: &mut bool) -> bool
    where
        F: FnMut(TcpHeader, Netbuf),
    {
        let Some(&(_, high)) = self.sacked.last() else {
            return false;
        };
        let mut budget = if pacing {
            self.pace_budget
        } else if self.cfg.congestion_control {
            (self.snd_wnd as usize).min(self.cwnd).max(2 * self.cfg.mss)
        } else {
            usize::MAX
        };
        let age_floor = self.srtt_ns + self.reo_wnd_ns();
        let mut emitted = false;
        let mut i = 0;
        while i < self.rtx_q.len() {
            let (seq, sent) = (self.rtx_q[i].0, self.rtx_q[i].1);
            let len = self.rtx_q[i].2.len();
            let end = seq.wrapping_add(len as u32);
            if !Self::seq_lt(seq, high) {
                // Nothing above the highest SACKed byte is known lost
                // (the tail is the probe's and the RTO's business).
                break;
            }
            if self.sack_covers(seq, end) {
                i += 1;
                continue;
            }
            let eligible = if self.cfg.rack {
                self.now_ns.saturating_sub(sent) >= age_floor
            } else {
                Self::seq_le(self.sack_rtx_mark, seq)
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
                self.sack_rtx_mark = end;
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
    pub fn poll_output_seg(&mut self, max_seg: usize) -> Vec<OutSegment> {
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

    /// The local port.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// The remote port (0 while listening).
    pub fn remote_port(&self) -> u16 {
        self.remote_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::IpProto;
    use crate::Ipv4Addr;

    fn ip(len: usize) -> Ipv4Header {
        Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            proto: IpProto::Tcp,
            payload_len: len,
            ttl: 64,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq: 12345,
            ack: 67890,
            flags: TcpFlags {
                syn: true,
                ack: true,
                ..Default::default()
            },
            window: 65535,
        };
        let seg = h.encode(&ip(TCP_HDR_LEN + 3), b"abc");
        let (h2, p) = TcpHeader::decode(&ip(TCP_HDR_LEN + 3), &seg).unwrap();
        assert_eq!(h, h2);
        assert_eq!(p, b"abc");
    }

    const SYN: TcpHeader =
        TcpHeader { src_port: 1, dst_port: 2, seq: 0, ack: 0, flags: TcpFlags::SYN, window: 0 };

    #[test]
    #[should_panic(expected = "padded to 32-bit words")]
    fn emit_rejects_unpadded_options() {
        SYN.emit(&ip(TCP_HDR_LEN + 3), &mut Netbuf::alloc(256, 64), &[1, 4, 2], Csum::Software);
    }

    #[test]
    #[should_panic]
    fn emit_rejects_short_headroom() {
        let mut nb = Netbuf::alloc(256, TCP_HDR_LEN + 3);
        SYN.emit(&ip(TCP_HDR_LEN + 4), &mut nb, &SACK_PERMITTED_OPT, Csum::Offload);
    }

    /// Drives two TCBs against each other until no segments remain.
    fn pump(a: &mut Tcb, b: &mut Tcb) {
        for _ in 0..32 {
            let from_a = a.poll_output();
            let from_b = b.poll_output();
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            for s in from_a {
                b.on_segment(&s.header, &s.payload);
            }
            for s in from_b {
                a.on_segment(&s.header, &s.payload);
            }
        }
    }

    /// [`pump`], then time: whenever both ends are quiet the clock jumps
    /// to the earlier of their next deadlines and fires it, until
    /// neither has a segment to send or a deadline to wait for.
    fn settle(a: &mut Tcb, b: &mut Tcb) {
        for _ in 0..64 {
            pump(a, b);
            let Some(now) = a.next_deadline().into_iter().chain(b.next_deadline()).min() else {
                return;
            };
            a.on_time(now);
            b.on_time(now);
        }
        panic!("still busy after 64 deadlines: {:?} / {:?}", a.next_deadline(), b.next_deadline());
    }

    #[test]
    fn three_way_handshake() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1000);
        pump(&mut client, &mut server);
        assert_eq!(client.state, TcpState::Established);
        assert_eq!(server.state, TcpState::Established);
        assert_eq!(server.remote_port(), 4000);
    }

    #[test]
    fn data_transfer_both_directions() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        client.app_send(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        pump(&mut client, &mut server);
        assert_eq!(server.app_recv(1024), b"GET / HTTP/1.1\r\n\r\n");
        server.app_send(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
        pump(&mut client, &mut server);
        assert_eq!(client.app_recv(1024), b"HTTP/1.1 200 OK\r\n\r\n");
    }

    #[test]
    fn large_payload_is_segmented_by_mss() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        let big = vec![0x5a; MSS * 3 + 100];
        client.app_send(&big).unwrap();
        let segs = client.poll_output();
        let data_segs: Vec<_> = segs.iter().filter(|s| !s.payload.is_empty()).collect();
        assert_eq!(data_segs.len(), 4);
        assert!(data_segs[..3].iter().all(|s| s.payload.len() == MSS));
        assert!(data_segs[3].header.flags.psh);
        for s in segs {
            server.on_segment(&s.header, &s.payload);
        }
        assert_eq!(server.readable(), big.len());
        assert_eq!(server.app_recv(usize::MAX), big);
    }

    #[test]
    fn orderly_close_four_way() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        client.app_close();
        pump(&mut client, &mut server);
        assert_eq!(server.state, TcpState::CloseWait);
        assert!(server.peer_closed());
        assert_eq!(client.state, TcpState::FinWait2, "our FIN is acknowledged");
        server.app_close();
        pump(&mut client, &mut server);
        assert_eq!(server.state, TcpState::Closed);
        assert_eq!(client.state, TcpState::TimeWait, "the active closer lingers");
        let entered = client.now_ns;
        settle(&mut client, &mut server);
        assert_eq!(client.state, TcpState::Closed);
        assert_eq!(client.timed_out(), Some(TcpState::TimeWait));
        assert_eq!(client.now_ns, entered + 2 * TCP_MSL_NS, "after 2MSL, no sooner");
        assert_eq!((client.stats().timewait, server.stats().timewait), (1, 0));
        assert_eq!(server.timed_out(), None, "the passive closer was closed by an ACK");
    }

    #[test]
    fn send_before_established_fails() {
        let mut c = Tcb::connect(1, 2, 0);
        assert_eq!(c.app_send(b"x").unwrap_err(), Errno::NotConn);
    }

    #[test]
    fn app_send_is_partial_against_buffer_cap() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        let big = vec![0x7fu8; SND_BUF_CAP + 10_000];
        let accepted = client.app_send(&big).unwrap();
        assert_eq!(accepted, SND_BUF_CAP, "partial write at the cap");
        assert_eq!(client.send_capacity(), 0);
        assert_eq!(client.app_send(b"more").unwrap_err(), Errno::Again);
    }

    #[test]
    fn window_closes_then_reopens_on_drain() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        // More than one full receive window, queued at once.
        let big: Vec<u8> = (0..RCV_BUF_CAP + 1)
            .map(|i| (i % 251) as u8)
            .collect();
        let accepted = client.app_send(&big).unwrap();
        assert_eq!(accepted, big.len(), "fits the send buffer");
        pump(&mut client, &mut server);
        // The receiver's window admitted exactly one window's worth; the
        // tail stays queued and the tx window is reported closed.
        assert_eq!(server.readable(), RCV_BUF_CAP);
        assert!(client.window_closed(), "zero window reached");
        // Draining the receiver emits a window update that releases the
        // remaining byte — nothing was dropped.
        let first = server.app_recv(usize::MAX);
        pump(&mut client, &mut server);
        let rest = server.app_recv(usize::MAX);
        assert!(!client.window_closed());
        let mut all = first;
        all.extend_from_slice(&rest);
        assert_eq!(all, big, "stream intact across the closed-window stretch");
    }

    #[test]
    fn fin_waits_for_window_limited_data() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        let big = vec![1u8; RCV_BUF_CAP + 5];
        client.app_send(&big).unwrap();
        client.app_close();
        pump(&mut client, &mut server);
        // FIN must not overtake the queued tail.
        assert!(!server.peer_fin_seen(), "FIN held back behind data");
        server.app_recv(usize::MAX);
        pump(&mut client, &mut server);
        server.app_recv(usize::MAX);
        pump(&mut client, &mut server);
        assert!(server.peer_fin_seen(), "FIN delivered after drain");
    }

    /// The audit pinning super-segment output against the send-queue
    /// and window machinery: every emitted byte range must be
    /// contiguous in sequence space (no double-send), and draining the
    /// receiver must always release the queued tail (no stall) — even
    /// when a partial peer window splits a super-segment mid-buffer,
    /// leaving a partially-consumed buffer at the queue front.
    #[test]
    fn partial_window_splits_super_segment_without_stall_or_double_send() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        let total = SND_BUF_CAP; // One byte beyond the 65535 window.
        let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        assert_eq!(client.app_send(&data).unwrap(), total);

        let gso_budget = 60 * 1024;
        let mut stream: Vec<u8> = Vec::new();
        let mut next_seq: Option<u32> = None;
        for _ in 0..64 {
            let mut progressed = false;
            for s in client.poll_output_seg(gso_budget) {
                if !s.payload.is_empty() {
                    // Sequence space must advance without gap or
                    // overlap across window-split super-segments.
                    if let Some(exp) = next_seq {
                        assert_eq!(s.header.seq, exp, "contiguous super-segments");
                    }
                    next_seq = Some(s.header.seq.wrapping_add(s.payload.len() as u32));
                    stream.extend_from_slice(&s.payload);
                }
                server.on_segment(&s.header, &s.payload);
                progressed = true;
            }
            // The receiver drains slowly, reopening the window a
            // little at a time — the split points move around and
            // land mid-buffer (7000 is not a buffer multiple).
            server.app_recv(7000);
            for s in server.poll_output() {
                client.on_segment(&s.header, &s.payload);
            }
            if !progressed && stream.len() == total && server.readable() == 0 {
                break;
            }
        }
        assert_eq!(stream.len(), total, "no byte stalled behind a split window");
        assert_eq!(stream, data, "byte stream intact, nothing double-sent");
        assert_eq!(client.bytes_in_flight(), 0, "everything acknowledged");
    }

    /// The zero-copy send queue: emitting a super-segment *moves* the
    /// queued buffers into the chain instead of copying — only a
    /// window/budget boundary mid-buffer copies the split-off part.
    #[test]
    fn super_segment_emission_moves_queued_buffers() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        let data = vec![0x3cu8; 10_000];
        client.app_send(&data).unwrap();
        let mut takes = 0usize;
        let mut chains = Vec::new();
        client.poll_output_chain_with(
            60 * 1024,
            || {
                takes += 1;
                Netbuf::alloc(2048, 64)
            },
            |_, chain| chains.push(chain),
        );
        assert_eq!(chains.len(), 1, "one super-segment");
        let chain = chains.pop().unwrap();
        assert_eq!(chain.chain_len(), 10_000);
        assert!(chain.frag_count() > 1, "payload spans a chain");
        assert_eq!(
            takes, 0,
            "no buffer was taken at emission: the queue's own buffers moved"
        );
    }

    /// The receive buffer is still a byte ring: after drain/refill
    /// cycles its contents wrap the backing storage and
    /// `app_recv_into` reads cross the wrap point as two slices. The
    /// delivered stream must stay exact through the wrap.
    #[test]
    fn recv_ring_wraparound_keeps_stream_exact() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        let mut sent_log: Vec<u8> = Vec::new();
        let mut rcvd_log: Vec<u8> = Vec::new();
        let mut out = vec![0u8; 40_000];
        for round in 0..8u32 {
            // Keep a residue buffered (read less than arrived) so the
            // ring head advances without resetting, forcing wraps.
            let data: Vec<u8> =
                (0..30_000).map(|i| ((i as u32 * 31 + round) % 251) as u8).collect();
            assert_eq!(client.app_send(&data).unwrap(), data.len());
            sent_log.extend_from_slice(&data);
            pump(&mut client, &mut server);
            let n = server.app_recv_into(&mut out[..29_000]);
            rcvd_log.extend_from_slice(&out[..n]);
        }
        // Drain the residue.
        loop {
            let n = server.app_recv_into(&mut out);
            if n == 0 {
                break;
            }
            rcvd_log.extend_from_slice(&out[..n]);
        }
        pump(&mut client, &mut server);
        assert_eq!(rcvd_log.len(), sent_log.len(), "no byte lost across wraps");
        assert_eq!(rcvd_log, sent_log, "stream exact through ring wraps");
    }

    #[test]
    fn acks_coalesce_across_an_ingest_burst() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        client.app_send(&vec![0x11u8; MSS * 8]).unwrap();
        let segs = client.poll_output();
        assert_eq!(segs.len(), 8);
        for s in &segs {
            server.on_segment(&s.header, &s.payload);
        }
        let acks = server.poll_output();
        assert_eq!(acks.len(), 1, "one coalesced ACK for the whole burst");
        assert_eq!(
            acks[0].header.ack,
            segs.last().unwrap().header.seq.wrapping_add(MSS as u32),
            "cumulative acknowledgement"
        );
    }

    /// The silent-drop regression: a duplicated segment (seq <
    /// rcv_nxt) must be answered with an immediate pure ACK at the
    /// cumulative position — the old code dropped it without a word,
    /// so a peer waiting for that acknowledgement wedged forever.
    #[test]
    fn duplicated_segment_gets_an_immediate_dup_ack() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        client.app_send(b"hello dup").unwrap();
        let segs = client.poll_output();
        for s in &segs {
            server.on_segment(&s.header, &s.payload);
        }
        let _ = server.poll_output(); // Drain the first ACK.
        let expected_ack = server.rcv_nxt;
        // The same data segment arrives again (duplicated delivery).
        let data_seg = segs.iter().find(|s| !s.payload.is_empty()).unwrap();
        server.on_segment(&data_seg.header, &data_seg.payload);
        assert_eq!(server.readable(), b"hello dup".len(), "no double ingest");
        let acks = server.poll_output();
        assert_eq!(acks.len(), 1, "dup-ACK emitted, not silence");
        assert!(acks[0].payload.is_empty());
        assert!(acks[0].header.flags.ack);
        assert_eq!(
            acks[0].header.ack, expected_ack,
            "dup-ACK carries the cumulative position"
        );
    }

    /// Out-of-window (future) data is also dropped loudly: the pure
    /// ACK at rcv_nxt is what tells the peer to retransmit the gap.
    #[test]
    fn out_of_order_segment_is_dropped_with_a_dup_ack() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        let rcv_before = server.rcv_nxt;
        let gap = TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq: rcv_before.wrapping_add(1000), // A hole precedes this.
            ack: server.snd_nxt,
            flags: TcpFlags {
                ack: true,
                psh: true,
                ..Default::default()
            },
            window: 65535,
        };
        server.on_segment(&gap, b"future bytes");
        assert_eq!(server.readable(), 0, "gapped data not ingested");
        assert_eq!(server.rcv_nxt, rcv_before, "sequence space untouched");
        let acks = server.poll_output();
        assert_eq!(acks.len(), 1, "drop is acknowledged, not silent");
        assert_eq!(acks[0].header.ack, rcv_before);
    }

    /// The FIN-desync regression: a FIN riding a segment whose payload
    /// was dropped (out-of-order) must not advance `rcv_nxt` or
    /// transition state — the old code did both, corrupting the
    /// sequence space so the real data could never be accepted.
    #[test]
    fn fin_with_dropped_out_of_order_data_does_not_desync() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        let rcv_before = server.rcv_nxt;
        // An out-of-order data+FIN segment: its payload starts one
        // byte past rcv_nxt, so nothing can be accepted.
        let ooo = TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq: rcv_before.wrapping_add(1),
            ack: server.snd_nxt,
            flags: TcpFlags {
                ack: true,
                fin: true,
                psh: true,
                ..Default::default()
            },
            window: 65535,
        };
        server.on_segment(&ooo, b"tail");
        assert_eq!(server.state, TcpState::Established, "no bogus CloseWait");
        assert_eq!(server.rcv_nxt, rcv_before, "FIN did not eat a sequence");
        assert!(!server.peer_fin_seen());
        let acks = server.poll_output();
        assert_eq!(acks.len(), 1, "the drop was dup-ACKed");
        assert_eq!(acks[0].header.ack, rcv_before);
        // The stream still works: the in-order bytes and FIN arrive
        // and the connection closes normally.
        client.app_send(b"xtail").unwrap();
        client.app_close();
        pump(&mut client, &mut server);
        assert_eq!(server.app_recv(usize::MAX), b"xtail", "stream intact");
        assert_eq!(server.state, TcpState::CloseWait, "real FIN processed");
        assert!(server.peer_fin_seen());
    }

    /// A FIN-only segment that is itself out of order (retransmitted
    /// duplicate) is ignored but acknowledged.
    #[test]
    fn duplicate_fin_is_not_processed_twice() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        client.app_close();
        let segs = client.poll_output();
        let fin = segs.iter().find(|s| s.header.flags.fin).unwrap();
        server.on_segment(&fin.header, &fin.payload);
        assert_eq!(server.state, TcpState::CloseWait);
        let rcv_after_fin = server.rcv_nxt;
        let _ = server.poll_output();
        // The same FIN again: seq now sits one below rcv_nxt.
        server.on_segment(&fin.header, &fin.payload);
        assert_eq!(server.rcv_nxt, rcv_after_fin, "FIN consumed exactly once");
        assert_eq!(server.state, TcpState::CloseWait);
        let acks = server.poll_output();
        assert_eq!(acks.len(), 1, "duplicate FIN is re-ACKed");
        assert_eq!(acks[0].header.ack, rcv_after_fin);
    }

    /// The zero-copy receive queue: ingested buffers come back out
    /// whole through `app_recv_netbuf`, in order, and mixing the copy
    /// path with the netbuf path preserves the stream (a partially
    /// copied buffer retains its tail at the queue front).
    #[test]
    fn recv_netbuf_hands_out_ingested_buffers_in_order() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        client.app_send(b"first-segment").unwrap();
        for s in client.poll_output() {
            server.on_segment(&s.header, &s.payload);
        }
        client.app_send(b"second-segment").unwrap();
        for s in client.poll_output() {
            server.on_segment(&s.header, &s.payload);
        }
        assert_eq!(server.readable(), 27);
        // Copy out part of the first buffer; the tail must be retained.
        let mut head = [0u8; 6];
        assert_eq!(server.app_recv_into(&mut head), 6);
        assert_eq!(&head, b"first-");
        let nb = server.app_recv_netbuf().expect("retained tail");
        assert_eq!(nb.payload(), b"segment");
        let nb2 = server.app_recv_netbuf().expect("second buffer");
        assert_eq!(nb2.payload(), b"second-segment");
        assert!(server.app_recv_netbuf().is_none());
        assert_eq!(server.readable(), 0);
    }

    /// A connection driven until `kind` is armed on the TCB it
    /// returns.
    fn armed(kind: TcbTimer) -> Tcb {
        let cfg = TcbConfig { rack: true, pacing: true, ..TcbConfig::default() };
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1000);
        server.configure(cfg);
        client.configure(cfg);
        if kind == TcbTimer::Life {
            // A SYN nobody answers: the handshake is on the clock.
            client.poll_output();
            return client;
        }
        pump(&mut client, &mut server);
        // A flight nobody acknowledges arms the RTO and, ahead of it,
        // RACK's tail-loss probe.
        client.app_send(&[7; 20_000]).unwrap();
        let flight = client.poll_output();
        match kind {
            TcbTimer::Rto | TcbTimer::Rack => client,
            // One segment's ACK is held for a reply to carry.
            TcbTimer::DelAck => {
                server.on_segment(&flight[0].header, &flight[0].payload);
                assert!(server.poll_output().is_empty(), "the ACK is held");
                server
            }
            // Past a timeout the gate meters what follows: the first
            // quantum leaves, the rest waits for the next release.
            TcbTimer::Pace => {
                let rto = client.deadline(TcbTimer::Rto).expect("RTO armed");
                client.on_timer(TcbTimer::Rto, rto);
                client.app_send(&[8; 20_000]).unwrap();
                client.poll_output();
                client
            }
            TcbTimer::Life => unreachable!("returned above"),
        }
    }

    #[test]
    fn every_timer_kind_arms_fires_counts_and_clears() {
        for kind in TcbTimer::ALL {
            let mut tcb = armed(kind);
            let due = tcb.deadline(kind).unwrap_or_else(|| panic!("{kind:?} is armed"));
            let before = *tcb.stats();
            tcb.on_timer(kind, due);
            let after = *tcb.stats();
            let fired = match kind {
                TcbTimer::Rto => after.rto_fires - before.rto_fires,
                TcbTimer::DelAck => after.delack_fires - before.delack_fires,
                TcbTimer::Rack => {
                    (after.fast_retransmits + after.tlp_probes)
                        - (before.fast_retransmits + before.tlp_probes)
                }
                TcbTimer::Pace => after.paced_releases - before.paced_releases,
                TcbTimer::Life => u32::from(tcb.timed_out() == Some(TcpState::SynSent)),
            };
            assert_eq!(fired, 1, "{kind:?} counted its fire");
            // Spent: disarmed — or, for the RTO, backed off to a later one.
            assert!(
                tcb.deadline(kind).is_none_or(|next| next > due),
                "{kind:?} still due at {due}: {:?}",
                tcb.deadline(kind)
            );
            assert_eq!(tcb.deadline(kind).is_some(), kind == TcbTimer::Rto);
        }
    }

    /// Jumps `tcb`'s clock to its next deadline and fires it; the
    /// segments that leaves behind are returned, undelivered.
    fn wait(tcb: &mut Tcb) -> Vec<OutSegment> {
        let now = tcb.next_deadline().expect("a deadline to wait for");
        tcb.on_time(now);
        tcb.poll_output()
    }

    #[test]
    fn unanswered_syn_is_retransmitted_then_times_out() {
        let mut client = Tcb::connect(4000, 80, 1);
        assert_eq!(client.poll_output().len(), 1, "the SYN");
        let mut syns = 0;
        while client.state == TcpState::SynSent {
            syns += wait(&mut client).iter().filter(|s| s.header.flags.syn).count();
        }
        assert_eq!(syns, 2, "retransmitted after 1 s and 3 s; the third is not due by 6 s");
        assert_eq!(client.state, TcpState::Closed);
        assert_eq!(client.timed_out(), Some(TcpState::SynSent));
        assert_eq!(client.now_ns, HANDSHAKE_TIMEOUT_NS);
        assert!(client.poll_output().is_empty(), "a timed-out connection sends nothing");
        assert_eq!(client.next_deadline(), None, "and waits for nothing");
    }

    #[test]
    fn fin_wait_2_orphan_times_out() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        client.app_close();
        pump(&mut client, &mut server);
        assert_eq!((client.state, server.state), (TcpState::FinWait2, TcpState::CloseWait));
        // The server never closes its side.
        settle(&mut client, &mut server);
        assert_eq!(client.state, TcpState::Closed);
        assert_eq!(client.timed_out(), Some(TcpState::FinWait2));
        assert_eq!(client.now_ns, FINWAIT2_TIMEOUT_NS);
        assert_eq!(server.state, TcpState::CloseWait, "nobody told the server");
    }

    #[test]
    fn keepalive_probes_an_idle_peer_and_closes_on_a_dead_one() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        client.configure(TcbConfig { keepalive: true, ..TcbConfig::default() });
        pump(&mut client, &mut server);
        assert_eq!(client.deadline(TcbTimer::Life), Some(KEEPALIVE_IDLE_NS));
        assert_eq!(server.deadline(TcbTimer::Life), None, "keepalive is per side");

        // A live peer: every probe is out of window, so it is answered
        // at once, and the answer starts the idle time over.
        for round in 1..=3u64 {
            // (The wake a probe interval after an answered probe finds
            // the idle time started over, and sends nothing.)
            let probe = std::iter::repeat_with(|| wait(&mut client)).find(|out| !out.is_empty()).unwrap();
            assert_eq!(client.now_ns, round * KEEPALIVE_IDLE_NS);
            assert_eq!(probe.len(), 1, "{probe:?}");
            assert_eq!(probe[0].header.seq, client.snd_nxt().wrapping_sub(1));
            server.on_segment(&probe[0].header, &[]);
            let answer = server.poll_output();
            assert_eq!(answer.len(), 1, "{answer:?}");
            client.on_segment(&answer[0].header, &[]);
            assert!(client.poll_output().is_empty());
        }
        assert_eq!(client.state, TcpState::Established);
        assert_eq!((client.stats().keepalive_probes, client.stats().keepalive_drops), (3, 0));

        // A dead one: the probes leave a second apart and nothing comes
        // back; the one after the last closes.
        let idle_from = client.now_ns;
        assert!(wait(&mut client).is_empty(), "idle since the last answer: nothing to send yet");
        for _ in 0..KEEPALIVE_PROBES {
            assert_eq!(wait(&mut client).len(), 1);
        }
        assert_eq!(client.state, TcpState::Established);
        assert!(wait(&mut client).is_empty());
        assert_eq!(client.state, TcpState::Closed);
        assert_eq!(client.timed_out(), Some(TcpState::Established));
        assert_eq!(
            client.now_ns,
            idle_from + KEEPALIVE_IDLE_NS + KEEPALIVE_PROBES as u64 * KEEPALIVE_INTVL_NS
        );
        assert_eq!((client.stats().keepalive_probes, client.stats().keepalive_drops), (6, 1));
    }

    #[test]
    fn rst_kills_connection() {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(4000, 80, 1);
        pump(&mut client, &mut server);
        let rst = TcpHeader {
            src_port: 80,
            dst_port: 4000,
            seq: 0,
            ack: 0,
            flags: TcpFlags {
                rst: true,
                ..Default::default()
            },
            window: 0,
        };
        client.on_segment(&rst, &[]);
        assert_eq!(client.state, TcpState::Closed);
    }
}
