//! The stack proper: interface, demux, sockets — zero-copy **burst**
//! datapath.
//!
//! A [`NetStack`] owns a `uk_netdev` device and implements the socket
//! path of the paper's architecture (scenario ➁) with the §3.1
//! buffer-ownership discipline end to end. Since the burst rework, the
//! unit of work at every layer boundary is *a burst of netbufs*, not a
//! single packet; the steady-state lifecycle of a buffer is:
//!
//! ```text
//! pool ─take──▶ payload write ─▶ headers prepended in place
//!      ─stage─▶ tx_burst (whole batch; checksum completed by the
//!      device when offloaded) ─▶ harvest_tx ─▶ wire DMA-copies onto
//!      the receiver's pooled RX buffers ─▶ deliver_burst (one
//!      inject_rx per burst) ─▶ pump: rx_burst ─▶ per-burst demux
//!      sweep ─▶ socket queues ─▶ *_recv_into ─▶ recycle ─▶ pool
//! ```
//!
//! - **TX** is one buffer from application to wire. Payload bytes are
//!   written once into a pooled [`Netbuf`] behind [`TX_HEADROOM`]
//!   bytes of headroom; TCP/UDP/ICMP, IPv4 and Ethernet each *prepend*
//!   their header in place (`emit` / `encode_into`). When the device
//!   advertises `tx_csum_offload`, TCP/UDP headers are stamped with
//!   only the partial pseudo-header sum (`Csum::Offload`) and the
//!   device completes the checksum at `tx_burst` time. Senders *stage*
//!   frames ([`udp_send_burst`], [`tcp_send_queued`]) and the whole batch
//!   crosses in one `tx_burst` sweep ([`flush_output`]); completions
//!   are reclaimed by the wire harness as netbufs ([`harvest_tx`]) and
//!   recycled into the pool ([`recycle`]).
//! - **RX** walks the same buffers up the stack in bursts: the wire
//!   injects a whole burst with one [`deliver_burst`], [`pump`] drains
//!   `rx_burst` and demuxes every frame of the burst (next-hop MACs
//!   memoized per burst) before running the transport sweep *once per
//!   burst*. UDP payloads are queued on sockets *as netbufs*
//!   — no per-datagram `Vec`. Readers copy out in batches
//!   ([`udp_recv_burst_into`]) or singly
//!   ([`udp_recv_into`]/[`tcp_recv_into`]) and buffers return to the
//!   pool.
//!
//! - **Bulk transfers** ride the large-transfer fast path:
//!   [`tcp_send_queued`] writes application bytes once into pooled
//!   buffers on the connection's zero-copy send queue; a flush moves
//!   a window's worth of them out as one scatter-gather
//!   **super-segment** chain carrying a `GsoRequest` (TSO,
//!   `VIRTIO_NET_F_HOST_TSO4`), and a peer that negotiated big
//!   receive (`VIRTIO_NET_F_GUEST_TSO4`) gets the chain delivered
//!   whole — one demux, one ingest, one coalesced ACK for what would
//!   otherwise be ~40 per-MSS frames' worth of per-segment work.
//!   Peers without the features fall back transparently: the host
//!   side cuts MSS frames (`uknetdev::gso`), and with `tso` off the
//!   stack segments per-MSS in software (the ablation baseline).
//!
//! # The receive-side fast path
//!
//! Ingest mirrors the send side since the GRO/netbuf-recv rework:
//!
//! - **Zero-copy receive queue.** The demux *keeps* the RX buffer a
//!   TCP payload arrived in: headers are pulled in place and the
//!   buffer moves into the connection's receive queue. Readers copy
//!   out ([`tcp_recv_into`]) or — the zero-copy path — take the
//!   buffers whole ([`tcp_recv_burst_netbuf`], and
//!   [`udp_recv_netbuf`] for datagrams), consuming the payload in
//!   place and handing each buffer back via [`recycle`]. Between the
//!   wire's DMA copy and the application there is **no copy at all**.
//! - **GRO coalescing** (`StackConfig::gro`). Consecutive in-order
//!   data segments of one `rx_burst` to the same connection are
//!   staged and merged into a single multi-part ingest with one
//!   coalesced ACK — the receive-side mirror of GSO, aimed at
//!   per-MSS (non-TSO) senders. A segment continuing the staged
//!   run's flow at exactly the expected sequence number is matched
//!   **without any demux-table lookup** (the `gro_list` flow-compare
//!   idea); control segments flush the stage first, so nothing ever
//!   overtakes staged data. Merging is work-shaping only: the wire
//!   conversation is property-tested byte-identical with GRO on and
//!   off.
//! - **In-order-only ingest, never silent.** A segment that does not
//!   land exactly at `rcv_nxt` is dropped *and answered with an
//!   immediate duplicate ACK*; a FIN is processed only in sequence
//!   position. See `tcp/ingest.rs` for the invariant.
//!
//! # The socket seam
//!
//! A socket owns its readiness cell, and whatever changes the socket's
//! state publishes through it there and then: `pump` walks no sockets.
//! The README lists the publish sites and the handle layout.
//!
//! # The TCB seam
//!
//! Everything the stack does to a [`Tcb`] is written once: every
//! received segment — direct, GRO-merged or big-receive — enters
//! through `tcp_ingest`; what a crossing counted is read off
//! [`TcbStats`] and added to the `tcb` rows of `stack_stats_table!`; and
//! a TCB's configuration is the one [`TcbConfig`] `tcb_config` builds.
//! `crates/uknetstack/README.md` lists the calls that cross.
//!
//! # Time
//!
//! Every stack has a clock from construction ([`NetStack::set_clock`]
//! replaces it). A connection's timeouts are all its TCB's; the stack
//! keeps **one** wheel entry per connection, at or before the earliest
//! ([`Tcb::next_deadline`]), re-armed lazily (README, "Time").
//!
//! # Accounting
//!
//! A count is written once, by the stack, in its own
//! [`ukstats::CounterSet`]: `stack_stats_table!` declares every row,
//! [`NetStack::stats`] reads them back as [`StackStats`], and the
//! registry sums the stacks on read (README, "Accounting").
//!
//! In steady state the rx/tx hot path performs **zero heap
//! allocations per packet** — per-frame, per-burst *and* per
//! 1 MB bulk transfer in either direction, asserted by the
//! `zero_alloc` integration test; all scratch vectors live in the
//! stack and are reused across turns.
//!
//! [`harvest_tx`]: NetStack::harvest_tx
//! [`recycle`]: NetStack::recycle
//! [`udp_recv_into`]: NetStack::udp_recv_into
//! [`udp_recv_burst_into`]: NetStack::udp_recv_burst_into
//! [`udp_recv_netbuf`]: NetStack::udp_recv_netbuf
//! [`udp_send_burst`]: NetStack::udp_send_burst
//! [`tcp_recv_into`]: NetStack::tcp_recv_into
//! [`tcp_recv_burst_netbuf`]: NetStack::tcp_recv_burst_netbuf
//! [`tcp_send_queued`]: NetStack::tcp_send_queued
//! [`flush_output`]: NetStack::flush_output
//! [`deliver_burst`]: NetStack::deliver_burst
//! [`pump`]: NetStack::pump

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};

use ukevent::{EventMask, ReadySource};
use uknetdev::dev::{BurstStats, NetDev};
use uknetdev::netbuf::{Netbuf, NetbufPool, TcpHold};
use uknetdev::MAX_BURST;
use ukplat::{Errno, Result};
use ukstats::CounterSet;

use crate::arp::{ArpCache, ArpOp, ArpPacket};
use crate::eth::{EthHeader, EtherType, ETH_HDR_LEN};
use crate::flow::{flow_key, FlowTable};
use crate::icmp::{self, ICMP_ECHO_LEN};
use crate::ipv4::{IpProto, Ipv4Header, IPV4_HDR_LEN};
pub use crate::tcp::{
    HANDSHAKE_TIMEOUT_NS, KEEPALIVE_IDLE_NS, KEEPALIVE_INTVL_NS, KEEPALIVE_PROBES, TCP_MSL_NS,
};
use crate::tcp::{
    Tcb, TcbConfig, TcbStats, TcbTimer, TcpFlags, TcpHeader, TcpOptions, TcpState, MSS,
    SACK_PERMITTED_OPT, TCP_HDR_LEN, TCP_MAX_OPT_LEN,
};
use crate::timer::{TimerToken, TimerWheel};
use crate::udp::{UdpHeader, UDP_HDR_LEN};
use crate::{Csum, Endpoint, Ipv4Addr, Mac};

/// Headroom reserved in every TX buffer: room for Ethernet + IPv4 +
/// the largest transport header **including TCP options** (SACK blocks
/// on pure ACKs need up to [`TCP_MAX_OPT_LEN`] extra bytes), so
/// payloads are written once and all headers are prepended in place.
pub const TX_HEADROOM: usize = 96;

/// Storage size of each packet buffer (MTU + headers, rounded up).
pub const BUF_CAP: usize = 2048;

/// Default ceiling on one GSO super-segment's TCP payload (Linux's
/// classic `GSO_MAX_SIZE` neighborhood; comfortably under the 16-bit
/// IPv4 total-length limit with headers included).
pub const GSO_MAX_SIZE: usize = 61440;

/// Most datagrams a UDP socket queues before new arrivals are dropped
/// (bounds how much of the pool a flooded socket can pin).
const UDP_RX_QUEUE_CAP: usize = 256;

/// Packets parked per next-hop awaiting ARP resolution before
/// *droppable* (non-TCP) packets start being evicted oldest-first
/// (Linux's `unres_qlen` idea). TCP segments are preferred survivors —
/// a dropped segment is recoverable only by a full RTO fire (200 ms
/// floor, then exponential backoff), so evicting one trades a queue
/// slot for orders of magnitude of added latency.
const ARP_PENDING_CAP: usize = 16;

/// Absolute per-next-hop parking bound. Parked packets pin pooled
/// buffers, so even TCP segments must stop accumulating at some point
/// (an application looping `tcp_connect` on an unreachable address
/// would otherwise pin the whole pool); beyond this the oldest packet
/// is dropped regardless of protocol.
const ARP_PENDING_HARD_CAP: usize = 64;

/// A who-has request is (re-)broadcast on the 1st, 9th, 17th, …
/// packet parked for a next-hop: self-healing if a request frame was
/// lost to RX-ring overflow, without the old request-per-packet storm.
const ARP_REQUEST_RETRY_EVERY: u64 = 8;

/// A who-has request is also re-broadcast every this-many `pump`
/// bursts while packets stay parked: a queue that went quiet after
/// parking (no new sends to trip the per-packet cadence above) still
/// makes progress.
const ARP_REQUEST_RETRY_PUMPS: u64 = 8;

/// Slots in the per-burst next-hop memo: resolved `(dst IP → MAC)`
/// pairs are remembered across one burst sweep so a burst of replies
/// to the same few peers does one ARP-table lookup per peer, not per
/// frame.
const ARP_MEMO_SIZE: usize = 8;

/// A listener's handle is this tag over its port and a UDP socket's is
/// [`UDP_TAG`] over its port — the key of the map the socket lives in.
/// Both tags sit above connection handles (`generation << 32 | slot`,
/// generation ≤ 0xffff, so < 2⁴⁸) — the three handle spaces can never
/// collide, and a garbage handle decodes to generation 0, which no
/// live connection ever carries.
const LISTENER_TAG: usize = 1 << 48;
const UDP_TAG: usize = 1 << 49;

/// The port a listener or UDP handle names (`Some` for `tag | port`).
fn tagged_port(h: usize, tag: usize) -> Option<u16> {
    (h & !0xffff == tag).then_some(h as u16)
}

/// A connection closed by its peer or a reset lingers this long before
/// its slot is reclaimed (and keeps being re-checked on the same
/// cadence while the application still has readable data to drain) —
/// the one deadline of a connection that is the stack's, not its TCB's.
const CLOSED_LINGER_NS: u64 = 10_000_000;

/// Netbuf-pool level below which the receive path sheds the newest
/// out-of-order reassembly extents back to the pool. Sustained loss
/// pins buffers on both ends (rtx extents on the sender, OOO extents
/// on the receiver); shedding the newest OOO data — the furthest from
/// being cumulatively acknowledged, and guaranteed to be retransmitted
/// by the peer — degrades goodput gracefully where a starved pool
/// would stall the whole stack.
pub const LOW_POOL_BUFS: usize = 16;

/// Wheel entries (and fired-timer slots) a stack starts with: one per
/// connection, for this many connections. More connections grow the
/// slab geometrically.
const WHEEL_PREALLOC: usize = 64;

/// `pump` times one sweep in this many for the `netstack.pump_ns`
/// histogram; the two clock reads cost as much as the rest of an idle
/// sweep. `netstack.pump_sweeps` counts every sweep.
const PUMP_NS_SAMPLE_EVERY: u64 = 64;

// Reap-reason codes carried by the `tcp_conn_reaped` tracepoint.
const REAP_CLOSED: u64 = 0;
const REAP_HANDSHAKE: u64 = 1;
const REAP_KEEPALIVE: u64 = 2;
const REAP_FINWAIT2: u64 = 3;
const REAP_TIMEWAIT: u64 = 4;
const REAP_SYN_EVICTED: u64 = 5;

/// Packs a connection handle from its slab coordinates.
fn conn_handle(slot: u32, gen: u16) -> usize {
    ((gen as usize) << 32) | slot as usize
}

/// Splits a handle back into `(slot, generation)` — `None` for
/// listener, UDP and garbage handles (generation 0 is never issued).
fn conn_parts(h: usize) -> Option<(u32, u16)> {
    if h >> 48 != 0 {
        return None;
    }
    let gen = (h >> 32) as u16;
    if gen == 0 {
        return None;
    }
    Some(((h & 0xffff_ffff) as u32, gen))
}

/// Mutable form of [`NetStack::conn`]. Takes the slab alone, so the
/// caller can hold the connection and the stack's other fields (the
/// pool, the counters) at once.
fn conn_in(slots: &mut [ConnSlot], h: usize) -> Option<&mut TcpConn> {
    let (slot, gen) = conn_parts(h)?;
    let cs = slots.get_mut(slot as usize)?;
    if cs.gen != gen {
        return None;
    }
    cs.conn.as_mut()
}

/// Takes a TX buffer with [`TX_HEADROOM`] reserved for headers. Pool or
/// heap is the application's choice (§3.1), made in `uknetdev` —
/// [`NetbufPool`] or [`Netbuf::alloc`] — not by a stack flag: this stack
/// chose the pool. An exhausted pool falls back to the heap — a fault
/// path, not a mode: the frame still leaves, and the buffer is dropped
/// instead of recycled when it comes home.
#[cfg_attr(feature = "netbuf-sanitizer", track_caller)]
fn take_or_alloc(pool: &mut NetbufPool) -> Netbuf {
    pool.take().unwrap_or_else(|| Netbuf::alloc(BUF_CAP, TX_HEADROOM))
}

/// Puts a connection on the dirty list (idempotent): the next flush
/// polls its output and reconciles its wheel timers. Takes the list
/// alone, like [`conn_in`], so callers can hold both.
fn mark_dirty(c: &mut TcpConn, dirty: &mut Vec<u32>, slot: u32) {
    if !c.dirty {
        c.dirty = true;
        dirty.push(slot);
    }
}

/// Publishes a socket's readiness through its cell, if it was ever
/// asked for one (`None` costs this branch; `level` is not computed) —
/// called by whatever changed the socket's state, while it holds the
/// socket. Rising bits are edges; `new_input` (input was queued just
/// now) also re-triggers `EPOLLET` watchers while `IN` is already high,
/// as Linux does on every arrival.
fn publish(ready: &Option<ReadySource>, level: impl FnOnce() -> EventMask, new_input: bool) {
    let Some(src) = ready else { return };
    let level = level();
    let had_in = src.current().contains(EventMask::IN);
    src.set_level(level);
    if new_input && had_in && level.contains(EventMask::IN) {
        src.pulse();
    }
}

/// 1 if the emitter was told to leave the checksum to the device, else
/// 0 — what `csum_offloaded` counts, for every TCP segment (data, ACK,
/// SYN, RST) and UDP datagram the stack builds.
fn offloaded(csum: Csum) -> u64 {
    u64::from(csum != Csum::Software)
}

/// Packs a timer-wheel key: the generation-tagged slab coordinates a
/// handle carries, validated against the slab at dispatch so an entry
/// armed by a dead incarnation fires into nothing.
fn timer_key(slot: u32, gen: u16) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

// All three header layers — options included — must fit the reserved
// headroom.
const _: () =
    assert!(TX_HEADROOM >= ETH_HDR_LEN + IPV4_HDR_LEN + TCP_HDR_LEN + TCP_MAX_OPT_LEN);

/// Interface configuration.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// Our MAC address.
    pub mac: Mac,
    /// Our IPv4 address.
    pub ip: Ipv4Addr,
    /// Buffers in the stack's pre-allocated netbuf pool.
    pub pool_size: usize,
    /// Whether to offload TCP/UDP transmit checksums to the device
    /// (effective only when the device advertises the capability;
    /// disable for the software-checksum ablation).
    pub tx_csum_offload: bool,
    /// Whether to offload TCP segmentation (`VIRTIO_NET_F_HOST_TSO4`):
    /// bulk sends leave the stack as one super-segment chain per
    /// window's worth of data and the host cuts the MSS frames.
    /// Effective only when the device advertises TSO *and* transmit
    /// checksum offload is on (the per-frame checksums only exist
    /// after the cut); otherwise the stack falls back to software
    /// per-MSS segmentation. Disable for the software-segmentation
    /// ablation.
    pub tso: bool,
    /// Ceiling on one super-segment's payload when `tso` is on.
    pub gso_max_size: usize,
    /// Whether to trust the wire/device's checksum-validated mark on
    /// received frames (`VIRTIO_NET_F_GUEST_CSUM`) and skip software
    /// verification. Unmarked frames are always verified. Disable for
    /// the software-verification ablation. Big receive follows it (the
    /// spec ties `GUEST_TSO4` to `GUEST_CSUM`): on, a capable device
    /// delivers a peer's super-segment whole as one buffer chain — one
    /// demux, one ingest; off, the host cuts MSS frames.
    pub rx_csum_offload: bool,
    /// Whether to GRO-coalesce received TCP segments: consecutive
    /// in-order data segments of one `rx_burst` to the same connection
    /// are merged into a single multi-part ingest with one coalesced
    /// ACK — the receive-side mirror of TSO, and the fast path for
    /// per-MSS (non-TSO) senders. Purely stack-internal (no device
    /// capability involved); disable for the ablation baseline.
    pub gro: bool,
    /// Maximum segment size for this stack's TCP connections.
    pub mss: usize,
    /// Whether TCP connections run NewReno congestion control (slow
    /// start / congestion avoidance / fast recovery): the congestion
    /// window bounds emission alongside the peer window. Disable for
    /// the peer-window-only ablation — loss recovery (RTO, fast
    /// retransmit, reassembly) works either way.
    pub congestion_control: bool,
    /// Whether idle established connections probe the peer
    /// (keepalive) and tear down after unanswered probes — dead peers
    /// stop pinning TCBs and pooled buffers.
    pub keepalive: bool,
    /// Per-listener bound on both the half-open SYN queue and the
    /// accept backlog. When the SYN queue is full, the **oldest
    /// half-open** connection is evicted to admit a new SYN; when the
    /// accept backlog is full, handshake-completing ACKs are dropped
    /// (the client retransmits, the handshake timer bounds the
    /// half-open lifetime).
    pub listen_backlog: usize,
    /// Whether connections negotiate and use selective acknowledgment
    /// (RFC 2018): the receiver reports its out-of-order reassembly
    /// extents as SACK blocks on pure ACKs, and the sender keeps a
    /// scoreboard over the retransmission queue so a multi-hole loss
    /// episode retransmits *only the holes* (with D-SACK detection of
    /// spurious retransmits). Disable for the go-back-N ablation.
    pub sack: bool,
    /// Whether loss detection is time-based (RACK-TLP shape,
    /// RFC 8985): per-extent transmit timestamps plus a
    /// reordering-window timer replace the brittle 3-dup-ACK
    /// threshold, and a tail-loss probe rescues last-segment drops
    /// without a full RTO. Off, the classic dup-ACK threshold is in
    /// force.
    pub rack: bool,
    /// Whether recovery-episode emission (retransmissions and
    /// post-RTO slow start) is paced: the `min(cwnd, snd_wnd)` budget
    /// is released in SRTT-spread quanta through a wheel timer
    /// instead of as one burst.
    pub pacing: bool,
    /// Whether new TCBs start with empty send/receive/retransmit
    /// queues that grow on demand, instead of the steady-state
    /// preallocation. For connection-scale workloads (tens of
    /// thousands of mostly-idle connections) this shrinks an idle
    /// connection to its struct size; active connections grow to the
    /// same steady-state capacity after their first bursts, so the
    /// zero-alloc hot-path property still holds once warm.
    pub lean_tcbs: bool,
}

impl StackConfig {
    /// Config for test node `n` (10.0.0.n).
    pub fn node(n: u8) -> Self {
        StackConfig {
            mac: Mac::node(n),
            ip: Ipv4Addr::new(10, 0, 0, n),
            pool_size: 512,
            tx_csum_offload: true,
            tso: true,
            gso_max_size: GSO_MAX_SIZE,
            rx_csum_offload: true,
            gro: true,
            mss: MSS,
            congestion_control: true,
            keepalive: false,
            listen_backlog: 64,
            sack: true,
            rack: true,
            pacing: false,
            lean_tcbs: false,
        }
    }
}

/// Handle to a socket or connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketHandle(pub usize);

/// What a UDP socket's receive queue holds per datagram.
type UdpQueued = (Endpoint, Netbuf);
/// What `tcp_stage` holds per segment awaiting its next hop.
type TcpStaged = (Ipv4Addr, Netbuf);
/// What `gro_stage` holds per mergeable data segment.
type GroStaged = (usize, TcpHeader, Netbuf);

// The staging vectors and socket queues move their elements on every
// push, drain and pop; the buffer rides in them as a one-word handle
// and the rest is the key beside it. A fat descriptor must not creep
// back in through any of them.
const _: () = assert!(
    size_of::<TcpStaged>() <= 16 && size_of::<GroStaged>() <= 48 && size_of::<UdpQueued>() <= 48
);

struct UdpSocket {
    /// Received datagrams, held as the pooled buffers they arrived in
    /// (payload trimmed to the UDP body) — recycled on receive.
    rx: VecDeque<UdpQueued>,
    /// The readiness cell, once [`NetStack::ready_source`] minted it.
    ready: Option<ReadySource>,
}

impl UdpSocket {
    /// The UDP row of [`NetStack::readiness`].
    fn readiness(&self) -> EventMask {
        if self.rx.is_empty() {
            EventMask::OUT
        } else {
            EventMask::OUT | EventMask::IN
        }
    }
}

struct TcpConn {
    tcb: Tcb,
    remote: Endpoint,
    local_port: u16,
    /// The connection's one wheel entry, and the deadline it is armed
    /// for while it is: never later than the TCB's
    /// [`next_deadline`](Tcb::next_deadline) as of the last flush,
    /// often earlier ([`sync_timer`](Self::sync_timer)).
    timer: TimerToken,
    armed_at: u64,
    /// The armed entry is the [`CLOSED_LINGER_NS`] wait of a closed
    /// connection, not a deadline of its TCB.
    lingering: bool,
    /// Counted in the stack's `held_acks`: the TCB was holding an ACK
    /// at the last flush.
    holds_ack: bool,
    /// The TCB's counters as last published (`publish_tcb_stats`).
    published: TcbStats,
    /// Whether this connection sits on the stack's dirty list (its
    /// output, timers and readiness get reconciled by the next flush).
    dirty: bool,
    /// Whether an ingest queued readable bytes since that flush: the
    /// "new input" its readiness publish re-triggers `EPOLLET` on.
    rx_fresh: bool,
    /// The readiness cell, once [`NetStack::ready_source`] minted it
    /// (the slot's next occupant starts without one).
    ready: Option<ReadySource>,
}

impl TcpConn {
    /// The connection row of [`NetStack::readiness`].
    fn readiness(&self) -> EventMask {
        let mut m = EventMask::EMPTY;
        if self.tcb.readable() > 0 {
            m |= EventMask::IN;
        }
        if self.tcb.peer_fin_seen() {
            m |= EventMask::IN | EventMask::RDHUP;
        }
        if self.tcb.send_capacity() > 0 {
            m |= EventMask::OUT;
        }
        if self.tcb.state == TcpState::Closed {
            m |= EventMask::HUP;
        }
        m
    }

    /// Brings the connection's wheel entry in line with what its TCB
    /// now wants, after a flush polled it — lazily: a deadline that
    /// moved *later* leaves the entry where it is (it fires, finds
    /// nothing due, and is brought in line again), so a
    /// request/response exchange, whose every deadline is later than
    /// the last, touches the wheel not at all. Only an earlier deadline
    /// re-arms, and only a TCB that wants nothing cancels.
    fn sync_timer(
        &mut self,
        wheel: &mut TimerWheel,
        counts: &CounterSet,
        held_acks: &mut usize,
        key: u64,
        now: u64,
    ) {
        let holds_ack = self.tcb.deadline(TcbTimer::DelAck).is_some();
        *held_acks = *held_acks + usize::from(holds_ack) - usize::from(self.holds_ack);
        self.holds_ack = holds_ack;
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

/// One slab slot: the generation tag survives the connection, so a
/// handle minted for a reaped incarnation fails the lookup instead of
/// aliasing the slot's next occupant.
struct ConnSlot {
    gen: u16,
    conn: Option<TcpConn>,
}

// `lib.rs` promises an idle `lean_tcbs` connection costs well under a
// kilobyte. Lean queues own no heap, so beside its flow-table entry and
// its one wheel entry the slot (720 B today, 608 of them the `Tcb`) is
// all it holds.
const _: () = assert!(size_of::<ConnSlot>() <= 720);

/// Packets parked for one unresolved next-hop: IP-level packets with
/// Ethernet headroom still reserved, tagged with their transport
/// protocol so eviction can prefer droppable (non-TCP) traffic.
#[derive(Default)]
struct ArpPendingQueue {
    packets: Vec<(IpProto, Netbuf)>,
    /// Packets ever parked here (drives the who-has retry cadence).
    parked_total: u64,
    /// Pump bursts survived while parked (drives the quiet-queue
    /// who-has retry — see [`ARP_REQUEST_RETRY_PUMPS`]).
    pump_ticks: u64,
}

/// The expected continuation of the GRO run currently being staged:
/// the flow identity of its last segment and the sequence number the
/// next in-order segment must carry.
struct GroCont {
    src: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    conn: usize,
    next_seq: u32,
}

struct TcpListener {
    /// Half-open (SYN_RECEIVED) connections, oldest first — the
    /// bounded SYN queue. Overflow evicts the front.
    syn_queue: VecDeque<u32>,
    /// Fully established connections awaiting `tcp_accept`.
    backlog: VecDeque<SocketHandle>,
    /// The readiness cell, once [`NetStack::ready_source`] minted it.
    ready: Option<ReadySource>,
}

impl TcpListener {
    /// The listener row of [`NetStack::readiness`].
    fn readiness(&self) -> EventMask {
        if self.backlog.is_empty() {
            EventMask::EMPTY
        } else {
            EventMask::IN
        }
    }
}

/// Typed tracepoints of the stack datapath. Each fires into the owning
/// stack's [`TraceRing`](uktrace::TraceRing) (drained via
/// [`NetStack::trace_events`]); with the `trace` feature off every call
/// site compiles to nothing.
pub mod tp {
    uktrace::tracepoints! {
        // ARP: resolution traffic and the parking queue.
        arp_request_tx(dst_ip),
        arp_request_rx(sender_ip),
        arp_reply_rx(sender_ip),
        arp_parked(dst_ip, queued),
        // TCP: connection lifecycle and the data fast paths.
        tcp_syn_rx(local_port, remote_port),
        tcp_established(conn),
        tcp_data_rx(conn, bytes),
        tcp_super_rx(conn, bytes),
        tcp_dup_ack(conn, seq),
        tcp_fin_rx(local_port, seq),
        tcp_segment_tx(dst_port, seq),
        tso_super_tx(bytes, mss),
        gro_merge(conn, frames),
        // TCP loss recovery.
        tcp_rto_fire(conn, backlog),
        tcp_retransmit(conn, count),
        tcp_fast_retransmit(conn, count),
        tcp_ooo_queue(conn, count),
        // TCP surgical recovery (SACK scoreboard / RACK-TLP / pacing).
        tcp_sack_rtx(conn, count),
        tcp_spurious_rtx(conn, count),
        tcp_tlp_probe(conn, count),
        tcp_paced_release(conn, count),
        tcp_ooo_shed(conn, count),
        // TCP ACK policy: a held ACK sat out its whole hold time.
        tcp_delack_fire(conn, now_ns),
        // TCP connection lifecycle.
        tcp_rst_tx(dst_port, seq),
        tcp_time_wait(conn, count),
        tcp_conn_reaped(conn, reason),
        tcp_syn_evicted(port, slot),
        tcp_keepalive_probe(conn, probes),
        // Other demux outcomes.
        udp_rx(dst_port, bytes),
        icmp_echo_rx(ident, seq),
        demux_miss(proto, port),
    }
}

/// Records a trace ring holds before overwriting the oldest.
pub const TRACE_RING_CAP: usize = 1024;

/// The stack's gauges and its one histogram — values with no single
/// running sum, so they stay plain `ukstats` handles (one relaxed store
/// each). Everything that counts is a row of `stack_stats_table!`.
struct StackGauges {
    /// Last observed RACK reordering window (ns; most recently polled
    /// connection).
    tcp_rack_reorder_window_ns: ukstats::Gauge,
    /// Last observed congestion window (bytes; most recently polled
    /// connection).
    tcp_cwnd: ukstats::Gauge,
    /// Wall-clock duration of one full `pump` sweep.
    pump_ns: ukstats::Histogram,
    /// Most pooled buffers ever in flight at once (pool high-water).
    pool_inflight_hiwater: ukstats::Gauge,
    /// Most packets ever parked behind one unresolved next-hop.
    arp_parked_hiwater: ukstats::Gauge,
}

impl StackGauges {
    fn register() -> Self {
        StackGauges {
            tcp_rack_reorder_window_ns: ukstats::Gauge::register(
                "netstack.tcp.rack_reorder_window_ns",
            ),
            tcp_cwnd: ukstats::Gauge::register("netstack.tcp.cwnd"),
            pump_ns: ukstats::Histogram::register("netstack.pump_ns"),
            pool_inflight_hiwater: ukstats::Gauge::register("netstack.pool_inflight_hiwater"),
            arp_parked_hiwater: ukstats::Gauge::register("netstack.arp_parked_hiwater"),
        }
    }
}

/// What a `stack_stats_table!` `tcb` row's tracepoint records beside
/// the connection.
#[cfg_attr(not(feature = "trace"), allow(dead_code))]
enum TpArg {
    /// How far the field moved.
    Delta,
    /// The field's new cumulative value.
    Total,
    /// The caller's context word: the segment's sequence number at
    /// ingest, the clock at a timer fire.
    Context,
}

/// The one accounting table: every count the stack keeps is a row,
/// `field => "registry name"`, and lives once — in the cell of that
/// index in the stack's [`CounterSet`], which is both the [`StackStats`]
/// field [`NetStack::stats`] reports and this stack's share of the
/// registry's total for the name. `stack` rows are counted where the
/// event happens (`counts.add(row::field, n)`); `tcb` rows are the
/// [`TcbStats`] fields, handed over by [`publish_tcb_stats`], with the
/// tracepoint fired when the field moves (and its second argument).
/// Rows are published in table order. The table expands to
/// straight-line code — walked at run time through accessor pointers it
/// cost `tcp-rr` 8 %.
macro_rules! stack_stats_table {
    (
        stack { $($(#[$doc:meta])* $field:ident => $name:literal;)* }
        tcb { $($tfield:ident => $tname:literal $(, $tp:ident($arg:ident))?;)* }
    ) => {
        ukstats::counter_rows! {
            mod row {
                $($field => $name;)*
                $($tfield => $tname;)*
            }
        }

        /// What one stack counted, row by row of the accounting table —
        /// the stack's own view, whether or not the `stats` feature
        /// links it into the registry. A name's registry total is the
        /// sum of this field over every stack in the process.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct StackStats {
            $($(#[$doc])* pub $field: u64,)*
            $(
                #[doc = concat!(
                    "[`TcbStats::", stringify!($tfield), "`], summed over every connection \
                     this stack has had."
                )]
                pub $tfield: u64,
            )*
        }

        impl StackStats {
            fn read(counts: &CounterSet) -> Self {
                StackStats {
                    $($field: counts.get(row::$field),)*
                    $($tfield: counts.get(row::$tfield),)*
                }
            }
        }

        /// Publishes what a connection's TCB counted since the stack
        /// last looked — after every crossing: an ingest, a timer fire,
        /// an output poll. `published` is the stack's copy of the
        /// counters as of then; each field that moved past it adds to
        /// its row (once per crossing, however many segments moved it)
        /// and fires its tracepoint for connection `h`. Most crossings
        /// move nothing and pay the compare alone, inline.
        #[inline]
        fn publish_tcb_stats(
            counts: &CounterSet,
            trace: &mut uktrace::TraceRing,
            h: usize,
            context: u64,
            published: &mut TcbStats,
            stats: &TcbStats,
        ) {
            if published != stats {
                publish_moved(counts, trace, h, context, published, stats);
            }
        }

        #[inline(never)]
        #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
        fn publish_moved(
            counts: &CounterSet,
            trace: &mut uktrace::TraceRing,
            h: usize,
            context: u64,
            published: &mut TcbStats,
            stats: &TcbStats,
        ) {
            $(
                let delta = u64::from(stats.$tfield.wrapping_sub(published.$tfield));
                if delta > 0 {
                    counts.add(row::$tfield, delta);
                    $(
                        let arg = match TpArg::$arg {
                            TpArg::Delta => delta,
                            TpArg::Total => u64::from(stats.$tfield),
                            TpArg::Context => context,
                        };
                        uktrace::trace!(trace, tp::$tp, h, arg);
                    )?
                }
            )*
            *published = *stats;
        }
    };
}

stack_stats_table! {
    stack {
        /// Frames received and parsed.
        rx_frames => "netstack.rx_frames";
        /// Frames transmitted.
        tx_frames => "netstack.tx_frames";
        /// Payload bytes transmitted.
        tx_bytes => "netstack.tx_bytes";
        /// RX bursts swept by `pump` (`rx_frames / rx_bursts` is the
        /// per-burst amortization factor).
        rx_bursts => "netstack.rx_bursts";
        /// TX bursts pushed into the device.
        tx_bursts => "netstack.tx_bursts";
        /// Frames whose transport checksum was offloaded to the device.
        csum_offloaded => "netstack.csum_offloaded";
        /// GSO super-segments handed to the device for TSO cutting (each
        /// counts once in `tx_frames` but covers many wire frames).
        tso_super_frames => "netstack.tso_super_frames";
        /// Payload bytes that left in GSO super-segments.
        tso_super_bytes => "netstack.tso_super_bytes";
        /// Received frames whose software checksum verification was
        /// skipped because the wire/device marked them validated.
        rx_csum_skipped => "netstack.rx_csum_skipped";
        /// Super-segments received whole as buffer chains (big receive);
        /// each counts once in `rx_frames` but covers many MSS worth of
        /// stream.
        rx_super_frames => "netstack.rx_super_frames";
        /// GRO runs delivered: groups of ≥ 2 consecutive in-order TCP
        /// segments from one burst merged into a single multi-part ingest.
        gro_runs => "netstack.gro_runs";
        /// Frames that rode those runs (`gro_merged_frames / gro_runs` is
        /// the receive-side coalescing factor).
        gro_merged_frames => "netstack.gro_merged_frames";
        /// Frames dropped (parse errors, unknown ports, full queues).
        dropped => "netstack.dropped";
        /// TCP segments that found their connection or listener.
        demux_tcp => "netstack.demux_tcp";
        /// UDP datagrams that found their socket.
        demux_udp => "netstack.demux_udp";
        /// ARP packets handled.
        demux_arp => "netstack.demux_arp";
        /// ICMP messages handled.
        demux_icmp => "netstack.demux_icmp";
        /// Segments and datagrams addressed to a port nothing owns.
        demux_miss => "netstack.demux_miss";
        /// Payload-free ACK segments transmitted (handshake and FIN ACKs,
        /// duplicate ACKs, window updates, released held ACKs).
        tcp_pure_acks_tx => "netstack.tcp.pure_acks_tx";
        /// Listener overflow events: half-open connections evicted from a
        /// full SYN queue plus handshake-completing ACKs dropped against a
        /// full accept backlog.
        tcp_syn_overflow => "netstack.tcp.syn_overflow";
        /// RST segments generated for segments that missed the demux.
        tcp_rst_tx => "netstack.tcp.rst_tx";
        /// Packets parked behind an unresolved next-hop.
        arp_parked => "netstack.arp_parked";
        /// Parked packets evicted from a full parking queue.
        arp_evicted => "netstack.arp_evicted";
        /// Who-has requests broadcast.
        arp_requests_tx => "netstack.arp_requests_tx";
        /// Sweeps `pump` has run (also selects the ones it times).
        pump_sweeps => "netstack.pump_sweeps";
        /// Timer-wheel entries armed: a connection's earliest deadline
        /// moved ahead of the entry it had, or it had none.
        timer_arms => "netstack.timer_arms";
    }
    tcb {
        dup_acks => "netstack.dup_acks", tcp_dup_ack(Context);
        rto_fires => "netstack.tcp.rto_fires", tcp_rto_fire(Total);
        retransmits => "netstack.tcp.retransmits", tcp_retransmit(Delta);
        fast_retransmits => "netstack.tcp.fast_retransmits", tcp_fast_retransmit(Delta);
        ooo_queued => "netstack.tcp.ooo_queued", tcp_ooo_queue(Delta);
        sack_rtx => "netstack.tcp.sack_rtx", tcp_sack_rtx(Delta);
        spurious_rtx => "netstack.tcp.spurious_rtx", tcp_spurious_rtx(Delta);
        tlp_probes => "netstack.tcp.tlp_probes", tcp_tlp_probe(Delta);
        paced_releases => "netstack.tcp.paced_releases", tcp_paced_release(Delta);
        ooo_shed => "netstack.tcp.ooo_shed", tcp_ooo_shed(Delta);
        delack_fires => "netstack.tcp.delack_fires", tcp_delack_fire(Context);
        acks_piggybacked => "netstack.tcp.acks_piggybacked";
        window_updates => "netstack.tcp.window_updates_tx";
        timewait => "netstack.tcp.timewait", tcp_time_wait(Delta);
        keepalive_probes => "netstack.tcp.keepalive_probes", tcp_keepalive_probe(Total);
        keepalive_drops => "netstack.tcp.keepalive_drops";
    }
}

/// The network stack.
pub struct NetStack {
    config: StackConfig,
    dev: Box<dyn NetDev>,
    arp: ArpCache,
    pool: NetbufPool,
    /// UDP sockets by bound port (the handle is [`UDP_TAG`]` | port`).
    udp_socks: HashMap<u16, UdpSocket>,
    /// Connection slab: TCBs live inline in slots; a slot's generation
    /// tag is baked into the connection handle, so a stale handle (a
    /// reaped connection whose slot was reused) fails the lookup
    /// instead of reaching the wrong TCB.
    conn_slots: Vec<ConnSlot>,
    /// Free slots awaiting reuse (LIFO keeps the working set warm).
    conn_free: Vec<u32>,
    /// Open-addressing demux: packed `(local port, remote)` flow key →
    /// slab slot. Replaces the old `HashMap<(u16, Endpoint), usize>` —
    /// lookup cost and memory stay flat at 100 K–1 M flows.
    flow: FlowTable,
    /// Hierarchical timer wheel: one entry per connection that is
    /// waiting for anything, at or before its earliest deadline, off
    /// the stack's clock; O(1) per arm/cancel/advance.
    wheel: TimerWheel,
    /// Connections touched since the last flush (slot list,
    /// deduplicated by the per-connection `dirty` flag): the output,
    /// readiness and timer-sync passes walk this instead of every
    /// connection, so 100 K idle connections — watched by an event
    /// queue or not — cost nothing per pump.
    dirty: Vec<u32>,
    /// Fired-timer scratch for `tcp_timer_tick` (reused).
    fired_scratch: Vec<(u64, u64)>,
    /// Connections holding an ACK as of their last flush — what
    /// [`held_ack_deadline`](Self::held_ack_deadline) checks before it
    /// scans.
    held_acks: usize,
    /// Listeners by port (the handle is [`LISTENER_TAG`]` | port`).
    listeners: HashMap<u16, TcpListener>,
    next_ephemeral: u16,
    iss: u32,
    /// Packets waiting for ARP resolution, keyed by next-hop IP.
    arp_pending: HashMap<Ipv4Addr, ArpPendingQueue>,
    /// Echo replies received: (peer, ident, seq).
    ping_replies: Vec<(Ipv4Addr, u16, u16)>,
    /// Ethernet-ready frames staged for the next `tx_burst` (reused).
    tx_stage: Vec<Netbuf>,
    /// TCP segments staged during `flush_tcp`, pre-ARP (reused).
    tcp_stage: Vec<TcpStaged>,
    /// RX burst scratch for `pump` (reused).
    rx_scratch: Vec<Netbuf>,
    /// Injection scratch for `deliver_frame` (reused).
    inject_scratch: Vec<Netbuf>,
    /// Who completes the checksum of an uncut TCP/UDP frame: the
    /// device (config wish ∧ device capability) or the emitter.
    tx_csum: Csum,
    /// Whether bulk TCP output leaves as GSO super-segments for the
    /// device to cut (config wish ∧ device TSO ∧ checksum offload).
    tso: bool,
    /// Whether software checksum verification is skipped for received
    /// frames the wire marked validated (config wish ∧ device
    /// capability).
    rx_csum_offload: bool,
    /// Whether peers' super-segments are delivered whole as chains
    /// (device capability ∧ `rx_csum_offload`).
    guest_tso: bool,
    /// Whether received TCP data segments are GRO-coalesced before
    /// ingest (stack-internal, config switch only).
    gro: bool,
    /// GRO staging area: `(conn handle, header, payload buffer)` per
    /// mergeable data segment of the burst being swept, in arrival
    /// order (flushed whenever ordering demands it and at the end of
    /// every burst; reused storage).
    gro_stage: Vec<GroStaged>,
    /// The tail of the run being staged: a segment matching this flow
    /// at exactly this sequence number appends to the stage *without
    /// any demux-table lookup* — the GRO flow-match fast path (the
    /// role of Linux's `gro_list` flow compare).
    gro_cont: Option<GroCont>,
    /// Per-burst next-hop memo: `(dst IP, MAC)` pairs resolved during
    /// the current burst sweep (cleared each `pump` and on ARP-table
    /// updates; reused storage).
    arp_memo: Vec<(Ipv4Addr, Mac)>,
    /// Next-hops due a who-has re-broadcast this pump (reused).
    arp_retry_scratch: Vec<Ipv4Addr>,
    /// Every count this stack keeps, one cell per row of
    /// `stack_stats_table!`; the stack is the cells' only writer.
    counts: CounterSet,
    /// Pre-registered global gauge/histogram handles.
    gauges: StackGauges,
    /// Tracepoint ring (a ZST no-op with the `trace` feature off).
    trace: uktrace::TraceRing,
    /// The clock every TCB and the wheel read: private until
    /// [`set_clock`](Self::set_clock) shares one.
    clock: ukplat::time::Tsc,
    /// The last `(cycles, ns)` pair [`now_ns`](Self::now_ns) converted.
    /// The clock is read ~10× per request/response and moves only when
    /// the wire or a timer wait advances it, so most reads repeat the
    /// cycle count and skip the conversion's three divisions.
    now_memo: Cell<(u64, u64)>,
    /// The pool's low-water mark as last published to the
    /// `pool_inflight_hiwater` gauge.
    pool_low_water_seen: usize,
    /// Scratch for flattening returning held TX frames into their
    /// payload extents (reused).
    hold_scratch: Vec<Netbuf>,
}

impl std::fmt::Debug for NetStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetStack")
            .field("ip", &self.config.ip)
            .field("conns", &(self.conn_slots.len() - self.conn_free.len()))
            .field("stats", &self.stats())
            .finish()
    }
}

impl NetStack {
    /// Creates a stack over a configured device. Out-of-range tuning
    /// knobs are clamped to safe values: the MSS to what one wire
    /// frame and one pooled buffer can carry, the GSO budget to what
    /// the IPv4 16-bit total-length field admits.
    // ukcheck: allow(alloc) -- one-time stack construction: maps, the
    // pool, scratch vectors and the trace ring are all built here so the
    // per-frame pump never allocates (the zero_alloc suite enforces it)
    pub fn new(mut config: StackConfig, dev: Box<dyn NetDev>) -> Self {
        config.mss = config.mss.clamp(1, MSS);
        // Headers + super-segment payload must fit the u16 IPv4 total
        // length, or the frame would be unparseable on arrival — a
        // deterministic parse failure retransmission must not paper
        // over.
        const GSO_HARD_MAX: usize = 65_535 - IPV4_HDR_LEN - TCP_HDR_LEN;
        config.gso_max_size = config.gso_max_size.clamp(config.mss, GSO_HARD_MAX);
        config.listen_backlog = config.listen_backlog.clamp(1, 4096);
        let info = dev.info();
        let csum_offload = config.tx_csum_offload && info.tx_csum_offload;
        // TSO requires checksum offload (the cut frames' checksums are
        // completed host-side); without either capability the stack
        // falls back to software per-MSS segmentation.
        let tso = config.tso && info.tso && csum_offload;
        let rx_csum_offload = config.rx_csum_offload && info.rx_csum_offload;
        // Big receive needs the checksum-validated mark: a chained
        // super-frame's checksum was never materialized, so a stack
        // that insists on software verification must have the host
        // cut (and checksum) MSS frames instead.
        let guest_tso = info.guest_tso && rx_csum_offload;
        // Pooled buffers pre-reserve fragment-list capacity for the
        // largest super-segment chain, so chain building — GSO on TX,
        // big receive on RX — never grows a Vec on the hot path.
        let chain_frags = if tso || guest_tso {
            config.gso_max_size.div_ceil(BUF_CAP) + 2
        } else {
            // Even with both offloads down the sw-seg path builds
            // small chains: a sub-MSS frame coalesced from several
            // queued extents rides the spent (emptied) buffers as
            // fragments so they recycle with the frame.
            4
        };
        let pool =
            NetbufPool::with_chain_capacity(config.pool_size, BUF_CAP, TX_HEADROOM, chain_frags);
        NetStack {
            config,
            dev,
            arp: ArpCache::new(),
            pool_low_water_seen: pool.low_water(),
            pool,
            udp_socks: HashMap::new(),
            conn_slots: Vec::new(),
            conn_free: Vec::new(),
            flow: FlowTable::new(),
            // Sized so the first connections find their wheel entry and
            // fire slot already there: an entry is armed and fired
            // mid-transfer.
            wheel: TimerWheel::with_capacity(WHEEL_PREALLOC),
            dirty: Vec::new(),
            fired_scratch: Vec::with_capacity(WHEEL_PREALLOC),
            held_acks: 0,
            listeners: HashMap::new(),
            next_ephemeral: 49152,
            iss: 1,
            arp_pending: HashMap::new(),
            ping_replies: Vec::new(),
            tx_stage: Vec::new(),
            tcp_stage: Vec::new(),
            rx_scratch: Vec::new(),
            inject_scratch: Vec::new(),
            tx_csum: if csum_offload { Csum::Offload } else { Csum::Software },
            tso,
            rx_csum_offload,
            guest_tso,
            gro: config.gro,
            // Starts at a device burst rather than growing into it: how
            // many sub-MSS tails one sweep stages shifts with ACK and
            // window-update timing, and growth would show up
            // mid-transfer as a datapath allocation.
            gro_stage: Vec::with_capacity(MAX_BURST),
            gro_cont: None,
            arp_memo: Vec::with_capacity(ARP_MEMO_SIZE),
            arp_retry_scratch: Vec::new(),
            counts: CounterSet::new(row::NAMES),
            gauges: StackGauges::register(),
            trace: uktrace::TraceRing::new(TRACE_RING_CAP),
            clock: ukplat::time::Tsc::default(),
            now_memo: Cell::new((0, 0)),
            hold_scratch: Vec::with_capacity(MAX_BURST),
        }
    }

    /// Replaces the stack's clock — private since construction, so
    /// time stood still — with a shared one: every connection, open
    /// already or later, and the timer wheel read `tsc` from now on,
    /// and trace records are stamped with it. Time a connection has
    /// seen does not run backwards: hand over a clock that reads no
    /// earlier than the one it replaces.
    pub fn set_clock(&mut self, tsc: &ukplat::time::Tsc) {
        self.clock = tsc.clone();
        // (0, 0) holds at every frequency; a pair converted at the old
        // clock's does not.
        self.now_memo.set((0, 0));
        self.trace.set_clock(tsc);
    }

    /// The stack's tracepoint ring (zero-sized no-op with the `trace`
    /// feature off).
    pub fn trace_ring(&mut self) -> &mut uktrace::TraceRing {
        &mut self.trace
    }

    /// Drains and returns the stack's buffered trace records, oldest
    /// first (always empty with the `trace` feature off).
    pub fn trace_events(&mut self) -> Vec<uktrace::TraceEvent> {
        self.trace.drain()
    }

    /// Whether TX transport checksums are being offloaded to the
    /// device (configuration wish ∧ device capability).
    pub fn csum_offload(&self) -> bool {
        self.tx_csum == Csum::Offload
    }

    /// Whether bulk TCP output leaves as GSO super-segments for TSO
    /// cutting (configuration wish ∧ device capability ∧ checksum
    /// offload on).
    pub fn tso(&self) -> bool {
        self.tso
    }

    /// Whether received frames marked checksum-validated by the wire
    /// skip software verification (configuration wish ∧ device
    /// capability).
    pub fn rx_csum_offload(&self) -> bool {
        self.rx_csum_offload
    }

    /// Whether this stack accepts peers' super-segments whole, as
    /// buffer chains (`VIRTIO_NET_F_GUEST_TSO4` shape) — the wire
    /// consults this to decide between whole-chain delivery and the
    /// host-side MSS cut.
    pub fn accepts_super_frames(&self) -> bool {
        self.guest_tso
    }

    /// Whether received TCP segments are GRO-coalesced before ingest.
    pub fn gro(&self) -> bool {
        self.gro
    }

    /// Our address.
    pub fn ip(&self) -> Ipv4Addr {
        self.config.ip
    }

    /// Our MAC.
    pub fn mac(&self) -> Mac {
        self.config.mac
    }

    /// What this stack has counted so far, every row of the accounting
    /// table.
    pub fn stats(&self) -> StackStats {
        StackStats::read(&self.counts)
    }

    /// Buffers currently available in the pool (diagnostics; always
    /// `Some` — every stack is pooled).
    pub fn pool_available(&self) -> Option<usize> {
        Some(self.pool.available())
    }

    /// Current time on the stack's clock.
    fn now_ns(&self) -> u64 {
        let cycles = self.clock.now_cycles();
        let (memo_cycles, memo_ns) = self.now_memo.get();
        if cycles == memo_cycles {
            return memo_ns;
        }
        let ns = self.clock.cycles_to_ns(cycles);
        self.now_memo.set((cycles, ns));
        ns
    }

    /// Resolves a generation-tagged handle to its live connection.
    fn conn(&self, h: usize) -> Option<&TcpConn> {
        let (slot, gen) = conn_parts(h)?;
        let cs = self.conn_slots.get(slot as usize)?;
        if cs.gen != gen {
            return None;
        }
        cs.conn.as_ref()
    }

    /// Live TCP connections in the slab (any state, TIME_WAIT
    /// included) — diagnostics for tests and reports.
    pub fn tcp_conn_count(&self) -> usize {
        self.conn_slots.len() - self.conn_free.len()
    }

    /// Timers currently armed on the wheel (diagnostics): at most one
    /// per connection.
    pub fn armed_timer_count(&self) -> usize {
        self.wheel.len()
    }

    /// The earliest deadline among the ACKs this stack is holding for
    /// a data segment to carry, if it holds any. A wire with no frame
    /// in flight is not quiet while this is `Some`: the peer still has
    /// unacknowledged bytes (and the buffers behind them) that only
    /// the wheel will release — [`testnet`](crate::testnet) waits it
    /// out so leak checks do not mistake that tail for a leak.
    pub fn held_ack_deadline(&self) -> Option<u64> {
        if self.held_acks == 0 {
            return None;
        }
        self.conn_slots
            .iter()
            .filter_map(|cs| cs.conn.as_ref()?.tcb.deadline(TcbTimer::DelAck))
            .min()
    }

    /// [`mark_dirty`] by handle (stale handles are ignored).
    fn mark_dirty_handle(&mut self, h: usize) {
        if let Some(c) = conn_in(&mut self.conn_slots, h) {
            mark_dirty(c, &mut self.dirty, (h & 0xffff_ffff) as u32);
        }
    }

    /// Installs a connection into the slab + flow table, bumping the
    /// slot's generation, and marks it dirty (its first output — SYN
    /// or SYN-ACK — leaves with the next flush).
    fn alloc_conn(&mut self, tcb: Tcb, remote: Endpoint, local_port: u16) -> usize {
        let slot = match self.conn_free.pop() {
            Some(s) => s,
            None => {
                self.conn_slots.push(ConnSlot { gen: 0, conn: None });
                (self.conn_slots.len() - 1) as u32
            }
        };
        let cs = &mut self.conn_slots[slot as usize];
        cs.gen = if cs.gen == u16::MAX { 1 } else { cs.gen + 1 };
        cs.conn = Some(TcpConn {
            tcb,
            remote,
            local_port,
            timer: TimerToken::NONE,
            armed_at: 0,
            lingering: false,
            holds_ack: false,
            published: TcbStats::default(),
            dirty: false,
            rx_fresh: false,
            ready: None,
        });
        let gen = cs.gen;
        self.flow.insert(flow_key(local_port, remote), slot);
        let h = conn_handle(slot, gen);
        self.mark_dirty_handle(h);
        h
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
    fn reap_conn_slot(&mut self, slot: u32, _reason: u64) {
        let Some(cs) = self.conn_slots.get_mut(slot as usize) else {
            return;
        };
        let gen = cs.gen;
        let Some(mut c) = cs.conn.take() else {
            return;
        };
        let h = conn_handle(slot, gen);
        self.wheel.cancel(c.timer);
        self.held_acks -= usize::from(c.holds_ack);
        self.flow.remove(flow_key(c.local_port, c.remote));
        if let Some(l) = self.listeners.get_mut(&c.local_port) {
            l.syn_queue.retain(|&s| s != slot);
            l.backlog.retain(|s| s.0 != h);
            publish(&l.ready, || l.readiness(), false);
        }
        if self.gro_cont.as_ref().is_some_and(|g| g.conn == h) {
            self.gro_cont = None;
        }
        c.tcb.drain_all_buffers(|nb| self.pool.give_back_chain(nb));
        self.conn_free.push(slot);
        uktrace::trace!(self.trace, tp::tcp_conn_reaped, h, _reason);
        publish(&c.ready, || EventMask::HUP, false);
    }

    // --- Readiness (ukevent integration) ------------------------------

    /// Computes the current level-triggered readiness of a socket:
    ///
    /// - listeners: `EPOLLIN` while the accept queue is non-empty;
    /// - UDP sockets: `EPOLLIN` while datagrams are queued, `EPOLLOUT`
    ///   always (sends never block);
    /// - TCP connections: `EPOLLIN` on buffered rx data, `EPOLLRDHUP`
    ///   (plus `EPOLLIN`) once the peer's FIN arrived, `EPOLLOUT` while
    ///   the send buffer has room, `EPOLLHUP` when fully closed;
    /// - unknown/closed handles: `EPOLLHUP`.
    pub fn readiness(&self, sock: SocketHandle) -> EventMask {
        let level = if let Some(port) = tagged_port(sock.0, LISTENER_TAG) {
            self.listeners.get(&port).map(TcpListener::readiness)
        } else if let Some(port) = tagged_port(sock.0, UDP_TAG) {
            self.udp_socks.get(&port).map(UdpSocket::readiness)
        } else {
            self.conn(sock.0).map(TcpConn::readiness)
        };
        level.unwrap_or(EventMask::HUP)
    }

    /// Returns the shared readiness cell for `sock` (event queues
    /// register it: it implements [`ukevent::Pollable`]), minting it on
    /// first use. It lives in the socket, and whatever changes the
    /// socket's state — accept queue, rx data, tx window, FIN —
    /// publishes the new level through it as edges; a reaped
    /// connection's cell gets a final `EPOLLHUP`. A handle that resolves
    /// to nothing gets a detached cell at `EPOLLHUP`: nothing is stored.
    pub fn ready_source(&mut self, sock: SocketHandle) -> ReadySource {
        let level = self.readiness(sock);
        let cell = if let Some(port) = tagged_port(sock.0, LISTENER_TAG) {
            self.listeners.get_mut(&port).map(|l| &mut l.ready)
        } else if let Some(port) = tagged_port(sock.0, UDP_TAG) {
            self.udp_socks.get_mut(&port).map(|u| &mut u.ready)
        } else {
            conn_in(&mut self.conn_slots, sock.0).map(|c| &mut c.ready)
        };
        let src = match cell {
            Some(cell) => cell.get_or_insert_with(ReadySource::new).clone(),
            None => ReadySource::new(),
        };
        src.set_level(level);
        src
    }

    /// The sweep `pump` used to end in, kept as a checker: every cell a
    /// socket holds shows exactly the readiness the socket computes, so
    /// every suite that pumps proves no publish site was missed.
    #[cfg(debug_assertions)]
    fn assert_readiness_published(&self) {
        let conns = self.conn_slots.iter().filter_map(|cs| cs.conn.as_ref());
        let cells = conns
            .map(|c| (&c.ready, c.readiness()))
            .chain(self.listeners.values().map(|l| (&l.ready, l.readiness())))
            .chain(self.udp_socks.values().map(|u| (&u.ready, u.readiness())));
        for (ready, level) in cells {
            let published = ready.as_ref().map_or(level, ReadySource::current);
            assert_eq!(published, level, "a socket's readiness changed without a publish");
        }
    }

    /// The lazy re-arm's invariant, checked like the readiness one: the
    /// wheel holds at most one entry per connection, and every
    /// connection the last flush left clean has its earliest deadline
    /// covered by an entry armed at or before it.
    #[cfg(debug_assertions)]
    fn assert_deadlines_armed(&self) {
        assert!(self.wheel.len() <= self.tcp_conn_count(), "more wheel entries than connections");
        let clean = |c: &&TcpConn| !c.dirty && c.tcb.state != TcpState::Closed;
        for c in self.conn_slots.iter().filter_map(|cs| cs.conn.as_ref()).filter(clean) {
            if let Some(d) = c.tcb.next_deadline() {
                assert!(!c.timer.is_none() && c.armed_at <= d, "deadline {d} has no wheel entry");
            }
        }
    }

    // --- UDP ----------------------------------------------------------

    /// Binds a UDP socket to `port`.
    // ukcheck: allow(alloc) -- socket creation is control plane; the
    // per-datagram path reuses the queue allocated here
    pub fn udp_bind(&mut self, port: u16) -> Result<SocketHandle> {
        if self.udp_socks.contains_key(&port) {
            return Err(Errno::AddrInUse);
        }
        self.udp_socks.insert(port, UdpSocket { rx: VecDeque::new(), ready: None });
        Ok(SocketHandle(UDP_TAG | port as usize))
    }

    /// The port a live UDP socket is bound to.
    fn udp_port(&self, sock: SocketHandle) -> Result<u16> {
        tagged_port(sock.0, UDP_TAG)
            .filter(|port| self.udp_socks.contains_key(port))
            .ok_or(Errno::BadF)
    }

    /// Pops a UDP socket's next queued datagram and publishes the
    /// readiness that leaves.
    fn udp_pop(&mut self, sock: SocketHandle) -> Option<UdpQueued> {
        let s = self.udp_socks.get_mut(&tagged_port(sock.0, UDP_TAG)?)?;
        let dgram = s.rx.pop_front()?;
        publish(&s.ready, || s.readiness(), false);
        Some(dgram)
    }

    /// Builds and routes one datagram (payload written once, headers
    /// prepended in place, checksum offloaded when the device supports
    /// it) *without* flushing — the shared staging half of
    /// [`udp_send_to`](Self::udp_send_to) and
    /// [`udp_send_burst`](Self::udp_send_burst).
    fn stage_udp(&mut self, src_port: u16, data: &[u8], to: Endpoint) -> Result<()> {
        let mut nb = take_or_alloc(&mut self.pool);
        if data.len() > nb.tailroom() {
            self.recycle(nb);
            return Err(Errno::Inval); // Larger than MTU-sized buffers.
        }
        nb.append(data);
        let ip = Ipv4Header {
            src: self.config.ip,
            dst: to.addr,
            proto: IpProto::Udp,
            payload_len: UDP_HDR_LEN + data.len(),
            ttl: 64,
        };
        let hdr = UdpHeader {
            src_port,
            dst_port: to.port,
        };
        hdr.emit(&ip, &mut nb, self.tx_csum);
        self.counts.add(row::csum_offloaded, offloaded(self.tx_csum));
        ip.encode_into(&mut nb);
        self.send_ipv4_nb(to.addr, IpProto::Udp, nb);
        Ok(())
    }

    /// Sends a datagram: the payload is written once into a pooled
    /// buffer and UDP/IP/Ethernet headers are prepended in place.
    ///
    /// The stack does not fragment: payloads beyond a packet buffer's
    /// tailroom ([`BUF_CAP`] − [`TX_HEADROOM`] = 1952 bytes — already
    /// past the 1500-byte wire MTU) are rejected with `EINVAL`.
    pub fn udp_send_to(&mut self, sock: SocketHandle, data: &[u8], to: Endpoint) -> Result<()> {
        let src_port = self.udp_port(sock)?;
        self.stage_udp(src_port, data, to)?;
        self.flush_tx()
    }

    /// `sendmmsg`-style burst send: stages every `(payload, dest)`
    /// datagram, then pushes the whole batch to the device in bursts —
    /// one `tx_burst` sweep instead of one flush per datagram.
    ///
    /// Returns the datagrams sent. Like `sendmmsg(2)`, a failing
    /// datagram stops the burst and is reported as an error only when
    /// nothing was sent before it.
    pub fn udp_send_burst<'a, I>(&mut self, sock: SocketHandle, msgs: I) -> Result<usize>
    where
        I: IntoIterator<Item = (&'a [u8], Endpoint)>,
    {
        let src_port = self.udp_port(sock)?;
        let mut sent = 0;
        let mut first_err = None;
        for (data, to) in msgs {
            match self.stage_udp(src_port, data, to) {
                Ok(()) => sent += 1,
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        let flushed = self.flush_tx();
        if sent == 0 {
            if let Some(e) = first_err {
                return Err(e);
            }
            flushed?;
        }
        // Partial success wins over a late error (sendmmsg contract):
        // a flush failure leaves the tail staged for the next flush,
        // nothing is lost.
        Ok(sent)
    }

    /// Receives a datagram, if one is queued (allocating convenience
    /// wrapper over [`udp_recv_into`](Self::udp_recv_into)).
    // ukcheck: allow(alloc) -- documented allocating convenience API;
    // zero-copy callers use `udp_recv_into` instead
    pub fn udp_recv_from(&mut self, sock: SocketHandle) -> Option<(Endpoint, Vec<u8>)> {
        let (from, nb) = self.udp_pop(sock)?;
        let data = nb.payload().to_vec();
        self.recycle(nb);
        Some((from, data))
    }

    /// Copies the next queued datagram into `out` (truncating to fit)
    /// and recycles its buffer — the allocation-free receive path.
    /// Returns the sender and the copied length.
    pub fn udp_recv_into(
        &mut self,
        sock: SocketHandle,
        out: &mut [u8],
    ) -> Option<(Endpoint, usize)> {
        let (from, nb) = self.udp_pop(sock)?;
        let n = nb.len().min(out.len());
        out[..n].copy_from_slice(&nb.payload()[..n]);
        self.recycle(nb);
        Some((from, n))
    }

    /// Takes the next queued datagram as the pooled buffer it arrived
    /// in (payload trimmed to the UDP body) — the zero-copy UDP
    /// receive path, same ownership contract as
    /// [`tcp_recv_burst_netbuf`](Self::tcp_recv_burst_netbuf): the
    /// caller hands the buffer back via [`recycle`](Self::recycle)
    /// when done.
    pub fn udp_recv_netbuf(&mut self, sock: SocketHandle) -> Option<(Endpoint, Netbuf)> {
        self.udp_pop(sock)
    }

    /// `recvmmsg`-style burst receive: drains up to `max` queued
    /// datagrams, packing their payloads back-to-back into `buf` and
    /// appending one `(sender, length)` pair per datagram to `msgs`
    /// (the caller slices `buf` by running offset). Stops early when
    /// the remaining space cannot hold the next datagram whole (no
    /// truncation in burst mode — size `buf` for `max` MTU-sized
    /// datagrams). Returns the datagrams received this call.
    ///
    /// Allocation-free in steady state: payloads copy straight from
    /// the queued netbufs, which recycle into the pool.
    pub fn udp_recv_burst_into(
        &mut self,
        sock: SocketHandle,
        buf: &mut [u8],
        msgs: &mut Vec<(Endpoint, usize)>,
        max: usize,
    ) -> usize {
        let mut received = 0;
        let mut off = 0;
        let port = tagged_port(sock.0, UDP_TAG);
        if let Some(s) = port.and_then(|p| self.udp_socks.get_mut(&p)) {
            while received < max {
                // Stops at an empty queue or a datagram that does not fit whole.
                let fits = |(_, nb): &mut UdpQueued| off + nb.len() <= buf.len();
                let Some((from, nb)) = s.rx.pop_front_if(fits) else { break };
                buf[off..off + nb.len()].copy_from_slice(nb.payload());
                msgs.push((from, nb.len()));
                off += nb.len();
                received += 1;
                self.pool.give_back_chain(nb);
            }
            if received > 0 {
                publish(&s.ready, || s.readiness(), false);
            }
        }
        received
    }

    // --- TCP ----------------------------------------------------------

    /// Starts listening on `port`.
    // ukcheck: allow(alloc) -- listener creation is control plane; the
    // SYN/accept queues are pre-sized to the backlog here so the
    // handshake path never grows them
    pub fn tcp_listen(&mut self, port: u16) -> Result<SocketHandle> {
        if self.listeners.contains_key(&port) {
            return Err(Errno::AddrInUse);
        }
        self.listeners.insert(
            port,
            TcpListener {
                syn_queue: VecDeque::with_capacity(self.config.listen_backlog),
                backlog: VecDeque::with_capacity(self.config.listen_backlog),
                ready: None,
            },
        );
        Ok(SocketHandle(port as usize | LISTENER_TAG))
    }

    /// Accepts a pending connection, if any. Only fully established
    /// connections ever reach the accept backlog — half-open ones wait
    /// in the listener's SYN queue until their handshake completes.
    pub fn tcp_accept(&mut self, listener: SocketHandle) -> Option<SocketHandle> {
        let l = self.listeners.get_mut(&tagged_port(listener.0, LISTENER_TAG)?)?;
        let conn = l.backlog.pop_front();
        publish(&l.ready, || l.readiness(), false);
        conn
    }

    /// What every TCB of this stack is configured with.
    fn tcb_config(&self) -> TcbConfig {
        TcbConfig {
            mss: self.config.mss,
            congestion_control: self.config.congestion_control,
            sack: self.config.sack,
            rack: self.config.rack,
            pacing: self.config.pacing,
            keepalive: self.config.keepalive,
            lean: self.config.lean_tcbs,
        }
    }

    /// Applies [`tcb_config`](Self::tcb_config) to a fresh TCB and
    /// stamps it with the current time.
    fn configure_tcb(&self, tcb: &mut Tcb) {
        tcb.configure(self.tcb_config());
        tcb.set_now(self.now_ns());
    }

    /// Starts an active connection; completes after network pumping.
    ///
    /// Ephemeral port selection scans for a port whose `(port, peer)`
    /// flow key is free: a flow lingering in TIME_WAIT blocks only its
    /// exact 4-tuple, and its 2MSL reap recycles the port.
    pub fn tcp_connect(&mut self, to: Endpoint) -> Result<SocketHandle> {
        let mut port = self.next_ephemeral;
        let mut chosen = None;
        for _ in 0..=(65535u32 - 49152) {
            if self.flow.get(flow_key(port, to)).is_none() {
                chosen = Some(port);
                break;
            }
            port = if port == 65535 { 49152 } else { port + 1 };
        }
        let local_port = chosen.ok_or(Errno::AddrInUse)?;
        self.next_ephemeral = if local_port == 65535 { 49152 } else { local_port + 1 };
        self.iss = self.iss.wrapping_add(64_000);
        let mut tcb = Tcb::connect(local_port, to.port, self.iss);
        self.configure_tcb(&mut tcb);
        let h = self.alloc_conn(tcb, to, local_port);
        self.flush_tcp()?;
        Ok(SocketHandle(h))
    }

    /// Connection state.
    pub fn tcp_state(&self, conn: SocketHandle) -> Option<TcpState> {
        self.conn(conn.0).map(|c| c.tcb.state)
    }

    /// Queues data on a connection, returning the bytes accepted — a
    /// partial write when the send buffer is short on space (`EAGAIN`
    /// when it is full because the peer's window stays closed).
    pub fn tcp_send(&mut self, conn: SocketHandle, data: &[u8]) -> Result<usize> {
        let accepted = self.tcp_send_queued(conn, data)?;
        self.flush_tcp()?;
        Ok(accepted)
    }

    /// Queues data on a connection *without* flushing segments to the
    /// device — the burst-TX half of [`tcp_send`](Self::tcp_send).
    /// Callers batch any number of sends across any number of
    /// connections inside one event-loop turn, then emit everything as
    /// a single burst with [`flush_output`](Self::flush_output).
    ///
    /// The bytes are written **once**, directly into pooled buffers on
    /// the connection's zero-copy send queue; emission moves those
    /// buffers into outgoing frames (chained into super-segments on
    /// the TSO path) without ever re-copying the payload.
    pub fn tcp_send_queued(&mut self, conn: SocketHandle, data: &[u8]) -> Result<usize> {
        let c = conn_in(&mut self.conn_slots, conn.0).ok_or(Errno::BadF)?;
        let accepted = c.tcb.app_send_with(data, || take_or_alloc(&mut self.pool))?;
        publish(&c.ready, || c.readiness(), false);
        self.mark_dirty_handle(conn.0);
        Ok(accepted)
    }

    /// Emits all pending transport output as one burst: segments every
    /// connection's send queue into pooled buffers and pushes the
    /// staged frames through `tx_burst` sweeps. The companion to
    /// [`tcp_send_queued`](Self::tcp_send_queued) (idempotent when
    /// there is nothing to send) — one event-loop turn, one flush.
    pub fn flush_output(&mut self) -> Result<()> {
        self.flush_tcp()
    }

    /// Reads up to `max` bytes from a connection (allocating
    /// convenience wrapper over [`tcp_recv_into`](Self::tcp_recv_into)).
    // ukcheck: allow(alloc) -- documented allocating convenience API;
    // zero-copy callers use `tcp_recv_into` instead
    pub fn tcp_recv(&mut self, conn: SocketHandle, max: usize) -> Result<Vec<u8>> {
        let readable = self.conn(conn.0).ok_or(Errno::BadF)?.tcb.readable();
        let mut data = vec![0u8; max.min(readable)];
        let n = self.tcp_recv_into(conn, &mut data)?;
        data.truncate(n);
        Ok(data)
    }

    /// Copies buffered received bytes into `out` — the allocation-free
    /// receive *copy* path (the zero-copy path is
    /// [`tcp_recv_burst_netbuf`](Self::tcp_recv_burst_netbuf)). Drained
    /// queue buffers recycle straight back to the pool. A drain that reopens
    /// the receive window far enough stages a window-update ACK; output
    /// is flushed here only when some is actually pending, so an empty
    /// read costs no output poll and a held ACK stays held for the
    /// reply.
    pub fn tcp_recv_into(&mut self, conn: SocketHandle, out: &mut [u8]) -> Result<usize> {
        let c = conn_in(&mut self.conn_slots, conn.0).ok_or(Errno::BadF)?;
        let n = c.tcb.app_recv_into_with(out, |nb| self.pool.give_back_chain(nb));
        if n > 0 {
            publish(&c.ready, || c.readiness(), false);
        }
        if c.tcb.has_pending_control() {
            self.mark_dirty_handle(conn.0);
            self.flush_tcp()?;
        }
        Ok(n)
    }

    /// Takes received buffers whole — the **zero-copy receive path**:
    /// the pooled netbufs the peer's bytes arrived in (each trimmed to
    /// its TCP payload extent) move straight to the application, no
    /// copy anywhere between the wire and the caller. Drains up to
    /// `max` queued payload buffers into `out` with one readiness
    /// publish and at most one output flush for the whole batch;
    /// returns the buffers taken.
    ///
    /// **Ownership contract:** the caller owns the buffers and must
    /// hand each back with [`recycle`](Self::recycle) once consumed —
    /// that returns it to the owning pool (buffers from other pools or
    /// the heap are simply dropped there). Holding buffers
    /// indefinitely pins pool capacity. A window-update ACK may be
    /// staged when the drain reopens the receive window far enough; it
    /// is flushed here only when output is actually pending.
    pub fn tcp_recv_burst_netbuf(
        &mut self,
        conn: SocketHandle,
        out: &mut Vec<Netbuf>,
        max: usize,
    ) -> usize {
        let Some(c) = conn_in(&mut self.conn_slots, conn.0) else {
            return 0;
        };
        let mut taken = 0;
        while taken < max {
            match c.tcb.app_recv_netbuf() {
                Some(nb) => {
                    out.push(nb);
                    taken += 1;
                }
                None => break,
            }
        }
        if taken > 0 {
            publish(&c.ready, || c.readiness(), false);
            if c.tcb.has_pending_control() {
                self.mark_dirty_handle(conn.0);
                let _ = self.flush_tcp();
            }
        }
        taken
    }

    /// Free send-buffer space on a connection (0 for closed handles).
    pub fn tcp_send_capacity(&self, conn: SocketHandle) -> usize {
        self.conn(conn.0).map(|c| c.tcb.send_capacity()).unwrap_or(0)
    }

    /// Whether the peer's advertised receive window admits no more data.
    pub fn tcp_window_closed(&self, conn: SocketHandle) -> bool {
        self.conn(conn.0).map(|c| c.tcb.window_closed()).unwrap_or(true)
    }

    /// One connection's cumulative event counters (tests and
    /// diagnostics). The stack-wide `netstack.tcp.*` counters sum the
    /// same fields over all connections.
    pub fn tcp_stats(&self, conn: SocketHandle) -> Option<TcbStats> {
        self.conn(conn.0).map(|c| *c.tcb.stats())
    }

    /// Current congestion window (bytes) for one connection.
    pub fn tcp_cwnd(&self, conn: SocketHandle) -> usize {
        self.conn(conn.0).map(|c| c.tcb.cwnd()).unwrap_or(0)
    }

    /// Bytes ready to read.
    pub fn tcp_readable(&self, conn: SocketHandle) -> usize {
        self.conn(conn.0).map(|c| c.tcb.readable()).unwrap_or(0)
    }

    /// Whether the peer closed (EOF).
    pub fn tcp_peer_closed(&self, conn: SocketHandle) -> bool {
        self.conn(conn.0).map(|c| c.tcb.peer_closed()).unwrap_or(true)
    }

    /// The remote endpoint of a connection (`getpeername` shape).
    pub fn tcp_peer(&self, conn: SocketHandle) -> Option<Endpoint> {
        self.conn(conn.0).map(|c| c.remote)
    }

    /// Starts an orderly close.
    pub fn tcp_close(&mut self, conn: SocketHandle) -> Result<()> {
        let c = conn_in(&mut self.conn_slots, conn.0).ok_or(Errno::BadF)?;
        c.tcb.app_close();
        self.mark_dirty_handle(conn.0);
        // The flush publishes what the close did to readiness.
        self.flush_tcp()
    }

    // --- Data path ----------------------------------------------------

    /// Takes an RX buffer (no headroom: the wire writes whole frames).
    /// The wire harness fills it and injects it with
    /// [`deliver_frame`](Self::deliver_frame).
    pub fn take_rx_buf(&mut self) -> Netbuf {
        let mut nb = take_or_alloc(&mut self.pool);
        nb.reset(0);
        nb
    }

    /// Returns a finished buffer — or a whole scatter-gather chain —
    /// to the stack's pool (heap and foreign buffers are simply
    /// dropped). Everyone who takes a netbuf out of this stack — the
    /// wire harness via [`harvest_tx`](Self::harvest_tx), readers via
    /// the `*_recv_into` paths — hands it back here.
    pub fn recycle(&mut self, mut nb: Netbuf) {
        if let Some(hold) = nb.take_tcp_hold() {
            self.rtx_return_chain(hold, nb);
            return;
        }
        self.pool.give_back_chain(nb);
    }

    /// A TCP data frame came back from the wire (TX-complete harvest or
    /// ARP-queue eviction): instead of returning it to the pool, strip
    /// the protocol headers off the head (restoring its headroom) and
    /// file the payload extents back into the owning connection's
    /// retransmission queue keyed by sequence number. Extents the TCB
    /// no longer needs — already acknowledged, duplicate coverage,
    /// connection gone — fall through to the pool as usual, so nothing
    /// leaks.
    fn rtx_return_chain(&mut self, hold: TcpHold, mut head: Netbuf) {
        head.take_csum_request();
        head.take_gso_request();
        // All protocol headers live in the head buffer.
        let hdr = head.chain_len().saturating_sub(hold.payload_len as usize);
        if hdr <= head.len() {
            head.pull_header(hdr);
        }
        let mut scratch = core::mem::take(&mut self.hold_scratch);
        scratch.clear();
        head.take_frags_into(&mut scratch);
        let mut seq = hold.seq;
        for mut ext in std::iter::once(head).chain(scratch.drain(..)) {
            let len = ext.len() as u32;
            ext.take_csum_request();
            ext.take_gso_request();
            let back = match conn_in(&mut self.conn_slots, hold.conn as usize) {
                Some(c) => c.tcb.rtx_return(seq, hold.sent_ns, ext),
                None => Some(ext),
            };
            if let Some(nb) = back {
                self.pool.give_back_chain(nb);
            }
            seq = seq.wrapping_add(len);
        }
        self.hold_scratch = scratch;
        self.mark_dirty_handle(hold.conn as usize);
    }

    /// Prepends the Ethernet header and stages the frame for the next
    /// TX burst.
    fn stage_eth(&mut self, dst: Mac, ethertype: EtherType, mut nb: Netbuf) {
        EthHeader {
            dst,
            src: self.config.mac,
            ethertype,
        }
        .encode_into(&mut nb);
        self.tx_stage.push(nb);
    }

    /// Pushes staged frames into the device (one burst call per
    /// `MAX_BURST` frames; leftovers stay staged if the ring fills).
    fn flush_tx(&mut self) -> Result<()> {
        while !self.tx_stage.is_empty() {
            let st = self.dev.tx_burst(0, &mut self.tx_stage)?;
            if st.stats.frames == 0 {
                break; // Ring full; retried on the next flush.
            }
            self.counts.add(row::tx_frames, st.stats.frames as u64);
            self.counts.add(row::tx_bytes, st.stats.bytes as u64);
            self.counts.add(row::tx_bursts, 1);
        }
        Ok(())
    }

    /// Resolves a next-hop MAC through the per-burst memo first, then
    /// the ARP table (memoizing a hit). The memo is cleared at every
    /// `pump` and whenever the ARP table learns a mapping, so one
    /// burst's worth of frames to the same few peers pays one table
    /// lookup per peer.
    fn lookup_next_hop(&mut self, dst: Ipv4Addr) -> Option<Mac> {
        if let Some(&(_, mac)) = self.arp_memo.iter().find(|(ip, _)| *ip == dst) {
            return Some(mac);
        }
        let mac = self.arp.lookup(dst)?;
        if self.arp_memo.len() < ARP_MEMO_SIZE {
            self.arp_memo.push((dst, mac));
        }
        Some(mac)
    }

    /// Stages a broadcast who-has request for `dst`.
    fn stage_arp_request(&mut self, dst: Ipv4Addr) {
        let req = ArpPacket {
            op: ArpOp::Request,
            sha: self.config.mac,
            spa: self.config.ip,
            tha: Mac([0; 6]),
            tpa: dst,
        };
        let mut anb = take_or_alloc(&mut self.pool);
        anb.append(&req.encode());
        self.stage_eth(Mac::BROADCAST, EtherType::Arp, anb);
        self.counts.add(row::arp_requests_tx, 1);
        uktrace::trace!(self.trace, tp::arp_request_tx, dst.0);
    }

    /// Routes an IP-level packet (headers already in place, Ethernet
    /// headroom reserved): resolved destinations are staged for TX,
    /// unresolved ones park under the pending ARP request. Parking is
    /// bounded (soft cap evicting droppable traffic first, hard cap
    /// evicting anything) so an unreachable next-hop cannot pin the
    /// buffer pool, and the who-has broadcast is re-issued every
    /// [`ARP_REQUEST_RETRY_EVERY`] parked packets.
    fn send_ipv4_nb(&mut self, dst: Ipv4Addr, proto: IpProto, nb: Netbuf) {
        match self.lookup_next_hop(dst) {
            Some(mac) => self.stage_eth(mac, EtherType::Ipv4, nb),
            None => {
                let (evicted, request_due, queued) = {
                    let pending = self.arp_pending.entry(dst).or_default();
                    pending.packets.push((proto, nb));
                    pending.parked_total += 1;
                    let evicted = if pending.packets.len() > ARP_PENDING_HARD_CAP {
                        Some(pending.packets.remove(0))
                    } else if pending.packets.len() > ARP_PENDING_CAP {
                        pending
                            .packets
                            .iter()
                            .position(|(p, _)| *p != IpProto::Tcp)
                            .map(|i| pending.packets.remove(i))
                    } else {
                        None
                    };
                    (
                        evicted,
                        pending.parked_total % ARP_REQUEST_RETRY_EVERY == 1,
                        pending.packets.len(),
                    )
                };
                self.counts.add(row::arp_parked, 1);
                self.gauges.arp_parked_hiwater.set_max(queued as u64);
                uktrace::trace!(self.trace, tp::arp_parked, dst.0, queued);
                if let Some((_, old)) = evicted {
                    self.counts.add(row::dropped, 1);
                    self.counts.add(row::arp_evicted, 1);
                    self.recycle(old);
                }
                if request_due {
                    self.stage_arp_request(dst);
                }
            }
        }
    }

    /// The quiet-queue who-has retry (run once per `pump`): every
    /// pending next-hop ticks a per-burst counter and re-broadcasts
    /// its request every [`ARP_REQUEST_RETRY_PUMPS`] pumps. The
    /// per-parked-packet cadence in [`send_ipv4_nb`](Self::send_ipv4_nb)
    /// only fires while *new* packets keep parking; this one keeps
    /// parked packets making progress after the application goes
    /// quiet.
    fn arp_retry_tick(&mut self) {
        if self.arp_pending.is_empty() {
            return;
        }
        let mut due = std::mem::take(&mut self.arp_retry_scratch);
        due.clear();
        for (dst, pending) in self.arp_pending.iter_mut() {
            if pending.packets.is_empty() {
                continue;
            }
            pending.pump_ticks += 1;
            if pending.pump_ticks % ARP_REQUEST_RETRY_PUMPS == 0 {
                due.push(*dst);
            }
        }
        for dst in due.drain(..) {
            self.stage_arp_request(dst);
        }
        self.arp_retry_scratch = due;
    }

    /// Emits all pending TCP output: each segment is cut from the send
    /// buffer straight into a pooled netbuf (payload first, then
    /// TCP/IP headers prepended in place) — no intermediate `Vec`s.
    ///
    /// With TSO on, a connection's whole sendable window leaves as
    /// *one* frame per `gso_max_size` bytes: the payload streams into
    /// a scatter-gather chain, the headers describe the super-segment,
    /// and a [`GsoRequest`](uknetdev::netbuf::GsoRequest) tells the
    /// host side to cut the per-MSS wire frames — the per-segment
    /// header encode / checksum stamp / staging / ring costs are paid
    /// once per super-segment instead of once per MSS.
    fn flush_tcp(&mut self) -> Result<()> {
        let mut staged = std::mem::take(&mut self.tcp_stage);
        let src_ip = self.config.ip;
        let TcbConfig { mss, sack: sack_on, rack: rack_on, .. } = self.tcb_config();
        // The GSO budget is floored to a multiple of the MSS so a
        // super-segment boundary never forces a short wire frame
        // mid-stream — the cut frames land on exactly the byte
        // boundaries software segmentation would produce.
        let max_seg = if self.tso { (self.config.gso_max_size / mss).max(1) * mss } else { mss };
        let counts = &self.counts;
        let now = self.now_ns();
        // Only dirty connections are polled — at 100 K idle
        // connections the flush touches none of them. The list is
        // walked by index (not drained) because segment emission below
        // can re-mark connections mid-walk via `rtx_return_chain`.
        let mut i = 0;
        while i < self.dirty.len() {
            let slot = self.dirty[i];
            i += 1;
            let Some(cs) = self.conn_slots.get_mut(slot as usize) else {
                continue;
            };
            let gen = cs.gen;
            let Some(c) = cs.conn.as_mut() else { continue };
            if !std::mem::take(&mut c.dirty) {
                continue;
            }
            let h = conn_handle(slot, gen);
            c.tcb.set_now(now);
            let dst = c.remote.addr;
            // The receiver half's SACK report for this poll: D-SACK
            // plus the reassembly queue's extents, encoded once and
            // attached to the first *pure ACK* the poll emits (the GSO
            // cutter forbids options on data frames, and a poll that
            // owes the peer a SACK always emits a pure ACK).
            let mut sack_opt = [0u8; TCP_MAX_OPT_LEN];
            let sack_len = c.tcb.fill_sack_option(&mut sack_opt);
            let mut sack_used = false;
            let take_buf = || take_or_alloc(&mut self.pool);
            c.tcb.poll_output_chain_with(max_seg, take_buf, |header, mut nb| {
                // Data rides in as the send queue's own buffers —
                // chained for a super-segment, a single moved buffer
                // otherwise; control segments get a fresh, empty head.
                let plen = nb.chain_len();
                let was_data = plen > 0;
                let f = header.flags;
                if !was_data && f.ack && !(f.syn || f.fin || f.rst) {
                    counts.add(row::tcp_pure_acks_tx, 1);
                }
                // Options ride only on control segments: SACK-permitted
                // on SYN / SYN-ACK, SACK blocks on the poll's first
                // pure ACK.
                let opts: &[u8] = if was_data || header.flags.rst {
                    &[]
                } else if header.flags.syn && sack_on {
                    &SACK_PERMITTED_OPT
                } else if header.flags.ack && !header.flags.syn && !sack_used && sack_len > 0
                {
                    sack_used = true;
                    &sack_opt[..sack_len]
                } else {
                    &[]
                };
                let ip = Ipv4Header {
                    src: src_ip,
                    dst,
                    proto: IpProto::Tcp,
                    payload_len: TCP_HDR_LEN + opts.len() + plen,
                    ttl: 64,
                };
                // More than one MSS only ever leaves with TSO on: a
                // super-segment, headers on the chain head, MSS cutting
                // offloaded to the device's host side.
                let csum = if plen > mss {
                    counts.add(row::tso_super_frames, 1);
                    counts.add(row::tso_super_bytes, plen as u64);
                    uktrace::trace!(self.trace, tp::tso_super_tx, plen, mss);
                    Csum::Gso { mss: mss as u16 }
                } else {
                    self.tx_csum
                };
                header.emit(&ip, &mut nb, opts, csum);
                counts.add(row::csum_offloaded, offloaded(csum));
                uktrace::trace!(self.trace, tp::tcp_segment_tx, header.dst_port, header.seq);
                ip.encode_into(&mut nb);
                if was_data {
                    // Tag unacknowledged data so the recycle path files
                    // the payload into the retransmission queue instead
                    // of the pool (see `rtx_return_chain`), stamped
                    // with the transmit time RACK's loss logic keys on.
                    nb.set_tcp_hold(h as u64, header.seq, plen as u32, now);
                }
                staged.push((dst, nb));
            });
            publish_tcb_stats(counts, &mut self.trace, h, 0, &mut c.published, c.tcb.stats());
            self.gauges.tcp_cwnd.set(c.tcb.cwnd() as u64);
            if rack_on {
                self.gauges.tcp_rack_reorder_window_ns.set(c.tcb.reo_wnd_ns());
            }
            // An ingest, a timer fire, a returning frame or a socket
            // call dirtied it and the poll above ran: publish the result
            // and see to it that the wheel wakes it in time.
            let fresh = std::mem::take(&mut c.rx_fresh);
            publish(&c.ready, || c.readiness(), fresh);
            c.sync_timer(&mut self.wheel, counts, &mut self.held_acks, timer_key(slot, gen), now);
        }
        self.dirty.clear();
        for (dst, nb) in staged.drain(..) {
            self.send_ipv4_nb(dst, IpProto::Tcp, nb);
        }
        self.tcp_stage = staged;
        self.flush_tx()
    }

    /// Advances the timer wheel to the clock and wakes every
    /// connection whose entry expired. Cost is O(expired entries), not
    /// O(connections) — 100 K idle connections cost the tick nothing.
    fn tcp_timer_tick(&mut self) {
        let now = self.now_ns();
        let mut fired = std::mem::take(&mut self.fired_scratch);
        fired.clear();
        self.wheel.advance(now, |key, deadline| fired.push((key, deadline)));
        for (key, _) in fired.drain(..) {
            self.dispatch_timer(key, now);
        }
        self.fired_scratch = fired;
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
        let gen = (key >> 32) as u16;
        let slot = key as u32;
        let Some(cs) = self.conn_slots.get_mut(slot as usize) else {
            return;
        };
        if cs.gen != gen {
            return;
        }
        let Some(c) = cs.conn.as_mut() else { return };
        c.timer = TimerToken::NONE;
        let lingered = std::mem::take(&mut c.lingering);
        let fired = c.tcb.on_time(now);
        let h = conn_handle(slot, gen);
        publish_tcb_stats(&self.counts, &mut self.trace, h, now, &mut c.published, c.tcb.stats());
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
            Some(reason) => self.reap_conn_slot(slot, reason),
            None if fired => mark_dirty(c, &mut self.dirty, slot),
            None => c.sync_timer(&mut self.wheel, &self.counts, &mut self.held_acks, key, now),
        }
    }

    /// Answers a segment that matched no flow and no listener with a
    /// correctly-sequenced RST (RFC 793 §3.4): a connection that died
    /// here tells its peer immediately instead of letting it
    /// retransmit into a black hole. Never RSTs a RST.
    fn stage_rst(&mut self, dst: Ipv4Addr, tcp: &TcpHeader, payload_len: usize) {
        if tcp.flags.rst {
            return;
        }
        let (seq, ack, flags) = if tcp.flags.ack {
            // The peer told us what it expects next; answer from there
            // with a bare RST.
            (tcp.ack, 0, TcpFlags { rst: true, ..TcpFlags::default() })
        } else {
            // No ACK to echo: seq 0, and acknowledge everything the
            // segment occupied so the RST is acceptable to the peer.
            let occupied =
                payload_len as u32 + tcp.flags.syn as u32 + tcp.flags.fin as u32;
            (
                0,
                tcp.seq.wrapping_add(occupied),
                TcpFlags { rst: true, ack: true, ..TcpFlags::default() },
            )
        };
        let header = TcpHeader {
            src_port: tcp.dst_port,
            dst_port: tcp.src_port,
            seq,
            ack,
            flags,
            window: 0,
        };
        let mut nb = take_or_alloc(&mut self.pool);
        let ip = Ipv4Header {
            src: self.config.ip,
            dst,
            proto: IpProto::Tcp,
            payload_len: TCP_HDR_LEN,
            ttl: 64,
        };
        header.emit(&ip, &mut nb, &[], self.tx_csum);
        self.counts.add(row::csum_offloaded, offloaded(self.tx_csum));
        ip.encode_into(&mut nb);
        self.counts.add(row::tcp_rst_tx, 1);
        uktrace::trace!(self.trace, tp::tcp_rst_tx, header.dst_port, header.seq);
        self.send_ipv4_nb(dst, IpProto::Tcp, nb);
    }

    /// Processes received frames in bursts and flushes replies once.
    /// Returns the number of frames handled.
    ///
    /// This is the per-burst sweep of the burst datapath: each
    /// `rx_burst` batch is fully decoded and demultiplexed (replies
    /// and ACKs *staging*, not flushing — next-hop MACs come from the
    /// per-burst memo), and only after the ring runs dry does the
    /// stack run its transport sweep: who-has retries for parked
    /// queues, one `flush_tcp` over the connections the burst touched
    /// (their output, their timers, their readiness), one staged
    /// `tx_burst` push. Per-packet overheads become per-burst
    /// overheads, and a socket nothing touched costs nothing.
    pub fn pump(&mut self) -> usize {
        let sweep_start = self
            .counts
            .get(row::pump_sweeps)
            .is_multiple_of(PUMP_NS_SAMPLE_EVERY)
            .then(std::time::Instant::now);
        let mut handled = 0;
        let mut frames = std::mem::take(&mut self.rx_scratch);
        self.arp_memo.clear();
        loop {
            let st = match self.dev.rx_burst(0, &mut frames, MAX_BURST) {
                Ok(st) => st,
                Err(_) => break,
            };
            if st.received > 0 {
                self.counts.add(row::rx_bursts, 1);
            }
            for nb in frames.drain(..) {
                if self.handle_frame(nb).is_ok() {
                    handled += 1;
                } else {
                    self.counts.add(row::dropped, 1);
                }
            }
            if st.received == 0 && !st.more {
                break;
            }
        }
        self.rx_scratch = frames;
        // End of the burst sweep: deliver every staged GRO run before
        // the transport flush, so the coalesced ACKs ride it.
        self.gro_flush();
        self.arp_retry_tick();
        self.tcp_timer_tick();
        let _ = self.flush_tcp();
        #[cfg(debug_assertions)]
        {
            self.assert_readiness_published();
            self.assert_deadlines_armed();
        }
        self.counts.add(row::pump_sweeps, 1);
        if let Some(t0) = sweep_start {
            self.gauges.pump_ns.record(t0.elapsed().as_nanos() as u64);
        }
        // The high-water mark can only rise when the pool's low-water
        // mark fell, which most sweeps do not cause.
        if self.pool.low_water() != self.pool_low_water_seen {
            self.pool_low_water_seen = self.pool.low_water();
            self.gauges.pool_inflight_hiwater
                .set_max((self.pool.capacity() - self.pool.low_water()) as u64);
        }
        handled
    }

    /// Reclaims completed TX frames into `out` as netbufs — the wire
    /// handoff (no copy-out; the old `Vec<Vec<u8>>` path is gone). The
    /// harness copies each frame onto the destination's RX buffers and
    /// returns ours via [`recycle`](Self::recycle).
    pub fn harvest_tx(&mut self, out: &mut Vec<Netbuf>) -> usize {
        self.dev.reclaim_tx(0, out).unwrap_or(0)
    }

    /// Injects a whole burst of frames into this stack's device RX
    /// ring with a single `inject_rx` call (the wire side — one
    /// boundary crossing per burst instead of per frame). Frames that
    /// do not fit (ring full) are dropped and their buffers recycled,
    /// like a real NIC. Returns the device's burst accounting.
    pub fn deliver_burst(&mut self, frames: &mut Vec<Netbuf>) -> BurstStats {
        let stats = self.dev.inject_rx(0, frames).unwrap_or(BurstStats {
            frames: 0,
            bytes: 0,
            drops: frames.len(),
        });
        while let Some(rest) = frames.pop() {
            self.counts.add(row::dropped, 1);
            self.recycle(rest);
        }
        stats
    }

    /// Injects one frame into this stack's device RX ring (the wire
    /// side) — single-frame convenience over
    /// [`deliver_burst`](Self::deliver_burst).
    pub fn deliver_frame(&mut self, nb: Netbuf) {
        let mut scratch = std::mem::take(&mut self.inject_scratch);
        scratch.push(nb);
        self.deliver_burst(&mut scratch);
        self.inject_scratch = scratch;
    }

    fn handle_frame(&mut self, mut nb: Netbuf) -> Result<()> {
        self.counts.add(row::rx_frames, 1);
        let eth = match EthHeader::decode(nb.payload()) {
            Ok((h, _)) => h,
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        if eth.dst != self.config.mac && eth.dst != Mac::BROADCAST {
            self.recycle(nb);
            return Err(Errno::Inval);
        }
        nb.pull_header(ETH_HDR_LEN);
        match eth.ethertype {
            EtherType::Arp => {
                self.counts.add(row::demux_arp, 1);
                let r = self.handle_arp(nb.payload());
                self.recycle(nb);
                r
            }
            EtherType::Ipv4 => self.handle_ipv4(nb),
        }
    }

    fn handle_arp(&mut self, data: &[u8]) -> Result<()> {
        let arp = ArpPacket::decode(data)?;
        match arp.op {
            ArpOp::Request => {
                uktrace::trace!(self.trace, tp::arp_request_rx, arp.spa.0);
            }
            ArpOp::Reply => {
                uktrace::trace!(self.trace, tp::arp_reply_rx, arp.spa.0);
            }
        }
        self.arp.insert(arp.spa, arp.sha);
        // The table changed: memoized next-hops may be stale.
        self.arp_memo.clear();
        // Release packets that were waiting on this mapping.
        if let Some(pending) = self.arp_pending.remove(&arp.spa) {
            for (_, nb) in pending.packets {
                self.stage_eth(arp.sha, EtherType::Ipv4, nb);
            }
        }
        if arp.op == ArpOp::Request && arp.tpa == self.config.ip {
            let reply = ArpPacket {
                op: ArpOp::Reply,
                sha: self.config.mac,
                spa: self.config.ip,
                tha: arp.sha,
                tpa: arp.spa,
            };
            let mut nb = take_or_alloc(&mut self.pool);
            nb.append(&reply.encode());
            self.stage_eth(arp.sha, EtherType::Arp, nb);
        }
        Ok(())
    }

    /// Walks an IPv4 frame up the stack in place: the IP header is
    /// pulled, trailing Ethernet padding trimmed, and the same buffer
    /// continues to the transport layer.
    ///
    /// A frame the wire/device marked checksum-validated
    /// (`VIRTIO_NET_F_GUEST_CSUM`) skips the software IPv4-header and
    /// TCP/UDP checksum passes when RX checksum offload is on;
    /// unmarked frames are always fully verified.
    fn handle_ipv4(&mut self, mut nb: Netbuf) -> Result<()> {
        let trusted = self.rx_csum_offload && nb.csum_verified();
        if nb.has_frags() {
            // A big-receive super-segment: headers in the head buffer,
            // payload spanning the chain. Only the trusted wire
            // delivers these (GUEST_TSO4 requires GUEST_CSUM) — an
            // unmarked chain is a forgery and is dropped.
            if !trusted {
                self.recycle(nb);
                return Err(Errno::Inval);
            }
            return self.handle_super_frame(nb);
        }
        let decoded = if trusted {
            Ipv4Header::decode_trusted(nb.payload())
        } else {
            Ipv4Header::decode(nb.payload())
        };
        let (ip, body_len) = match decoded {
            Ok((h, body)) => (h, body.len()),
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        if ip.dst != self.config.ip {
            self.recycle(nb);
            return Err(Errno::Inval);
        }
        if trusted && matches!(ip.proto, IpProto::Tcp | IpProto::Udp) {
            self.counts.add(row::rx_csum_skipped, 1);
        }
        nb.pull_header(IPV4_HDR_LEN);
        nb.truncate(body_len);
        match ip.proto {
            IpProto::Udp => self.handle_udp(&ip, nb, trusted),
            IpProto::Tcp => self.handle_tcp_nb(&ip, nb, trusted),
            IpProto::Icmp => {
                let r = self.handle_icmp(&ip, nb.payload());
                self.recycle(nb);
                r
            }
        }
    }

    fn handle_icmp(&mut self, ip: &Ipv4Header, data: &[u8]) -> Result<()> {
        let (request, ident, seq, payload) = icmp::decode_echo(data)?;
        self.counts.add(row::demux_icmp, 1);
        if request {
            uktrace::trace!(self.trace, tp::icmp_echo_rx, ident, seq);
            // Answer pings like lwIP does: echo the payload into a
            // fresh pooled buffer, headers prepended in place. A
            // request too large for a reply buffer (an injected
            // over-MTU frame) is dropped, not echoed.
            let mut nb = take_or_alloc(&mut self.pool);
            if payload.len() > nb.tailroom() {
                self.recycle(nb);
                return Err(Errno::Inval);
            }
            nb.append(payload);
            icmp::encode_echo_into(false, ident, seq, &mut nb);
            let hdr = Ipv4Header {
                src: self.config.ip,
                dst: ip.src,
                proto: IpProto::Icmp,
                payload_len: ICMP_ECHO_LEN + payload.len(),
                ttl: 64,
            };
            hdr.encode_into(&mut nb);
            self.send_ipv4_nb(ip.src, IpProto::Icmp, nb);
            Ok(())
        } else {
            self.ping_replies.push((ip.src, ident, seq));
            Ok(())
        }
    }

    /// Sends an ICMP echo request to `dst`.
    pub fn ping(&mut self, dst: Ipv4Addr, ident: u16, seq: u16) -> Result<()> {
        let mut nb = take_or_alloc(&mut self.pool);
        nb.append(b"unikraft-rs ping");
        icmp::encode_echo_into(true, ident, seq, &mut nb);
        let hdr = Ipv4Header {
            src: self.config.ip,
            dst,
            proto: IpProto::Icmp,
            payload_len: nb.len(),
            ttl: 64,
        };
        hdr.encode_into(&mut nb);
        self.send_ipv4_nb(dst, IpProto::Icmp, nb);
        self.flush_tx()
    }

    /// Drains echo replies received so far: (peer, ident, seq).
    pub fn ping_replies(&mut self) -> Vec<(Ipv4Addr, u16, u16)> {
        std::mem::take(&mut self.ping_replies)
    }

    /// Demultiplexes a UDP datagram: the receive buffer itself (payload
    /// trimmed to the UDP body) moves into the socket's queue.
    fn handle_udp(&mut self, ip: &Ipv4Header, mut nb: Netbuf, trusted: bool) -> Result<()> {
        let decoded = if trusted {
            UdpHeader::decode_trusted(ip, nb.payload())
        } else {
            UdpHeader::decode(ip, nb.payload())
        };
        let (udp, body_len) = match decoded {
            Ok((h, body)) => (h, body.len()),
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        let Some(sock) = self.udp_socks.get_mut(&udp.dst_port) else {
            self.counts.add(row::demux_miss, 1);
            uktrace::trace!(self.trace, tp::demux_miss, 17u64, udp.dst_port);
            self.recycle(nb);
            return Err(Errno::ConnRefused);
        };
        if sock.rx.len() >= UDP_RX_QUEUE_CAP {
            self.recycle(nb);
            return Err(Errno::NoMem); // Queue full: drop (counted).
        }
        nb.pull_header(UDP_HDR_LEN);
        nb.truncate(body_len);
        self.counts.add(row::demux_udp, 1);
        uktrace::trace!(self.trace, tp::udp_rx, udp.dst_port, body_len);
        sock.rx.push_back((Endpoint::new(ip.src, udp.src_port), nb));
        publish(&sock.ready, || sock.readiness(), true);
        Ok(())
    }

    /// Validates a big-receive super-frame's headers (IPv4 + TCP, both
    /// in the head extent — the wire guarantees this) and returns the
    /// parsed TCP header plus the header bytes to strip off the head.
    fn parse_super_frame(nb: &Netbuf, my_ip: Ipv4Addr) -> Result<(TcpHeader, Ipv4Addr, usize)> {
        let head = nb.payload();
        let total = nb.chain_len();
        if head.len() < IPV4_HDR_LEN + TCP_HDR_LEN || head[0] != 0x45 {
            return Err(Errno::Inval);
        }
        let ip_total = u16::from_be_bytes([head[2], head[3]]) as usize;
        if ip_total != total || head[9] != 6 {
            return Err(Errno::Inval); // Chains carry exactly one TCP super-segment.
        }
        let ip = Ipv4Header {
            src: Ipv4Addr(u32::from_be_bytes([head[12], head[13], head[14], head[15]])),
            dst: Ipv4Addr(u32::from_be_bytes([head[16], head[17], head[18], head[19]])),
            proto: IpProto::Tcp,
            payload_len: total - IPV4_HDR_LEN,
            ttl: head[8],
        };
        if ip.dst != my_ip {
            return Err(Errno::Inval);
        }
        let (tcp, first) = TcpHeader::decode_trusted(&ip, &head[IPV4_HDR_LEN..])?;
        let consumed = head.len() - first.len();
        Ok((tcp, ip.src, consumed))
    }

    /// The one TCP ingest: delivers a segment to the connection in
    /// `slot` — one RX buffer from the direct path, a GRO-merged run, or
    /// a big-receive chain; the three entry shapes only parse and demux.
    /// In order: a handshake-completing ACK is refused while the accept
    /// backlog is full; the connection is told the time; options, then
    /// the segment, reach the TCB (payload
    /// buffers move into its queues, the rest go back to the pool); the
    /// newest out-of-order extents are shed while the pool sits below
    /// [`LOW_POOL_BUFS`]; the connection is marked dirty (the flush
    /// that follows publishes its readiness); what the TCB counted is
    /// published; and a handshake this segment completed graduates the
    /// connection to its listener's accept backlog, whose readiness is
    /// published there.
    /// Returns the connection's handle.
    fn tcp_ingest(
        &mut self,
        slot: u32,
        tcp: &TcpHeader,
        opts: Option<&TcpOptions>,
        bufs: impl Iterator<Item = Netbuf>,
    ) -> Result<usize> {
        let now = self.now_ns();
        let pool = &mut self.pool;
        let cs = self.conn_slots.get_mut(slot as usize);
        let Some((gen, c)) = cs.and_then(|cs| Some((cs.gen, cs.conn.as_mut()?))) else {
            // The flow table (or the GRO stage) named this slot, so it
            // must be occupied; drop the segment rather than panic if
            // they ever disagree with the slab.
            debug_assert!(false, "TCP segment demuxed to an empty connection slot");
            bufs.for_each(|b| pool.give_back_chain(b));
            return Err(Errno::BadF);
        };
        let h = conn_handle(slot, gen);
        let prior = c.tcb.state;
        let completes_handshake =
            prior == TcpState::SynReceived && tcp.flags.ack && !tcp.flags.syn && !tcp.flags.rst;
        if completes_handshake
            && self
                .listeners
                .get(&tcp.dst_port)
                .is_some_and(|l| l.backlog.len() >= self.config.listen_backlog)
        {
            // The connection stays half-open until the peer
            // retransmits or the handshake timer reclaims it.
            self.counts.add(row::tcp_syn_overflow, 1);
            bufs.for_each(|b| pool.give_back_chain(b));
            return Err(Errno::NoMem);
        }
        c.tcb.set_now(now);
        if let Some(opts) = opts {
            c.tcb.process_options(tcp, opts);
        }
        let readable = c.tcb.readable();
        c.tcb.on_segment_bufs(tcp, bufs, |b| pool.give_back_chain(b));
        c.rx_fresh |= c.tcb.readable() > readable;
        while pool.available() < LOW_POOL_BUFS
            && c.tcb.shed_newest_ooo(&mut |b| pool.give_back_chain(b))
        {}
        mark_dirty(c, &mut self.dirty, slot);
        let established = prior != TcpState::Established && c.tcb.state == TcpState::Established;
        if established {
            uktrace::trace!(self.trace, tp::tcp_established, h, tcp.dst_port);
        }
        let seq = tcp.seq as u64;
        publish_tcb_stats(&self.counts, &mut self.trace, h, seq, &mut c.published, c.tcb.stats());
        if established && prior == TcpState::SynReceived {
            // Handshake complete: graduate from the SYN queue to the
            // accept backlog.
            if let Some(l) = self.listeners.get_mut(&tcp.dst_port) {
                l.syn_queue.retain(|&s| s != slot);
                l.backlog.push_back(SocketHandle(h));
                publish(&l.ready, || l.readiness(), true);
            }
        }
        Ok(h)
    }

    /// Ingests a big-receive super-segment **zero-copy**: headers are
    /// stripped off the chain head in place and the whole chain moves
    /// into the connection's receive queue as *one* multi-part segment
    /// — one demux, one ACK, no per-MSS work and no payload copy
    /// anywhere on the receive side.
    fn handle_super_frame(&mut self, mut nb: Netbuf) -> Result<()> {
        // A super-segment is TCP data: it must not overtake per-MSS
        // frames already staged for the same connection.
        self.gro_flush();
        let (tcp, src, consumed) = match Self::parse_super_frame(&nb, self.config.ip) {
            Ok(p) => p,
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        let remote = Endpoint::new(src, tcp.src_port);
        let Some(slot) = self.flow.get(flow_key(tcp.dst_port, remote)) else {
            self.counts.add(row::demux_miss, 1);
            uktrace::trace!(self.trace, tp::demux_miss, 6u64, tcp.dst_port);
            self.stage_rst(src, &tcp, nb.chain_len() - consumed);
            self.recycle(nb);
            return Err(Errno::ConnRefused);
        };
        let opts = tcp_options(&nb.payload()[IPV4_HDR_LEN..consumed]);
        nb.pull_header(consumed);
        // `_h` and `_bytes` are only read by the tracepoint (unused
        // when tracing is compiled out, hence the underscores).
        let _bytes = nb.chain_len();
        let _h = self.tcp_ingest(slot, &tcp, opts.as_ref(), std::iter::once(nb))?;
        self.counts.add(row::demux_tcp, 1);
        uktrace::trace!(self.trace, tp::tcp_super_rx, _h, _bytes);
        self.counts.add(row::rx_super_frames, 1);
        self.counts.add(row::rx_csum_skipped, 1);
        Ok(())
    }

    /// Demultiplexes one TCP segment, **keeping ownership of the RX
    /// buffer**: a mergeable data segment is staged for GRO, anything
    /// else is delivered to its TCB with the payload buffer moved into
    /// the receive queue (or recycled, if the data is not accepted).
    fn handle_tcp_nb(&mut self, ip: &Ipv4Header, mut nb: Netbuf, trusted: bool) -> Result<()> {
        let decoded = if trusted {
            TcpHeader::decode_trusted(ip, nb.payload())
        } else {
            TcpHeader::decode(ip, nb.payload())
        };
        let (tcp, doff) = match decoded {
            Ok((h, payload)) => (h, nb.len() - payload.len()),
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        let payload_len = nb.len() - doff;
        // GRO: a plain data segment (ACK set, no SYN/FIN/RST, no
        // options — a merged run has one header and nowhere to keep a
        // member's SACK blocks; Linux GRO's rule) joins the burst's
        // staging area; consecutive ones merge into one ingest at
        // flush. A segment continuing the staged run's flow at exactly
        // the expected sequence number appends with *zero* demux-table
        // lookups — the flow-match fast path that makes per-MSS receive
        // cheap.
        let mergeable = self.gro
            && tcp.flags.ack
            && !tcp.flags.syn
            && !tcp.flags.fin
            && !tcp.flags.rst
            && doff == TCP_HDR_LEN
            && payload_len > 0;
        if mergeable {
            if let Some(cont) = self.gro_cont.as_mut() {
                let flow_match = cont.src_port == tcp.src_port
                    && cont.dst_port == tcp.dst_port
                    && cont.src == ip.src;
                if flow_match && cont.next_seq == tcp.seq {
                    nb.pull_header(doff);
                    cont.next_seq = tcp.seq.wrapping_add(nb.len() as u32);
                    let conn = cont.conn;
                    self.gro_stage.push((conn, tcp, nb));
                    self.counts.add(row::demux_tcp, 1);
                    return Ok(());
                }
                if flow_match {
                    // Sequence gap in the staged flow (a drop or
                    // reorder on the wire): deliver the staged run
                    // *now* so coalescing never merges across the
                    // hole — the gapped segment takes the demux path
                    // below and lands in the reassembly queue.
                    self.gro_flush();
                }
            }
        }
        let remote = Endpoint::new(ip.src, tcp.src_port);
        // The flow's slot, handle and state, if a live connection owns it.
        let mut hit = self.flow.get(flow_key(tcp.dst_port, remote)).and_then(|slot| {
            let cs = self.conn_slots.get(slot as usize)?;
            Some((slot, conn_handle(slot, cs.gen), cs.conn.as_ref()?.tcb.state))
        });
        // TIME_WAIT assassination (RFC 1122 §4.2.2.13): a fresh SYN
        // landing on a connection parked in TIME_WAIT reaps it on the
        // spot and falls through to the listener below — the port
        // recycles without waiting out the full 2MSL.
        if tcp.flags.syn && !tcp.flags.ack {
            if let Some((slot, _, TcpState::TimeWait)) = hit {
                self.reap_conn_slot(slot, REAP_TIMEWAIT);
                hit = None;
            }
        }
        let to_listener =
            tcp.flags.syn && !tcp.flags.ack && self.listeners.contains_key(&tcp.dst_port);
        let slot = match hit {
            // GRO staging is for flows in steady data transfer;
            // anything mid-handshake or mid-teardown takes the direct
            // path so state transitions apply immediately.
            Some((_, h, TcpState::Established)) if mergeable => {
                // Start (or interleave) a staged run for this flow.
                nb.pull_header(doff);
                self.gro_cont = Some(GroCont {
                    src: ip.src,
                    src_port: tcp.src_port,
                    dst_port: tcp.dst_port,
                    conn: h,
                    next_seq: tcp.seq.wrapping_add(nb.len() as u32),
                });
                self.gro_stage.push((h, tcp, nb));
                self.counts.add(row::demux_tcp, 1);
                return Ok(());
            }
            Some((slot, ..)) => {
                // The direct path — after flushing the stage, so
                // nothing overtakes data already queued for this
                // connection.
                self.gro_flush();
                if tcp.flags.fin {
                    uktrace::trace!(self.trace, tp::tcp_fin_rx, tcp.dst_port, tcp.seq);
                }
                slot
            }
            // No connection: a SYN to a listener spawns a half-open one
            // on the listener's bounded SYN queue.
            None if to_listener => self.spawn_half_open(&tcp, remote),
            None => {
                // Nothing claimed the segment: count the miss and
                // answer with a RST (suppressed for incoming RSTs —
                // including in-window RSTs aimed at a bare listener,
                // which are simply dropped).
                self.counts.add(row::demux_miss, 1);
                uktrace::trace!(self.trace, tp::demux_miss, 6u64, tcp.dst_port);
                self.stage_rst(ip.src, &tcp, payload_len);
                self.recycle(nb);
                return Err(Errno::ConnRefused);
            }
        };
        // TCP options (SACK-permitted on SYNs, SACK blocks on ACKs) live
        // between the fixed header and the payload; capture them before
        // the header is pulled.
        let opts = tcp_options(&nb.payload()[..doff]);
        nb.pull_header(doff);
        let _h = self.tcp_ingest(slot, &tcp, opts.as_ref(), std::iter::once(nb))?;
        if payload_len > 0 && !tcp.flags.syn {
            uktrace::trace!(self.trace, tp::tcp_data_rx, _h, payload_len);
        }
        self.counts.add(row::demux_tcp, 1);
        Ok(())
    }

    /// Admits a SYN to the listener on its destination port: a fresh
    /// half-open connection in `Listen`, on the listener's SYN queue,
    /// for the caller to deliver the SYN to. Returns its slot.
    fn spawn_half_open(&mut self, tcp: &TcpHeader, remote: Endpoint) -> u32 {
        uktrace::trace!(self.trace, tp::tcp_syn_rx, tcp.dst_port, tcp.src_port);
        // At capacity the *oldest* half-open connection is evicted (its
        // buffers pool-returned, its flow entry and timers dropped) — a
        // SYN flood churns the queue but can neither grow it nor starve
        // established connections.
        let victim = self.listeners.get(&tcp.dst_port).and_then(|l| {
            (l.syn_queue.len() >= self.config.listen_backlog)
                .then(|| l.syn_queue.front().copied())
                .flatten()
        });
        if let Some(v) = victim {
            self.counts.add(row::tcp_syn_overflow, 1);
            uktrace::trace!(self.trace, tp::tcp_syn_evicted, tcp.dst_port, v as usize);
            self.reap_conn_slot(v, REAP_SYN_EVICTED);
        }
        let mut tcb = Tcb::listen(tcp.dst_port);
        self.configure_tcb(&mut tcb);
        self.iss = self.iss.wrapping_add(64_000);
        let h = self.alloc_conn(tcb, remote, tcp.dst_port);
        let slot = (h & 0xffff_ffff) as u32;
        if let Some(l) = self.listeners.get_mut(&tcp.dst_port) {
            l.syn_queue.push_back(slot);
        } else {
            // The caller checked the listener exists and neither the
            // eviction nor `alloc_conn` touches it; the half-open
            // connection simply times out if that ever breaks.
            debug_assert!(false, "listener vanished while spawning half-open conn");
        }
        slot
    }

    /// Delivers everything staged for GRO, in arrival order: adjacent
    /// stage entries for the same connection whose sequence numbers
    /// are consecutive collapse into **one** multi-buffer ingest —
    /// one demux-table access, one TCB pass, one coalesced ACK for
    /// the run. The merged header takes the run's first sequence
    /// number and the *last* segment's cumulative ACK and window (the
    /// freshest peer state), exactly what a hardware GRO engine
    /// presents. Buffers drain straight out of the stage into the
    /// receive queue — no intermediate move.
    fn gro_flush(&mut self) {
        self.gro_cont = None;
        if self.gro_stage.is_empty() {
            return;
        }
        let mut stage = std::mem::take(&mut self.gro_stage);
        while !stage.is_empty() {
            // The run at the stage front: adjacent entries, same
            // connection, consecutive sequence numbers.
            let (conn, first) = (stage[0].0, stage[0].1);
            let mut next_seq = first.seq.wrapping_add(stage[0].2.len() as u32);
            let mut j = 1;
            while j < stage.len() && stage[j].0 == conn && stage[j].1.seq == next_seq {
                next_seq = next_seq.wrapping_add(stage[j].2.len() as u32);
                j += 1;
            }
            let last = stage[j - 1].1;
            if j > 1 {
                self.counts.add(row::gro_runs, 1);
                self.counts.add(row::gro_merged_frames, j as u64);
                uktrace::trace!(self.trace, tp::gro_merge, conn, j);
            }
            let merged = TcpHeader {
                src_port: first.src_port,
                dst_port: first.dst_port,
                seq: first.seq,
                ack: last.ack,
                flags: TcpFlags {
                    ack: true,
                    psh: first.flags.psh || last.flags.psh,
                    ..Default::default()
                },
                window: last.window,
            };
            let run = stage.drain(..j).map(|(_, _, nb)| nb);
            // A connection reaped since it was staged leaves only
            // buffers to return.
            match conn_parts(conn).filter(|_| self.conn(conn).is_some()) {
                Some((slot, _)) => {
                    // Staged segments carry no options, and a staged
                    // connection was `Established`: nothing to refuse.
                    let _ = self.tcp_ingest(slot, &merged, None, run);
                    let _run_bytes = next_seq.wrapping_sub(first.seq);
                    uktrace::trace!(self.trace, tp::tcp_data_rx, conn, _run_bytes);
                }
                None => run.for_each(|nb| self.pool.give_back_chain(nb)),
            }
        }
        self.gro_stage = stage;
    }
}

/// Parses the options of the TCP header `hdr` (fixed part included), if
/// it carries any.
fn tcp_options(hdr: &[u8]) -> Option<TcpOptions> {
    (hdr.len() > TCP_HDR_LEN).then(|| TcpOptions::parse(&hdr[TCP_HDR_LEN..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uknetdev::backend::VhostKind;
    use uknetdev::dev::NetDevConf;
    use uknetdev::VirtioNet;
    use ukplat::time::Tsc;

    fn stack(n: u8) -> NetStack {
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        NetStack::new(StackConfig::node(n), Box::new(dev))
    }

    #[test]
    fn udp_bind_conflicts_detected() {
        let mut s = stack(1);
        s.udp_bind(5000).unwrap();
        assert_eq!(s.udp_bind(5000).unwrap_err(), Errno::AddrInUse);
    }

    #[test]
    fn udp_send_without_arp_parks_and_requests() {
        let mut s = stack(1);
        let sock = s.udp_bind(5000).unwrap();
        s.udp_send_to(sock, b"ping", Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
            .unwrap();
        // One broadcast ARP request must have left the stack.
        assert_eq!(s.stats().tx_frames, 1);
        assert_eq!(s.arp_pending.len(), 1);
    }

    #[test]
    fn unresolved_arp_parking_is_capped_and_buffers_recycled() {
        let mut s = stack(1);
        let sock = s.udp_bind(5000).unwrap();
        let dst = Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 7);
        // Far more sends than the per-next-hop cap; nobody ever answers
        // the ARP request.
        for _ in 0..64 {
            s.udp_send_to(sock, b"black hole", dst).unwrap();
        }
        assert_eq!(
            s.arp_pending.get(&dst.addr).unwrap().packets.len(),
            ARP_PENDING_CAP,
            "parked packets bounded per destination"
        );
        assert_eq!(
            s.stats().dropped,
            64 - ARP_PENDING_CAP as u64,
            "evicted packets are counted as drops"
        );
        // Who-has re-broadcast on a fixed cadence, not per packet.
        let requests = 64u64.div_ceil(ARP_REQUEST_RETRY_EVERY);
        assert_eq!(s.stats().tx_frames, requests, "bounded retry cadence");
        // Pool accounting: the capped parked packets plus the ARP
        // request frames (in the device done-list until the wire
        // harvests them) are the only outstanding buffers.
        let outstanding =
            s.config.pool_size - s.pool_available().unwrap();
        assert_eq!(
            outstanding,
            ARP_PENDING_CAP + requests as usize,
            "no buffer leak"
        );
    }

    #[test]
    fn arp_parking_hard_cap_bounds_even_tcp() {
        let mut s = stack(1);
        // An app looping connects on an unreachable address must not
        // pin the pool without bound.
        for _ in 0..100 {
            s.tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 80))
                .unwrap();
        }
        let pending = s.arp_pending.get(&Ipv4Addr::new(10, 0, 0, 99)).unwrap();
        assert_eq!(pending.packets.len(), ARP_PENDING_HARD_CAP);
        assert_eq!(s.stats().dropped, 100 - ARP_PENDING_HARD_CAP as u64);
    }

    #[test]
    fn arp_eviction_never_drops_tcp_segments() {
        let mut s = stack(1);
        // Park a SYN on an unresolved next-hop…
        s.tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 80))
            .unwrap();
        // …then flood the same next-hop with droppable datagrams.
        let sock = s.udp_bind(5000).unwrap();
        let dst = Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 7);
        for _ in 0..32 {
            s.udp_send_to(sock, b"flood", dst).unwrap();
        }
        let pending = s.arp_pending.get(&dst.addr).unwrap();
        assert_eq!(pending.packets.len(), ARP_PENDING_CAP);
        let tcp_parked = pending
            .packets
            .iter()
            .filter(|(p, _)| *p == IpProto::Tcp)
            .count();
        assert_eq!(
            tcp_parked, 1,
            "the SYN survives eviction (recovering it would cost a full RTO)"
        );
    }

    #[test]
    fn quiet_queue_arp_retry_fires_on_pump_cadence() {
        let mut s = stack(1);
        let sock = s.udp_bind(5000).unwrap();
        // One send parks one packet and broadcasts one who-has.
        s.udp_send_to(sock, b"hello?", Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 7))
            .unwrap();
        assert_eq!(s.stats().tx_frames, 1);
        // The application goes quiet: no new packets ever park, so the
        // per-parked-packet cadence can never fire again — but pumping
        // must still retry on the per-burst counter.
        for _ in 0..ARP_REQUEST_RETRY_PUMPS * 2 {
            s.pump();
        }
        assert_eq!(
            s.stats().tx_frames,
            3,
            "two who-has retries after 2×{ARP_REQUEST_RETRY_PUMPS} quiet pumps"
        );
        assert_eq!(
            s.arp_pending.get(&Ipv4Addr::new(10, 0, 0, 99)).unwrap().packets.len(),
            1,
            "the parked packet still waits"
        );
    }

    #[test]
    fn udp_send_burst_reports_sendmmsg_counts() {
        let mut s = stack(1);
        let sock = s.udp_bind(5000).unwrap();
        let dst = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
        let ok = [0x11u8; 64];
        let too_big = vec![0u8; BUF_CAP];
        // A failing datagram mid-burst stops the burst; the count of
        // datagrams already staged is returned.
        let n = s
            .udp_send_burst(sock, [(&ok[..], dst), (&too_big[..], dst), (&ok[..], dst)])
            .unwrap();
        assert_eq!(n, 1, "burst stops at the first failure");
        // A failing *first* datagram surfaces the error.
        assert_eq!(
            s.udp_send_burst(sock, [(&too_big[..], dst)]).unwrap_err(),
            Errno::Inval
        );
        assert_eq!(
            s.udp_send_burst(sock, std::iter::empty()).unwrap(),
            0,
            "empty burst is a no-op"
        );
    }

    #[test]
    fn csum_offload_tracks_config_and_device_capability() {
        let s = stack(1);
        assert!(s.csum_offload(), "VirtioNet advertises tx csum offload");
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        let mut cfg = StackConfig::node(1);
        cfg.tx_csum_offload = false;
        let s = NetStack::new(cfg, Box::new(dev));
        assert!(!s.csum_offload(), "ablation switch wins over capability");
    }

    #[test]
    fn tso_requires_tx_csum_offload() {
        // The cut frames' checksums are completed host-side, so TSO
        // without checksum offload is a contradiction: the stack must
        // fall back to software segmentation.
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        let mut cfg = StackConfig::node(1);
        cfg.tx_csum_offload = false; // tso wish stays on
        let s = NetStack::new(cfg, Box::new(dev));
        assert!(!s.tso(), "TSO gated on checksum offload");
        assert!(!s.csum_offload());
    }

    #[test]
    fn oversized_icmp_echo_request_is_dropped_not_echoed() {
        // An injected over-MTU echo request must not panic the reply
        // path (`append` would assert on tailroom) — it is dropped.
        let mut s = stack(1);
        let mut nb = uknetdev::netbuf::Netbuf::alloc(4096, TX_HEADROOM);
        nb.append(&[0x77u8; BUF_CAP]); // larger than any reply buffer
        crate::icmp::encode_echo_into(true, 1, 1, &mut nb);
        let ip = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 2),
            dst: s.ip(),
            proto: IpProto::Icmp,
            payload_len: nb.len(),
            ttl: 64,
        };
        ip.encode_into(&mut nb);
        EthHeader {
            dst: s.mac(),
            src: Mac::node(2),
            ethertype: EtherType::Ipv4,
        }
        .encode_into(&mut nb);
        s.deliver_frame(nb);
        let pool_before = s.pool_available().unwrap();
        s.pump();
        assert_eq!(s.stats().dropped, 1, "oversized request dropped");
        assert_eq!(
            s.pool_available().unwrap(),
            pool_before,
            "reply buffer recycled"
        );
    }

    #[test]
    fn oversized_udp_payload_rejected_and_buffer_recycled() {
        let mut s = stack(1);
        let sock = s.udp_bind(5000).unwrap();
        let before = s.pool_available().unwrap();
        let big = vec![0u8; BUF_CAP];
        let err = s
            .udp_send_to(sock, &big, Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
            .unwrap_err();
        assert_eq!(err, Errno::Inval);
        assert_eq!(s.pool_available().unwrap(), before, "no pool leak");
    }

    #[test]
    fn tcp_listen_twice_fails() {
        let mut s = stack(1);
        s.tcp_listen(80).unwrap();
        assert_eq!(s.tcp_listen(80).unwrap_err(), Errno::AddrInUse);
    }

    #[test]
    fn recv_on_bad_handle_errors() {
        let mut s = stack(1);
        assert_eq!(s.tcp_recv(SocketHandle(99), 10).unwrap_err(), Errno::BadF);
    }

    #[test]
    fn handle_spaces_are_disjoint() {
        let mut s = stack(1);
        let udp = s.udp_bind(9000).unwrap();
        let listener = s.tcp_listen(80).unwrap();
        let conn = s
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        assert_eq!(listener.0, LISTENER_TAG | 80);
        assert_eq!(udp.0, UDP_TAG | 9000);
        assert_eq!(conn.0 >> 48, 0, "conn handles sit below both tags");
        assert!(conn.0 >> 32 > 0, "conn handles carry a generation tag");
        assert!(s.tcp_state(conn).is_some());
        assert_eq!(s.tcp_state(SocketHandle(99)), None, "garbage handle");
    }

    #[test]
    fn source_for_unknown_handle_is_a_detached_hup_cell() {
        let mut s = stack(1);
        // Garbage, a listener that was never opened, a UDP port nobody
        // bound: each resolves to nothing.
        for h in [4242, LISTENER_TAG | 81, UDP_TAG | 9001] {
            let src = s.ready_source(SocketHandle(h));
            assert_eq!(src.current(), EventMask::HUP);
            // Nothing retained: asking again mints a different cell.
            assert!(!src.same_as(&s.ready_source(SocketHandle(h))));
        }
        // A live socket's cell is stored in the socket.
        let sock = s.udp_bind(9000).unwrap();
        let live = s.ready_source(sock);
        assert!(live.same_as(&s.ready_source(sock)));
        assert_eq!(live.current(), EventMask::OUT);
        s.pump();
        assert_eq!(live.current(), EventMask::OUT);
    }
}
