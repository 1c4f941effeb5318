//! The stack proper: interface, demux, sockets — zero-copy **burst**
//! datapath.
//!
//! A [`NetStack`] owns a `uk_netdev` device and implements the socket
//! path of the paper's architecture (scenario ➁) with the §3.1
//! buffer-ownership discipline end to end. The unit of work at every
//! layer boundary is *a burst of netbufs*, not a single packet; the
//! steady-state lifecycle of a buffer is:
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
//! In steady state the rx/tx hot path performs **zero heap allocations
//! per packet** — per-frame, per-burst *and* per 1 MB bulk transfer in
//! either direction, asserted by the `zero_alloc` integration test; all
//! scratch vectors live in the stack and are reused across turns.
//!
//! # The map
//!
//! The stack is made of **parts** — each a type that owns a piece of
//! state and the invariant over it, its fields private to its module, so
//! `NetStack` reaches it through methods only and the invariant has one
//! file it can be broken in and one module's tests that hold it. A
//! private part or job is named in plain text, not linked:
//!
//! | part | state | invariant |
//! |---|---|---|
//! | [`arp::Neighbors`](crate::arp) | neighbour table, packets parked per unresolved next hop, next-hop memo, who-has cadences | ≤ 1024 mappings, learned by RFC 826's merge rule; ≤ 64 parked per hop, non-TCP evicted first; every parked buffer leaves exactly once |
//! | `conns::ConnTable` | connection slab, free list, flow table, dirty list, held-ACK count, timer queue (a `DeadlineHeap` of slots); `ConnId` is the one handle/TX-hold packing | generation 0 never issued; a stale id resolves to nothing; flow table ⇔ occupied slots; every clean connection queued at exactly its next deadline, a free slot never |
//! | `gro::Gro` | the GRO stage and the continuation it expects | a run is one connection's consecutive sequence space in arrival order; nothing overtakes staged data |
//! | `offload::Offloads` | which offloads are in force (a `Copy` value) | `tso ⇒ tx_csum`, `big_receive ⇒ rx_csum`; the only reader of a device capability |
//!
//! What is left is `NetStack`'s own — the device, the pool, the socket
//! maps, the staging vectors, the clock — declared here with
//! construction, [`pump`](NetStack::pump) and the wire-side calls
//! (`take_rx_buf`, `deliver_burst`, `harvest_tx`), and its `impl`
//! divided by **job**:
//!
//! | job | entry points |
//! |---|---|
//! | `sockets` | handle tags, `UdpSocket`, `TcpListener`, `publish`; `udp_*`, `tcp_*`, `ping`; `readiness`, `ready_source` |
//! | `ingest` | `handle_frame` → `handle_arp` / `handle_ipv4` → `handle_icmp` / `handle_udp` / `handle_tcp_nb` / `handle_super_frame`; `tcp_ingest`, `tcp_miss`, `spawn_half_open`, `gro_flush` |
//! | `output` | `ip_to`, `stage_udp`, `stage_rst`, `flush_tcp`, `send_ipv4_nb`, `stage_eth`, `flush_tx`; `recycle` / `rtx_return_chain` |
//! | `timers` | `tcp_timer_tick`, `dispatch_timer`, `TcpConn::wake_at`, `reap_conn` |
//! | `stats` | `tp`, `stack_stats_table!` (`row`, [`StackStats`], `publish_tcb_stats`), `StackGauges` |
//!
//! Each module's own docs carry its prose; the crate README ("Inside
//! `stack/`", "The socket seam", "The TCB seam", "Time", "Accounting")
//! has the tables. `make lint` holds every file here to 600 non-test
//! lines and to the no-alloc/no-panic rules.

mod conns;
mod gro;
mod ingest;
mod offload;
mod output;
mod sockets;
mod stats;
#[cfg(test)]
mod tests;
mod timers;

use std::cell::Cell;
use std::collections::HashMap;

use uknetdev::dev::{BurstStats, NetDev};
use uknetdev::netbuf::{Netbuf, NetbufPool};
use uknetdev::MAX_BURST;
use ukstats::CounterSet;

use self::conns::ConnTable;
use self::gro::Gro;
pub use self::offload::Offloads;
use self::output::TcpStaged;
use self::sockets::{TcpListener, UdpSocket, PING_REPLIES_CAP};
use self::stats::{row, StackGauges};
pub use self::stats::{tp, StackStats, TRACE_RING_CAP};
use crate::arp::Neighbors;
use crate::eth::ETH_HDR_LEN;
use crate::ipv4::IPV4_HDR_LEN;
pub use crate::tcp::{
    HANDSHAKE_TIMEOUT_NS, KEEPALIVE_IDLE_NS, KEEPALIVE_INTVL_NS, KEEPALIVE_PROBES, TCP_MSL_NS,
};
use crate::tcp::{MSS, TCP_HDR_LEN, TCP_MAX_OPT_LEN};
use crate::{Ipv4Addr, Mac};

/// Headroom reserved in every TX buffer: room for Ethernet + IPv4 +
/// the largest transport header **including TCP options** (SACK blocks
/// on pure ACKs need up to [`TCP_MAX_OPT_LEN`] extra bytes), so
/// payloads are written once and all headers are prepended in place.
pub const TX_HEADROOM: usize = 96;

/// Storage size of each packet buffer (MTU + headers, rounded up).
// ukcheck: allow(unused-pub) -- `udp_send_to`'s documented size limit is
// stated in it; `uknetstack::stack::BUF_CAP` stays a path that resolves
pub const BUF_CAP: usize = 2048;

/// Ceiling on one GSO super-segment's TCP payload (Linux's classic
/// `GSO_MAX_SIZE` neighborhood; comfortably under the 16-bit IPv4
/// total-length limit with headers included).
const GSO_MAX_SIZE: usize = 61440;

/// Netbuf-pool level below which the receive path sheds the newest
/// out-of-order reassembly extents back to the pool. Sustained loss
/// pins buffers on both ends (rtx extents on the sender, OOO extents
/// on the receiver); shedding the newest OOO data — the furthest from
/// being cumulatively acknowledged, and guaranteed to be retransmitted
/// by the peer — degrades goodput gracefully where a starved pool
/// would stall the whole stack.
pub const LOW_POOL_BUFS: usize = 16;

/// `pump` times one sweep in this many for the `netstack.pump_ns`
/// histogram; the two clock reads cost as much as the rest of an idle
/// sweep. `netstack.pump_sweeps` counts every sweep.
const PUMP_NS_SAMPLE_EVERY: u64 = 64;

/// Takes a TX buffer with [`TX_HEADROOM`] reserved for headers. Pool or
/// heap is the application's choice (§3.1), made in `uknetdev` —
/// [`NetbufPool`] or [`Netbuf::alloc`] — not by a stack flag: this stack
/// chose the pool. The pool builds buffers on demand up to
/// `pool_size`; only with all `pool_size` out does this fall back to
/// the heap — a fault path, not a mode: the frame still leaves, and the
/// buffer is dropped instead of recycled when it comes home.
#[cfg_attr(feature = "netbuf-sanitizer", track_caller)]
#[inline]
fn take_or_alloc(pool: &mut NetbufPool) -> Netbuf {
    pool.take().unwrap_or_else(|| Netbuf::alloc(BUF_CAP, TX_HEADROOM))
}

// All three header layers — options included — must fit the reserved
// headroom.
const _: () =
    assert!(TX_HEADROOM >= ETH_HDR_LEN + IPV4_HDR_LEN + TCP_HDR_LEN + TCP_MAX_OPT_LEN);
// Headers + super-segment payload must fit the u16 IPv4 total length,
// or the frame would be unparseable on arrival — a deterministic parse
// failure retransmission must not paper over.
const _: () = assert!(IPV4_HDR_LEN + TCP_HDR_LEN + GSO_MAX_SIZE <= 65_535);

/// Interface configuration.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// Our MAC address.
    pub mac: Mac,
    /// Our IPv4 address.
    pub ip: Ipv4Addr,
    /// The most buffers the stack's netbuf pool may hold. The pool
    /// builds none at construction; when the traffic has every built
    /// buffer in flight it builds the first one, then doubles, up to
    /// this cap ([`NetbufPool`]); it never frees one.
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
    /// Maximum segment size for this stack's TCP connections. Every
    /// connection recovers from loss one way: NewReno congestion
    /// control (RFC 5681 / RFC 6582) with RACK-TLP loss detection
    /// (RFC 8985), unpaced.
    pub mss: usize,
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
    /// spurious retransmits). Disable for the go-back-N ablation, or
    /// to stand in for a peer that does not negotiate SACK.
    pub sack: bool,
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
            rx_csum_offload: true,
            gro: true,
            mss: MSS,
            keepalive: false,
            listen_backlog: 64,
            sack: true,
        }
    }
}

/// Handle to a socket or connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketHandle(pub usize);


/// The network stack.
pub struct NetStack {
    config: StackConfig,
    dev: Box<dyn NetDev>,
    /// Which offloads are in force: the configuration's wishes, as far
    /// as `dev` can deliver them.
    offloads: Offloads,
    pool: NetbufPool,
    /// The neighbour table and the packets parked behind it.
    neigh: Neighbors,
    /// Every TCP connection: slab, flow table, dirty list, timer queue.
    conns: ConnTable,
    /// The GRO stage of the burst being swept.
    gro: Gro,
    /// UDP sockets by bound port (the handle is `UDP_TAG | port`).
    udp_socks: HashMap<u16, UdpSocket>,
    /// Listeners by port (the handle is `LISTENER_TAG | port`).
    listeners: HashMap<u16, TcpListener>,
    next_ephemeral: u16,
    iss: u32,
    /// Echo replies received: (peer, ident, seq) — at most
    /// `PING_REPLIES_CAP`, preallocated.
    ping_replies: Vec<(Ipv4Addr, u16, u16)>,
    /// Ethernet-ready frames staged for the next `tx_burst` (reused).
    tx_stage: Vec<Netbuf>,
    /// TCP segments staged during `flush_tcp`, pre-ARP (reused).
    tcp_stage: Vec<TcpStaged>,
    /// RX burst scratch for `pump` (reused).
    rx_scratch: Vec<Netbuf>,
    /// Injection scratch for `deliver_frame` (reused).
    inject_scratch: Vec<Netbuf>,
    /// Scratch for flattening returning held TX frames into their
    /// payload extents (reused).
    hold_scratch: Vec<Netbuf>,
    /// Every count this stack keeps, one cell per row of
    /// `stack_stats_table!`; the stack is the cells' only writer.
    counts: CounterSet,
    /// Pre-registered global gauge/histogram handles.
    gauges: StackGauges,
    /// Tracepoint ring (a ZST no-op with the `trace` feature off).
    trace: uktrace::TraceRing,
    /// The clock every TCB and the timer queue read: private until
    /// [`set_clock`](Self::set_clock) shares one.
    clock: ukplat::time::Tsc,
    /// The last `(cycles, ns)` pair [`now_ns`](Self::now_ns) converted.
    /// The clock is read ~10× per request/response and moves only when
    /// the wire or a timer wait advances it, so most reads repeat the
    /// cycle count and skip the conversion's four multiplies.
    now_memo: Cell<(u64, u64)>,
    /// The pool's low-water mark as last published to the
    /// `pool_inflight_hiwater` gauge.
    pool_low_water_seen: usize,
}

impl std::fmt::Debug for NetStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetStack")
            .field("ip", &self.config.ip)
            .field("conns", &self.conns.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl NetStack {
    /// Creates a stack over a configured device. Out-of-range tuning
    /// knobs are clamped to safe values: the MSS to what one wire
    /// frame and one pooled buffer can carry, the listen backlog to
    /// 1..=4096.
    // ukcheck: allow(alloc) -- one-time stack construction: maps, the
    // pool, scratch vectors and the trace ring are all built here (and
    // in the parts' own `new`s, each with its own escape) so the
    // per-frame pump never allocates (the zero_alloc suite enforces it)
    pub fn new(mut config: StackConfig, dev: Box<dyn NetDev>) -> Self {
        config.mss = config.mss.clamp(1, MSS);
        config.listen_backlog = config.listen_backlog.clamp(1, 4096);
        let offloads = Offloads::resolve(&config, &dev.info());
        let chain_frags = offloads.chain_frags();
        let pool =
            NetbufPool::with_chain_capacity(config.pool_size, BUF_CAP, TX_HEADROOM, chain_frags);
        NetStack {
            config,
            dev,
            offloads,
            pool_low_water_seen: pool.low_water(),
            pool,
            neigh: Neighbors::new(),
            conns: ConnTable::new(),
            gro: Gro::new(),
            udp_socks: HashMap::new(),
            listeners: HashMap::new(),
            next_ephemeral: 49152,
            iss: 1,
            ping_replies: Vec::with_capacity(PING_REPLIES_CAP),
            tx_stage: Vec::new(),
            tcp_stage: Vec::new(),
            rx_scratch: Vec::new(),
            inject_scratch: Vec::new(),
            hold_scratch: Vec::with_capacity(MAX_BURST),
            counts: CounterSet::new(row::NAMES),
            gauges: StackGauges::register(),
            trace: uktrace::TraceRing::new(TRACE_RING_CAP),
            clock: ukplat::time::Tsc::default(),
            now_memo: Cell::new((0, 0)),
        }
    }

    /// Replaces the stack's clock — private since construction, so
    /// time stood still — with a shared one: every connection, open
    /// already or later, and the timer queue read `tsc` from now on,
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

    /// The offloads this stack runs with: what its configuration asked
    /// for, as far as its device can deliver it (the wire consults
    /// `big_receive` to decide between whole-chain delivery and the
    /// host-side MSS cut).
    pub fn offloads(&self) -> Offloads {
        self.offloads
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

    /// Buffers the pool has built so far — what the traffic has asked
    /// for, at most twice its in-flight peak.
    pub fn pool_built(&self) -> usize {
        self.pool.built()
    }

    /// Current time on the stack's clock.
    #[inline]
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

    /// Live TCP connections in the slab (any state, TIME_WAIT
    /// included) — diagnostics for tests and reports.
    pub fn tcp_conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Connections on the timer queue (diagnostics): at most one entry
    /// per connection, none for one that waits for nothing.
    pub fn armed_timer_count(&self) -> usize {
        self.conns.armed()
    }

    /// The earliest deadline among the ACKs this stack is holding for
    /// a data segment to carry, if it holds any. A wire with no frame
    /// in flight is not quiet while this is `Some`: the peer still has
    /// unacknowledged bytes (and the buffers behind them) that only
    /// the timer queue will release — [`testnet`](crate::testnet) waits it
    /// out so leak checks do not mistake that tail for a leak.
    pub fn held_ack_deadline(&self) -> Option<u64> {
        self.conns.held_ack_deadline()
    }

    /// Takes an RX buffer (no headroom: the wire writes whole frames).
    /// The wire harness fills it and injects it with
    /// [`deliver_frame`](Self::deliver_frame).
    pub fn take_rx_buf(&mut self) -> Netbuf {
        let mut nb = take_or_alloc(&mut self.pool);
        nb.reset(0);
        nb
    }

    /// Processes received frames in bursts and flushes replies once.
    /// Returns the number of frames handled.
    ///
    /// This is the per-burst sweep of the burst datapath: each
    /// `rx_burst` batch is fully decoded and demultiplexed (replies
    /// and ACKs *staging*, not flushing — next-hop MACs come from the
    /// next-hop memo), and only after the ring runs dry does the
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
        while let Ok(st) = self.dev.rx_burst(0, &mut frames, MAX_BURST) {
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
            self.conns.assert_deadlines_armed();
        }
        self.counts.add(row::pump_sweeps, 1);
        if let Some(t0) = sweep_start {
            self.gauges.pump_ns.record(t0.elapsed().as_nanos() as u64);
        }
        // The high-water mark can only rise when the pool's low-water
        // mark fell, which most sweeps do not cause; every growth of the
        // pool's built set lowers it too.
        if self.pool.low_water() != self.pool_low_water_seen {
            self.pool_low_water_seen = self.pool.low_water();
            self.gauges.pool_inflight_hiwater
                .set_max((self.pool.capacity() - self.pool.low_water()) as u64);
            self.gauges.pool_built.set_max(self.pool.built() as u64);
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
    pub(crate) fn deliver_burst(&mut self, frames: &mut Vec<Netbuf>) -> BurstStats {
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
    /// `deliver_burst`.
    pub fn deliver_frame(&mut self, nb: Netbuf) {
        let mut scratch = std::mem::take(&mut self.inject_scratch);
        scratch.push(nb);
        self.deliver_burst(&mut scratch);
        self.inject_scratch = scratch;
    }
}
