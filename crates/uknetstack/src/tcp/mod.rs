//! TCP: a compact connection state machine over real packets — and
//! over a *lossy* wire. Three-way handshake, sequence/ack tracking, MSS
//! segmentation, PSH data delivery, FIN teardown, RST on unexpected
//! segments, and a loss-recovery suite that survives arbitrary
//! drop/dup/reorder fault schedules with byte-identical delivery.
//!
//! A [`Tcb`] is made of parts that own their state: each is a type
//! whose fields only its own module can touch, so each invariant has
//! one file it can be broken in and that module's tests to hold it.
//!
//! | part | state | invariant | grounding |
//! |---|---|---|---|
//! | `wire` | none: the `TcpFlags` / `TcpHeader` / `TcpOptions` codec | `emit` ≡ `encode`, byte for byte; a malformed option ends the walk, not the segment | RFC 793, RFC 2018 |
//! | `rto::Rto` | SRTT, RTTVAR, the timeout, its back-off, the flight being timed | timeout ∈ [`RTO_MIN_NS`, `RTO_MAX_NS`]; no sample across a retransmission | RFC 6298, Karn |
//! | `cc::NewReno` | `cwnd`, `ssthresh`, the MSS they count in | 2·MSS floors, growth stops at 4·`SND_BUF_CAP` | RFC 5681, RFC 6582 |
//! | `scoreboard::Scoreboard` | SACKed ranges | sorted, disjoint, ≤ `MAX_SACKED_RANGES` | RFC 2018, RFC 6675 |
//! | `reasm::Reassembly` | out-of-order extents, the SACK / D-SACK report owed | sorted, overlap-trimmed, ≤ `OOO_QUEUE_BUFS` / `OOO_QUEUE_BYTES` | RFC 2018, RFC 2883 |
//!
//! What is left is `Tcb`'s own — sequence space, the send, receive and
//! retransmission queues (each holds the pooled buffers the bytes were
//! written into or arrived in; nothing is copied in between), ACK
//! flags, deadlines, lifecycle — and its `impl` is divided by job:
//! `ingest` (segments in, the application's reads), `ack` (what an
//! acknowledgement does to the sender), `recovery` (retransmission
//! queue, RTO, RACK-TLP, hole-walk), `output` (the application's
//! writes, the output poll, the ACK policy), `timers` (the deadlines).
//!
//! # The owner's side
//!
//! A [`Tcb`] knows nothing of timer queues, registries or pools. Its owner
//! (`NetStack`, or a test) hands it one [`TcbConfig`] at creation,
//! tells it the time ([`Tcb::set_now`]), wakes it when its earliest
//! deadline has passed ([`Tcb::next_deadline`] / [`Tcb::on_time`]; the
//! four [`TcbTimer`]s behind them are the TCB's own business), and
//! reads what happened off one [`TcbStats`] ([`Tcb::stats`]) —
//! `crates/uknetstack/README.md`, "Time" and "The TCB seam".

mod ack;
mod cc;
mod ingest;
mod output;
mod reasm;
mod recovery;
mod rto;
mod scoreboard;
#[cfg(test)]
mod tests;
mod timers;
mod wire;

use std::collections::VecDeque;

use uknetdev::netbuf::Netbuf;

use self::reasm::Reassembly;
use self::{cc::NewReno, rto::Rto, scoreboard::Scoreboard};
pub use self::{timers::TcbTimer, wire::*};

/// Send-buffer capacity: bytes the application may queue beyond what the
/// peer's receive window has admitted. `app_send` accepts partial writes
/// against this cap, like a non-blocking `send(2)`.
pub(crate) const SND_BUF_CAP: usize = 64 * 1024;
/// Storage/headroom shape of the buffers [`Tcb::app_send`] allocates
/// when no pool-backed supplier is given (mirrors the stack's TX
/// buffers).
const SEND_BUF_SHAPE: (usize, usize) = (2048, 64);
/// Receive-buffer capacity; also the largest window we advertise (the
/// field is 16 bits without window scaling).
pub const RCV_BUF_CAP: usize = 65_535;
/// Longest the ACK of in-order data is held for a data segment to
/// carry it (RFC 1122 §4.2.3.2 caps the delay at 500 ms; 40 ms matches
/// Linux's default quick timeout) — see the ACK policy on
/// `Tcb::poll_output_chain_with`.
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
const FINWAIT2_TIMEOUT_NS: u64 = 3_000_000_000;
/// Keepalive: idle time on an established connection before the first
/// probe is sent.
pub const KEEPALIVE_IDLE_NS: u64 = 5_000_000_000;
/// Keepalive: spacing between unanswered probes.
pub const KEEPALIVE_INTVL_NS: u64 = 1_000_000_000;
/// Keepalive: unanswered probes before the peer is declared dead and
/// the connection closed.
pub const KEEPALIVE_PROBES: u32 = 3;

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
/// path uses `Tcb::poll_output_chain_with`, which hands out the
/// payload as the send queue's own pooled buffers, moved into the
/// outgoing frame chain without a copy.
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- what the public `Tcb::poll_output` returns:
// callers read its fields, none has to name the type
pub struct OutSegment {
    /// Header to send.
    pub header: TcpHeader,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// A TCB's cumulative event counters, read whole through
/// [`Tcb::stats`]. The stack publishes what moved since it last looked
/// under `netstack.tcp.*` (the table in `stack/stats.rs` names the counter
/// and tracepoint of each field). Per connection they are `u32`s, as
/// in `tcp_info`; the registry sums them in `u64`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcbStats {
    /// Immediate duplicate ACKs sent for dropped (old, out-of-order,
    /// out-of-window) ingest data: at most one per output poll, however
    /// many such segments the sweep before it carried.
    pub dup_acks: u32,
    /// Retransmission-timeout fires.
    pub rto_fires: u32,
    /// Segments re-emitted: data, SYN, SYN-ACK and FIN retransmissions.
    pub retransmits: u32,
    /// Loss episodes opened short of a timeout (an expired RACK
    /// reordering window).
    pub fast_retransmits: u32,
    /// Extents filed into the reassembly queue.
    pub ooo_queued: u32,
    /// Scoreboard-driven retransmissions of holes beyond the first.
    pub sack_rtx: u32,
    /// Spurious retransmissions the peer reported via D-SACK.
    pub spurious_rtx: u32,
    /// Tail-loss probes fired in place of a full RTO.
    pub tlp_probes: u32,
    /// Reassembly-queue extents shed under pool pressure.
    pub ooo_shed: u32,
    /// Held ACKs that sat out their whole hold time.
    pub delack_fires: u32,
    /// ACKs that rode a data segment out instead of leaving alone.
    pub acks_piggybacked: u32,
    /// Window updates sent because a drain reopened the receive window
    /// (rule (c) of the ACK policy).
    pub window_updates_tx: u32,
    /// Entries into TIME_WAIT (at most one per connection).
    pub timewait: u32,
    /// Keepalive probes sent.
    pub keepalive_probes: u32,
    /// Closes by keepalive dead-peer detection (at most one per
    /// connection).
    pub keepalive_drops: u32,
}

/// Everything the owner decides about a TCB, handed over once by
/// [`Tcb::configure`]. Loss recovery is not among it: every TCB runs
/// NewReno (RFC 5681 / RFC 6582) with RACK-TLP (RFC 8985), unpaced.
/// The default is a raw TCB: full MSS, no SACK, no keepalive. The
/// stack fills it from the `StackConfig` fields of the same names,
/// which say what each buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcbConfig {
    /// Maximum segment size for software segmentation (and the cut
    /// size a GSO super-segment requests); must not be zero.
    pub mss: usize,
    /// This side generates and consumes SACK blocks — once the peer's
    /// SYN also carried SACK-permitted.
    pub sack: bool,
    /// An idle established connection probes its peer and closes when
    /// [`KEEPALIVE_PROBES`] go unanswered.
    pub keepalive: bool,
}

impl Default for TcbConfig {
    fn default() -> Self {
        TcbConfig { mss: MSS, sack: false, keepalive: false }
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
    /// The retransmission-timeout estimator: how long
    /// `rtx_deadline_ns` is armed for.
    rto: Rto,
    /// Armed retransmission/persist deadline, if anything is
    /// outstanding.
    rtx_deadline_ns: Option<u64>,
    /// A zero-window probe is due at the next output poll (persist
    /// timer fired).
    probe_pending: bool,
    /// Consecutive duplicate ACKs received (fast-retransmit trigger).
    dup_ack_rx: u32,
    /// Whether NewReno fast recovery is active.
    in_recovery: bool,
    /// NewReno recovery point: `snd_nxt` when recovery was entered.
    recover: u32,
    /// The congestion window that bounds emission beside `snd_wnd`.
    cc: NewReno,
    /// An immediate duplicate ACK is owed; the next output poll emits
    /// exactly one pure ACK for it, however many gapped segments the
    /// sweep carried (dup-ACK coalescing).
    dup_ack_now: bool,
    /// Out-of-order extents waiting for a hole to fill, and the
    /// SACK/D-SACK report the next pure ACK owes the peer.
    reasm: Reassembly,
    /// Deadline of the ACK being held (the stack's timer queue wakes the
    /// connection at it when it is the earliest).
    ack_deadline_ns: Option<u64>,
    /// Peer announced SACK-permitted on its SYN/SYN-ACK.
    peer_sack_ok: bool,
    /// What the peer's SACK blocks say it holds above `snd_una`.
    scoreboard: Scoreboard,
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

/// `a <= b` in sequence space.
fn seq_le(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) as i32 >= 0
}

/// `a < b` in sequence space.
fn seq_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
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

    // ukcheck: allow(alloc) -- every queue starts empty, which touches
    // no heap: a TCB holds only what its traffic has grown
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
            send_q: VecDeque::new(),
            send_q_len: 0,
            recv_q: VecDeque::new(),
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
            rtx_q: VecDeque::new(),
            rtx_released: Vec::new(),
            rtx_request: false,
            now_ns: 0,
            rto: Rto::new(),
            rtx_deadline_ns: None,
            probe_pending: false,
            dup_ack_rx: 0,
            in_recovery: false,
            recover: iss,
            cc: NewReno::new(),
            dup_ack_now: false,
            reasm: Reassembly::new(),
            ack_deadline_ns: None,
            peer_sack_ok: false,
            scoreboard: Scoreboard::new(),
            reo_deadline_ns: None,
            tlp_deadline_ns: None,
            tlp_pending: false,
            tlp_consumed: false,
            life_deadline_ns: None,
            life_state: TcpState::Closed,
            last_activity_ns: 0,
            ka_probes: 0,
            timed_out: None,
        }
    }

    /// Hands the owner's decisions to a TCB, once, at creation (the
    /// stack's `configure_tcb` is the one production caller).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.mss` is zero.
    pub fn configure(&mut self, cfg: TcbConfig) {
        assert!(cfg.mss > 0, "zero mss");
        self.cfg = cfg;
        self.cc.configure(cfg.mss);
    }

    /// The cumulative event counters, as of now.
    pub fn stats(&self) -> &TcbStats {
        &self.stats
    }

    /// Current congestion window in bytes (exported as the
    /// `netstack.tcp.cwnd` gauge).
    pub fn cwnd(&self) -> usize {
        self.cc.cwnd()
    }

    /// The sender scoreboard: disjoint ascending SACKed ranges above
    /// `snd_una` (diagnostics; the proptests compare this against a
    /// per-byte bitmap reference).
    pub fn sacked_ranges(&self) -> &[(u32, u32)] {
        self.scoreboard.ranges()
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

    /// Recycles **every** pooled buffer the TCB holds — send queue,
    /// receive queue, and the recovery queues — and clears the armed
    /// deadlines. The stack's reaper calls this — after a protocol
    /// timeout, a closed connection's linger or a SYN-queue eviction —
    /// so a torn-down connection returns its memory to the pools in
    /// full.
    pub(crate) fn drain_all_buffers<R: FnMut(Netbuf)>(&mut self, mut recycle: R) {
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

    /// Starts an orderly close once the send buffer drains.
    pub fn app_close(&mut self) {
        self.closing = true;
    }

    /// Bytes sent but not yet acknowledged.
    fn bytes_in_flight(&self) -> u32 {
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
    pub(crate) fn window_closed(&self) -> bool {
        self.bytes_in_flight() >= self.snd_wnd
    }

    /// Whether SACK is in force: this side is configured for it and the
    /// peer's SYN carried SACK-permitted. The receiver reports blocks,
    /// and the sender reads and walks them, only then.
    fn sack_in_force(&self) -> bool {
        self.cfg.sack && self.peer_sack_ok
    }

    /// The local port.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// The remote port (0 while listening).
    #[cfg(test)]
    pub(crate) fn remote_port(&self) -> u16 {
        self.remote_port
    }
}
