//! Wire-level tests of the ACK policy (`Tcb::poll_output_chain_with`):
//! what crosses the testnet, and when, for each of its rules.
//!
//! Every scenario captures the wire and reads the conversation back
//! frame by frame, so the assertions are about what a peer observes —
//! which segment carried the ACK and on which step — not about the
//! stack's own counters. Every stack has a clock, so the policy is in
//! force on all of them; the last tests leave the clock to its owner's
//! default, or change it mid-way.

use uknetstack::eth::EthHeader;
use uknetstack::ipv4::Ipv4Header;
use uknetstack::stack::SocketHandle;
use uknetstack::tcp::{TcpHeader, DELACK_NS, RCV_BUF_CAP};
use uknetstack::testnet::{node, Network};
use uknetstack::{Endpoint, Ipv4Addr};
use ukplat::time::Tsc;

const CLIENT: usize = 0;
const SERVER: usize = 1;
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const MS: u64 = 1_000_000;

/// Two connected stacks — on a clock of the test's own advancing
/// `step_ns` per step, or on the wire's — with the wire capture running
/// from after the handshake.
fn connected(clock_step_ns: Option<u64>, tso: bool) -> (Network, SocketHandle, SocketHandle) {
    let mut net = Network::new();
    net.attach(node(1, |c| c.tso = tso));
    net.attach(node(2, |c| c.tso = tso));
    if let Some(step_ns) = clock_step_ns {
        net.set_clock(&Tsc::new(1_000_000_000)); // 1 cycle = 1 ns.
        net.set_step_ns(step_ns);
    }
    let listener = net.stack(SERVER).tcp_listen(7).unwrap();
    let client = net
        .stack(CLIENT)
        .tcp_connect(Endpoint::new(SERVER_IP, 7))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(SERVER).tcp_accept(listener).unwrap();
    net.start_wire_capture();
    (net, client, server)
}

/// One captured TCP segment.
#[derive(Debug, Clone, Copy)]
struct Seg {
    from_server: bool,
    h: TcpHeader,
    payload: usize,
}

impl Seg {
    /// Acknowledges, carries nothing and changes no state.
    fn is_pure_ack(&self) -> bool {
        let f = self.h.flags;
        self.payload == 0 && f.ack && !(f.syn || f.fin || f.rst)
    }
}

/// Steps once and returns the TCP segments that crossed the wire on
/// that step (a segment a pump emits crosses on the *next* step).
fn step(net: &mut Network) -> Vec<Seg> {
    net.step();
    net.take_wire_capture()
        .iter()
        .filter_map(|frame| {
            let (_, rest) = EthHeader::decode(frame).ok()?;
            let (ip, seg) = Ipv4Header::decode_trusted(rest).ok()?;
            let (h, payload) = TcpHeader::decode_trusted(&ip, seg).ok()?;
            Some(Seg {
                from_server: ip.src == SERVER_IP,
                h,
                payload: payload.len(),
            })
        })
        .collect()
}

/// One echo round trip, returning every segment it put on the wire.
fn echo(net: &mut Network, client: SocketHandle, server: SocketHandle, msg: &[u8]) -> Vec<Seg> {
    let mut buf = [0u8; 256];
    net.stack(CLIENT).tcp_send(client, msg).unwrap();
    let mut wire = step(net);
    let n = net.stack(SERVER).tcp_recv_into(server, &mut buf).unwrap();
    assert_eq!(&buf[..n], msg, "request arrived");
    net.stack(SERVER).tcp_send(server, &buf[..n]).unwrap();
    wire.extend(step(net));
    let n = net.stack(CLIENT).tcp_recv_into(client, &mut buf).unwrap();
    assert_eq!(&buf[..n], msg, "echo arrived");
    wire
}

/// `(acks_piggybacked, delack_fires, tcp_pure_acks_tx)`, both ends
/// together.
fn ack_counts(net: &mut Network) -> (u64, u64, u64) {
    let (c, s) = (net.stack(CLIENT).stats(), net.stack(SERVER).stats());
    (
        c.acks_piggybacked + s.acks_piggybacked,
        c.delack_fires + s.delack_fires,
        c.tcp_pure_acks_tx + s.tcp_pure_acks_tx,
    )
}

/// The tentpole: a request/response exchange is two frames, the reply
/// carrying the request's ACK and the next request carrying the
/// reply's. Four at the parent commit, where each side's pump flushed
/// a pure ACK before its application could answer.
#[test]
fn echo_round_trip_is_two_frames_and_no_pure_ack() {
    let (mut net, client, server) = connected(Some(1_000), true);
    let base = ack_counts(&mut net);
    const ROUNDS: usize = 8;
    for i in 0..ROUNDS {
        let msg = [i as u8; 64];
        let wire = echo(&mut net, client, server, &msg);
        assert_eq!(wire.len(), 2, "round {i}: request and reply, nothing else: {wire:?}");
        assert!(
            wire.iter().all(|s| s.payload == 64),
            "round {i}: both frames carry data: {wire:?}"
        );
    }
    // Only the last echo's ACK has no reply to ride: it leaves alone
    // when the hold timer fires, which `run_until_quiet` waits out.
    net.run_until_quiet(8);
    let tail = step(&mut net);
    assert_eq!(tail.len(), 1, "{tail:?}");
    assert!(!tail[0].from_server && tail[0].is_pure_ack(), "{tail:?}");
    let now = ack_counts(&mut net);
    assert_eq!(now.0 - base.0, 2 * ROUNDS as u64 - 1, "every ACK but the last rode data");
    assert_eq!(now.1 - base.1, 1, "the last one sat out its hold");
    assert_eq!(now.2 - base.2, 1, "and left alone");
}

/// Rule (e) and the sender's side of the bargain: a lone segment to a
/// silent peer is acknowledged by exactly one pure ACK when the hold
/// timer fires, `DELACK_NS` after it arrived — and the sender, whose
/// tail-loss probe would otherwise be due after two (2 ms) round
/// trips, neither probes nor retransmits meanwhile.
#[test]
fn lone_segment_is_acked_once_at_the_hold_deadline() {
    let (mut net, client, server) = connected(Some(MS), true);
    // Seed the sender's RTT estimate, so its probe timeout is the
    // short 2·SRTT form the allowance exists for.
    for _ in 0..4 {
        echo(&mut net, client, server, b"warm-up");
    }
    net.run_until_quiet(8);
    net.take_wire_capture();
    #[cfg(feature = "trace")]
    net.stack(SERVER).trace_events();

    net.stack(CLIENT).tcp_send(client, &[7u8; 100]).unwrap();
    let data = step(&mut net);
    assert_eq!(data.len(), 1, "the segment crossed: {data:?}");
    let acked_at = (1..=300)
        .map(|i| (i, step(&mut net)))
        .filter(|(_, wire)| !wire.is_empty())
        .collect::<Vec<_>>();
    // The server's pump saw the data on the step it crossed, held the
    // ACK for 40 steps of 1 ms, released it from the pump of the 40th
    // and the wire carried it on the 41st.
    assert_eq!(acked_at.len(), 1, "one frame in 300 ms: {acked_at:?}");
    let (when, wire) = &acked_at[0];
    assert_eq!(*when as u64, DELACK_NS / MS + 1, "released at the deadline");
    assert_eq!(wire.len(), 1);
    assert!(wire[0].from_server && wire[0].is_pure_ack(), "a pure ACK: {wire:?}");
    let s = net.stack(CLIENT).tcp_stats(client).unwrap();
    let (rto, rtx, fast, tlp) = (s.rto_fires, s.retransmits, s.fast_retransmits, s.tlp_probes);
    assert_eq!((rto, rtx, fast, tlp), (0, 0, 0, 0), "the sender waited it out");
    #[cfg(feature = "trace")]
    {
        let fired = net.stack(SERVER).trace_events();
        let fires = fired.iter().filter(|e| e.name() == "tcp_delack_fire").count();
        assert_eq!(fires, 1, "the release is traced");
    }
    let mut buf = [0u8; 128];
    assert_eq!(net.stack(SERVER).tcp_recv_into(server, &mut buf).unwrap(), 100);
}

/// Rules (a) and (c) on the bulk path — the `tcp-bulk` stall, as a
/// test. The clock never moves (`step_ns = 0`), so a hold timer can
/// never fire: a one-way 1 MiB stream completes only if no ACK the
/// sender is waiting for is ever held. A flight above one MSS is
/// acknowledged at once, and the window-limited tail that fits one
/// MSS is answered by the window update its drain triggers.
#[test]
fn one_way_bulk_never_waits_on_the_hold_timer() {
    let (mut net, client, server) = connected(Some(0), true);
    const TOTAL: usize = 1 << 20;
    let data: Vec<u8> = (0..TOTAL as u32).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
    let mut buf = vec![0u8; 64 * 1024];
    let (mut sent, mut got) = (0, Vec::with_capacity(TOTAL));
    let (mut idle, mut worst_idle, mut turns) = (0, 0, 0);
    while got.len() < TOTAL {
        turns += 1;
        assert!(turns < 2_000, "stalled at {} of {TOTAL} bytes", got.len());
        if sent < TOTAL {
            let end = TOTAL.min(sent + 64 * 1024);
            sent += net
                .stack(CLIENT)
                .tcp_send_queued(client, &data[sent..end])
                .unwrap_or(0);
            net.stack(CLIENT).flush_output().unwrap();
        }
        net.step();
        let before = got.len();
        loop {
            let n = net.stack(SERVER).tcp_recv_into(server, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        idle = if got.len() == before { idle + 1 } else { 0 };
        worst_idle = worst_idle.max(idle);
    }
    assert_eq!(got, data, "stream intact");
    // A window-limited sender idles while its ACK is in flight back to
    // it: one turn for the ACK to cross, one for the data it releases.
    assert!(worst_idle <= 2, "no turn waited on a timer ({worst_idle} idle turns in a row)");
    assert!(net.stack(CLIENT).stats().tso_super_frames > 0, "rode the TSO path");
    net.run_until_quiet(16);
    assert_eq!(net.stack(CLIENT).pool_available(), Some(512), "client pool whole");
    assert_eq!(net.stack(SERVER).pool_available(), Some(512), "server pool whole");
}

/// Rule (c): a drain that moves the right edge by two segments or more
/// is announced even though the window last advertised was not zero;
/// a smaller one is not worth a frame.
#[test]
fn drain_from_a_nonzero_window_sends_a_window_update() {
    let (mut net, client, server) = connected(Some(MS), true);
    const SENT: usize = 10_000; // Inside the initial congestion window.
    net.stack(CLIENT).tcp_send(client, &[9u8; SENT]).unwrap();
    step(&mut net);
    // Well above one MSS: acknowledged at once, with the window the
    // undrained bytes leave.
    let acks = step(&mut net);
    assert_eq!(acks.len(), 1, "{acks:?}");
    assert!(acks[0].from_server && acks[0].is_pure_ack());
    assert_eq!(acks[0].h.window as usize, RCV_BUF_CAP - SENT, "a non-zero window");

    let mut small = [0u8; 1_000];
    assert_eq!(net.stack(SERVER).tcp_recv_into(server, &mut small).unwrap(), 1_000);
    let wire = step(&mut net);
    assert!(wire.is_empty(), "1000 B is under the 2·MSS threshold: {wire:?}");

    let mut rest = vec![0u8; SENT];
    assert_eq!(net.stack(SERVER).tcp_recv_into(server, &mut rest).unwrap(), SENT - 1_000);
    let wire = step(&mut net);
    assert_eq!(wire.len(), 1, "the update left with the drain: {wire:?}");
    assert!(wire[0].from_server && wire[0].is_pure_ack());
    assert_eq!(wire[0].h.window as usize, RCV_BUF_CAP, "the whole window is back");
    assert_eq!(wire[0].h.ack, acks[0].h.ack, "same cumulative position");
    let s = net.stack(CLIENT).tcp_stats(client).unwrap();
    let (rtx, fast) = (s.retransmits, s.fast_retransmits);
    assert_eq!((rtx, fast), (0, 0), "a window update is no duplicate ACK");
}

/// Rules (b) and (d): out-of-order data, the segment that fills the
/// hole, and a FIN are each acknowledged on the very next step, though
/// every one of them is far below one MSS and would otherwise be held.
#[test]
fn hole_touching_segments_and_fin_are_acked_at_once() {
    let (mut net, client, server) = connected(Some(MS), false);
    // The first segment is lost on the wire…
    net.set_drop_every(1);
    net.stack(CLIENT).tcp_send(client, &[1u8; 100]).unwrap();
    let lost = step(&mut net);
    assert_eq!(lost.len(), 1, "{lost:?}");
    let hole = lost[0].h.seq;
    net.set_drop_every(0);
    // …so the second arrives ahead of the hole: a duplicate ACK at
    // once (rule b, reassembly queue non-empty).
    net.stack(CLIENT).tcp_send(client, &[2u8; 100]).unwrap();
    step(&mut net);
    let wire = step(&mut net);
    assert_eq!(wire.len(), 1, "{wire:?}");
    assert!(wire[0].from_server && wire[0].is_pure_ack());
    assert_eq!(wire[0].h.ack, hole, "still asking for the hole");
    // The sender's loss detection (RACK's reordering window, here)
    // retransmits the hole; the segment that fills it is acknowledged
    // on the step after it crosses (rule b, a hole was closed).
    let mut filled_at = None;
    for i in 0..100 {
        let wire = step(&mut net);
        if let Some(at) = filled_at {
            assert_eq!(i, at + 1);
            assert_eq!(wire.len(), 1, "{wire:?}");
            assert!(wire[0].from_server && wire[0].is_pure_ack());
            assert_eq!(wire[0].h.ack, hole.wrapping_add(200), "both segments acknowledged");
            break;
        }
        if wire.iter().any(|s| !s.from_server && s.h.seq == hole && s.payload == 100) {
            filled_at = Some(i);
        }
    }
    assert!(filled_at.is_some(), "the hole was retransmitted");
    let mut buf = [0u8; 256];
    assert_eq!(net.stack(SERVER).tcp_recv_into(server, &mut buf).unwrap(), 200);
    // A FIN takes the connection out of `Established` (rule d).
    net.stack(CLIENT).tcp_close(client).unwrap();
    let fin = step(&mut net);
    assert!(fin.iter().any(|s| s.h.flags.fin), "{fin:?}");
    let wire = step(&mut net);
    assert_eq!(wire.len(), 1, "{wire:?}");
    assert!(wire[0].from_server && wire[0].is_pure_ack());
    assert_eq!(wire[0].h.ack, hole.wrapping_add(201), "the FIN is acknowledged");
}

/// Nobody calls `set_clock`: the stacks were built by `NetStack::new`
/// and attached to a `Network::new()`, whose clock they run on. The
/// policy is the same one — the lone segment's ACK is held, not sent at
/// the flush — and `run_until_quiet` skips that clock to the deadline.
#[test]
fn a_stack_nobody_clocked_holds_its_ack_and_run_until_quiet_releases_it() {
    let (mut net, client, server) = connected(None, true);
    net.stack(CLIENT).tcp_send(client, &[3u8; 64]).unwrap();
    let data = step(&mut net);
    assert_eq!(data.len(), 1, "{data:?}");
    assert!(step(&mut net).is_empty(), "no ACK at the flush: it is held");
    assert_eq!(net.stack(SERVER).held_ack_deadline(), Some(DELACK_NS), "from time 0");
    // One idle round to notice, one to skip ahead and fire, one for
    // the ACK to cross.
    net.run_until_quiet(8);
    let wire = net.take_wire_capture();
    assert_eq!(wire.len(), 1, "one frame: the released ACK");
    assert_eq!(net.stack(SERVER).stats().delack_fires, 1);
    assert_eq!(net.stack(SERVER).held_ack_deadline(), None);
    let s = net.stack(CLIENT).tcp_stats(client).unwrap();
    assert_eq!((s.retransmits, s.rto_fires, s.tlp_probes), (0, 0, 0), "40 ms is inside every timeout");
    let mut buf = [0u8; 64];
    assert_eq!(net.stack(SERVER).tcp_recv_into(server, &mut buf).unwrap(), 64);
}

/// Which clock a stack runs on does not depend on the order things were
/// set up in: the one set last is the one its connections — open
/// already or not — release a held ACK on, `DELACK_NS` after the
/// segment arrived.
#[test]
fn the_clock_set_last_is_the_one_that_counts() {
    #[derive(Debug, Clone, Copy)]
    enum Order {
        AttachThenSetClock,
        SetClockThenAttach,
        ConnectThenSetClock,
    }
    for order in [Order::AttachThenSetClock, Order::SetClockThenAttach, Order::ConnectThenSetClock] {
        let clock = Tsc::new(1_000_000_000);
        let mut net = Network::new();
        if let Order::SetClockThenAttach = order {
            net.set_clock(&clock);
        }
        net.attach(node(1, |_| {}));
        net.attach(node(2, |_| {}));
        if let Order::AttachThenSetClock = order {
            net.set_clock(&clock);
        }
        let listener = net.stack(SERVER).tcp_listen(7).unwrap();
        let client = net.stack(CLIENT).tcp_connect(Endpoint::new(SERVER_IP, 7)).unwrap();
        net.run_until_quiet(32);
        let server = net.stack(SERVER).tcp_accept(listener).unwrap();
        if let Order::ConnectThenSetClock = order {
            // Each stack on its own, as an embedder would.
            net.stack(CLIENT).set_clock(&clock);
            net.stack(SERVER).set_clock(&clock);
        }
        clock.advance_ns(7 * MS);
        net.stack(CLIENT).tcp_send(client, &[5u8; 64]).unwrap();
        net.step();
        assert_eq!(
            net.stack(SERVER).held_ack_deadline(),
            Some(7 * MS + DELACK_NS),
            "{order:?}: held on the test's clock"
        );
        clock.advance_ns(DELACK_NS - 1);
        net.step();
        assert_eq!(net.stack(SERVER).stats().delack_fires, 0, "{order:?}: not a nanosecond early");
        clock.advance_ns(1);
        net.step();
        assert_eq!(net.stack(SERVER).stats().delack_fires, 1, "{order:?}: released at the deadline");
        assert_eq!(net.stack(SERVER).held_ack_deadline(), None, "{order:?}");
        let mut buf = [0u8; 64];
        assert_eq!(net.stack(SERVER).tcp_recv_into(server, &mut buf).unwrap(), 64);
    }
}
