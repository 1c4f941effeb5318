//! Wire-level connection-lifecycle robustness tests: TIME_WAIT,
//! handshake timeouts, keepalive and accept-queue hardening, and the
//! one timer queue entry per connection that wakes them, keyed at its
//! exact deadline, proven through real stacks on the testnet wire with
//! forged attacker traffic.
//!
//! Every test ends with a leak check: after the dust settles, every
//! pooled buffer is back home and every reaped connection's slot and
//! timers are reclaimed. Robustness that leaks is not robustness.

use uknetstack::stack::{
    SocketHandle, StackConfig, HANDSHAKE_TIMEOUT_NS, KEEPALIVE_IDLE_NS,
    KEEPALIVE_INTVL_NS, KEEPALIVE_PROBES, TCP_MSL_NS,
};
use uknetstack::tcp::{TcpFlags, TcpState, DELACK_NS};
use uknetstack::testnet::{self, node, FaultPlan, Network};
use uknetstack::Endpoint;
use ukplat::time::Tsc;

const POOL: usize = 512;

/// The `ukstats` registry is process-global and libtest runs this
/// binary's tests on parallel threads, every one of them parking
/// connections and drawing RSTs. The tests that compare a registry
/// delta with an exact count take this lock exclusively; every other
/// test shares it.
static REGISTRY: std::sync::RwLock<()> = std::sync::RwLock::new(());

fn sharing_registry() -> std::sync::RwLockReadGuard<'static, ()> {
    REGISTRY.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn owning_registry() -> std::sync::RwLockWriteGuard<'static, ()> {
    REGISTRY.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A two-node net with a shared virtual clock advancing `step_ns` per
/// step — the substrate every lifecycle timer in these tests runs on.
fn clocked_net(step_ns: u64, tune: fn(&mut StackConfig)) -> Network {
    let mut net = Network::new();
    net.attach(node(1, tune));
    net.attach(node(2, tune));
    let tsc = Tsc::new(1_000_000_000); // 1 cycle = 1 ns.
    net.set_clock(&tsc);
    net.set_step_ns(step_ns);
    net
}

fn establish(net: &mut Network, port: u16) -> (SocketHandle, SocketHandle) {
    let listener = net.stack(1).tcp_listen(port).unwrap();
    let server_ip = net.stack(1).ip();
    let client = net
        .stack(0)
        .tcp_connect(Endpoint::new(server_ip, port))
        .unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(1).tcp_accept(listener).unwrap();
    (client, conn)
}

/// Steps the net `n` times regardless of wire traffic — lifecycle
/// timers fire on quiet nets, where `run_until_quiet` would stop.
fn tick(net: &mut Network, n: usize) {
    for _ in 0..n {
        net.step();
    }
}

/// A SYN flood ten times the listener's backlog leaves the accept
/// machinery standing: half-open state stays bounded at the backlog,
/// the overflow evicts oldest-first (visible in the counter), a
/// legitimate client still connects and moves data byte-identically
/// through the flood, a fresh one is accepted right after it, and
/// when the handshake timeout reaps the leftover half-opens every
/// buffer and timer is reclaimed.
#[test]
fn syn_flood_10x_backlog_is_survived_and_reclaimed() {
    let _registry = sharing_registry();
    let mut net = clocked_net(10_000_000, |c| c.listen_backlog = 16); // 10 ms steps.
    let backlog = 16;
    let listener = net.stack(1).tcp_listen(8080).unwrap();
    let server = Endpoint::new(net.stack(1).ip(), 8080);
    let client = net.stack(0).tcp_connect(server).unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(1).tcp_accept(listener).unwrap();
    let baseline_conns = net.stack(1).tcp_conn_count();
    let overflow0 = net.stack(1).stats().tcp_syn_overflow;

    // Flood from 160 distinct spoofed endpoints, interleaved with a
    // live transfer on the established connection.
    let blob: Vec<u8> = (0..64_000u32).map(|i| (i.wrapping_mul(17) % 251) as u8).collect();
    let mut got = Vec::new();
    let mut sent = 0;
    let mut flooded = 0;
    let mut buf = vec![0u8; 64 * 1024];
    for round in 0..4_000 {
        if flooded < 10 * backlog && round % 4 == 0 {
            net.syn_flood(1, 8080, flooded, 8, 8);
            flooded += 8;
        }
        if sent < blob.len() {
            sent += net.stack(0).tcp_send_queued(client, &blob[sent..]).unwrap_or(0);
            net.stack(0).flush_output().unwrap();
        }
        net.step();
        loop {
            let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        if got.len() == blob.len() && flooded >= 10 * backlog {
            break;
        }
    }
    assert_eq!(flooded, 10 * backlog, "the whole flood was delivered");
    assert_eq!(got, blob, "established stream byte-identical through the flood");

    // Half-open state never exceeded the backlog: established conns
    // plus at most `backlog` embryos.
    assert!(
        net.stack(1).tcp_conn_count() <= baseline_conns + backlog,
        "half-open connections bounded by the backlog ({} conns)",
        net.stack(1).tcp_conn_count()
    );
    let evicted = net.stack(1).stats().tcp_syn_overflow - overflow0;
    assert!(
        evicted >= (10 * backlog - backlog) as u64,
        "overflow evicted the excess embryos ({evicted} evictions)"
    );

    // A fresh client gets through the full SYN queue: its SYN evicts
    // the oldest embryo and its handshake completes.
    let late = net.stack(0).tcp_connect(server).unwrap();
    net.run_until_quiet(48);
    assert_eq!(net.stack(0).tcp_state(late), Some(TcpState::Established));
    assert!(
        net.stack(1).tcp_accept(listener).is_some(),
        "legitimate client accepted despite the flood"
    );

    // The handshake timeout reaps the surviving half-opens; every
    // evicted and reaped embryo's buffers are already home.
    tick(&mut net, (HANDSHAKE_TIMEOUT_NS / 10_000_000) as usize + 8);
    assert_eq!(
        net.stack(1).tcp_conn_count(),
        baseline_conns + 1,
        "all embryos reclaimed after the handshake timeout"
    );
    net.run_until_quiet(32);
    assert_eq!(net.stack(1).pool_available(), Some(POOL), "victim pool intact");
    assert_eq!(net.stack(0).pool_available(), Some(POOL), "client pool intact");
}

/// Forged SYNs that never complete are reaped by the SYN-RECEIVED
/// handshake timer: connection slots, timer queue entries and netbufs all
/// return to their pools.
#[test]
fn handshake_timeout_reclaims_half_open_connections() {
    let _registry = sharing_registry();
    let mut net = clocked_net(50_000_000, |_| {}); // 50 ms steps.
    net.stack(1).tcp_listen(9090).unwrap();
    net.syn_flood(1, 9090, 0, 8, 8);
    net.run_until_quiet(8);
    assert_eq!(net.stack(1).tcp_conn_count(), 8, "eight embryos parked");
    assert!(net.stack(1).armed_timer_count() > 0, "lifecycle timers armed");

    tick(&mut net, (HANDSHAKE_TIMEOUT_NS / 50_000_000) as usize + 4);
    assert_eq!(net.stack(1).tcp_conn_count(), 0, "every embryo reaped");
    assert_eq!(net.stack(1).armed_timer_count(), 0, "every timer cancelled");
    net.run_until_quiet(16);
    assert_eq!(net.stack(1).pool_available(), Some(POOL), "no netbuf leaked");
}

/// A segment with no matching flow and no listener draws a correctly
/// formed RST (visible in `netstack.tcp.rst_tx`); an RST aimed at a
/// listening port is dropped silently — it neither wedges the listener
/// nor triggers an RST battle.
#[test]
fn stray_segments_draw_rst_and_rst_to_listener_is_ignored() {
    let _registry = owning_registry();
    let mut net = clocked_net(1_000_000, |_| {});
    let rst0 = net.stack(1).stats().tcp_rst_tx;
    let (ep, mac) = Network::spoofed_peer(1);
    net.inject_arp_reply(1, ep.addr, mac);

    // A stray ACK into port space nobody owns: answered with RST.
    let ack = TcpFlags { ack: true, ..TcpFlags::default() };
    net.inject_tcp(1, ep, mac, 7777, ack, 0x42, 0x43);
    net.run_until_quiet(8);
    assert_eq!(net.stack(1).stats().tcp_rst_tx - rst0, 1, "demux miss answered with RST");

    // An RST at a listening port: dropped, never answered, and the
    // listener still accepts a real handshake afterwards.
    net.stack(1).tcp_listen(8088).unwrap();
    let rst_before = net.stack(1).stats().tcp_rst_tx;
    let rst = TcpFlags { rst: true, ..TcpFlags::default() };
    net.inject_tcp(1, ep, mac, 8088, rst, 0x1000, 0);
    net.run_until_quiet(8);
    assert_eq!(net.stack(1).stats().tcp_rst_tx, rst_before, "no RST answers an RST");
    assert_eq!(net.stack(1).tcp_conn_count(), 0, "the RST spawned no embryo");
    let server_ip = net.stack(1).ip();
    let client = net
        .stack(0)
        .tcp_connect(Endpoint::new(server_ip, 8088))
        .unwrap();
    net.run_until_quiet(32);
    assert_eq!(
        net.stack(0).tcp_state(client),
        Some(TcpState::Established),
        "listener survived the forged RST"
    );
    net.run_until_quiet(16);
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// The full close handshake parks the active closer in TIME_WAIT for
/// 2 MSL, after which the slot, its port and its timers are recycled —
/// and a fresh connection to the same server port succeeds.
#[test]
fn time_wait_holds_2msl_then_recycles_the_port() {
    let _registry = owning_registry();
    let mut net = clocked_net(10_000_000, |_| {}); // 10 ms steps.
    let (client, conn) = establish(&mut net, 8090);
    let tw0 = net.stack(0).stats().timewait;

    // Active close from the client, passive close from the server.
    net.stack(0).tcp_close(client).unwrap();
    net.run_until_quiet(32);
    assert!(net.stack(1).tcp_peer_closed(conn));
    net.stack(1).tcp_close(conn).unwrap();
    net.run_until_quiet(32);
    assert_eq!(
        net.stack(0).tcp_state(client),
        Some(TcpState::TimeWait),
        "active closer holds TIME_WAIT"
    );
    assert_eq!(net.stack(0).stats().timewait - tw0, 1);

    // 2 MSL later the timer queue reaps it; the passive side's Closed slot
    // is reclaimed too once its receive queue is drained.
    tick(&mut net, (2 * TCP_MSL_NS / 10_000_000) as usize + 4);
    assert_eq!(net.stack(0).tcp_state(client), None, "TIME_WAIT expired");
    assert_eq!(net.stack(0).tcp_conn_count(), 0);
    assert_eq!(net.stack(1).tcp_conn_count(), 0, "passive closer reclaimed");
    assert_eq!(net.stack(0).armed_timer_count(), 0);

    // The four-tuple is free again: a new connection to the same
    // server port establishes and moves data.
    let server_ip = net.stack(1).ip();
    let client2 = net
        .stack(0)
        .tcp_connect(Endpoint::new(server_ip, 8090))
        .unwrap();
    net.run_until_quiet(32);
    assert_eq!(net.stack(0).tcp_state(client2), Some(TcpState::Established));
    net.run_until_quiet(16);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// Keepalive probes detect a peer that went silent: after the idle
/// threshold the prober sends its probes, and when every one goes
/// unanswered the connection is torn down (`keepalive_drops`) with
/// all resources reclaimed.
#[test]
fn keepalive_reaps_a_dead_peer() {
    let _registry = sharing_registry();
    let mut net = clocked_net(100_000_000, |c| c.keepalive = true); // 100 ms steps.
    let (client, _conn) = establish(&mut net, 8070);
    let drops0 = net.stack(0).stats().keepalive_drops;

    // The wire goes dark: every frame in either direction is eaten.
    net.set_plan(FaultPlan { drop: 1, ..FaultPlan::default() });
    let budget_ns = KEEPALIVE_IDLE_NS + (KEEPALIVE_PROBES as u64 + 2) * KEEPALIVE_INTVL_NS;
    tick(&mut net, (budget_ns / 100_000_000) as usize + 8);

    assert_eq!(
        net.stack(0).tcp_state(client),
        None,
        "unanswered probes tore the connection down"
    );
    assert_eq!(net.stack(0).tcp_conn_count(), 0);
    assert_eq!(net.stack(0).armed_timer_count(), 0);
    assert!(
        net.stack(0).stats().keepalive_drops - drops0 >= 1,
        "the teardown is visible in the prober's stats"
    );
    net.set_plan(FaultPlan::default());
    net.run_until_quiet(32);
    assert_eq!(net.stack(0).pool_available(), Some(POOL), "prober pool intact");
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// A live peer answers the probes and the connection stays up — the
/// keepalive machinery only kills what is actually dead.
#[test]
fn keepalive_leaves_a_live_peer_alone() {
    let _registry = sharing_registry();
    let mut net = clocked_net(100_000_000, |c| c.keepalive = true);
    let (client, conn) = establish(&mut net, 8071);
    let budget_ns = 2 * (KEEPALIVE_IDLE_NS + KEEPALIVE_PROBES as u64 * KEEPALIVE_INTVL_NS);
    tick(&mut net, (budget_ns / 100_000_000) as usize);
    assert_eq!(net.stack(0).tcp_state(client), Some(TcpState::Established));
    assert_eq!(net.stack(1).tcp_state(conn), Some(TcpState::Established));
    // And the connection still carries data after the long idle.
    net.stack(0).tcp_send(client, b"still here").unwrap();
    net.run_until_quiet(32);
    assert_eq!(testnet::tcp_recv(net.stack(1), conn, 64).unwrap(), b"still here");
}

/// Connection churn: repeated connect/transfer/close cycles against
/// one listener, each cycle waiting out TIME_WAIT. Slots, ports,
/// timers and buffers are all recycled — state after fifty cycles is
/// identical to state after one.
#[test]
fn connection_churn_recycles_every_resource() {
    let _registry = sharing_registry();
    let mut net = clocked_net(10_000_000, |_| {}); // 10 ms steps.
    let listener = net.stack(1).tcp_listen(8060).unwrap();
    let server_ip = net.stack(1).ip();
    for cycle in 0..50u32 {
        let client = net
            .stack(0)
            .tcp_connect(Endpoint::new(server_ip, 8060))
            .unwrap();
        net.run_until_quiet(32);
        let conn = net.stack(1).tcp_accept(listener).unwrap();
        let msg = cycle.to_be_bytes();
        net.stack(0).tcp_send(client, &msg).unwrap();
        net.run_until_quiet(32);
        assert_eq!(testnet::tcp_recv(net.stack(1), conn, 64).unwrap(), msg);
        net.stack(0).tcp_close(client).unwrap();
        net.run_until_quiet(32);
        net.stack(1).tcp_close(conn).unwrap();
        net.run_until_quiet(32);
        // Wait out TIME_WAIT so the cycle leaves nothing behind.
        tick(&mut net, (2 * TCP_MSL_NS / 10_000_000) as usize + 4);
        assert_eq!(net.stack(0).tcp_conn_count(), 0, "cycle {cycle}: client clean");
        assert_eq!(net.stack(1).tcp_conn_count(), 0, "cycle {cycle}: server clean");
    }
    assert_eq!(net.stack(0).armed_timer_count(), 0);
    assert_eq!(net.stack(1).armed_timer_count(), 0);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// A readiness cell lives and dies with its connection. The watcher of
/// a reaped connection sees `EPOLLHUP` once; the slot's next occupant —
/// new handle, new cell — moves data without the old cell ever
/// stirring again.
#[test]
fn a_reused_slot_never_publishes_into_its_previous_watchers() {
    use ukevent::{EventMask, EventQueue};
    let _registry = sharing_registry();
    let mut net = clocked_net(10_000_000, |_| {}); // 10 ms steps.
    let listener = net.stack(1).tcp_listen(8070).unwrap();
    let server_ep = Endpoint::new(net.stack(1).ip(), 8070);
    let connect = |net: &mut Network| {
        let client = net.stack(0).tcp_connect(server_ep).unwrap();
        net.run_until_quiet(32);
        (client, net.stack(1).tcp_accept(listener).unwrap())
    };
    let fired = |q: &mut EventQueue| -> Vec<EventMask> {
        q.poll_ready(8).iter().map(|ev| ev.events).collect()
    };

    let (client, conn) = connect(&mut net);
    let old = net.stack(1).ready_source(conn);
    let mut q = EventQueue::new();
    q.ctl_add(1, &old, EventMask::IN | EventMask::RDHUP | EventMask::ET).unwrap();
    net.stack(0).tcp_close(client).unwrap();
    net.run_until_quiet(32);
    assert_eq!(fired(&mut q), [EventMask::IN | EventMask::RDHUP], "the peer's FIN");
    net.stack(1).tcp_close(conn).unwrap();
    net.run_until_quiet(32);
    tick(&mut net, (2 * TCP_MSL_NS / 10_000_000) as usize + 4);
    assert_eq!(net.stack(1).tcp_conn_count(), 0, "the watched connection was reaped");
    assert_eq!(fired(&mut q), [EventMask::HUP], "its watcher is told once");
    let hup_seq = old.edge_seq();

    let (client, conn2) = connect(&mut net);
    assert_eq!(conn2.0 as u32, conn.0 as u32, "the slot is reused");
    assert_ne!(conn2, conn, "under a new generation");
    let new = net.stack(1).ready_source(conn2);
    assert!(!new.same_as(&old), "the new connection has a cell of its own");
    net.stack(0).tcp_send(client, b"to the new occupant").unwrap();
    net.run_until_quiet(32);
    assert!(new.current().contains(EventMask::IN));
    assert_eq!((old.current(), old.edge_seq()), (EventMask::HUP, hup_seq));
    assert!(fired(&mut q).is_empty(), "the old watcher hears nothing of it");
}

/// A fresh SYN from the same four-tuple assassinates a lingering
/// TIME_WAIT entry (RFC 1122 §4.2.2.13 shape): the old incarnation is
/// reaped and the new handshake proceeds.
#[test]
fn new_syn_assassinates_time_wait() {
    let _registry = sharing_registry();
    let mut net = clocked_net(1_000_000, |_| {});
    let (client, conn) = establish(&mut net, 8050);
    let local_port = {
        // Recover the client's ephemeral port from the server side:
        // the only remote endpoint the server knows.
        net.stack(1).tcp_peer(conn).unwrap().port
    };
    net.stack(0).tcp_close(client).unwrap();
    net.run_until_quiet(32);
    net.stack(1).tcp_close(conn).unwrap();
    net.run_until_quiet(32);
    assert_eq!(net.stack(0).tcp_state(client), Some(TcpState::TimeWait));

    // Forge a fresh SYN from the server's address and port to the
    // client's TIME_WAIT four-tuple: the TW incarnation dies and the
    // SYN falls through to normal demux (no listener there — RST).
    let server_ep = Endpoint::new(net.stack(1).ip(), 8050);
    let server_mac = net.stack(1).mac();
    let syn = TcpFlags { syn: true, ..TcpFlags::default() };
    net.inject_tcp(0, server_ep, server_mac, local_port, syn, 0x9999, 0);
    net.stack(0).pump();
    assert_eq!(
        net.stack(0).tcp_state(client),
        None,
        "the new SYN assassinated TIME_WAIT"
    );
    net.run_until_quiet(16);
    assert_eq!(net.stack(0).tcp_conn_count(), 0);
}

/// One 64 B echo round trip, two steps.
fn echo(net: &mut Network, client: SocketHandle, conn: SocketHandle, tag: u8) {
    let mut buf = [0u8; 64];
    net.stack(0).tcp_send(client, &[tag; 64]).unwrap();
    net.step();
    assert_eq!(net.stack(1).tcp_recv_into(conn, &mut buf).unwrap(), 64);
    net.stack(1).tcp_send(conn, &buf).unwrap();
    net.step();
    assert_eq!(net.stack(0).tcp_recv_into(client, &mut buf).unwrap(), 64);
    assert_eq!(buf, [tag; 64]);
}

/// A request/response exchange moves its connection's deadline (RTO,
/// tail-loss probe, held ACK) twice per round trip on each side, every
/// time to a later one: the connection's one queue entry is re-keyed in
/// place each time — two arms per echo per side, and never a second
/// entry.
#[test]
fn a_thousand_echoes_re_key_one_entry_twice_per_side() {
    let _registry = sharing_registry();
    let mut net = clocked_net(1_000, |_| {}); // 1 µs steps: 2 ms in all.
    let (client, conn) = establish(&mut net, 8040);
    for i in 0..8 {
        echo(&mut net, client, conn, i);
    }
    let arms = |net: &mut Network| [net.stack(0).stats().timer_arms, net.stack(1).stats().timer_arms];
    let warm = arms(&mut net);
    assert!(warm.iter().all(|&n| n > 0), "the first deadlines were armed: {warm:?}");
    for i in 0..1_000 {
        echo(&mut net, client, conn, i as u8);
        assert_eq!(net.stack(0).armed_timer_count(), 1);
        assert_eq!(net.stack(1).armed_timer_count(), 1);
    }
    assert_eq!(arms(&mut net), warm.map(|n| n + 2_000), "two re-keys per echo per side");
}

/// A deadline that moved later wakes nothing at the earlier one: the
/// queue holds the connection at exactly the deadline it has now, so a
/// pump between the two changes nothing but the sweep count, and the
/// held ACK leaves at its own deadline, not a nanosecond off. Idle
/// after it, the connection waits for nothing and leaves the queue.
#[test]
fn a_moved_deadline_wakes_nothing_early() {
    let _registry = sharing_registry();
    let mut net = Network::new();
    net.attach(node(1, |_| {}));
    net.attach(node(2, |_| {}));
    let clock = Tsc::new(1_000_000_000); // 1 cycle = 1 ns; the test moves it.
    net.set_clock(&clock);
    let (client, conn) = establish(&mut net, 8041);
    const MS: u64 = 1_000_000;

    // The client holds the first reply's ACK until 40 ms. The second
    // request, at 10 ms, carries that ACK out; the second reply's is
    // held until 50 ms.
    echo(&mut net, client, conn, 1);
    assert_eq!(net.stack(0).held_ack_deadline(), Some(DELACK_NS));
    clock.advance_ns(10 * MS);
    echo(&mut net, client, conn, 2);
    assert_eq!(net.stack(0).held_ack_deadline(), Some(10 * MS + DELACK_NS));
    assert_eq!(net.stack(0).armed_timer_count(), 1);

    clock.advance_ns(31 * MS); // 41 ms: past the first hold, short of the second.
    let before = net.stack(0).stats();
    net.stack(0).pump();
    let mut after = net.stack(0).stats();
    after.pump_sweeps -= 1;
    assert_eq!(format!("{after:?}"), format!("{before:?}"), "the pump did nothing");
    assert_eq!(net.stack(0).armed_timer_count(), 1);
    assert_eq!(net.stack(0).held_ack_deadline(), Some(10 * MS + DELACK_NS), "still held");

    clock.advance_ns(9 * MS - 1);
    net.stack(0).pump();
    assert_eq!(net.stack(0).stats().delack_fires, 0, "one nanosecond short");
    clock.advance_ns(1);
    net.stack(0).pump();
    assert_eq!(net.stack(0).stats().delack_fires, 1, "released at its deadline");
    assert_eq!(net.stack(0).armed_timer_count(), 0, "the idle connection waits for nothing");
    assert_eq!(net.stack(0).stats().timer_arms, before.timer_arms, "and arms nothing");
    net.run_until_quiet(16);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// A thousand idle connections with keepalive on are a thousand
/// deadlines and a thousand timer queue entries — one each, never more —
/// and when their (forged, silent) peers fail every probe, each entry's
/// last fire takes its connection with it.
#[test]
fn a_thousand_keepalive_connections_hold_one_queue_entry_each() {
    let _registry = sharing_registry();
    const CONNS: usize = 1_000;
    let mut net = clocked_net(100_000_000, |c| {
        c.keepalive = true;
        c.listen_backlog = 1_024;
    });
    let listener = net.stack(1).tcp_listen(8042).unwrap();
    assert_eq!(net.forge_established(1, 8042, 0, CONNS, 64), CONNS);
    while net.stack(1).tcp_accept(listener).is_some() {}
    assert_eq!(net.stack(1).tcp_conn_count(), CONNS);
    assert_eq!(net.stack(1).armed_timer_count(), CONNS, "one entry per connection");

    let budget_ns = KEEPALIVE_IDLE_NS + (KEEPALIVE_PROBES as u64 + 2) * KEEPALIVE_INTVL_NS;
    for _ in 0..budget_ns / 100_000_000 + 8 {
        net.step();
        assert!(net.stack(1).armed_timer_count() <= net.stack(1).tcp_conn_count());
    }
    let s = net.stack(1).stats();
    assert_eq!(s.keepalive_probes, (CONNS * KEEPALIVE_PROBES as usize) as u64);
    assert_eq!(s.keepalive_drops, CONNS as u64);
    assert_eq!(net.stack(1).tcp_conn_count(), 0, "every dead peer's connection reaped");
    assert_eq!(net.stack(1).armed_timer_count(), 0);
    net.run_until_quiet(32);
    assert_eq!(net.stack(1).pool_available(), Some(POOL), "no netbuf leaked");
}
