//! Trace-order assertions over the stack's tracepoint ring.
//!
//! Each scenario drives real traffic through the in-process wire, then
//! drains the per-stack [`TraceRing`](uktrace::TraceRing) and asserts
//! the datapath fired its tracepoints *in the order the protocol
//! mandates* — the uktrace analogue of "the TCP handshake happens
//! before data". Across the echo + bulk scenarios at least ten
//! distinct tracepoints must fire (the PR's acceptance bar).

#![cfg(feature = "trace")]

use uknetstack::testnet::{node, Network};
use uknetstack::{Endpoint, Ipv4Addr};

/// Index of the first record named `name`, or a panic listing what did
/// fire — so an ordering failure shows the whole trace.
fn first(names: &[&'static str], name: &str) -> usize {
    names
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("tracepoint {name} never fired; trace: {names:?}"))
}

#[test]
fn tcp_echo_fires_lifecycle_tracepoints_in_protocol_order() {
    let mut net = Network::new();
    let ci = net.attach(node(1, |_| {}));
    let si = net.attach(node(2, |_| {}));
    let listener = net.stack(si).tcp_listen(7).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();

    let mut buf = [0u8; 2048];
    net.stack(ci).tcp_send(client, b"hello trace").unwrap();
    net.run_until_quiet(32);
    let n = net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
    net.stack(si).tcp_send(server, &buf[..n]).unwrap();
    net.run_until_quiet(32);
    net.stack(ci).tcp_recv_into(client, &mut buf).unwrap();

    let server_ev = net.stack(si).trace_events();
    let names: Vec<&'static str> = server_ev.iter().map(|e| e.name()).collect();

    // The server side of the story, in protocol order: the client's
    // who-has broadcast arrives first, then its SYN, the connection
    // establishes, and only then does request data land.
    let arp = first(&names, "arp_request_rx");
    let syn = first(&names, "tcp_syn_rx");
    let est = first(&names, "tcp_established");
    let data = first(&names, "tcp_data_rx");
    assert!(arp < syn, "who-has precedes the SYN: {names:?}");
    assert!(syn < est, "SYN precedes establishment: {names:?}");
    assert!(est < data, "establishment precedes data: {names:?}");
    // The server transmitted segments (SYN|ACK, ACKs, the echo).
    first(&names, "tcp_segment_tx");

    // Client side: it broadcast the who-has, got the reply, and saw
    // the same establish-then-data order.
    let client_ev = net.stack(ci).trace_events();
    let cnames: Vec<&'static str> = client_ev.iter().map(|e| e.name()).collect();
    let req = first(&cnames, "arp_request_tx");
    let rep = first(&cnames, "arp_reply_rx");
    let cest = first(&cnames, "tcp_established");
    let cdata = first(&cnames, "tcp_data_rx");
    assert!(req < rep, "request precedes reply: {cnames:?}");
    assert!(cest < cdata, "establishment precedes echo data: {cnames:?}");

    // Timestamps (sequence stamps without a clock) are non-decreasing.
    for pair in server_ev.windows(2) {
        assert!(pair[0].ts <= pair[1].ts, "records drain in order");
    }
}

#[test]
fn bulk_scenarios_cover_the_fast_path_tracepoints() {
    // TSO on: the transfer leaves as super-segments and arrives whole.
    let mut net = Network::new();
    let ci = net.attach(node(1, |_| {}));
    let si = net.attach(node(2, |_| {}));
    assert!(net.stack(ci).offloads().tso);
    let listener = net.stack(si).tcp_listen(9000).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9000))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();
    // Handshake noise out of the way: only the bulk transfer below.
    net.stack(ci).trace_events();
    net.stack(si).trace_events();

    const TOTAL: usize = 256 * 1024;
    let chunk = [0x6bu8; 64 * 1024];
    let mut buf = vec![0u8; 64 * 1024];
    let mut sent = 0;
    let mut got = 0;
    while got < TOTAL {
        if sent < TOTAL {
            let want = chunk.len().min(TOTAL - sent);
            sent += net.stack(ci).tcp_send_queued(client, &chunk[..want]).unwrap_or(0);
            net.stack(ci).flush_output().unwrap();
        }
        net.step();
        loop {
            let n = net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
    }

    let tx_names: Vec<&'static str> =
        net.stack(ci).trace_events().iter().map(|e| e.name()).collect();
    assert!(
        tx_names.contains(&"tso_super_tx"),
        "bulk TX left as super-segments: {tx_names:?}"
    );
    let rx_names: Vec<&'static str> =
        net.stack(si).trace_events().iter().map(|e| e.name()).collect();
    assert!(
        rx_names.contains(&"tcp_super_rx"),
        "bulk RX arrived as chains: {rx_names:?}"
    );

    // TSO off: per-MSS frames coalesce in GRO on the receive side.
    let mut net = Network::new();
    let ci = net.attach(node(1, |cfg| cfg.tso = false));
    let si = net.attach(node(2, |_| {}));
    let listener = net.stack(si).tcp_listen(9100).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9100))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();
    net.stack(si).trace_events();
    let mut sent = 0;
    let mut got = 0;
    while got < TOTAL {
        if sent < TOTAL {
            let want = chunk.len().min(TOTAL - sent);
            sent += net.stack(ci).tcp_send_queued(client, &chunk[..want]).unwrap_or(0);
            net.stack(ci).flush_output().unwrap();
        }
        net.step();
        loop {
            let n = net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
    }
    let gro_names: Vec<&'static str> =
        net.stack(si).trace_events().iter().map(|e| e.name()).collect();
    assert!(
        gro_names.contains(&"gro_merge"),
        "per-MSS bulk coalesced in GRO: {gro_names:?}"
    );
}

#[test]
fn ten_distinct_tracepoints_fire_across_echo_and_bulk() {
    use std::collections::BTreeSet;
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    let mut net = Network::new();
    let ci = net.attach(node(1, |_| {}));
    let si = net.attach(node(2, |_| {}));

    // UDP to an unbound port: a demux miss. Then bind and hit it.
    let client_sock = net.stack(ci).udp_bind(5000).unwrap();
    let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9);
    net.stack(ci).udp_send_to(client_sock, b"miss", server_ep).unwrap();
    net.run_until_quiet(16);
    let server_sock = net.stack(si).udp_bind(9).unwrap();
    net.stack(ci).udp_send_to(client_sock, b"hit", server_ep).unwrap();
    net.run_until_quiet(16);
    let mut buf = [0u8; 2048];
    let _ = net.stack(si).udp_recv_into(server_sock, &mut buf);

    // ICMP echo.
    net.stack(ci).ping(Ipv4Addr::new(10, 0, 0, 2), 1, 1).unwrap();
    net.run_until_quiet(16);

    // TCP echo.
    let listener = net.stack(si).tcp_listen(7).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();
    net.stack(ci).tcp_send(client, b"ping").unwrap();
    net.run_until_quiet(32);
    let n = net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
    net.stack(si).tcp_send(server, &buf[..n]).unwrap();
    net.run_until_quiet(32);

    // Bulk with TSO (client side) and big receive (server side).
    const TOTAL: usize = 128 * 1024;
    let chunk = [0x11u8; 32 * 1024];
    let mut big = vec![0u8; 64 * 1024];
    let mut sent = 0;
    let mut got = 0;
    while got < TOTAL {
        if sent < TOTAL {
            let want = chunk.len().min(TOTAL - sent);
            sent += net.stack(ci).tcp_send_queued(client, &chunk[..want]).unwrap_or(0);
            net.stack(ci).flush_output().unwrap();
        }
        net.step();
        loop {
            let n = net.stack(si).tcp_recv_into(server, &mut big).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
    }

    for idx in [ci, si] {
        for ev in net.stack(idx).trace_events() {
            seen.insert(ev.name());
        }
    }
    assert!(
        seen.len() >= 10,
        "at least ten distinct tracepoints across echo + bulk, got {}: {seen:?}",
        seen.len()
    );
}
