//! A count lives once, with its owner: each stack of a two-node rig
//! reports what *it* counted, and the registry's total for a name is
//! the sum of the owners' shares.
//!
//! One test, alone in its binary: the registry is process-global, and
//! the deltas below are exact.

use uknetstack::stack::StackStats;
use uknetstack::testnet::{node, Network};
use uknetstack::{Endpoint, Ipv4Addr};

/// The rows compared below, as (registry name, per-stack field).
const ROWS: [(&str, fn(&StackStats) -> u64); 6] = [
    ("netstack.tx_frames", |s| s.tx_frames),
    ("netstack.rx_frames", |s| s.rx_frames),
    ("netstack.demux_tcp", |s| s.demux_tcp),
    ("netstack.demux_arp", |s| s.demux_arp),
    ("netstack.tcp.pure_acks_tx", |s| s.tcp_pure_acks_tx),
    ("netstack.tcp.acks_piggybacked", |s| s.acks_piggybacked),
];

#[test]
fn client_and_server_count_apart_and_sum_to_the_registry() {
    let base = ukstats::snapshot();
    let mut net = Network::new();
    let ci = net.attach(node(1, |_| {}));
    let si = net.attach(node(2, |_| {}));

    // One request, one response.
    let listener = net.stack(si).tcp_listen(7).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();
    net.stack(ci).tcp_send(client, b"request").unwrap();
    net.run_until_quiet(32);
    let mut buf = [0u8; 64];
    let n = net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
    net.stack(si).tcp_send(server, &buf[..n]).unwrap();
    net.run_until_quiet(32);
    assert_eq!(net.stack(ci).tcp_recv_into(client, &mut buf).unwrap(), n);

    let (c, s) = (net.stack(ci).stats(), net.stack(si).stats());
    // The exchange is lopsided — the client asks who-has, opens, and
    // closes the handshake with a bare ACK — so the two ends differ.
    for (name, field) in &ROWS[..3] {
        assert!(field(&c) > 0 && field(&s) > 0, "{name}: both ends counted ({c:?} / {s:?})");
        assert_ne!(field(&c), field(&s), "{name}: and not the same thing");
    }
    assert_eq!(c.arp_requests_tx, 1, "the client asked who-has");
    assert_eq!(s.arp_requests_tx, 0, "the server learned from the request");

    if ukstats::COMPILED_IN {
        let sum_matches = |what: &str| {
            let now = ukstats::snapshot();
            for (name, field) in ROWS {
                let delta = now.counter(name).unwrap() - base.counter(name).unwrap_or(0);
                assert_eq!(delta, field(&c) + field(&s), "{name} {what}");
            }
        };
        sum_matches("is the sum of the two live stacks");
        drop(net);
        sum_matches("is still that sum once both stacks are gone");
    }
}
