//! A pool holds only what the traffic has taken: a stack builds no
//! netbuf until its first `take`, and one 64 B echo leaves each end of
//! a two-node rig with no more than its two in-flight buffers built.
//! The `netstack.pool_built` gauge reports the most any pool built.
//!
//! One test, alone in its binary: the gauge is process-global, and the
//! value below is exact.

use uknetstack::testnet::{node, Network};
use uknetstack::{Endpoint, Ipv4Addr};

#[test]
fn a_64_byte_echo_builds_at_most_two_buffers_per_stack() {
    let mut idle = node(3, |_| {});
    for _ in 0..4 {
        idle.pump();
    }
    assert_eq!(idle.pool_built(), 0, "a stack that saw no traffic built nothing");

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
    net.stack(ci).tcp_send(client, &[0x42; 64]).unwrap();
    net.run_until_quiet(32);
    let mut buf = [0u8; 64];
    assert_eq!(net.stack(si).tcp_recv_into(server, &mut buf).unwrap(), 64);
    net.stack(si).tcp_send(server, &buf).unwrap();
    net.run_until_quiet(32);
    assert_eq!(net.stack(ci).tcp_recv_into(client, &mut buf).unwrap(), 64);

    let (c, s) = (net.stack(ci).pool_built(), net.stack(si).pool_built());
    assert!((1..=2).contains(&c), "the client built {c} buffers");
    assert!((1..=2).contains(&s), "the server built {s} buffers");
    if ukstats::COMPILED_IN {
        let gauge = ukstats::snapshot().gauge("netstack.pool_built").unwrap();
        assert_eq!(gauge, c.max(s) as u64, "the gauge reads the larger pool");
    }
}
