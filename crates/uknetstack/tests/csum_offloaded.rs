//! `csum_offloaded` means what its doc says — "frames whose transport
//! checksum was offloaded to the device" — for every transport frame
//! the stack builds, in the plain `StackStats` and in the `ukstats`
//! registry alike.
//!
//! One test, alone in its binary: the registry is process-global, and
//! the deltas below are exact.

use uknetstack::tcp::TcpState;
use uknetstack::testnet::{node, Network};
use uknetstack::{Endpoint, Ipv4Addr};

fn registry() -> u64 {
    ukstats::snapshot().counter("netstack.csum_offloaded").unwrap_or(0)
}

/// One UDP datagram a → b, then a connect to a closed port on b: `a`
/// builds the datagram and a SYN, `b` builds the RST. Returns what
/// `(a, b)` counted for (datagram, SYN) and RST.
fn datagram_then_rst(tx_csum_offload: bool) -> ((u64, u64), u64) {
    let mut net = Network::new();
    let a = net.attach(node(1, |c| c.tx_csum_offload = tx_csum_offload));
    let b = net.attach(node(2, |c| c.tx_csum_offload = tx_csum_offload));
    let sock = net.stack(a).udp_bind(5000).unwrap();
    let offloaded = |net: &mut Network, i| net.stack(i).stats().csum_offloaded;

    let a0 = offloaded(&mut net, a);
    net.stack(a)
        .udp_send_to(sock, b"datagram", Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9))
        .unwrap();
    net.run_until_quiet(16);
    let datagram = offloaded(&mut net, a) - a0;

    let (a0, b0) = (offloaded(&mut net, a), offloaded(&mut net, b));
    let conn = net
        .stack(a)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 81))
        .unwrap();
    net.run_until_quiet(16);
    assert_eq!(
        net.stack(a).tcp_state(conn),
        Some(TcpState::Closed),
        "the RST came back and killed the connect"
    );
    (
        (datagram, offloaded(&mut net, a) - a0),
        offloaded(&mut net, b) - b0,
    )
}

#[test]
fn csum_offloaded_counts_udp_and_rst_like_any_tcp_segment_in_both_places() {
    let r0 = registry();
    let ((datagram, syn), rst) = datagram_then_rst(true);
    assert_eq!(datagram, 1, "the UDP datagram");
    assert_eq!(syn, 1, "the SYN");
    assert_eq!(rst, 1, "the RST");
    if ukstats::COMPILED_IN {
        assert_eq!(registry() - r0, 3, "the registry agrees, frame for frame");
    }

    let r0 = registry();
    assert_eq!(datagram_then_rst(false), ((0, 0), 0), "software checksums: nothing offloaded");
    assert_eq!(registry() - r0, 0);
}
