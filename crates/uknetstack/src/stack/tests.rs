#![cfg(test)]
//! `NetStack` on its own, no wire: socket-call contracts, the bounds on
//! what an unanswered next hop or a chatty peer can pin, handle spaces.

use ukevent::EventMask;
use ukplat::Errno;

use super::sockets::{LISTENER_TAG, UDP_TAG};
use super::*;
use crate::arp::{
    ArpOp, ArpPacket, ARP_PENDING_CAP, ARP_PENDING_HARD_CAP, ARP_REQUEST_RETRY_PUMPS, ARP_TABLE_CAP,
};
use crate::eth::{EthHeader, EtherType};
use crate::ipv4::{IpProto, Ipv4Header};
use crate::testnet::{self, node};
use crate::Endpoint;

fn stack(n: u8) -> NetStack {
    node(n, |_| {})
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
    assert_eq!(s.neigh.parked_hops(), 1);
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
        s.neigh.parked(dst.addr).len(),
        ARP_PENDING_CAP,
        "parked packets bounded per destination"
    );
    assert_eq!(
        s.stats().dropped,
        64 - ARP_PENDING_CAP as u64,
        "evicted packets are counted as drops"
    );
    // One who-has, from the packet that opened the queue: sends do
    // not re-broadcast it (pumps do).
    assert_eq!(s.stats().tx_frames, 1, "one request, not one per packet");
    // Pool accounting: the capped parked packets plus the ARP
    // request frame (in the device done-list until the wire
    // harvests it) are the only outstanding buffers.
    let outstanding = s.config.pool_size - s.pool_available().unwrap();
    assert_eq!(outstanding, ARP_PENDING_CAP + 1, "no buffer leak");
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
    let pending = s.neigh.parked(Ipv4Addr::new(10, 0, 0, 99));
    assert_eq!(pending.len(), ARP_PENDING_HARD_CAP);
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
    let pending = s.neigh.parked(dst.addr);
    assert_eq!(pending.len(), ARP_PENDING_CAP);
    let tcp_parked = pending.iter().filter(|p| **p == IpProto::Tcp).count();
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
    // The application goes quiet: no new packet parks, but pumping
    // retries on the per-burst counter.
    for _ in 0..ARP_REQUEST_RETRY_PUMPS * 2 {
        s.pump();
    }
    assert_eq!(
        s.stats().tx_frames,
        3,
        "two who-has retries after 2×{ARP_REQUEST_RETRY_PUMPS} quiet pumps"
    );
    assert_eq!(
        s.neigh.parked(Ipv4Addr::new(10, 0, 0, 99)).len(),
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
    assert!(s.offloads().tx_csum, "VirtioNet advertises tx csum offload");
    let s = node(1, |c| c.tx_csum_offload = false);
    assert!(!s.offloads().tx_csum, "ablation switch wins over capability");
}

#[test]
fn tso_requires_tx_csum_offload() {
    // The cut frames' checksums are completed host-side, so TSO
    // without checksum offload is a contradiction: the stack must
    // fall back to software segmentation.
    let s = node(1, |c| c.tx_csum_offload = false); // tso wish stays on
    assert!(!s.offloads().tso, "TSO gated on checksum offload");
    assert!(!s.offloads().tx_csum);
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
    assert_eq!(testnet::tcp_recv(&mut s, SocketHandle(99), 10).unwrap_err(), Errno::BadF);
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

#[test]
fn sprayed_arp_cannot_grow_the_table_or_strand_a_parked_packet() {
    let mut s = stack(1);
    // `sha` announces, in a broadcast frame, that it is `spa`, to `tpa`.
    let hear = |s: &mut NetStack, sha: Mac, spa: Ipv4Addr, tpa: Ipv4Addr| {
        let arp = ArpPacket { op: ArpOp::Reply, sha, spa, tha: Mac::BROADCAST, tpa };
        let mut nb = Netbuf::alloc(BUF_CAP, TX_HEADROOM);
        nb.append(&arp.encode());
        EthHeader { dst: Mac::BROADCAST, src: sha, ethertype: EtherType::Arp }.encode_into(&mut nb);
        s.deliver_frame(nb);
        s.pump();
    };
    let forged = |i: u32| {
        (Mac([0x66, 0, 0, (i >> 16) as u8, (i >> 8) as u8, i as u8]), Ipv4Addr(0x0a42_0000 + i))
    };
    // 10 000 senders overheard talking to somebody else: RFC 826's
    // merge rule adds none of them.
    for i in 0..10_000 {
        let (sha, spa) = forged(i);
        hear(&mut s, sha, spa, Ipv4Addr::new(10, 0, 0, 77));
    }
    assert_eq!(s.neigh.len(), 0);
    // 10 000 forged replies addressed to us: the table stops at its cap.
    let us = s.ip();
    for i in 0..10_000 {
        let (sha, spa) = forged(i);
        hear(&mut s, sha, spa, us);
    }
    assert_eq!(s.neigh.len(), ARP_TABLE_CAP);
    assert_eq!(s.stats().demux_arp, 20_000);
    // A real neighbour still resolves, and its (gratuitous) reply — not
    // even addressed to us — still releases what was parked for it.
    let sock = s.udp_bind(5000).unwrap();
    let peer = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
    s.udp_send_to(sock, b"parked", peer).unwrap();
    assert_eq!(s.neigh.parked(peer.addr).len(), 1);
    let sent = s.stats().tx_frames;
    hear(&mut s, Mac::node(2), peer.addr, peer.addr);
    assert_eq!((s.neigh.len(), s.neigh.parked_hops()), (ARP_TABLE_CAP, 0));
    assert_eq!(s.stats().tx_frames, sent + 1, "the parked datagram left");
    s.udp_send_to(sock, b"direct", peer).unwrap();
    assert_eq!(s.stats().tx_frames, sent + 2, "and the mapping was kept");
}

#[test]
fn the_next_hop_memo_outlives_the_sweep_and_follows_a_moved_peer() {
    let mut s = stack(1);
    let peer = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
    // `mac` tells us that it is `peer`.
    let told = |s: &mut NetStack, mac: Mac| {
        let arp = ArpPacket { op: ArpOp::Reply, sha: mac, spa: peer.addr, tha: s.mac(), tpa: s.ip() };
        let mut nb = Netbuf::alloc(BUF_CAP, TX_HEADROOM);
        nb.append(&arp.encode());
        EthHeader { dst: s.mac(), src: mac, ethertype: EtherType::Arp }.encode_into(&mut nb);
        s.deliver_frame(nb);
        s.pump();
    };
    // Where the last frame the stack sent went.
    let sent_to = |s: &mut NetStack| {
        let mut out = Vec::new();
        s.harvest_tx(&mut out);
        let dst = EthHeader::decode(out.last().unwrap().payload()).unwrap().0.dst;
        out.into_iter().for_each(|nb| s.recycle(nb));
        dst
    };
    let sock = s.udp_bind(5000).unwrap();
    told(&mut s, Mac::node(2));
    s.udp_send_to(sock, b"one", peer).unwrap();
    assert_eq!(sent_to(&mut s), Mac::node(2));
    for _ in 0..4 {
        s.pump();
    }
    assert_eq!(s.neigh.memoized(peer.addr), Some(Mac::node(2)), "the sweeps left the memo alone");
    told(&mut s, Mac::node(9));
    s.udp_send_to(sock, b"two", peer).unwrap();
    assert_eq!(sent_to(&mut s), Mac::node(9), "the moved peer, not the memo's old answer");
}

/// The frames of a round trip in progress come home changing nothing
/// the next poll would do, so neither end's connection goes on the
/// dirty list for them — the next `pump` owes them no flush pass.
#[test]
fn a_frame_coming_home_mid_round_trip_dirties_nothing() {
    let mut net = testnet::Network::new();
    net.attach(stack(1));
    net.attach(stack(2));
    let listener = net.stack(1).tcp_listen(80).unwrap();
    let client = net.stack(0).tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80)).unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(1).tcp_accept(listener).unwrap();
    let mut buf = [0u8; 16];
    let mut echo = |net: &mut testnet::Network, check: bool| {
        net.stack(0).tcp_send(client, b"ping").unwrap();
        if check {
            net.transfer();
            assert_eq!(net.stack(0).conns.dirty_len(), 0, "the request came home: client clean");
            net.stack(1).pump();
        }
        net.run_until_quiet(8);
        assert_eq!(net.stack(1).tcp_recv_into(conn, &mut buf).unwrap(), 4);
        net.stack(1).tcp_send(conn, b"pong").unwrap();
        if check {
            net.transfer();
            assert_eq!(net.stack(1).conns.dirty_len(), 0, "the reply came home: server clean");
            net.stack(0).pump();
        }
        net.run_until_quiet(8);
        assert_eq!(net.stack(0).tcp_recv_into(client, &mut buf).unwrap(), 4);
    };
    echo(&mut net, false);
    echo(&mut net, true);
    net.run_until_quiet(8);
    assert_eq!((net.stack(0).pool_available(), net.stack(1).pool_available()), (Some(512), Some(512)));
}
