#![cfg(test)]
//! The wire on its own: delivery, offload interop, fault injection and
//! the forgers, between real stacks.

use super::*;
use crate::stack::{SocketHandle, StackConfig};
use crate::tcp::TcpState;
use crate::{Endpoint, Ipv4Addr};
use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::VirtioNet;
use ukplat::time::Tsc;

fn two_node_net() -> Network {
    let mut net = Network::new();
    net.attach(node(1, |_| {}));
    net.attach(node(2, |_| {}));
    net
}

#[test]
fn forge_established_graduates_into_the_backlog() {
    let mut net = Network::new();
    net.attach(node(1, |_| {}));
    let si = net.attach(node(2, |cfg| {
        cfg.listen_backlog = 128;
    }));
    let clock = Tsc::new(1_000_000_000);
    net.set_clock(&clock);
    net.set_step_ns(1_000_000);
    let listener = net.stack(si).tcp_listen(9300).unwrap();
    let completed = net.forge_established(si, 9300, 0, 96, 32);
    assert_eq!(completed, 96, "every forged handshake answered");
    let mut got = Vec::new();
    while let Some(h) = net.stack(si).tcp_accept(listener) {
        got.push(h);
    }
    assert_eq!(got.len(), 96, "every completion graduated");
    for h in got {
        assert_eq!(net.stack(si).tcp_state(h), Some(TcpState::Established));
    }
    // Forged frames are heap buffers and SYN-ACKs went to the
    // wire: the victim's pool is whole.
    net.run_until_quiet(16);
    assert_eq!(net.stack(si).pool_available(), Some(512));
}

#[test]
fn udp_round_trip_through_real_packets() {
    let mut net = two_node_net();
    let server_sock = net.stack(1).udp_bind(7).unwrap();
    let client_sock = net.stack(0).udp_bind(5000).unwrap();
    let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
    net.stack(0)
        .udp_send_to(client_sock, b"echo me", server_ep)
        .unwrap();
    net.run_until_quiet(16);
    let (from, data) = udp_recv_from(net.stack(1), server_sock).unwrap();
    assert_eq!(data, b"echo me");
    assert_eq!(from.addr, Ipv4Addr::new(10, 0, 0, 1));
    // Reply.
    net.stack(1).udp_send_to(server_sock, b"reply", from).unwrap();
    net.run_until_quiet(16);
    let (_, data) = udp_recv_from(net.stack(0), client_sock).unwrap();
    assert_eq!(data, b"reply");
}

#[test]
fn tcp_connect_accept_exchange() {
    let mut net = two_node_net();
    let listener = net.stack(1).tcp_listen(80).unwrap();
    let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);
    let client = net.stack(0).tcp_connect(server_ep).unwrap();
    net.run_until_quiet(32);
    assert_eq!(net.stack(0).tcp_state(client), Some(TcpState::Established));
    let server_conn: SocketHandle = net.stack(1).tcp_accept(listener).unwrap();
    assert_eq!(
        net.stack(1).tcp_state(server_conn),
        Some(TcpState::Established)
    );
    // Request/response.
    net.stack(0).tcp_send(client, b"GET /\r\n").unwrap();
    net.run_until_quiet(32);
    let req = tcp_recv(net.stack(1), server_conn, 1024).unwrap();
    assert_eq!(req, b"GET /\r\n");
    net.stack(1).tcp_send(server_conn, b"200 OK\r\n").unwrap();
    net.run_until_quiet(32);
    let resp = tcp_recv(net.stack(0), client, 1024).unwrap();
    assert_eq!(resp, b"200 OK\r\n");
    // Teardown.
    net.stack(0).tcp_close(client).unwrap();
    net.run_until_quiet(32);
    assert!(net.stack(1).tcp_peer_closed(server_conn));
}

#[test]
fn large_tcp_transfer_crosses_segmentation() {
    let mut net = two_node_net();
    let listener = net.stack(1).tcp_listen(9000).unwrap();
    let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9000);
    let client = net.stack(0).tcp_connect(server_ep).unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(1).tcp_accept(listener).unwrap();
    let blob: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    net.stack(0).tcp_send(client, &blob).unwrap();
    net.run_until_quiet(64);
    let got = tcp_recv(net.stack(1), conn, usize::MAX).unwrap();
    assert_eq!(got, blob);
}

#[test]
fn et_retriggers_on_new_data_while_level_high() {
    use ukevent::{EventMask, EventQueue};
    let mut net = two_node_net();
    let server_ip = Ipv4Addr::new(10, 0, 0, 2);
    let listener = net.stack(1).tcp_listen(8100).unwrap();
    let client = net.stack(0).tcp_connect(Endpoint::new(server_ip, 8100)).unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(1).tcp_accept(listener).unwrap();
    let udp = net.stack(1).udp_bind(8101).unwrap();
    let udp_client = net.stack(0).udp_bind(5000).unwrap();

    // One input of each socket kind: bytes on a connection, a
    // datagram on a UDP socket, a connection on a listener.
    type Input<'a> = &'a dyn Fn(&mut Network);
    let inputs: [(&str, SocketHandle, Input); 3] = [
        ("connection", conn, &|net| {
            net.stack(0).tcp_send(client, b"data").unwrap();
        }),
        ("UDP socket", udp, &|net| {
            let to = Endpoint::new(server_ip, 8101);
            net.stack(0).udp_send_to(udp_client, b"datagram", to).unwrap();
        }),
        ("listener", listener, &|net| {
            net.stack(0).tcp_connect(Endpoint::new(server_ip, 8100)).unwrap();
        }),
    ];
    for (what, sock, input) in inputs {
        let src = net.stack(1).ready_source(sock);
        let mut q = EventQueue::new();
        q.ctl_add(1, &src, EventMask::IN | EventMask::ET).unwrap();

        input(&mut net);
        net.run_until_quiet(32);
        assert_eq!(q.poll_ready(4).len(), 1, "{what}: first input is an edge");
        assert!(q.poll_ready(4).is_empty(), "{what}: edge consumed");
        // More input lands while the first is still unread: the
        // level never falls, but Linux ET re-triggers on each new
        // arrival.
        input(&mut net);
        net.run_until_quiet(32);
        assert_eq!(
            q.poll_ready(4).len(),
            1,
            "{what}: new arrival must re-trigger the edge watcher"
        );
        assert!(q.poll_ready(4).is_empty(), "{what}: and only once");
    }
}

#[test]
fn window_closed_is_visible_through_stack_api() {
    let mut net = two_node_net();
    let listener = net.stack(1).tcp_listen(8000).unwrap();
    let client = net
        .stack(0)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 8000))
        .unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(1).tcp_accept(listener).unwrap();
    assert!(!net.stack(0).tcp_window_closed(client));

    // Flood more than one receive window; the server does not read.
    let big = vec![0x11u8; 80_000];
    let accepted = net.stack(0).tcp_send(client, &big).unwrap();
    assert_eq!(accepted, crate::tcp::SND_BUF_CAP, "partial write at cap");
    net.run_until_quiet(64);
    assert!(net.stack(0).tcp_window_closed(client), "peer window exhausted");
    assert!(net.stack(0).tcp_send_capacity(client) < crate::tcp::SND_BUF_CAP);

    // Server drains; the window update reopens the sender.
    let got = tcp_recv(net.stack(1), conn, usize::MAX).unwrap();
    assert_eq!(got.len(), crate::tcp::RCV_BUF_CAP);
    net.run_until_quiet(64);
    assert!(!net.stack(0).tcp_window_closed(client));
    let rest = tcp_recv(net.stack(1), conn, usize::MAX).unwrap();
    assert_eq!(got.len() + rest.len(), accepted, "no byte lost");
}

#[test]
fn udp_burst_apis_round_trip_a_full_batch() {
    let mut net = two_node_net();
    let ss = net.stack(1).udp_bind(7).unwrap();
    let cs = net.stack(0).udp_bind(5000).unwrap();
    let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
    // Warm ARP so the whole burst goes out as one staged batch.
    net.stack(0).udp_send_to(cs, b"warm", ep).unwrap();
    net.run_until_quiet(16);
    let mut scratch = [0u8; 2048];
    net.stack(1).udp_recv_into(ss, &mut scratch).unwrap();

    let payloads: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 64 + i as usize]).collect();
    let sent = net
        .stack(0)
        .udp_send_burst(cs, payloads.iter().map(|p| (&p[..], ep)))
        .unwrap();
    assert_eq!(sent, 32, "whole batch staged in one burst");
    net.run_until_quiet(16);

    // recvmmsg-style drain: all 32 datagrams in one call, packed
    // back-to-back, order preserved.
    let mut buf = vec![0u8; 32 * 2048];
    let mut msgs = Vec::new();
    let n = net.stack(1).udp_recv_burst_into(ss, &mut buf, &mut msgs, 64);
    assert_eq!(n, 32);
    let mut off = 0;
    for (i, &(from, len)) in msgs.iter().enumerate() {
        assert_eq!(from.addr, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(&buf[off..off + len], &payloads[i][..], "datagram {i}");
        off += len;
    }
    // Echo the batch back through the burst send path.
    let mut off = 0;
    let replies = msgs.iter().map(|&(from, len)| {
        let s = &buf[off..off + len];
        off += len;
        (s, from)
    });
    assert_eq!(net.stack(1).udp_send_burst(ss, replies).unwrap(), 32);
    net.run_until_quiet(16);
    let mut back = vec![0u8; 32 * 2048];
    let mut back_msgs = Vec::new();
    assert_eq!(
        net.stack(0).udp_recv_burst_into(cs, &mut back, &mut back_msgs, 64),
        32,
        "all replies arrive"
    );
}

#[test]
fn udp_recv_burst_respects_max_and_buffer_space() {
    let mut net = two_node_net();
    let ss = net.stack(1).udp_bind(7).unwrap();
    let cs = net.stack(0).udp_bind(5000).unwrap();
    let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
    for _ in 0..8 {
        net.stack(0).udp_send_to(cs, &[0x5a; 100], ep).unwrap();
    }
    net.run_until_quiet(16);
    let mut buf = [0u8; 4096];
    let mut msgs = Vec::new();
    // `max` caps the batch…
    assert_eq!(net.stack(1).udp_recv_burst_into(ss, &mut buf, &mut msgs, 3), 3);
    // …and a buffer with room for only two more stops early
    // without truncating (the rest stays queued).
    msgs.clear();
    assert_eq!(
        net.stack(1).udp_recv_burst_into(ss, &mut buf[..250], &mut msgs, 64),
        2
    );
    msgs.clear();
    assert_eq!(net.stack(1).udp_recv_burst_into(ss, &mut buf, &mut msgs, 64), 3);
}

#[test]
fn csum_offload_ablation_interoperates_with_software_path() {
    // One node offloads TX checksums to the device, the other
    // computes them in software; the wire traffic must be
    // indistinguishable and every checksum valid on receive.
    let mut net = Network::new();
    let soft = net.attach(node(1, |cfg| cfg.tx_csum_offload = false));
    let hard = net.attach(node(2, |_| {}));
    assert!(!net.stack(soft).offloads().tx_csum);
    assert!(net.stack(hard).offloads().tx_csum);

    let listener = net.stack(hard).tcp_listen(80).unwrap();
    let client = net
        .stack(soft)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
        .unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(hard).tcp_accept(listener).unwrap();
    net.stack(soft).tcp_send(client, b"no-offload -> offload").unwrap();
    net.run_until_quiet(32);
    assert_eq!(
        tcp_recv(net.stack(hard), conn, 1024).unwrap(),
        b"no-offload -> offload"
    );
    net.stack(hard).tcp_send(conn, b"offload -> no-offload").unwrap();
    net.run_until_quiet(32);
    assert_eq!(
        tcp_recv(net.stack(soft), client, 1024).unwrap(),
        b"offload -> no-offload"
    );
    assert_eq!(
        net.stack(soft).stats().csum_offloaded,
        0,
        "software node never offloads"
    );
    assert!(
        net.stack(hard).stats().csum_offloaded > 0,
        "offload node stamps partial sums"
    );
}

/// Establishes a client→server connection on an arbitrary net and
/// returns the server-side conn handle.
fn establish(net: &mut Network, ci: usize, si: usize, port: u16) -> (SocketHandle, SocketHandle) {
    let listener = net.stack(si).tcp_listen(port).unwrap();
    let server_ip = net.stack(si).ip();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(server_ip, port))
        .unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(si).tcp_accept(listener).unwrap();
    (client, conn)
}

/// Sends `data` client→server (chunked through the send buffer)
/// and returns what the server read.
fn bulk_send(
    net: &mut Network,
    ci: usize,
    si: usize,
    client: SocketHandle,
    conn: SocketHandle,
    data: &[u8],
) -> Vec<u8> {
    let mut got = Vec::new();
    let mut sent = 0;
    let mut buf = vec![0u8; 64 * 1024];
    for _ in 0..10_000 {
        if sent < data.len() {
            let n = net
                .stack(ci)
                .tcp_send_queued(client, &data[sent..])
                .unwrap_or(0);
            sent += n;
            net.stack(ci).flush_output().unwrap();
        }
        net.step();
        loop {
            let n = net.stack(si).tcp_recv_into(conn, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        if got.len() == data.len() {
            break;
        }
    }
    got
}

#[test]
fn tso_bulk_transfer_moves_super_segments_and_stays_intact() {
    let mut net = two_node_net();
    assert!(net.stack(0).offloads().tso, "VirtioNet advertises TSO");
    let (client, conn) = establish(&mut net, 0, 1, 9100);
    let blob: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    let got = bulk_send(&mut net, 0, 1, client, conn, &blob);
    assert_eq!(got.len(), blob.len(), "every byte arrived");
    assert_eq!(got, blob, "stream intact across TSO cutting");
    let stats = net.stack(0).stats();
    assert!(
        stats.tso_super_frames > 0,
        "bulk data left as GSO super-segments"
    );
    assert!(
        stats.tso_super_bytes >= 150_000,
        "most of the stream rode super-segments ({} bytes)",
        stats.tso_super_bytes
    );
    // The whole point: far fewer device/staging crossings than
    // wire frames. 200 KB is ~137 MSS frames; the sender should
    // have pushed an order of magnitude fewer TX frames.
    assert!(
        stats.tx_frames < 60,
        "super-segments amortize the TX path ({} tx frames)",
        stats.tx_frames
    );
    // And the receiver negotiated big receive: the supers arrived
    // whole as chains — one demux each — not as cut MSS frames.
    let rx = net.stack(1).stats();
    assert!(net.stack(1).offloads().big_receive);
    assert_eq!(
        rx.rx_super_frames, stats.tso_super_frames,
        "every super-segment was delivered whole (guest TSO)"
    );
    assert!(
        rx.rx_frames < 60,
        "big receive amortizes the RX path ({} rx frames)",
        rx.rx_frames
    );
}

#[test]
fn supers_are_cut_to_mss_for_receivers_without_guest_tso() {
    // The receiver declines big receive (software RX checksums ⇒
    // no GUEST_TSO4, per the virtio feature dependency): the host
    // side must cut MSS frames — with valid checksums, since the
    // receiver verifies them in software.
    let mut net = Network::new();
    net.attach(node(1, |_| {}));
    let rx = net.attach(node(2, |cfg| cfg.rx_csum_offload = false));
    assert!(!net.stack(rx).offloads().big_receive);

    let (client, conn) = establish(&mut net, 0, rx, 9600);
    let blob: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let got = bulk_send(&mut net, 0, rx, client, conn, &blob);
    assert_eq!(got, blob, "stream intact through the host-side cut");
    assert!(net.stack(0).stats().tso_super_frames > 0, "sender used TSO");
    let stats = net.stack(rx).stats();
    assert_eq!(stats.rx_super_frames, 0, "nothing arrived as a chain");
    assert!(
        stats.rx_frames > 70,
        "the wire delivered per-MSS cut frames ({})",
        stats.rx_frames
    );
    assert_eq!(stats.rx_csum_skipped, 0, "software verification ran");
}

#[test]
fn tso_chain_buffers_recycle_to_sender_pool() {
    let mut net = two_node_net();
    let (client, conn) = establish(&mut net, 0, 1, 9200);
    let blob = vec![0x42u8; 100_000];
    let got = bulk_send(&mut net, 0, 1, client, conn, &blob);
    assert_eq!(got.len(), blob.len());
    net.run_until_quiet(32);
    let outstanding =
        net.stack(0).stats().tx_frames; // just to touch stats
    let _ = outstanding;
    let cfg_pool = 512;
    assert_eq!(
        net.stack(0).pool_available(),
        Some(cfg_pool),
        "every chain head and fragment returned to the client pool"
    );
    assert_eq!(
        net.stack(1).pool_available(),
        Some(cfg_pool),
        "every RX buffer returned to the server pool"
    );
}

#[test]
fn tso_ablation_interoperates_with_software_segmentation() {
    // One node cuts on the device (TSO), the other segments in
    // software; streams in both directions must be intact.
    let mut net = Network::new();
    let soft = net.attach(node(1, |cfg| cfg.tso = false));
    let hard = net.attach(node(2, |_| {}));
    assert!(!net.stack(soft).offloads().tso);
    assert!(net.stack(hard).offloads().tso);

    let (client, conn) = establish(&mut net, soft, hard, 9300);
    let blob: Vec<u8> = (0..80_000u32).map(|i| (i.wrapping_mul(7) % 256) as u8).collect();
    let got = bulk_send(&mut net, soft, hard, client, conn, &blob);
    assert_eq!(got, blob, "software-segmentation → TSO node");
    assert_eq!(net.stack(soft).stats().tso_super_frames, 0);

    // And back: the TSO node serves the software node.
    let back: Vec<u8> = blob.iter().rev().copied().collect();
    let mut sent = 0;
    let mut got2 = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    for _ in 0..10_000 {
        if sent < back.len() {
            let n = net.stack(hard).tcp_send_queued(conn, &back[sent..]).unwrap_or(0);
            sent += n;
            net.stack(hard).flush_output().unwrap();
        }
        net.step();
        loop {
            let n = net.stack(soft).tcp_recv_into(client, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got2.extend_from_slice(&buf[..n]);
        }
        if got2.len() == back.len() {
            break;
        }
    }
    assert_eq!(got2, back, "TSO node → software node");
    assert!(net.stack(hard).stats().tso_super_frames > 0);
}

#[test]
fn stack_falls_back_to_software_segmentation_without_device_tso() {
    // The wire peer (device/host) does not advertise
    // VIRTIO_NET_F_HOST_TSO4: the stack's `tso` wish degrades to
    // the software per-MSS fallback transparently.
    let mut net = Network::new();
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.set_tso(false);
    dev.configure(NetDevConf::default()).unwrap();
    let cfg = StackConfig::node(1); // tso wish is on…
    let soft = net.attach(NetStack::new(cfg, Box::new(dev)));
    let hard = net.attach(node(2, |_| {}));
    assert!(!net.stack(soft).offloads().tso, "…but the device lacks the feature");

    let (client, conn) = establish(&mut net, soft, hard, 9400);
    let blob = vec![0x5au8; 50_000];
    let got = bulk_send(&mut net, soft, hard, client, conn, &blob);
    assert_eq!(got, blob);
    assert_eq!(
        net.stack(soft).stats().tso_super_frames,
        0,
        "no super-segments without the device feature"
    );
}

#[test]
fn out_of_range_tuning_knobs_are_clamped_safe() {
    // An oversized MSS would overflow a pooled buffer's usable
    // payload; it must clamp rather than panic or stall.
    let mut net = Network::new();
    let oversized = |cfg: &mut StackConfig| cfg.mss = 5000;
    let ci = net.attach(node(1, oversized));
    let si = net.attach(node(2, oversized));
    let (client, conn) = establish(&mut net, ci, si, 9700);
    let blob: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
    let got = bulk_send(&mut net, ci, si, client, conn, &blob);
    assert_eq!(got, blob, "clamped knobs still move the stream intact");
    assert!(net.stack(ci).stats().tso_super_frames > 0);
}

#[test]
fn rx_csum_offload_skips_software_verification() {
    let mut net = two_node_net();
    let (client, conn) = establish(&mut net, 0, 1, 9500);
    net.stack(0).tcp_send(client, b"marked frames skip the csum pass").unwrap();
    net.run_until_quiet(32);
    assert_eq!(
        tcp_recv(net.stack(1), conn, 1024).unwrap(),
        b"marked frames skip the csum pass"
    );
    assert!(
        net.stack(1).stats().rx_csum_skipped > 0,
        "wire-marked frames bypassed software verification"
    );
}

#[test]
fn corrupted_unmarked_frames_are_still_dropped() {
    use crate::ipv4::{IpProto, Ipv4Header};
    use crate::udp::UdpHeader;
    let mut net = two_node_net();
    let sock = net.stack(1).udp_bind(7).unwrap();

    // Forge a full frame with a corrupted UDP payload byte and
    // inject it *without* the wire's checksum-validated mark.
    let forge = |corrupt: bool, marked: bool| -> Netbuf {
        let mut nb = Netbuf::alloc(2048, 64);
        nb.append(b"checksummed payload");
        let ip = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            proto: IpProto::Udp,
            payload_len: 8 + nb.len(),
            ttl: 64,
        };
        UdpHeader {
            src_port: 5000,
            dst_port: 7,
        }
        .emit(&ip, &mut nb, crate::Csum::Software);
        ip.encode_into(&mut nb);
        EthHeader {
            dst: Mac::node(2),
            src: Mac::node(1),
            ethertype: crate::eth::EtherType::Ipv4,
        }
        .encode_into(&mut nb);
        if corrupt {
            let last = nb.len() - 1;
            nb.payload_mut()[last] ^= 0xff;
        }
        if marked {
            nb.mark_csum_verified();
        }
        nb
    };

    // Corrupt + unmarked: the software verification pass runs and
    // drops it, RX checksum offload notwithstanding.
    let dropped_before = net.stack(1).stats().dropped;
    let nb = forge(true, false);
    net.stack(1).deliver_frame(nb);
    net.stack(1).pump();
    assert_eq!(net.stack(1).stats().dropped, dropped_before + 1);
    assert!(udp_recv_from(net.stack(1), sock).is_none(), "nothing queued");

    // Corrupt + marked: the mark short-circuits verification —
    // proof the skip is real (a real NIC would not mark it).
    let nb = forge(true, true);
    net.stack(1).deliver_frame(nb);
    net.stack(1).pump();
    assert!(
        udp_recv_from(net.stack(1), sock).is_some(),
        "marked frame skipped the software checksum pass"
    );

    // Corrupt + marked, but the receiver disabled RX offload: the
    // ablation switch restores full software verification.
    let mut net2 = Network::new();
    net2.attach(node(1, |_| {}));
    let rx = net2.attach(node(2, |cfg| cfg.rx_csum_offload = false));
    assert!(!net2.stack(rx).offloads().rx_csum);
    let sock2 = net2.stack(rx).udp_bind(7).unwrap();
    let dropped_before = net2.stack(rx).stats().dropped;
    let nb = forge(true, true);
    net2.stack(rx).deliver_frame(nb);
    net2.stack(rx).pump();
    assert_eq!(net2.stack(rx).stats().dropped, dropped_before + 1);
    assert!(udp_recv_from(net2.stack(rx), sock2).is_none());
}

/// A wire that duplicates frames: the receiver must drop every
/// stale copy (answering with a dup-ACK, not silence), keep the
/// stream byte-exact, and recycle the dropped buffers — no pool
/// leak. The sender runs without TSO so real per-MSS data frames
/// are what get duplicated.
#[test]
fn duplicated_wire_frames_leave_the_stream_exact_and_leak_nothing() {
    let mut net = Network::new();
    let ci = net.attach(node(1, |cfg| cfg.tso = false)); // Per-MSS frames on the wire.
    let si = net.attach(node(2, |_| {}));
    net.set_plan(FaultPlan { dup: 4, ..FaultPlan::default() });
    let (client, conn) = establish(&mut net, ci, si, 9800);
    let blob: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let got = bulk_send(&mut net, ci, si, client, conn, &blob);
    assert_eq!(got.len(), blob.len(), "every byte arrived exactly once");
    assert_eq!(got, blob, "stream exact despite duplicated deliveries");
    assert!(net.faults_injected() > 10, "the wire really duplicated");
    net.run_until_quiet(32);
    assert_eq!(
        net.stack(si).pool_available(),
        Some(512),
        "every dropped duplicate was recycled to the pool"
    );
    assert_eq!(net.stack(ci).pool_available(), Some(512));
}

/// The FIN-reorder regression at wire level: the wire swaps the
/// final data segment with the FIN behind it, so the FIN arrives
/// first (out of order). The receiver must drop the FIN without
/// touching the sequence space — the data that follows still lands
/// in order and the stream stays exact. (The old ingest advanced
/// `rcv_nxt` for the early FIN and transitioned to CloseWait,
/// after which the real data could never be accepted.)
#[test]
fn reordered_fin_does_not_desync_the_stream() {
    let mut net = two_node_net();
    let (client, conn) = establish(&mut net, 0, 1, 9900);
    // Everything already settled; now arm adjacent reordering for
    // every delivery whose batch has two frames.
    net.set_plan(FaultPlan { reorder: 1, ..FaultPlan::default() });
    let payload = b"the last chunk before close";
    net.stack(0).tcp_send_queued(client, payload).unwrap();
    net.stack(0).tcp_close(client).unwrap(); // Data + FIN, one batch.
    net.run_until_quiet(32);
    assert!(net.faults_injected() > 0, "the wire really reordered");
    let got = tcp_recv(net.stack(1), conn, 1024).unwrap();
    assert_eq!(got, payload, "data accepted despite the early FIN");
    // The reordered FIN was dropped, not processed out of order:
    // the connection is still Established (the wire's clock stands
    // still here, so the peer's FIN retransmission never comes due
    // — the sequence space staying intact is the property under
    // test).
    assert_eq!(
        net.stack(1).tcp_state(conn),
        Some(TcpState::Established),
        "no bogus CloseWait from an out-of-order FIN"
    );
    assert!(!net.stack(1).tcp_peer_closed(conn));
}

/// GRO engages on per-MSS bursts: a non-TSO sender's consecutive
/// segments are merged into multi-frame ingests, and the received
/// stream plus the zero-copy netbuf drain are byte-exact.
#[test]
fn gro_coalesces_per_mss_bursts_and_netbuf_recv_drains_them() {
    let mut net = Network::new();
    // Per-MSS sender: the GRO target workload.
    let ci = net.attach(node(1, |cfg| cfg.tso = false));
    let si = net.attach(node(2, |_| {}));
    assert!(net.stack(si).offloads().gro);
    let (client, conn) = establish(&mut net, ci, si, 9950);
    let blob: Vec<u8> = (0..120_000u32).map(|i| (i.wrapping_mul(13) % 251) as u8).collect();

    let mut got = Vec::new();
    let mut bufs: Vec<Netbuf> = Vec::new();
    let mut sent = 0;
    for _ in 0..10_000 {
        if sent < blob.len() {
            sent += net.stack(ci).tcp_send_queued(client, &blob[sent..]).unwrap_or(0);
            net.stack(ci).flush_output().unwrap();
        }
        net.step();
        // Zero-copy drain: whole payload buffers, recycled after.
        loop {
            let n = net.stack(si).tcp_recv_burst_netbuf(conn, &mut bufs, 64);
            if n == 0 {
                break;
            }
            for nb in bufs.drain(..) {
                got.extend_from_slice(nb.payload());
                net.stack(si).recycle(nb);
            }
        }
        if got.len() == blob.len() {
            break;
        }
    }
    assert_eq!(got, blob, "stream exact through GRO + netbuf recv");
    let stats = net.stack(si).stats();
    assert!(stats.gro_runs > 0, "GRO really merged runs");
    assert!(
        stats.gro_merged_frames >= 2 * stats.gro_runs,
        "runs contain at least two frames each"
    );
    net.run_until_quiet(32);
    assert_eq!(
        net.stack(si).pool_available(),
        Some(512),
        "all receive-queue buffers returned to the pool"
    );
}

/// A fine-grained sender (many small segments, never drained) must
/// not pin one pool buffer per segment: small extents coalesce
/// into the receive-queue tail's tailroom (`tcp_try_coalesce`
/// shape), so the buffers pinned stay proportional to the *bytes*
/// buffered, not the segment count.
#[test]
fn small_segment_flood_does_not_pin_a_buffer_per_segment() {
    let mut net = two_node_net();
    let (client, conn) = establish(&mut net, 0, 1, 9850);
    // 300 separate 100-byte segments: sent one per step so the
    // send queue cannot merge them into MSS segments — each is
    // its own wire frame. The server never reads.
    let chunk = [0x4du8; 100];
    for _ in 0..300 {
        net.stack(0).tcp_send(client, &chunk).unwrap();
        net.step();
    }
    assert_eq!(net.stack(1).tcp_readable(conn), 300 * 100, "all buffered");
    let pinned = 512 - net.stack(1).pool_available().unwrap();
    assert!(
        pinned <= 32,
        "30 KB of 100-byte segments must coalesce into few buffers \
         ({pinned} pinned)"
    );
    // The stream is intact and every buffer comes back.
    let got = tcp_recv(net.stack(1), conn, usize::MAX).unwrap();
    assert_eq!(got.len(), 300 * 100);
    assert!(got.iter().all(|&b| b == 0x4d));
    net.run_until_quiet(16);
    assert_eq!(net.stack(1).pool_available(), Some(512), "no leak");
}

/// A lossy wire: every 3rd plain frame is silently discarded. The
/// surviving datagrams arrive intact and in order, the loss shows
/// up in both the wire's fault counter and the global
/// `testnet.drops_injected` stat, and the dropped buffers are
/// recycled — no pool leak. UDP carries the test so nothing
/// retransmits and every injected loss stays visible end to end.
#[test]
fn dropped_wire_frames_are_counted_and_leak_nothing() {
    let mut net = two_node_net();
    let ss = net.stack(1).udp_bind(7).unwrap();
    let cs = net.stack(0).udp_bind(5000).unwrap();
    let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
    // Warm ARP before arming the fault so the resolution exchange
    // itself cannot be eaten.
    net.stack(0).udp_send_to(cs, b"warm", ep).unwrap();
    net.run_until_quiet(16);
    udp_recv_from(net.stack(1), ss).unwrap();

    let base = ukstats::snapshot();
    net.set_plan(FaultPlan { drop: 3, ..FaultPlan::default() });
    for i in 0..30u8 {
        net.stack(0).udp_send_to(cs, &[i; 32], ep).unwrap();
        net.run_until_quiet(16);
    }
    let mut got = Vec::new();
    while let Some((_, data)) = udp_recv_from(net.stack(1), ss) {
        got.push(data[0]);
    }
    assert_eq!(got.len(), 20, "every 3rd of 30 datagrams was lost");
    // Survivors arrive in order with their payloads intact.
    assert!(got.windows(2).all(|w| w[0] < w[1]), "order preserved: {got:?}");
    assert_eq!(net.faults_injected(), 10, "the wire really dropped");
    if ukstats::COMPILED_IN {
        let snap = ukstats::snapshot();
        let before = base.counter("testnet.drops_injected").unwrap_or(0);
        assert_eq!(
            snap.counter("testnet.drops_injected").unwrap() - before,
            10,
            "drops are observable in the stats registry"
        );
    }
    net.run_until_quiet(16);
    assert_eq!(net.stack(1).pool_available(), Some(512), "no leak on loss");
    assert_eq!(net.stack(0).pool_available(), Some(512));

    // Disarming restores the lossless wire.
    net.set_plan(FaultPlan::default());
    net.stack(0).udp_send_to(cs, b"clean", ep).unwrap();
    net.run_until_quiet(16);
    assert_eq!(udp_recv_from(net.stack(1), ss).unwrap().1, b"clean");
}

/// A fault plan is a replay: the same plan over the same traffic on two
/// fresh wires injects the same faults and puts the same bytes on the
/// wire, and re-arming it mid-run restarts both the same way.
#[test]
fn a_fault_plan_replays() {
    const PLAN: FaultPlan = FaultPlan {
        drop: 11,
        dup: 7,
        reorder: 5,
        corrupt: 9,
        burst: (64, 3),
        pipe: (2, 24),
    };
    let run = || {
        let mut net = Network::new();
        let ci = net.attach(node(1, |cfg| cfg.tso = false)); // Per-MSS frames on the wire.
        let si = net.attach(node(2, |cfg| cfg.tso = false));
        net.set_clock(&Tsc::new(1_000_000_000));
        net.set_step_ns(50_000_000); // Room for the RTOs bursts force.
        let (client, conn) = establish(&mut net, ci, si, 9750);
        let c2s: Vec<u8> = (0..40_000u32).map(|i| (i.wrapping_mul(13) % 251) as u8).collect();
        let s2c: Vec<u8> = (0..36_000u32).map(|i| (i.wrapping_mul(29) % 251) as u8).collect();
        net.start_wire_capture();
        net.set_plan(PLAN);
        assert_eq!(bulk_send(&mut net, ci, si, client, conn, &c2s), c2s);
        let first = (net.take_wire_capture(), net.faults_injected());
        net.set_plan(PLAN); // Mid-run: every cadence restarts.
        assert_eq!(bulk_send(&mut net, si, ci, conn, client, &s2c), s2c);
        net.set_plan(FaultPlan::default());
        net.run_until_quiet(64);
        (first, (net.take_wire_capture(), net.faults_injected()))
    };
    let (a, b) = (run(), run());
    assert!(a.0 .1 > 0, "the plan really perturbed the wire");
    assert!(a.1 .1 > a.0 .1, "the re-armed plan perturbed it again");
    assert!(a.0 == b.0, "the same plan, the same wire, the same faults");
    assert!(a.1 == b.1, "re-armed mid-run, the two wires still agree");
}

#[test]
fn ping_round_trip() {
    let mut net = two_node_net();
    net.stack(0)
        .ping(Ipv4Addr::new(10, 0, 0, 2), 0x77, 1)
        .unwrap();
    net.run_until_quiet(16);
    let replies = net.stack(0).ping_replies();
    assert_eq!(replies, vec![(Ipv4Addr::new(10, 0, 0, 2), 0x77, 1)]);
    // The target recorded no stray replies.
    assert!(net.stack(1).ping_replies().is_empty());
}

#[test]
fn three_stacks_share_the_wire() {
    let mut net = Network::new();
    net.attach(node(1, |_| {}));
    net.attach(node(2, |_| {}));
    net.attach(node(3, |_| {}));
    let s2 = net.stack(1).udp_bind(1000).unwrap();
    let s3 = net.stack(2).udp_bind(1000).unwrap();
    let c = net.stack(0).udp_bind(2000).unwrap();
    net.stack(0)
        .udp_send_to(c, b"to-2", Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 1000))
        .unwrap();
    net.stack(0)
        .udp_send_to(c, b"to-3", Endpoint::new(Ipv4Addr::new(10, 0, 0, 3), 1000))
        .unwrap();
    net.run_until_quiet(16);
    assert_eq!(udp_recv_from(net.stack(1), s2).unwrap().1, b"to-2");
    assert_eq!(udp_recv_from(net.stack(2), s3).unwrap().1, b"to-3");
}
