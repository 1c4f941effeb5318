//! Property-based tests for the packet codecs and the TCP machine.

use proptest::prelude::*;

use uknetstack::arp::{ArpOp, ArpPacket};
use uknetstack::eth::{EthHeader, EtherType};
use uknetstack::ipv4::{IpProto, Ipv4Header};
use uknetstack::tcp::{
    Tcb, TcbConfig, TcbTimer, TcpFlags, TcpHeader, TcpOptions, TcpState, MAX_SACK_BLOCKS,
    SACK_PERMITTED_OPT, TCP_MAX_OPT_LEN,
};
use uknetstack::udp::UdpHeader;
use uknetstack::{inet_checksum, Csum, Ipv4Addr, Mac};

fn arb_mac() -> impl Strategy<Value = Mac> {
    proptest::array::uniform6(any::<u8>()).prop_map(Mac)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr)
}

proptest! {
    /// Ethernet encode/decode is the identity on headers + payload.
    #[test]
    fn eth_roundtrip(dst in arb_mac(), src in arb_mac(), ipv4 in any::<bool>(),
                     payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let h = EthHeader {
            dst,
            src,
            ethertype: if ipv4 { EtherType::Ipv4 } else { EtherType::Arp },
        };
        let mut frame = h.encode().to_vec();
        frame.extend_from_slice(&payload);
        let (h2, p2) = EthHeader::decode(&frame).unwrap();
        prop_assert_eq!(h, h2);
        prop_assert_eq!(p2, &payload[..]);
    }

    /// ARP encode/decode is the identity.
    #[test]
    fn arp_roundtrip(sha in arb_mac(), tha in arb_mac(),
                     spa in arb_ip(), tpa in arb_ip(), req in any::<bool>()) {
        let p = ArpPacket {
            op: if req { ArpOp::Request } else { ArpOp::Reply },
            sha, spa, tha, tpa,
        };
        prop_assert_eq!(ArpPacket::decode(&p.encode()).unwrap(), p);
    }

    /// IPv4 headers verify and roundtrip; any single-byte corruption of
    /// the header is caught by the checksum.
    #[test]
    fn ipv4_roundtrip_and_corruption(
        src in arb_ip(), dst in arb_ip(), ttl in 1u8..255,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        flip_byte in 0usize..20, flip_bits in 1u8..255,
    ) {
        let h = Ipv4Header {
            src, dst,
            proto: IpProto::Udp,
            payload_len: payload.len(),
            ttl,
        };
        let mut pkt = h.encode().to_vec();
        pkt.extend_from_slice(&payload);
        let (h2, p2) = Ipv4Header::decode(&pkt).unwrap();
        prop_assert_eq!(h, h2);
        prop_assert_eq!(p2, &payload[..]);
        // Corrupt one header byte.
        pkt[flip_byte] ^= flip_bits;
        prop_assert!(Ipv4Header::decode(&pkt).is_err());
    }

    /// UDP datagrams roundtrip; payload corruption is detected.
    #[test]
    fn udp_roundtrip_and_corruption(
        sp in 1u16..u16::MAX, dp in 1u16..u16::MAX,
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        flip in any::<u8>(),
    ) {
        let ip = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            proto: IpProto::Udp,
            payload_len: 8 + payload.len(),
            ttl: 64,
        };
        let h = UdpHeader { src_port: sp, dst_port: dp };
        let dgram = h.encode(&ip, &payload);
        let (h2, p2) = UdpHeader::decode(&ip, &dgram).unwrap();
        prop_assert_eq!(h, h2);
        prop_assert_eq!(p2, &payload[..]);
        if flip != 0 {
            let mut bad = dgram.clone();
            let idx = 8 + (flip as usize % payload.len());
            bad[idx] ^= flip;
            prop_assert!(UdpHeader::decode(&ip, &bad).is_err());
        }
    }

    /// Checksum of data + its checksum is always zero.
    #[test]
    fn checksum_self_verifies(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        // Pad to even length: the trailing-byte rule makes appending the
        // checksum after an odd payload shift the fold.
        let mut data = data;
        if data.len() % 2 == 1 {
            data.push(0);
        }
        let ck = inet_checksum(&data, 0);
        data.extend_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(inet_checksum(&data, 0), 0);
    }

    /// Arbitrary bytes never panic the decoders.
    #[test]
    fn decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = EthHeader::decode(&bytes);
        let _ = ArpPacket::decode(&bytes);
        let _ = Ipv4Header::decode(&bytes);
        let ip = Ipv4Header {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            proto: IpProto::Tcp,
            payload_len: bytes.len(),
            ttl: 64,
        };
        let _ = UdpHeader::decode(&ip, &bytes);
        let _ = TcpHeader::decode(&ip, &bytes);
    }

    /// TCP data transfer preserves arbitrary byte streams across
    /// handshake, segmentation and reassembly, in both directions.
    #[test]
    fn tcp_stream_integrity(
        c2s in proptest::collection::vec(any::<u8>(), 0..8000),
        s2c in proptest::collection::vec(any::<u8>(), 0..8000),
    ) {
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(5000, 80, 7);
        pump(&mut client, &mut server);
        prop_assert_eq!(client.state, TcpState::Established);
        client.app_send(&c2s).unwrap();
        server.app_send(&s2c).unwrap();
        pump(&mut client, &mut server);
        prop_assert_eq!(server.app_recv(usize::MAX), c2s);
        prop_assert_eq!(client.app_recv(usize::MAX), s2c);
        // Orderly close still works afterwards: the passive closer is
        // done when its FIN is acknowledged, the active one 2MSL later.
        client.app_close();
        pump(&mut client, &mut server);
        server.app_close();
        pump(&mut client, &mut server);
        prop_assert_eq!(client.state, TcpState::TimeWait);
        prop_assert_eq!(server.state, TcpState::Closed);
        settle(&mut client, &mut server);
        prop_assert_eq!(client.state, TcpState::Closed);
        prop_assert_eq!(client.timed_out(), Some(TcpState::TimeWait));
    }

    /// A TCB never panics on arbitrary incoming segments.
    #[test]
    fn tcb_tolerates_garbage_segments(
        seq in any::<u32>(), ack in any::<u32>(), flags_bits in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        established in any::<bool>(),
    ) {
        let mut tcb = if established {
            let mut server = Tcb::listen(80);
            let mut client = Tcb::connect(5000, 80, 1);
            pump(&mut client, &mut server);
            server
        } else {
            Tcb::listen(80)
        };
        let h = TcpHeader {
            src_port: 5000,
            dst_port: 80,
            seq,
            ack,
            flags: TcpFlags {
                syn: flags_bits & 1 != 0,
                ack: flags_bits & 2 != 0,
                fin: flags_bits & 4 != 0,
                rst: flags_bits & 8 != 0,
                psh: flags_bits & 16 != 0,
            },
            window: 65535,
        };
        tcb.on_segment(&h, &payload);
        let _ = tcb.poll_output();
    }
}

// --- in-place emitters ≡ encode (headroom path vs. reference codec) ---
//
// The zero-copy datapath prepends headers into a pooled netbuf's
// headroom (`encode_into`; `emit` for TCP and UDP, whose checksum the
// device may complete); the `encode()` methods remain as the reference
// serialization. For every protocol and any payload up to MTU size,
// the two must produce byte-identical packets.

/// A netbuf with the payload appended behind the stack's TX headroom.
fn nb_with_payload(payload: &[u8]) -> uknetdev::netbuf::Netbuf {
    let mut nb = uknetdev::netbuf::Netbuf::alloc(2048, uknetstack::stack::TX_HEADROOM);
    nb.append(payload);
    nb
}

/// Finishes an emitted transport segment the way the stack does: IPv4
/// and Ethernet headers prepended.
fn push_ip_and_eth(ip: &Ipv4Header, nb: &mut uknetdev::netbuf::Netbuf) {
    ip.encode_into(nb);
    EthHeader {
        dst: Mac::node(2),
        src: Mac::node(1),
        ethertype: EtherType::Ipv4,
    }
    .encode_into(nb);
}

/// Frames an emitted transport segment up, crosses a `VirtioNet` with it
/// (`tx_burst` completes a pending `CsumRequest`, and in debug builds
/// holds a frame without one to its claim of valid checksums) and
/// returns the transport bytes that reached the wire.
fn wire_segment(ip: &Ipv4Header, mut nb: uknetdev::netbuf::Netbuf) -> Vec<u8> {
    use uknetdev::backend::VhostKind;
    use uknetdev::dev::{NetDev, NetDevConf};
    use uknetdev::VirtioNet;
    use ukplat::time::Tsc;

    push_ip_and_eth(ip, &mut nb);
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    let mut burst = vec![nb];
    dev.tx_burst(0, &mut burst).unwrap();
    let mut done = Vec::new();
    dev.reclaim_tx(0, &mut done).unwrap();
    let frame = done.pop().expect("frame completed");
    assert!(frame.csum_request().is_none(), "request serviced");
    let (eh, ip_pkt) = EthHeader::decode(frame.payload()).unwrap();
    assert_eq!(eh.ethertype, EtherType::Ipv4);
    let (ih, segment) = Ipv4Header::decode(ip_pkt).unwrap();
    assert_eq!(&ih, ip);
    segment.to_vec()
}

/// A checksum arm an uncut frame can take.
fn arb_csum() -> impl Strategy<Value = Csum> {
    prop_oneof![Just(Csum::Software), Just(Csum::Offload)]
}

/// The option runs the stack emits, with what they must parse back to:
/// none, SACK-permitted, or 1–4 SACK blocks behind a NOP-NOP pad.
fn arb_tcp_opts() -> impl Strategy<Value = (Vec<u8>, TcpOptions)> {
    let blocks = proptest::collection::vec((any::<u32>(), any::<u32>()), 1..MAX_SACK_BLOCKS + 1)
        .prop_map(|blocks| {
            let mut bytes = vec![1, 1, 5, 2 + 8 * blocks.len() as u8];
            let mut parsed = TcpOptions::default();
            for (i, &(start, end)) in blocks.iter().enumerate() {
                bytes.extend_from_slice(&start.to_be_bytes());
                bytes.extend_from_slice(&end.to_be_bytes());
                parsed.sack_blocks[i] = (start, end);
            }
            parsed.sack_count = blocks.len();
            (bytes, parsed)
        });
    prop_oneof![
        Just((Vec::new(), TcpOptions::default())),
        Just((
            SACK_PERMITTED_OPT.to_vec(),
            TcpOptions {
                sack_permitted: true,
                ..TcpOptions::default()
            }
        )),
        blocks,
    ]
}

proptest! {
    /// Ethernet: headroom path matches `encode()` + payload concat.
    #[test]
    fn eth_encode_into_matches_encode(
        dst in arb_mac(), src in arb_mac(), ipv4 in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1486),
    ) {
        let h = EthHeader {
            dst,
            src,
            ethertype: if ipv4 { EtherType::Ipv4 } else { EtherType::Arp },
        };
        let mut reference = h.encode().to_vec();
        reference.extend_from_slice(&payload);
        let mut nb = nb_with_payload(&payload);
        h.encode_into(&mut nb);
        prop_assert_eq!(nb.payload(), &reference[..]);
    }

    /// IPv4: headroom path matches `encode()` + payload concat.
    #[test]
    fn ipv4_encode_into_matches_encode(
        src in arb_ip(), dst in arb_ip(), ttl in 1u8..255,
        payload in proptest::collection::vec(any::<u8>(), 0..1480),
    ) {
        let h = Ipv4Header {
            src, dst,
            proto: IpProto::Udp,
            payload_len: payload.len(),
            ttl,
        };
        let mut reference = h.encode().to_vec();
        reference.extend_from_slice(&payload);
        let mut nb = nb_with_payload(&payload);
        h.encode_into(&mut nb);
        prop_assert_eq!(nb.payload(), &reference[..]);
    }

    /// UDP: on either checksum arm — computed in place, or seeded and
    /// completed by the device at `tx_burst` — the datagram on the
    /// wire is the reference datagram (checksum included,
    /// zero-checksum substitution included).
    #[test]
    fn udp_emit_matches_encode(
        sp in 1u16..u16::MAX, dp in 1u16..u16::MAX,
        src in arb_ip(), dst in arb_ip(),
        payload in proptest::collection::vec(any::<u8>(), 0..1472),
        csum in arb_csum(),
    ) {
        let h = UdpHeader { src_port: sp, dst_port: dp };
        let ip = Ipv4Header {
            src, dst,
            proto: IpProto::Udp,
            payload_len: 8 + payload.len(),
            ttl: 64,
        };
        let mut nb = nb_with_payload(&payload);
        h.emit(&ip, &mut nb, csum);
        prop_assert_eq!(nb.csum_request().is_some(), csum == Csum::Offload);
        prop_assert_eq!(wire_segment(&ip, nb), h.encode(&ip, &payload));
    }

    /// TCP, every uncut arm: options ∈ {none, SACK-permitted, 1–4 SACK
    /// blocks} × checksum ∈ {in place, completed by the device}. The
    /// segment on the wire always passes the verifying decode with
    /// header, options and payload intact; without options it is the
    /// reference segment byte for byte (a device-completed checksum
    /// of `0x0000` reads `0xffff` — congruent, and documented).
    #[test]
    fn tcp_emit_matches_encode(
        sp in 1u16..u16::MAX, dp in 1u16..u16::MAX,
        seq in any::<u32>(), ack in any::<u32>(),
        flags_bits in any::<u8>(), window in any::<u16>(),
        src in arb_ip(), dst in arb_ip(),
        payload in proptest::collection::vec(any::<u8>(), 0..1460),
        opts in arb_tcp_opts(),
        csum in arb_csum(),
    ) {
        let (opts, parsed) = opts;
        // Options eat into the MSS; without them the payload fills it.
        let payload = &payload[..payload.len().min(1460 - opts.len())];
        let h = TcpHeader {
            src_port: sp,
            dst_port: dp,
            seq,
            ack,
            flags: TcpFlags {
                syn: flags_bits & 1 != 0,
                ack: flags_bits & 2 != 0,
                fin: flags_bits & 4 != 0,
                rst: flags_bits & 8 != 0,
                psh: flags_bits & 16 != 0,
            },
            window,
        };
        let doff = 20 + opts.len();
        let ip = Ipv4Header {
            src, dst,
            proto: IpProto::Tcp,
            payload_len: doff + payload.len(),
            ttl: 64,
        };
        let mut nb = nb_with_payload(payload);
        h.emit(&ip, &mut nb, &opts, csum);
        prop_assert_eq!(nb.csum_request().is_some(), csum == Csum::Offload);
        prop_assert!(nb.gso_request().is_none());
        let wire = wire_segment(&ip, nb);
        let (h2, p2) = TcpHeader::decode(&ip, &wire).unwrap();
        prop_assert_eq!(h2, h);
        prop_assert_eq!(p2, payload);
        prop_assert_eq!(wire.len() - p2.len(), doff, "data offset covers the options");
        prop_assert_eq!(&wire[20..doff], &opts[..]);
        prop_assert_eq!(TcpOptions::parse(&wire[20..doff]), parsed);
        if opts.is_empty() {
            let mut reference = h.encode(&ip, payload);
            if csum == Csum::Offload && reference[16..18] == [0, 0] {
                reference[16..18].copy_from_slice(&[0xff, 0xff]);
            }
            prop_assert_eq!(wire, reference);
        }
    }

    /// TCP, the cut arm: `Csum::Gso` leaves one checksum request
    /// spanning the whole chain and one segmentation request, and the
    /// host-side cutter turns the super-segment into per-MSS frames
    /// that each pass the verifying decodes and together carry the
    /// stream in order (sequence numbers and PSH placement are held to
    /// the software path's by
    /// `tso_framing_is_byte_identical_to_software_segmentation`).
    #[test]
    fn tcp_emit_gso_is_cut_into_valid_frames(
        seq in any::<u32>(), ack in any::<u32>(),
        src in arb_ip(), dst in arb_ip(),
        mss in 200u16..1461,
        extents in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..1800), 2..6),
    ) {
        use uknetdev::netbuf::{CsumRequest, GsoRequest, Netbuf};

        let h = TcpHeader {
            src_port: 5000,
            dst_port: 80,
            seq,
            ack,
            flags: TcpFlags { ack: true, psh: true, ..Default::default() },
            window: 4096,
        };
        let stream: Vec<u8> = extents.concat();
        let mut nb = nb_with_payload(&extents[0]);
        for extent in &extents[1..] {
            nb.chain_append(Netbuf::from_slice(extent));
        }
        let ip = Ipv4Header {
            src, dst,
            proto: IpProto::Tcp,
            payload_len: 20 + stream.len(),
            ttl: 64,
        };
        h.emit(&ip, &mut nb, &[], Csum::Gso { mss });
        prop_assert_eq!(
            nb.csum_request(),
            Some(CsumRequest { region_len: nb.chain_len() as u32, field_off: 16 })
        );
        prop_assert_eq!(nb.gso_request(), Some(GsoRequest { mss }));
        push_ip_and_eth(&ip, &mut nb);

        let mut frames = Vec::new();
        let n = uknetdev::gso::cut_frame(&nb, mss, || Netbuf::alloc(2048, 0), &mut frames).unwrap();
        prop_assert_eq!(n, stream.len().div_ceil(mss as usize));
        let mut got = Vec::new();
        for frame in &frames {
            let (_, ip_pkt) = EthHeader::decode(frame.payload()).unwrap();
            let (ih, segment) = Ipv4Header::decode(ip_pkt).unwrap();
            let (_, body) = TcpHeader::decode(&ih, segment).unwrap();
            prop_assert!(body.len() <= mss as usize);
            got.extend_from_slice(body);
        }
        prop_assert_eq!(got, stream);
    }

    /// ICMP echo: headroom path matches the reference message.
    #[test]
    fn icmp_encode_into_matches_encode(
        request in any::<bool>(), ident in any::<u16>(), seq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1472),
    ) {
        let e = uknetstack::icmp::IcmpEcho {
            request,
            ident,
            seq,
            payload: payload.clone(),
        };
        let reference = e.encode();
        let mut nb = nb_with_payload(&payload);
        uknetstack::icmp::encode_echo_into(request, ident, seq, &mut nb);
        prop_assert_eq!(nb.payload(), &reference[..]);
    }
}

// --- burst datapath properties ---------------------------------------

/// The textbook byte-pair reference implementation of RFC 1071 (the
/// shape the stack used before the one-pass wide-load rewrite), with a
/// 64-bit accumulator so an extreme seed cannot drop an end-around
/// carry the way the old u32 form silently would.
fn naive_checksum(data: &[u8], initial: u32) -> u16 {
    let mut sum = u64::from(initial);
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u64::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    let mut sum = (sum & 0xffff) + (sum >> 16);
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

proptest! {
    /// The optimized one-pass unrolled `inet_checksum` is bit-identical
    /// to the naive reference over arbitrary lengths, alignments (the
    /// slice starts at any offset into the buffer) and pseudo-header
    /// seeds.
    #[test]
    fn inet_checksum_matches_naive_reference(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        offset in 0usize..64,
        seed in any::<u32>(),
    ) {
        let off = offset.min(data.len());
        let slice = &data[off..];
        prop_assert_eq!(inet_checksum(slice, seed), naive_checksum(slice, seed));
    }

    /// Burst UDP send/recv round-trips arbitrary datagram batches
    /// losslessly (sizes, contents, count and order all preserved),
    /// with checksum offload on or off.
    #[test]
    fn udp_burst_round_trips_arbitrary_batches(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..900), 1..13),
        offload in any::<bool>(),
    ) {
        
        
        
        
        use uknetstack::testnet::{node, Network};
        use uknetstack::Endpoint;
        

        let mk = |n: u8| {
            node(n, |cfg| {
                cfg.tx_csum_offload = offload;
            })
        };
        let mut net = Network::new();
        let ci = net.attach(mk(1));
        let si = net.attach(mk(2));
        let ss = net.stack(si).udp_bind(7).unwrap();
        let cs = net.stack(ci).udp_bind(5000).unwrap();
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);

        // Batches stay under the ARP parking cap, so the unresolved
        // first burst parks whole and releases whole.
        let sent = net
            .stack(ci)
            .udp_send_burst(cs, payloads.iter().map(|p| (&p[..], ep)))
            .unwrap();
        prop_assert_eq!(sent, payloads.len());
        net.run_until_quiet(32);

        let mut buf = vec![0u8; payloads.len() * 2048];
        let mut msgs = Vec::new();
        let n = net.stack(si).udp_recv_burst_into(ss, &mut buf, &mut msgs, 64);
        prop_assert_eq!(n, payloads.len(), "no datagram lost or duplicated");
        let mut off = 0;
        for (i, &(from, len)) in msgs.iter().enumerate() {
            prop_assert_eq!(from.addr, Ipv4Addr::new(10, 0, 0, 1));
            prop_assert_eq!(&buf[off..off + len], &payloads[i][..], "datagram {} intact", i);
            off += len;
        }
    }
}

// --- TSO device cutting ≡ software per-MSS segmentation --------------

/// Runs one bulk client→server transfer (plus teardown) over a fresh
/// two-node net and returns every wire frame delivered, in order —
/// post-TSO-cut, i.e. exactly the frames the receiver's RX ring saw.
/// `drain` bytes are read per step, so small values squeeze the
/// receive window and force super-segments to split at window edges.
///
/// The receiver runs with RX checksum offload *off*, which (per the
/// virtio feature rules) also disables big receive — so the host-side
/// cutter must produce complete per-MSS frames with valid checksums,
/// and those are what the capture compares against the software path.
fn bulk_wire_frames(tso: bool, mss: usize, data: &[u8], drain: usize) -> Vec<Vec<u8>> {
    
    
    
    
    use uknetstack::testnet::{node, Network};
    use uknetstack::Endpoint;
    

    let mk = |n: u8| {
        node(n, |cfg| {
            cfg.tso = tso;
            cfg.mss = mss;
            // Full software verification on receive: forces the host-side
            // MSS cut (no big receive) and checks every cut checksum.
            cfg.rx_csum_offload = false;
        })
    };
    let mut net = Network::new();
    let ci = net.attach(mk(1));
    let si = net.attach(mk(2));
    assert_eq!(net.stack(ci).offloads().tso, tso);
    let listener = net.stack(si).tcp_listen(80).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
        .unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(si).tcp_accept(listener).unwrap();

    net.start_wire_capture();
    let mut buf = vec![0u8; 64 * 1024];
    let mut sent = 0;
    let mut got: Vec<u8> = Vec::with_capacity(data.len());
    for _ in 0..20_000 {
        if sent < data.len() {
            let n = net
                .stack(ci)
                .tcp_send_queued(client, &data[sent..])
                .unwrap_or(0);
            sent += n;
            net.stack(ci).flush_output().unwrap();
        }
        net.step();
        let room = drain.min(buf.len());
        let n = net.stack(si).tcp_recv_into(conn, &mut buf[..room]).unwrap();
        got.extend_from_slice(&buf[..n]);
        if sent == data.len() && got.len() == data.len() {
            break;
        }
    }
    assert_eq!(got.len(), data.len(), "transfer completed (tso={tso})");
    assert_eq!(got, data, "stream intact (tso={tso})");
    // Teardown rides the capture too: FIN ordering behind queued data
    // must also be identical.
    net.stack(ci).tcp_close(client).unwrap();
    net.run_until_quiet(64);
    net.take_wire_capture()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TSO device cutting ≡ software segmentation: for arbitrary
    /// payload sizes, MSS values and window states (the receiver
    /// drains in arbitrary-size chunks, squeezing the window so
    /// super-segments split mid-cut), the sequence of frames on the
    /// wire — data, ACKs and teardown, both directions — is
    /// **byte-identical** between `tso = on` (the stack emits GSO
    /// super-segment chains, the host cuts) and `tso = off` (the
    /// stack cuts per-MSS in software).
    #[test]
    fn tso_framing_is_byte_identical_to_software_segmentation(
        len in 1usize..100_000,
        mss in 300usize..1461,
        drain in 500usize..65_536,
        seed in any::<u8>(),
    ) {
        let data: Vec<u8> = (0..len)
            .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(seed as u32) % 251) as u8)
            .collect();
        let hw = bulk_wire_frames(true, mss, &data, drain);
        let sw = bulk_wire_frames(false, mss, &data, drain);
        prop_assert_eq!(
            hw.len(),
            sw.len(),
            "same wire frame count (mss={}, len={}, drain={})",
            mss, len, drain
        );
        for (i, (a, b)) in hw.iter().zip(sw.iter()).enumerate() {
            prop_assert_eq!(a, b, "wire frame {} differs (mss={}, len={})", i, mss, len);
        }
    }
}

// --- GRO coalescing ≡ per-segment delivery ---------------------------

/// Runs one bulk client→server transfer over a per-MSS (non-TSO)
/// sender and returns `(received stream, wire frames)` — the receiver
/// either GRO-coalesces consecutive segments before ingest or takes
/// them one at a time. `drain` bytes are read per step, so small
/// values squeeze the receive window and vary the burst shapes.
fn gro_transfer(gro: bool, mss: usize, data: &[u8], drain: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    
    
    
    
    use uknetstack::testnet::{node, Network};
    use uknetstack::Endpoint;
    

    let mk = |n: u8, gro: bool| {
        node(n, |cfg| {
            cfg.tso = false; // Per-MSS wire frames: the GRO target shape.
            cfg.mss = mss;
            cfg.gro = gro;
        })
    };
    let mut net = Network::new();
    let ci = net.attach(mk(1, gro));
    let si = net.attach(mk(2, gro));
    let listener = net.stack(si).tcp_listen(80).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
        .unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(si).tcp_accept(listener).unwrap();

    net.start_wire_capture();
    let mut buf = vec![0u8; 64 * 1024];
    let mut sent = 0;
    let mut got: Vec<u8> = Vec::with_capacity(data.len());
    for _ in 0..20_000 {
        if sent < data.len() {
            let n = net
                .stack(ci)
                .tcp_send_queued(client, &data[sent..])
                .unwrap_or(0);
            sent += n;
            net.stack(ci).flush_output().unwrap();
        }
        net.step();
        let room = drain.min(buf.len());
        let n = net.stack(si).tcp_recv_into(conn, &mut buf[..room]).unwrap();
        got.extend_from_slice(&buf[..n]);
        if sent == data.len() && got.len() == data.len() {
            break;
        }
    }
    assert_eq!(got.len(), data.len(), "transfer completed (gro={gro})");
    // Teardown rides the capture too.
    net.stack(ci).tcp_close(client).unwrap();
    net.run_until_quiet(64);
    if gro && data.len() >= 8 * mss {
        // Enough consecutive segments flow per burst that at least one
        // multi-frame run must have formed.
        assert!(
            net.stack(si).stats().gro_runs > 0,
            "GRO engaged on the coalescing run (mss={mss})"
        );
    }
    (got, net.take_wire_capture())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// GRO-coalesced delivery ≡ per-segment delivery: for arbitrary
    /// payload sizes, MSS values and receiver drain rates, both the
    /// received byte stream *and* the full wire conversation — data
    /// segments, coalesced ACKs, window updates and teardown — are
    /// byte-identical with GRO on and off. Coalescing may change how
    /// the receiver does its work, never what the peer observes.
    #[test]
    fn gro_delivery_is_byte_identical_to_per_segment(
        len in 1usize..80_000,
        mss in 300usize..1461,
        drain in 500usize..65_536,
        seed in any::<u8>(),
    ) {
        let data: Vec<u8> = (0..len)
            .map(|i| ((i as u32).wrapping_mul(17).wrapping_add(seed as u32) % 251) as u8)
            .collect();
        let (on_stream, on_wire) = gro_transfer(true, mss, &data, drain);
        let (off_stream, off_wire) = gro_transfer(false, mss, &data, drain);
        prop_assert_eq!(&on_stream, &data, "GRO stream exact");
        prop_assert_eq!(on_stream, off_stream, "identical delivered streams");
        prop_assert_eq!(
            on_wire.len(),
            off_wire.len(),
            "same wire frame count (mss={}, len={}, drain={})",
            mss, len, drain
        );
        for (i, (a, b)) in on_wire.iter().zip(off_wire.iter()).enumerate() {
            prop_assert_eq!(a, b, "wire frame {} differs (mss={}, len={})", i, mss, len);
        }
    }
}

// --- fault-schedule recovery: the loss-tolerance property ------------

/// Runs one bidirectional TCP transfer over a two-node net with the
/// given fault schedule armed and a shared virtual clock driving the
/// retransmission timers; returns `(server's received stream, client's
/// received stream, faults injected)`.
///
/// The testnet's fault injector acts on plain wire frames, so with
/// `tso = on` both stacks run `rx_csum_offload = false`: that declines
/// big receive, the host-side GSO cutter turns every super-segment
/// into plain per-MSS frames, and the schedule applies to those.
#[allow(clippy::too_many_arguments)]
fn fault_schedule_transfer(
    tso: bool,
    gro: bool,
    recovery: (bool, bool, bool), // (sack, rack, pacing) ablation switches
    drop_every: u64,
    dup_every: u64,
    reorder_every: u64,
    corrupt_every: u64,
    burst: (u64, u64),
    c2s: &[u8],
    s2c: &[u8],
) -> (Vec<u8>, Vec<u8>, u64) {
    
    
    
    
    use uknetstack::testnet::{node, Network};
    use uknetstack::Endpoint;
    use ukplat::time::Tsc;

    let mk = |n: u8| {
        node(n, |cfg| {
            cfg.tso = tso;
            cfg.gro = gro;
            cfg.sack = recovery.0;
            cfg.rack = recovery.1;
            cfg.pacing = recovery.2;
            if tso {
                cfg.rx_csum_offload = false; // Decline big receive: host cuts.
            }
        })
    };
    let mut net = Network::new();
    net.attach(mk(1));
    net.attach(mk(2));
    let clock = Tsc::new(1_000_000_000); // 1 cycle = 1 ns.
    net.set_clock(&clock);
    // 50 ms per step: bursts can eat whole retransmit exchanges and
    // back the RTO off hard, so each round must buy real virtual time.
    net.set_step_ns(50_000_000);

    // Establish on a clean wire so ARP and the handshake cannot be
    // eaten — the property under test is the data path.
    let listener = net.stack(1).tcp_listen(80).unwrap();
    let client = net
        .stack(0)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
        .unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(1).tcp_accept(listener).unwrap();

    net.set_drop_every(drop_every);
    net.set_dup_every(dup_every);
    net.set_reorder_every(reorder_every);
    net.set_corrupt_every(corrupt_every);
    net.set_drop_burst(burst.0, burst.1);

    let mut buf = vec![0u8; 64 * 1024];
    let mut got_s: Vec<u8> = Vec::with_capacity(c2s.len());
    let mut got_c: Vec<u8> = Vec::with_capacity(s2c.len());
    let (mut sent_c, mut sent_s) = (0, 0);
    for _ in 0..20_000 {
        if sent_c < c2s.len() {
            sent_c += net
                .stack(0)
                .tcp_send_queued(client, &c2s[sent_c..])
                .unwrap_or(0);
            net.stack(0).flush_output().unwrap();
        }
        if sent_s < s2c.len() {
            sent_s += net
                .stack(1)
                .tcp_send_queued(conn, &s2c[sent_s..])
                .unwrap_or(0);
            net.stack(1).flush_output().unwrap();
        }
        net.step();
        loop {
            let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got_s.extend_from_slice(&buf[..n]);
        }
        loop {
            let n = net.stack(0).tcp_recv_into(client, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got_c.extend_from_slice(&buf[..n]);
        }
        if got_s.len() == c2s.len() && got_c.len() == s2c.len() {
            break;
        }
    }
    let faults = net.faults_injected();
    // Heal the wire and let straggling ACKs settle, then account for
    // every pooled buffer: recovery queues must not leak under faults.
    net.set_drop_every(0);
    net.set_dup_every(0);
    net.set_reorder_every(0);
    net.set_corrupt_every(0);
    net.set_drop_burst(0, 0);
    net.run_until_quiet(64);
    assert_eq!(
        net.stack(0).pool_available(),
        Some(512),
        "client pool whole after recovery"
    );
    assert_eq!(
        net.stack(1).pool_available(),
        Some(512),
        "server pool whole after recovery"
    );
    (got_s, got_c, faults)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: **any** fault schedule — drop cadence ×
    /// duplication × adjacent reorder × payload corruption × loss
    /// bursts, composed — still delivers byte-identical streams in
    /// both directions, with GRO and TSO on or off and every
    /// combination of the `{sack, rack, pacing}` recovery ablation
    /// switches, and returns every pooled buffer afterwards.
    #[test]
    fn any_fault_schedule_delivers_byte_identical_streams(
        drop_every in prop_oneof![Just(0u64), 6u64..16],
        dup_every in prop_oneof![Just(0u64), 4u64..12],
        reorder_every in prop_oneof![Just(0u64), 4u64..12],
        corrupt_every in prop_oneof![Just(0u64), 6u64..14],
        burst in prop_oneof![Just((0u64, 0u64)), (48u64..96, 2u64..7)],
        tso in any::<bool>(),
        gro in any::<bool>(),
        sack in any::<bool>(),
        rack in any::<bool>(),
        pacing in any::<bool>(),
        len_c in 16_000usize..48_000,
        len_s in 16_000usize..48_000,
        seed in any::<u8>(),
    ) {
        let c2s: Vec<u8> = (0..len_c)
            .map(|i| ((i as u32).wrapping_mul(13).wrapping_add(seed as u32) % 251) as u8)
            .collect();
        let s2c: Vec<u8> = (0..len_s)
            .map(|i| ((i as u32).wrapping_mul(29).wrapping_add(seed as u32) % 251) as u8)
            .collect();
        let (got_s, got_c, faults) = fault_schedule_transfer(
            tso, gro, (sack, rack, pacing),
            drop_every, dup_every, reorder_every, corrupt_every, burst,
            &c2s, &s2c,
        );
        prop_assert_eq!(
            got_s.len(),
            c2s.len(),
            "client→server complete (drop={}, dup={}, reorder={}, corrupt={}, burst={:?}, tso={}, gro={}, sack={}, rack={}, pacing={})",
            drop_every, dup_every, reorder_every, corrupt_every, burst, tso, gro, sack, rack, pacing
        );
        prop_assert_eq!(got_s, c2s, "client→server byte-identical");
        prop_assert_eq!(
            got_c.len(),
            s2c.len(),
            "server→client complete (drop={}, dup={}, reorder={}, corrupt={}, burst={:?}, tso={}, gro={}, sack={}, rack={}, pacing={})",
            drop_every, dup_every, reorder_every, corrupt_every, burst, tso, gro, sack, rack, pacing
        );
        prop_assert_eq!(got_c, s2c, "server→client byte-identical");
        // Drop and dup cadences fire deterministically once enough
        // frames flow; reorder needs two frames staged at its tick,
        // corruption only touches IPv4 frames, and bursts have long
        // cadences, so none of those are guaranteed to land.
        if drop_every > 0 || dup_every > 0 {
            prop_assert!(
                faults > 0,
                "the schedule really perturbed the wire (drop={}, dup={}, reorder={}, corrupt={}, burst={:?}, tso={}, gro={}, len_c={}, len_s={})",
                drop_every, dup_every, reorder_every, corrupt_every, burst, tso, gro, len_c, len_s
            );
        }
    }
}

// --- SACK generation / scoreboard ≡ naive references -----------------
//
// Two sides of the SACK machinery, each checked against the obvious
// model: the receiver's block generation against RFC 2018/2883 rules
// computed from a set of received chunks, and the sender's scoreboard
// against a per-byte bitmap. Chunk-aligned ingest keeps the receiver
// reference exact (an arriving chunk is either entirely new or an
// exact duplicate of a queued one); the sender side uses arbitrary
// byte ranges because `sack_merge` is a pure union.

/// Establishes a server-side TCB with SACK negotiated (the peer's
/// SACK-permitted SYN replayed through `process_options`), returning
/// it alongside its `rcv_nxt` base.
fn sack_receiver(iss: u32) -> (Tcb, u32) {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(5000, 80, iss);
    pump(&mut client, &mut server);
    assert_eq!(server.state, TcpState::Established);
    server.configure(TcbConfig { sack: true, ..TcbConfig::default() });
    let syn = TcpHeader {
        src_port: 5000,
        dst_port: 80,
        seq: iss,
        ack: 0,
        flags: TcpFlags::SYN,
        window: 65535,
    };
    server.process_options(&syn, &TcpOptions::parse(&SACK_PERMITTED_OPT));
    let base = server.rcv_nxt();
    (server, base)
}

proptest! {
    /// Receiver SACK generation matches the RFC 2018/2883 reference:
    /// at most 3 regular blocks, the block containing the most
    /// recently received data first, remaining blocks ascending,
    /// blocks are exactly the maximal contiguous received ranges, and
    /// a duplicate arrival leads with a D-SACK block (RFC 2883).
    #[test]
    fn sack_blocks_match_rfc2018_reference(
        iss in prop_oneof![Just(7u32), Just(u32::MAX - 3_000)],
        chunks in proptest::collection::vec(1u32..61, 1..24),
    ) {
        const C: u32 = 100; // Chunk size (bytes); index 0 stays a hole.
        let (mut server, base) = sack_receiver(iss);
        let peer_ack = server.snd_nxt();
        let payload = [0xABu8; C as usize];
        let mut received: Vec<bool> = vec![false; 62];
        let mut last_new: u32 = 0;
        for &idx in &chunks {
            let seq = base.wrapping_add(idx * C);
            let dup = received[idx as usize];
            let h = TcpHeader {
                src_port: 5000,
                dst_port: 80,
                seq,
                ack: peer_ack,
                flags: TcpFlags { ack: true, psh: true, ..TcpFlags::default() },
                window: 65535,
            };
            server.on_segment(&h, &payload);
            received[idx as usize] = true;
            if !dup {
                last_new = idx;
            }
            let mut buf = [0u8; TCP_MAX_OPT_LEN];
            let n = server.fill_sack_option(&mut buf);
            prop_assert!(n > 0, "data is queued out of order: something to report");
            prop_assert!(n <= TCP_MAX_OPT_LEN);
            let opts = TcpOptions::parse(&buf[..n]);
            prop_assert_eq!(n, 4 + 8 * opts.sack_count, "layout: NOP NOP 5 len + 8/block");
            // Reference: maximal contiguous runs of received chunks.
            let mut runs: Vec<(u32, u32)> = Vec::new();
            for i in 1..62u32 {
                if received[i as usize] {
                    match runs.last_mut() {
                        Some(r) if r.1 == i => r.1 = i + 1,
                        _ => runs.push((i, i + 1)),
                    }
                }
            }
            let to_seq =
                |r: (u32, u32)| (base.wrapping_add(r.0 * C), base.wrapping_add(r.1 * C));
            let recent = runs
                .iter()
                .copied()
                .find(|r| r.0 <= last_new && last_new < r.1)
                .expect("the most recent new chunk is in some run");
            let mut expect: Vec<(u32, u32)> = Vec::new();
            if dup {
                // RFC 2883: the duplicate chunk itself, reported first.
                expect.push((seq, seq.wrapping_add(C)));
            }
            expect.push(to_seq(recent));
            for r in runs.iter().copied().filter(|&r| r != recent) {
                expect.push(to_seq(r));
            }
            expect.truncate(if dup { 4 } else { 3 }); // ≤ 3 regular blocks.
            prop_assert_eq!(
                &opts.sack_blocks[..opts.sack_count],
                &expect[..],
                "blocks = [D-SACK?] ++ [recent] ++ ascending rest (dup={}, idx={})",
                dup, idx
            );
            // The D-SACK was consumed: a second fill in the same poll
            // round would report only the regular blocks.
            let mut buf2 = [0u8; TCP_MAX_OPT_LEN];
            let n2 = server.fill_sack_option(&mut buf2);
            let opts2 = TcpOptions::parse(&buf2[..n2]);
            prop_assert_eq!(opts2.sack_count, runs.len().min(3));
        }
    }

    /// Sender scoreboard matches a naive per-byte bitmap under
    /// arbitrary SACK blocks and cumulative-ACK advances: the merged
    /// ranges are exactly the bitmap's maximal runs above `snd_una`,
    /// and D-SACK classification (first block at/below the cumulative
    /// ACK or re-reporting covered bytes) counts spurious
    /// retransmissions instead of merging.
    #[test]
    fn sack_scoreboard_matches_bitmap_reference(
        iss in prop_oneof![Just(7u32), Just(u32::MAX - 60_000)],
        ops in proptest::collection::vec(
            (0u32..3000, proptest::collection::vec((0u32..40_000, 1u32..2500), 0..4)),
            1..10,
        ),
    ) {
        const N: u32 = 40_000;
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(5000, 80, iss);
        pump(&mut client, &mut server);
        prop_assert_eq!(client.state, TcpState::Established);
        client.configure(TcbConfig { sack: true, ..TcbConfig::default() });
        let synack = TcpHeader {
            src_port: 80,
            dst_port: 5000,
            seq: 0,
            ack: 0,
            flags: TcpFlags { syn: true, ack: true, ..TcpFlags::default() },
            window: 65535,
        };
        client.process_options(&synack, &TcpOptions::parse(&SACK_PERMITTED_OPT));
        let base = client.snd_una();
        client.app_send(&vec![0x5Au8; N as usize]).unwrap();
        while client.snd_nxt().wrapping_sub(base) < N {
            let segs = client.poll_output();
            prop_assert!(!segs.is_empty(), "window admits the whole buffer");
        }
        prop_assert_eq!(client.snd_nxt().wrapping_sub(base), N);

        let mut bits = vec![false; N as usize];
        let mut cum: u32 = 0; // Relative cumulative ACK.
        let mut expect_spurious: u32 = 0;
        for (delta, blocks) in &ops {
            let new_cum = (cum + delta).min(N);
            let ack = base.wrapping_add(new_cum);
            let mut opts = TcpOptions::default();
            for (i, &(s_rel, len)) in blocks.iter().take(MAX_SACK_BLOCKS).enumerate() {
                let e_rel = (s_rel + len).min(N);
                opts.sack_blocks[i] =
                    (base.wrapping_add(s_rel), base.wrapping_add(e_rel));
                opts.sack_count = i + 1;
            }
            let h = TcpHeader {
                src_port: 80,
                dst_port: 5000,
                seq: client.rcv_nxt(),
                ack,
                flags: TcpFlags { ack: true, ..TcpFlags::default() },
                window: 65535,
            };
            client.process_options(&h, &opts);
            client.on_segment(&h, &[]);
            // Reference: the same classification rules over the bitmap.
            for (i, &(s, e)) in opts.sack_blocks[..opts.sack_count].iter().enumerate() {
                let (s_rel, e_rel) = (s.wrapping_sub(base), e.wrapping_sub(base));
                if s_rel >= e_rel {
                    continue;
                }
                let covered = bits[s_rel as usize..e_rel as usize].iter().all(|&b| b);
                if i == 0 && (e_rel <= new_cum || covered) {
                    expect_spurious += 1; // D-SACK: delivered twice.
                    continue;
                }
                if new_cum < s_rel && e_rel <= N {
                    bits[s_rel as usize..e_rel as usize].fill(true);
                }
            }
            if new_cum > cum {
                bits[..new_cum as usize].fill(false); // Retired by the ACK.
            }
            cum = new_cum;
            prop_assert_eq!(client.snd_una().wrapping_sub(base), cum);
            let mut expect: Vec<(u32, u32)> = Vec::new();
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    let i = i as u32;
                    match expect.last_mut() {
                        Some(r) if r.1 == base.wrapping_add(i) => {
                            r.1 = base.wrapping_add(i + 1)
                        }
                        _ => expect
                            .push((base.wrapping_add(i), base.wrapping_add(i + 1))),
                    }
                }
            }
            prop_assert_eq!(
                client.sacked_ranges(),
                &expect[..],
                "scoreboard == bitmap maximal runs (cum={}, op={:?})",
                cum, (delta, blocks)
            );
            prop_assert_eq!(client.stats().spurious_rtx, expect_spurious, "D-SACK classification");
        }
    }
}

// --- timer wheel ≡ naive sorted-list reference -----------------------
//
// The hierarchical wheel's contract: a timer armed for deadline `d`
// fires on the first advance where the wheel's tick reaches
// `floor(d / tick)`; arms in the past fire on the very next advance;
// cancel is exact and idempotent, stale tokens cancel nothing. The
// reference below is the obvious O(n) list every one of those words
// maps onto directly — the wheel must be indistinguishable from it
// under arbitrary interleavings of arm/cancel/advance, including
// clock jumps crossing cascade boundaries and jumps beyond the whole
// hierarchy span.

#[derive(Debug, Clone)]
enum WheelOp {
    /// Arm at `now + delta_ms` (negative = in the past).
    Arm { delta_ms: i64 },
    /// Cancel one of the tokens issued so far (stale ones included).
    Cancel { pick: usize },
    /// Advance the clock by `delta_ms` (0 = drain ready list only).
    Advance { delta_ms: u64 },
}

fn arb_wheel_op() -> impl Strategy<Value = WheelOp> {
    prop_oneof![
        4 => (-50i64..500).prop_map(|delta_ms| WheelOp::Arm { delta_ms }),
        2 => (0usize..4096).prop_map(|pick| WheelOp::Cancel { pick }),
        3 => prop_oneof![
            // Ordinary ticks, level-crossing jumps, and rare jumps
            // beyond the wheel's full span (64^4 ticks ≈ 4.7 h).
            8 => 0u64..150,
            3 => 1_000u64..600_000,
            1 => 17_000_000u64..20_000_000,
        ]
        .prop_map(|delta_ms| WheelOp::Advance { delta_ms }),
    ]
}

proptest! {
    /// The wheel is observationally identical to the naive reference:
    /// same fired keys (as a set — intra-advance order is
    /// unspecified), same cancel outcomes, same armed count, at every
    /// step of any operation sequence.
    #[test]
    fn timer_wheel_matches_naive_reference(
        ops in proptest::collection::vec(arb_wheel_op(), 1..80),
    ) {
        use uknetstack::timer::{TimerToken, TimerWheel, DEFAULT_TICK_NS};
        let mut wheel = TimerWheel::new();
        let mut now: u64 = 0;
        let mut next_id: u64 = 0;
        // The reference: armed timers as (id, deadline_tick), plus
        // every token ever issued so cancels can target stale ones.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut issued: Vec<(TimerToken, u64)> = Vec::new();
        for op in ops {
            match op {
                WheelOp::Arm { delta_ms } => {
                    let deadline = now.saturating_add_signed(delta_ms * 1_000_000);
                    let id = next_id;
                    next_id += 1;
                    let tok = wheel.arm(deadline, id);
                    model.push((id, deadline / DEFAULT_TICK_NS));
                    issued.push((tok, id));
                }
                WheelOp::Cancel { pick } => {
                    if issued.is_empty() {
                        continue;
                    }
                    let (tok, id) = issued[pick % issued.len()];
                    let wheel_hit = wheel.cancel(tok);
                    let model_pos = model.iter().position(|&(mid, _)| mid == id);
                    if let Some(pos) = model_pos {
                        model.swap_remove(pos);
                    }
                    prop_assert_eq!(
                        wheel_hit,
                        model_pos.is_some(),
                        "cancel outcome diverged for id {}", id
                    );
                }
                WheelOp::Advance { delta_ms } => {
                    now += delta_ms * 1_000_000;
                    let mut fired = Vec::new();
                    wheel.advance(now, |key, _| fired.push(key));
                    let tick = now / DEFAULT_TICK_NS;
                    let mut expected: Vec<u64> = model
                        .iter()
                        .filter(|&&(_, dt)| dt <= tick)
                        .map(|&(id, _)| id)
                        .collect();
                    model.retain(|&(_, dt)| dt > tick);
                    fired.sort_unstable();
                    expected.sort_unstable();
                    prop_assert_eq!(fired, expected, "fired set diverged at now={}", now);
                }
            }
            prop_assert_eq!(wheel.len(), model.len(), "armed count diverged");
        }
        // Drain everything: advance past the furthest deadline.
        let horizon = now + 30_000_000_000_000; // +8.3 h: beyond any arm.
        let mut fired = Vec::new();
        wheel.advance(horizon, |key, _| fired.push(key));
        let mut expected: Vec<u64> = model.iter().map(|&(id, _)| id).collect();
        fired.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(fired, expected, "final drain diverged");
        prop_assert!(wheel.is_empty());
    }
}

// --- held ACK ≡ immediate ACK on delivery ----------------------------

/// Runs one client→server transfer on a two-node net whose clock runs
/// (1 ms a step: a held ACK is released 40 steps on) or stands still
/// (a held ACK waits for `run_until_quiet`); returns the bytes the
/// server read.
fn delack_transfer(time_passes: bool, data: &[u8]) -> Vec<u8> {
    
    
    
    
    use uknetstack::testnet::{node, Network};
    use uknetstack::Endpoint;
    use ukplat::time::Tsc;

    let mut net = Network::new();
    net.attach(node(1, |_| {}));
    net.attach(node(2, |_| {}));
    if time_passes {
        let clock = Tsc::new(1_000_000_000);
        net.set_clock(&clock);
        net.set_step_ns(1_000_000); // 1 ms per step: 40 steps per hold.
    }
    let listener = net.stack(1).tcp_listen(80).unwrap();
    let client = net
        .stack(0)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
        .unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(1).tcp_accept(listener).unwrap();

    let mut buf = vec![0u8; 64 * 1024];
    let mut sent = 0;
    let mut got: Vec<u8> = Vec::with_capacity(data.len());
    for _ in 0..20_000 {
        if sent < data.len() {
            sent += net
                .stack(0)
                .tcp_send_queued(client, &data[sent..])
                .unwrap_or(0);
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
        if sent == data.len() && got.len() == data.len() {
            break;
        }
    }
    // The final ACK may still be held; `run_until_quiet` waits it
    // out (the unacknowledged tail pins retransmit-queue buffers).
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(512), "client pool whole");
    assert_eq!(net.stack(1).pool_available(), Some(512), "server pool whole");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Holding ACKs changes when acknowledgements travel, never what
    /// the application receives: for arbitrary payloads, delivery is
    /// byte-identical whether the hold timer gets to fire mid-transfer
    /// or time stands still until the end, and neither leaks a buffer.
    #[test]
    fn held_ack_delivery_is_byte_identical(
        len in 1usize..60_000,
        seed in any::<u8>(),
    ) {
        let data: Vec<u8> = (0..len)
            .map(|i| ((i as u32).wrapping_mul(23).wrapping_add(seed as u32) % 251) as u8)
            .collect();
        let held = delack_transfer(true, &data);
        let frozen = delack_transfer(false, &data);
        prop_assert_eq!(&held, &data, "held-ACK stream exact");
        prop_assert_eq!(held, frozen, "identical delivery either way");
    }
}

// --- ACK policy ≡ its reference --------------------------------------

/// What the reference knows about a receiver: which chunks of the
/// peer's stream arrived, what the application drained, and what the
/// receiver's own segments last told the peer — all observable from
/// outside the TCB.
struct AckModel {
    /// Stream offset of each chunk (one past the last at the end).
    offsets: Vec<usize>,
    have: Vec<bool>,
    /// First chunk not yet received: `offsets[next]` is `rcv_nxt`.
    next: usize,
    /// In-order bytes the application has not read yet.
    queued: usize,
    /// Cumulative ACK and window of the receiver's last segment.
    acked: usize,
    adv_wnd: usize,
    /// When the oldest unacknowledged byte arrived.
    unacked_since: Option<u64>,
    /// Something since the last ACK forbids holding the next one.
    ack_now: bool,
}

impl AckModel {
    const WND_UPDATE: usize = 2 * uknetstack::tcp::MSS; // < RCV_BUF_CAP / 2.

    fn rcv_nxt(&self) -> usize {
        self.offsets[self.next]
    }

    fn reassembly_queued(&self) -> bool {
        self.have[self.next..].iter().any(|&h| h)
    }

    /// Rules (a)–(e) of the ACK policy, stated independently: may the
    /// ACK of what has arrived wait for a segment to carry it?
    fn may_hold(&self) -> bool {
        let unacked = self.rcv_nxt() - self.acked;
        unacked <= uknetstack::tcp::MSS // (a) at most one MSS, in bytes
            && !self.reassembly_queued() // (b), and (d)'s owed SACK
            && !self.ack_now // (b) dup/hole fill, (c), (d) D-SACK, (e)
    }

    /// A chunk arrives: duplicates, arrivals ahead of a hole and hole
    /// fills all forbid holding (rule b).
    fn arrive(&mut self, idx: usize, now: u64) {
        self.ack_now |= idx != self.next || self.reassembly_queued();
        if idx >= self.next {
            self.have[idx] = true;
        }
        let before = self.rcv_nxt();
        while self.next < self.have.len() && self.have[self.next] {
            self.next += 1;
        }
        self.queued += self.rcv_nxt() - before;
        if self.rcv_nxt() > self.acked {
            self.unacked_since.get_or_insert(now);
        }
    }

    /// The application reads `n` bytes: rule (c) compares the right
    /// edge the peer was last told with the one it could be told now.
    fn drain(&mut self, n: usize) {
        self.queued -= n;
        let cap = uknetstack::tcp::RCV_BUF_CAP;
        let gain = (self.rcv_nxt() + cap - self.queued) - (self.acked + self.adv_wnd);
        self.ack_now |= n > 0 && (self.adv_wnd == 0 || gain >= Self::WND_UPDATE);
    }
}

proptest! {
    /// The ACK decision against its reference, over arbitrary arrival
    /// (in order, ahead of a hole, duplicated), drain, reply and
    /// waiting schedules: after every event the TCB
    /// holds an ACK exactly when the reference says it may, and in
    /// particular never with the reassembly queue non-empty, never
    /// with more than one MSS unacknowledged, and never past
    /// `DELACK_NS` after the oldest unacknowledged byte arrived.
    #[test]
    fn ack_policy_matches_reference(
        sizes in proptest::collection::vec(1usize..1461, 24..25),
        ops in proptest::collection::vec((0u8..12, 0usize..4096), 1..80),
        fin in any::<bool>(),
    ) {
        use uknetstack::tcp::{DELACK_NS, MSS, RCV_BUF_CAP};
        let mut server = Tcb::listen(80);
        let mut client = Tcb::connect(5000, 80, 1_000);
        pump(&mut client, &mut server);
        prop_assert_eq!(server.state, TcpState::Established);
        let base = server.rcv_nxt();
        let peer_ack = server.snd_nxt();
        let mut offsets = vec![0usize];
        for s in &sizes {
            offsets.push(offsets[offsets.len() - 1] + s);
        }
        let mut m = AckModel {
            offsets,
            have: vec![false; sizes.len()],
            next: 0,
            queued: 0,
            acked: 0,
            adv_wnd: RCV_BUF_CAP,
            unacked_since: None,
            ack_now: false,
        };
        let payload = [0x5Au8; MSS];
        let mut now = 1_000_000u64;
        let arrive = |server: &mut Tcb, m: &AckModel, idx: usize, fin: bool| {
            let h = TcpHeader {
                src_port: 5000,
                dst_port: 80,
                seq: base.wrapping_add(m.offsets[idx] as u32),
                ack: peer_ack,
                flags: TcpFlags { ack: true, psh: true, fin, ..TcpFlags::default() },
                window: 65535,
            };
            let len = if fin { 0 } else { m.offsets[idx + 1] - m.offsets[idx] };
            server.on_segment(&h, &payload[..len]);
        };
        for &(kind, arg) in &ops {
            server.set_now(now);
            let mut replied = false;
            match kind {
                // In-order arrival, ahead of a hole, or a duplicate.
                0..=5 if m.next < sizes.len() => {
                    let idx = match kind {
                        0..=3 => m.next,
                        4 => (m.next + 1 + arg % 2).min(sizes.len() - 1),
                        _ => arg % (m.next + 1),
                    };
                    arrive(&mut server, &m, idx, false);
                    m.arrive(idx, now);
                }
                6 | 7 => {
                    let n = (arg * 8).min(m.queued);
                    prop_assert_eq!(server.app_recv(n).len(), n);
                    m.drain(n);
                }
                8 | 9 => {
                    now += (1 + arg as u64 % 30) * 1_000_000;
                    server.set_now(now);
                    if server.deadline(TcbTimer::DelAck).is_some_and(|d| d <= now) {
                        // Rule (e): the stack's wheel would fire now.
                        let fires = server.stats().delack_fires;
                        server.on_timer(TcbTimer::DelAck, now);
                        prop_assert_eq!(server.stats().delack_fires, fires + 1);
                        m.ack_now = true;
                    }
                }
                10 => {
                    prop_assert_eq!(server.app_send(&payload[..1 + arg % 200]), Ok(1 + arg % 200));
                    replied = true;
                }
                _ => {}
            }
            let owed = m.rcv_nxt() > m.acked || m.ack_now;
            let expect_hold = owed && m.may_hold() && !replied;
            let out = server.poll_output();
            if let Some(last) = out.iter().rev().find(|s| s.header.flags.ack) {
                prop_assert_eq!(last.header.ack, base.wrapping_add(m.rcv_nxt() as u32));
                m.acked = m.rcv_nxt();
                m.adv_wnd = last.header.window as usize;
                m.unacked_since = None;
                m.ack_now = false;
            }
            prop_assert_eq!(
                out.is_empty(),
                !replied && (expect_hold || !owed),
                "an ACK leaves exactly when one is owed and may not wait (op {}/{})", kind, arg
            );
            prop_assert_eq!(server.deadline(TcbTimer::DelAck).is_some(), expect_hold, "op {}/{}", kind, arg);
            if let Some(deadline) = server.deadline(TcbTimer::DelAck) {
                prop_assert!(!m.reassembly_queued(), "held over a hole");
                prop_assert!(m.rcv_nxt() - m.acked <= MSS, "held with more than one MSS unacked");
                let since = m.unacked_since.expect("a held ACK acknowledges something");
                prop_assert!(deadline <= since + DELACK_NS, "held past DELACK_NS");
                prop_assert!(deadline > now, "a due ACK was fired above");
            }
        }
        if fin && !m.reassembly_queued() && m.next < sizes.len() {
            // Rule (d): a FIN is acknowledged at once, whatever was held.
            arrive(&mut server, &m, m.next, true);
            let out = server.poll_output();
            prop_assert!(out.iter().any(|s| s.header.flags.ack));
            prop_assert_eq!(server.deadline(TcbTimer::DelAck), None);
        }
    }
}

// --- SYN flood interleaved with live transfers -----------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A SYN flood pounding the same listener an established
    /// connection came from — at arbitrary burst sizes and cadences —
    /// never corrupts the established stream and never leaks: the
    /// embryos the flood parks are reclaimed by the handshake timer
    /// and every pooled buffer comes home.
    #[test]
    fn syn_flood_interleaving_preserves_established_streams(
        len in 4_000usize..40_000,
        burst in 2usize..12,
        cadence in 2usize..8,
        backlog in 8usize..32,
        seed in any::<u8>(),
    ) {
        
        
        
        use uknetstack::stack::HANDSHAKE_TIMEOUT_NS;
        use uknetstack::testnet::{node, Network};
        use uknetstack::Endpoint;
        use ukplat::time::Tsc;

        let mk = |n: u8| {
            node(n, |cfg| {
                cfg.listen_backlog = backlog;
            })
        };
        let mut net = Network::new();
        net.attach(mk(1));
        net.attach(mk(2));
        let clock = Tsc::new(1_000_000_000);
        net.set_clock(&clock);
        net.set_step_ns(5_000_000); // 5 ms per step.
        let listener = net.stack(1).tcp_listen(80).unwrap();
        let client = net
            .stack(0)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        net.run_until_quiet(32);
        let conn = net.stack(1).tcp_accept(listener).unwrap();

        let data: Vec<u8> = (0..len)
            .map(|i| ((i as u32).wrapping_mul(41).wrapping_add(seed as u32) % 251) as u8)
            .collect();
        let mut buf = vec![0u8; 64 * 1024];
        let mut sent = 0;
        let mut flooded = 0;
        let mut got: Vec<u8> = Vec::with_capacity(data.len());
        for round in 0..20_000 {
            if round % cadence == 0 {
                net.syn_flood(1, 80, flooded, burst, burst);
                flooded += burst;
            }
            if sent < data.len() {
                sent += net
                    .stack(0)
                    .tcp_send_queued(client, &data[sent..])
                    .unwrap_or(0);
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
            if sent == data.len() && got.len() == data.len() {
                break;
            }
        }
        prop_assert_eq!(&got, &data, "established stream intact through the flood");

        // Every embryo the flood parked is reclaimed by the handshake
        // timer, and nothing leaked anywhere.
        for _ in 0..(HANDSHAKE_TIMEOUT_NS / 5_000_000) as usize + 8 {
            net.step();
        }
        prop_assert_eq!(
            net.stack(1).tcp_conn_count(),
            1,
            "only the established connection survives"
        );
        net.run_until_quiet(32);
        prop_assert_eq!(net.stack(1).pool_available(), Some(512), "server pool whole");
        prop_assert_eq!(net.stack(0).pool_available(), Some(512), "client pool whole");
    }
}

/// [`pump`], then time: whenever both TCBs are quiet the clock jumps to
/// the earlier of their next deadlines and fires it, until neither has
/// a segment to send or a deadline to wait for.
fn settle(a: &mut Tcb, b: &mut Tcb) {
    for _ in 0..64 {
        pump(a, b);
        let Some(now) = a.next_deadline().into_iter().chain(b.next_deadline()).min() else {
            return;
        };
        a.on_time(now);
        b.on_time(now);
    }
    panic!("still busy after 64 deadlines");
}

/// Drives two TCBs against each other until quiescent.
fn pump(a: &mut Tcb, b: &mut Tcb) {
    for _ in 0..64 {
        let fa = a.poll_output();
        let fb = b.poll_output();
        if fa.is_empty() && fb.is_empty() {
            break;
        }
        for s in fa {
            b.on_segment(&s.header, &s.payload);
        }
        for s in fb {
            a.on_segment(&s.header, &s.payload);
        }
    }
}
