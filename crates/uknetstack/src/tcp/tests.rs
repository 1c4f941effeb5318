//! Raw TCB pairs, no stack: the codec, the state machine, the queues
//! and every timer kind, each driven through the owner's seam.
// `mod.rs` gates this module already; the inner attribute is how
// `ukcheck` knows the file is test code (not hot, not counted).
#![cfg(test)]

use super::*;
use crate::ipv4::{IpProto, Ipv4Header};
use crate::{Csum, Ipv4Addr};
use ukplat::Errno;

fn ip(len: usize) -> Ipv4Header {
    Ipv4Header {
        src: Ipv4Addr::new(10, 0, 0, 1),
        dst: Ipv4Addr::new(10, 0, 0, 2),
        proto: IpProto::Tcp,
        payload_len: len,
        ttl: 64,
    }
}

#[test]
fn header_roundtrip() {
    let h = TcpHeader {
        src_port: 4000,
        dst_port: 80,
        seq: 12345,
        ack: 67890,
        flags: TcpFlags {
            syn: true,
            ack: true,
            ..Default::default()
        },
        window: 65535,
    };
    let seg = h.encode(&ip(TCP_HDR_LEN + 3), b"abc");
    let (h2, p) = TcpHeader::decode(&ip(TCP_HDR_LEN + 3), &seg).unwrap();
    assert_eq!(h, h2);
    assert_eq!(p, b"abc");
}

const SYN: TcpHeader =
    TcpHeader { src_port: 1, dst_port: 2, seq: 0, ack: 0, flags: TcpFlags::SYN, window: 0 };

#[test]
#[should_panic(expected = "padded to 32-bit words")]
fn emit_rejects_unpadded_options() {
    SYN.emit(&ip(TCP_HDR_LEN + 3), &mut Netbuf::alloc(256, 64), &[1, 4, 2], Csum::Software);
}

#[test]
#[should_panic]
fn emit_rejects_short_headroom() {
    let mut nb = Netbuf::alloc(256, TCP_HDR_LEN + 3);
    SYN.emit(&ip(TCP_HDR_LEN + 4), &mut nb, &SACK_PERMITTED_OPT, Csum::Offload);
}

/// Drives two TCBs against each other until no segments remain.
fn pump(a: &mut Tcb, b: &mut Tcb) {
    for _ in 0..32 {
        let from_a = a.poll_output();
        let from_b = b.poll_output();
        if from_a.is_empty() && from_b.is_empty() {
            break;
        }
        for s in from_a {
            b.on_segment(&s.header, &s.payload);
        }
        for s in from_b {
            a.on_segment(&s.header, &s.payload);
        }
    }
}

/// [`pump`], then time: whenever both ends are quiet the clock jumps
/// to the earlier of their next deadlines and fires it, until
/// neither has a segment to send or a deadline to wait for.
fn settle(a: &mut Tcb, b: &mut Tcb) {
    for _ in 0..64 {
        pump(a, b);
        let Some(now) = a.next_deadline().into_iter().chain(b.next_deadline()).min() else {
            return;
        };
        a.on_time(now);
        b.on_time(now);
    }
    panic!("still busy after 64 deadlines: {:?} / {:?}", a.next_deadline(), b.next_deadline());
}

#[test]
fn three_way_handshake() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1000);
    pump(&mut client, &mut server);
    assert_eq!(client.state, TcpState::Established);
    assert_eq!(server.state, TcpState::Established);
    assert_eq!(server.remote_port(), 4000);
}

#[test]
fn data_transfer_both_directions() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    client.app_send(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    pump(&mut client, &mut server);
    assert_eq!(server.app_recv(1024), b"GET / HTTP/1.1\r\n\r\n");
    server.app_send(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
    pump(&mut client, &mut server);
    assert_eq!(client.app_recv(1024), b"HTTP/1.1 200 OK\r\n\r\n");
}

#[test]
fn large_payload_is_segmented_by_mss() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    let big = vec![0x5a; MSS * 3 + 100];
    client.app_send(&big).unwrap();
    let segs = client.poll_output();
    let data_segs: Vec<_> = segs.iter().filter(|s| !s.payload.is_empty()).collect();
    assert_eq!(data_segs.len(), 4);
    assert!(data_segs[..3].iter().all(|s| s.payload.len() == MSS));
    assert!(data_segs[3].header.flags.psh);
    for s in segs {
        server.on_segment(&s.header, &s.payload);
    }
    assert_eq!(server.readable(), big.len());
    assert_eq!(server.app_recv(usize::MAX), big);
}

#[test]
fn orderly_close_four_way() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    client.app_close();
    pump(&mut client, &mut server);
    assert_eq!(server.state, TcpState::CloseWait);
    assert!(server.peer_closed());
    assert_eq!(client.state, TcpState::FinWait2, "our FIN is acknowledged");
    server.app_close();
    pump(&mut client, &mut server);
    assert_eq!(server.state, TcpState::Closed);
    assert_eq!(client.state, TcpState::TimeWait, "the active closer lingers");
    let entered = client.now_ns;
    settle(&mut client, &mut server);
    assert_eq!(client.state, TcpState::Closed);
    assert_eq!(client.timed_out(), Some(TcpState::TimeWait));
    assert_eq!(client.now_ns, entered + 2 * TCP_MSL_NS, "after 2MSL, no sooner");
    assert_eq!((client.stats().timewait, server.stats().timewait), (1, 0));
    assert_eq!(server.timed_out(), None, "the passive closer was closed by an ACK");
}

#[test]
fn send_before_established_fails() {
    let mut c = Tcb::connect(1, 2, 0);
    assert_eq!(c.app_send(b"x").unwrap_err(), Errno::NotConn);
}

#[test]
fn app_send_is_partial_against_buffer_cap() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    let big = vec![0x7fu8; SND_BUF_CAP + 10_000];
    let accepted = client.app_send(&big).unwrap();
    assert_eq!(accepted, SND_BUF_CAP, "partial write at the cap");
    assert_eq!(client.send_capacity(), 0);
    assert_eq!(client.app_send(b"more").unwrap_err(), Errno::Again);
}

#[test]
fn window_closes_then_reopens_on_drain() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    // More than one full receive window, queued at once.
    let big: Vec<u8> = (0..RCV_BUF_CAP + 1)
        .map(|i| (i % 251) as u8)
        .collect();
    let accepted = client.app_send(&big).unwrap();
    assert_eq!(accepted, big.len(), "fits the send buffer");
    pump(&mut client, &mut server);
    // The receiver's window admitted exactly one window's worth; the
    // tail stays queued and the tx window is reported closed.
    assert_eq!(server.readable(), RCV_BUF_CAP);
    assert!(client.window_closed(), "zero window reached");
    // Draining the receiver emits a window update that releases the
    // remaining byte — nothing was dropped.
    let first = server.app_recv(usize::MAX);
    pump(&mut client, &mut server);
    let rest = server.app_recv(usize::MAX);
    assert!(!client.window_closed());
    let mut all = first;
    all.extend_from_slice(&rest);
    assert_eq!(all, big, "stream intact across the closed-window stretch");
}

#[test]
fn fin_waits_for_window_limited_data() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    let big = vec![1u8; RCV_BUF_CAP + 5];
    client.app_send(&big).unwrap();
    client.app_close();
    pump(&mut client, &mut server);
    // FIN must not overtake the queued tail.
    assert!(!server.peer_fin_seen(), "FIN held back behind data");
    server.app_recv(usize::MAX);
    pump(&mut client, &mut server);
    server.app_recv(usize::MAX);
    pump(&mut client, &mut server);
    assert!(server.peer_fin_seen(), "FIN delivered after drain");
}

/// The audit pinning super-segment output against the send-queue
/// and window machinery: every emitted byte range must be
/// contiguous in sequence space (no double-send), and draining the
/// receiver must always release the queued tail (no stall) — even
/// when a partial peer window splits a super-segment mid-buffer,
/// leaving a partially-consumed buffer at the queue front.
#[test]
fn partial_window_splits_super_segment_without_stall_or_double_send() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    let total = SND_BUF_CAP; // One byte beyond the 65535 window.
    let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
    assert_eq!(client.app_send(&data).unwrap(), total);

    let gso_budget = 60 * 1024;
    let mut stream: Vec<u8> = Vec::new();
    let mut next_seq: Option<u32> = None;
    for _ in 0..64 {
        let mut progressed = false;
        for s in client.poll_output_seg(gso_budget) {
            if !s.payload.is_empty() {
                // Sequence space must advance without gap or
                // overlap across window-split super-segments.
                if let Some(exp) = next_seq {
                    assert_eq!(s.header.seq, exp, "contiguous super-segments");
                }
                next_seq = Some(s.header.seq.wrapping_add(s.payload.len() as u32));
                stream.extend_from_slice(&s.payload);
            }
            server.on_segment(&s.header, &s.payload);
            progressed = true;
        }
        // The receiver drains slowly, reopening the window a
        // little at a time — the split points move around and
        // land mid-buffer (7000 is not a buffer multiple).
        server.app_recv(7000);
        for s in server.poll_output() {
            client.on_segment(&s.header, &s.payload);
        }
        if !progressed && stream.len() == total && server.readable() == 0 {
            break;
        }
    }
    assert_eq!(stream.len(), total, "no byte stalled behind a split window");
    assert_eq!(stream, data, "byte stream intact, nothing double-sent");
    assert_eq!(client.bytes_in_flight(), 0, "everything acknowledged");
}

/// The zero-copy send queue: emitting a super-segment *moves* the
/// queued buffers into the chain instead of copying — only a
/// window/budget boundary mid-buffer copies the split-off part.
#[test]
fn super_segment_emission_moves_queued_buffers() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    let data = vec![0x3cu8; 10_000];
    client.app_send(&data).unwrap();
    let mut takes = 0usize;
    let mut chains = Vec::new();
    client.poll_output_chain_with(
        60 * 1024,
        || {
            takes += 1;
            Netbuf::alloc(2048, 64)
        },
        |_, chain| chains.push(chain),
    );
    assert_eq!(chains.len(), 1, "one super-segment");
    let chain = chains.pop().unwrap();
    assert_eq!(chain.chain_len(), 10_000);
    assert!(chain.frag_count() > 1, "payload spans a chain");
    assert_eq!(
        takes, 0,
        "no buffer was taken at emission: the queue's own buffers moved"
    );
}

/// The receive buffer is still a byte ring: after drain/refill
/// cycles its contents wrap the backing storage and
/// `app_recv_into_with` reads cross the wrap point as two slices. The
/// delivered stream must stay exact through the wrap.
#[test]
fn recv_ring_wraparound_keeps_stream_exact() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    let mut sent_log: Vec<u8> = Vec::new();
    let mut rcvd_log: Vec<u8> = Vec::new();
    let mut out = vec![0u8; 40_000];
    for round in 0..8u32 {
        // Keep a residue buffered (read less than arrived) so the
        // ring head advances without resetting, forcing wraps.
        let data: Vec<u8> =
            (0..30_000).map(|i| ((i as u32 * 31 + round) % 251) as u8).collect();
        assert_eq!(client.app_send(&data).unwrap(), data.len());
        sent_log.extend_from_slice(&data);
        pump(&mut client, &mut server);
        let n = server.app_recv_into_with(&mut out[..29_000], |_| {});
        rcvd_log.extend_from_slice(&out[..n]);
    }
    // Drain the residue.
    loop {
        let n = server.app_recv_into_with(&mut out, |_| {});
        if n == 0 {
            break;
        }
        rcvd_log.extend_from_slice(&out[..n]);
    }
    pump(&mut client, &mut server);
    assert_eq!(rcvd_log.len(), sent_log.len(), "no byte lost across wraps");
    assert_eq!(rcvd_log, sent_log, "stream exact through ring wraps");
}

/// Moves `len` bytes client → server over a raw TCB pair whose client
/// starts at sequence number `iss`, writing what `app_send` accepts and
/// settling between writes. Returns what the server read and both
/// ends' counters.
fn stream_from(iss: u32, len: usize) -> (Vec<u8>, TcbStats, TcbStats) {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, iss);
    settle(&mut client, &mut server);
    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    let (mut sent, mut got) = (0, Vec::with_capacity(len));
    while got.len() < len {
        sent += client.app_send(&data[sent..]).unwrap();
        settle(&mut client, &mut server);
        got.extend(server.app_recv(usize::MAX));
    }
    let end = iss.wrapping_add(1 + len as u32);
    assert_eq!((client.snd_una(), server.rcv_nxt()), (end, end), "iss {iss}: all acknowledged");
    (got, *client.stats(), *server.stats())
}

/// A stream whose sequence numbers cross 2³² three segments in moves
/// the same bytes with the same events as one that starts at 1: every
/// comparison on both sides is modular. The wire is clean — a raw
/// TCB's data cannot be retransmitted (no owner returns its TX holds).
#[test]
fn a_stream_across_the_sequence_wrap_matches_one_below_it() {
    const LEN: usize = 256 * 1024;
    let wrap_iss = u32::MAX - 3 * MSS as u32;
    assert!(wrap_iss.checked_add(1 + LEN as u32).is_none(), "the stream crosses 2^32");
    let (low_data, low_client, low_server) = stream_from(1, LEN);
    let (wrap_data, wrap_client, wrap_server) = stream_from(wrap_iss, LEN);
    let expected: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    assert!(low_data == expected, "the stream below the wrap arrives intact");
    assert!(wrap_data == low_data, "byte-identical delivery across the wrap");
    assert_eq!(wrap_client, low_client, "client counters");
    assert_eq!(wrap_server, low_server, "server counters");
}

#[test]
fn acks_coalesce_across_an_ingest_burst() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    client.app_send(&vec![0x11u8; MSS * 8]).unwrap();
    let segs = client.poll_output();
    assert_eq!(segs.len(), 8);
    for s in &segs {
        server.on_segment(&s.header, &s.payload);
    }
    let acks = server.poll_output();
    assert_eq!(acks.len(), 1, "one coalesced ACK for the whole burst");
    assert_eq!(
        acks[0].header.ack,
        segs.last().unwrap().header.seq.wrapping_add(MSS as u32),
        "cumulative acknowledgement"
    );
}

/// The silent-drop regression: a duplicated segment (seq <
/// rcv_nxt) must be answered with an immediate pure ACK at the
/// cumulative position — the old code dropped it without a word,
/// so a peer waiting for that acknowledgement wedged forever.
#[test]
fn duplicated_segment_gets_an_immediate_dup_ack() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    client.app_send(b"hello dup").unwrap();
    let segs = client.poll_output();
    for s in &segs {
        server.on_segment(&s.header, &s.payload);
    }
    let _ = server.poll_output(); // Drain the first ACK.
    let expected_ack = server.rcv_nxt;
    // The same data segment arrives again (duplicated delivery).
    let data_seg = segs.iter().find(|s| !s.payload.is_empty()).unwrap();
    server.on_segment(&data_seg.header, &data_seg.payload);
    assert_eq!(server.readable(), b"hello dup".len(), "no double ingest");
    let acks = server.poll_output();
    assert_eq!(acks.len(), 1, "dup-ACK emitted, not silence");
    assert!(acks[0].payload.is_empty());
    assert!(acks[0].header.flags.ack);
    assert_eq!(
        acks[0].header.ack, expected_ack,
        "dup-ACK carries the cumulative position"
    );
}

/// Out-of-window (future) data is also dropped loudly: the pure
/// ACK at rcv_nxt is what tells the peer to retransmit the gap.
#[test]
fn out_of_order_segment_is_dropped_with_a_dup_ack() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    let rcv_before = server.rcv_nxt;
    let gap = TcpHeader {
        src_port: 4000,
        dst_port: 80,
        seq: rcv_before.wrapping_add(1000), // A hole precedes this.
        ack: server.snd_nxt,
        flags: TcpFlags {
            ack: true,
            psh: true,
            ..Default::default()
        },
        window: 65535,
    };
    server.on_segment(&gap, b"future bytes");
    assert_eq!(server.readable(), 0, "gapped data not ingested");
    assert_eq!(server.rcv_nxt, rcv_before, "sequence space untouched");
    let acks = server.poll_output();
    assert_eq!(acks.len(), 1, "drop is acknowledged, not silent");
    assert_eq!(acks[0].header.ack, rcv_before);
}

/// The FIN-desync regression: a FIN riding a segment whose payload
/// was dropped (out-of-order) must not advance `rcv_nxt` or
/// transition state — the old code did both, corrupting the
/// sequence space so the real data could never be accepted.
#[test]
fn fin_with_dropped_out_of_order_data_does_not_desync() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    let rcv_before = server.rcv_nxt;
    // An out-of-order data+FIN segment: its payload starts one
    // byte past rcv_nxt, so nothing can be accepted.
    let ooo = TcpHeader {
        src_port: 4000,
        dst_port: 80,
        seq: rcv_before.wrapping_add(1),
        ack: server.snd_nxt,
        flags: TcpFlags {
            ack: true,
            fin: true,
            psh: true,
            ..Default::default()
        },
        window: 65535,
    };
    server.on_segment(&ooo, b"tail");
    assert_eq!(server.state, TcpState::Established, "no bogus CloseWait");
    assert_eq!(server.rcv_nxt, rcv_before, "FIN did not eat a sequence");
    assert!(!server.peer_fin_seen());
    let acks = server.poll_output();
    assert_eq!(acks.len(), 1, "the drop was dup-ACKed");
    assert_eq!(acks[0].header.ack, rcv_before);
    // The stream still works: the in-order bytes and FIN arrive
    // and the connection closes normally.
    client.app_send(b"xtail").unwrap();
    client.app_close();
    pump(&mut client, &mut server);
    assert_eq!(server.app_recv(usize::MAX), b"xtail", "stream intact");
    assert_eq!(server.state, TcpState::CloseWait, "real FIN processed");
    assert!(server.peer_fin_seen());
}

/// A FIN-only segment that is itself out of order (retransmitted
/// duplicate) is ignored but acknowledged.
#[test]
fn duplicate_fin_is_not_processed_twice() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    client.app_close();
    let segs = client.poll_output();
    let fin = segs.iter().find(|s| s.header.flags.fin).unwrap();
    server.on_segment(&fin.header, &fin.payload);
    assert_eq!(server.state, TcpState::CloseWait);
    let rcv_after_fin = server.rcv_nxt;
    let _ = server.poll_output();
    // The same FIN again: seq now sits one below rcv_nxt.
    server.on_segment(&fin.header, &fin.payload);
    assert_eq!(server.rcv_nxt, rcv_after_fin, "FIN consumed exactly once");
    assert_eq!(server.state, TcpState::CloseWait);
    let acks = server.poll_output();
    assert_eq!(acks.len(), 1, "duplicate FIN is re-ACKed");
    assert_eq!(acks[0].header.ack, rcv_after_fin);
}

/// The zero-copy receive queue: ingested buffers come back out
/// whole through `app_recv_netbuf`, in order, and mixing the copy
/// path with the netbuf path preserves the stream (a partially
/// copied buffer retains its tail at the queue front).
#[test]
fn recv_netbuf_hands_out_ingested_buffers_in_order() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    client.app_send(b"first-segment").unwrap();
    for s in client.poll_output() {
        server.on_segment(&s.header, &s.payload);
    }
    client.app_send(b"second-segment").unwrap();
    for s in client.poll_output() {
        server.on_segment(&s.header, &s.payload);
    }
    assert_eq!(server.readable(), 27);
    // Copy out part of the first buffer; the tail must be retained.
    let mut head = [0u8; 6];
    assert_eq!(server.app_recv_into_with(&mut head, |_| {}), 6);
    assert_eq!(&head, b"first-");
    let nb = server.app_recv_netbuf().expect("retained tail");
    assert_eq!(nb.payload(), b"segment");
    let nb2 = server.app_recv_netbuf().expect("second buffer");
    assert_eq!(nb2.payload(), b"second-segment");
    assert!(server.app_recv_netbuf().is_none());
    assert_eq!(server.readable(), 0);
}

/// A connection driven until `kind` is armed on the TCB it
/// returns.
fn armed(kind: TcbTimer) -> Tcb {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1000);
    if kind == TcbTimer::Life {
        // A SYN nobody answers: the handshake is on the clock.
        client.poll_output();
        return client;
    }
    pump(&mut client, &mut server);
    // A flight nobody acknowledges arms the RTO and, ahead of it,
    // RACK's tail-loss probe.
    client.app_send(&[7; 20_000]).unwrap();
    let flight = client.poll_output();
    match kind {
        TcbTimer::Rto | TcbTimer::Rack => client,
        // One segment's ACK is held for a reply to carry.
        TcbTimer::DelAck => {
            server.on_segment(&flight[0].header, &flight[0].payload);
            assert!(server.poll_output().is_empty(), "the ACK is held");
            server
        }
        TcbTimer::Life => unreachable!("returned above"),
    }
}

#[test]
fn every_timer_kind_arms_fires_counts_and_clears() {
    for kind in TcbTimer::ALL {
        let mut tcb = armed(kind);
        let due = tcb.deadline(kind).unwrap_or_else(|| panic!("{kind:?} is armed"));
        let before = *tcb.stats();
        tcb.on_timer(kind, due);
        let after = *tcb.stats();
        let fired = match kind {
            TcbTimer::Rto => after.rto_fires - before.rto_fires,
            TcbTimer::DelAck => after.delack_fires - before.delack_fires,
            TcbTimer::Rack => {
                (after.fast_retransmits + after.tlp_probes)
                    - (before.fast_retransmits + before.tlp_probes)
            }
            TcbTimer::Life => u32::from(tcb.timed_out() == Some(TcpState::SynSent)),
        };
        assert_eq!(fired, 1, "{kind:?} counted its fire");
        // Spent: disarmed — or, for the RTO, backed off to a later one.
        assert!(
            tcb.deadline(kind).is_none_or(|next| next > due),
            "{kind:?} still due at {due}: {:?}",
            tcb.deadline(kind)
        );
        assert_eq!(tcb.deadline(kind).is_some(), kind == TcbTimer::Rto);
    }
}

/// SACK blocks count only once both ends have negotiated SACK. A sender
/// configured for it, whose peer's SYN-ACK carried no SACK-permitted,
/// ignores the blocks a forged ACK brings: a block above the cumulative
/// ACK stays off the scoreboard, and a D-SACK-shaped one neither counts
/// a spurious retransmission nor undoes the RTO's back-off.
#[test]
fn sack_blocks_from_a_peer_that_never_negotiated_sack_are_ignored() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1000);
    client.configure(TcbConfig { sack: true, ..TcbConfig::default() });
    pump(&mut client, &mut server); // Raw TCBs carry no options.
    client.app_send(&[9; 2 * MSS]).unwrap();
    assert_eq!(client.poll_output().len(), 2, "a flight of two segments");
    let una = client.snd_una();
    let rto = client.deadline(TcbTimer::Rto).expect("RTO armed");
    client.on_timer(TcbTimer::Rto, rto);
    let timeout = client.rto.timeout_ns();
    let ack = TcpHeader {
        src_port: 80,
        dst_port: 4000,
        seq: client.rcv_nxt(),
        ack: una,
        flags: TcpFlags::ACK,
        window: 65_535,
    };
    let above = (una.wrapping_add(MSS as u32), una.wrapping_add(2 * MSS as u32));
    for block in [above, (una.wrapping_sub(4), una)] {
        let mut opts = TcpOptions::default();
        opts.sack_blocks[0] = block;
        opts.sack_count = 1;
        client.process_options(&ack, &opts);
        client.on_segment(&ack, &[]);
    }
    assert_eq!(client.sacked_ranges(), &[], "no block reached the scoreboard");
    assert_eq!(client.stats().spurious_rtx, 0, "no D-SACK was counted");
    assert_eq!(client.rto.timeout_ns(), timeout, "the back-off stands");
}

/// Jumps `tcb`'s clock to its next deadline and fires it; the
/// segments that leaves behind are returned, undelivered.
fn wait(tcb: &mut Tcb) -> Vec<OutSegment> {
    let now = tcb.next_deadline().expect("a deadline to wait for");
    tcb.on_time(now);
    tcb.poll_output()
}

#[test]
fn unanswered_syn_is_retransmitted_then_times_out() {
    let mut client = Tcb::connect(4000, 80, 1);
    assert_eq!(client.poll_output().len(), 1, "the SYN");
    let mut syns = 0;
    while client.state == TcpState::SynSent {
        syns += wait(&mut client).iter().filter(|s| s.header.flags.syn).count();
    }
    assert_eq!(syns, 2, "retransmitted after 1 s and 3 s; the third is not due by 6 s");
    assert_eq!(client.state, TcpState::Closed);
    assert_eq!(client.timed_out(), Some(TcpState::SynSent));
    assert_eq!(client.now_ns, HANDSHAKE_TIMEOUT_NS);
    assert!(client.poll_output().is_empty(), "a timed-out connection sends nothing");
    assert_eq!(client.next_deadline(), None, "and waits for nothing");
}

#[test]
fn fin_wait_2_orphan_times_out() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    client.app_close();
    pump(&mut client, &mut server);
    assert_eq!((client.state, server.state), (TcpState::FinWait2, TcpState::CloseWait));
    // The server never closes its side.
    settle(&mut client, &mut server);
    assert_eq!(client.state, TcpState::Closed);
    assert_eq!(client.timed_out(), Some(TcpState::FinWait2));
    assert_eq!(client.now_ns, FINWAIT2_TIMEOUT_NS);
    assert_eq!(server.state, TcpState::CloseWait, "nobody told the server");
}

#[test]
fn keepalive_probes_an_idle_peer_and_closes_on_a_dead_one() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    client.configure(TcbConfig { keepalive: true, ..TcbConfig::default() });
    pump(&mut client, &mut server);
    assert_eq!(client.deadline(TcbTimer::Life), Some(KEEPALIVE_IDLE_NS));
    assert_eq!(server.deadline(TcbTimer::Life), None, "keepalive is per side");

    // A live peer: every probe is out of window, so it is answered
    // at once, and the answer starts the idle time over.
    for round in 1..=3u64 {
        // (The wake a probe interval after an answered probe finds
        // the idle time started over, and sends nothing.)
        let probe = std::iter::repeat_with(|| wait(&mut client)).find(|out| !out.is_empty()).unwrap();
        assert_eq!(client.now_ns, round * KEEPALIVE_IDLE_NS);
        assert_eq!(probe.len(), 1, "{probe:?}");
        assert_eq!(probe[0].header.seq, client.snd_nxt().wrapping_sub(1));
        server.on_segment(&probe[0].header, &[]);
        let answer = server.poll_output();
        assert_eq!(answer.len(), 1, "{answer:?}");
        client.on_segment(&answer[0].header, &[]);
        assert!(client.poll_output().is_empty());
    }
    assert_eq!(client.state, TcpState::Established);
    assert_eq!((client.stats().keepalive_probes, client.stats().keepalive_drops), (3, 0));

    // A dead one: the probes leave a second apart and nothing comes
    // back; the one after the last closes.
    let idle_from = client.now_ns;
    assert!(wait(&mut client).is_empty(), "idle since the last answer: nothing to send yet");
    for _ in 0..KEEPALIVE_PROBES {
        assert_eq!(wait(&mut client).len(), 1);
    }
    assert_eq!(client.state, TcpState::Established);
    assert!(wait(&mut client).is_empty());
    assert_eq!(client.state, TcpState::Closed);
    assert_eq!(client.timed_out(), Some(TcpState::Established));
    assert_eq!(
        client.now_ns,
        idle_from + KEEPALIVE_IDLE_NS + KEEPALIVE_PROBES as u64 * KEEPALIVE_INTVL_NS
    );
    assert_eq!((client.stats().keepalive_probes, client.stats().keepalive_drops), (6, 1));
}

#[test]
fn rst_kills_connection() {
    let mut server = Tcb::listen(80);
    let mut client = Tcb::connect(4000, 80, 1);
    pump(&mut client, &mut server);
    let rst = TcpHeader {
        src_port: 80,
        dst_port: 4000,
        seq: 0,
        ack: 0,
        flags: TcpFlags {
            rst: true,
            ..Default::default()
        },
        window: 0,
    };
    client.on_segment(&rst, &[]);
    assert_eq!(client.state, TcpState::Closed);
}
