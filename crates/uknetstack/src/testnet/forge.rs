//! Traffic no attached stack sent: ARP replies and TCP segments forged
//! from spoofed peers, delivered straight into a stack's RX ring.

use uknetdev::netbuf::Netbuf;

use super::Network;
use crate::arp::{ArpOp, ArpPacket};
use crate::eth::{EthHeader, EtherType};
use crate::ipv4::{IpProto, Ipv4Header};
use crate::tcp::{TcpFlags, TcpHeader, TCP_HDR_LEN};
use crate::{Csum, Endpoint, Ipv4Addr, Mac};

impl Network {
    /// Teaches stack `dst` an ARP mapping by injecting a forged reply,
    /// the way an attacker on the L2 segment would poison the cache.
    /// The mapping lets the victim's responses (SYN-ACKs, RSTs) leave
    /// the stack instead of parking on a never-answered ARP request —
    /// they cross the wire to a MAC nobody owns and are recycled, so
    /// robustness tests can leak-check the victim's pool.
    pub fn inject_arp_reply(&mut self, dst: usize, ip: Ipv4Addr, mac: Mac) {
        let victim_mac = self.stacks[dst].mac();
        let victim_ip = self.stacks[dst].ip();
        let mut nb = Netbuf::alloc(2048, 64);
        nb.append(
            &ArpPacket {
                op: ArpOp::Reply,
                sha: mac,
                spa: ip,
                tha: victim_mac,
                tpa: victim_ip,
            }
            .encode(),
        );
        EthHeader {
            dst: victim_mac,
            src: mac,
            ethertype: EtherType::Arp,
        }
        .encode_into(&mut nb);
        self.stacks[dst].deliver_frame(nb);
    }

    /// Forges a bare TCP segment (no payload) from a spoofed remote
    /// endpoint and delivers it straight into stack `dst`'s RX ring.
    /// The segment carries a valid checksum and is wire-marked, so it
    /// exercises the demux and state machine, not the verification
    /// pass. This is the raw material for SYN floods, stray-segment
    /// RST tests, and handshake-timeout reclamation.
    #[allow(clippy::too_many_arguments, reason = "one per header field a forged segment sets")]
    pub fn inject_tcp(
        &mut self,
        dst: usize,
        from: Endpoint,
        from_mac: Mac,
        dst_port: u16,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
    ) {
        let victim_mac = self.stacks[dst].mac();
        let victim_ip = self.stacks[dst].ip();
        let mut nb = Netbuf::alloc(2048, 64);
        let ip = Ipv4Header {
            src: from.addr,
            dst: victim_ip,
            proto: IpProto::Tcp,
            payload_len: TCP_HDR_LEN,
            ttl: 64,
        };
        TcpHeader {
            src_port: from.port,
            dst_port,
            seq,
            ack,
            flags,
            window: 65_535,
        }
        .emit(&ip, &mut nb, &[], Csum::Software);
        ip.encode_into(&mut nb);
        EthHeader {
            dst: victim_mac,
            src: from_mac,
            ethertype: EtherType::Ipv4,
        }
        .encode_into(&mut nb);
        nb.mark_csum_verified();
        self.stacks[dst].deliver_frame(nb);
    }

    /// The spoofed source endpoint and MAC the flood driver uses for
    /// attacker index `i` — a disjoint address plane (10.66.x.y) so
    /// forged traffic can never collide with attached stacks (10.0.0.n).
    pub fn spoofed_peer(i: usize) -> (Endpoint, Mac) {
        let ep = Endpoint::new(
            Ipv4Addr::new(10, 66, (i >> 8) as u8, i as u8),
            40_000 + (i % 20_000) as u16,
        );
        let mac = Mac([0x66, 0x66, 0x00, 0x00, (i >> 8) as u8, i as u8]);
        (ep, mac)
    }

    /// SYN-floods stack `dst`'s listener on `dst_port` with `count`
    /// forged handshake openers from distinct spoofed endpoints
    /// (`spoofed_peer(base)` through `spoofed_peer(base + count - 1)`)
    /// that will never complete — half-open connections. Each spoofed
    /// peer first teaches the victim its MAC so SYN-ACK replies drain
    /// onto the wire (and vanish) instead of pinning pool buffers
    /// under a pending ARP request. Frames are delivered in bursts of
    /// `per_step` with a wire step between bursts, like a real flood
    /// arriving across ring interrupts. Pass a fresh `base` per call
    /// to keep four-tuples distinct across calls.
    pub fn syn_flood(
        &mut self,
        dst: usize,
        dst_port: u16,
        base: usize,
        count: usize,
        per_step: usize,
    ) {
        let mut i = base;
        while i < base + count {
            let end = (i + per_step.max(1)).min(base + count);
            for j in i..end {
                self.inject_syn(dst, dst_port, j);
            }
            self.step();
            i = end;
        }
    }

    /// Spoofed peer `j`'s handshake opener to `dst_port` on stack `dst`,
    /// after the ARP reply that lets the victim's answer leave.
    fn inject_syn(&mut self, dst: usize, dst_port: u16, j: usize) {
        let (ep, mac) = Self::spoofed_peer(j);
        self.inject_arp_reply(dst, ep.addr, mac);
        let (syn, seq) = (TcpFlags::SYN, 0x1000_0000 + j as u32);
        self.inject_tcp(dst, ep, mac, dst_port, syn, seq, 0);
    }

    /// Establishes `count` connections on stack `dst`'s listener on
    /// `dst_port` from spoofed peers `base..base + count`, completing
    /// each forged handshake: per burst of `per_step`, the driver
    /// poisons ARP, injects the SYNs, reads the listener's SYN-ACKs
    /// off the wire capture, and answers each with its matching ACK.
    /// The graduated connections land in the listener's accept backlog
    /// — the caller drains them with `tcp_accept` (so `count` per call
    /// must fit the backlog). Returns how many handshakes completed.
    /// This is the connection-scale driver: thousands of established
    /// TCBs on one stack without thousands of peer stacks.
    pub fn forge_established(
        &mut self,
        dst: usize,
        dst_port: u16,
        base: usize,
        count: usize,
        per_step: usize,
    ) -> usize {
        let victim_ip = self.stacks[dst].ip();
        let ack = TcpFlags { ack: true, ..TcpFlags::default() };
        let mut completed = 0;
        let mut i = base;
        while i < base + count {
            let end = (i + per_step.max(1)).min(base + count);
            self.start_wire_capture();
            let mut burst = std::collections::HashMap::new();
            for j in i..end {
                let (ep, _) = Self::spoofed_peer(j);
                burst.insert((ep.addr, ep.port), j);
                self.inject_syn(dst, dst_port, j);
            }
            // Two steps: the first pump processes the SYNs and stages
            // the SYN-ACKs; the second step's transfer carries them
            // across the (captured) wire.
            self.step();
            self.step();
            for frame in self.take_wire_capture() {
                let Some((peer, seq)) = syn_ack(&frame, victim_ip, dst_port) else {
                    continue;
                };
                let Some(&j) = burst.get(&(peer.addr, peer.port)) else {
                    continue;
                };
                let (_, mac) = Self::spoofed_peer(j);
                let (seq, ack_no) = (0x1000_0000 + j as u32 + 1, seq.wrapping_add(1));
                self.inject_tcp(dst, peer, mac, dst_port, ack, seq, ack_no);
                completed += 1;
            }
            self.step(); // ACKs graduate embryos into the backlog.
            i = end;
        }
        self.stop_wire_capture();
        completed
    }
}

/// The SYN-ACK that `frame` carries from `from`, port `port`, if it
/// carries one: its destination and sequence number.
fn syn_ack(frame: &[u8], from: Ipv4Addr, port: u16) -> Option<(Endpoint, u32)> {
    let (eth, rest) = EthHeader::decode(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let (ip, seg) = Ipv4Header::decode_trusted(rest).ok()?;
    if ip.proto != IpProto::Tcp || ip.src != from {
        return None;
    }
    let (h, _) = TcpHeader::decode_trusted(&ip, seg).ok()?;
    let hit = h.flags.syn && h.flags.ack && h.src_port == port;
    hit.then(|| (Endpoint::new(ip.dst, h.dst_port), h.seq))
}
