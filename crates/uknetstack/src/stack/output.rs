//! Output: everything that leaves — headers prepended in place, the
//! next hop resolved (or the packet parked), frames staged and pushed
//! to the device in bursts — and the way buffers come home.
//!
//! **TX** is one buffer from application to wire. Payload bytes are
//! written once into a pooled [`Netbuf`] behind [`TX_HEADROOM`] bytes of
//! headroom; TCP/UDP/ICMP, IPv4 and Ethernet each *prepend* their header
//! in place (`emit` / `encode_into`). With `tx_csum` on
//! ([`Offloads`](super::Offloads)), TCP/UDP headers are stamped with
//! only the partial pseudo-header sum (`Csum::Offload`) and the device
//! completes the checksum at `tx_burst` time. Senders *stage* frames and
//! the whole batch crosses in one `tx_burst` sweep
//! ([`flush_output`](NetStack::flush_output)); completions are reclaimed
//! by the wire harness as netbufs
//! ([`harvest_tx`](NetStack::harvest_tx)) and come back through
//! [`recycle`](NetStack::recycle).
//!
//! **Bulk transfers** ride the large-transfer fast path:
//! [`tcp_send_queued`](NetStack::tcp_send_queued) writes application
//! bytes once into pooled buffers on the connection's zero-copy send
//! queue; [`flush_tcp`](NetStack::flush_tcp) moves a window's worth of
//! them out as one scatter-gather **super-segment** chain carrying a
//! `GsoRequest` (TSO, `VIRTIO_NET_F_HOST_TSO4`), and a peer that
//! negotiated big receive (`VIRTIO_NET_F_GUEST_TSO4`) gets the chain
//! delivered whole — one demux, one ingest, one coalesced ACK for what
//! would otherwise be ~40 per-MSS frames' worth of per-segment work.
//! Peers without the features fall back transparently: the host side
//! cuts MSS frames (`uknetdev::gso`), and with `tso` off the stack
//! segments per-MSS in software (the ablation baseline).
//!
//! [`TX_HEADROOM`]: super::TX_HEADROOM

use uknetdev::netbuf::{Netbuf, TcpHold};
use ukplat::{Errno, Result};

use super::conns::ConnId;
use super::sockets::publish;
use super::stats::{publish_tcb_stats, row};
#[cfg_attr(not(feature = "trace"), allow(unused_imports))]
use super::tp;
use super::{take_or_alloc, NetStack, StackConfig};
use crate::arp::{ArpOp, ArpPacket};
use crate::eth::{EthHeader, EtherType};
use crate::ipv4::{IpProto, Ipv4Header};
use crate::tcp::{
    TcbConfig, TcpFlags, TcpHeader, SACK_PERMITTED_OPT, TCP_HDR_LEN, TCP_MAX_OPT_LEN,
};
use crate::udp::{UdpHeader, UDP_HDR_LEN};
use crate::{Csum, Endpoint, Ipv4Addr, Mac};

/// What `tcp_stage` holds per segment awaiting its next hop.
pub(super) type TcpStaged = (Ipv4Addr, Netbuf);

// The staging vector moves its elements on every push and drain; the
// buffer rides in it as a one-word handle and the rest is the key
// beside it. A fat descriptor must not creep back in.
const _: () = assert!(size_of::<TcpStaged>() <= 16);

/// 1 if the emitter was told to leave the checksum to the device, else
/// 0 — what `csum_offloaded` counts, for every TCP segment (data, ACK,
/// SYN, RST) and UDP datagram the stack builds.
#[inline]
fn offloaded(csum: Csum) -> u64 {
    u64::from(csum != Csum::Software)
}

impl StackConfig {
    /// The IPv4 header of a packet this host sends to `dst` — every
    /// emitter's: our address, the default TTL.
    #[inline]
    pub(super) fn ip_to(&self, dst: Ipv4Addr, proto: IpProto, payload_len: usize) -> Ipv4Header {
        Ipv4Header { src: self.ip, dst, proto, payload_len, ttl: 64 }
    }
}

impl NetStack {
    /// Returns a finished buffer — or a whole scatter-gather chain —
    /// to the stack's pool (heap and foreign buffers are simply
    /// dropped). Everyone who takes a netbuf out of this stack — the
    /// wire harness via [`harvest_tx`](Self::harvest_tx), readers via
    /// the `*_recv_into` paths — hands it back here.
    pub fn recycle(&mut self, mut nb: Netbuf) {
        if let Some(hold) = nb.take_tcp_hold() {
            self.rtx_return_chain(hold, nb);
            return;
        }
        self.pool.give_back_chain(nb);
    }

    /// A TCP data frame came back from the wire (TX-complete harvest or
    /// ARP-queue eviction): instead of returning it to the pool, strip
    /// the protocol headers off the head (restoring its headroom) and
    /// file the payload extents back into the owning connection's
    /// retransmission queue keyed by sequence number. Extents the TCB
    /// no longer needs — already acknowledged, duplicate coverage,
    /// connection gone — fall through to the pool as usual, so nothing
    /// leaks.
    fn rtx_return_chain(&mut self, hold: TcpHold, mut head: Netbuf) {
        head.take_csum_request();
        head.take_gso_request();
        // All protocol headers live in the head buffer.
        let hdr = head.chain_len().saturating_sub(hold.payload_len as usize);
        if hdr <= head.len() {
            head.pull_header(hdr);
        }
        self.hold_scratch.clear();
        head.take_frags_into(&mut self.hold_scratch);
        let id = ConnId::from_key(hold.conn);
        let mut seq = hold.seq;
        for mut ext in std::iter::once(head).chain(self.hold_scratch.drain(..)) {
            let len = ext.len() as u32;
            ext.take_csum_request();
            ext.take_gso_request();
            let back = match id.and_then(|id| self.conns.get_mut(id)) {
                Some(c) => c.tcb.rtx_return(seq, hold.sent_ns, ext),
                None => Some(ext),
            };
            if let Some(nb) = back {
                self.pool.give_back_chain(nb);
            }
            seq = seq.wrapping_add(len);
        }
        if let Some(id) = id {
            self.conns.mark_dirty(id);
        }
    }

    /// Prepends the Ethernet header and stages the frame for the next
    /// TX burst.
    pub(super) fn stage_eth(&mut self, dst: Mac, ethertype: EtherType, mut nb: Netbuf) {
        EthHeader {
            dst,
            src: self.config.mac,
            ethertype,
        }
        .encode_into(&mut nb);
        self.tx_stage.push(nb);
    }

    /// Pushes staged frames into the device (one burst call per
    /// `MAX_BURST` frames; leftovers stay staged if the ring fills).
    pub(super) fn flush_tx(&mut self) -> Result<()> {
        while !self.tx_stage.is_empty() {
            let st = self.dev.tx_burst(0, &mut self.tx_stage)?;
            if st.stats.frames == 0 {
                break; // Ring full; retried on the next flush.
            }
            self.counts.add(row::tx_frames, st.stats.frames as u64);
            self.counts.add(row::tx_bytes, st.stats.bytes as u64);
            self.counts.add(row::tx_bursts, 1);
        }
        Ok(())
    }

    /// Stages a broadcast who-has request for `dst`.
    fn stage_arp_request(&mut self, dst: Ipv4Addr) {
        let req = ArpPacket {
            op: ArpOp::Request,
            sha: self.config.mac,
            spa: self.config.ip,
            tha: Mac([0; 6]),
            tpa: dst,
        };
        let mut anb = take_or_alloc(&mut self.pool);
        anb.append(&req.encode());
        self.stage_eth(Mac::BROADCAST, EtherType::Arp, anb);
        self.counts.add(row::arp_requests_tx, 1);
        uktrace::trace!(self.trace, tp::arp_request_tx, dst.0);
    }

    /// Routes an IP-level packet (headers already in place, Ethernet
    /// headroom reserved): resolved destinations are staged for TX,
    /// unresolved ones park under the pending ARP request. Parking is
    /// bounded (soft cap evicting droppable traffic first, hard cap
    /// evicting anything) so an unreachable next-hop cannot pin the
    /// buffer pool, and the who-has broadcast is re-issued every
    /// `ARP_REQUEST_RETRY_EVERY` parked packets ([`Neighbors::park`]).
    ///
    /// [`Neighbors::park`]: crate::arp::Neighbors::park
    pub(super) fn send_ipv4_nb(&mut self, dst: Ipv4Addr, proto: IpProto, nb: Netbuf) {
        match self.neigh.resolve(dst) {
            Some(mac) => self.stage_eth(mac, EtherType::Ipv4, nb),
            None => {
                let parked = self.neigh.park(dst, proto, nb);
                self.counts.add(row::arp_parked, 1);
                self.gauges.arp_parked_hiwater.set_max(parked.queued as u64);
                uktrace::trace!(self.trace, tp::arp_parked, dst.0, parked.queued);
                if let Some(old) = parked.evicted {
                    self.counts.add(row::dropped, 1);
                    self.counts.add(row::arp_evicted, 1);
                    self.recycle(old);
                }
                if parked.request_due {
                    self.stage_arp_request(dst);
                }
            }
        }
    }

    /// The quiet-queue who-has retry (run once per `pump`):
    /// re-broadcasts the request of every next hop
    /// [`Neighbors::tick`](crate::arp::Neighbors::tick) finds due one.
    pub(super) fn arp_retry_tick(&mut self) {
        self.neigh.tick();
        while let Some(dst) = self.neigh.next_retry() {
            self.stage_arp_request(dst);
        }
    }

    /// Emits all pending TCP output: each segment is cut from the send
    /// buffer straight into a pooled netbuf (payload first, then
    /// TCP/IP headers prepended in place) — no intermediate `Vec`s.
    ///
    /// With TSO on, a connection's whole sendable window leaves as
    /// *one* frame per `gso_max_size` bytes: the payload streams into
    /// a scatter-gather chain, the headers describe the super-segment,
    /// and a [`GsoRequest`](uknetdev::netbuf::GsoRequest) tells the
    /// host side to cut the per-MSS wire frames — the per-segment
    /// header encode / checksum stamp / staging / ring costs are paid
    /// once per super-segment instead of once per MSS.
    pub(super) fn flush_tcp(&mut self) -> Result<()> {
        let mut staged = std::mem::take(&mut self.tcp_stage);
        let TcbConfig { mss, sack: sack_on, rack: rack_on, .. } = self.tcb_config();
        // The GSO budget is floored to a multiple of the MSS so a
        // super-segment boundary never forces a short wire frame
        // mid-stream — the cut frames land on exactly the byte
        // boundaries software segmentation would produce.
        let tso = self.offloads.tso;
        let max_seg = if tso { (self.config.gso_max_size / mss).max(1) * mss } else { mss };
        let tx_csum = self.offloads.csum();
        let counts = &self.counts;
        let now = self.now_ns();
        let mut cursor = 0;
        while let Some((id, c)) = self.conns.next_dirty(&mut cursor) {
            let key = id.key();
            c.tcb.set_now(now);
            let dst = c.remote.addr;
            // The receiver half's SACK report for this poll: D-SACK
            // plus the reassembly queue's extents, encoded once and
            // attached to the first *pure ACK* the poll emits (the GSO
            // cutter forbids options on data frames, and a poll that
            // owes the peer a SACK always emits a pure ACK).
            let mut sack_opt = [0u8; TCP_MAX_OPT_LEN];
            let sack_len = c.tcb.fill_sack_option(&mut sack_opt);
            let mut sack_used = false;
            let take_buf = || take_or_alloc(&mut self.pool);
            c.tcb.poll_output_chain_with(max_seg, take_buf, |header, mut nb| {
                // Data rides in as the send queue's own buffers —
                // chained for a super-segment, a single moved buffer
                // otherwise; control segments get a fresh, empty head.
                let plen = nb.chain_len();
                let was_data = plen > 0;
                let f = header.flags;
                if !was_data && f.ack && !(f.syn || f.fin || f.rst) {
                    counts.add(row::tcp_pure_acks_tx, 1);
                }
                // Options ride only on control segments: SACK-permitted
                // on SYN / SYN-ACK, SACK blocks on the poll's first
                // pure ACK.
                let opts: &[u8] = if was_data || header.flags.rst {
                    &[]
                } else if header.flags.syn && sack_on {
                    &SACK_PERMITTED_OPT
                } else if header.flags.ack && !header.flags.syn && !sack_used && sack_len > 0
                {
                    sack_used = true;
                    &sack_opt[..sack_len]
                } else {
                    &[]
                };
                let ip = self.config.ip_to(dst, IpProto::Tcp, TCP_HDR_LEN + opts.len() + plen);
                // More than one MSS only ever leaves with TSO on: a
                // super-segment, headers on the chain head, MSS cutting
                // offloaded to the device's host side.
                let csum = if plen > mss {
                    counts.add(row::tso_super_frames, 1);
                    counts.add(row::tso_super_bytes, plen as u64);
                    uktrace::trace!(self.trace, tp::tso_super_tx, plen, mss);
                    Csum::Gso { mss: mss as u16 }
                } else {
                    tx_csum
                };
                header.emit(&ip, &mut nb, opts, csum);
                counts.add(row::csum_offloaded, offloaded(csum));
                uktrace::trace!(self.trace, tp::tcp_segment_tx, header.dst_port, header.seq);
                ip.encode_into(&mut nb);
                if was_data {
                    // Tag unacknowledged data so the recycle path files
                    // the payload into the retransmission queue instead
                    // of the pool (see `rtx_return_chain`), stamped
                    // with the transmit time RACK's loss logic keys on.
                    nb.set_tcp_hold(key, header.seq, plen as u32, now);
                }
                staged.push((dst, nb));
            });
            publish_tcb_stats(counts, &mut self.trace, key, 0, &mut c.published, c.tcb.stats());
            self.gauges.tcp_cwnd.set(c.tcb.cwnd() as u64);
            if rack_on {
                self.gauges.tcp_rack_reorder_window_ns.set(c.tcb.reo_wnd_ns());
            }
            // An ingest, a timer fire, a returning frame or a socket
            // call dirtied it and the poll above ran: publish the result
            // and see to it that the wheel wakes it in time.
            let fresh = std::mem::take(&mut c.rx_fresh);
            publish(&c.ready, || c.readiness(), fresh);
            self.conns.sync_timer(id, &mut self.wheel, counts, now);
        }
        for (dst, nb) in staged.drain(..) {
            self.send_ipv4_nb(dst, IpProto::Tcp, nb);
        }
        self.tcp_stage = staged;
        self.flush_tx()
    }

    /// Answers a segment that matched no flow and no listener with a
    /// correctly-sequenced RST (RFC 793 §3.4): a connection that died
    /// here tells its peer immediately instead of letting it
    /// retransmit into a black hole. Never RSTs a RST.
    pub(super) fn stage_rst(&mut self, dst: Ipv4Addr, tcp: &TcpHeader, payload_len: usize) {
        if tcp.flags.rst {
            return;
        }
        let (seq, ack, flags) = if tcp.flags.ack {
            // The peer told us what it expects next; answer from there
            // with a bare RST.
            (tcp.ack, 0, TcpFlags { rst: true, ..TcpFlags::default() })
        } else {
            // No ACK to echo: seq 0, and acknowledge everything the
            // segment occupied so the RST is acceptable to the peer.
            let occupied =
                payload_len as u32 + tcp.flags.syn as u32 + tcp.flags.fin as u32;
            (
                0,
                tcp.seq.wrapping_add(occupied),
                TcpFlags { rst: true, ack: true, ..TcpFlags::default() },
            )
        };
        let header = TcpHeader {
            src_port: tcp.dst_port,
            dst_port: tcp.src_port,
            seq,
            ack,
            flags,
            window: 0,
        };
        let mut nb = take_or_alloc(&mut self.pool);
        let ip = self.config.ip_to(dst, IpProto::Tcp, TCP_HDR_LEN);
        let csum = self.offloads.csum();
        header.emit(&ip, &mut nb, &[], csum);
        self.counts.add(row::csum_offloaded, offloaded(csum));
        ip.encode_into(&mut nb);
        self.counts.add(row::tcp_rst_tx, 1);
        uktrace::trace!(self.trace, tp::tcp_rst_tx, header.dst_port, header.seq);
        self.send_ipv4_nb(dst, IpProto::Tcp, nb);
    }

    /// Builds and routes one datagram (payload written once, headers
    /// prepended in place, checksum offloaded when the device supports
    /// it) *without* flushing — the shared staging half of
    /// [`udp_send_to`](Self::udp_send_to) and
    /// [`udp_send_burst`](Self::udp_send_burst).
    pub(super) fn stage_udp(&mut self, src_port: u16, data: &[u8], to: Endpoint) -> Result<()> {
        let mut nb = take_or_alloc(&mut self.pool);
        if data.len() > nb.tailroom() {
            self.recycle(nb);
            return Err(Errno::Inval); // Larger than MTU-sized buffers.
        }
        nb.append(data);
        let ip = self.config.ip_to(to.addr, IpProto::Udp, UDP_HDR_LEN + data.len());
        let hdr = UdpHeader {
            src_port,
            dst_port: to.port,
        };
        let csum = self.offloads.csum();
        hdr.emit(&ip, &mut nb, csum);
        self.counts.add(row::csum_offloaded, offloaded(csum));
        ip.encode_into(&mut nb);
        self.send_ipv4_nb(to.addr, IpProto::Udp, nb);
        Ok(())
    }
}
