//! Ingest: a received frame's way up — Ethernet, ARP, IPv4, ICMP, UDP
//! and the three shapes a TCP segment arrives in.
//!
//! **RX** walks the same buffers up the stack in bursts: `pump` drains
//! `rx_burst` and hands every frame of the burst to
//! [`handle_frame`](NetStack::handle_frame); headers are pulled in
//! place. The demux *keeps* the RX buffer a payload arrived in: a UDP
//! body queues on its socket as the netbuf it is — no per-datagram `Vec`
//! — and a TCP payload moves into the connection's receive queue.
//! Readers copy out (`tcp_recv_into`, `udp_recv_into`,
//! `udp_recv_burst_into`) or — the zero-copy path — take the buffers
//! whole (`tcp_recv_burst_netbuf`, `udp_recv_netbuf`), consuming the
//! payload in place and handing each buffer back via `recycle`. Between
//! the wire's DMA copy and the application there is **no copy at all**.
//!
//! Every received TCP segment — one RX buffer from the direct path, a
//! GRO-merged run ([`gro`](super::gro)), or a big-receive chain — enters
//! its TCB through the one [`tcp_ingest`](NetStack::tcp_ingest); the
//! three entry shapes only parse and demux. **In-order-only ingest,
//! never silent:** a segment that does not land exactly at `rcv_nxt` is
//! dropped *and answered with an immediate duplicate ACK*; a FIN is
//! processed only in sequence position. See `tcp/ingest.rs` for the
//! invariant.

use uknetdev::netbuf::Netbuf;
use ukplat::{Errno, Result};

use super::conns::ConnId;
use super::gro::Continues;
use super::sockets::{publish, PING_REPLIES_CAP, UDP_RX_QUEUE_CAP};
use super::stats::{publish_tcb_stats, row};
#[cfg_attr(not(feature = "trace"), allow(unused_imports))]
use super::tp;
use super::timers::{REAP_SYN_EVICTED, REAP_TIMEWAIT};
use super::{take_or_alloc, NetStack, LOW_POOL_BUFS};
use crate::arp::{ArpOp, ArpPacket};
use crate::eth::{EthHeader, EtherType, ETH_HDR_LEN};
use crate::flow::flow_key;
use crate::icmp::{self, ICMP_ECHO_LEN};
use crate::ipv4::{IpProto, Ipv4Header, IPV4_HDR_LEN};
use crate::tcp::{Tcb, TcpHeader, TcpOptions, TcpState, TCP_HDR_LEN};
use crate::udp::{UdpHeader, UDP_HDR_LEN};
use crate::{Endpoint, Ipv4Addr, Mac};

impl NetStack {
    pub(super) fn handle_frame(&mut self, mut nb: Netbuf) -> Result<()> {
        self.counts.add(row::rx_frames, 1);
        let eth = match EthHeader::decode(nb.payload()) {
            Ok((h, _)) => h,
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        if eth.dst != self.config.mac && eth.dst != Mac::BROADCAST {
            self.recycle(nb);
            return Err(Errno::Inval);
        }
        nb.pull_header(ETH_HDR_LEN);
        match eth.ethertype {
            EtherType::Arp => {
                self.counts.add(row::demux_arp, 1);
                let r = self.handle_arp(nb.payload());
                self.recycle(nb);
                r
            }
            EtherType::Ipv4 => self.handle_ipv4(nb),
        }
    }

    fn handle_arp(&mut self, data: &[u8]) -> Result<()> {
        let arp = ArpPacket::decode(data)?;
        match arp.op {
            ArpOp::Request => {
                uktrace::trace!(self.trace, tp::arp_request_rx, arp.spa.0);
            }
            ArpOp::Reply => {
                uktrace::trace!(self.trace, tp::arp_reply_rx, arp.spa.0);
            }
        }
        let to_us = arp.tpa == self.config.ip;
        // Release packets that were waiting on this mapping.
        for nb in self.neigh.learn(arp.spa, arp.sha, to_us) {
            self.stage_eth(arp.sha, EtherType::Ipv4, nb);
        }
        if arp.op == ArpOp::Request && to_us {
            let reply = ArpPacket {
                op: ArpOp::Reply,
                sha: self.config.mac,
                spa: self.config.ip,
                tha: arp.sha,
                tpa: arp.spa,
            };
            let mut nb = take_or_alloc(&mut self.pool);
            nb.append(&reply.encode());
            self.stage_eth(arp.sha, EtherType::Arp, nb);
        }
        Ok(())
    }

    /// Walks an IPv4 frame up the stack in place: the IP header is
    /// pulled, trailing Ethernet padding trimmed, and the same buffer
    /// continues to the transport layer.
    ///
    /// A frame the wire/device marked checksum-validated
    /// (`VIRTIO_NET_F_GUEST_CSUM`) skips the software IPv4-header and
    /// TCP/UDP checksum passes when RX checksum offload is on;
    /// unmarked frames are always fully verified.
    fn handle_ipv4(&mut self, mut nb: Netbuf) -> Result<()> {
        let trusted = self.offloads.rx_csum && nb.csum_verified();
        if nb.has_frags() {
            // A big-receive super-segment: headers in the head buffer,
            // payload spanning the chain. Only the trusted wire
            // delivers these (GUEST_TSO4 requires GUEST_CSUM) — an
            // unmarked chain is a forgery and is dropped.
            if !trusted {
                self.recycle(nb);
                return Err(Errno::Inval);
            }
            return self.handle_super_frame(nb);
        }
        let decoded = if trusted {
            Ipv4Header::decode_trusted(nb.payload())
        } else {
            Ipv4Header::decode(nb.payload())
        };
        let (ip, body_len) = match decoded {
            Ok((h, body)) => (h, body.len()),
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        if ip.dst != self.config.ip {
            self.recycle(nb);
            return Err(Errno::Inval);
        }
        if trusted && matches!(ip.proto, IpProto::Tcp | IpProto::Udp) {
            self.counts.add(row::rx_csum_skipped, 1);
        }
        nb.pull_header(IPV4_HDR_LEN);
        nb.truncate(body_len);
        match ip.proto {
            IpProto::Udp => self.handle_udp(&ip, nb, trusted),
            IpProto::Tcp => self.handle_tcp_nb(&ip, nb, trusted),
            IpProto::Icmp => {
                let r = self.handle_icmp(&ip, nb.payload());
                self.recycle(nb);
                r
            }
        }
    }

    fn handle_icmp(&mut self, ip: &Ipv4Header, data: &[u8]) -> Result<()> {
        let (request, ident, seq, payload) = icmp::decode_echo(data)?;
        self.counts.add(row::demux_icmp, 1);
        if request {
            uktrace::trace!(self.trace, tp::icmp_echo_rx, ident, seq);
            // Answer pings like lwIP does: echo the payload into a
            // fresh pooled buffer, headers prepended in place. A
            // request too large for a reply buffer (an injected
            // over-MTU frame) is dropped, not echoed.
            let mut nb = take_or_alloc(&mut self.pool);
            if payload.len() > nb.tailroom() {
                self.recycle(nb);
                return Err(Errno::Inval);
            }
            nb.append(payload);
            icmp::encode_echo_into(false, ident, seq, &mut nb);
            let hdr = self.config.ip_to(ip.src, IpProto::Icmp, ICMP_ECHO_LEN + payload.len());
            hdr.encode_into(&mut nb);
            self.send_ipv4_nb(ip.src, IpProto::Icmp, nb);
            Ok(())
        } else if self.ping_replies.len() < PING_REPLIES_CAP {
            self.ping_replies.push((ip.src, ident, seq));
            Ok(())
        } else {
            // Nobody is draining them: the newest is refused (counted
            // as a drop), and what is kept stays as `new` sized it.
            Err(Errno::NoMem)
        }
    }

    /// Demultiplexes a UDP datagram: the receive buffer itself (payload
    /// trimmed to the UDP body) moves into the socket's queue.
    fn handle_udp(&mut self, ip: &Ipv4Header, mut nb: Netbuf, trusted: bool) -> Result<()> {
        let decoded = if trusted {
            UdpHeader::decode_trusted(ip, nb.payload())
        } else {
            UdpHeader::decode(ip, nb.payload())
        };
        let (udp, body_len) = match decoded {
            Ok((h, body)) => (h, body.len()),
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        let Some(sock) = self.udp_socks.get_mut(&udp.dst_port) else {
            self.counts.add(row::demux_miss, 1);
            uktrace::trace!(self.trace, tp::demux_miss, 17u64, udp.dst_port);
            self.recycle(nb);
            return Err(Errno::ConnRefused);
        };
        if sock.rx.len() >= UDP_RX_QUEUE_CAP {
            self.recycle(nb);
            return Err(Errno::NoMem); // Queue full: drop (counted).
        }
        nb.pull_header(UDP_HDR_LEN);
        nb.truncate(body_len);
        self.counts.add(row::demux_udp, 1);
        uktrace::trace!(self.trace, tp::udp_rx, udp.dst_port, body_len);
        sock.rx.push_back((Endpoint::new(ip.src, udp.src_port), nb));
        publish(&sock.ready, || sock.readiness(), true);
        Ok(())
    }

    /// Validates a big-receive super-frame's headers (IPv4 + TCP, both
    /// in the head extent — the wire guarantees this) and returns the
    /// parsed TCP header plus the header bytes to strip off the head.
    fn parse_super_frame(nb: &Netbuf, my_ip: Ipv4Addr) -> Result<(TcpHeader, Ipv4Addr, usize)> {
        let head = nb.payload();
        let total = nb.chain_len();
        if head.len() < IPV4_HDR_LEN + TCP_HDR_LEN || head[0] != 0x45 {
            return Err(Errno::Inval);
        }
        let ip_total = u16::from_be_bytes([head[2], head[3]]) as usize;
        if ip_total != total || head[9] != 6 {
            return Err(Errno::Inval); // Chains carry exactly one TCP super-segment.
        }
        let ip = Ipv4Header {
            src: Ipv4Addr(u32::from_be_bytes([head[12], head[13], head[14], head[15]])),
            dst: Ipv4Addr(u32::from_be_bytes([head[16], head[17], head[18], head[19]])),
            proto: IpProto::Tcp,
            payload_len: total - IPV4_HDR_LEN,
            ttl: head[8],
        };
        if ip.dst != my_ip {
            return Err(Errno::Inval);
        }
        let (tcp, first) = TcpHeader::decode_trusted(&ip, &head[IPV4_HDR_LEN..])?;
        let consumed = head.len() - first.len();
        Ok((tcp, ip.src, consumed))
    }

    /// The one TCP ingest: delivers a segment to connection `id` — one
    /// RX buffer from the direct path, a GRO-merged run, or
    /// big-receive chain; the three entry shapes only parse and demux.
    /// In order: a handshake-completing ACK is refused while the accept
    /// backlog is full; the connection is told the time; options, then
    /// the segment, reach the TCB (payload
    /// buffers move into its queues, the rest go back to the pool); the
    /// newest out-of-order extents are shed while the pool sits below
    /// [`LOW_POOL_BUFS`]; the connection is marked dirty (the flush
    /// that follows publishes its readiness); what the TCB counted is
    /// published; and a handshake this segment completed graduates the
    /// connection to its listener's accept backlog, whose readiness is
    /// published there.
    fn tcp_ingest(
        &mut self,
        id: ConnId,
        tcp: &TcpHeader,
        opts: Option<&TcpOptions>,
        bufs: impl Iterator<Item = Netbuf>,
    ) -> Result<()> {
        let now = self.now_ns();
        let pool = &mut self.pool;
        let Some(c) = self.conns.get_mut(id) else {
            // The flow table (or the GRO flush, which checked) named
            // this connection, so it must be live; drop the segment
            // rather than panic if they ever disagree with the slab.
            debug_assert!(false, "TCP segment demuxed to a connection that is gone");
            bufs.for_each(|b| pool.give_back_chain(b));
            return Err(Errno::BadF);
        };
        let key = id.key();
        let prior = c.tcb.state;
        let completes_handshake =
            prior == TcpState::SynReceived && tcp.flags.ack && !tcp.flags.syn && !tcp.flags.rst;
        if completes_handshake
            && self
                .listeners
                .get(&tcp.dst_port)
                .is_some_and(|l| l.backlog.len() >= self.config.listen_backlog)
        {
            // The connection stays half-open until the peer
            // retransmits or the handshake timer reclaims it.
            self.counts.add(row::tcp_syn_overflow, 1);
            bufs.for_each(|b| pool.give_back_chain(b));
            return Err(Errno::NoMem);
        }
        c.tcb.set_now(now);
        if let Some(opts) = opts {
            c.tcb.process_options(tcp, opts);
        }
        let readable = c.tcb.readable();
        c.tcb.on_segment_bufs(tcp, bufs, |b| pool.give_back_chain(b));
        c.rx_fresh |= c.tcb.readable() > readable;
        while pool.available() < LOW_POOL_BUFS
            && c.tcb.shed_newest_ooo(&mut |b| pool.give_back_chain(b))
        {}
        let established = prior != TcpState::Established && c.tcb.state == TcpState::Established;
        if established {
            uktrace::trace!(self.trace, tp::tcp_established, key, tcp.dst_port);
        }
        let seq = tcp.seq as u64;
        publish_tcb_stats(&self.counts, &mut self.trace, key, seq, &mut c.published, c.tcb.stats());
        self.conns.mark_dirty(id);
        if established && prior == TcpState::SynReceived {
            // Handshake complete: graduate from the SYN queue to the
            // accept backlog.
            if let Some(l) = self.listeners.get_mut(&tcp.dst_port) {
                l.syn_queue.retain(|&s| s != id);
                l.backlog.push_back(id.handle());
                publish(&l.ready, || l.readiness(), true);
            }
        }
        Ok(())
    }

    /// Ingests a big-receive super-segment **zero-copy**: headers are
    /// stripped off the chain head in place and the whole chain moves
    /// into the connection's receive queue as *one* multi-part segment
    /// — one demux, one ACK, no per-MSS work and no payload copy
    /// anywhere on the receive side.
    fn handle_super_frame(&mut self, mut nb: Netbuf) -> Result<()> {
        // A super-segment is TCP data: it must not overtake per-MSS
        // frames already staged for the same connection.
        self.gro_flush();
        let (tcp, src, consumed) = match Self::parse_super_frame(&nb, self.config.ip) {
            Ok(p) => p,
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        let remote = Endpoint::new(src, tcp.src_port);
        let Some(id) = self.conns.lookup(flow_key(tcp.dst_port, remote)) else {
            let payload_len = nb.chain_len() - consumed;
            return self.tcp_miss(src, &tcp, payload_len, nb);
        };
        let opts = tcp_options(&nb.payload()[IPV4_HDR_LEN..consumed]);
        nb.pull_header(consumed);
        // `_bytes` is only read by the tracepoint (unused when tracing
        // is compiled out, hence the underscore).
        let _bytes = nb.chain_len();
        self.tcp_ingest(id, &tcp, opts.as_ref(), std::iter::once(nb))?;
        self.counts.add(row::demux_tcp, 1);
        uktrace::trace!(self.trace, tp::tcp_super_rx, id.key(), _bytes);
        self.counts.add(row::rx_super_frames, 1);
        self.counts.add(row::rx_csum_skipped, 1);
        Ok(())
    }

    /// Demultiplexes one TCP segment, **keeping ownership of the RX
    /// buffer**: a mergeable data segment is staged for GRO, anything
    /// else is delivered to its TCB with the payload buffer moved into
    /// the receive queue (or recycled, if the data is not accepted).
    fn handle_tcp_nb(&mut self, ip: &Ipv4Header, mut nb: Netbuf, trusted: bool) -> Result<()> {
        let decoded = if trusted {
            TcpHeader::decode_trusted(ip, nb.payload())
        } else {
            TcpHeader::decode(ip, nb.payload())
        };
        let (tcp, doff) = match decoded {
            Ok((h, payload)) => (h, nb.len() - payload.len()),
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        let payload_len = nb.len() - doff;
        // GRO: a plain data segment (ACK set, no SYN/FIN/RST, no
        // options — a merged run has one header and nowhere to keep a
        // member's SACK blocks; Linux GRO's rule) joins the burst's
        // staging area; consecutive ones merge into one ingest at
        // flush. A segment continuing the staged run's flow at exactly
        // the expected sequence number appends with *zero* demux-table
        // lookups — the flow-match fast path that makes per-MSS receive
        // cheap.
        let mergeable = self.offloads.gro
            && tcp.flags.ack
            && !tcp.flags.syn
            && !tcp.flags.fin
            && !tcp.flags.rst
            && doff == TCP_HDR_LEN
            && payload_len > 0;
        if mergeable {
            match self.gro.continues(ip.src, &tcp) {
                Continues::InOrder(conn) => {
                    nb.pull_header(doff);
                    self.gro.append_or_start(conn, ip.src, tcp, nb);
                    self.counts.add(row::demux_tcp, 1);
                    return Ok(());
                }
                // Sequence gap in the staged flow (a drop or reorder on
                // the wire): deliver the staged run *now* so coalescing
                // never merges across the hole — the gapped segment
                // takes the demux path below and lands in the
                // reassembly queue.
                Continues::AfterGap => self.gro_flush(),
                Continues::No => {}
            }
        }
        let remote = Endpoint::new(ip.src, tcp.src_port);
        // The flow's connection and its state, if a live one owns it.
        let id = self.conns.lookup(flow_key(tcp.dst_port, remote));
        let mut hit = id.and_then(|id| Some((id, self.conns.get(id)?.tcb.state)));
        // TIME_WAIT assassination (RFC 1122 §4.2.2.13): a fresh SYN
        // landing on a connection parked in TIME_WAIT reaps it on the
        // spot and falls through to the listener below — the port
        // recycles without waiting out the full 2MSL.
        if tcp.flags.syn && !tcp.flags.ack {
            if let Some((id, TcpState::TimeWait)) = hit {
                self.reap_conn(id, REAP_TIMEWAIT);
                hit = None;
            }
        }
        let to_listener =
            tcp.flags.syn && !tcp.flags.ack && self.listeners.contains_key(&tcp.dst_port);
        let id = match hit {
            // GRO staging is for flows in steady data transfer;
            // anything mid-handshake or mid-teardown takes the direct
            // path so state transitions apply immediately.
            Some((id, TcpState::Established)) if mergeable => {
                // Start (or interleave) a staged run for this flow.
                nb.pull_header(doff);
                self.gro.append_or_start(id, ip.src, tcp, nb);
                self.counts.add(row::demux_tcp, 1);
                return Ok(());
            }
            Some((id, _)) => {
                // The direct path — after flushing the stage, so
                // nothing overtakes data already queued for this
                // connection.
                self.gro_flush();
                if tcp.flags.fin {
                    uktrace::trace!(self.trace, tp::tcp_fin_rx, tcp.dst_port, tcp.seq);
                }
                id
            }
            // No connection: a SYN to a listener spawns a half-open one
            // on the listener's bounded SYN queue.
            None if to_listener => self.spawn_half_open(&tcp, remote),
            None => return self.tcp_miss(ip.src, &tcp, payload_len, nb),
        };
        // TCP options (SACK-permitted on SYNs, SACK blocks on ACKs) live
        // between the fixed header and the payload; capture them before
        // the header is pulled.
        let opts = tcp_options(&nb.payload()[..doff]);
        nb.pull_header(doff);
        self.tcp_ingest(id, &tcp, opts.as_ref(), std::iter::once(nb))?;
        if payload_len > 0 && !tcp.flags.syn {
            uktrace::trace!(self.trace, tp::tcp_data_rx, id.key(), payload_len);
        }
        self.counts.add(row::demux_tcp, 1);
        Ok(())
    }

    /// Nothing claimed a segment — no connection, no listener: counts
    /// the miss, answers with a RST (suppressed for incoming RSTs —
    /// including in-window RSTs aimed at a bare listener, which are
    /// simply dropped) and gives the buffer back.
    fn tcp_miss(
        &mut self,
        src: Ipv4Addr,
        tcp: &TcpHeader,
        payload_len: usize,
        nb: Netbuf,
    ) -> Result<()> {
        self.counts.add(row::demux_miss, 1);
        uktrace::trace!(self.trace, tp::demux_miss, 6u64, tcp.dst_port);
        self.stage_rst(src, tcp, payload_len);
        self.recycle(nb);
        Err(Errno::ConnRefused)
    }

    /// Admits a SYN to the listener on its destination port: a fresh
    /// half-open connection in `Listen`, on the listener's SYN queue,
    /// for the caller to deliver the SYN to.
    fn spawn_half_open(&mut self, tcp: &TcpHeader, remote: Endpoint) -> ConnId {
        uktrace::trace!(self.trace, tp::tcp_syn_rx, tcp.dst_port, tcp.src_port);
        // At capacity the *oldest* half-open connection is evicted (its
        // buffers pool-returned, its flow entry and timers dropped) — a
        // SYN flood churns the queue but can neither grow it nor starve
        // established connections.
        let victim = self.listeners.get(&tcp.dst_port).and_then(|l| {
            (l.syn_queue.len() >= self.config.listen_backlog)
                .then(|| l.syn_queue.front().copied())
                .flatten()
        });
        if let Some(v) = victim {
            self.counts.add(row::tcp_syn_overflow, 1);
            uktrace::trace!(self.trace, tp::tcp_syn_evicted, tcp.dst_port, v.slot());
            self.reap_conn(v, REAP_SYN_EVICTED);
        }
        let mut tcb = Tcb::listen(tcp.dst_port);
        self.configure_tcb(&mut tcb);
        self.iss = self.iss.wrapping_add(64_000);
        let id = self.conns.insert(tcb, remote, tcp.dst_port);
        if let Some(l) = self.listeners.get_mut(&tcp.dst_port) {
            l.syn_queue.push_back(id);
        } else {
            // The caller checked the listener exists and neither the
            // eviction nor the insert touches it; the half-open
            // connection simply times out if that ever breaks.
            debug_assert!(false, "listener vanished while spawning half-open conn");
        }
        id
    }

    /// Delivers everything staged for GRO, in arrival order: each run
    /// ([`Gro::next_run`](super::gro::Gro::next_run)) is **one**
    /// multi-buffer ingest — one demux-table access, one TCB pass, one
    /// coalesced ACK.
    pub(super) fn gro_flush(&mut self) {
        self.gro.end_run();
        if self.gro.is_empty() {
            return;
        }
        // Out of the stack while it drains: an ingest needs the rest.
        let mut gro = std::mem::take(&mut self.gro);
        while let Some((run, bufs)) = gro.next_run() {
            if run.frames > 1 {
                self.counts.add(row::gro_runs, 1);
                self.counts.add(row::gro_merged_frames, run.frames as u64);
                uktrace::trace!(self.trace, tp::gro_merge, run.conn.key(), run.frames);
            }
            // A connection reaped since it was staged leaves only
            // buffers to return.
            if self.conns.get(run.conn).is_some() {
                // Staged segments carry no options, and a staged
                // connection was `Established`: nothing to refuse.
                let _ = self.tcp_ingest(run.conn, &run.header, None, bufs);
                uktrace::trace!(self.trace, tp::tcp_data_rx, run.conn.key(), run.bytes);
            } else {
                bufs.for_each(|nb| self.pool.give_back_chain(nb));
            }
        }
        self.gro = gro;
    }
}

/// Parses the options of the TCP header `hdr` (fixed part included), if
/// it carries any.
fn tcp_options(hdr: &[u8]) -> Option<TcpOptions> {
    (hdr.len() > TCP_HDR_LEN).then(|| TcpOptions::parse(&hdr[TCP_HDR_LEN..]))
}
