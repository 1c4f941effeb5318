//! Network stack micro-library (the paper's lwIP port).
//!
//! Unikraft runs lwIP on top of `uknetdev`; applications choose between
//! the standard socket interface (scenario ➁ in the paper's Figure 4) or
//! the raw `uknetdev` burst API (scenario ➆) when performance dictates.
//! This crate is the socket-path substrate: a small but real stack —
//! byte-level Ethernet/ARP/IPv4/UDP/TCP codecs with genuine Internet
//! checksums, an ARP cache, a TCP state machine with sequence tracking,
//! and a non-blocking socket layer.
//!
//! # Zero-copy pooled datapath
//!
//! The stack follows `uknetdev`'s §3.1 buffer-ownership model end to
//! end. Every protocol codec has two serializers: `encode()` — the
//! allocating reference form — and one that *prepends* the header into
//! a pooled buffer's headroom in place (`encode_into`; `emit` for TCP
//! and UDP, which also says who completes the checksum — [`Csum`]),
//! property-tested byte-identical to the reference. On transmit the
//! payload is written once behind [`stack::TX_HEADROOM`] bytes of
//! headroom and TCP/UDP/ICMP → IPv4 → Ethernet headers are pushed in
//! front of it; the same buffer goes to `tx_burst`, is reclaimed on
//! completion and recycled into the [`NetbufPool`]. On receive the
//! buffer walks back up via `pull_header` and is *kept*: UDP payloads
//! queue on sockets as netbufs and TCP payloads queue on connections
//! as netbufs (GRO-coalesced per burst), until a reader either copies
//! them out (`udp_recv_into`/`tcp_recv_into`) or takes the buffers
//! whole — the zero-copy receive path
//! (`tcp_recv_burst_netbuf`/`udp_recv_netbuf`, recycled by the
//! caller). Steady-state packet processing performs zero heap
//! allocations (asserted by the `zero_alloc` integration test over a
//! grid of `StackConfig` cells).
//!
//! Frames travel through a [`VirtioNet`](uknetdev::VirtioNet) device;
//! [`testnet::Network`] wires multiple stacks together so clients and
//! servers exchange real packets in-process — the wire moves netbufs
//! between pools too, one DMA-style copy per hop.
//!
//! # Connection lifecycle and the timer wheel
//!
//! Every stack has a clock — its own from construction, a shared one
//! after [`NetStack::set_clock`] — and every connection walks the full
//! RFC 793 state machine on it:
//!
//! ```text
//!            LISTEN ──SYN──▶ SYN_RECEIVED ──ACK──▶ ESTABLISHED
//!                               │ handshake                │ close
//!                               ▼ timeout                  ▼
//!                             (reaped)                FIN_WAIT_1/2 ── CLOSING
//!            SYN_SENT ──SYN-ACK─────────▶                  │
//!                                                          ▼
//!            CLOSE_WAIT ─▶ LAST_ACK ─▶ CLOSED         TIME_WAIT ──2MSL──▶ (port
//!                                                                         recycled)
//! ```
//!
//! Every time-driven transition — retransmission (RTO), zero-window
//! persist probes, delayed ACKs, the SYN_RECEIVED handshake timeout,
//! the FIN_WAIT_2 orphan timeout, TIME_WAIT's 2MSL park, and keepalive
//! probing with dead-peer teardown — is a deadline the connection's
//! TCB keeps ([`tcp::TcbTimer`]); the stack keeps **one** entry per
//! connection, at or before the earliest of them, on a **timer
//! queue** ([`timer::TimerWheel`]: a binary min-heap by 1 ms deadline
//! tick, cancel in place, generation-tagged tokens, zero allocations
//! once warm) driven from `pump` instead of per-connection scans. Demux is a hashed
//! open-addressing flow table ([`flow::FlowTable`]) over an inline
//! TCB slab — no per-connection boxing, no per-lookup allocation.
//! The stack and a TCB meet along one narrow seam: one
//! [`tcp::TcbConfig`] in, one deadline out and one wake-up back
//! (`next_deadline` / `on_time`), one ingest call per received segment, and one
//! [`tcp::TcbStats`] read back and published under `netstack.tcp.*`
//! (the crate README's "The TCB seam" lists every crossing).
//!
//! The accept path is bounded on both sides
//! ([`StackConfig::listen_backlog`]): when the half-open SYN queue is
//! full, the **oldest half-open** embryo is evicted (its buffers
//! return to the pool) to admit the new SYN — the
//! `netstack.tcp.syn_overflow` counter records each eviction; when
//! the accept backlog is full, handshake-completing ACKs are dropped
//! and the client's retransmission finishes the handshake once the
//! application drains `tcp_accept`. Segments matching no flow draw a
//! correctly-sequenced RST (never RST-on-RST); in-window RSTs to a
//! LISTEN socket are dropped rather than wedging the listener. A TCB's
//! queues start empty and grow with its traffic, so an idle
//! connection costs well under a kilobyte (its slab slot,
//! size-asserted at compile time in `stack/conns.rs`).
//!
//! [`NetbufPool`]: uknetdev::NetbufPool
//! [`NetStack::set_clock`]: stack::NetStack::set_clock
//! [`StackConfig::listen_backlog`]: stack::StackConfig::listen_backlog

pub mod arp;
pub mod eth;
pub mod flow;
pub mod icmp;
pub mod ipv4;
pub mod stack;
pub mod tcp;
pub mod testnet;
pub mod timer;
pub mod udp;

pub use stack::{NetStack, SocketHandle, StackConfig};
pub use testnet::Network;

use std::fmt;

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mac(pub [u8; 6]);

impl Mac {
    /// The broadcast address.
    pub(crate) const BROADCAST: Mac = Mac([0xff; 6]);

    /// Deterministic MAC for test node `n`.
    pub fn node(n: u8) -> Mac {
        Mac([0x02, 0x00, 0x00, 0x00, 0x00, n])
    }
}

impl fmt::Display for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Builds an address from octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// Byte representation (network order).
    pub(crate) fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// An (address, port) endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: Ipv4Addr,
    /// Port.
    pub port: u16,
}

impl Endpoint {
    /// Builds an endpoint.
    pub fn new(addr: Ipv4Addr, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// Who fills the checksum field of a TCP or UDP header written in place
/// ([`tcp::TcpHeader::emit`], [`udp::UdpHeader::emit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Csum {
    /// The emitter, in software, over the whole segment.
    Software,
    /// The device (`VIRTIO_NET_F_CSUM`): the field is seeded with the
    /// folded pseudo-header sum and a `CsumRequest` rides the buffer.
    Offload,
    /// The host side, per cut frame (`VIRTIO_NET_F_HOST_TSO4`):
    /// `Offload` for a TCP super-segment chain, plus a `GsoRequest` to
    /// cut it into wire frames of `mss` payload bytes.
    Gso { mss: u16 },
}

/// The Internet checksum (RFC 1071) over `data`, seeded with `initial`.
///
/// Delegates to the one-pass unrolled implementation in
/// [`uknetdev::csum`] — shared with the virtio device model, which
/// completes offloaded transport checksums with the same code the
/// stack's software fallback and RX verification use.
pub fn inet_checksum(data: &[u8], initial: u32) -> u16 {
    uknetdev::csum::inet_checksum(data, initial)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_of_rfc1071_example() {
        // Classic example: 00 01 f2 03 f4 f5 f6 f7 → checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(inet_checksum(&data, 0), 0x220d);
    }

    #[test]
    fn checksum_odd_length() {
        let data = [0x01, 0x02, 0x03];
        // 0x0102 + 0x0300 = 0x0402 → !0x0402 = 0xfbfd.
        assert_eq!(inet_checksum(&data, 0), 0xfbfd);
    }

    #[test]
    fn checksum_verifies_to_zero() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0xab, 0xcd, 0x00, 0x00, 0x40, 0x11];
        let ck = inet_checksum(&data, 0);
        data.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(inet_checksum(&data, 0), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Ipv4Addr::new(10, 0, 0, 1).to_string(), "10.0.0.1");
        assert_eq!(Mac::node(3).to_string(), "02:00:00:00:00:03");
        assert_eq!(
            Endpoint::new(Ipv4Addr::new(1, 2, 3, 4), 80).to_string(),
            "1.2.3.4:80"
        );
    }
}
