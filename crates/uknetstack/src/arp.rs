//! ARP: request/reply codec and the neighbour cache.

use std::collections::HashMap;

use ukplat::{Errno, Result};

use crate::{Ipv4Addr, Mac};

/// ARP packet length for Ethernet/IPv4.
pub const ARP_LEN: usize = 28;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has.
    Request,
    /// Is-at.
    Reply,
}

/// A parsed ARP packet (Ethernet/IPv4 only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sha: Mac,
    /// Sender protocol address.
    pub spa: Ipv4Addr,
    /// Target hardware address.
    pub tha: Mac,
    /// Target protocol address.
    pub tpa: Ipv4Addr,
}

impl ArpPacket {
    /// Serializes to 28 bytes.
    pub fn encode(&self) -> [u8; ARP_LEN] {
        let mut b = [0u8; ARP_LEN];
        b[0..2].copy_from_slice(&1u16.to_be_bytes()); // HTYPE Ethernet
        b[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // PTYPE IPv4
        b[4] = 6; // HLEN
        b[5] = 4; // PLEN
        let op: u16 = match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        };
        b[6..8].copy_from_slice(&op.to_be_bytes());
        b[8..14].copy_from_slice(&self.sha.0);
        b[14..18].copy_from_slice(&self.spa.octets());
        b[18..24].copy_from_slice(&self.tha.0);
        b[24..28].copy_from_slice(&self.tpa.octets());
        b
    }

    /// Parses an ARP packet.
    pub fn decode(data: &[u8]) -> Result<ArpPacket> {
        if data.len() < ARP_LEN {
            return Err(Errno::Inval);
        }
        let op = match u16::from_be_bytes([data[6], data[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return Err(Errno::ProtoNoSupport),
        };
        let mut sha = [0u8; 6];
        sha.copy_from_slice(&data[8..14]);
        let mut tha = [0u8; 6];
        tha.copy_from_slice(&data[18..24]);
        Ok(ArpPacket {
            op,
            sha: Mac(sha),
            spa: Ipv4Addr(u32::from_be_bytes([data[14], data[15], data[16], data[17]])),
            tha: Mac(tha),
            tpa: Ipv4Addr(u32::from_be_bytes([data[24], data[25], data[26], data[27]])),
        })
    }
}

/// The neighbour cache.
#[derive(Debug, Default)]
pub struct ArpCache {
    entries: HashMap<Ipv4Addr, Mac>,
}

impl ArpCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learns a mapping.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: Mac) {
        self.entries.insert(ip, mac);
    }

    /// Resolves an address. (A miss is counted by the stack, as the
    /// packet it parks: `StackStats::arp_parked`.)
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<Mac> {
        self.entries.get(&ip).copied()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_request() {
        let p = ArpPacket {
            op: ArpOp::Request,
            sha: Mac::node(1),
            spa: Ipv4Addr::new(10, 0, 0, 1),
            tha: Mac([0; 6]),
            tpa: Ipv4Addr::new(10, 0, 0, 2),
        };
        let enc = p.encode();
        assert_eq!(ArpPacket::decode(&enc).unwrap(), p);
    }

    #[test]
    fn short_packet_rejected() {
        assert_eq!(ArpPacket::decode(&[0; 10]).unwrap_err(), Errno::Inval);
    }

    #[test]
    fn cache_misses_until_it_learns() {
        let mut c = ArpCache::new();
        let ip = Ipv4Addr::new(10, 0, 0, 9);
        assert!(c.lookup(ip).is_none());
        c.insert(ip, Mac::node(9));
        assert_eq!(c.lookup(ip), Some(Mac::node(9)));
        assert_eq!(c.len(), 1);
    }
}
