//! Ethernet II framing.

use uknetdev::netbuf::Netbuf;
use ukplat::{Errno, Result};

use crate::Mac;

/// Ethernet header length.
pub(crate) const ETH_HDR_LEN: usize = 14;

/// EtherType values we speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
}

impl EtherType {
    fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
        }
    }

    fn from_u16(v: u16) -> Option<Self> {
        match v {
            0x0800 => Some(EtherType::Ipv4),
            0x0806 => Some(EtherType::Arp),
            _ => None,
        }
    }
}

/// A parsed Ethernet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination MAC.
    pub dst: Mac,
    /// Source MAC.
    pub src: Mac,
    /// Payload protocol.
    pub ethertype: EtherType,
}

impl EthHeader {
    /// Serializes into 14 bytes.
    pub fn encode(&self) -> [u8; ETH_HDR_LEN] {
        let mut b = [0u8; ETH_HDR_LEN];
        b[0..6].copy_from_slice(&self.dst.0);
        b[6..12].copy_from_slice(&self.src.0);
        b[12..14].copy_from_slice(&self.ethertype.to_u16().to_be_bytes());
        b
    }

    /// Prepends the 14-byte header into `nb`'s headroom in place: the
    /// packet already in the buffer becomes the frame payload without
    /// being copied (zero-copy pooled datapath).
    ///
    /// # Panics
    ///
    /// Panics if `nb` has less than `ETH_HDR_LEN` bytes of headroom.
    pub fn encode_into(&self, nb: &mut Netbuf) {
        let b = nb.push_header_uninit(ETH_HDR_LEN);
        b[0..6].copy_from_slice(&self.dst.0);
        b[6..12].copy_from_slice(&self.src.0);
        b[12..14].copy_from_slice(&self.ethertype.to_u16().to_be_bytes());
    }

    /// Parses a frame, returning the header and the payload slice.
    pub fn decode(frame: &[u8]) -> Result<(EthHeader, &[u8])> {
        if frame.len() < ETH_HDR_LEN {
            return Err(Errno::Inval);
        }
        let ethertype = EtherType::from_u16(u16::from_be_bytes([frame[12], frame[13]]))
            .ok_or(Errno::ProtoNoSupport)?;
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&frame[0..6]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&frame[6..12]);
        Ok((
            EthHeader {
                dst: Mac(dst),
                src: Mac(src),
                ethertype,
            },
            &frame[ETH_HDR_LEN..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frame building for tests goes through the headroom path — the
    /// same code the stack uses (no parallel `encode().to_vec()` frame
    /// assembly to keep in sync).
    fn frame(h: &EthHeader, payload: &[u8]) -> Netbuf {
        let mut nb = Netbuf::alloc(256, ETH_HDR_LEN);
        nb.append(payload);
        h.encode_into(&mut nb);
        nb
    }

    #[test]
    fn roundtrip() {
        let h = EthHeader {
            dst: Mac::node(2),
            src: Mac::node(1),
            ethertype: EtherType::Ipv4,
        };
        let nb = frame(&h, b"payload");
        let (h2, payload) = EthHeader::decode(nb.payload()).unwrap();
        assert_eq!(h, h2);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn short_frame_rejected() {
        assert_eq!(EthHeader::decode(&[0; 5]).unwrap_err(), Errno::Inval);
    }

    #[test]
    fn unknown_ethertype_rejected() {
        let h = EthHeader {
            dst: Mac::BROADCAST,
            src: Mac::node(1),
            ethertype: EtherType::Arp,
        };
        let mut nb = frame(&h, &[]);
        nb.payload_mut()[12] = 0x86;
        nb.payload_mut()[13] = 0xdd; // IPv6
        assert_eq!(
            EthHeader::decode(nb.payload()).unwrap_err(),
            Errno::ProtoNoSupport
        );
    }
}
