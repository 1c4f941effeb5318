//! IPv4 header codec with real header checksums.

use uknetdev::netbuf::Netbuf;
use ukplat::{Errno, Result};

use crate::{inet_checksum, Ipv4Addr};

/// IPv4 header length (no options).
pub(crate) const IPV4_HDR_LEN: usize = 20;

/// Transport protocols we carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
}

impl IpProto {
    fn to_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(IpProto::Icmp),
            6 => Some(IpProto::Tcp),
            17 => Some(IpProto::Udp),
            _ => None,
        }
    }
}

/// A parsed IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub proto: IpProto,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Time to live.
    pub ttl: u8,
}

impl Ipv4Header {
    /// Serializes to 20 bytes with a correct header checksum.
    pub fn encode(&self) -> [u8; IPV4_HDR_LEN] {
        let mut b = [0u8; IPV4_HDR_LEN];
        b[0] = 0x45; // v4, IHL 5
        let total = (IPV4_HDR_LEN + self.payload_len) as u16;
        b[2..4].copy_from_slice(&total.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.proto.to_u8();
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let ck = inet_checksum(&b, 0);
        b[10..12].copy_from_slice(&ck.to_be_bytes());
        b
    }

    /// Prepends the 20-byte header (correct checksum included) into
    /// `nb`'s headroom; the transport packet already in the buffer is
    /// untouched. Byte-identical to [`encode`](Self::encode).
    ///
    /// # Panics
    ///
    /// Panics if `nb` has less than `IPV4_HDR_LEN` bytes of headroom.
    pub fn encode_into(&self, nb: &mut Netbuf) {
        let hdr = self.encode();
        nb.push_header(&hdr);
    }

    /// Parses and checksum-verifies a packet; returns header + payload.
    pub fn decode(data: &[u8]) -> Result<(Ipv4Header, &[u8])> {
        Self::decode_inner(data, true)
    }

    /// [`decode`](Self::decode) for a frame the wire/device already
    /// marked checksum-validated (`VIRTIO_NET_F_GUEST_CSUM`):
    /// structural validation only, the header checksum pass is
    /// skipped.
    pub fn decode_trusted(data: &[u8]) -> Result<(Ipv4Header, &[u8])> {
        Self::decode_inner(data, false)
    }

    fn decode_inner(data: &[u8], verify_csum: bool) -> Result<(Ipv4Header, &[u8])> {
        if data.len() < IPV4_HDR_LEN {
            return Err(Errno::Inval);
        }
        if data[0] != 0x45 {
            return Err(Errno::ProtoNoSupport); // v4 without options only
        }
        if verify_csum && inet_checksum(&data[..IPV4_HDR_LEN], 0) != 0 {
            return Err(Errno::Io); // Corrupt header.
        }
        let total = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total < IPV4_HDR_LEN || total > data.len() {
            return Err(Errno::Inval);
        }
        let proto = IpProto::from_u8(data[9]).ok_or(Errno::ProtoNoSupport)?;
        let h = Ipv4Header {
            src: Ipv4Addr(u32::from_be_bytes([data[12], data[13], data[14], data[15]])),
            dst: Ipv4Addr(u32::from_be_bytes([data[16], data[17], data[18], data[19]])),
            proto,
            payload_len: total - IPV4_HDR_LEN,
            ttl: data[8],
        };
        Ok((h, &data[IPV4_HDR_LEN..total]))
    }

    /// The pseudo-header checksum seed for UDP/TCP.
    pub(crate) fn pseudo_header_sum(&self) -> u32 {
        let s = self.src.octets();
        let d = self.dst.octets();
        let mut sum = 0u32;
        sum += u32::from(u16::from_be_bytes([s[0], s[1]]));
        sum += u32::from(u16::from_be_bytes([s[2], s[3]]));
        sum += u32::from(u16::from_be_bytes([d[0], d[1]]));
        sum += u32::from(u16::from_be_bytes([d[2], d[3]]));
        sum += u32::from(self.proto.to_u8());
        sum += self.payload_len as u32;
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> Ipv4Header {
        Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            proto: IpProto::Udp,
            payload_len: 8,
            ttl: 64,
        }
    }

    #[test]
    fn roundtrip() {
        let h = hdr();
        let mut pkt = h.encode().to_vec();
        pkt.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let (h2, payload) = Ipv4Header::decode(&pkt).unwrap();
        assert_eq!(h, h2);
        assert_eq!(payload, &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn corrupted_header_detected() {
        let h = hdr();
        let mut pkt = h.encode().to_vec();
        pkt.extend_from_slice(&[0; 8]);
        pkt[14] ^= 0xff; // Flip a src byte.
        assert_eq!(Ipv4Header::decode(&pkt).unwrap_err(), Errno::Io);
    }

    #[test]
    fn truncated_packet_rejected() {
        let h = hdr();
        let pkt = h.encode(); // Claims 8 payload bytes but has none.
        assert_eq!(Ipv4Header::decode(&pkt).unwrap_err(), Errno::Inval);
    }

    #[test]
    fn trailing_bytes_ignored() {
        let h = Ipv4Header {
            payload_len: 2,
            ..hdr()
        };
        let mut pkt = h.encode().to_vec();
        pkt.extend_from_slice(&[9, 9]);
        pkt.extend_from_slice(&[0xaa; 10]); // Ethernet padding.
        let (_, payload) = Ipv4Header::decode(&pkt).unwrap();
        assert_eq!(payload, &[9, 9]);
    }
}
