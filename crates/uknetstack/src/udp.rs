//! UDP codec with pseudo-header checksums.

use uknetdev::netbuf::Netbuf;
use ukplat::{Errno, Result};

use crate::ipv4::Ipv4Header;
use crate::{inet_checksum, Csum};

/// UDP header length.
pub const UDP_HDR_LEN: usize = 8;

/// A parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Serializes header + payload into a datagram with a valid checksum
    /// computed over the given IPv4 pseudo header.
    // ukcheck: allow(alloc) -- the owned reference codec the tests hold
    // `emit` to, byte for byte; no stack path calls it
    pub fn encode(&self, ip: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
        let len = (UDP_HDR_LEN + payload.len()) as u16;
        let mut dgram = Vec::with_capacity(len as usize);
        dgram.extend_from_slice(&self.src_port.to_be_bytes());
        dgram.extend_from_slice(&self.dst_port.to_be_bytes());
        dgram.extend_from_slice(&len.to_be_bytes());
        dgram.extend_from_slice(&[0, 0]); // Checksum placeholder.
        dgram.extend_from_slice(payload);
        let ck = inet_checksum(&dgram, ip.pseudo_header_sum());
        let ck = if ck == 0 { 0xffff } else { ck };
        dgram[6..8].copy_from_slice(&ck.to_be_bytes());
        dgram
    }

    /// Prepends the 8-byte header into `nb`'s headroom; the payload
    /// already in the buffer becomes the datagram body without being
    /// copied. With [`Csum::Software`] the checksum is computed in
    /// place over header + payload with the pseudo-header seed —
    /// byte-identical to [`encode`](Self::encode). With
    /// [`Csum::Offload`] the field holds only the *folded pseudo-header
    /// sum* (uncomplemented) and a
    /// [`CsumRequest`](uknetdev::netbuf::CsumRequest) rides the netbuf,
    /// so the device completes the sum over the whole datagram on
    /// `tx_burst` — the frame that reaches the wire is byte-identical
    /// to the software path's.
    ///
    /// # Panics
    ///
    /// Panics if `nb` has less than [`UDP_HDR_LEN`] bytes of headroom.
    /// [`Csum::Gso`] is a caller bug (nothing cuts a datagram, and the
    /// stack's `Offloads::csum()` never yields it): a debug build says
    /// so, a release build emits the datagram as [`Csum::Offload`] —
    /// whole, with a checksum the device completes.
    pub fn emit(&self, ip: &Ipv4Header, nb: &mut Netbuf, csum: Csum) {
        debug_assert!(!matches!(csum, Csum::Gso { .. }), "UDP has no segmentation offload");
        let len = nb.len() as u16 + UDP_HDR_LEN as u16;
        let seed = match csum {
            Csum::Software => 0,
            Csum::Offload | Csum::Gso { .. } => {
                uknetdev::csum::fold_partial_sum(u64::from(ip.pseudo_header_sum()))
            }
        };
        let hdr = nb.push_header_uninit(UDP_HDR_LEN);
        hdr[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        hdr[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        hdr[4..6].copy_from_slice(&len.to_be_bytes());
        hdr[6..8].copy_from_slice(&seed.to_be_bytes());
        if csum == Csum::Software {
            let ck = inet_checksum(nb.payload(), ip.pseudo_header_sum());
            let ck = if ck == 0 { 0xffff } else { ck };
            nb.payload_mut()[6..8].copy_from_slice(&ck.to_be_bytes());
        } else {
            nb.request_csum(nb.len(), 6);
        }
    }

    /// Parses and verifies a datagram; returns header + payload.
    pub fn decode<'a>(ip: &Ipv4Header, dgram: &'a [u8]) -> Result<(UdpHeader, &'a [u8])> {
        Self::decode_inner(ip, dgram, true)
    }

    /// [`decode`](Self::decode) for a frame the wire/device already
    /// marked checksum-validated (`VIRTIO_NET_F_GUEST_CSUM`):
    /// structural validation only, the checksum pass over the datagram
    /// is skipped.
    pub fn decode_trusted<'a>(ip: &Ipv4Header, dgram: &'a [u8]) -> Result<(UdpHeader, &'a [u8])> {
        Self::decode_inner(ip, dgram, false)
    }

    fn decode_inner<'a>(
        ip: &Ipv4Header,
        dgram: &'a [u8],
        verify_csum: bool,
    ) -> Result<(UdpHeader, &'a [u8])> {
        if dgram.len() < UDP_HDR_LEN {
            return Err(Errno::Inval);
        }
        let len = u16::from_be_bytes([dgram[4], dgram[5]]) as usize;
        if len < UDP_HDR_LEN || len > dgram.len() {
            return Err(Errno::Inval);
        }
        let ck = u16::from_be_bytes([dgram[6], dgram[7]]);
        if verify_csum && ck != 0 && inet_checksum(&dgram[..len], ip.pseudo_header_sum()) != 0 {
            return Err(Errno::Io);
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([dgram[0], dgram[1]]),
                dst_port: u16::from_be_bytes([dgram[2], dgram[3]]),
            },
            &dgram[UDP_HDR_LEN..len],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::IpProto;
    use crate::Ipv4Addr;

    fn ip(payload_len: usize) -> Ipv4Header {
        Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            proto: IpProto::Udp,
            payload_len,
            ttl: 64,
        }
    }

    #[test]
    fn roundtrip_with_checksum() {
        let h = UdpHeader {
            src_port: 5000,
            dst_port: 53,
        };
        let payload = b"dns-query";
        let ip = ip(UDP_HDR_LEN + payload.len());
        let dgram = h.encode(&ip, payload);
        let (h2, p2) = UdpHeader::decode(&ip, &dgram).unwrap();
        assert_eq!(h, h2);
        assert_eq!(p2, payload);
    }

    #[test]
    fn corrupt_payload_detected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let ip = ip(UDP_HDR_LEN + 4);
        let mut dgram = h.encode(&ip, &[1, 2, 3, 4]);
        dgram[9] ^= 0x55;
        assert_eq!(UdpHeader::decode(&ip, &dgram).unwrap_err(), Errno::Io);
    }

    /// `Csum::Gso` on a datagram is a caller bug: a debug build names
    /// it; a release-shaped build, where a panic is the end of the
    /// image, emits the datagram whole with a device-completed checksum
    /// — exactly what `Csum::Offload` emits.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "UDP has no segmentation offload"))]
    fn gso_on_a_datagram_is_emitted_as_offload() {
        let h = UdpHeader { src_port: 7, dst_port: 9 };
        let ip = ip(UDP_HDR_LEN + 5);
        let emit = |csum| {
            let mut nb = Netbuf::alloc(256, UDP_HDR_LEN);
            nb.append(b"hello");
            h.emit(&ip, &mut nb, csum);
            nb
        };
        let (gso, offload) = (emit(Csum::Gso { mss: 1460 }), emit(Csum::Offload));
        assert_eq!(gso.payload(), offload.payload());
        assert_eq!(gso.csum_request(), offload.csum_request());
        assert!(gso.csum_request().is_some() && gso.gso_request().is_none());
    }

    #[test]
    fn short_datagram_rejected() {
        let ip = ip(4);
        assert_eq!(
            UdpHeader::decode(&ip, &[0; 4]).unwrap_err(),
            Errno::Inval
        );
    }
}
