//! ICMP echo (ping): codec and reply logic.
//!
//! Rounds out the stack the way lwIP does: echo requests are answered
//! by the stack itself, and applications can issue pings to probe
//! reachability (useful when bringing up driver + wiring).

use uknetdev::netbuf::Netbuf;
use ukplat::{Errno, Result};

use crate::inet_checksum;

/// ICMP header length for echo messages.
pub const ICMP_ECHO_LEN: usize = 8;

/// An ICMP echo message (request or reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpEcho {
    /// `true` for echo request (type 8), `false` for reply (type 0).
    pub request: bool,
    /// Identifier (like a process id).
    pub ident: u16,
    /// Sequence number.
    pub seq: u16,
    /// Payload carried back verbatim.
    pub payload: Vec<u8>,
}

impl IcmpEcho {
    /// Serializes with a correct ICMP checksum.
    // ukcheck: allow(alloc) -- the owned reference codec the tests hold
    // `encode_echo_into` to, byte for byte; no stack path calls it
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(ICMP_ECHO_LEN + self.payload.len());
        b.push(if self.request { 8 } else { 0 });
        b.push(0); // code
        b.extend_from_slice(&[0, 0]); // checksum placeholder
        b.extend_from_slice(&self.ident.to_be_bytes());
        b.extend_from_slice(&self.seq.to_be_bytes());
        b.extend_from_slice(&self.payload);
        let ck = inet_checksum(&b, 0);
        b[2..4].copy_from_slice(&ck.to_be_bytes());
        b
    }

    /// Prepends this message's header over its payload via the
    /// headroom path: appends the payload, then calls
    /// [`encode_echo_into`]. Byte-identical to [`encode`](Self::encode).
    pub fn encode_into(&self, nb: &mut Netbuf) {
        nb.append(&self.payload);
        encode_echo_into(self.request, self.ident, self.seq, nb);
    }

    /// Parses and checksum-verifies an echo message into an owned
    /// value (copies the payload; the stack's hot path uses the
    /// borrowing [`decode_echo`] instead).
    // ukcheck: allow(alloc) -- the owned form, for tests: the payload
    // copy is what `decode_echo` exists to avoid
    pub fn decode(data: &[u8]) -> Result<IcmpEcho> {
        let (request, ident, seq, payload) = decode_echo(data)?;
        Ok(IcmpEcho {
            request,
            ident,
            seq,
            payload: payload.to_vec(),
        })
    }

}

/// Parses and checksum-verifies an echo message without copying:
/// returns `(request, ident, seq, payload)` with the payload borrowed
/// from `data`.
pub fn decode_echo(data: &[u8]) -> Result<(bool, u16, u16, &[u8])> {
    if data.len() < ICMP_ECHO_LEN {
        return Err(Errno::Inval);
    }
    if inet_checksum(data, 0) != 0 {
        return Err(Errno::Io);
    }
    let request = match data[0] {
        8 => true,
        0 => false,
        _ => return Err(Errno::ProtoNoSupport),
    };
    Ok((
        request,
        u16::from_be_bytes([data[4], data[5]]),
        u16::from_be_bytes([data[6], data[7]]),
        &data[ICMP_ECHO_LEN..],
    ))
}

/// Prepends an 8-byte echo header (correct checksum) over the payload
/// already in `nb` — the zero-copy primitive behind both `ping` and
/// the stack's echo replies, which previously cloned the payload into
/// a fresh [`IcmpEcho`].
///
/// # Panics
///
/// Panics if `nb` has less than [`ICMP_ECHO_LEN`] bytes of headroom.
pub fn encode_echo_into(request: bool, ident: u16, seq: u16, nb: &mut Netbuf) {
    let hdr = nb.push_header_uninit(ICMP_ECHO_LEN);
    hdr[0] = if request { 8 } else { 0 };
    hdr[1] = 0; // code
    hdr[2..4].copy_from_slice(&[0, 0]); // checksum placeholder
    hdr[4..6].copy_from_slice(&ident.to_be_bytes());
    hdr[6..8].copy_from_slice(&seq.to_be_bytes());
    let ck = inet_checksum(nb.payload(), 0);
    nb.payload_mut()[2..4].copy_from_slice(&ck.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let e = IcmpEcho {
            request: true,
            ident: 0x1234,
            seq: 7,
            payload: b"ping-data".to_vec(),
        };
        assert_eq!(IcmpEcho::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn corruption_detected() {
        let e = IcmpEcho {
            request: true,
            ident: 1,
            seq: 1,
            payload: vec![1, 2, 3, 4],
        };
        let mut b = e.encode();
        b[9] ^= 0xff;
        assert_eq!(IcmpEcho::decode(&b).unwrap_err(), Errno::Io);
    }

    #[test]
    fn in_place_reply_mirrors_request() {
        // The stack's reply path: echo the request payload into a
        // buffer and prepend a reply header in the headroom.
        let mut nb = Netbuf::alloc(256, ICMP_ECHO_LEN);
        nb.append(b"abc");
        encode_echo_into(false, 9, 3, &mut nb);
        let rep = IcmpEcho::decode(nb.payload()).unwrap();
        assert!(!rep.request);
        assert_eq!(rep.ident, 9);
        assert_eq!(rep.seq, 3);
        assert_eq!(rep.payload, b"abc");
    }

    #[test]
    fn encode_into_matches_encode() {
        let e = IcmpEcho {
            request: true,
            ident: 0x0102,
            seq: 42,
            payload: b"payload bytes".to_vec(),
        };
        let mut nb = Netbuf::alloc(256, ICMP_ECHO_LEN);
        e.encode_into(&mut nb);
        assert_eq!(nb.payload(), &e.encode()[..]);
    }
}
