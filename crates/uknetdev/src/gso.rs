//! TSO/GSO segmentation: cutting MSS wire frames from a super-segment.
//!
//! The `VIRTIO_NET_F_HOST_TSO4` contract: the guest driver hands the
//! device *one* oversized TCP frame — here a scatter-gather
//! [`Netbuf`] chain whose head carries the Ethernet/IPv4/TCP headers
//! of the whole super-segment plus a [`GsoRequest`] — and the **host
//! side** cuts it into wire frames of at most `mss` TCP payload bytes
//! each. [`cut_frame`] is that host-side cutter, shared by:
//!
//! - the in-process wire (`uknetstack::testnet`), which plays the
//!   vhost backend: it cuts each harvested GSO frame straight onto
//!   buffers posted from the *receiver's* pool — the cut and the wire
//!   DMA are the same copy, so TSO adds no extra pass over the bytes;
//! - any software-GSO fallback that must pre-cut frames for a peer
//!   that does not accept oversized frames.
//!
//! Per cut frame the helper replicates the 54-byte header template and
//! fixes it up exactly as a real NIC does: IPv4 total length rewritten
//! and the header checksum recomputed (cached across the equal-sized
//! full-MSS frames), TCP sequence number advanced by the payload
//! offset, PSH kept only on the final frame, and the TCP checksum
//! completed over the frame's own pseudo-header — the same
//! `0 → 0xffff` congruence the device's [`CsumRequest`] completion
//! uses, so the frames are **byte-identical** to what the software
//! per-MSS segmentation path puts on the wire (property-tested in
//! `uknetstack`).
//!
//! [`GsoRequest`]: crate::netbuf::GsoRequest
//! [`CsumRequest`]: crate::netbuf::CsumRequest

use ukplat::{Errno, Result};

use crate::csum::inet_checksum;
use crate::netbuf::Netbuf;

/// Ethernet header bytes in the template.
const ETH_LEN: usize = 14;
/// IPv4 header bytes (no options).
const IP_LEN: usize = 20;
/// TCP header bytes (no options).
const TCP_LEN: usize = 20;
/// Full header template: Ethernet + IPv4 + TCP.
const HDRS: usize = ETH_LEN + IP_LEN + TCP_LEN;

/// Cuts a GSO super-segment into per-MSS wire frames.
///
/// `superframe` must be an Ethernet/IPv4/TCP frame (headers wholly in
/// the head buffer, payload possibly continuing through chain
/// fragments) whose IPv4 total length covers the entire chain.
/// `take_buf` supplies one empty buffer per cut frame (no headroom,
/// capacity at least `HDRS + mss`); finished frames are pushed onto
/// `out`. Returns the number of frames produced.
///
/// The cutter consumes no state from the netbuf's offload requests —
/// callers pass the `mss` from the frame's
/// [`GsoRequest`](crate::netbuf::GsoRequest) — and leaves
/// `superframe` untouched, so the caller still owns and recycles the
/// whole chain afterwards.
pub fn cut_frame<F>(
    superframe: &Netbuf,
    mss: u16,
    mut take_buf: F,
    out: &mut Vec<Netbuf>,
) -> Result<usize>
where
    F: FnMut() -> Netbuf,
{
    let mss = mss as usize;
    let head = superframe.payload();
    if mss == 0 || head.len() < HDRS {
        return Err(Errno::Inval);
    }
    let total = superframe.chain_len();
    // Structural checks: IPv4 without options carrying TCP without
    // options, length field spanning the whole chain.
    if head[12..14] != [0x08, 0x00]
        || head[ETH_LEN] != 0x45
        || head[ETH_LEN + 9] != 6
        || head[ETH_LEN + IP_LEN + 12] >> 4 != 5
    {
        return Err(Errno::Inval);
    }
    let ip_total = u16::from_be_bytes([head[16], head[17]]) as usize;
    if ip_total != total - ETH_LEN {
        return Err(Errno::Inval);
    }
    let payload_total = total - HDRS;
    if payload_total == 0 {
        return Err(Errno::Inval);
    }

    let template: &[u8] = &head[..HDRS];
    let seq0 = u32::from_be_bytes([head[38], head[39], head[40], head[41]]);
    let flags = head[47];
    // Pseudo-header sum without the length term: addresses + protocol.
    let ip = &head[ETH_LEN..ETH_LEN + IP_LEN];
    let pseudo_base: u32 = u32::from(u16::from_be_bytes([ip[12], ip[13]]))
        + u32::from(u16::from_be_bytes([ip[14], ip[15]]))
        + u32::from(u16::from_be_bytes([ip[16], ip[17]]))
        + u32::from(u16::from_be_bytes([ip[18], ip[19]]))
        + 6;

    // Forward-only cursor over the chain's payload bytes, starting
    // just past the headers in the head extent.
    let mut segs = superframe.chain_segments();
    // `chain_segments` starts with `iter::once(head)`, so a missing
    // head extent is structurally impossible; degrade to a malformed-
    // frame error rather than carrying a panicking path.
    let Some(mut cur) = segs.next() else {
        debug_assert!(false, "chain_segments yielded no head extent");
        return Err(Errno::Inval);
    };
    let mut cur_off = HDRS;

    // The IPv4 header differs between frames only in its length field
    // (all full-MSS frames share one), so its checksum is computed
    // once per distinct frame size.
    let mut cached_ip_csum: Option<(usize, u16)> = None;

    let mut produced = 0;
    let mut done = 0;
    while done < payload_total {
        let plen = mss.min(payload_total - done);
        let last = done + plen == payload_total;
        let mut nb = take_buf();
        assert!(
            nb.headroom() == 0 && nb.capacity() >= HDRS + plen,
            "cut buffer too small for an MSS frame"
        );
        nb.set_len(HDRS + plen);
        let frame = nb.payload_mut();
        frame[..HDRS].copy_from_slice(template);
        // IPv4: rewrite the length, restamp the header checksum.
        let ip_total_i = (IP_LEN + TCP_LEN + plen) as u16;
        frame[16..18].copy_from_slice(&ip_total_i.to_be_bytes());
        frame[24..26].copy_from_slice(&[0, 0]);
        let ip_ck = match cached_ip_csum {
            Some((l, ck)) if l == plen => ck,
            _ => {
                let ck = inet_checksum(&frame[ETH_LEN..ETH_LEN + IP_LEN], 0);
                cached_ip_csum = Some((plen, ck));
                ck
            }
        };
        frame[24..26].copy_from_slice(&ip_ck.to_be_bytes());
        // TCP: advance the sequence, keep PSH only on the final cut.
        frame[38..42].copy_from_slice(&seq0.wrapping_add(done as u32).to_be_bytes());
        frame[47] = if last { flags } else { flags & !0x08 };
        frame[50..52].copy_from_slice(&[0, 0]);
        // Payload: one copy out of the chain into the wire frame.
        let mut filled = HDRS;
        while filled < HDRS + plen {
            if cur_off == cur.len() {
                cur = segs.next().ok_or(Errno::Inval)?;
                cur_off = 0;
                continue;
            }
            let take = (cur.len() - cur_off).min(HDRS + plen - filled);
            frame[filled..filled + take].copy_from_slice(&cur[cur_off..cur_off + take]);
            cur_off += take;
            filled += take;
        }
        // TCP checksum over this frame's own pseudo-header; a computed
        // 0 is emitted as the congruent 0xffff, matching the device's
        // CsumRequest completion byte for byte.
        let pseudo = pseudo_base + (TCP_LEN + plen) as u32;
        let ck = match inet_checksum(&frame[ETH_LEN + IP_LEN..HDRS + plen], pseudo) {
            0 => 0xffff,
            ck => ck,
        };
        frame[50..52].copy_from_slice(&ck.to_be_bytes());
        out.push(nb);
        produced += 1;
        done += plen;
    }
    Ok(produced)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-builds a GSO super-segment chain: 54 bytes of headers in
    /// the head, `payload` spread across the head and `frag_size`d
    /// fragments.
    fn superframe(payload: &[u8], head_take: usize, frag_size: usize) -> Netbuf {
        let mut head = Netbuf::alloc(2048, 64);
        let hdr = head.push_header_uninit(HDRS);
        // Ethernet: junk MACs, IPv4 ethertype.
        hdr[12..14].copy_from_slice(&[0x08, 0x00]);
        // IPv4: v4/IHL5, total length over the whole chain, TTL 64,
        // proto TCP, 10.0.0.1 → 10.0.0.2, header checksum valid.
        hdr[14] = 0x45;
        let total = (IP_LEN + TCP_LEN + payload.len()) as u16;
        hdr[16..18].copy_from_slice(&total.to_be_bytes());
        hdr[22] = 64;
        hdr[23] = 6;
        hdr[26..30].copy_from_slice(&[10, 0, 0, 1]);
        hdr[30..34].copy_from_slice(&[10, 0, 0, 2]);
        let ip_ck = inet_checksum(&hdr[14..34], 0);
        hdr[24..26].copy_from_slice(&ip_ck.to_be_bytes());
        // TCP: ports 1→2, seq 1000, ack set, PSH|ACK, window 512.
        hdr[34..36].copy_from_slice(&1u16.to_be_bytes());
        hdr[36..38].copy_from_slice(&2u16.to_be_bytes());
        hdr[38..42].copy_from_slice(&1000u32.to_be_bytes());
        hdr[46] = 5 << 4;
        hdr[47] = 0x18; // PSH|ACK
        hdr[48..50].copy_from_slice(&512u16.to_be_bytes());
        head.append(&payload[..head_take]);
        let mut off = head_take;
        while off < payload.len() {
            let n = frag_size.min(payload.len() - off);
            let mut f = Netbuf::alloc(2048, 0);
            f.set_payload(&payload[off..off + n]);
            head.chain_append(f);
            off += n;
        }
        head
    }

    fn fresh_buf() -> Netbuf {
        Netbuf::alloc(2048, 0)
    }

    #[test]
    fn cuts_full_and_tail_frames_with_valid_checksums() {
        let payload: Vec<u8> = (0..3500u32).map(|i| (i % 251) as u8).collect();
        let sf = superframe(&payload, 700, 1000);
        let mut out = Vec::new();
        let n = cut_frame(&sf, 1460, fresh_buf, &mut out).unwrap();
        assert_eq!(n, 3, "3500 bytes at mss 1460 → 1460 + 1460 + 580");
        assert_eq!(out.len(), 3);
        let mut reassembled = Vec::new();
        for (i, f) in out.iter().enumerate() {
            let b = f.payload();
            let plen = b.len() - HDRS;
            // IPv4 length + checksum verify to zero.
            assert_eq!(
                u16::from_be_bytes([b[16], b[17]]) as usize,
                IP_LEN + TCP_LEN + plen
            );
            assert_eq!(inet_checksum(&b[14..34], 0), 0, "frame {i} ip csum");
            // Sequence advances by the payload cut so far.
            let seq = u32::from_be_bytes([b[38], b[39], b[40], b[41]]);
            assert_eq!(seq, 1000 + reassembled.len() as u32, "frame {i} seq");
            // PSH only on the last frame.
            assert_eq!(b[47] & 0x08 != 0, i == 2, "frame {i} psh");
            // TCP checksum verifies against this frame's pseudo-header.
            let pseudo = {
                let ip = &b[14..34];
                u32::from(u16::from_be_bytes([ip[12], ip[13]]))
                    + u32::from(u16::from_be_bytes([ip[14], ip[15]]))
                    + u32::from(u16::from_be_bytes([ip[16], ip[17]]))
                    + u32::from(u16::from_be_bytes([ip[18], ip[19]]))
                    + 6
                    + (TCP_LEN + plen) as u32
            };
            assert_eq!(inet_checksum(&b[34..], pseudo), 0, "frame {i} tcp csum");
            reassembled.extend_from_slice(&b[HDRS..]);
        }
        assert_eq!(reassembled, payload, "payload survives the cut intact");
    }

    #[test]
    fn cut_respects_arbitrary_mss_and_fragment_layout() {
        let payload: Vec<u8> = (0..997u32).map(|i| (i.wrapping_mul(37) % 256) as u8).collect();
        for (head_take, frag, mss) in [(0, 100, 129), (997, 64, 1460), (13, 7, 997)] {
            let sf = superframe(&payload, head_take, frag.max(1));
            let mut out = Vec::new();
            let n = cut_frame(&sf, mss, fresh_buf, &mut out).unwrap();
            assert_eq!(n, payload.len().div_ceil(mss as usize));
            let got: Vec<u8> = out.iter().flat_map(|f| f.payload()[HDRS..].to_vec()).collect();
            assert_eq!(got, payload, "head_take={head_take} frag={frag} mss={mss}");
        }
    }

    #[test]
    fn malformed_superframes_rejected() {
        let payload = vec![1u8; 100];
        let sf = superframe(&payload, 50, 50);
        let mut out = Vec::new();
        assert_eq!(
            cut_frame(&sf, 0, fresh_buf, &mut out).unwrap_err(),
            Errno::Inval,
            "zero mss"
        );
        let mut short = Netbuf::alloc(64, 0);
        short.set_payload(&[0u8; 20]);
        assert_eq!(
            cut_frame(&short, 100, fresh_buf, &mut out).unwrap_err(),
            Errno::Inval,
            "no room for headers"
        );
        // Length field inconsistent with the chain.
        let mut bad = superframe(&payload, 50, 50);
        bad.payload_mut()[16..18].copy_from_slice(&9999u16.to_be_bytes());
        assert_eq!(
            cut_frame(&bad, 100, fresh_buf, &mut out).unwrap_err(),
            Errno::Inval,
            "ip length must span the chain"
        );
        assert!(out.is_empty());
    }
}
