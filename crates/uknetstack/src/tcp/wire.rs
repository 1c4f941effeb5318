//! The TCP wire format: header and option codec and the format's
//! constants. Stateless — nothing here knows a [`Tcb`](super::Tcb).

use uknetdev::netbuf::Netbuf;
use ukplat::{Errno, Result};

use crate::ipv4::Ipv4Header;
use crate::{inet_checksum, Csum};

/// TCP header length (no options).
pub const TCP_HDR_LEN: usize = 20;
/// Maximum segment size used by the stack (Ethernet MTU minus headers).
pub const MSS: usize = 1460;
/// Most SACK blocks one option ever carries: 3 regular blocks
/// (RFC 2018 §3 with a NOP-NOP-prefixed option) plus one leading
/// D-SACK block (RFC 2883 §4).
pub const MAX_SACK_BLOCKS: usize = 4;
/// Largest TCP option run the stack emits: `NOP NOP kind len` plus
/// [`MAX_SACK_BLOCKS`] 8-byte blocks — already a multiple of 4.
pub const TCP_MAX_OPT_LEN: usize = 4 + 8 * MAX_SACK_BLOCKS;
/// SACK-permitted option (kind 4), NOP-padded to a 4-byte word; rides
/// SYN and SYN-ACK segments only (RFC 2018 §2).
pub const SACK_PERMITTED_OPT: [u8; 4] = [1, 1, 4, 2];

/// TCP flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN.
    pub fin: bool,
    /// RST.
    pub rst: bool,
    /// PSH.
    pub psh: bool,
}

impl TcpFlags {
    /// A SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// A pure ACK.
    pub(super) const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };

    fn to_u8(self) -> u8 {
        (u8::from(self.fin))
            | (u8::from(self.syn) << 1)
            | (u8::from(self.rst) << 2)
            | (u8::from(self.psh) << 3)
            | (u8::from(self.ack) << 4)
    }

    fn from_u8(v: u8) -> Self {
        TcpFlags {
            fin: v & 1 != 0,
            syn: v & 2 != 0,
            rst: v & 4 != 0,
            psh: v & 8 != 0,
            ack: v & 16 != 0,
        }
    }
}

/// A parsed TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Serializes header + payload into a segment with a valid checksum.
    // ukcheck: allow(alloc) -- test/tooling codec; the datapath writes
    // headers in place via `emit` on pooled buffers
    pub fn encode(&self, ip: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
        let mut seg = Vec::with_capacity(TCP_HDR_LEN + payload.len());
        seg.extend_from_slice(&self.src_port.to_be_bytes());
        seg.extend_from_slice(&self.dst_port.to_be_bytes());
        seg.extend_from_slice(&self.seq.to_be_bytes());
        seg.extend_from_slice(&self.ack.to_be_bytes());
        seg.push(5 << 4); // Data offset 5 words.
        seg.push(self.flags.to_u8());
        seg.extend_from_slice(&self.window.to_be_bytes());
        seg.extend_from_slice(&[0, 0]); // Checksum placeholder.
        seg.extend_from_slice(&[0, 0]); // Urgent pointer.
        seg.extend_from_slice(payload);
        let ck = inet_checksum(&seg, ip.pseudo_header_sum());
        seg[16..18].copy_from_slice(&ck.to_be_bytes());
        seg
    }

    /// Prepends the header — 20 bytes plus `opts` — into `nb`'s headroom;
    /// the payload already in the buffer becomes the segment body
    /// without being copied. `opts` must be NOP-padded to a multiple of
    /// 4 and counted in `ip.payload_len`; they ride uncut frames only
    /// (SACK-permitted on SYNs, SACK blocks on pure ACKs — the GSO
    /// cutter rejects a header with options). `csum` says who fills
    /// the checksum field:
    ///
    /// - [`Csum::Software`]: computed here over the whole segment with
    ///   the pseudo-header seed — without options, byte-identical to
    ///   [`encode`](Self::encode).
    /// - [`Csum::Offload`]: the field holds the *folded pseudo-header
    ///   sum* (uncomplemented) and a
    ///   [`CsumRequest`](uknetdev::netbuf::CsumRequest) spanning the
    ///   segment has the device complete it on `tx_burst`. The wire
    ///   frame is checksum-equivalent to the software one (the device
    ///   emits a computed `0x0000` as the congruent `0xffff`, which the
    ///   software path leaves raw; both verify identically).
    /// - [`Csum::Gso`]: `Offload` for a scatter-gather super-segment —
    ///   header on the *chain head*, request spanning the chain
    ///   (`ip.payload_len` must too), plus a
    ///   [`GsoRequest`](uknetdev::netbuf::GsoRequest) for the host
    ///   side to cut per-`mss` wire frames and complete their
    ///   checksums (`uknetdev::gso`).
    ///
    /// # Panics
    ///
    /// Panics if `nb` lacks `20 + opts.len()` bytes of headroom, if
    /// `opts.len()` is not a multiple of 4, or on a zero `mss`.
    pub fn emit(&self, ip: &Ipv4Header, nb: &mut Netbuf, opts: &[u8], csum: Csum) {
        assert_eq!(opts.len() % 4, 0, "options must be padded to 32-bit words");
        let hlen = TCP_HDR_LEN + opts.len();
        let hdr = nb.push_header_uninit(hlen);
        hdr[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        hdr[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        hdr[4..8].copy_from_slice(&self.seq.to_be_bytes());
        hdr[8..12].copy_from_slice(&self.ack.to_be_bytes());
        hdr[12] = ((hlen / 4) as u8) << 4; // Data offset, in words.
        hdr[13] = self.flags.to_u8();
        hdr[14..16].copy_from_slice(&self.window.to_be_bytes());
        let seed = match csum {
            Csum::Software => 0,
            Csum::Offload | Csum::Gso { .. } => {
                uknetdev::csum::fold_partial_sum(u64::from(ip.pseudo_header_sum()))
            }
        };
        hdr[16..18].copy_from_slice(&seed.to_be_bytes());
        hdr[18..20].copy_from_slice(&[0, 0]); // Urgent pointer.
        hdr[20..].copy_from_slice(opts);
        match csum {
            Csum::Software => {
                let ck = inet_checksum(nb.payload(), ip.pseudo_header_sum());
                nb.payload_mut()[16..18].copy_from_slice(&ck.to_be_bytes());
            }
            Csum::Offload => nb.request_csum(nb.len(), 16),
            Csum::Gso { mss } => {
                nb.request_csum(nb.chain_len(), 16);
                nb.request_gso(mss);
            }
        }
    }

    /// Parses and verifies a segment; returns header + payload.
    pub fn decode<'a>(ip: &Ipv4Header, seg: &'a [u8]) -> Result<(TcpHeader, &'a [u8])> {
        Self::decode_inner(ip, seg, true)
    }

    /// [`decode`](Self::decode) for a frame the wire/device already
    /// marked checksum-validated (`VIRTIO_NET_F_GUEST_CSUM`):
    /// structural validation only, the checksum pass over the segment
    /// is skipped.
    pub fn decode_trusted<'a>(ip: &Ipv4Header, seg: &'a [u8]) -> Result<(TcpHeader, &'a [u8])> {
        Self::decode_inner(ip, seg, false)
    }

    fn decode_inner<'a>(
        ip: &Ipv4Header,
        seg: &'a [u8],
        verify_csum: bool,
    ) -> Result<(TcpHeader, &'a [u8])> {
        if seg.len() < TCP_HDR_LEN {
            return Err(Errno::Inval);
        }
        let doff = (seg[12] >> 4) as usize * 4;
        if doff < TCP_HDR_LEN || doff > seg.len() {
            return Err(Errno::Inval);
        }
        if verify_csum && inet_checksum(seg, ip.pseudo_header_sum()) != 0 {
            return Err(Errno::Io);
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([seg[0], seg[1]]),
                dst_port: u16::from_be_bytes([seg[2], seg[3]]),
                seq: u32::from_be_bytes([seg[4], seg[5], seg[6], seg[7]]),
                ack: u32::from_be_bytes([seg[8], seg[9], seg[10], seg[11]]),
                flags: TcpFlags::from_u8(seg[13]),
                window: u16::from_be_bytes([seg[14], seg[15]]),
            },
            &seg[doff..],
        ))
    }
}

/// Parsed TCP options — the subset the stack understands (SACK
/// machinery; everything else is skipped structurally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpOptions {
    /// SACK-permitted (kind 4) was present — legal on SYN/SYN-ACK
    /// only, which is the only place the stack emits or honors it.
    pub sack_permitted: bool,
    /// SACK blocks (kind 5) in wire order; `sack_count` entries valid.
    pub sack_blocks: [(u32, u32); MAX_SACK_BLOCKS],
    /// Number of valid entries in `sack_blocks`.
    pub sack_count: usize,
}

impl TcpOptions {
    /// Parses the option bytes between the fixed header and the data
    /// offset (`&seg[20..doff]`). Unknown options are skipped by their
    /// length byte; a malformed tail ends the walk (the fixed header
    /// was already validated, so the segment itself stands).
    pub fn parse(opts: &[u8]) -> Self {
        let mut out = TcpOptions::default();
        let mut i = 0;
        while i < opts.len() {
            match opts[i] {
                0 => break,  // End of option list.
                1 => i += 1, // NOP.
                kind => {
                    if i + 1 >= opts.len() {
                        break;
                    }
                    let len = opts[i + 1] as usize;
                    if len < 2 || i + len > opts.len() {
                        break;
                    }
                    if kind == 4 && len == 2 {
                        out.sack_permitted = true;
                    } else if kind == 5 && len >= 10 && (len - 2) % 8 == 0 {
                        let nblocks = (len - 2) / 8;
                        for b in 0..nblocks.min(MAX_SACK_BLOCKS) {
                            let o = i + 2 + b * 8;
                            // Length-validated above (`i + len <= opts.len()`),
                            // so the indexed form has no failure path.
                            let s = u32::from_be_bytes([opts[o], opts[o + 1], opts[o + 2], opts[o + 3]]);
                            let e =
                                u32::from_be_bytes([opts[o + 4], opts[o + 5], opts[o + 6], opts[o + 7]]);
                            out.sack_blocks[out.sack_count] = (s, e);
                            out.sack_count += 1;
                        }
                    }
                    i += len;
                }
            }
        }
        out
    }

    /// Whether anything the stack acts on was present.
    pub fn is_empty(&self) -> bool {
        !self.sack_permitted && self.sack_count == 0
    }
}
