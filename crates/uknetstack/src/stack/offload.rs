//! Which offloads a stack runs with: what its configuration wishes for,
//! cut down to what its device can do.
//!
//! This is the one place a device capability is read and the one place
//! the virtio feature dependencies are written. An [`Offloads`] value
//! exists only as [`Offloads::resolve`] built it, so whoever holds one
//! holds a combination that makes sense:
//!
//! - `tso ⇒ tx_csum` (`HOST_TSO4` needs `CSUM`): the cut frames'
//!   checksums are completed host-side, so segmentation cannot be
//!   offloaded while the checksum is not;
//! - `big_receive ⇒ rx_csum` (`GUEST_TSO4` needs `GUEST_CSUM`): a
//!   chained super-frame's checksum was never materialized, so a stack
//!   that insists on verifying in software must have the host cut (and
//!   checksum) MSS frames instead.

use uknetdev::dev::NetDevInfo;

use super::{StackConfig, BUF_CAP};
use crate::Csum;

/// The offloads in force on one stack (see the module docs for the
/// rules between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
// ukcheck: allow(unused-pub) -- what the public `NetStack::offloads` returns:
// callers read its fields, none has to name the type
pub struct Offloads {
    /// TX transport checksums are left to the device
    /// (`StackConfig::tx_csum_offload` ∧ device capability).
    pub tx_csum: bool,
    /// Bulk TCP output leaves as GSO super-segments for the device's
    /// host side to cut (`StackConfig::tso` ∧ device TSO ∧ `tx_csum`);
    /// off, the stack segments per-MSS in software.
    pub tso: bool,
    /// Received frames the wire marked checksum-validated skip software
    /// verification (`StackConfig::rx_csum_offload` ∧ device
    /// capability).
    pub rx_csum: bool,
    /// Peers' super-segments are accepted whole, as buffer chains
    /// (`VIRTIO_NET_F_GUEST_TSO4` shape; device capability ∧ `rx_csum`)
    /// — the wire consults this to decide between whole-chain delivery
    /// and the host-side MSS cut.
    pub big_receive: bool,
    /// Received TCP data segments are GRO-coalesced before ingest
    /// (stack-internal: `StackConfig::gro` alone).
    pub gro: bool,
}

impl Offloads {
    /// What `config` wishes for, as far as the device behind `info` can
    /// deliver it.
    pub(super) fn resolve(config: &StackConfig, info: &NetDevInfo) -> Offloads {
        let tx_csum = config.tx_csum_offload && info.tx_csum_offload;
        let rx_csum = config.rx_csum_offload && info.rx_csum_offload;
        Offloads {
            tx_csum,
            tso: config.tso && info.tso && tx_csum,
            rx_csum,
            big_receive: info.guest_tso && rx_csum,
            gro: config.gro,
        }
    }

    /// Who completes the checksum of an uncut TCP/UDP frame: the
    /// device or the emitter.
    #[inline]
    pub(super) fn csum(self) -> Csum {
        if self.tx_csum {
            Csum::Offload
        } else {
            Csum::Software
        }
    }

    /// Fragment-list capacity pooled buffers pre-reserve, for a largest
    /// super-segment of `gso_max_size` bytes: chain building — GSO on
    /// TX, big receive on RX — never grows a `Vec` on the hot path.
    pub(super) fn chain_frags(self, gso_max_size: usize) -> usize {
        if self.tso || self.big_receive {
            gso_max_size.div_ceil(BUF_CAP) + 2
        } else {
            // Even with both offloads down the sw-seg path builds
            // small chains: a sub-MSS frame coalesced from several
            // queued extents rides the spent (emptied) buffers as
            // fragments so they recycle with the frame.
            4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every configuration wish against every device: the two virtio
    /// implications hold, and each bit is the conjunction `NetStack::new`
    /// computed before this type existed.
    #[test]
    fn resolve_is_wish_and_capability_under_the_virtio_rules() {
        let bit = |word: u32, i: u32| word >> i & 1 == 1;
        for w in 0..1u32 << 8 {
            let mut config = StackConfig::node(1);
            config.tx_csum_offload = bit(w, 0);
            config.tso = bit(w, 1);
            config.rx_csum_offload = bit(w, 2);
            config.gro = bit(w, 3);
            let info = NetDevInfo {
                max_rx_queues: 1,
                max_tx_queues: 1,
                max_mtu: 1500,
                tx_csum_offload: bit(w, 4),
                tso: bit(w, 5),
                guest_tso: bit(w, 6),
                rx_csum_offload: bit(w, 7),
                max_ring_size: 256,
            };
            let o = Offloads::resolve(&config, &info);
            assert!(!o.tso || o.tx_csum, "tso ⇒ tx_csum ({w:#010b})");
            assert!(!o.big_receive || o.rx_csum, "big_receive ⇒ rx_csum ({w:#010b})");
            let expect = Offloads {
                tx_csum: bit(w, 0) && bit(w, 4),
                tso: bit(w, 1) && bit(w, 5) && bit(w, 0) && bit(w, 4),
                rx_csum: bit(w, 2) && bit(w, 7),
                big_receive: bit(w, 6) && bit(w, 2) && bit(w, 7),
                gro: bit(w, 3),
            };
            assert_eq!(o, expect, "{w:#010b}");
            assert_eq!(o.csum() == Csum::Offload, o.tx_csum);
            let deep = o.tso || o.big_receive;
            assert_eq!(o.chain_frags(61_440), if deep { 32 } else { 4 });
        }
    }
}
