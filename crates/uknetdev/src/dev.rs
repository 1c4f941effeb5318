//! The `uk_netdev` driver API.
//!
//! "Drivers register their callbacks (e.g. send and receive) to a
//! `uk_netdev` structure which the application then uses to call the
//! driver routines" (§3.1). Applications drive configuration: they query
//! [`NetDevInfo`] for capabilities, choose queue counts and ring sizes,
//! and operate each queue in polling or interrupt mode.

use ukplat::Result;

use crate::netbuf::Netbuf;

/// Driver capabilities, filled in by the device for the application to
/// pick "the best set of driver properties and features" (§3.1).
#[derive(Debug, Clone, Copy)]
pub struct NetDevInfo {
    /// Maximum receive queues the device supports.
    pub max_rx_queues: u16,
    /// Maximum transmit queues.
    pub max_tx_queues: u16,
    /// Maximum MTU.
    pub max_mtu: usize,
    /// Whether checksum offload is available.
    pub tx_csum_offload: bool,
    /// Whether TSO/GSO segmentation offload is available
    /// (`VIRTIO_NET_F_HOST_TSO4` shape): the device accepts one
    /// oversized TCP frame per send and the host cuts MSS frames.
    pub tso: bool,
    /// Whether the device can *deliver* oversized TCP frames to the
    /// guest (`VIRTIO_NET_F_GUEST_TSO4` + `VIRTIO_NET_F_MRG_RXBUF`
    /// shape): a peer's super-segment arrives whole as a buffer chain
    /// instead of being cut into MSS frames at the host boundary —
    /// the guest-to-guest fast path. Requires RX checksum offload
    /// (the spec ties `GUEST_TSO4` to `GUEST_CSUM`).
    pub guest_tso: bool,
    /// Whether the device marks received frames checksum-validated
    /// (`VIRTIO_NET_F_GUEST_CSUM` shape), letting the stack skip
    /// software verification.
    pub rx_csum_offload: bool,
    /// Maximum descriptors per ring.
    pub max_ring_size: usize,
}

/// Application-chosen device configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetDevConf {
    /// Number of RX queues to set up.
    pub nr_rx_queues: u16,
    /// Number of TX queues to set up.
    pub nr_tx_queues: u16,
    /// Descriptors per ring (power of two).
    pub ring_size: usize,
}

impl Default for NetDevConf {
    fn default() -> Self {
        NetDevConf {
            nr_rx_queues: 1,
            nr_tx_queues: 1,
            ring_size: 256,
        }
    }
}

/// How a queue is operated (§3.1: "polling, interrupt-driven or mixed").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// Application polls; no interrupts (the default).
    Polling,
    /// Interrupt line armed when the queue runs dry.
    Interrupt,
}

/// Accounting for one burst crossing the device boundary: the unit of
/// work of the burst datapath. Every layer that moves a burst
/// (`tx_burst`, `inject_rx`, the stack's pump sweep) reports one of
/// these so per-burst amortization is observable end to end.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BurstStats {
    /// Frames that crossed.
    pub frames: usize,
    /// Payload bytes that crossed.
    pub bytes: usize,
    /// Frames that could not cross (ring full) and were left behind.
    pub drops: usize,
}

impl BurstStats {
    /// Merges another burst's counts into this one.
    pub fn merge(&mut self, other: BurstStats) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.drops += other.drops;
    }
}

/// Result of a TX burst: what crossed onto the queue and whether there
/// is still room ("the function returns flags that indicate if there
/// is still room on the queue").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// ukcheck: allow(unused-pub) -- what the public `NetDev::tx_burst` returns
pub struct TxStatus {
    /// Frames/bytes enqueued this call (the in/out `cnt` parameter);
    /// `drops` stays 0 — frames that do not fit remain with the
    /// caller, which owns their memory and retries or recycles.
    pub stats: BurstStats,
    /// Whether more packets could be enqueued right now.
    pub more_room: bool,
}

impl TxStatus {
    /// Frames enqueued this call.
    pub fn sent(&self) -> usize {
        self.stats.frames
    }
}

/// Result of an RX burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// ukcheck: allow(unused-pub) -- what the public `NetDev::rx_burst` returns
pub struct RxStatus {
    /// Packets received into the caller's array.
    pub received: usize,
    /// Whether more packets are already waiting.
    pub more: bool,
}

/// The `uk_netdev` interface.
pub trait NetDev {
    /// Device capability query.
    fn info(&self) -> NetDevInfo;

    /// Applies the application-chosen configuration. Must be called
    /// before any queue operation.
    fn configure(&mut self, conf: NetDevConf) -> Result<()>;

    /// Sets the operating mode of an RX queue.
    fn set_queue_mode(&mut self, queue: u16, mode: QueueMode) -> Result<()>;

    /// Registers the per-queue interrupt callback ("during driver
    /// configuration the application can register an interrupt handler
    /// per queue").
    fn set_rx_callback(&mut self, queue: u16, cb: Box<dyn FnMut()>) -> Result<()>;

    /// `uk_netdev_tx_burst`: enqueues as many of `pkts` as possible,
    /// draining them from the vector front.
    fn tx_burst(&mut self, queue: u16, pkts: &mut Vec<Netbuf>) -> Result<TxStatus>;

    /// `uk_netdev_rx_burst`: receives up to `max` packets into `out`.
    fn rx_burst(&mut self, queue: u16, out: &mut Vec<Netbuf>, max: usize) -> Result<RxStatus>;

    /// Reclaims transmitted buffers so the application can recycle them
    /// into its pool (the application owns all memory).
    fn reclaim_tx(&mut self, queue: u16, out: &mut Vec<Netbuf>) -> Result<usize>;

    /// Host-side injection of received frames (the wire harness calls
    /// this; real hardware receives from the medium instead). Drains
    /// from the front of `frames` as long as the ring has room; buffers
    /// that do not fit stay with the caller (counted as `drops` in the
    /// returned stats), which owns their memory and recycles them.
    fn inject_rx(&mut self, queue: u16, frames: &mut Vec<Netbuf>) -> Result<BurstStats>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_conf_is_single_queue() {
        let c = NetDevConf::default();
        assert_eq!(c.nr_rx_queues, 1);
        assert_eq!(c.nr_tx_queues, 1);
        assert!(c.ring_size.is_power_of_two());
    }
}
