//! The virtio-net device model.
//!
//! Implements [`NetDev`] over descriptor rings and a [`HostBackend`].
//! TX path: the driver enqueues a burst into the TX virtqueue; for a
//! vhost-net backend it then kicks (one trap per *burst*, which is where
//! batching wins), for vhost-user the polling backend drains the ring
//! without any notification. Completed buffers park in a done-list the
//! application reclaims into its pool.
//!
//! RX path: the host injects frames into the RX ring; `rx_burst` drains
//! it. In interrupt mode, draining the ring dry arms the queue's
//! interrupt; the next injected frame fires the callback once and disarms
//! it — §3.1's storm-free scheme, which degrades to polling under load.
//!
//! Checksum offload (`VIRTIO_NET_F_CSUM`): a TX netbuf carrying a
//! [`CsumRequest`](crate::netbuf::CsumRequest) holds only the partial
//! pseudo-header sum in its checksum field; the device completes the
//! Internet checksum over the requested region before the frame
//! reaches the backend. Frames *without* a request claim a complete
//! checksum — in debug builds the device verifies that claim
//! (IPv4 header + TCP/UDP transport sums), so a broken no-offload path
//! cannot silently put bad frames on the wire.

use ukplat::cost;
use ukplat::time::Tsc;
use ukplat::{Errno, Result};
use ukstats::CounterSet;

use crate::backend::{HostBackend, VhostKind};
use crate::csum::inet_checksum;
use crate::dev::{BurstStats, NetDev, NetDevConf, NetDevInfo, QueueMode, RxStatus, TxStatus};
use crate::netbuf::Netbuf;
use crate::ring::DescRing;
use crate::MAX_BURST;

struct RxQueue {
    ring: DescRing,
    mode: QueueMode,
    irq_armed: bool,
    callback: Option<Box<dyn FnMut()>>,
    irq_fires: u64,
}

struct TxQueue {
    ring: DescRing,
    done: Vec<Netbuf>,
}

ukstats::counter_rows! {
    mod row {
        tx_bursts => "netdev.tx_bursts";
        tx_frames => "netdev.tx_frames";
        tx_bytes => "netdev.tx_bytes";
        rx_bursts => "netdev.rx_bursts";
        rx_frames => "netdev.rx_frames";
        rx_ring_drops => "netdev.rx_ring_drops";
        csum_offload_hits => "netdev.csum_offload_hits";
        /// GSO super-frames accepted on TX.
        tso_super_frames => "netdev.tso_super_frames";
        irq_fires => "netdev.irq_fires";
    }
}

/// The virtio-net device.
pub struct VirtioNet {
    tsc: Tsc,
    backend: HostBackend,
    rxqs: Vec<RxQueue>,
    txqs: Vec<TxQueue>,
    configured: bool,
    /// Whether `VIRTIO_NET_F_HOST_TSO4` is negotiated (tests flip this
    /// off to exercise the stack's software-segmentation fallback).
    tso: bool,
    /// What the device counted, one cell per [`row`]; the device is the
    /// cells' only writer.
    counts: CounterSet,
    /// Frames per burst, each way: distributions stay registry handles
    /// (three relaxed RMWs a sample, one sample a burst).
    tx_burst_frames: ukstats::Histogram,
    rx_burst_frames: ukstats::Histogram,
}

impl std::fmt::Debug for VirtioNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtioNet")
            .field("backend", &self.backend.kind().name())
            .field("rx_queues", &self.rxqs.len())
            .field("tx_queues", &self.txqs.len())
            .finish()
    }
}

impl VirtioNet {
    /// Creates an unconfigured device over the given backend kind.
    // ukcheck: allow(alloc) -- device construction: empty queue tables,
    // filled once by `configure`
    pub fn new(kind: VhostKind, tsc: &Tsc) -> Self {
        VirtioNet {
            tsc: tsc.clone(),
            backend: HostBackend::new(kind, tsc),
            rxqs: Vec::new(),
            txqs: Vec::new(),
            configured: false,
            tso: true,
            counts: CounterSet::new(row::NAMES),
            tx_burst_frames: ukstats::Histogram::register("netdev.tx_burst_frames"),
            rx_burst_frames: ukstats::Histogram::register("netdev.rx_burst_frames"),
        }
    }

    /// Enables/disables TSO feature negotiation (ablation and the
    /// software-segmentation fallback path).
    pub fn set_tso(&mut self, on: bool) {
        self.tso = on;
    }

    /// GSO super-frames accepted on TX so far.
    pub fn tso_frames(&self) -> u64 {
        self.counts.get(row::tso_super_frames)
    }

    /// Host-side injection of received frames (the test/wire harness).
    /// Fires the queue interrupt if it is armed.
    fn inject_rx_inner(&mut self, queue: u16, frames: &mut Vec<Netbuf>) -> Result<BurstStats> {
        let q = self
            .rxqs
            .get_mut(queue as usize)
            .ok_or(Errno::Inval)?;
        // Ring full: stop, like a real NIC dropping; buffers that do
        // not fit stay with the caller (which owns their memory).
        let injected = q.ring.room().min(frames.len());
        let stats = BurstStats {
            frames: injected,
            bytes: frames[..injected].iter().map(Netbuf::len).sum(),
            drops: frames.len() - injected,
        };
        q.ring.push_burst(frames, injected);
        self.counts.add(row::rx_ring_drops, stats.drops as u64);
        if injected > 0 && q.irq_armed {
            // One interrupt, then the line stays off until re-armed.
            q.irq_armed = false;
            q.irq_fires += 1;
            self.counts.add(row::irq_fires, 1);
            self.tsc.advance(cost::IRQ_INJECT_CYCLES);
            if let Some(cb) = q.callback.as_mut() {
                cb();
            }
        }
        Ok(stats)
    }

    /// Direct access to backend statistics.
    pub fn backend(&self) -> &HostBackend {
        &self.backend
    }

    /// Interrupt deliveries on an RX queue.
    pub fn irq_fires(&self, queue: u16) -> u64 {
        self.rxqs
            .get(queue as usize)
            .map(|q| q.irq_fires)
            .unwrap_or(0)
    }

    /// Whether an RX queue's interrupt line is currently armed.
    pub fn irq_armed(&self, queue: u16) -> bool {
        self.rxqs
            .get(queue as usize)
            .map(|q| q.irq_armed)
            .unwrap_or(false)
    }
}

/// Debug-build wire validation for frames that did *not* request
/// checksum offload: parses just enough Ethernet/IPv4 framing
/// (independently of the stack's codecs — a device-side second
/// opinion) to verify the IPv4 header checksum and the TCP/UDP
/// transport checksum. Non-IPv4 frames and frames too short to parse
/// pass — malformed traffic is the stack's RX path's problem, silent
/// checksum corruption is this check's.
fn frame_checksums_valid(frame: &[u8]) -> bool {
    const ETH: usize = 14;
    const IHL: usize = 20;
    if frame.len() < ETH + IHL || frame[12..14] != [0x08, 0x00] || frame[ETH] != 0x45 {
        return true;
    }
    let ip = &frame[ETH..ETH + IHL];
    if inet_checksum(ip, 0) != 0 {
        return false;
    }
    let total = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    if total < IHL || ETH + total > frame.len() {
        return true;
    }
    let body = &frame[ETH + IHL..ETH + total];
    let proto = ip[9];
    if proto != 6 && proto != 17 {
        return true;
    }
    if proto == 17 && body.len() >= 8 && body[6..8] == [0, 0] {
        return true; // UDP checksum 0: not used.
    }
    let mut pseudo = u32::from(u16::from_be_bytes([ip[12], ip[13]]))
        + u32::from(u16::from_be_bytes([ip[14], ip[15]]))
        + u32::from(u16::from_be_bytes([ip[16], ip[17]]))
        + u32::from(u16::from_be_bytes([ip[18], ip[19]]));
    pseudo += u32::from(proto) + body.len() as u32;
    inet_checksum(body, pseudo) == 0
}

impl NetDev for VirtioNet {
    fn info(&self) -> NetDevInfo {
        NetDevInfo {
            max_rx_queues: 16,
            max_tx_queues: 16,
            max_mtu: crate::MTU,
            tx_csum_offload: true,
            tso: self.tso,
            guest_tso: true,
            rx_csum_offload: true,
            max_ring_size: 1024,
        }
    }

    // ukcheck: allow(alloc) -- one-time set-up: the rings and done-lists
    // every burst then runs over are built here
    fn configure(&mut self, conf: NetDevConf) -> Result<()> {
        let info = self.info();
        if conf.nr_rx_queues == 0
            || conf.nr_tx_queues == 0
            || conf.nr_rx_queues > info.max_rx_queues
            || conf.nr_tx_queues > info.max_tx_queues
            || !conf.ring_size.is_power_of_two()
            || conf.ring_size > info.max_ring_size
        {
            return Err(Errno::Inval);
        }
        self.rxqs = (0..conf.nr_rx_queues)
            .map(|_| RxQueue {
                ring: DescRing::new(conf.ring_size),
                mode: QueueMode::Polling,
                irq_armed: false,
                callback: None,
                irq_fires: 0,
            })
            .collect();
        self.txqs = (0..conf.nr_tx_queues)
            .map(|_| TxQueue {
                ring: DescRing::new(conf.ring_size),
                done: Vec::new(),
            })
            .collect();
        self.configured = true;
        Ok(())
    }

    fn set_queue_mode(&mut self, queue: u16, mode: QueueMode) -> Result<()> {
        let q = self.rxqs.get_mut(queue as usize).ok_or(Errno::Inval)?;
        q.mode = mode;
        if mode == QueueMode::Polling {
            q.irq_armed = false;
        }
        Ok(())
    }

    fn set_rx_callback(&mut self, queue: u16, cb: Box<dyn FnMut()>) -> Result<()> {
        let q = self.rxqs.get_mut(queue as usize).ok_or(Errno::Inval)?;
        q.callback = Some(cb);
        Ok(())
    }

    fn tx_burst(&mut self, queue: u16, pkts: &mut Vec<Netbuf>) -> Result<TxStatus> {
        if !self.configured {
            return Err(Errno::Inval);
        }
        let q = self.txqs.get_mut(queue as usize).ok_or(Errno::Inval)?;
        // Alloc-free enqueue: clamp to ring room up front, service the
        // offloads where the frames lie, then drain exactly that prefix
        // straight into the ring — no staging vector, nothing bounces
        // back to the caller, and no enqueue that can fail.
        let sent = pkts.len().min(MAX_BURST).min(q.ring.room());
        let mut bytes = 0;
        for nb in &mut pkts[..sent] {
            if nb.gso_request().is_some() {
                // VIRTIO_NET_F_HOST_TSO4: an oversized TCP frame whose
                // MSS cutting — and per-frame checksum completion —
                // happens on the host side of the ring (see
                // `crate::gso`). The request rides the buffer through
                // to the host cutter; its CsumRequest stays unserviced
                // here because the per-frame checksums only exist
                // after the cut.
                debug_assert!(self.tso, "GSO frame on a device without TSO");
                debug_assert!(
                    nb.csum_request().is_some(),
                    "TSO requires checksum offload (VIRTIO_NET_F_CSUM)"
                );
                self.counts.add(row::tso_super_frames, 1);
            } else if let Some(req) = nb.take_csum_request() {
                // VIRTIO_NET_F_CSUM: complete a partial transport
                // checksum before the frame leaves the guest.
                let start = nb.chain_len() - req.region_len as usize;
                let field = start + req.field_off as usize;
                // The field holds the folded pseudo-header sum, so
                // summing the region as-is yields the full checksum. A
                // result of 0 is emitted as the congruent 0xffff (UDP
                // reserves 0 for "no checksum"; for TCP both encode
                // zero in one's complement).
                let ck = match inet_checksum(&nb.payload()[start..], 0) {
                    0 => 0xffff,
                    ck => ck,
                };
                nb.payload_mut()[field..field + 2].copy_from_slice(&ck.to_be_bytes());
                self.counts.add(row::csum_offload_hits, 1);
            } else {
                // No offload requested: the frame claims complete
                // checksums — hold it to that in debug builds.
                debug_assert!(
                    frame_checksums_valid(nb.payload()),
                    "tx_burst: frame without csum offload carries a bad checksum"
                );
            }
            bytes += nb.chain_len();
        }
        let pushed = q.ring.push_burst(pkts, sent);
        debug_assert_eq!(pushed, sent, "the clamp above is the ring's own");
        if sent > 0 {
            self.counts.add(row::tx_bursts, 1);
            self.counts.add(row::tx_frames, sent as u64);
            self.counts.add(row::tx_bytes, bytes as u64);
            self.tx_burst_frames.record(sent as u64);
        }
        // Notify / drain the backend.
        if sent > 0 {
            if self.backend.needs_kick() {
                self.backend.kick();
            }
            // Completions land on the done-list tail; the backend is
            // charged for exactly that slice (no inflight copy-out).
            let start = q.done.len();
            q.ring.pop_burst(&mut q.done, sent);
            self.backend.process_tx(&q.done[start..]);
        }
        Ok(TxStatus {
            stats: BurstStats {
                frames: sent,
                bytes,
                drops: 0,
            },
            more_room: !q.ring.is_full(),
        })
    }

    fn rx_burst(&mut self, queue: u16, out: &mut Vec<Netbuf>, max: usize) -> Result<RxStatus> {
        if !self.configured {
            return Err(Errno::Inval);
        }
        let q = self.rxqs.get_mut(queue as usize).ok_or(Errno::Inval)?;
        let received = q.ring.pop_burst(out, max.min(MAX_BURST));
        if received > 0 {
            self.counts.add(row::rx_bursts, 1);
            self.counts.add(row::rx_frames, received as u64);
            self.rx_burst_frames.record(received as u64);
        }
        let more = !q.ring.is_empty();
        if !more && q.mode == QueueMode::Interrupt {
            // Queue ran dry: arm the interrupt line (§3.1).
            q.irq_armed = true;
        }
        Ok(RxStatus { received, more })
    }

    fn reclaim_tx(&mut self, queue: u16, out: &mut Vec<Netbuf>) -> Result<usize> {
        let q = self.txqs.get_mut(queue as usize).ok_or(Errno::Inval)?;
        let n = q.done.len();
        out.append(&mut q.done);
        Ok(n)
    }

    fn inject_rx(&mut self, queue: u16, frames: &mut Vec<Netbuf>) -> Result<BurstStats> {
        self.inject_rx_inner(queue, frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netbuf::NetbufPool;
    use std::cell::Cell;
    use std::rc::Rc;

    fn mk(kind: VhostKind) -> (VirtioNet, Tsc) {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut dev = VirtioNet::new(kind, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        (dev, tsc)
    }

    fn pkts(n: usize, len: usize) -> Vec<Netbuf> {
        (0..n)
            .map(|_| {
                let mut nb = Netbuf::alloc(2048, 64);
                nb.set_len(len);
                nb
            })
            .collect()
    }

    #[test]
    fn tx_burst_sends_and_reclaims() {
        let (mut dev, _t) = mk(VhostKind::VhostUser);
        let mut batch = pkts(16, 64);
        let st = dev.tx_burst(0, &mut batch).unwrap();
        assert_eq!(st.sent(), 16);
        assert!(batch.is_empty());
        assert_eq!(dev.backend().tx_packets(), 16);
        let mut done = Vec::new();
        assert_eq!(dev.reclaim_tx(0, &mut done).unwrap(), 16);
    }

    /// A trip through the device moves the one-word handle from
    /// container to container; descriptor and storage stay where the
    /// pool built them.
    #[test]
    fn storage_stays_put_while_the_handle_travels() {
        fn storage_addr(nb: &Netbuf) -> usize {
            nb.payload().as_ptr() as usize - nb.headroom()
        }
        let (mut dev, _t) = mk(VhostKind::VhostUser);
        let mut pool = NetbufPool::new(1, 2048, 64);
        let mut nb = pool.take().unwrap();
        let home = storage_addr(&nb);
        nb.append(b"payload");
        let mut batch = vec![nb];
        assert_eq!(dev.tx_burst(0, &mut batch).unwrap().sent(), 1);
        let mut done = Vec::new();
        assert_eq!(dev.reclaim_tx(0, &mut done).unwrap(), 1);
        let nb = done.pop().unwrap();
        assert_eq!(storage_addr(&nb), home, "the ring moved the bytes");
        assert_eq!(nb.payload(), b"payload");
        pool.give_back(nb);
        let again = pool.take().unwrap();
        assert_eq!(storage_addr(&again), home, "recycling moved the bytes");
        pool.give_back(again);
    }

    #[test]
    fn vhost_net_kicks_once_per_burst() {
        let (mut dev, _t) = mk(VhostKind::VhostNet);
        let mut batch = pkts(32, 64);
        dev.tx_burst(0, &mut batch).unwrap();
        assert_eq!(dev.backend().kicks(), 1, "one kick per burst (batching)");
        let mut batch = pkts(32, 64);
        dev.tx_burst(0, &mut batch).unwrap();
        assert_eq!(dev.backend().kicks(), 2);
    }

    #[test]
    fn vhost_user_never_kicks() {
        let (mut dev, _t) = mk(VhostKind::VhostUser);
        let mut batch = pkts(32, 64);
        dev.tx_burst(0, &mut batch).unwrap();
        assert_eq!(dev.backend().kicks(), 0);
    }

    #[test]
    fn oversized_burst_is_clamped() {
        let (mut dev, _t) = mk(VhostKind::VhostUser);
        let mut batch = pkts(MAX_BURST + 10, 64);
        let st = dev.tx_burst(0, &mut batch).unwrap();
        assert_eq!(st.sent(), MAX_BURST);
        assert_eq!(batch.len(), 10, "overflow stays with the caller");
    }

    #[test]
    fn rx_burst_drains_injected_frames() {
        let (mut dev, _t) = mk(VhostKind::VhostUser);
        dev.inject_rx(0, &mut pkts(8, 100)).unwrap();
        let mut out = Vec::new();
        let st = dev.rx_burst(0, &mut out, 4).unwrap();
        assert_eq!(st.received, 4);
        assert!(st.more);
        let st = dev.rx_burst(0, &mut out, 8).unwrap();
        assert_eq!(st.received, 4);
        assert!(!st.more);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn interrupt_mode_arms_on_dry_and_fires_once() {
        let (mut dev, _t) = mk(VhostKind::VhostUser);
        dev.set_queue_mode(0, QueueMode::Interrupt).unwrap();
        let fired = Rc::new(Cell::new(0));
        let f = fired.clone();
        dev.set_rx_callback(0, Box::new(move || f.set(f.get() + 1)))
            .unwrap();
        // Drain the empty queue → arms the IRQ.
        let mut out = Vec::new();
        dev.rx_burst(0, &mut out, 16).unwrap();
        assert!(dev.irq_armed(0));
        // First injection fires the callback once and disarms.
        dev.inject_rx(0, &mut pkts(2, 64)).unwrap();
        assert_eq!(fired.get(), 1);
        assert!(!dev.irq_armed(0));
        // Further injections while not re-armed do NOT fire (storm-free).
        dev.inject_rx(0, &mut pkts(2, 64)).unwrap();
        assert_eq!(fired.get(), 1);
        // Draining dry re-arms.
        dev.rx_burst(0, &mut out, 16).unwrap();
        assert!(dev.irq_armed(0));
        assert_eq!(dev.irq_fires(0), 1);
    }

    #[test]
    fn polling_mode_never_arms() {
        let (mut dev, _t) = mk(VhostKind::VhostUser);
        let mut out = Vec::new();
        dev.rx_burst(0, &mut out, 16).unwrap();
        assert!(!dev.irq_armed(0));
    }

    #[test]
    fn rx_ring_overflow_drops() {
        let (mut dev, _t) = mk(VhostKind::VhostUser);
        let st = dev.inject_rx(0, &mut pkts(300, 64)).unwrap();
        assert_eq!(st.frames, 256, "default ring holds 256 descriptors");
        assert_eq!(st.drops, 44, "overflow counted as drops");
    }

    /// A TX ring with no room takes nothing, charges nothing and leaves
    /// every frame with the caller; with one slot it takes one. (The
    /// device drains its TX ring inside `tx_burst`, so only a test can
    /// leave descriptors in it.)
    #[test]
    fn full_tx_ring_returns_the_frames_it_could_not_take() {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut dev = VirtioNet::new(VhostKind::VhostNet, &tsc);
        dev.configure(NetDevConf { ring_size: 4, ..Default::default() }).unwrap();
        assert_eq!(dev.txqs[0].ring.push_burst(&mut pkts(4, 64), 4), 4);

        let mut batch = pkts(3, 64);
        let st = dev.tx_burst(0, &mut batch).unwrap();
        assert_eq!((st.sent(), st.stats.bytes, st.more_room), (0, 0, false));
        assert_eq!(batch.len(), 3, "every frame stays with the caller");
        assert_eq!(dev.backend().kicks(), 0, "nothing enqueued, nothing to kick for");
        assert_eq!(dev.counts.get(row::tx_bursts), 0);

        dev.txqs[0].ring.pop().unwrap();
        let st = dev.tx_burst(0, &mut batch).unwrap();
        assert_eq!((st.sent(), st.stats.bytes), (1, 64));
        assert_eq!(batch.len(), 2, "the two that did not fit");
        assert_eq!(dev.counts.get(row::tx_frames), 1);
    }

    /// An RX ring that is already full drops a whole injection: the
    /// frames stay with the host side, every one is counted, and an
    /// armed interrupt does not fire for frames nobody can receive.
    #[test]
    fn full_rx_ring_counts_its_drops() {
        let (mut dev, _t) = mk(VhostKind::VhostUser);
        dev.set_queue_mode(0, QueueMode::Interrupt).unwrap();
        dev.rx_burst(0, &mut Vec::new(), 1).unwrap(); // dry: arms the IRQ
        assert_eq!(dev.inject_rx(0, &mut pkts(256, 64)).unwrap().drops, 0);
        assert_eq!(dev.irq_fires(0), 1);
        dev.rxqs[0].irq_armed = true;

        let mut late = pkts(3, 64);
        let st = dev.inject_rx(0, &mut late).unwrap();
        assert_eq!((st.frames, st.bytes, st.drops), (0, 0, 3));
        assert_eq!(late.len(), 3, "dropped frames stay with the host side");
        assert_eq!(dev.counts.get(row::rx_ring_drops), 3);
        assert_eq!(dev.irq_fires(0), 1, "no interrupt for a burst that was dropped whole");
    }

    #[test]
    fn unconfigured_device_rejects_io() {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        let mut batch = pkts(1, 64);
        assert_eq!(dev.tx_burst(0, &mut batch).unwrap_err(), Errno::Inval);
    }

    #[test]
    fn multi_queue_traffic_is_isolated() {
        // §3.1: the API supports multiple queues; traffic on one queue
        // must not appear on another.
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf {
            nr_rx_queues: 4,
            nr_tx_queues: 4,
            ring_size: 64,
        })
        .unwrap();
        for q in 0..4u16 {
            dev.inject_rx(q, &mut pkts(usize::from(q) + 1, 64)).unwrap();
        }
        for q in 0..4u16 {
            let mut out = Vec::new();
            let st = dev.rx_burst(q, &mut out, 16).unwrap();
            assert_eq!(st.received, usize::from(q) + 1, "queue {q}");
        }
        // TX per queue accumulates its own completions.
        let mut b0 = pkts(3, 64);
        let mut b2 = pkts(5, 64);
        dev.tx_burst(0, &mut b0).unwrap();
        dev.tx_burst(2, &mut b2).unwrap();
        let mut done = Vec::new();
        assert_eq!(dev.reclaim_tx(0, &mut done).unwrap(), 3);
        assert_eq!(dev.reclaim_tx(2, &mut done).unwrap(), 5);
        assert_eq!(dev.reclaim_tx(1, &mut done).unwrap(), 0);
    }

    #[test]
    fn per_queue_interrupt_modes_are_independent() {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf {
            nr_rx_queues: 2,
            nr_tx_queues: 1,
            ring_size: 64,
        })
        .unwrap();
        dev.set_queue_mode(0, QueueMode::Interrupt).unwrap();
        // Queue 1 stays polled.
        let mut out = Vec::new();
        dev.rx_burst(0, &mut out, 8).unwrap();
        dev.rx_burst(1, &mut out, 8).unwrap();
        assert!(dev.irq_armed(0));
        assert!(!dev.irq_armed(1));
    }

    #[test]
    fn invalid_configure_rejected() {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        let bad = NetDevConf {
            nr_rx_queues: 0,
            ..Default::default()
        };
        assert_eq!(dev.configure(bad).unwrap_err(), Errno::Inval);
        let bad = NetDevConf {
            ring_size: 300,
            ..Default::default()
        };
        assert_eq!(dev.configure(bad).unwrap_err(), Errno::Inval);
    }
}
