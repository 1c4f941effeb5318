//! Host-side backends and the wire model.
//!
//! The guest-side driver work (rings, netbufs) is real code; what happens
//! *after* the driver hands packets to the host cannot be physically
//! incurred here, so it is charged to the virtual TSC:
//!
//! - **vhost-net**: the kernel backend. Each notification ("kick") is a VM
//!   exit; each packet is copied out of guest memory and walked through
//!   the tap/bridge path. Batching amortizes the kick but not the copies.
//! - **vhost-user**: a DPDK-style userspace backend polling shared
//!   memory: no kicks, no copies, a small per-descriptor cost — "at the
//!   cost of polling in the host" (§6.2).
//!
//! A 10 Gbit/s wire model (the paper's X520 cards) caps throughput: per
//! burst we charge `max(cpu_ns, wire_ns)`, so small packets are CPU-bound
//! under vhost-net and wire-bound under vhost-user, reproducing the
//! crossover of Figure 19.

use ukplat::cost;
use ukplat::time::Tsc;

use crate::netbuf::Netbuf;

/// Which host backend services the virtio device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VhostKind {
    /// Kernel backend: kick per burst, copy per packet.
    VhostNet,
    /// Userspace polling backend: no kick, zero copy.
    VhostUser,
}

impl VhostKind {
    /// Display name used in Figure 19.
    pub fn name(self) -> &'static str {
        match self {
            VhostKind::VhostNet => "vhost-net",
            VhostKind::VhostUser => "vhost-user",
        }
    }
}

/// 10 GbE wire model.
#[derive(Debug, Clone, Copy)]
pub struct Wire {
    /// Line rate in bits per second.
    pub bps: u64,
    /// Per-frame overhead bytes (preamble 8 + IFG 12 + CRC 4).
    pub frame_overhead: usize,
}

impl Default for Wire {
    fn default() -> Self {
        Wire {
            bps: 10_000_000_000,
            frame_overhead: 24,
        }
    }
}

impl Wire {
    /// Nanoseconds a frame of `payload` bytes occupies the wire.
    pub fn frame_ns(&self, payload: usize) -> u64 {
        let bits = ((payload + self.frame_overhead) * 8) as u64;
        bits * 1_000_000_000 / self.bps
    }

    /// Theoretical maximum packets per second for a payload size.
    pub fn max_pps(&self, payload: usize) -> f64 {
        1e9 / self.frame_ns(payload) as f64
    }
}

/// The host side of a virtio-net device.
#[derive(Debug)]
// ukcheck: allow(unused-pub) -- what the public `VirtioNet::backend` returns
pub struct HostBackend {
    kind: VhostKind,
    tsc: Tsc,
    wire: Wire,
    /// Packets that reached the wire.
    /// Bytes that reached the wire.
    tx_bytes: u64,
    /// Kicks (VM exits) performed.
    kicks: u64,
}

impl HostBackend {
    /// Creates a backend of the given kind charging to `tsc`.
    pub fn new(kind: VhostKind, tsc: &Tsc) -> Self {
        HostBackend {
            kind,
            tsc: tsc.clone(),
            wire: Wire::default(),
            tx_bytes: 0,
            kicks: 0,
        }
    }

    /// Whether the guest must kick (trap) to notify this backend.
    pub(crate) fn needs_kick(&self) -> bool {
        matches!(self.kind, VhostKind::VhostNet)
    }

    /// Backend kind.
    pub fn kind(&self) -> VhostKind {
        self.kind
    }

    /// Processes a burst the guest queued: charges host CPU and wire time
    /// and counts the packets out. Returns the number processed.
    pub(crate) fn process_tx(&mut self, pkts: &[Netbuf]) -> usize {
        if pkts.is_empty() {
            return 0;
        }
        let mut cpu_cycles = 0u64;
        let mut wire_ns = 0u64;
        for p in pkts {
            // A GSO chain is one descriptor here but its full byte
            // count still crosses the host (and, cut into MSS frames,
            // the wire).
            let len = p.chain_len();
            match self.kind {
                VhostKind::VhostNet => {
                    cpu_cycles += cost::VHOST_NET_PKT_CYCLES + cost::copy_cost_cycles(len);
                }
                VhostKind::VhostUser => {
                    cpu_cycles += cost::VHOST_USER_PKT_CYCLES;
                }
            }
            wire_ns += self.wire.frame_ns(len);
            self.tx_bytes += len as u64;
        }
        // The backend pipeline overlaps CPU work and wire time: the burst
        // costs whichever is longer.
        let cpu_ns = self.tsc.cycles_to_ns(cpu_cycles);
        self.tsc.advance_ns(cpu_ns.max(wire_ns));
        pkts.len()
    }

    /// Records a guest kick (VM exit).
    pub(crate) fn kick(&mut self) {
        self.kicks += 1;
        self.tsc.advance(cost::VMEXIT_CYCLES);
    }

    /// Bytes transmitted so far.
    pub fn tx_bytes(&self) -> u64 {
        self.tx_bytes
    }

    /// Kick count.
    pub fn kicks(&self) -> u64 {
        self.kicks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tsc() -> Tsc {
        Tsc::new(cost::CPU_FREQ_HZ)
    }

    fn pkt(len: usize) -> Netbuf {
        let mut nb = Netbuf::alloc(2048, 0);
        nb.set_len(len);
        nb
    }

    #[test]
    fn wire_max_pps_matches_10g_small_frames() {
        let w = Wire::default();
        // 64B payload + 24B overhead = 88B → ~14.2 Mp/s, the paper's peak.
        let pps = w.max_pps(64);
        assert!((14_000_000.0..14_500_000.0).contains(&pps), "{pps}");
    }

    #[test]
    fn vhost_user_cheaper_than_vhost_net() {
        let t1 = tsc();
        let mut user = HostBackend::new(VhostKind::VhostUser, &t1);
        let t2 = tsc();
        let mut net = HostBackend::new(VhostKind::VhostNet, &t2);
        let pkts: Vec<_> = (0..32).map(|_| pkt(64)).collect();
        user.process_tx(&pkts);
        net.process_tx(&pkts);
        net.kick();
        assert!(t2.now_cycles() > t1.now_cycles());
    }

    #[test]
    fn only_vhost_net_needs_kicks() {
        let t = tsc();
        assert!(HostBackend::new(VhostKind::VhostNet, &t).needs_kick());
        assert!(!HostBackend::new(VhostKind::VhostUser, &t).needs_kick());
    }

    #[test]
    fn stats_accumulate() {
        let t = tsc();
        let mut b = HostBackend::new(VhostKind::VhostUser, &t);
        let pkts: Vec<_> = (0..10).map(|_| pkt(100)).collect();
        b.process_tx(&pkts);
        assert_eq!(b.tx_bytes(), 1000);
    }

    #[test]
    fn large_packets_are_wire_bound_for_vhost_user() {
        let t = tsc();
        let mut b = HostBackend::new(VhostKind::VhostUser, &t);
        let pkts: Vec<_> = (0..10).map(|_| pkt(1500)).collect();
        let before = t.now_cycles();
        b.process_tx(&pkts);
        let ns = t.cycles_to_ns(t.now_cycles() - before);
        let wire_ns: u64 = (0..10).map(|_| Wire::default().frame_ns(1500)).sum();
        assert_eq!(ns, wire_ns, "wire time dominates CPU for 1500B frames");
    }
}
