//! The §6.4 specialized UDP key-value store (Table 4).
//!
//! A tiny text protocol over UDP: `G <key>` and `S <key> <value>`.
//! The *server logic* (parsing, hash-table work, reply building) is the
//! same real code in every configuration; what changes is how packets
//! reach it:
//!
//! - `LinuxSingle` / `LinuxGuestSingle`: one `recvmsg` + one `sendmsg`
//!   trap per packet (plus the vhost-net path for the guest);
//! - `LinuxBatch` / `LinuxGuestBatch`: `recvmmsg`/`sendmmsg` amortize the
//!   two traps over a batch (the paper's ~50% improvement);
//! - `LinuxGuestDpdk`: no syscalls, DPDK PMD per-packet cost — but burns
//!   a dedicated host core;
//! - `UnikraftLwip`: through our real socket stack (the slow path the
//!   paper measures at 319 K req/s);
//! - `UnikraftUknetdev` / `UnikraftDpdk`: polling burst I/O, no syscalls,
//!   no stack — the 6.3 M req/s configuration.

use std::collections::HashMap;

use ukevent::{EventMask, EventQueue};
use uknetstack::stack::{NetStack, SocketHandle};
use uknetstack::Endpoint;
use ukplat::cost;
use ukplat::time::Tsc;
use ukplat::Result;

/// Batch size for the batched/burst modes (one descriptor burst).
pub const BATCH: usize = 32;

/// Operating modes of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UdpKvMode {
    /// Linux bare metal, one syscall pair per packet.
    LinuxSingle,
    /// Linux bare metal, batched msg syscalls.
    LinuxBatch,
    /// Linux guest, one syscall pair per packet (+ virtio path).
    LinuxGuestSingle,
    /// Linux guest, batched (+ virtio path).
    LinuxGuestBatch,
    /// Linux guest running DPDK (second core polls).
    LinuxGuestDpdk,
    /// Unikraft through the lwip-path socket stack.
    UnikraftLwip,
    /// Unikraft coded directly against `uknetdev`, polling mode.
    UnikraftUknetdev,
    /// Unikraft running the DPDK port.
    UnikraftDpdk,
}

impl UdpKvMode {
    /// All modes in Table 4's order.
    pub fn all() -> [UdpKvMode; 8] {
        [
            UdpKvMode::LinuxSingle,
            UdpKvMode::LinuxBatch,
            UdpKvMode::LinuxGuestSingle,
            UdpKvMode::LinuxGuestBatch,
            UdpKvMode::LinuxGuestDpdk,
            UdpKvMode::UnikraftLwip,
            UdpKvMode::UnikraftUknetdev,
            UdpKvMode::UnikraftDpdk,
        ]
    }

    /// Display (setup, mode) labels matching Table 4.
    pub fn label(self) -> (&'static str, &'static str) {
        match self {
            UdpKvMode::LinuxSingle => ("Linux baremetal", "Single"),
            UdpKvMode::LinuxBatch => ("Linux baremetal", "Batch"),
            UdpKvMode::LinuxGuestSingle => ("Linux guest", "Single"),
            UdpKvMode::LinuxGuestBatch => ("Linux guest", "Batch"),
            UdpKvMode::LinuxGuestDpdk => ("Linux guest", "DPDK"),
            UdpKvMode::UnikraftLwip => ("Unikraft guest", "LWIP"),
            UdpKvMode::UnikraftUknetdev => ("Unikraft guest", "uknetdev"),
            UdpKvMode::UnikraftDpdk => ("Unikraft guest", "DPDK"),
        }
    }

    /// Host/guest cycles charged for a batch of `n` packets of `bytes`
    /// total, covering the I/O path (the request handling itself is real
    /// computation done by [`UdpKvServer`]).
    pub(crate) fn io_cycles(self, n: usize, bytes: usize) -> u64 {
        let n64 = n as u64;
        let per_pkt_copy = cost::copy_cost_cycles(bytes / n.max(1));
        match self {
            UdpKvMode::LinuxSingle => {
                // recvmsg + sendmsg per packet, native kernel UDP path.
                n64 * (2 * cost::LINUX_SYSCALL_CYCLES + 2 * per_pkt_copy + 2_800)
            }
            UdpKvMode::LinuxBatch => {
                // Two syscalls per batch; kernel path still per packet.
                2 * cost::LINUX_SYSCALL_CYCLES + n64 * (2 * per_pkt_copy + 2_800)
            }
            UdpKvMode::LinuxGuestSingle => {
                n64 * (2 * cost::LINUX_SYSCALL_CYCLES
                    + 2 * per_pkt_copy
                    + 2_800
                    + cost::VHOST_NET_PKT_CYCLES)
                    + n64 * cost::VMEXIT_CYCLES
            }
            UdpKvMode::LinuxGuestBatch => {
                2 * cost::LINUX_SYSCALL_CYCLES
                    + cost::VMEXIT_CYCLES
                    + n64 * (2 * per_pkt_copy + 2_800 + cost::VHOST_NET_PKT_CYCLES)
            }
            UdpKvMode::LinuxGuestDpdk => {
                // PMD polling: pure per-packet driver cost, zero copy.
                n64 * (cost::DPDK_GUEST_PKT_CYCLES + cost::VHOST_USER_PKT_CYCLES)
            }
            UdpKvMode::UnikraftLwip => {
                // Function-call "syscalls", but the full stack runs per
                // packet: IP/UDP parse + checksum + pbuf management.
                n64 * (2 * cost::FUNCTION_CALL_CYCLES
                    + 2 * per_pkt_copy
                    + 9_500
                    + cost::VHOST_NET_PKT_CYCLES)
                    + n64 * cost::VMEXIT_CYCLES
            }
            UdpKvMode::UnikraftUknetdev | UdpKvMode::UnikraftDpdk => {
                // Burst polling directly on the rings, vhost-user host.
                n64 * (cost::DPDK_GUEST_PKT_CYCLES + cost::VHOST_USER_PKT_CYCLES)
            }
        }
    }

    /// Guest CPU cores the configuration occupies (Table 4's text: the
    /// DPDK guest "uses two cores in the VM, one exclusively for DPDK").
    pub fn cores(self) -> u32 {
        match self {
            UdpKvMode::LinuxGuestDpdk => 2,
            _ => 1,
        }
    }
}

/// The key-value server: real parsing and hash-table work.
#[derive(Debug)]
pub struct UdpKvServer {
    store: HashMap<Vec<u8>, Vec<u8>>,
    mode: UdpKvMode,
    tsc: Tsc,
    requests: u64,
}

impl UdpKvServer {
    /// Creates a server in `mode`.
    pub fn new(mode: UdpKvMode, tsc: &Tsc) -> Self {
        UdpKvServer {
            store: HashMap::new(),
            mode,
            tsc: tsc.clone(),
            requests: 0,
        }
    }

    /// Handles one request payload (real work), returning the reply.
    pub fn handle(&mut self, payload: &[u8]) -> Vec<u8> {
        self.requests += 1;
        let mut parts = payload.splitn(3, |b| *b == b' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(b"G"), Some(key), None) => match self.store.get(key) {
                Some(v) => {
                    let mut r = b"V ".to_vec();
                    r.extend_from_slice(v);
                    r
                }
                None => b"M".to_vec(),
            },
            (Some(b"S"), Some(key), Some(value)) => {
                self.store.insert(key.to_vec(), value.to_vec());
                b"O".to_vec()
            }
            _ => b"E".to_vec(),
        }
    }

    /// Serves a batch of datagrams: charges the mode's I/O cycles, then
    /// does the real per-request work. Returns the replies.
    pub fn serve_batch(&mut self, payloads: &[&[u8]]) -> Vec<Vec<u8>> {
        let bytes: usize = payloads.iter().map(|p| p.len()).sum();
        self.tsc.advance(self.mode.io_cycles(payloads.len(), bytes));
        payloads.iter().map(|p| self.handle(p)).collect()
    }

    /// Requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Keys stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

/// The socket-path front-end: [`UdpKvServer`] behind a real UDP socket,
/// driven by readiness events from one [`EventQueue`] instead of
/// unconditional `udp_recv_from` polling. This is the `UnikraftLwip`
/// row of Table 4 restructured the way the event subsystem intends —
/// and, since the receive-side fast path landed, the way zero-copy
/// receive intends: each `EPOLLIN` event takes up to [`BATCH`] queued
/// datagrams *as the pooled netbufs they arrived in*
/// ([`NetStack::udp_recv_netbuf`] — no flat-buffer copy anywhere on
/// the request path), serves them as one [`UdpKvServer::serve_batch`]
/// (which still charges the mode's I/O cost model), pushes all replies
/// back with one [`NetStack::udp_send_burst`], and recycles every
/// request buffer to the stack's pool.
pub struct UdpKvNetServer {
    sock: SocketHandle,
    queue: EventQueue,
    server: UdpKvServer,
    /// One batch of in-flight request buffers: the sender endpoint and
    /// the pooled netbuf its datagram arrived in (reused, recycled
    /// after every batch).
    rx_nbs: Vec<(Endpoint, uknetdev::netbuf::Netbuf)>,
}

impl std::fmt::Debug for UdpKvNetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpKvNetServer")
            .field("requests", &self.server.requests())
            .finish()
    }
}

impl UdpKvNetServer {
    /// Binds `port` on `stack` and registers the socket for `EPOLLIN`.
    pub fn new(stack: &mut NetStack, port: u16, mode: UdpKvMode, tsc: &Tsc) -> Result<Self> {
        let sock = stack.udp_bind(port)?;
        let mut queue = EventQueue::new();
        let src = stack.ready_source(sock);
        queue.ctl_add(sock.0 as u64, &src, EventMask::IN)?;
        Ok(UdpKvNetServer {
            sock,
            queue,
            server: UdpKvServer::new(mode, tsc),
            rx_nbs: Vec::with_capacity(BATCH),
        })
    }

    /// One turn of the event loop: for each `EPOLLIN` event, takes up
    /// to [`BATCH`] queued datagrams as their pooled netbufs (the
    /// zero-copy receive path — request bytes are read in place),
    /// serves each batch, pushes its replies as one `udp_send_burst`,
    /// and recycles the request buffers. Returns requests served.
    pub fn poll(&mut self, stack: &mut NetStack) -> u64 {
        let mut served = 0;
        for ev in self.queue.poll_ready(16) {
            if !ev.events.intersects(EventMask::IN) {
                continue;
            }
            loop {
                self.rx_nbs.clear();
                while self.rx_nbs.len() < BATCH {
                    match stack.udp_recv_netbuf(self.sock) {
                        Some(msg) => self.rx_nbs.push(msg),
                        None => break,
                    }
                }
                if self.rx_nbs.is_empty() {
                    break;
                }
                let refs: Vec<&[u8]> =
                    self.rx_nbs.iter().map(|(_, nb)| nb.payload()).collect();
                let replies = self.server.serve_batch(&refs);
                served += replies.len() as u64;
                drop(refs);
                let _ = stack.udp_send_burst(
                    self.sock,
                    replies
                        .iter()
                        .zip(&self.rx_nbs)
                        .map(|(reply, &(from, _))| (&reply[..], from)),
                );
                for (_, nb) in self.rx_nbs.drain(..) {
                    stack.recycle(nb);
                }
            }
        }
        served
    }

    /// The underlying protocol server (store inspection, request count).
    pub fn server(&self) -> &UdpKvServer {
        &self.server
    }

    /// The server's event queue (for scheduler glue).
    pub fn event_queue_mut(&mut self) -> &mut EventQueue {
        &mut self.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tsc() -> Tsc {
        Tsc::new(cost::CPU_FREQ_HZ)
    }

    #[test]
    fn protocol_get_set_miss() {
        let t = tsc();
        let mut s = UdpKvServer::new(UdpKvMode::UnikraftUknetdev, &t);
        assert_eq!(s.handle(b"G nokey"), b"M");
        assert_eq!(s.handle(b"S k hello"), b"O");
        assert_eq!(s.handle(b"G k"), b"V hello");
        assert_eq!(s.handle(b"garbage"), b"E");
        assert_eq!(s.requests(), 4);
    }

    #[test]
    fn batching_amortizes_syscalls() {
        let single = UdpKvMode::LinuxSingle.io_cycles(BATCH, BATCH * 64);
        let batch = UdpKvMode::LinuxBatch.io_cycles(BATCH, BATCH * 64);
        assert!(batch < single);
        // The saving is roughly the syscall pair per extra packet.
        let saving = single - batch;
        assert!(saving >= (BATCH as u64 - 1) * 2 * cost::LINUX_SYSCALL_CYCLES);
    }

    #[test]
    fn table4_ordering_holds() {
        // Per-packet cost ordering must reproduce Table 4:
        // uknetdev ≈ DPDK << batch < single; lwip slowest of Unikraft.
        let per_pkt = |m: UdpKvMode| m.io_cycles(BATCH, BATCH * 64) / BATCH as u64;
        assert!(per_pkt(UdpKvMode::UnikraftUknetdev) < per_pkt(UdpKvMode::LinuxBatch));
        assert!(per_pkt(UdpKvMode::LinuxBatch) < per_pkt(UdpKvMode::LinuxSingle));
        assert!(per_pkt(UdpKvMode::LinuxGuestBatch) < per_pkt(UdpKvMode::LinuxGuestSingle));
        assert!(per_pkt(UdpKvMode::UnikraftLwip) > per_pkt(UdpKvMode::LinuxGuestSingle));
        assert_eq!(
            per_pkt(UdpKvMode::UnikraftUknetdev),
            per_pkt(UdpKvMode::UnikraftDpdk),
            "uknetdev matches DPDK"
        );
    }

    #[test]
    fn dpdk_needs_two_cores() {
        assert_eq!(UdpKvMode::LinuxGuestDpdk.cores(), 2);
        assert_eq!(UdpKvMode::UnikraftUknetdev.cores(), 1);
    }

    #[test]
    fn serve_batch_charges_and_replies() {
        let t = tsc();
        let mut s = UdpKvServer::new(UdpKvMode::LinuxGuestSingle, &t);
        let reqs: Vec<&[u8]> = vec![b"S a 1", b"G a"];
        let replies = s.serve_batch(&reqs);
        assert_eq!(replies, vec![b"O".to_vec(), b"V 1".to_vec()]);
        assert!(t.now_cycles() > 0);
    }

    mod net_server {
        use super::*;
        use uknetstack::testnet::{self, node, Network};
        use uknetstack::{Endpoint, Ipv4Addr};

        #[test]
        fn serves_get_set_over_real_packets_event_driven() {
            let t = tsc();
            let mut net = Network::new();
            let ci = net.attach(node(1, |_| {}));
            let mut ss = node(2, |_| {});
            let mut kv = UdpKvNetServer::new(&mut ss, 9100, UdpKvMode::UnikraftLwip, &t).unwrap();
            let si = net.attach(ss);

            let csock = net.stack(ci).udp_bind(5000).unwrap();
            let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9100);
            // Idle poll serves nothing (no busy work without readiness).
            assert_eq!(kv.poll(net.stack(si)), 0);
            net.stack(ci).udp_send_to(csock, b"S k hello", ep).unwrap();
            net.stack(ci).udp_send_to(csock, b"G k", ep).unwrap();
            net.run_until_quiet(16);
            assert_eq!(kv.poll(net.stack(si)), 2, "both requests in one turn");
            net.run_until_quiet(16);
            let mut replies = Vec::new();
            while let Some((_, data)) = testnet::udp_recv_from(net.stack(ci), csock) {
                replies.push(data);
            }
            assert_eq!(replies, vec![b"O".to_vec(), b"V hello".to_vec()]);
            assert_eq!(kv.server().requests(), 2);
        }
    }
}
