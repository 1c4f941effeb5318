//! Table 4 and Figures 19, 20, 22: I/O-path experiments.

use ukapps::udpkv::{UdpKvMode, UdpKvServer, BATCH};
use ukapps::webcache::{CacheBackend, WebCache};
use uknetdev::backend::{VhostKind, Wire};
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::netbuf::{Netbuf, NetbufPool};
use uknetdev::VirtioNet;
use ukplat::cost;
use ukplat::time::{Stopwatch, Tsc};
use ukvfs::ninep::{NinePClient, NinePHost, VirtioP9Transport};
use ukvfs::vfscore::FileSystem;
use ukvfs::RamFs;

use crate::util::fmt_rate;

/// Table 4: specialized UDP key-value store throughput per mode.
pub fn tab4_udp_kv() -> String {
    const REQUESTS: usize = 200_000;
    let mut out = String::new();
    out.push_str("Table 4: UDP key-value store throughput\n");
    out.push_str(&format!(
        "{:<18} {:<10} {:>12} {:>6}\n",
        "setup", "mode", "throughput", "cores"
    ));
    // Pre-render request payloads (seeded store, then GET loop).
    let requests: Vec<Vec<u8>> = (0..BATCH)
        .map(|i| format!("G key{:04}", i % 64).into_bytes())
        .collect();
    let req_refs: Vec<&[u8]> = requests.iter().map(|r| r.as_slice()).collect();

    for mode in UdpKvMode::all() {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut server = UdpKvServer::new(mode, &tsc);
        // Seed.
        for i in 0..64 {
            server.handle(format!("S key{i:04} value-{i}").as_bytes());
        }
        let batches = REQUESTS / BATCH;
        let sw = Stopwatch::start(&tsc);
        for _ in 0..batches {
            let replies = server.serve_batch(&req_refs);
            std::hint::black_box(&replies);
        }
        let rate = (batches * BATCH) as f64 * 1e9 / sw.elapsed_ns() as f64;
        let (setup, m) = mode.label();
        out.push_str(&format!(
            "{:<18} {:<10} {:>12} {:>6}\n",
            setup,
            m,
            fmt_rate(rate),
            mode.cores()
        ));
    }
    out.push_str("shape check: uknetdev ~ DPDK >> batch > single; lwip slowest guest\n");
    out
}

/// The TX path Fig. 19 and `ablate-batch` time: a configured
/// `VirtioNet`, a pool of two bursts of buffers, and the two vectors the
/// loop moves them through, all made before the clock starts.
pub struct TxLoop {
    tsc: Tsc,
    dev: VirtioNet,
    pool: NetbufPool,
    frames: Vec<Netbuf>,
    done: Vec<Netbuf>,
    size: usize,
    burst: usize,
    kicks_before: u64,
}

impl TxLoop {
    /// A rig that sends `size`-byte frames `burst` at a time. One burst
    /// has already gone through, so the device's completion list has
    /// its capacity and [`run`](Self::run) allocates nothing.
    pub fn new(kind: VhostKind, size: usize, burst: usize) -> Self {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut dev = VirtioNet::new(kind, &tsc);
        dev.configure(NetDevConf::default()).expect("configure");
        let mut tx = TxLoop {
            tsc,
            dev,
            pool: NetbufPool::new(2 * burst, 2048, 64),
            frames: Vec::with_capacity(burst),
            done: Vec::with_capacity(burst),
            size,
            burst,
            kicks_before: 0,
        };
        tx.run(burst);
        tx.kicks_before = tx.dev.backend().kicks();
        tx
    }

    /// Sends `packets` frames: take from the pool, `tx_burst`,
    /// `reclaim_tx`, give back. Returns the frames the device took.
    pub fn run(&mut self, packets: usize) -> usize {
        let mut sent = 0;
        while sent < packets {
            while self.frames.len() < self.burst.min(packets - sent) {
                let mut nb = self.pool.take().expect("pool holds two bursts");
                nb.set_len(self.size);
                self.frames.push(nb);
            }
            sent += self.dev.tx_burst(0, &mut self.frames).expect("tx").sent();
            self.dev.reclaim_tx(0, &mut self.done).expect("reclaim");
            for nb in self.done.drain(..) {
                self.pool.give_back(nb);
            }
        }
        sent
    }

    /// Guest kicks (VM exits) since [`new`](Self::new) returned.
    pub fn kicks(&self) -> u64 {
        self.dev.backend().kicks() - self.kicks_before
    }

    /// The buffer pool, for checking that every buffer came home.
    pub fn pool(&self) -> &NetbufPool {
        &self.pool
    }
}

/// Times [`TxLoop::run`] over `packets` frames on real + virtual
/// nanoseconds; returns packets/s and the kicks it took.
pub(crate) fn tx_rate(kind: VhostKind, size: usize, burst: usize, packets: usize) -> (f64, u64) {
    let mut tx = TxLoop::new(kind, size, burst);
    let sw = Stopwatch::start(&tx.tsc);
    let sent = tx.run(packets);
    (sent as f64 * 1e9 / sw.elapsed_ns() as f64, tx.kicks())
}

/// Figure 19: TX throughput vs packet size, uknetdev vs DPDK-in-VM.
pub fn fig19_tx_throughput() -> String {
    const PACKETS: usize = 100_000;
    let sizes = [64usize, 128, 256, 512, 1024, 1500];
    let mut out = String::new();
    out.push_str("Figure 19: TX throughput (packets/s) vs packet size\n");
    out.push_str(&format!(
        "{:<6} {:>16} {:>16} {:>16} {:>16} {:>12}\n",
        "size",
        "uknetdev/vh-user",
        "uknetdev/vh-net",
        "DPDK-VM/vh-user",
        "DPDK-VM/vh-net",
        "wire max"
    ));
    for size in sizes {
        // Real driver path: netbuf pool + burst TX through VirtioNet.
        let measure = |kind: VhostKind| tx_rate(kind, size, BATCH, PACKETS).0;
        // DPDK-in-a-Linux-VM model: guest PMD cost + backend per packet.
        let dpdk = |kind: VhostKind| -> f64 {
            let per_pkt = match kind {
                VhostKind::VhostUser => {
                    cost::DPDK_GUEST_PKT_CYCLES + cost::VHOST_USER_PKT_CYCLES
                }
                VhostKind::VhostNet => {
                    cost::DPDK_GUEST_PKT_CYCLES
                        + cost::VHOST_NET_PKT_CYCLES
                        + cost::copy_cost_cycles(size)
                        + cost::VMEXIT_CYCLES / BATCH as u64
                }
            };
            let cpu_ns = cost::cycles_to_ns_f64(per_pkt);
            let wire_ns = Wire::default().frame_ns(size) as f64;
            1e9 / cpu_ns.max(wire_ns)
        };
        out.push_str(&format!(
            "{:<6} {:>16} {:>16} {:>16} {:>16} {:>12}\n",
            size,
            fmt_rate(measure(VhostKind::VhostUser)),
            fmt_rate(measure(VhostKind::VhostNet)),
            fmt_rate(dpdk(VhostKind::VhostUser)),
            fmt_rate(dpdk(VhostKind::VhostNet)),
            fmt_rate(Wire::default().max_pps(size)),
        ));
    }
    out.push_str("shape check: vhost-user ~ DPDK (wire-bound); vhost-net CPU-bound at small sizes\n");
    out
}

/// Figure 20: 9pfs read/write latency vs block size, vs a Linux VM.
pub fn fig20_9pfs_latency() -> String {
    let sizes = [4usize, 8, 16, 32, 64]; // KiB
    let mut out = String::new();
    out.push_str("Figure 20: 9pfs latency per operation vs block size\n");
    out.push_str(&format!(
        "{:<8} {:>14} {:>14} {:>14} {:>14}\n",
        "block", "uk read", "uk write", "linux read", "linux write"
    ));
    for kb in sizes {
        let len = kb * 1024;
        let blob = vec![0x5au8; len];
        // Unikraft guest: real 9P messages over the virtio transport.
        let run = |write: bool, extra_cycles_per_op: u64| -> u64 {
            let tsc = Tsc::new(cost::CPU_FREQ_HZ);
            let mut host_fs = RamFs::new();
            host_fs.add_file("data.bin", &vec![0u8; 1 << 20]).unwrap();
            let mut client =
                NinePClient::new(VirtioP9Transport::kvm(NinePHost::new(host_fs), &tsc));
            let (ino, _) = client.lookup("data.bin").expect("lookup");
            const OPS: u64 = 200;
            let sw = Stopwatch::start(&tsc);
            for i in 0..OPS {
                let off = (i % 8) * len as u64;
                if write {
                    client.write(ino, off, &blob).expect("write");
                } else {
                    client.read(ino, off, len).expect("read");
                }
                tsc.advance(extra_cycles_per_op);
            }
            sw.elapsed_ns() / OPS
        };
        let uk_r = run(false, 0);
        let uk_w = run(true, 0);
        // Linux VM: same message traffic + guest VFS/page-cache path and
        // syscall traps per request.
        let linux_extra = cost::LINUX_GUEST_FILE_REQ_CYCLES + 2 * cost::LINUX_SYSCALL_CYCLES;
        let lx_r = run(false, linux_extra);
        let lx_w = run(true, linux_extra);
        out.push_str(&format!(
            "{:<8} {:>12}us {:>12}us {:>12}us {:>12}us\n",
            format!("{kb}K"),
            uk_r / 1_000,
            uk_w / 1_000,
            lx_r / 1_000,
            lx_w / 1_000
        ));
    }
    out.push_str("shape check: latency grows with block size; Unikraft below Linux\n");
    out
}

/// Figure 22: specialized SHFS vs vfscore vs Linux VM `open()` latency.
pub fn fig22_shfs_vs_vfs() -> String {
    const OPENS: u64 = 1_000;
    let files: Vec<(String, Vec<u8>)> = (0..100)
        .map(|i| (format!("file-{i:03}.html"), vec![b'x'; 612]))
        .collect();
    let file_refs: Vec<(&str, &[u8])> = files
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect();
    let mut out = String::new();
    out.push_str("Figure 22: web-cache open() latency (1000 opens)\n");
    out.push_str(&format!(
        "{:<16} {:>14} {:>14}\n",
        "backend", "file exists", "no file"
    ));
    let mut vfs_hit = 0u64;
    let mut shfs_hit = 0u64;
    for backend in [CacheBackend::Shfs, CacheBackend::Vfs, CacheBackend::LinuxVm] {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut cache = WebCache::new(backend, &file_refs, &tsc).expect("cache");
        let mut run = |exists: bool| -> u64 {
            let sw = Stopwatch::start(&tsc);
            for i in 0..OPENS {
                let name = if exists {
                    format!("file-{:03}.html", i % 100)
                } else {
                    format!("missing-{i}.html")
                };
                let _ = std::hint::black_box(cache.open_request(&name));
            }
            sw.elapsed_ns() / OPENS
        };
        let hit = run(true);
        let miss = run(false);
        match backend {
            CacheBackend::Shfs => shfs_hit = hit,
            CacheBackend::Vfs => vfs_hit = hit,
            CacheBackend::LinuxVm => {}
        }
        out.push_str(&format!(
            "{:<16} {:>12}ns {:>12}ns\n",
            backend.name(),
            hit,
            miss
        ));
    }
    if shfs_hit > 0 {
        out.push_str(&format!(
            "speedup SHFS vs VFS (hit): {:.1}x\n",
            vfs_hit as f64 / shfs_hit as f64
        ));
    }
    out.push_str("shape check: SHFS severalfold faster than VFS; Linux VM slowest\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig22_shows_speedup() {
        let t = fig22_shfs_vs_vfs();
        assert!(t.contains("SHFS"));
        assert!(t.contains("speedup"));
    }

    #[test]
    fn fig20_latency_orders() {
        let t = fig20_9pfs_latency();
        assert!(t.contains("4K"));
        assert!(t.contains("64K"));
    }
}
