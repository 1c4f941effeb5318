//! Isolated probes: one public primitive of one layer each, in a tight
//! loop, with nothing else running.
//!
//! A workload span such as `uknetstack.pump_server` contains many
//! primitives; these give the unit costs to read it against
//! (`flow_*`/`timer_*` sit under `conn-churn`, `csum`/`gso_cut` under
//! `tcp-bulk`, `ring`/`counter_inc` under `tcp-rr`). They have no bound
//! and gate nothing. Each probe's number is the minimum over several
//! short batches — on a shared box the fastest batch is the one nobody
//! interrupted.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ukalloc::AllocBackend;
use ukevent::{EventMask, EventQueue, ReadySource};
use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::{Netbuf, NetbufPool, VirtioNet};
use uknetstack::flow::{flow_key, FlowTable};
use uknetstack::timer::TimerWheel;
use uknetstack::{Endpoint, Ipv4Addr};
use ukplat::time::Tsc;

use crate::drive::Metric;

/// Name and unit of every probe, in `BENCHMARK.json` order.
pub const PROBE_METRICS: [(&str, &str); 12] = [
    ("uknetdev.ring_ns_per_frame", "ns"),
    ("uknetdev.pool_cycle_ns", "ns"),
    ("uknetdev.csum_ns_per_kib", "ns"),
    ("uknetdev.gso_cut_ns_per_frame", "ns"),
    ("uknetstack.flow_get_ns", "ns"),
    ("uknetstack.flow_insert_remove_ns", "ns"),
    ("uknetstack.timer_arm_cancel_ns", "ns"),
    ("uknetstack.timer_advance_ns_per_fire", "ns"),
    ("ukevent.poll_ready_ns_per_event", "ns"),
    ("ukalloc.malloc_free_ns", "ns"),
    ("ukstats.counter_inc_ns", "ns"),
    ("ukstats.hist_record_ns", "ns"),
];

const BATCHES: u32 = 5;

/// Nanoseconds per unit of work: `batch` does `units` units per call
/// and is repeated until `budget` is used up, in [`BATCHES`] slices.
fn measure(budget: Duration, units: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // Warm caches and lazily grown buffers.
    let slice = budget / BATCHES;
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        let mut calls = 0u64;
        loop {
            batch();
            calls += 1;
            if calls.is_multiple_of(8) && t.elapsed() >= slice {
                break;
            }
        }
        best = best.min(t.elapsed().as_nanos() as f64 / (calls * units) as f64);
    }
    best
}

const ETH_IP_TCP: usize = 54;

/// A well-formed Ethernet/IPv4/TCP super-segment carrying `payload`
/// bytes in a buffer chain.
fn superframe(payload: usize) -> Netbuf {
    let mut head = Netbuf::alloc(2048, 64);
    let hdr = head.push_header_uninit(ETH_IP_TCP);
    hdr.fill(0);
    hdr[12..14].copy_from_slice(&[0x08, 0x00]);
    hdr[14] = 0x45;
    hdr[16..18].copy_from_slice(&((40 + payload) as u16).to_be_bytes());
    hdr[22] = 64;
    hdr[23] = 6;
    hdr[26..30].copy_from_slice(&[10, 0, 0, 1]);
    hdr[30..34].copy_from_slice(&[10, 0, 0, 2]);
    hdr[46] = 5 << 4;
    hdr[47] = 0x18;
    let mut left = payload;
    while left > 0 {
        let n = left.min(1460);
        let mut f = Netbuf::alloc(2048, 0);
        f.set_len(n);
        head.chain_append(f);
        left -= n;
    }
    head
}

/// Runs every probe inside `budget` and returns the metrics in
/// [`PROBE_METRICS`] order.
pub fn run(budget: Duration) -> Vec<Metric> {
    let each = budget / PROBE_METRICS.len() as u32;
    let mut values = Vec::with_capacity(PROBE_METRICS.len());

    // Device ring: a burst goes guest → ring → host and back in.
    {
        let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
        let mut dev = VirtioNet::new(VhostKind::VhostNet, &tsc);
        dev.configure(NetDevConf::default())
            .expect("default device configuration is valid");
        let mut frames: Vec<Netbuf> = (0..32)
            .map(|_| {
                let mut nb = Netbuf::alloc(2048, 64);
                nb.set_len(64);
                nb
            })
            .collect();
        let mut wire = Vec::with_capacity(64);
        values.push(measure(each, 32, || {
            dev.tx_burst(0, &mut frames).expect("tx_burst");
            dev.reclaim_tx(0, &mut wire).expect("reclaim_tx");
            dev.inject_rx(0, &mut wire).expect("inject_rx");
            dev.rx_burst(0, &mut frames, 64).expect("rx_burst");
        }));
    }

    // Buffer pool: take one, give it back.
    {
        let mut pool = NetbufPool::new(64, 2048, 96);
        values.push(measure(each, 64, || {
            for _ in 0..64 {
                let nb = pool.take().expect("pool has buffers");
                pool.give_back(black_box(nb));
            }
        }));
    }

    // Internet checksum over 64 KiB.
    {
        let data = vec![0x5au8; 64 * 1024];
        values.push(measure(each, 64, || {
            black_box(uknetdev::csum::inet_checksum(black_box(&data), 0));
        }));
    }

    // Host-side TSO cut of a 60 KiB super-segment into MSS frames.
    {
        let sf = superframe(60 * 1024);
        let mut bufs: Vec<Netbuf> = (0..64).map(|_| Netbuf::alloc(2048, 0)).collect();
        let mut out: Vec<Netbuf> = Vec::with_capacity(64);
        let per_cut = (60 * 1024usize).div_ceil(1460) as u64;
        values.push(measure(each, per_cut, || {
            uknetdev::gso::cut_frame(
                &sf,
                1460,
                || {
                    let mut nb = bufs.pop().expect("cut buffers");
                    nb.reset(0);
                    nb
                },
                &mut out,
            )
            .expect("well-formed super-segment");
            bufs.append(&mut out);
        }));
    }

    // Flow table at 1 024 established flows.
    {
        let peer = |i: u32| Endpoint::new(Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8), 40_000);
        let mut table = FlowTable::new();
        for i in 0..1024 {
            table.insert(flow_key(80, peer(i)), i);
        }
        values.push(measure(each, 1024, || {
            for i in 0..1024 {
                black_box(table.get(flow_key(80, peer(i))));
            }
        }));
        values.push(measure(each, 256, || {
            for i in 2048..2304 {
                table.insert(flow_key(80, peer(i)), i);
            }
            for i in 2048..2304 {
                black_box(table.remove(flow_key(80, peer(i))));
            }
        }));
    }

    // Timer wheel: arm + cancel, then arm + fire.
    {
        let mut wheel = TimerWheel::with_capacity(1024);
        values.push(measure(each, 256, || {
            let now = wheel.now_ns();
            for i in 0..256u64 {
                let tok = wheel.arm(now + 200_000_000 + i * 1_000_000, i);
                black_box(wheel.cancel(tok));
            }
        }));
        let mut fired = 0u64;
        values.push(measure(each, 256, || {
            let now = wheel.now_ns();
            for i in 0..256u64 {
                wheel.arm(now + (1 + i % 40) * 1_000_000, i);
            }
            wheel.advance(now + 64_000_000, |_, _| fired += 1);
        }));
        black_box(fired);
    }

    // Event queue: 64 level-triggered sources, all ready.
    {
        let mut q = EventQueue::new();
        let sources: Vec<ReadySource> = (0..64).map(|_| ReadySource::new()).collect();
        for (i, s) in sources.iter().enumerate() {
            q.ctl_add(i as u64, s, EventMask::IN).expect("ctl_add");
            s.set_level(EventMask::IN);
        }
        values.push(measure(each, 64, || {
            black_box(q.poll_ready(64));
        }));
    }

    // App heap: malloc + free of a request-sized block.
    {
        let mut heap = AllocBackend::Mimalloc.instantiate();
        heap.init(1 << 26, 64 << 20).expect("allocator init");
        values.push(measure(each, 64, || {
            for _ in 0..64 {
                let p = heap.malloc(black_box(700)).expect("heap has room");
                heap.free(p);
            }
        }));
    }

    // Stats registry: the two hot-path operations.
    {
        let c = ukstats::Counter::register("ukperf.probe.counter");
        values.push(measure(each, 1024, || {
            for _ in 0..1024 {
                black_box(&c).inc();
            }
        }));
        let h = ukstats::Histogram::register("ukperf.probe.hist");
        values.push(measure(each, 1024, || {
            for i in 0..1024u64 {
                black_box(&h).record(100 + i);
            }
        }));
    }

    PROBE_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric {
            name,
            unit,
            value: Some(v),
        })
        .collect()
}
