//! The zero-allocation guard for the pooled datapath.
//!
//! This binary installs [`ukalloc::stats::CountingAlloc`] as its global
//! allocator, so every heap allocation is counted, per thread: each
//! test's measured window sees its own thread's allocations only,
//! whatever libtest runs beside it.
//! After warm-up (scratch vectors sized, ARP resolved, ring buffers and
//! socket queues at steady capacity), a full TCP echo round-trip and a
//! full UDP request/response round-trip through the in-process wire
//! must perform **exactly zero** heap allocations: payloads are written
//! once into pooled netbufs, headers are prepended in the headroom, the
//! wire hands buffers between pools, and readers copy into caller-owned
//! storage via the `*_recv_into` paths.
//!
//! The TCP guards run over a grid of `StackConfig` cells — checksum
//! offload on and off, segmentation offloaded or in software, GRO on
//! and off, either receive form, the loss-recovery machinery armed in
//! each combination on a lossless wire, ten thousand idle connections
//! resident — because "0 allocations per frame" is a property of the
//! datapath, not of the default configuration.

use ukalloc::stats::{AllocCounter, CountingAlloc};
use ukevent::{EventMask, EventQueue};
use uknetdev::netbuf::Netbuf;
use uknetstack::stack::{SocketHandle, StackConfig};
use uknetstack::testnet::{node, Network};
use uknetstack::{Endpoint, Ipv4Addr};
use ukplat::time::Tsc;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// The property every window below leans on: another thread's
/// allocations (libtest starting or reporting a sibling test) do not
/// show in this thread's count.
#[test]
fn a_window_counts_its_own_thread_only() {
    use std::sync::{Arc, Barrier};
    let barrier = Arc::new(Barrier::new(2));
    let other = std::thread::spawn({
        let barrier = Arc::clone(&barrier);
        move || {
            barrier.wait();
            drop(std::hint::black_box(vec![0u8; 64]));
            barrier.wait();
        }
    });
    let counter = AllocCounter::start();
    barrier.wait();
    // The other thread allocates and frees between the two waits.
    barrier.wait();
    assert_eq!((counter.allocs(), counter.frees()), (0, 0));
    drop(std::hint::black_box(Box::new(1u8)));
    assert_eq!((counter.allocs(), counter.frees()), (1, 1));
    other.join().unwrap();
}

/// `StackConfig::node` as it comes.
fn defaults(_: &mut StackConfig) {}

/// Every TCP/UDP header checksummed in place by the emitter.
fn sw_csum(c: &mut StackConfig) {
    c.tx_csum_offload = false;
}

const MB: usize = 1024 * 1024;

/// How a bulk transfer's receiver drains its connection.
#[derive(Debug, Clone, Copy)]
enum Drain {
    /// `tcp_recv_into`: copy out, buffers recycle inside the stack.
    Copy,
    /// `tcp_recv_burst_netbuf`: take the buffers whole, recycle each.
    Netbuf,
    /// `tcp_recv_burst_netbuf`, every buffer held until the whole
    /// transfer has arrived, then all recycled.
    Hold,
}

/// A client (10.0.0.1) and a server (10.0.0.2) with one established
/// TCP connection between them, plus the caller-owned scratch the
/// transfers below read into.
struct Pair {
    net: Network,
    ci: usize,
    si: usize,
    listener: SocketHandle,
    client: SocketHandle,
    server: SocketHandle,
    buf: Vec<u8>,
    bufs: Vec<Netbuf>,
}

impl Pair {
    /// `step_ns` installs a virtual clock advancing that much per wire
    /// step, which arms the loss-recovery machinery: every pump runs
    /// the timer wheel and every data frame is filed into the
    /// retransmission queue on recycle. The wire is lossless, so no
    /// retransmission timer ever fires — but the whole armed path must
    /// still stay allocation-free.
    fn new(
        port: u16,
        tune_client: impl FnOnce(&mut StackConfig),
        tune_server: impl FnOnce(&mut StackConfig),
        step_ns: Option<u64>,
    ) -> Pair {
        let mut net = Network::new();
        let ci = net.attach(node(1, tune_client));
        let si = net.attach(node(2, tune_server));
        if let Some(step_ns) = step_ns {
            net.set_clock(&Tsc::new(1_000_000_000));
            net.set_step_ns(step_ns);
        }
        let listener = net.stack(si).tcp_listen(port).unwrap();
        let client = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), port))
            .unwrap();
        net.run_until_quiet(32);
        let server = net.stack(si).tcp_accept(listener).unwrap();
        Pair {
            net,
            ci,
            si,
            listener,
            client,
            server,
            buf: vec![0; 64 * 1024],
            bufs: Vec::with_capacity(512),
        }
    }

    /// `n` 512 B echoes in one turn. With one, every layer is crossed
    /// once per packet. With 32, the burst path: requests queue on the
    /// connection (`tcp_send_queued`), one `flush_output` emits them as
    /// MSS-sized segments in one staged tx burst, and the wire moves
    /// each hop's frames with one `deliver_burst` per step.
    fn echo(&mut self, n: usize) {
        let request = [0x42u8; 512];
        let Pair { net, ci, si, client, server, buf, .. } = self;
        for _ in 0..n {
            assert_eq!(net.stack(*ci).tcp_send_queued(*client, &request).unwrap(), 512);
        }
        net.stack(*ci).flush_output().unwrap();
        net.run_until_quiet(64);
        let mut echoed = 0;
        loop {
            let k = net.stack(*si).tcp_recv_into(*server, buf).unwrap();
            if k == 0 {
                break;
            }
            assert_eq!(net.stack(*si).tcp_send_queued(*server, &buf[..k]).unwrap(), k);
            echoed += k;
        }
        assert_eq!(echoed, n * 512, "every request arrived at the server");
        net.stack(*si).flush_output().unwrap();
        net.run_until_quiet(64);
        let mut got = 0;
        loop {
            let k = net.stack(*ci).tcp_recv_into(*client, buf).unwrap();
            if k == 0 {
                break;
            }
            assert!(buf[..k].iter().all(|&b| b == 0x42));
            got += k;
        }
        assert_eq!(got, n * 512, "every request echoed back");
    }

    /// One bulk transfer: the client streams `total` bytes through the
    /// send buffer, the server drains as they arrive, keeping the
    /// window open. Returns the fewest buffers the server's pool had
    /// available after a step.
    fn bulk(&mut self, total: usize, drain: Drain) -> usize {
        static CHUNK: [u8; 64 * 1024] = [0x6b; 64 * 1024];
        let Pair { net, ci, si, client, server, buf, bufs, .. } = self;
        let mut sent = 0;
        let mut got = 0;
        let mut low = usize::MAX;
        while got < total {
            if sent < total {
                let want = CHUNK.len().min(total - sent);
                sent += net
                    .stack(*ci)
                    .tcp_send_queued(*client, &CHUNK[..want])
                    .unwrap_or(0);
                net.stack(*ci).flush_output().unwrap();
            }
            net.step();
            loop {
                let n = match drain {
                    Drain::Copy => net.stack(*si).tcp_recv_into(*server, buf).unwrap(),
                    Drain::Netbuf => {
                        net.stack(*si).tcp_recv_burst_netbuf(*server, bufs, 64);
                        let mut n = 0;
                        for nb in bufs.drain(..) {
                            n += nb.payload().len();
                            net.stack(*si).recycle(nb);
                        }
                        n
                    }
                    Drain::Hold => {
                        let from = bufs.len();
                        net.stack(*si).tcp_recv_burst_netbuf(*server, bufs, 64);
                        bufs[from..].iter().map(Netbuf::len).sum()
                    }
                };
                if n == 0 {
                    break;
                }
                got += n;
            }
            low = low.min(net.stack(*si).pool_available().unwrap());
        }
        assert_eq!(got, total, "whole transfer arrived");
        for nb in bufs.drain(..) {
            net.stack(*si).recycle(nb);
        }
        low
    }
}

/// A client (10.0.0.1:5000) and a server (10.0.0.2:9) UDP socket, plus
/// the caller-owned scratch the turns below read into.
struct UdpPair {
    net: Network,
    ci: usize,
    si: usize,
    client: SocketHandle,
    server: SocketHandle,
    server_ep: Endpoint,
    buf: Vec<u8>,
    msgs: Vec<(Endpoint, usize)>,
}

impl UdpPair {
    fn new(tune: fn(&mut StackConfig)) -> UdpPair {
        let mut net = Network::new();
        let ci = net.attach(node(1, tune));
        let si = net.attach(node(2, tune));
        UdpPair {
            server: net.stack(si).udp_bind(9).unwrap(),
            client: net.stack(ci).udp_bind(5000).unwrap(),
            server_ep: Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9),
            net,
            ci,
            si,
            buf: vec![0; 32 * 2048],
            msgs: Vec::with_capacity(32),
        }
    }

    /// One datagram to the server (`udp_send_to` / `udp_recv_into`),
    /// and if `reply`, back again.
    fn round_trip(&mut self, payload: &[u8], reply: bool) {
        let UdpPair { net, ci, si, client, server, server_ep, buf, .. } = self;
        net.stack(*ci).udp_send_to(*client, payload, *server_ep).unwrap();
        net.run_until_quiet(16);
        let (from, n) = net.stack(*si).udp_recv_into(*server, buf).unwrap();
        assert_eq!(&buf[..n], payload);
        if reply {
            net.stack(*si).udp_send_to(*server, &buf[..n], from).unwrap();
            net.run_until_quiet(16);
            let (_, m) = net.stack(*ci).udp_recv_into(*client, buf).unwrap();
            assert_eq!(&buf[..m], payload);
        }
    }

    /// 32 datagrams per turn: one sendmmsg-style burst out, one
    /// recvmmsg-style drain into a flat buffer, one burst of replies
    /// sliced straight out of that buffer, one burst drain back.
    fn burst_of_32(&mut self) {
        static PAYLOADS: [[u8; 256]; 32] = [[0x5a; 256]; 32];
        let UdpPair { net, ci, si, client, server, server_ep, buf, msgs } = self;
        let burst = PAYLOADS.iter().map(|p| (&p[..], *server_ep));
        assert_eq!(net.stack(*ci).udp_send_burst(*client, burst).unwrap(), 32);
        net.run_until_quiet(16);
        msgs.clear();
        let n = net.stack(*si).udp_recv_burst_into(*server, buf, msgs, 32);
        assert_eq!(n, 32, "whole batch received in one call");
        let mut off = 0;
        let replies = msgs.iter().map(|&(from, len)| {
            off += len;
            (&buf[off - len..off], from)
        });
        assert_eq!(net.stack(*si).udp_send_burst(*server, replies).unwrap(), 32);
        net.run_until_quiet(16);
        msgs.clear();
        let m = net.stack(*ci).udp_recv_burst_into(*client, buf, msgs, 32);
        assert_eq!(m, 32, "all replies received in one call");
    }
}

/// Runs `round` `warm` times — scratch vectors, ring done-lists, send
/// and receive queues and HashMap capacities all reach their
/// steady-state sizes — then once more under the allocation counter.
/// Every round asserts for itself that its traffic arrived.
fn assert_alloc_free<T, R>(
    pair: &mut T,
    warm: usize,
    what: &str,
    mut round: impl FnMut(&mut T) -> R,
) {
    for _ in 0..warm {
        round(pair);
    }
    let counter = AllocCounter::start();
    round(pair);
    assert_eq!(counter.allocs(), 0, "{what}: steady state must not touch the heap");
}

#[test]
fn tcp_echo_round_trip_is_allocation_free_in_steady_state() {
    // 1 µs steps keep virtual time far below the 200 ms RTO floor.
    let mut pair = Pair::new(7, defaults, defaults, Some(1_000));
    for _ in 0..4 {
        pair.echo(1);
    }

    // Stats and tracing are ON in this build (default features): the
    // round-trip below must advance counters and write trace records
    // while STILL performing zero heap allocations — that is the whole
    // "observability without perturbing the hot path" contract.
    // Snapshotting and draining allocate, so both stay outside the
    // measured window.
    let base = ukstats::snapshot();
    pair.net.stack(pair.si).trace_events();

    assert_alloc_free(&mut pair, 0, "TCP echo, stats + tracing enabled", |p| p.echo(1));

    if ukstats::COMPILED_IN {
        let snap = ukstats::snapshot();
        let delta = |name: &str| {
            snap.counter(name).unwrap_or(0) - base.counter(name).unwrap_or(0)
        };
        assert!(delta("netstack.rx_frames") > 0, "counters advanced in the window");
        assert!(delta("netstack.demux_tcp") > 0, "TCP demux was counted");
        assert!(delta("netstack.pump_sweeps") > 0, "pump sweeps were counted");
    }
    if uktrace::COMPILED_IN {
        assert!(
            !pair.net.stack(pair.si).trace_ring().is_empty(),
            "the round-trip wrote trace records"
        );
    }
}

/// The readiness seam: the server connection's cell sits on an event
/// queue, so the request's arrival is a rising edge delivered to the
/// queue, the server's read takes the level back down and the reply
/// leaves through a watched socket, and the event loop's ready-scan
/// (`poll_ready_into`, into an event array it keeps) looks at the
/// result — all without touching the heap.
#[test]
fn tcp_echo_on_a_watched_connection_is_allocation_free() {
    let mut pair = Pair::new(7, defaults, defaults, Some(1_000));
    let src = pair.net.stack(pair.si).ready_source(pair.server);
    let mut q = EventQueue::new();
    q.ctl_add(1, &src, EventMask::IN | EventMask::RDHUP).unwrap();
    for _ in 0..4 {
        pair.echo(1);
    }
    let edges = q.edges_seen();
    let mut events = Vec::with_capacity(4);
    assert_alloc_free(&mut pair, 0, "TCP echo on a watched connection", |p| {
        p.echo(1);
        q.poll_ready_into(&mut events, 4);
    });
    assert_eq!(q.edges_seen(), edges + 1, "the request's arrival was a rising edge");
    assert!(events.is_empty(), "the server's read took the level back down");
}

#[test]
fn tcp_echo_and_burst_are_allocation_free_without_tx_csum_offload() {
    let mut pair = Pair::new(7, sw_csum, sw_csum, None);
    assert!(!pair.net.stack(pair.ci).offloads().tx_csum);
    assert_alloc_free(&mut pair, 8, "TCP echo, software checksums", |p| p.echo(1));
    assert_alloc_free(&mut pair, 4, "burst of 32 echoes, software checksums", |p| p.echo(32));
    assert_eq!(pair.net.stack(pair.ci).stats().csum_offloaded, 0);
}

#[test]
fn udp_round_trip_is_allocation_free_in_steady_state() {
    for tune in [defaults, sw_csum] {
        let mut pair = UdpPair::new(tune);
        assert_alloc_free(&mut pair, 4, "UDP round-trip", |p| p.round_trip(&[0x5a; 256], true));
    }
}

#[test]
fn tcp_echo_burst_of_32_is_allocation_free_in_steady_state() {
    let mut pair = Pair::new(7, defaults, defaults, None);
    assert_alloc_free(&mut pair, 4, "burst of 32 TCP echoes", |p| p.echo(32));
}

#[test]
fn udp_burst_of_32_datagrams_is_allocation_free_in_steady_state() {
    for tune in [defaults, sw_csum] {
        let mut pair = UdpPair::new(tune);
        // Resolve ARP first: an unresolved next-hop would park the first
        // burst and the droppable-packet cap would evict half of it.
        pair.round_trip(b"warm", true);
        assert_alloc_free(&mut pair, 4, "burst of 32 UDP datagrams", |p| p.burst_of_32());
    }
}

#[test]
fn bulk_1mb_tso_transfer_is_allocation_free_in_steady_state() {
    // Same arming as the echo guard: clock installed, RTO scan live,
    // every data frame filed for retransmission on recycle — and the
    // lossless bulk path still must not allocate.
    let mut pair = Pair::new(9000, defaults, defaults, Some(1_000));
    let ci = pair.ci;
    assert!(pair.net.stack(ci).offloads().tso, "bulk path runs over TSO super-segments");
    for _ in 0..2 {
        pair.bulk(MB, Drain::Copy);
    }
    // As in the echo guard: stats + tracing are enabled and must ride
    // along allocation-free (snapshot/drain allocate, so outside).
    let base = ukstats::snapshot();
    pair.net.stack(ci).trace_events();
    assert_alloc_free(&mut pair, 0, "1 MB over TSO, stats + tracing enabled", |p| {
        p.bulk(MB, Drain::Copy)
    });
    // And it really rode the fast path: super-segments, not per-MSS.
    assert!(pair.net.stack(ci).stats().tso_super_frames > 0);
    if ukstats::COMPILED_IN {
        let snap = ukstats::snapshot();
        let delta = |name: &str| {
            snap.counter(name).unwrap_or(0) - base.counter(name).unwrap_or(0)
        };
        assert!(delta("netstack.tso_super_frames") > 0, "registry saw the supers");
        assert!(delta("netstack.tx_bytes") >= MB as u64, "bytes were counted");
        // `pump` times one sweep in 64 (every stack's first among
        // them), so the window may hold no sample of its own: the
        // histogram has samples, and fewer than there were sweeps.
        let hist = snap.hist("netstack.pump_ns").expect("pump histogram");
        assert!(hist.count > 0, "pump latency is sampled");
        assert!(
            hist.count < snap.counter("netstack.pump_sweeps").unwrap_or(0),
            "sampled, not read on every sweep"
        );
    }
    if uktrace::COMPILED_IN {
        assert!(
            !pair.net.stack(ci).trace_ring().is_empty(),
            "the transfer wrote trace records (tso_super_tx et al.)"
        );
    }
}

/// The bulk grid: segmentation offloaded (super-segment chains, big
/// receive) or in software (per-MSS frames), receive checksums trusted
/// or verified — with `rx_csum_offload` off the host side cuts the
/// supers, so `(tso, !rx_csum)` is the TSO-cut-on-the-wire cell.
#[test]
fn bulk_1mb_is_allocation_free_across_the_offload_grid() {
    for (tso, rx_csum) in [(true, true), (true, false), (false, true), (false, false)] {
        let tune = |c: &mut StackConfig| {
            c.tso = tso;
            c.rx_csum_offload = rx_csum;
        };
        let mut pair = Pair::new(9000, tune, tune, None);
        assert_eq!(pair.net.stack(pair.ci).offloads().tso, tso);
        assert_eq!(pair.net.stack(pair.si).offloads().big_receive, rx_csum);
        for _ in 0..3 {
            pair.bulk(64 * 1024, Drain::Copy);
        }
        let what = format!("1 MB bulk, tso={tso} rx_csum_offload={rx_csum}");
        assert_alloc_free(&mut pair, 3, &what, |p| p.bulk(MB, Drain::Copy));
        let supers = pair.net.stack(pair.si).stats().rx_super_frames;
        assert_eq!(supers > 0, tso && rx_csum, "{what}: big receive iff both offloads");
    }
}

/// The receive-side grid: a 1 MB transfer from a **per-MSS sender**
/// (TSO off — every wire frame is an MSS segment, the workload GRO
/// exists for), GRO on and off, drained through either receive form.
/// On the zero-copy form frames coalesce in the reused GRO stage, the
/// payload buffers move from the demux into the connection's receive
/// queue and out to the application, and recycling returns each to
/// the pool: not one byte of payload is copied on the receive side
/// and not one heap allocation happens anywhere.
#[test]
fn recv_1mb_is_allocation_free_across_gro_and_receive_form() {
    for gro in [true, false] {
        for drain in [Drain::Netbuf, Drain::Copy] {
            let per_mss = |c: &mut StackConfig| c.tso = false;
            let mut pair = Pair::new(9100, per_mss, |c| c.gro = gro, None);
            let si = pair.si;
            assert_eq!(pair.net.stack(si).offloads().gro, gro);
            let what = format!("1 MB per-MSS receive, gro={gro} {drain:?}");
            let frames_before = pair.net.stack(si).stats().rx_frames;
            assert_alloc_free(&mut pair, 3, &what, |p| p.bulk(MB, drain));
            let stats = pair.net.stack(si).stats();
            let frames = stats.rx_frames - frames_before;
            assert!(frames > 4 * 500, "{what}: per-MSS receive really happened ({frames} frames)");
            // And it really rode (or really skipped) the coalescing path.
            assert_eq!(stats.gro_runs > 0, gro, "{what}: GRO merged runs iff on");
        }
    }
}

/// The recovery grid on a lossless wire: with the scoreboard or
/// without it, a clocked 1 MB per-MSS transfer (the frame shape loss
/// recovery acts on) that loses nothing allocates nothing. 5 ms of
/// virtual time per step, as the lossy suites run: held ACKs and
/// tail-loss probes come due mid-transfer.
#[test]
fn lossless_1mb_is_allocation_free_whatever_recovery_is_armed() {
    for sack in [false, true] {
        let tune = |c: &mut StackConfig| {
            c.tso = false;
            c.sack = sack;
        };
        let mut pair = Pair::new(9200, tune, tune, Some(5_000_000));
        for _ in 0..3 {
            pair.bulk(64 * 1024, Drain::Copy);
        }
        let what = format!("lossless 1 MB, sack={sack}");
        assert_alloc_free(&mut pair, 3, &what, |p| p.bulk(MB, Drain::Copy));
        let s = pair.net.stack(pair.ci).tcp_stats(pair.client).unwrap();
        let (rto, rtx, fast) = (s.rto_fires, s.retransmits, s.fast_retransmits);
        assert_eq!((rto, rtx, fast), (0, 0, 0), "{what}: nothing was lost, nothing resent");
    }
}

/// Scale: the echo hot path threads ten thousand established-idle
/// `lean_tcbs` connections (forged handshakes from spoofed peers,
/// completed through the wire capture) without allocating — the flow
/// table, the slab and the wheel are all sized by the population, the
/// per-packet work by none of them. Every one of them is watched on
/// one event queue, and that costs the echo nothing either: readiness
/// is published by the socket something happened to, so only the
/// active connection's token is ever reported and no idle cell moves.
#[test]
fn tcp_echo_is_allocation_free_with_10k_idle_connections_resident() {
    const IDLE: usize = 10_000;
    let lean = |c: &mut StackConfig| {
        c.lean_tcbs = true;
        c.listen_backlog = 1024;
    };
    let mut pair = Pair::new(9300, defaults, lean, Some(1_000_000));
    let mut q = EventQueue::new();
    let watch = EventMask::IN | EventMask::RDHUP | EventMask::ET;
    let mut idle = Vec::with_capacity(IDLE);
    while idle.len() < IDLE {
        let wave = (IDLE - idle.len()).min(512);
        let done = pair.net.forge_established(pair.si, 9300, idle.len(), wave, 64);
        assert_eq!(done, wave, "every forged handshake completed");
        while let Some(h) = pair.net.stack(pair.si).tcp_accept(pair.listener) {
            let src = pair.net.stack(pair.si).ready_source(h);
            q.ctl_add(h.0 as u64, &src, watch).unwrap();
            idle.push(src);
        }
    }
    assert_eq!(idle.len(), IDLE);
    assert_eq!(pair.net.stack(pair.si).tcp_conn_count(), IDLE + 1);
    let active = pair.net.stack(pair.si).ready_source(pair.server);
    q.ctl_add(pair.server.0 as u64, &active, watch).unwrap();
    assert_alloc_free(&mut pair, 8, "TCP echo past 10K idle connections", |p| p.echo(1));

    // One more request, stopped before the server reads it.
    q.poll_ready(usize::MAX);
    let idle_seqs: Vec<u64> = idle.iter().map(|src| src.edge_seq()).collect();
    pair.net.stack(pair.ci).tcp_send(pair.client, &[0x42; 512]).unwrap();
    pair.net.run_until_quiet(64);
    let ready: Vec<u64> = q.poll_ready(usize::MAX).iter().map(|ev| ev.token).collect();
    assert_eq!(ready, [pair.server.0 as u64], "only the active connection is reported");
    let moved = idle.iter().zip(&idle_seqs).filter(|(src, &seq)| src.edge_seq() != seq);
    assert_eq!(moved.count(), 0, "no idle connection's cell saw an edge");
    let Pair { net, si, server, buf, .. } = &mut pair;
    assert_eq!(net.stack(*si).tcp_recv_into(*server, buf).unwrap(), 512);
    net.run_until_quiet(64);
    assert_eq!(net.stack(*si).pool_available(), Some(512), "server pool whole");
}

/// The pool-layer guard beneath all the round-trip guards above: raw
/// take/give-back circulation performs zero heap allocations. This
/// holds in the default (tier-1) build — proving the `netbuf-sanitizer`
/// feature compiles out to literally nothing the allocator can see —
/// and under `make verify-sanitize` too, where poisoning is a byte fill
/// into existing storage and provenance is `&'static Location`, so even
/// the sanitized pool never touches the heap while circulating.
#[test]
fn pool_circulation_is_allocation_free_in_both_feature_modes() {
    let mut pool = uknetdev::netbuf::NetbufPool::new(8, 2048, 64);
    let mut held = Vec::with_capacity(8);
    // Warm one cycle (nothing to size, but keep the shape uniform).
    for _ in 0..8 {
        held.push(pool.take().unwrap());
    }
    for nb in held.drain(..) {
        pool.give_back(nb);
    }

    let counter = AllocCounter::start();
    for _ in 0..32 {
        for _ in 0..8 {
            held.push(pool.take().unwrap());
        }
        for nb in held.drain(..) {
            pool.give_back(nb);
        }
    }
    assert_eq!(
        counter.allocs(),
        0,
        "pool circulation must not touch the heap (netbuf-sanitizer {})",
        if cfg!(feature = "netbuf-sanitizer") { "on" } else { "off" },
    );
    assert_eq!(pool.available(), 8, "every buffer came home");
}

/// What building buffers costs, as a formula: everything a buffer
/// will ever need from the heap is taken when it is built. A pooled
/// buffer is a descriptor, its storage and — when chains are reserved —
/// one fragment list of one-word handles. A pool of `n` allocates its
/// slot table and free list sized for all `n` (and the sanitizer its
/// provenance table) at construction, and no buffer. A take with every
/// built buffer out builds one buffer when none is built and otherwise
/// as many again as are built, up to `n`; every other take allocates
/// nothing. The heap fallback is a descriptor plus storage.
#[test]
fn buffer_construction_allocates_by_formula() {
    use uknetdev::netbuf::{Netbuf, NetbufPool};
    let tables = 2 + u64::from(cfg!(feature = "netbuf-sanitizer"));
    for (n, chain_frags, per_buf) in [(8u64, 0usize, 2u64), (8, 34, 3), (64, 4, 3), (300, 34, 3)] {
        let (mut pool, allocs) = AllocCounter::measure(|| {
            NetbufPool::with_chain_capacity(n as usize, 2048, 64, chain_frags)
        });
        assert_eq!(allocs, tables, "pool of {n} buffers reserving {chain_frags} fragments");
        assert_eq!(pool.built(), 0, "pool of {n}: construction builds no buffer");
        let mut held: Vec<Netbuf> = Vec::new();
        let mut built = 0u64;
        for _ in 0..n {
            let out = held.len() as u64;
            let grown = if out == built { built.max(1).min(n - built) } else { 0 };
            let (next, allocs) = AllocCounter::measure(|| pool.take());
            assert_eq!(allocs, grown * per_buf, "pool of {n}: take {}", out + 1);
            built += grown;
            assert_eq!(pool.built() as u64, built, "pool of {n}: take {}", out + 1);
            held.extend(next);
        }
        let (none, allocs) = AllocCounter::measure(|| pool.take());
        assert!(none.is_none() && allocs == 0, "pool of {n}: all {n} out");
        for nb in held {
            pool.give_back(nb);
        }
    }
    let (_nb, allocs) = AllocCounter::measure(|| Netbuf::alloc(2048, 64));
    assert_eq!(allocs, 2, "heap fallback: descriptor + storage");
    let (_nb, allocs) = AllocCounter::measure(|| Netbuf::from_slice(b"extent"));
    assert_eq!(allocs, 2);
}

/// A stack's pool builds a buffer only when the traffic has every
/// built one in flight. Growth is a warm-up event: a receiver that
/// holds a 256 KiB stream's buffers — more in flight than the warm-up
/// left built — pays for the buffers built during that round the first
/// time (each a descriptor, its storage and a fragment list), and
/// nothing when the same traffic comes again. The warm-up streams the
/// same 256 KiB with every buffer recycled at once, so the queues are
/// sized and the held round differs only in what it holds.
#[test]
fn pool_growth_is_a_warm_up_event() {
    let per_mss = |c: &mut StackConfig| c.tso = false;
    let mut pair = Pair::new(9400, per_mss, defaults, None);
    for _ in 0..3 {
        pair.bulk(256 * 1024, Drain::Netbuf);
    }
    let warm = pair.net.stack(pair.si).pool_built();
    let (low, allocs) = AllocCounter::measure(|| pair.bulk(256 * 1024, Drain::Hold));
    let (held, grown) = (512 - low, pair.net.stack(pair.si).pool_built());
    assert!(held > warm, "the server held {held} buffers, {warm} were built");
    assert!(grown <= 2 * held, "{grown} built for {held} in flight");
    assert_eq!(allocs, (grown - warm) as u64 * 3, "the server's pool grew, nothing else allocated");
    let (again, allocs) = AllocCounter::measure(|| pair.bulk(256 * 1024, Drain::Hold));
    assert!(512 - again > warm, "the server held {} buffers again", 512 - again);
    assert_eq!(allocs, 0, "a grown pool allocates nothing");
    assert_eq!(pair.net.stack(pair.si).pool_built(), grown);
}

#[test]
fn buffers_circulate_without_draining_the_pools() {
    let mut pair = UdpPair::new(defaults);
    // Settle, then record pool levels.
    pair.round_trip(b"warm", false);
    let ci_avail = pair.net.stack(pair.ci).pool_available().unwrap();
    let si_avail = pair.net.stack(pair.si).pool_available().unwrap();

    for _ in 0..100 {
        pair.round_trip(b"ping", false);
    }
    assert_eq!(
        pair.net.stack(pair.ci).pool_available(),
        Some(ci_avail),
        "every TX buffer returned to the client pool"
    );
    assert_eq!(
        pair.net.stack(pair.si).pool_available(),
        Some(si_avail),
        "every RX buffer returned to the server pool"
    );
}

/// A peer spraying unsolicited echo replies at a stack that never
/// calls `ping_replies()`: what it keeps stops at 64, the rest are
/// counted drops, every buffer goes home, and once the cap is reached
/// a reply costs the heap nothing — the list was sized at
/// construction and never grows.
#[test]
fn ten_thousand_unsolicited_echo_replies_fill_a_capped_list_and_no_more() {
    use uknetstack::eth::{EthHeader, EtherType};
    use uknetstack::ipv4::{IpProto, Ipv4Header};
    use uknetstack::{icmp, Mac};
    const CAP: usize = 64;
    const BURST: u16 = 50;
    let mut s = node(1, defaults);
    let level = s.pool_available();
    let (mut kept, mut allocs_past_cap) = (0, 0);
    for burst in 0..10_000 / BURST {
        // The wire builds the frames, outside the measured window.
        for i in 0..BURST {
            let mut nb = s.take_rx_buf();
            nb.reset(64);
            nb.append(b"pong");
            icmp::encode_echo_into(false, 7, burst * BURST + i, &mut nb);
            let ip = Ipv4Header {
                src: Ipv4Addr::new(10, 0, 0, 2),
                dst: s.ip(),
                proto: IpProto::Icmp,
                payload_len: nb.len(),
                ttl: 64,
            };
            ip.encode_into(&mut nb);
            EthHeader { dst: s.mac(), src: Mac::node(2), ethertype: EtherType::Ipv4 }
                .encode_into(&mut nb);
            s.deliver_frame(nb);
        }
        let counter = AllocCounter::start();
        kept += s.pump();
        if kept == CAP {
            allocs_past_cap += counter.allocs();
        }
    }
    assert_eq!(kept, CAP, "pump handled the kept ones, dropped the rest");
    assert_eq!(allocs_past_cap, 0, "a refused reply must not touch the heap");
    assert_eq!(s.stats().demux_icmp, 10_000);
    assert_eq!(s.stats().dropped, 10_000 - CAP as u64, "the newest are refused, and counted");
    assert_eq!(s.pool_available(), level, "pool level restored");
    let replies = s.ping_replies();
    assert_eq!(replies.len(), CAP);
    assert_eq!(replies[0], (Ipv4Addr::new(10, 0, 0, 2), 7, 0), "the oldest are the ones kept");
    assert!(s.ping_replies().is_empty(), "drained");
}
