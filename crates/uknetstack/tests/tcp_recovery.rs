//! Wire-level TCP loss-recovery tests: retransmission timers, fast
//! retransmit, out-of-order reassembly and congestion control driven
//! through real stacks over the testnet's deterministic fault modes.
//!
//! Every test follows the same shape: establish on a clean wire (so
//! ARP and the handshake cannot be eaten), arm a fault schedule and a
//! shared virtual clock, then prove the stream still arrives
//! byte-identical — and that the recovery showed up in the
//! `netstack.tcp.*` loss counters, not by accident.

use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::VirtioNet;
use uknetstack::stack::{NetStack, SocketHandle, StackConfig};
use uknetstack::testnet::Network;
use uknetstack::{Endpoint, Ipv4Addr};
use ukplat::time::Tsc;

const POOL: usize = 512;

/// The `ukstats` registry is process-global and libtest runs this
/// binary's tests on parallel threads, all of them firing RTOs. The one
/// test that compares a registry delta with its own connection's count
/// takes this lock exclusively; every other test shares it.
static REGISTRY: std::sync::RwLock<()> = std::sync::RwLock::new(());

fn sharing_registry() -> std::sync::RwLockReadGuard<'static, ()> {
    REGISTRY.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn mk_stack(n: u8, tso: bool, cc: bool) -> NetStack {
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    let mut cfg = StackConfig::node(n);
    cfg.tso = tso;
    cfg.congestion_control = cc;
    NetStack::new(cfg, Box::new(dev))
}

/// A stack with an arbitrary config tweak on top of the node defaults
/// (per-MSS frames, cc on) — for the recovery-ablation tests.
fn mk_stack_cfg(n: u8, f: impl FnOnce(&mut StackConfig)) -> NetStack {
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    let mut cfg = StackConfig::node(n);
    cfg.tso = false;
    f(&mut cfg);
    NetStack::new(cfg, Box::new(dev))
}

/// A two-node clocked net where both stacks get the same config tweak.
fn clocked_net_cfg(step_ns: u64, f: impl Fn(&mut StackConfig)) -> Network {
    let mut net = Network::new();
    net.attach(mk_stack_cfg(1, &f));
    net.attach(mk_stack_cfg(2, &f));
    let tsc = Tsc::new(1_000_000_000); // 1 cycle = 1 ns.
    net.set_clock(&tsc);
    net.set_step_ns(step_ns);
    net
}

/// A two-node net with a shared virtual clock advancing `step_ns` per
/// step. `tso = false` keeps data on per-MSS plain wire frames — the
/// shape the fault injector acts on.
fn clocked_net(tso: bool, cc: bool, step_ns: u64) -> Network {
    let mut net = Network::new();
    net.attach(mk_stack(1, tso, cc));
    net.attach(mk_stack(2, tso, cc));
    let tsc = Tsc::new(1_000_000_000); // 1 cycle = 1 ns.
    net.set_clock(&tsc);
    net.set_step_ns(step_ns);
    net
}

fn establish(net: &mut Network, port: u16) -> (SocketHandle, SocketHandle) {
    let listener = net.stack(1).tcp_listen(port).unwrap();
    let server_ip = net.stack(1).ip();
    let client = net
        .stack(0)
        .tcp_connect(Endpoint::new(server_ip, port))
        .unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(1).tcp_accept(listener).unwrap();
    (client, conn)
}

/// Sends `data` client→server, draining the server each step; panics
/// if the transfer does not complete within `rounds` steps.
fn bulk_send(
    net: &mut Network,
    client: SocketHandle,
    conn: SocketHandle,
    data: &[u8],
    rounds: usize,
) -> Vec<u8> {
    let mut got = Vec::with_capacity(data.len());
    let mut sent = 0;
    let mut buf = vec![0u8; 64 * 1024];
    for _ in 0..rounds {
        if sent < data.len() {
            let n = net
                .stack(0)
                .tcp_send_queued(client, &data[sent..])
                .unwrap_or(0);
            sent += n;
            net.stack(0).flush_output().unwrap();
        }
        net.step();
        loop {
            let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        if got.len() == data.len() {
            break;
        }
    }
    got
}

fn patterned(len: usize, mul: u32) -> Vec<u8> {
    (0..len as u32).map(|i| (i.wrapping_mul(mul) % 251) as u8).collect()
}

/// Like [`bulk_send`], but also reports how many wire steps the
/// transfer took — the goodput measure the ablation tests compare.
fn bulk_send_counting(
    net: &mut Network,
    client: SocketHandle,
    conn: SocketHandle,
    data: &[u8],
    rounds: usize,
) -> (Vec<u8>, usize) {
    let mut got = Vec::with_capacity(data.len());
    let mut sent = 0;
    let mut buf = vec![0u8; 64 * 1024];
    let mut used = rounds;
    for round in 0..rounds {
        if sent < data.len() {
            let n = net
                .stack(0)
                .tcp_send_queued(client, &data[sent..])
                .unwrap_or(0);
            sent += n;
            net.stack(0).flush_output().unwrap();
        }
        net.step();
        loop {
            let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        if got.len() == data.len() {
            used = round + 1;
            break;
        }
    }
    (got, used)
}

/// The tentpole satellite: a 1 MB bulk transfer completes
/// byte-identical with every 7th wire frame silently dropped, the
/// recovery visible in the retransmission counters, and every pooled
/// buffer back home afterwards.
#[test]
fn bulk_1mb_completes_under_drop_every_7() {
    let _registry = sharing_registry();
    let mut net = clocked_net(false, true, 5_000_000); // 5 ms steps.
    let (client, conn) = establish(&mut net, 9001);
    net.set_drop_every(7);
    let blob = patterned(1 << 20, 31);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got.len(), blob.len(), "every byte recovered");
    assert_eq!(got, blob, "stream byte-identical under 1/7 loss");
    assert!(net.faults_injected() > 50, "the wire really dropped");
    let (rto, rtx, fast, ooo) = net.stack(0).tcp_loss_stats(client);
    assert!(rtx > 0, "losses were repaired by retransmission");
    assert!(
        fast > 0 || rto > 0,
        "recovery engaged (fast={fast}, rto={rto})"
    );
    let (_, _, _, srv_ooo) = net.stack(1).tcp_loss_stats(conn);
    assert!(
        srv_ooo > 0 || ooo > 0,
        "segments behind the holes were reassembled, not discarded"
    );
    net.set_drop_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL), "client pool whole");
    assert_eq!(net.stack(1).pool_available(), Some(POOL), "server pool whole");
}

/// Loss bursts long enough to eat the dup-ACK signal force the RTO
/// path; the stream still arrives byte-identical.
#[test]
fn drop_bursts_force_rto_and_still_deliver_exactly() {
    let _registry = sharing_registry();
    // 50 ms steps: bursts can eat whole retransmit+ACK exchanges and
    // double the RTO toward its cap, so each round must buy enough
    // virtual time for deep backoffs to elapse within the round budget.
    let mut net = clocked_net(false, true, 50_000_000);
    let (client, conn) = establish(&mut net, 9002);
    net.set_drop_burst(40, 8); // 8 consecutive frames, every 40th.
    let blob = patterned(300_000, 17);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    if got != blob {
        let diff = got
            .iter()
            .zip(blob.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(blob.len()));
        panic!(
            "stream corrupted under burst loss: got {} bytes (want {}), first diff at {} (got {:?} want {:?})",
            got.len(),
            blob.len(),
            diff,
            &got[diff..(diff + 16).min(got.len())],
            &blob[diff..(diff + 16).min(blob.len())],
        );
    }
    assert!(net.faults_injected() > 20, "bursts really hit");
    let (_, rtx, _, _) = net.stack(0).tcp_loss_stats(client);
    assert!(rtx > 0, "burst holes were retransmitted");
    net.set_drop_burst(0, 0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// A dropped FIN is retransmitted on RTO: the close completes without
/// any help from the application.
#[test]
fn dropped_fin_is_retransmitted_until_the_close_completes() {
    let _registry = sharing_registry();
    let mut net = clocked_net(false, true, 50_000_000); // 50 ms steps.
    let (client, conn) = establish(&mut net, 9003);
    // Eat everything while the FIN goes out…
    net.set_drop_every(1);
    net.stack(0).tcp_close(client).unwrap();
    net.step();
    assert!(!net.stack(1).tcp_peer_closed(conn), "the FIN was eaten");
    // …then heal the wire and let the retransmission timer work.
    net.set_drop_every(0);
    for _ in 0..40 {
        net.step();
        if net.stack(1).tcp_peer_closed(conn) {
            break;
        }
    }
    assert!(
        net.stack(1).tcp_peer_closed(conn),
        "the retransmitted FIN completed the close"
    );
    let (rto, rtx, _, _) = net.stack(0).tcp_loss_stats(client);
    assert!(rto >= 1, "the RTO timer fired for the lost FIN");
    assert!(rtx >= 1, "the FIN was re-emitted");
}

/// RTO backoff doubles deterministically on a black-holed wire, and
/// the doubling is observable through the `netstack.tcp.rto_fires`
/// counter in the global stats registry.
#[test]
fn rto_backoff_doubling_is_observable_via_stats() {
    let _registry = REGISTRY.write().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut net = clocked_net(false, true, 50_000_000); // 50 ms steps.
    let (client, _conn) = establish(&mut net, 9004);
    let base = ukstats::snapshot();
    // Black-hole the wire, then send one segment into the void: the
    // initial RTO is 1 s (no RTT sample yet), so fires land ~1 s, ~3 s
    // and ~7 s after the send — gaps of 2 s then 4 s.
    net.set_drop_every(1);
    net.stack(0).tcp_send(client, b"into the void").unwrap();
    let mut fire_steps = Vec::new();
    let mut seen = 0;
    for step in 0..160 {
        net.step();
        let (rto, _, _, _) = net.stack(0).tcp_loss_stats(client);
        if rto > seen {
            seen = rto;
            fire_steps.push(step as i64);
        }
        if fire_steps.len() == 3 {
            break;
        }
    }
    assert_eq!(fire_steps.len(), 3, "three RTO fires within 8 s: {fire_steps:?}");
    let gap1 = fire_steps[1] - fire_steps[0];
    let gap2 = fire_steps[2] - fire_steps[1];
    assert!(
        (gap2 - 2 * gap1).abs() <= 2,
        "backoff doubled: gaps {gap1} vs {gap2} steps"
    );
    if ukstats::COMPILED_IN {
        let before = base.counter("netstack.tcp.rto_fires").unwrap_or(0);
        let after = ukstats::snapshot().counter("netstack.tcp.rto_fires").unwrap();
        assert_eq!(after - before, seen, "fires visible in the registry");
    }
    net.set_drop_every(0);
}

/// A dropped SYN does not wedge the connect: the handshake completes
/// through SYN retransmission.
#[test]
fn dropped_syn_is_retransmitted() {
    let _registry = sharing_registry();
    let mut net = clocked_net(false, true, 50_000_000);
    // ARP first, so only the SYN is at risk.
    net.stack(0).ping(Ipv4Addr::new(10, 0, 0, 2), 1, 1).unwrap();
    net.run_until_quiet(16);
    let listener = net.stack(1).tcp_listen(9005).unwrap();
    net.set_drop_every(1);
    let client = net
        .stack(0)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9005))
        .unwrap();
    net.step();
    net.set_drop_every(0);
    // `run_until_quiet` would stop at the first idle step; the wire
    // stays idle until the 1 s initial RTO fires (20 × 50 ms steps).
    for _ in 0..40 {
        net.step();
        if net.stack(0).tcp_state(client) == Some(uknetstack::tcp::TcpState::Established) {
            break;
        }
    }
    assert_eq!(
        net.stack(0).tcp_state(client),
        Some(uknetstack::tcp::TcpState::Established),
        "handshake completed through SYN retransmission"
    );
    // The handshake-completing ACK needs one more wire hop before the
    // server moves the connection onto its accept backlog.
    net.run_until_quiet(8);
    let conn = net.stack(1).tcp_accept(listener).unwrap();
    net.stack(0).tcp_send(client, b"post-loss hello").unwrap();
    net.run_until_quiet(32);
    assert_eq!(net.stack(1).tcp_recv(conn, 1024).unwrap(), b"post-loss hello");
}

/// The GRO gap regression: with coalescing on and a lossy wire, a
/// staged run must flush at the sequence hole instead of merging
/// across it — the stream stays byte-identical and out-of-order
/// segments still reach the reassembly queue.
#[test]
fn gro_staging_flushes_on_sequence_gaps_under_loss() {
    let _registry = sharing_registry();
    let mut net = clocked_net(false, true, 5_000_000);
    assert!(net.stack(1).gro(), "receiver coalesces");
    let (client, conn) = establish(&mut net, 9006);
    net.set_drop_every(5);
    let blob = patterned(400_000, 13);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got.len(), blob.len(), "every byte recovered with GRO on");
    assert_eq!(got, blob, "no merge across a sequence hole");
    let (_, _, _, ooo) = net.stack(1).tcp_loss_stats(conn);
    assert!(ooo > 0, "gapped segments were queued out of order");
    assert!(net.stack(1).stats().gro_runs > 0, "GRO still engaged");
    net.set_drop_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// A bandwidth-delay pipe (latency + per-step link budget) with
/// NewReno on: the transfer completes, the congestion window grew
/// past its initial value, and the cwnd gauge is live.
#[test]
fn bandwidth_delay_pipe_completes_with_congestion_control() {
    let _registry = sharing_registry();
    let mut net = clocked_net(false, true, 2_000_000); // 2 ms steps.
    let (client, conn) = establish(&mut net, 9007);
    net.set_bandwidth_delay(4, 24); // 8 ms one-way, 24 frames/step.
    let blob = patterned(400_000, 7);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "stream intact through the pipe");
    let cwnd = net.stack(0).tcp_cwnd(client);
    assert!(cwnd > 0, "cwnd gauge live");
    net.set_bandwidth_delay(0, 0);
    net.run_until_quiet(128);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// The ablation switch: the same lossy transfer completes with
/// congestion control off (pure window-limited recovery), so NewReno
/// is a measurable policy, not a correctness crutch.
#[test]
fn loss_recovery_works_with_congestion_control_off() {
    let _registry = sharing_registry();
    let mut net = clocked_net(false, false, 5_000_000);
    let (client, conn) = establish(&mut net, 9008);
    net.set_drop_every(9);
    let blob = patterned(300_000, 29);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "byte-identical with the ablation off");
    let (_, rtx, _, _) = net.stack(0).tcp_loss_stats(client);
    assert!(rtx > 0, "recovery still ran");
    net.set_drop_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// TSO sender over a lossy wire: super-segments are host-cut into
/// plain frames (the receiver declines big receive), the fault
/// injector eats some, and the sender's chained extents still
/// retransmit correctly through the recycle-back queue.
#[test]
fn tso_super_segments_survive_loss_via_host_cut_retransmission() {
    let _registry = sharing_registry();
    let mut net = Network::new();
    net.attach(mk_stack(1, true, true));
    let tsc0 = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc0);
    dev.configure(NetDevConf::default()).unwrap();
    let mut cfg = StackConfig::node(2);
    cfg.rx_csum_offload = false; // Declines big receive: supers get cut.
    let _ = net.attach(NetStack::new(cfg, Box::new(dev)));
    let tsc = Tsc::new(1_000_000_000);
    net.set_clock(&tsc);
    net.set_step_ns(5_000_000);
    let (client, conn) = establish(&mut net, 9009);
    net.set_drop_every(11);
    let blob = patterned(500_000, 37);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "stream byte-identical: chained rtx extents work");
    assert!(net.stack(0).stats().tso_super_frames > 0, "sender used TSO");
    let (_, rtx, _, _) = net.stack(0).tcp_loss_stats(client);
    assert!(rtx > 0, "cut-frame losses were retransmitted");
    net.set_drop_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// The SACK tentpole: the same multi-hole drop schedule runs once
/// with the scoreboard on and once with it off. With SACK the sender
/// retransmits *only the holes* (the `sack_rtx` counter proves the
/// hole-walk ran past the first hole) and the transfer needs no more
/// wire time than blind go-back-N recovery. Congestion control is off
/// so flights stay window-limited (~45 MSS): a 1-in-8 drop then
/// leaves several holes per window, which is the multi-hole episode
/// the scoreboard exists for. (With NewReno on, cwnd collapses after
/// every drop and recovery degenerates to single-segment RTOs — the
/// scoreboard never gets a second hole to walk.)
#[test]
fn sack_scoreboard_retransmits_only_the_holes() {
    let _registry = sharing_registry();
    let run = |sack: bool| {
        let mut net = clocked_net_cfg(5_000_000, |cfg| {
            cfg.sack = sack;
            cfg.rack = false; // Isolate the scoreboard dimension.
            cfg.pacing = false;
            cfg.congestion_control = false;
        });
        let (client, conn) = establish(&mut net, 9010);
        net.set_drop_every(8);
        let blob = patterned(300_000, 23);
        let (got, steps) = bulk_send_counting(&mut net, client, conn, &blob, 20_000);
        assert_eq!(got, blob, "byte-identical (sack={sack})");
        let (sack_rtx, _, _, _, _) = net.stack(0).tcp_recovery_stats(client);
        let (_, rtx, _, _) = net.stack(0).tcp_loss_stats(client);
        assert!(rtx > 0, "losses were repaired (sack={sack})");
        net.set_drop_every(0);
        net.run_until_quiet(64);
        assert_eq!(net.stack(0).pool_available(), Some(POOL));
        assert_eq!(net.stack(1).pool_available(), Some(POOL));
        (steps, sack_rtx)
    };
    let (steps_on, sack_rtx_on) = run(true);
    let (steps_off, sack_rtx_off) = run(false);
    assert!(
        sack_rtx_on > 0,
        "the scoreboard drove hole retransmissions beyond the first hole"
    );
    assert_eq!(sack_rtx_off, 0, "no scoreboard activity with the ablation off");
    // Wall-clock parity bound: surgical recovery must not be slower
    // than go-back-N beyond schedule noise (the deterministic drop
    // cadence also eats some of the hole retransmissions themselves).
    assert!(
        steps_on <= steps_off + steps_off / 4,
        "surgical recovery within 25% of go-back-N ({steps_on} vs {steps_off} steps)"
    );
}

/// The recovery verdict, on the deterministic clock: with NewReno on
/// (the shipped configuration) and a lossy wire, with or without
/// adjacent reordering on top, the scoreboard plus the time-based
/// detector need fewer wire steps than blind recovery — dup-ACK
/// threshold, go-back-N, RTO — and the scoreboard costs no wire time
/// on top of the detector alone. The fault schedule is a modulo of the
/// frame count, so any one cadence is chaotic under a change of a
/// single frame; each verdict is taken over the sum of three.
#[test]
fn sack_and_rack_never_lose_to_blind_recovery_on_a_lossy_wire() {
    let _registry = sharing_registry();
    let steps = |sack: bool, rack: bool, drop_every: u64, reorder_every: u64| {
        let mut net = clocked_net_cfg(5_000_000, |cfg| {
            cfg.sack = sack;
            cfg.rack = rack;
        });
        let (client, conn) = establish(&mut net, 9017);
        net.set_drop_every(drop_every);
        net.set_reorder_every(reorder_every);
        let blob = patterned(300_000, 61);
        let (got, steps) = bulk_send_counting(&mut net, client, conn, &blob, 20_000);
        assert_eq!(
            got, blob,
            "byte-identical (sack={sack} rack={rack} drop={drop_every} reorder={reorder_every})"
        );
        net.set_drop_every(0);
        net.set_reorder_every(0);
        net.run_until_quiet(64);
        assert_eq!(net.stack(0).pool_available(), Some(POOL));
        assert_eq!(net.stack(1).pool_available(), Some(POOL));
        steps
    };
    for reorder_every in [0, 3] {
        let total = |sack, rack| -> usize {
            [7, 8, 11]
                .iter()
                .map(|&drop_every| steps(sack, rack, drop_every, reorder_every))
                .sum()
        };
        let (both, rack_only, blind) = (total(true, true), total(false, true), total(false, false));
        let wire = format!("reorder_every={reorder_every}, summed over drop_every ∈ {{7, 8, 11}}");
        assert!(
            both < blind,
            "sack+rack must beat blind recovery ({both} vs {blind} wire steps; {wire})"
        );
        assert!(
            both <= rack_only,
            "the scoreboard must not cost wire time ({both} vs {rack_only} wire steps; {wire})"
        );
    }
}

/// The RACK tentpole, part 1: a reorder-prone but lossless wire
/// (duplicated ACKs + adjacent data reorder) must trigger *zero*
/// retransmissions of any kind with RACK on — the reordering window
/// waits half an SRTT, sees the cumulative ACK advance, and never
/// declares loss. The pacing gate armed on top changes nothing: no
/// episode ever opens for it to meter.
#[test]
fn rack_reordering_window_suppresses_false_fast_retransmits() {
    let _registry = sharing_registry();
    for pacing in [false, true] {
        let mut net = clocked_net_cfg(5_000_000, |cfg| {
            cfg.rack = true;
            cfg.pacing = pacing;
        });
        let (client, conn) = establish(&mut net, 9011);
        // Duplicated ACKs + adjacent data reorder: classic dup-ACK
        // noise with nothing actually lost.
        net.set_dup_every(2);
        net.set_reorder_every(3);
        let blob = patterned(300_000, 41);
        let got = bulk_send(&mut net, client, conn, &blob, 20_000);
        assert_eq!(got, blob, "byte-identical through reorder noise");
        assert!(net.faults_injected() > 0, "the wire really perturbed");
        let (_, rtx, fast, _) = net.stack(0).tcp_loss_stats(client);
        assert_eq!(fast, 0, "no false fast retransmit on a lossless reordering wire");
        assert_eq!(rtx, 0, "no spurious data retransmission at all (pacing={pacing})");
        net.set_dup_every(0);
        net.set_reorder_every(0);
        net.run_until_quiet(64);
        assert_eq!(net.stack(0).pool_available(), Some(POOL));
        assert_eq!(net.stack(1).pool_available(), Some(POOL));
    }
}

/// The RACK tentpole, part 2: on a wire that both drops and reorders,
/// the time-based reordering window converts timeout recoveries into
/// timely fast recoveries — far fewer RTO fires than the legacy
/// 3-dup-ACK threshold, which keeps stalling until the 200 ms floor
/// because reordered ACK noise resets its dup-ACK count.
#[test]
fn rack_converts_rto_stalls_into_fast_recoveries_under_reorder() {
    let _registry = sharing_registry();
    let run = |rack: bool| {
        let mut net = clocked_net_cfg(5_000_000, |cfg| {
            cfg.rack = rack;
            cfg.congestion_control = false; // Window-limited flights.
        });
        let (client, conn) = establish(&mut net, 9016);
        net.set_drop_every(8);
        net.set_reorder_every(3);
        let blob = patterned(300_000, 59);
        let got = bulk_send(&mut net, client, conn, &blob, 20_000);
        assert_eq!(got, blob, "byte-identical (rack={rack})");
        let (rto, _, _, _) = net.stack(0).tcp_loss_stats(client);
        net.set_drop_every(0);
        net.set_reorder_every(0);
        net.run_until_quiet(64);
        assert_eq!(net.stack(0).pool_available(), Some(POOL));
        assert_eq!(net.stack(1).pool_available(), Some(POOL));
        rto
    };
    let rto_rack = run(true);
    let rto_legacy = run(false);
    assert!(
        rto_rack < rto_legacy,
        "RACK recovers before the RTO floor ({rto_rack} vs {rto_legacy} RTO fires)"
    );
}

/// The tail-loss probe: the last segment of a flight is dropped, so
/// no duplicate ACK can ever signal it. The PTO (2·SRTT ≪ the 200 ms
/// RTO floor) re-emits the tail and the stream completes without a
/// single RTO fire.
#[test]
fn tail_loss_probe_rescues_a_dropped_tail_without_rto() {
    let _registry = sharing_registry();
    let mut net = clocked_net_cfg(5_000_000, |cfg| {
        cfg.rack = true;
    });
    let (client, conn) = establish(&mut net, 9012);
    // Warm up: a clean transfer seeds the RTT estimator.
    let warm = patterned(64_000, 19);
    let got = bulk_send(&mut net, client, conn, &warm, 2_000);
    assert_eq!(got, warm, "warmup clean");
    // Drop exactly the flight's tail: one small segment, eaten whole.
    net.set_drop_every(1);
    net.stack(0).tcp_send(client, b"the tail of the flight").unwrap();
    net.step();
    net.set_drop_every(0);
    let mut buf = [0u8; 64];
    let mut got = Vec::new();
    for _ in 0..30 {
        net.step();
        let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
        got.extend_from_slice(&buf[..n]);
        if !got.is_empty() {
            break;
        }
    }
    assert_eq!(&got[..], b"the tail of the flight", "the tail arrived");
    let (rto, _, _, _) = net.stack(0).tcp_loss_stats(client);
    let (_, _, tlp, _, _) = net.stack(0).tcp_recovery_stats(client);
    assert_eq!(rto, 0, "rescued before the RTO (30 steps ≪ 200 ms floor × backoff)");
    assert!(tlp >= 1, "the probe fired");
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// The pacing gate: with `pacing` on, recovery emission is metered
/// over the SRTT instead of leaving as one burst — the release
/// counter proves the gate engaged, and the stream still completes
/// byte-identical.
#[test]
fn paced_recovery_meters_the_retransmission_burst() {
    let _registry = sharing_registry();
    let mut net = clocked_net_cfg(5_000_000, |cfg| {
        cfg.pacing = true;
    });
    let (client, conn) = establish(&mut net, 9013);
    net.set_drop_every(8);
    let blob = patterned(300_000, 43);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "byte-identical with paced recovery");
    let (_, _, _, paced, _) = net.stack(0).tcp_recovery_stats(client);
    assert!(paced > 0, "the pacing gate released recovery emission");
    net.set_drop_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// The pool-pressure guard: a receiver with a deliberately small
/// buffer pool rides out sustained loss (out-of-order extents pin
/// pool buffers) by shedding its newest reassembly extents instead of
/// exhausting the pool. The sender's RTO distrusts the scoreboard
/// (RFC 6675 §5.1 reneging), so shed data is retransmitted and the
/// stream still completes.
#[test]
fn sustained_loss_cannot_exhaust_a_small_receiver_pool() {
    let _registry = sharing_registry();
    const SMALL: usize = 48;
    let mut net = Network::new();
    // Window-limited flights (~45 MSS) so a drop burst early in a
    // flight strands most of a window out of order at the receiver —
    // enough pinned extents to push a 48-buffer pool under the
    // low-water mark.
    net.attach(mk_stack_cfg(1, |cfg| cfg.congestion_control = false));
    net.attach(mk_stack_cfg(2, |cfg| {
        cfg.pool_size = SMALL;
        cfg.congestion_control = false;
    }));
    let tsc = Tsc::new(1_000_000_000);
    net.set_clock(&tsc);
    net.set_step_ns(50_000_000); // Deep backoffs must elapse in-budget.
    let (client, conn) = establish(&mut net, 9014);
    net.set_drop_burst(30, 6); // Recurring multi-hole episodes.
    let blob = patterned(300_000, 47);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "stream complete despite shedding");
    let (_, _, _, _, shed) = net.stack(1).tcp_recovery_stats(conn);
    assert!(shed > 0, "pool pressure shed out-of-order extents");
    net.set_drop_burst(0, 0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL), "client pool whole");
    assert_eq!(net.stack(1).pool_available(), Some(SMALL), "small pool whole");
}

/// The corruption satellite: bit-flipped frames are never delivered
/// with the trusted-checksum mark (including duplicates of a
/// corrupted frame — the dup fault must inherit, not restore, the
/// mark), so the checksum drop path turns corruption into plain loss
/// and recovery delivers the stream byte-identical.
#[test]
fn corrupted_frames_are_dropped_by_checksum_and_recovered() {
    let _registry = sharing_registry();
    let mut net = clocked_net_cfg(5_000_000, |_| {});
    let (client, conn) = establish(&mut net, 9015);
    net.set_corrupt_every(9);
    net.set_dup_every(6); // Collides with corruption every 18 ticks.
    let blob = patterned(300_000, 53);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "corruption never reaches the stream");
    assert!(net.faults_injected() > 50, "the wire really corrupted");
    let (_, rtx, _, _) = net.stack(0).tcp_loss_stats(client);
    assert!(rtx > 0, "checksum drops were recovered as losses");
    net.set_corrupt_every(0);
    net.set_dup_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}
