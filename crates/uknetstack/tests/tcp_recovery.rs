//! Wire-level TCP loss-recovery tests: retransmission timers, fast
//! retransmit, out-of-order reassembly and congestion control driven
//! through real stacks over the testnet's deterministic fault modes.
//!
//! Every test follows the same shape: establish on a clean wire (so
//! ARP and the handshake cannot be eaten), arm a fault schedule and a
//! shared virtual clock, then prove the stream still arrives
//! byte-identical — and that the recovery showed up in the
//! `netstack.tcp.*` loss counters, not by accident.

use uknetstack::eth::{EthHeader, EtherType};
use uknetstack::ipv4::{IpProto, Ipv4Header};
use uknetstack::stack::{NetStack, SocketHandle, StackConfig, LOW_POOL_BUFS};
use uknetstack::tcp::{TcbStats, TcpFlags, TcpHeader, TCP_HDR_LEN};
use uknetstack::testnet::{self, node, Network};
use uknetstack::{Csum, Endpoint, Ipv4Addr};
use ukplat::time::Tsc;

const POOL: usize = 512;

fn mk_stack(n: u8, tso: bool, cc: bool) -> NetStack {
    node(n, |cfg| {
        cfg.tso = tso;
        cfg.congestion_control = cc;
    })
}

/// A stack with an arbitrary config tweak on top of the node defaults
/// (per-MSS frames, cc on) — for the recovery-ablation tests.
fn mk_stack_cfg(n: u8, f: impl FnOnce(&mut StackConfig)) -> NetStack {
    node(n, |cfg| {
        cfg.tso = false;
        f(cfg);
    })
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
    let mut net = clocked_net(false, true, 5_000_000); // 5 ms steps.
    let (client, conn) = establish(&mut net, 9001);
    net.set_drop_every(7);
    let blob = patterned(1 << 20, 31);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got.len(), blob.len(), "every byte recovered");
    assert_eq!(got, blob, "stream byte-identical under 1/7 loss");
    assert!(net.faults_injected() > 50, "the wire really dropped");
    let s = net.stack(0).tcp_stats(client).unwrap();
    let (rto, rtx, fast, ooo) = (s.rto_fires, s.retransmits, s.fast_retransmits, s.ooo_queued);
    assert!(rtx > 0, "losses were repaired by retransmission");
    assert!(
        fast > 0 || rto > 0,
        "recovery engaged (fast={fast}, rto={rto})"
    );
    let srv_ooo = net.stack(1).tcp_stats(conn).unwrap().ooo_queued;
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
    let rtx = net.stack(0).tcp_stats(client).unwrap().retransmits;
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
    let s = net.stack(0).tcp_stats(client).unwrap();
    let (rto, rtx) = (s.rto_fires, s.retransmits);
    assert!(rto >= 1, "the RTO timer fired for the lost FIN");
    assert!(rtx >= 1, "the FIN was re-emitted");
}

/// RTO backoff doubles deterministically on a black-holed wire, and
/// the doubling is observable through the sender's `StackStats` — its
/// own share of `netstack.tcp.rto_fires`, whatever the tests running
/// beside this one fire.
#[test]
fn rto_backoff_doubling_is_observable_via_stats() {
    let mut net = clocked_net(false, true, 50_000_000); // 50 ms steps.
    let (client, _conn) = establish(&mut net, 9004);
    let base = net.stack(0).stats().rto_fires;
    // Black-hole the wire, then send one segment into the void: the
    // initial RTO is 1 s (no RTT sample yet), so fires land ~1 s, ~3 s
    // and ~7 s after the send — gaps of 2 s then 4 s.
    net.set_drop_every(1);
    net.stack(0).tcp_send(client, b"into the void").unwrap();
    let mut fire_steps = Vec::new();
    let mut seen = 0;
    for step in 0..160 {
        net.step();
        let rto = u64::from(net.stack(0).tcp_stats(client).unwrap().rto_fires);
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
    assert_eq!(net.stack(0).stats().rto_fires - base, seen, "fires visible in the stack's stats");
    net.set_drop_every(0);
}

/// A dropped SYN does not wedge the connect: the handshake completes
/// through SYN retransmission.
#[test]
fn dropped_syn_is_retransmitted() {
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
    assert_eq!(testnet::tcp_recv(net.stack(1), conn, 1024).unwrap(), b"post-loss hello");
}

/// The GRO gap regression: with coalescing on and a lossy wire, a
/// staged run must flush at the sequence hole instead of merging
/// across it — the stream stays byte-identical and out-of-order
/// segments still reach the reassembly queue.
#[test]
fn gro_staging_flushes_on_sequence_gaps_under_loss() {
    let mut net = clocked_net(false, true, 5_000_000);
    assert!(net.stack(1).offloads().gro, "receiver coalesces");
    let (client, conn) = establish(&mut net, 9006);
    net.set_drop_every(5);
    let blob = patterned(400_000, 13);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got.len(), blob.len(), "every byte recovered with GRO on");
    assert_eq!(got, blob, "no merge across a sequence hole");
    let ooo = net.stack(1).tcp_stats(conn).unwrap().ooo_queued;
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
    let mut net = clocked_net(false, false, 5_000_000);
    let (client, conn) = establish(&mut net, 9008);
    net.set_drop_every(9);
    let blob = patterned(300_000, 29);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "byte-identical with the ablation off");
    let rtx = net.stack(0).tcp_stats(client).unwrap().retransmits;
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
    let mut net = Network::new();
    net.attach(mk_stack(1, true, true));
    // Declines big receive: supers get cut.
    net.attach(node(2, |cfg| cfg.rx_csum_offload = false));
    let tsc = Tsc::new(1_000_000_000);
    net.set_clock(&tsc);
    net.set_step_ns(5_000_000);
    let (client, conn) = establish(&mut net, 9009);
    net.set_drop_every(11);
    let blob = patterned(500_000, 37);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "stream byte-identical: chained rtx extents work");
    assert!(net.stack(0).stats().tso_super_frames > 0, "sender used TSO");
    let rtx = net.stack(0).tcp_stats(client).unwrap().retransmits;
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
        let s = net.stack(0).tcp_stats(client).unwrap();
        let (sack_rtx, rtx) = (s.sack_rtx, s.retransmits);
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
        let s = net.stack(0).tcp_stats(client).unwrap();
        let (rtx, fast) = (s.retransmits, s.fast_retransmits);
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
        let rto = net.stack(0).tcp_stats(client).unwrap().rto_fires;
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
    let s = net.stack(0).tcp_stats(client).unwrap();
    let (rto, tlp) = (s.rto_fires, s.tlp_probes);
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
    let mut net = clocked_net_cfg(5_000_000, |cfg| {
        cfg.pacing = true;
    });
    let (client, conn) = establish(&mut net, 9013);
    net.set_drop_every(8);
    let blob = patterned(300_000, 43);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "byte-identical with paced recovery");
    let paced = net.stack(0).tcp_stats(client).unwrap().paced_releases;
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
    let shed = net.stack(1).tcp_stats(conn).unwrap().ooo_shed;
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
    let mut net = clocked_net_cfg(5_000_000, |_| {});
    let (client, conn) = establish(&mut net, 9015);
    net.set_corrupt_every(9);
    net.set_dup_every(6); // Collides with corruption every 18 ticks.
    let blob = patterned(300_000, 53);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "corruption never reaches the stream");
    assert!(net.faults_injected() > 50, "the wire really corrupted");
    let rtx = net.stack(0).tcp_stats(client).unwrap().retransmits;
    assert!(rtx > 0, "checksum drops were recovered as losses");
    net.set_corrupt_every(0);
    net.set_dup_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// Where each side of a quiet connection stands, read off the captured
/// wire: the sequence number `from` sends next, as `(client, server)`.
fn next_seqs(wire: &[Vec<u8>], server_ip: Ipv4Addr) -> (u32, u32) {
    let (mut client, mut server) = (0, 0);
    for frame in wire {
        let Ok((_, rest)) = EthHeader::decode(frame) else { continue };
        let Ok((ip, seg)) = Ipv4Header::decode_trusted(rest) else { continue };
        let Ok((h, payload)) = TcpHeader::decode_trusted(&ip, seg) else { continue };
        let next = h
            .seq
            .wrapping_add(payload.len() as u32 + u32::from(h.flags.syn) + u32::from(h.flags.fin));
        *(if ip.src == server_ip { &mut server } else { &mut client }) = next;
    }
    (client, server)
}

/// Forges one TCP segment from stack `from`'s address and hands it to
/// stack `to`'s device, as the wire would. Several `parts` make a
/// big-receive super-segment: headers and the first part in the chain
/// head, a buffer of the receiver's pool per part, and the
/// checksum-validated mark only the trusted wire gives a chain.
fn deliver_forged(
    net: &mut Network,
    (from, to): (usize, usize),
    h: TcpHeader,
    opts: &[u8],
    parts: &[&[u8]],
) {
    let (src, src_mac) = (net.stack(from).ip(), net.stack(from).mac());
    let (dst, dst_mac) = (net.stack(to).ip(), net.stack(to).mac());
    let mut nb = net.stack(to).take_rx_buf();
    nb.reset(96);
    nb.append(parts[0]);
    for part in &parts[1..] {
        let mut frag = net.stack(to).take_rx_buf();
        frag.append(part);
        nb.chain_append(frag);
    }
    let ip = Ipv4Header {
        src,
        dst,
        proto: IpProto::Tcp,
        payload_len: TCP_HDR_LEN + opts.len() + nb.chain_len(),
        ttl: 64,
    };
    h.emit(&ip, &mut nb, opts, Csum::Software);
    ip.encode_into(&mut nb);
    EthHeader { dst: dst_mac, src: src_mac, ethertype: EtherType::Ipv4 }.encode_into(&mut nb);
    if parts.len() > 1 {
        nb.mark_csum_verified();
    }
    net.stack(to).deliver_frame(nb);
}

/// GRO must not eat TCP options. A data segment that carries a SACK
/// option — here a D-SACK: the first block ends at the cumulative ACK,
/// so the peer reports a retransmission it received twice — has to
/// reach the TCB with the option parsed, whether or not the stack
/// coalesces received data. A merged run has one header and nowhere to
/// keep a member's blocks, so an optioned segment takes the direct
/// path. With `gro` on the parent commit staged it and read 0.
#[test]
fn gro_leaves_an_optioned_data_segment_its_sack_blocks() {
    for gro in [true, false] {
        let mut net = clocked_net_cfg(1_000, |cfg| cfg.gro = gro);
        net.start_wire_capture();
        let (client, conn) = establish(&mut net, 9016);
        let mut buf = [0u8; 64];
        net.stack(0).tcp_send(client, b"ping").unwrap();
        net.run_until_quiet(8);
        let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
        net.stack(1).tcp_send(conn, &buf[..n]).unwrap();
        net.run_until_quiet(8);
        assert_eq!(net.stack(0).tcp_recv_into(client, &mut buf).unwrap(), 4);
        let server_ip = net.stack(1).ip();
        let (client_next, server_next) = next_seqs(&net.take_wire_capture(), server_ip);
        // Data in flight: sent, not yet carried across the wire.
        net.stack(0).tcp_send(client, &[0x55; 100]).unwrap();
        let mut sack = [1, 1, 5, 10, 0, 0, 0, 0, 0, 0, 0, 0];
        sack[4..8].copy_from_slice(&client_next.wrapping_sub(4).to_be_bytes());
        sack[8..12].copy_from_slice(&client_next.to_be_bytes());
        let h = TcpHeader {
            src_port: 9016,
            dst_port: net.stack(1).tcp_peer(conn).unwrap().port,
            seq: server_next,
            ack: client_next,
            flags: TcpFlags { ack: true, psh: true, ..Default::default() },
            window: 65_535,
        };
        deliver_forged(&mut net, (1, 0), h, &sack, &[b"in order, with options"]);
        net.stack(0).pump();
        let stats = net.stack(0).tcp_stats(client).unwrap();
        assert_eq!(stats.spurious_rtx, 1, "the D-SACK block reached the TCB (gro={gro})");
        let n = net.stack(0).tcp_recv_into(client, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"in order, with options", "and so did the payload (gro={gro})");
        net.run_until_quiet(64);
        let mut sink = [0u8; 128];
        assert_eq!(net.stack(1).tcp_recv_into(conn, &mut sink).unwrap(), 100, "the flight landed");
        net.run_until_quiet(8);
        assert_eq!(net.stack(0).pool_available(), Some(POOL));
        assert_eq!(net.stack(1).pool_available(), Some(POOL));
    }
}

/// One client→server stream with one hole — the wire drops the 25th
/// frame of the first flight and nothing else — received as per-MSS
/// frames with and without GRO, on a roomy pool and on one small
/// enough that the segments queued behind the hole push it under
/// [`LOW_POOL_BUFS`]. Returns what arrived and both ends' counters.
fn stream_with_one_hole(gro: bool, pool: usize) -> (Vec<u8>, TcbStats, TcbStats) {
    let mut net = Network::new();
    // Window-limited flights (~45 MSS), so twenty segments follow the
    // hole in the same burst.
    net.attach(mk_stack_cfg(1, |cfg| cfg.congestion_control = false));
    net.attach(mk_stack_cfg(2, |cfg| {
        cfg.pool_size = pool;
        cfg.congestion_control = false;
        cfg.gro = gro;
    }));
    net.set_clock(&Tsc::new(1_000_000_000));
    net.set_step_ns(1_000_000);
    let (client, conn) = establish(&mut net, 9017);
    let blob = patterned(200_000, 61);
    let mut got = Vec::with_capacity(blob.len());
    let mut sent = 0;
    let mut buf = vec![0u8; 64 * 1024];
    net.set_drop_every(25);
    for _ in 0..20_000 {
        if sent < blob.len() {
            sent += net.stack(0).tcp_send_queued(client, &blob[sent..]).unwrap_or(0);
            net.stack(0).flush_output().unwrap();
        }
        net.step();
        if net.faults_injected() == 1 {
            net.set_drop_every(0);
        }
        loop {
            let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        if got.len() == blob.len() {
            break;
        }
    }
    assert_eq!(got, blob, "byte-identical delivery (gro={gro}, pool={pool})");
    assert_eq!(net.faults_injected(), 1, "one hole");
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL), "sender pool whole");
    assert_eq!(net.stack(1).pool_available(), Some(pool), "receiver pool whole");
    let sender = net.stack(0).tcp_stats(client).unwrap();
    let receiver = net.stack(1).tcp_stats(conn).unwrap();
    (got, sender, receiver)
}

/// The three entry shapes of the one TCP ingest account alike. Per-MSS
/// frames with and without GRO are the same conversation: the receiver
/// queues the same extents behind the hole and the sender runs the
/// same recovery, counter for counter. (`dup_acks` counts ingests that
/// dropped or queued data, and GRO makes one ingest of a run, so it
/// moves in both and further without GRO.) Under pool pressure every
/// shape sheds — which extents differs with the grain of the ingest,
/// so only delivery and the shed are compared there — and that
/// includes the big-receive chain, which the parent commit never shed.
/// Chains are exempt from the testnet's wire faults, so that arm
/// forges its out-of-order super-segment.
#[test]
fn the_three_ingest_shapes_account_alike() {
    let (plain_bytes, plain_tx, plain_rx) = stream_with_one_hole(false, POOL);
    let (gro_bytes, gro_tx, gro_rx) = stream_with_one_hole(true, POOL);
    assert_eq!(plain_bytes, gro_bytes);
    assert_eq!(plain_tx, gro_tx, "the sender cannot tell the shapes apart");
    assert!(plain_rx.ooo_queued > 0, "segments queued behind the hole");
    assert_eq!(plain_rx.ooo_queued, gro_rx.ooo_queued);
    assert_eq!((plain_rx.ooo_shed, gro_rx.ooo_shed), (0, 0), "a roomy pool sheds nothing");
    assert!(plain_rx.dup_acks >= gro_rx.dup_acks && gro_rx.dup_acks > 0);
    const SMALL: usize = 56;
    for gro in [false, true] {
        let (_, _, rx) = stream_with_one_hole(gro, SMALL);
        assert!(rx.ooo_shed > 0, "the queue behind the hole pinned the pool (gro={gro})");
    }

    // Big receive: 28 one-buffer parts land 1000 bytes ahead of the
    // stream on a 40-buffer pool.
    let mut net = Network::new();
    net.attach(mk_stack(1, true, false));
    net.attach(mk_stack_cfg(2, |cfg| {
        cfg.tso = true;
        cfg.pool_size = 40;
    }));
    assert!(net.stack(1).offloads().big_receive);
    net.set_clock(&Tsc::new(1_000_000_000));
    net.set_step_ns(1_000_000);
    net.start_wire_capture();
    let (client, conn) = establish(&mut net, 9018);
    net.stack(0).tcp_send(client, b"ping").unwrap();
    net.run_until_quiet(8);
    let mut buf = vec![0u8; 64 * 1024];
    assert_eq!(net.stack(1).tcp_recv_into(conn, &mut buf).unwrap(), 4);
    let server_ip = net.stack(1).ip();
    let (client_next, server_next) = next_seqs(&net.take_wire_capture(), server_ip);
    let blob = patterned(29_000, 67);
    let parts: Vec<&[u8]> = blob.chunks(1000).collect();
    let client_port = net.stack(1).tcp_peer(conn).unwrap().port;
    let seg = |offset: u32| TcpHeader {
        src_port: client_port,
        dst_port: 9018,
        seq: client_next.wrapping_add(offset),
        ack: server_next,
        flags: TcpFlags { ack: true, psh: true, ..Default::default() },
        window: 65_535,
    };
    let (ahead, hole, again) = (seg(1000), seg(0), seg(25_000));
    deliver_forged(&mut net, (0, 1), ahead, &[], &parts[1..]);
    net.stack(1).pump();
    let rx = net.stack(1).tcp_stats(conn).unwrap();
    assert_eq!((rx.ooo_queued, rx.dup_acks), (28, 1), "one ingest queued the whole chain");
    let shed = LOW_POOL_BUFS - (40 - 28);
    assert_eq!(rx.ooo_shed as usize, shed, "and shed the newest parts back over the low-water mark");
    // The peer fills the hole, then resends what was shed.
    deliver_forged(&mut net, (0, 1), hole, &[], &parts[..1]);
    net.stack(1).pump();
    let mut got = Vec::new();
    let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
    got.extend_from_slice(&buf[..n]);
    deliver_forged(&mut net, (0, 1), again, &[], &parts[25..]);
    net.stack(1).pump();
    let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
    got.extend_from_slice(&buf[..n]);
    assert_eq!(got, blob, "byte-identical delivery (big receive)");
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(40));
}
