//! An in-process network: wires stacks together through their devices.
//!
//! Frames harvested from one stack's TX completions are injected into the
//! destination stack's RX ring, selected by destination MAC (broadcast
//! goes everywhere). This replaces the paper's physical 10 GbE cable
//! between two Shuttle machines with a lossless in-memory link — the code
//! under test (drivers, stack, sockets) is identical.
//!
//! The wire moves *netbufs*, not owned byte vectors — and it moves
//! them in **bursts**: TX completions are reclaimed as pooled buffers
//! ([`NetStack::harvest_tx`]), each frame is "DMA"-copied onto a
//! buffer posted from the receiver's own pool (one copy, exactly what
//! a NIC does on the cable) and staged per destination, and every
//! destination gets its whole batch with a single
//! `NetStack::deliver_burst` — one ring crossing per burst, not per
//! frame. The sender's buffers are recycled. In steady state a `step`
//! performs zero heap allocations — buffers just circulate through
//! the pools.
//!
//! The wire is also the **host side of the device's offloads**, the
//! role vhost plays for virtio-net:
//!
//! - a harvested frame carrying a `GsoRequest`
//!   (`VIRTIO_NET_F_HOST_TSO4`) is cut into per-MSS wire frames by
//!   [`uknetdev::gso::cut_frame`] *directly onto the receiver's
//!   pooled RX buffers* — the cut and the DMA copy are the same pass,
//!   so an oversized super-segment chain costs one ring crossing and
//!   one staging entry on the TX side no matter how many MSS frames
//!   it becomes;
//! - every frame the wire delivers is marked checksum-validated
//!   (`VIRTIO_NET_F_GUEST_CSUM`): the sending device completed or
//!   verified the checksums before the frame reached the cable, so
//!   the receiving stack may skip its software verification pass.
//!   Frames injected by other means (tests forging corruption) stay
//!   unmarked and are always verified.
//!
//! For receive-path robustness tests the wire can also be made
//! **imperfect**. One value, a [`FaultPlan`], is the whole schedule,
//! and [`Network::set_plan`] arms it: `drop` silently discards every
//! n-th delivered plain frame, `burst` discards a whole run of
//! consecutive frames on a cadence (congestive tail loss), `dup`
//! delivers every n-th twice, `reorder` swaps every n-th with its
//! predecessor in the same destination's batch and `corrupt` flips a
//! bit in every n-th IPv4 frame — deterministic stand-ins for the
//! lost, duplicated, reordered and damaged deliveries a real L2 can
//! produce, which the TCP loss-recovery machinery must survive with
//! byte-identical delivery (retransmit the hole, reassemble the
//! out-of-order tail, never desync on a reordered FIN). Arming restarts
//! every cadence, so the same plan on the same traffic injects the
//! same faults; `FaultPlan::default()` heals the wire. Injected faults
//! are visible both through [`Network::faults_injected`] and, for
//! drops, through the `testnet.drops_injected` counter in the global
//! `ukstats` registry, so fault schedules show up in `/stats` and bench
//! snapshots.
//!
//! The plan's `pipe` turns the ideal cable into a bandwidth-delay pipe:
//! delivered frames sit in an in-flight line for a fixed number of
//! steps (propagation delay) and at most a budget of frames drains per
//! step (link rate), so congestion-control tests see queueing, RTT, and
//! a real in-flight cap.
//!
//! Traffic no attached stack sent — forged ARP replies, spoofed SYN
//! floods, forged handshakes — comes from the forgers in `forge.rs`.
//!
//! The wire owns the **clock** its stacks run on: one virtual
//! [`ukplat::time::Tsc`], shared with every stack as it attaches,
//! advanced per step ([`Network::set_step_ns`]) and skipped ahead over
//! idle waits ([`Network::run_until_quiet`]), so every TCP timer runs —
//! deterministically — in every test. [`Network::set_clock`] swaps in
//! the caller's own (a device's, say, so the cost model moves it).

mod faults;
mod forge;
#[cfg(test)]
mod tests;

use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::netbuf::Netbuf;
use uknetdev::VirtioNet;
use ukplat::time::Tsc;
use ukplat::Result;

use crate::eth::EthHeader;
use crate::stack::{NetStack, SocketHandle, StackConfig};
use crate::{Endpoint, Mac};

pub use faults::FaultPlan;
use faults::Faults;

/// Test node `n` (10.0.0.n): a stack over its own default-configured
/// `VirtioNet` (vhost-user backend, a 3.6 GHz clock of its own), with
/// [`StackConfig::node`] as `tune` left it — the one way tests, examples
/// and harnesses build a node.
pub fn node(n: u8, tune: impl FnOnce(&mut StackConfig)) -> NetStack {
    node_on(n, VhostKind::VhostUser, &Tsc::new(3_600_000_000), tune)
}

/// [`node`] over a `backend` of the caller's choosing, its device cost
/// model charging `tsc` (a harness that reads the time a run cost).
pub fn node_on(
    n: u8,
    backend: VhostKind,
    tsc: &Tsc,
    tune: impl FnOnce(&mut StackConfig),
) -> NetStack {
    let mut dev = VirtioNet::new(backend, tsc);
    dev.configure(NetDevConf::default()).expect("the default device configuration is valid");
    let mut config = StackConfig::node(n);
    tune(&mut config);
    NetStack::new(config, Box::new(dev))
}

/// Reads up to `max` buffered bytes from a connection into a fresh
/// `Vec` — a test's convenience over [`NetStack::tcp_recv_into`], which
/// is what an application calls.
pub fn tcp_recv(stack: &mut NetStack, conn: SocketHandle, max: usize) -> Result<Vec<u8>> {
    let mut data = vec![0u8; max.min(stack.tcp_readable(conn))];
    let n = stack.tcp_recv_into(conn, &mut data)?;
    data.truncate(n);
    Ok(data)
}

/// Receives a datagram, if one is queued, as a fresh `Vec` — a test's
/// convenience over [`NetStack::udp_recv_netbuf`].
pub fn udp_recv_from(stack: &mut NetStack, sock: SocketHandle) -> Option<(Endpoint, Vec<u8>)> {
    let (from, nb) = stack.udp_recv_netbuf(sock)?;
    let data = nb.payload().to_vec();
    stack.recycle(nb);
    Some((from, data))
}

/// The wire's "DMA": copies `nb` onto buffers from receiver `rx`'s own
/// pool, as its device takes it, and stages them for that
/// destination's burst; returns how many wire frames were staged, or
/// `None` for a malformed GSO frame (dropped). Every staged frame is
/// marked checksum-verified: the sending device completed or verified
/// every checksum (`VIRTIO_NET_F_GUEST_CSUM`).
fn dma(rx: &mut NetStack, nb: &Netbuf, stage: &mut Vec<Netbuf>) -> Option<usize> {
    let staged_from = stage.len();
    match nb.gso_request() {
        // Guest-to-guest fast path (`VIRTIO_NET_F_GUEST_TSO4`/
        // `MRG_RXBUF`): the super-segment is never cut — it crosses as
        // one chain, copied extent by extent. One delivery, one demux,
        // one ingest on the other side.
        Some(_) if rx.offloads().big_receive => {
            let mut segs = nb.chain_segments();
            let mut head = rx.take_rx_buf();
            head.set_payload(segs.next().expect("chain head"));
            for seg in segs {
                let mut frag = rx.take_rx_buf();
                frag.set_payload(seg);
                head.chain_append(frag);
            }
            stage.push(head);
        }
        // Host-side TSO cut (`VIRTIO_NET_F_HOST_TSO4` without a
        // big-receive peer): the cut into MSS frames is the copy.
        Some(gso) => {
            uknetdev::gso::cut_frame(nb, gso.mss, || rx.take_rx_buf(), stage).ok()?;
        }
        None => {
            let mut copy = rx.take_rx_buf();
            copy.set_payload(nb.payload());
            stage.push(copy);
        }
    }
    for frame in &mut stage[staged_from..] {
        frame.mark_csum_verified();
    }
    Some(stage.len() - staged_from)
}

/// A hub connecting multiple stacks.
#[derive(Debug, Default)]
pub struct Network {
    stacks: Vec<NetStack>,
    /// Harvest scratch, reused across steps.
    wire_scratch: Vec<Netbuf>,
    /// Per-destination injection staging (reused across steps).
    inject_stage: Vec<Vec<Netbuf>>,
    /// When capturing, every delivered wire frame's bytes in delivery
    /// order (post-TSO-cut — what the receivers actually see).
    wire_log: Option<Vec<Vec<u8>>>,
    /// The fault schedule and its state.
    faults: Faults,
    /// The clock every attached stack runs on, advanced per step.
    clock: ukplat::time::Tsc,
    /// Nanoseconds the clock advances per step.
    step_ns: u64,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a stack, putting it on the wire's clock; returns its
    /// index.
    pub fn attach(&mut self, mut stack: NetStack) -> usize {
        stack.set_clock(&self.clock);
        self.stacks.push(stack);
        // Pre-sized for the deepest step backlogs the bulk workloads
        // reach: harvest and stage depth shifts between runs with the
        // stacks' recovery/ACK timing, and the zero-alloc guards would
        // see a mid-measurement Vec growth as a datapath allocation.
        self.inject_stage.push(Vec::with_capacity(256));
        if self.wire_scratch.capacity() < 256 {
            self.wire_scratch.reserve(256 - self.wire_scratch.capacity());
        }
        self.stacks.len() - 1
    }

    /// Access a stack by index.
    pub fn stack(&mut self, idx: usize) -> &mut NetStack {
        &mut self.stacks[idx]
    }

    /// Starts recording every delivered wire frame (post-TSO-cut).
    /// Tests use this to prove framing properties — e.g. that TSO
    /// device cutting and software segmentation are byte-identical on
    /// the wire. Capturing allocates; perf paths leave it off.
    pub fn start_wire_capture(&mut self) {
        self.wire_log = Some(Vec::new());
    }

    /// Takes the captured frames recorded since
    /// [`start_wire_capture`](Self::start_wire_capture) (capture stays
    /// on with an empty log).
    pub fn take_wire_capture(&mut self) -> Vec<Vec<u8>> {
        self.wire_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Stops recording wire frames and discards anything captured —
    /// capturing allocates per frame, so drivers that interleave
    /// capture-assisted setup with allocation-sensitive measurement
    /// turn it off before the timed window.
    pub fn stop_wire_capture(&mut self) {
        self.wire_log = None;
    }

    /// Arms `plan` as the wire's fault schedule: every cadence restarts,
    /// a burst in progress ends, frames in the pipe still leave.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.faults.arm(plan);
    }

    /// [`set_plan`](Self::set_plan): the current plan, `drop` set to `n`.
    pub fn set_drop_every(&mut self, n: u64) {
        self.set_plan(FaultPlan { drop: n, ..self.faults.plan() });
    }

    /// [`set_plan`](Self::set_plan): the current plan, `reorder` set to `n`.
    pub fn set_reorder_every(&mut self, n: u64) {
        self.set_plan(FaultPlan { reorder: n, ..self.faults.plan() });
    }

    /// Replaces the wire's clock with `tsc`, for the stacks attached
    /// already and those attached later alike ([`NetStack::set_clock`]
    /// says what a stack does with it).
    pub fn set_clock(&mut self, tsc: &ukplat::time::Tsc) {
        for s in &mut self.stacks {
            s.set_clock(tsc);
        }
        self.clock = tsc.clone();
    }

    /// Nanoseconds the clock advances at the start of every
    /// [`step`](Self::step) (default 0 — the clock only moves when the
    /// test advances it by hand).
    pub fn set_step_ns(&mut self, ns: u64) {
        self.step_ns = ns;
    }

    /// Faults injected so far: drops, corruptions, duplicates, reorders.
    pub fn faults_injected(&self) -> u64 {
        self.faults.injected()
    }

    /// Moves frames between stacks once **without** pumping them — the
    /// pure wire half of [`step`](Self::step). Callers that need to
    /// attribute work per side (the receive-path benches time the
    /// receiver's pump separately) drive the pumps themselves.
    pub fn transfer(&mut self) -> usize {
        let mut moved = 0;
        let mut scratch = std::mem::take(&mut self.wire_scratch);
        let mut stage = std::mem::take(&mut self.inject_stage);
        for src in 0..self.stacks.len() {
            self.stacks[src].harvest_tx(&mut scratch);
            for nb in scratch.drain(..) {
                // The device must have completed any offloaded
                // checksum before the frame reached the wire — except
                // on a GSO frame, whose per-frame checksums only exist
                // after the cut below services the request.
                debug_assert!(
                    nb.csum_request().is_none() || nb.gso_request().is_some(),
                    "frame crossed the wire with an unserviced csum request"
                );
                let Ok((EthHeader { dst, .. }, _)) = EthHeader::decode(nb.payload()) else {
                    self.stacks[src].recycle(nb);
                    continue;
                };
                let owned = self.stacks.iter().enumerate().any(|(i, s)| i != src && dst == s.mac());
                if dst != Mac::BROADCAST && !owned {
                    // Addressed to a MAC nobody owns (e.g. a response
                    // drawn by forged traffic): the frame vanishes on
                    // the wire — but the capture still sees it, so
                    // drivers can observe what the victim answered.
                    if let Some(log) = self.wire_log.as_mut() {
                        log.push(nb.chain_segments().flatten().copied().collect());
                    }
                }
                for i in 0..self.stacks.len() {
                    if i == src || (dst != self.stacks[i].mac() && dst != Mac::BROADCAST) {
                        continue;
                    }
                    let staged_from = stage[i].len();
                    match dma(&mut self.stacks[i], &nb, &mut stage[i]) {
                        Some(n) => moved += n,
                        None => continue, // Malformed: dropped.
                    }
                    if let Some(log) = self.wire_log.as_mut() {
                        for rx in &stage[i][staged_from..] {
                            // A chain logs as one flattened frame.
                            log.push(rx.chain_segments().flatten().copied().collect());
                        }
                    }
                    // The plan's per-frame faults act on what this
                    // delivery staged.
                    if self.faults.armed() {
                        let rx = &mut self.stacks[i];
                        self.faults.apply(&mut stage[i], staged_from, rx, &mut moved);
                    }
                }
                self.stacks[src].recycle(nb);
            }
        }
        // The plan's pipe holds back the frames still in flight; they
        // keep `run_until_quiet` stepping.
        if self.faults.pipe(&mut stage) {
            moved += 1;
        }
        // One ring injection per destination per step.
        for (i, frames) in stage.iter_mut().enumerate() {
            if !frames.is_empty() {
                self.stacks[i].deliver_burst(frames);
            }
        }
        self.wire_scratch = scratch;
        self.inject_stage = stage;
        moved
    }

    /// Moves frames between stacks once and lets every stack process
    /// what arrived; returns frames moved (wire frames, i.e. a TSO
    /// super-segment counts once per cut frame).
    pub fn step(&mut self) -> usize {
        self.clock.advance_ns(self.step_ns);
        let moved = self.transfer();
        for s in &mut self.stacks {
            s.pump();
        }
        moved
    }

    /// Steps until the wire is quiet (or `max_rounds` to bound
    /// livelock): a step moved no frame *and* no attached stack went
    /// into it holding an ACK. A held ACK is traffic that has not
    /// happened yet — its peer keeps the unacknowledged tail (and the
    /// pooled buffers behind it) until the hold timer releases it —
    /// so on an idle wire the clock skips ahead to the earliest such
    /// deadline instead of reporting quiet (idle time costs a
    /// simulation nothing), and the released ACK gets its step to
    /// cross.
    pub fn run_until_quiet(&mut self, max_rounds: usize) -> usize {
        let mut total = 0;
        let mut idle = false;
        for _ in 0..max_rounds {
            let held = self.stacks.iter().filter_map(NetStack::held_ack_deadline).min();
            if let (true, Some(deadline)) = (idle, held) {
                // To the deadline, not a cycle short of it: the
                // conversions floor, and a timer is not due early.
                let now = |c: &ukplat::time::Tsc| c.cycles_to_ns(c.now_cycles());
                while now(&self.clock) < deadline {
                    let behind = self.clock.ns_to_cycles(deadline - now(&self.clock));
                    self.clock.advance(behind.max(1));
                }
            }
            let moved = self.step();
            total += moved;
            idle = moved == 0;
            if idle && held.is_none() {
                break;
            }
        }
        total
    }
}
