//! The common rig: two stacks on the in-process wire under one clock.
//!
//! Node 1 is the client, node 2 the server. Both run
//! `StackConfig::node(n)` defaults on a `VirtioNet` over the vhost-net
//! cost model (a kick per TX burst, per-packet host work, an interrupt
//! per armed injection), and one shared virtual `Tsc` feeds both
//! devices, both stacks' timers and the wire — so timers are armed in
//! every workload and every host-side cost lands on one counter. No
//! kernel socket and no real link is involved: frames cross
//! `uknetstack::testnet` in this process, on this thread.

use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf, QueueMode};
use uknetdev::VirtioNet;
use uknetstack::stack::{NetStack, SocketHandle, StackConfig};
use uknetstack::tcp::TcpState;
use uknetstack::testnet::Network;
use uknetstack::{Endpoint, Ipv4Addr};
use ukplat::time::Tsc;

use crate::probe::{Layer, NoProbe, Probe};

/// Index of the client stack on the network.
pub const CLIENT: usize = 0;
/// Index of the server stack on the network.
pub const SERVER: usize = 1;
/// The server's address (node 2).
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Turns a connect may take before set-up gives up.
const HANDSHAKE_TURNS: usize = 64;

/// What differs between workloads' rigs.
#[derive(Debug, Clone, Copy)]
pub struct RigOpts {
    /// Virtual time added at the start of every turn. 0 on the
    /// lossless steady-state workloads (time then moves only by what
    /// the devices charge); 5 ms where timers must run (loss recovery,
    /// TIME_WAIT).
    pub step_ns: u64,
    /// `StackConfig::tso` on both nodes (off = per-MSS sender, the
    /// frame shape the wire's fault injector acts on).
    pub tso: bool,
}

impl Default for RigOpts {
    fn default() -> Self {
        RigOpts {
            step_ns: 0,
            tso: true,
        }
    }
}

/// Two attached stacks plus the clock they share.
#[derive(Debug)]
pub struct Rig {
    pub net: Network,
    pub tsc: Tsc,
    step_ns: u64,
    /// Wire frames moved by `transfer` so far.
    pub wire_frames: u64,
    /// Turns taken so far.
    pub turns: u64,
}

fn mk_stack(n: u8, tsc: &Tsc, tso: bool) -> NetStack {
    let mut dev = VirtioNet::new(VhostKind::VhostNet, tsc);
    dev.configure(NetDevConf::default())
        .expect("default device configuration is valid");
    dev.set_queue_mode(0, QueueMode::Interrupt)
        .expect("queue 0 exists after configure");
    let mut cfg = StackConfig::node(n);
    cfg.tso = tso;
    NetStack::new(cfg, Box::new(dev))
}

impl Rig {
    pub fn new(opts: RigOpts) -> Rig {
        let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1, &tsc, opts.tso));
        let si = net.attach(mk_stack(2, &tsc, opts.tso));
        assert_eq!((ci, si), (CLIENT, SERVER));
        net.set_clock(&tsc);
        Rig {
            net,
            tsc,
            step_ns: opts.step_ns,
            wire_frames: 0,
            turns: 0,
        }
    }

    pub fn client(&mut self) -> &mut NetStack {
        self.net.stack(CLIENT)
    }

    pub fn server(&mut self) -> &mut NetStack {
        self.net.stack(SERVER)
    }

    /// One turn — `Network::step` unrolled so each part gets its span.
    /// Called with a top-level span open; closes it and leaves the
    /// server-pump span open, so the caller `switch`es straight into
    /// whatever follows. Returns the number of wire frames moved.
    #[inline]
    pub fn turn<P: Probe>(&mut self, p: &mut P) -> usize {
        self.tsc.advance_ns(self.step_ns);
        p.switch(Layer::Transfer);
        let moved = self.net.transfer();
        p.switch(Layer::PumpClient);
        self.net.stack(CLIENT).pump();
        p.switch(Layer::PumpServer);
        self.net.stack(SERVER).pump();
        p.turn_done();
        self.wire_frames += moved as u64;
        self.turns += 1;
        moved
    }

    /// Turns until the wire is quiet (or `max` turns passed).
    pub fn settle<P: Probe>(&mut self, p: &mut P, max: usize) {
        for _ in 0..max {
            if self.turn(p) == 0 {
                break;
            }
        }
    }

    /// One untraced turn (set-up code).
    pub fn step(&mut self) -> usize {
        self.turn(&mut NoProbe)
    }

    /// Virtual nanoseconds on the shared clock.
    pub fn sim_ns(&self) -> u64 {
        self.tsc.cycles_to_ns(self.tsc.now_cycles())
    }

    /// Set-up helper: opens one connection to `port` (already
    /// listening on the server) and returns `(client, server)` handles.
    pub fn establish(&mut self, listener: SocketHandle, port: u16) -> (SocketHandle, SocketHandle) {
        let client = self
            .client()
            .tcp_connect(Endpoint::new(SERVER_IP, port))
            .expect("connect");
        for _ in 0..HANDSHAKE_TURNS {
            self.step();
            if let Some(server) = self.server().tcp_accept(listener) {
                // Let the final ACK's bookkeeping land.
                self.settle(&mut NoProbe, HANDSHAKE_TURNS);
                assert_eq!(
                    self.client().tcp_state(client),
                    Some(TcpState::Established),
                    "client side established"
                );
                return (client, server);
            }
        }
        panic!("handshake did not complete within {HANDSHAKE_TURNS} turns");
    }
}
