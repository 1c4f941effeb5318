//! What the `ukapps` integration suites share: a client stack and a
//! server stack on one in-process wire, with one established connection
//! from the first to a port on the second.
#![allow(dead_code)] // each suite uses its own part

use ukalloc::{AllocBackend, Allocator};
use uknetstack::stack::{NetStack, SocketHandle};
use uknetstack::testnet::{node, Network};
use uknetstack::{Endpoint, Ipv4Addr};

/// An initialised `backend` over a 16 MiB region.
pub fn mk_alloc(backend: AllocBackend) -> Box<dyn Allocator> {
    let mut a = backend.instantiate();
    a.init(1 << 22, 16 << 20).unwrap();
    a
}

/// The wire, both stacks, the client's connection and the server `S`
/// (built by `serve` on the server's stack before it is attached).
pub struct Rig<S> {
    pub net: Network,
    pub ci: usize,
    pub si: usize,
    pub conn: SocketHandle,
    pub server: S,
    poll: fn(&mut S, &mut NetStack) -> u64,
    /// Where `exchange` lands the reply.
    pub reply: Vec<u8>,
}

impl<S> Rig<S> {
    pub fn new(
        port: u16,
        serve: impl FnOnce(&mut NetStack) -> S,
        poll: fn(&mut S, &mut NetStack) -> u64,
    ) -> Self {
        let mut net = Network::new();
        let ci = net.attach(node(1, |_| {}));
        let mut ss = node(2, |_| {});
        let server = serve(&mut ss);
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), port))
            .unwrap();
        let reply = vec![0; 64 * 1024];
        let mut rig = Rig { net, ci, si, conn, server, poll, reply };
        rig.turns(4);
        rig
    }

    /// `n` × (wire quiet, server poll), then the wire quiet again.
    pub fn turns(&mut self, n: usize) {
        for _ in 0..n {
            self.net.run_until_quiet(16);
            (self.poll)(&mut self.server, self.net.stack(self.si));
        }
        self.net.run_until_quiet(16);
    }

    pub fn send(&mut self, bytes: &[u8]) {
        assert_eq!(self.net.stack(self.ci).tcp_send(self.conn, bytes), Ok(bytes.len()));
    }

    /// Reads what has arrived into `reply`; returns its length.
    pub fn recv(&mut self) -> usize {
        self.net
            .stack(self.ci)
            .tcp_recv_into(self.conn, &mut self.reply)
            .unwrap()
    }

    /// Sends `request`, gives the server two turns and returns the
    /// reply. Touches the heap only if the stacks or the server do.
    pub fn exchange(&mut self, request: &[u8]) -> &[u8] {
        self.send(request);
        self.turns(2);
        let n = self.recv();
        &self.reply[..n]
    }
}
