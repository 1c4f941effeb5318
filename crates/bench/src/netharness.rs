//! Shared client/server network harness for the throughput figures.
//!
//! Builds a two-node [`Network`] (client 10.0.0.1, server 10.0.0.2),
//! runs an app server against a load generator until the target request
//! count completes, and reports requests per second over the combined
//! real + virtual elapsed time.

use ukalloc::{AllocBackend, Allocator};
use uknetdev::backend::VhostKind;
use uknetstack::testnet::{node_on, Network};
use uknetstack::{Endpoint, Ipv4Addr, NetStack};
use ukplat::time::{Stopwatch, Tsc};

use ukapps::loadgen::LoadGen;

/// Throughput result.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Requests completed.
    pub requests: u64,
    /// Combined real + virtual nanoseconds.
    pub elapsed_ns: u64,
}

impl Throughput {
    /// Requests per second.
    pub fn rate(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.requests as f64 * 1e9 / self.elapsed_ns as f64
    }
}

fn mk_alloc(backend: AllocBackend) -> Box<dyn Allocator> {
    let mut a = backend.instantiate();
    a.init(1 << 26, 64 << 20).expect("allocator init");
    // Age the heap like a long-running server: a spread of live
    // allocations (connection state, caches) with holes between them.
    // First-fit allocators now pay their scan per request, as they do
    // under real nginx/Redis heaps.
    let mut held = Vec::with_capacity(4096);
    for i in 0..4096usize {
        let size = 32 + (i * 97) % 1500;
        if let Some(p) = a.malloc(size) {
            held.push(p);
        }
    }
    for (i, p) in held.into_iter().enumerate() {
        if i % 2 == 0 {
            a.free(p);
        }
    }
    a
}

/// Runs one app server against a load generator until the generator's
/// target completes (or a thousand turns pass with no reply); returns
/// throughput. `start` puts the server on `port` of the server node,
/// `poll` is one turn of its loop, and `load` opens the generator's
/// connections from the client node to that port.
pub fn run_bench<S>(
    alloc: AllocBackend,
    backend: VhostKind,
    port: u16,
    start: fn(&mut NetStack, u16, Box<dyn Allocator>) -> ukplat::Result<S>,
    poll: fn(&mut S, &mut NetStack) -> u64,
    load: impl FnOnce(&mut NetStack, Endpoint) -> ukplat::Result<LoadGen>,
) -> Throughput {
    // The wire, on the clock the devices' cost model advances: the time
    // a run is charged is also the time its TCP timers see.
    let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
    let mut net = Network::new();
    net.set_clock(&tsc);
    let ci = net.attach(node_on(1, backend, &tsc, |_| {}));
    let mut server_stack = node_on(2, backend, &tsc, |_| {});
    let mut server = start(&mut server_stack, port, mk_alloc(alloc)).expect("server");
    let si = net.attach(server_stack);

    let target = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), port);
    let mut gen = load(net.stack(ci), target).expect("loadgen");

    let sw = Stopwatch::start(&tsc);
    let mut idle_rounds = 0;
    while !gen.done() && idle_rounds < 1_000 {
        let mut progress = gen.poll(net.stack(ci));
        net.step();
        poll(&mut server, net.stack(si));
        net.step();
        progress += gen.poll(net.stack(ci));
        idle_rounds = if progress == 0 { idle_rounds + 1 } else { 0 };
    }
    Throughput {
        requests: gen.completed(),
        elapsed_ns: sw.elapsed_ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukapps::httpd::Httpd;
    use ukapps::kvstore::KvStore;
    use ukapps::loadgen::RespOp;

    #[test]
    fn http_bench_completes_requests() {
        let t = run_bench(AllocBackend::Tlsf, VhostKind::VhostUser, 80, Httpd::new, Httpd::poll, |s, to| {
            LoadGen::http(s, to, "/index.html", 4, 2, 200)
        });
        assert_eq!(t.requests, 200);
        assert!(t.rate() > 0.0);
    }

    #[test]
    fn resp_bench_completes_requests() {
        let t = run_bench(AllocBackend::Mimalloc, VhostKind::VhostUser, 6379, KvStore::new, KvStore::poll, |s, to| {
            LoadGen::resp(s, to, RespOp::Set, 4, 4, 1_000, 200)
        });
        assert_eq!(t.requests, 200);
    }
}
