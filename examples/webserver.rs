//! An nginx-style unikernel web server under load.
//!
//! ```text
//! cargo run --release --example webserver
//! ```
//!
//! Boots a full server image (TLSF heap, cooperative scheduler, virtio
//! NIC + socket stack — the paper's scenario ➁), connects it to a
//! client node over the in-process network, and drives it with a
//! wrk-style load generator.

use unikraft_rs::alloc::AllocBackend;
use unikraft_rs::apps::httpd::Httpd;
use unikraft_rs::apps::loadgen::LoadGen;
use unikraft_rs::core::UnikernelBuilder;
use unikraft_rs::netdev::backend::VhostKind;
use unikraft_rs::netdev::dev::{NetDev, NetDevConf};
use unikraft_rs::netdev::VirtioNet;
use unikraft_rs::netstack::stack::{NetStack, StackConfig};
use unikraft_rs::netstack::testnet::Network;
use unikraft_rs::netstack::{Endpoint, Ipv4Addr};
use unikraft_rs::plat::time::{Stopwatch, Tsc};
use unikraft_rs::plat::vmm::VmmKind;
use unikraft_rs::sched::SchedPolicy;

const REQUESTS: u64 = 2_000;

fn main() {
    // Server: a composed unikernel with NIC + stack.
    let mut uk = UnikernelBuilder::new("nginx")
        .platform(VmmKind::Qemu)
        .allocator(AllocBackend::Tlsf)
        .scheduler(SchedPolicy::Coop)
        .with_net(VhostKind::VhostNet, 2)
        .build()
        .expect("valid configuration");
    let report = uk.boot().expect("boot");
    println!(
        "server booted: vmm {} us + guest {} us",
        report.vmm_ns / 1_000,
        report.guest_ns / 1_000
    );

    // Wire the unikernel's stack and a client node together.
    let mut server_stack = uk.take_stack().expect("net configured");
    let mut alloc = AllocBackend::Tlsf.instantiate();
    alloc.init(1 << 26, 32 << 20).expect("heap");
    let mut httpd = Httpd::new(&mut server_stack, 80, alloc).expect("listen");

    let tsc = Tsc::new(unikraft_rs::plat::cost::CPU_FREQ_HZ);
    let mut client_dev = VirtioNet::new(VhostKind::VhostNet, &tsc);
    client_dev.configure(NetDevConf::default()).expect("nic");
    let client_stack = NetStack::new(StackConfig::node(1), Box::new(client_dev));

    let mut net = Network::new();
    let ci = net.attach(client_stack);
    let si = net.attach(server_stack);

    let target = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);
    let mut wrk = LoadGen::http(net.stack(ci), target, "/index.html", 8, 4, REQUESTS)
        .expect("load generator");

    let sw = Stopwatch::start(uk.tsc());
    let mut idle = 0;
    while !wrk.done() && idle < 1_000 {
        let mut progress = wrk.poll(net.stack(ci));
        net.step();
        httpd.poll(net.stack(si));
        net.step();
        progress += wrk.poll(net.stack(ci));
        idle = if progress == 0 { idle + 1 } else { 0 };
    }

    let ns = sw.elapsed_ns().max(1);
    println!(
        "served {} requests in {:.2} ms  ->  {:.1} K req/s ({} bytes read)",
        wrk.completed(),
        ns as f64 / 1e6,
        wrk.completed() as f64 * 1e6 / ns as f64,
        wrk.bytes_read()
    );
    assert_eq!(httpd.served(), REQUESTS);
}
