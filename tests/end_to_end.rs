//! Integration: complete unikernel servers under client load.
//!
//! Builds server unikernels through the full `ukcore` composition, wires
//! their stacks to client nodes over the in-process network, and drives
//! real HTTP and RESP traffic through every layer: load generator →
//! TCP/IP stack → virtio rings → server stack → application → back.

use unikraft_rs::alloc::AllocBackend;
use unikraft_rs::apps::httpd::Httpd;
use unikraft_rs::apps::kvstore::KvStore;
use unikraft_rs::apps::loadgen::{LoadGen, RespOp};
use unikraft_rs::core::UnikernelBuilder;
use unikraft_rs::netdev::backend::VhostKind;
use unikraft_rs::netdev::dev::{NetDev, NetDevConf};
use unikraft_rs::netdev::VirtioNet;
use unikraft_rs::netstack::stack::{NetStack, StackConfig, TCP_MSL_NS};
use unikraft_rs::netstack::tcp::TcpState;
use unikraft_rs::netstack::testnet::{self, Network};
use unikraft_rs::netstack::{Endpoint, Ipv4Addr};
use unikraft_rs::plat::time::Tsc;
use unikraft_rs::plat::vmm::VmmKind;
use unikraft_rs::sched::SchedPolicy;

fn client_stack(node: u8) -> NetStack {
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    NetStack::new(StackConfig::node(node), Box::new(dev))
}

fn server_unikernel(name: &str, node: u8) -> NetStack {
    let mut uk = UnikernelBuilder::new(name)
        .platform(VmmKind::Firecracker)
        .allocator(AllocBackend::Tlsf)
        .scheduler(SchedPolicy::Coop)
        .with_net(VhostKind::VhostUser, node)
        .build()
        .unwrap();
    uk.boot().unwrap();
    uk.take_stack().unwrap()
}

#[test]
fn http_requests_flow_through_booted_unikernel() {
    let mut server_stack = server_unikernel("nginx-e2e", 2);
    let mut alloc = AllocBackend::Mimalloc.instantiate();
    alloc.init(1 << 26, 32 << 20).unwrap();
    let mut httpd = Httpd::new(&mut server_stack, 80, alloc).unwrap();

    let mut net = Network::new();
    let ci = net.attach(client_stack(1));
    let si = net.attach(server_stack);

    let target = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);
    let mut wrk = LoadGen::http(net.stack(ci), target, "/index.html", 6, 3, 300).unwrap();
    let mut idle = 0;
    while !wrk.done() && idle < 500 {
        let mut p = wrk.poll(net.stack(ci));
        net.step();
        httpd.poll(net.stack(si));
        net.step();
        p += wrk.poll(net.stack(ci));
        idle = if p == 0 { idle + 1 } else { 0 };
    }
    assert_eq!(wrk.completed(), 300);
    assert_eq!(httpd.served(), 300);
    assert_eq!(httpd.errors(), 0);
    // 612-byte page + headers per request.
    assert!(wrk.bytes_read() >= 300 * 612);
}

#[test]
fn resp_pipeline_flows_through_booted_unikernel() {
    let mut server_stack = server_unikernel("redis-e2e", 2);
    let mut alloc = AllocBackend::Mimalloc.instantiate();
    alloc.init(1 << 26, 32 << 20).unwrap();
    let mut kv = KvStore::new(&mut server_stack, 6379, alloc).unwrap();

    let mut net = Network::new();
    let ci = net.attach(client_stack(1));
    let si = net.attach(server_stack);

    let target = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 6379);
    // SET phase.
    let mut setgen =
        LoadGen::resp(net.stack(ci), target, RespOp::Set, 4, 16, 100, 400).unwrap();
    let mut idle = 0;
    while !setgen.done() && idle < 500 {
        let mut p = setgen.poll(net.stack(ci));
        net.step();
        kv.poll(net.stack(si));
        net.step();
        p += setgen.poll(net.stack(ci));
        idle = if p == 0 { idle + 1 } else { 0 };
    }
    assert_eq!(setgen.completed(), 400);
    assert_eq!(kv.sets(), 400);
    assert_eq!(kv.len(), 100, "keyspace of 100 keys");

    // GET phase on a fresh client node.
    let ci2 = net.attach(client_stack(3));
    let mut getgen =
        LoadGen::resp(net.stack(ci2), target, RespOp::Get, 4, 16, 100, 400).unwrap();
    let mut idle = 0;
    while !getgen.done() && idle < 500 {
        let mut p = getgen.poll(net.stack(ci2));
        net.step();
        kv.poll(net.stack(si));
        net.step();
        p += getgen.poll(net.stack(ci2));
        idle = if p == 0 { idle + 1 } else { 0 };
    }
    assert_eq!(getgen.completed(), 400);
    assert_eq!(kv.gets(), 400);
}

#[test]
fn two_unikernels_talk_to_each_other() {
    // "possibly different applications talking to each other through
    // networked communications" (§2): two unikernels, one network.
    let mut s1 = server_unikernel("node-a", 2);
    let s2 = server_unikernel("node-b", 3);
    let mut alloc = AllocBackend::Tlsf.instantiate();
    alloc.init(1 << 26, 16 << 20).unwrap();
    let mut httpd = Httpd::new(&mut s1, 80, alloc).unwrap();

    let mut net = Network::new();
    let ai = net.attach(s1);
    let bi = net.attach(s2);

    // Unikernel B fetches from unikernel A.
    let target = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);
    let conn = net.stack(bi).tcp_connect(target).unwrap();
    for _ in 0..8 {
        net.run_until_quiet(16);
        httpd.poll(net.stack(ai));
    }
    net.stack(bi)
        .tcp_send(conn, b"GET / HTTP/1.1\r\nHost: a\r\n\r\n")
        .unwrap();
    for _ in 0..8 {
        net.run_until_quiet(16);
        httpd.poll(net.stack(ai));
    }
    let resp = testnet::tcp_recv(net.stack(bi), conn, 64 * 1024).unwrap();
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200 OK"));
}

/// A cable without a `Network` — which would put both ends on *its*
/// clock: every frame `from` has transmitted lands in `to`'s RX ring.
fn cable(from: &mut NetStack, to: &mut NetStack) {
    let mut frames = Vec::new();
    from.harvest_tx(&mut frames);
    for nb in frames {
        let mut rx = to.take_rx_buf();
        rx.append(nb.payload());
        to.deliver_frame(rx);
        from.recycle(nb);
    }
}

/// Boot hands its clock to the stack as well as to the device: the
/// booted image's TCP has its timers. A connection it closed first
/// waits in TIME_WAIT and is gone 2MSL of *boot-clock* time later.
#[test]
fn booted_unikernel_tcp_keeps_time_on_the_boot_clock() {
    let mut uk = UnikernelBuilder::new("timewait-e2e")
        .platform(VmmKind::Firecracker)
        .allocator(AllocBackend::Tlsf)
        .with_net(VhostKind::VhostUser, 2)
        .build()
        .unwrap();
    uk.boot().unwrap();
    let tsc = uk.tsc().clone();
    let mut server = uk.take_stack().unwrap();
    let mut client = client_stack(1);
    let turns = |server: &mut NetStack, client: &mut NetStack| {
        for _ in 0..8 {
            cable(client, server);
            server.pump();
            cable(server, client);
            client.pump();
        }
    };

    let listener = server.tcp_listen(80).unwrap();
    let conn = client.tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80)).unwrap();
    turns(&mut server, &mut client);
    let accepted = server.tcp_accept(listener).expect("handshake completed");
    server.tcp_close(accepted).unwrap();
    turns(&mut server, &mut client);
    client.tcp_close(conn).unwrap();
    turns(&mut server, &mut client);
    assert_eq!(server.tcp_state(accepted), Some(TcpState::TimeWait), "closed from both sides");
    assert_eq!(server.armed_timer_count(), 1);

    tsc.advance_ns(2 * TCP_MSL_NS);
    server.pump();
    assert_eq!(server.tcp_state(accepted), None, "2MSL on the boot clock reaped it");
    assert_eq!((server.tcp_conn_count(), server.armed_timer_count()), (0, 0));
}
