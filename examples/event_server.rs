//! An event-driven server pair over the `ukevent` subsystem.
//!
//! ```text
//! cargo run --release --example event_server
//! ```
//!
//! Demonstrates the epoll/eventfd layer §4.1 of the paper listed as
//! work in progress, now landed as `ukevent`:
//!
//! 1. an event-driven `Httpd` multiplexing several concurrent
//!    keep-alive connections over one `EventQueue` (no accept
//!    busy-polling);
//! 2. an event-driven UDP key-value server on the same machine;
//! 3. the whole family driven *by syscall number* through the shim —
//!    `eventfd2`/`epoll_create1`/`epoll_ctl`/`epoll_wait` at
//!    function-call cost.

use unikraft_rs::alloc::AllocBackend;
use unikraft_rs::apps::httpd::Httpd;
use unikraft_rs::apps::udpkv::{UdpKvMode, UdpKvNetServer};
use unikraft_rs::core::posix::EPOLL_CTL_ADD;
use unikraft_rs::core::PosixEnv;
use unikraft_rs::event::EventMask;
use unikraft_rs::netstack::testnet::{self, node, Network};
use unikraft_rs::netstack::{Endpoint, Ipv4Addr};
use unikraft_rs::plat::time::Tsc;

const CLIENTS: usize = 4;
fn main() {
    let tsc = Tsc::new(3_600_000_000);

    // --- 1. Event-driven HTTP: one queue, many connections ------------
    let mut net = Network::new();
    let clients: Vec<usize> = (0..CLIENTS)
        .map(|i| net.attach(node(10 + i as u8, |_| {})))
        .collect();
    let mut server_stack = node(2, |_| {});
    let mut alloc = AllocBackend::Tlsf.instantiate();
    alloc.init(1 << 22, 8 << 20).unwrap();
    let mut httpd = Httpd::new(&mut server_stack, 80, alloc).expect("listen");
    let mut kv = UdpKvNetServer::new(&mut server_stack, 9100, UdpKvMode::UnikraftLwip, &tsc)
        .expect("bind");
    let si = net.attach(server_stack);
    let http_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);
    let kv_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9100);

    let conns: Vec<_> = clients
        .iter()
        .map(|&ci| net.stack(ci).tcp_connect(http_ep).unwrap())
        .collect();
    for _ in 0..8 {
        net.run_until_quiet(32);
        httpd.poll(net.stack(si));
    }
    println!(
        "httpd: {} connections multiplexed over one EventQueue ({} interest entries)",
        httpd.conn_count(),
        httpd.event_queue_mut().len(),
    );

    for (&ci, &conn) in clients.iter().zip(&conns) {
        net.stack(ci)
            .tcp_send(conn, b"GET /index.html HTTP/1.1\r\nHost: uk\r\n\r\n")
            .unwrap();
    }
    // The KV clients share the wire with the HTTP traffic.
    let kv_sock = net.stack(clients[0]).udp_bind(5001).unwrap();
    net.stack(clients[0])
        .udp_send_to(kv_sock, b"S greeting hello-unikraft", kv_ep)
        .unwrap();
    net.stack(clients[0])
        .udp_send_to(kv_sock, b"G greeting", kv_ep)
        .unwrap();

    for _ in 0..12 {
        net.run_until_quiet(32);
        httpd.poll(net.stack(si));
        kv.poll(net.stack(si));
    }
    let mut ok = 0;
    for (&ci, &conn) in clients.iter().zip(&conns) {
        let resp = testnet::tcp_recv(net.stack(ci), conn, 64 * 1024).unwrap();
        if resp.starts_with(b"HTTP/1.1 200 OK") {
            ok += 1;
        }
    }
    let kv_reply = testnet::udp_recv_from(net.stack(clients[0]), kv_sock)
        .and_then(|_| testnet::udp_recv_from(net.stack(clients[0]), kv_sock))
        .map(|(_, d)| String::from_utf8_lossy(&d).into_owned())
        .unwrap_or_default();
    println!(
        "httpd: {ok}/{CLIENTS} responses OK, served={} | udpkv: {} requests, reply {kv_reply:?}",
        httpd.served(),
        kv.server().requests(),
    );

    // --- 2. The same subsystem by syscall number ----------------------
    let mut posix = PosixEnv::new(&tsc);
    let epfd = posix.syscall(291, &[0]) as u64; // epoll_create1
    let efd = posix.syscall(290, &[3, 0]) as u64; // eventfd2(initval=3)
    posix.syscall(233, &[epfd, EPOLL_CTL_ADD, efd, u64::from(EventMask::IN.bits())]);
    let evbuf = posix.user_buf(b"");
    let n = posix.syscall(232, &[epfd, evbuf, 8, 0]); // epoll_wait
    let events = PosixEnv::decode_epoll_events(&posix.read_buf(evbuf).unwrap());
    let out = posix.user_buf(b"");
    posix.syscall(0, &[efd, out, 8]); // read(efd)
    let counter = u64::from_le_bytes(posix.read_buf(out).unwrap()[..8].try_into().unwrap());
    println!(
        "syscall shim: epoll_wait -> {n} event(s) {:?}, eventfd counter read {counter}",
        events
            .iter()
            .map(|(m, t)| format!("fd {t}: {m}"))
            .collect::<Vec<_>>(),
    );
}
