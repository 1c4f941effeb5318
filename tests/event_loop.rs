//! Integration tests for the `ukevent` readiness subsystem: the
//! event-driven `httpd` multiplexing many concurrent connections over
//! one `EventQueue`, `kvstore` parked on the same kind of queue until a
//! command arrives, the epoll/eventfd family by syscall number, and a
//! parked `epoll_wait` woken through the scheduler instead of spinning.

use std::cell::RefCell;
use std::rc::Rc;

use unikraft_rs::alloc::AllocBackend;
use unikraft_rs::apps::httpd::Httpd;
use unikraft_rs::apps::kvstore::{resp_command, KvStore};
use unikraft_rs::core::posix::{EPOLL_CTL_ADD, EVENT_FD_BASE};
use unikraft_rs::core::PosixEnv;
use unikraft_rs::event::{EventMask, EventQueue, WaitOutcome};
use unikraft_rs::netstack::testnet::{self, node, Network};
use unikraft_rs::netstack::{Endpoint, Ipv4Addr};
use unikraft_rs::plat::time::Tsc;
use unikraft_rs::sched::{CoopScheduler, Scheduler, StepResult, Thread, ThreadId};

fn mk_alloc() -> Box<dyn unikraft_rs::alloc::Allocator> {
    let mut a = AllocBackend::Tlsf.instantiate();
    a.init(1 << 22, 8 << 20).unwrap();
    a
}

/// The acceptance-criteria scenario: one event-driven `Httpd` serves
/// many concurrent connections over `testnet`, all multiplexed through
/// the server's single `EventQueue`.
#[test]
fn httpd_serves_many_concurrent_connections_through_one_queue() {
    const CLIENTS: usize = 6;
    let mut net = Network::new();
    let client_idx: Vec<usize> = (0..CLIENTS)
        .map(|i| net.attach(node(10 + i as u8, |_| {})))
        .collect();
    let mut server_stack = node(2, |_| {});
    let mut httpd = Httpd::new(&mut server_stack, 80, mk_alloc()).unwrap();
    let si = net.attach(server_stack);
    let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);

    // All clients connect before the server polls once.
    let conns: Vec<_> = client_idx
        .iter()
        .map(|&ci| net.stack(ci).tcp_connect(ep).unwrap())
        .collect();
    for _ in 0..8 {
        net.run_until_quiet(32);
        httpd.poll(net.stack(si));
    }
    assert_eq!(httpd.conn_count(), CLIENTS, "all connections accepted");
    // One queue watches the listener plus every connection.
    assert_eq!(httpd.event_queue_mut().len(), CLIENTS + 1);

    // Interleaved requests: each client sends, nobody is starved.
    for (&ci, &conn) in client_idx.iter().zip(&conns) {
        net.stack(ci)
            .tcp_send(conn, b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
    }
    for _ in 0..12 {
        net.run_until_quiet(32);
        httpd.poll(net.stack(si));
    }
    assert_eq!(httpd.served(), CLIENTS as u64);
    for (&ci, &conn) in client_idx.iter().zip(&conns) {
        let resp = testnet::tcp_recv(net.stack(ci), conn, 64 * 1024).unwrap();
        let text = String::from_utf8_lossy(&resp);
        assert!(
            text.starts_with("HTTP/1.1 200 OK"),
            "client {ci}: {}",
            &text[..text.len().min(40)]
        );
        assert!(text.contains("Content-Length: 612"));
    }
    // Second round over the same (keep-alive) connections.
    for (&ci, &conn) in client_idx.iter().zip(&conns) {
        net.stack(ci)
            .tcp_send(conn, b"GET / HTTP/1.1\r\n\r\n")
            .unwrap();
    }
    for _ in 0..12 {
        net.run_until_quiet(32);
        httpd.poll(net.stack(si));
    }
    assert_eq!(httpd.served(), 2 * CLIENTS as u64);
}

/// `KvStore` runs the same loop: with nothing to do it parks on its
/// queue's `epoll_wait`, a quiet wire leaves it parked, and a client's
/// command is the readiness edge that wakes it.
#[test]
fn kvstore_parks_on_its_queue_until_a_command_arrives() {
    let mut net = Network::new();
    let ci = net.attach(node(1, |_| {}));
    let mut server_stack = node(2, |_| {});
    let mut kv = KvStore::new(&mut server_stack, 6379, mk_alloc()).unwrap();
    let si = net.attach(server_stack);
    let conn = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 6379))
        .unwrap();
    for _ in 0..4 {
        net.run_until_quiet(16);
        kv.poll(net.stack(si));
    }
    assert_eq!(kv.conn_count(), 1);
    assert_eq!(kv.event_queue_mut().len(), 2, "the listener and the connection");

    let tid = ThreadId(1);
    assert_eq!(kv.event_queue_mut().wait(8, tid), WaitOutcome::Parked);
    net.run_until_quiet(16);
    assert!(kv.event_queue_mut().take_wakeups().is_empty(), "nothing to do, still parked");

    net.stack(ci)
        .tcp_send(conn, &resp_command(&[b"SET", b"k", b"v"]))
        .unwrap();
    net.run_until_quiet(16);
    assert_eq!(kv.event_queue_mut().take_wakeups(), vec![tid], "the command woke it");
    assert_eq!(kv.poll(net.stack(si)), 1);
    net.run_until_quiet(16);
    assert_eq!(testnet::tcp_recv(net.stack(ci), conn, 64).unwrap(), b"+OK\r\n");
    assert_eq!(kv.sets(), 1);
}

/// The epoll/eventfd family works end-to-end *by syscall number*
/// through `PosixEnv::syscall`, with a netstack socket joining the same
/// interest list as an eventfd.
#[test]
fn epoll_family_multiplexes_eventfd_and_socket_by_syscall_number() {
    let tsc = Tsc::new(3_600_000_000);
    let mut posix = PosixEnv::new(&tsc);

    // A real UDP socket on a real stack, observed through the fd table.
    let mut net = Network::new();
    let ci = net.attach(node(1, |_| {}));
    let mut ss = node(2, |_| {});
    let sock = ss.udp_bind(7000).unwrap();
    let sock_src = ss.ready_source(sock);
    let si = net.attach(ss);
    let sock_fd = posix.install_source(sock_src);

    let epfd = posix.syscall(291, &[0]) as u64; // epoll_create1
    assert!(epfd >= EVENT_FD_BASE);
    let efd = posix.syscall(290, &[0, 0]) as u64; // eventfd2
    for fd in [efd, sock_fd] {
        assert_eq!(
            posix.syscall(233, &[epfd, EPOLL_CTL_ADD, fd, u64::from(EventMask::IN.bits())]),
            0,
            "epoll_ctl ADD {fd}"
        );
    }

    // Quiet at first. (UDP sockets report EPOLLOUT, but we only asked
    // for EPOLLIN.)
    let evbuf = posix.user_buf(b"");
    assert_eq!(posix.syscall(232, &[epfd, evbuf, 16, 0]), 0);

    // A datagram arrives: the socket becomes readable.
    let csock = net.stack(ci).udp_bind(5000).unwrap();
    net.stack(ci)
        .udp_send_to(csock, b"ping", Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7000))
        .unwrap();
    net.run_until_quiet(16);
    assert_eq!(posix.syscall(232, &[epfd, evbuf, 16, 0]), 1);
    let events = PosixEnv::decode_epoll_events(&posix.read_buf(evbuf).unwrap());
    assert_eq!(events[0].1, sock_fd);
    assert!(events[0].0.contains(EventMask::IN));

    // Kick the eventfd too: now both fds report.
    let one = posix.user_buf(&1u64.to_le_bytes());
    assert_eq!(posix.syscall(1, &[efd, one, 8]), 8);
    assert_eq!(posix.syscall(232, &[epfd, evbuf, 16, 0]), 2);

    // Drain the socket; only the eventfd stays ready.
    testnet::udp_recv_from(net.stack(si), sock).unwrap();
    assert_eq!(posix.syscall(232, &[epfd, evbuf, 16, 0]), 1);
    let events = PosixEnv::decode_epoll_events(&posix.read_buf(evbuf).unwrap());
    assert_eq!(events[0].1, efd);
}

/// `epoll_wait(timeout)` end to end: the thread parks with a deadline,
/// the queue's earliest deadline arms a `TimerWheel` entry (the
/// standalone timer API over the heap a stack queues its connections
/// on), and advancing the virtual clock fires it → expires the park
/// → wakes the thread through the scheduler — which then observes
/// `TimedOut` (epoll's "0 ready events") because no readiness arrived.
#[test]
fn timed_epoll_wait_expires_through_the_timer_wheel() {
    use unikraft_rs::netstack::timer::TimerWheel;

    let queue = Rc::new(RefCell::new(EventQueue::new()));
    let efd = Rc::new(RefCell::new(
        unikraft_rs::event::EventFd::new(0, 0).unwrap(),
    ));
    queue
        .borrow_mut()
        .ctl_add(1, &*efd.borrow(), EventMask::IN)
        .unwrap();

    let tsc = Tsc::new(3_600_000_000);
    let mut sched = CoopScheduler::new(&tsc);
    let now = Rc::new(RefCell::new(0u64)); // Virtual-clock ns.
    let outcome: Rc<RefCell<Option<&'static str>>> = Rc::new(RefCell::new(None));
    const TIMEOUT_NS: u64 = 5_000_000; // epoll_wait(…, 5 ms).

    let tid_holder: Rc<RefCell<Option<unikraft_rs::sched::ThreadId>>> =
        Rc::new(RefCell::new(None));
    let server = {
        let queue = queue.clone();
        let now = now.clone();
        let outcome = outcome.clone();
        let tid_holder = tid_holder.clone();
        Thread::new("timed-epoll", move || {
            let tid = tid_holder.borrow().expect("tid installed before run");
            let t = *now.borrow();
            match queue.borrow_mut().wait_until(8, tid, t, TIMEOUT_NS) {
                WaitOutcome::Parked => StepResult::Block,
                WaitOutcome::TimedOut => {
                    *outcome.borrow_mut() = Some("timeout");
                    StepResult::Exit
                }
                WaitOutcome::Ready(_) => {
                    *outcome.borrow_mut() = Some("ready");
                    StepResult::Exit
                }
            }
        })
    };
    let tid = sched.spawn(server);
    *tid_holder.borrow_mut() = Some(tid);

    // Park with the deadline recorded; no spinning while blocked.
    assert_eq!(sched.run_to_idle(), 1, "parked after one step");
    assert_eq!(queue.borrow().waiter_count(), 1);

    // The queue's earliest deadline becomes a wheel timer.
    let mut wheel = TimerWheel::new();
    let deadline = queue.borrow().next_deadline().expect("deadline armed");
    assert_eq!(deadline, TIMEOUT_NS);
    wheel.arm(deadline, 0xE9);

    // Advance the virtual clock in coarse ticks; the wheel, not the
    // caller, decides when the deadline is due.
    let mut fired = false;
    for step in 1..=10u64 {
        *now.borrow_mut() = step * 1_000_000;
        wheel.advance(*now.borrow(), |key, _| {
            assert_eq!(key, 0xE9);
            fired = true;
        });
        if fired {
            break;
        }
    }
    assert!(fired, "wheel fired within the timeout horizon");
    assert_eq!(queue.borrow_mut().fire_deadlines(*now.borrow()), 1);
    let woken = queue.borrow_mut().take_wakeups();
    assert_eq!(woken, vec![tid]);
    for id in woken {
        sched.wake(id).unwrap();
    }
    sched.run_to_idle();
    assert_eq!(*outcome.borrow(), Some("timeout"), "observed 0-event return");
    assert_eq!(sched.alive(), 0);
}

/// `epoll_wait` parks the calling thread on the queue's `WaitQueue` and
/// a readiness edge wakes it through the scheduler — no spinning: the
/// server thread runs a bounded number of steps while idle.
#[test]
fn parked_wait_is_woken_by_readiness_not_spinning() {
    let queue = Rc::new(RefCell::new(EventQueue::new()));
    let efd = Rc::new(RefCell::new(
        unikraft_rs::event::EventFd::new(0, 0).unwrap(),
    ));
    queue
        .borrow_mut()
        .ctl_add(1, &*efd.borrow(), EventMask::IN)
        .unwrap();

    let tsc = Tsc::new(3_600_000_000);
    let mut sched = CoopScheduler::new(&tsc);
    let observed: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));

    // The server thread: wait → park; on wake, consume and exit.
    let tid_holder: Rc<RefCell<Option<unikraft_rs::sched::ThreadId>>> =
        Rc::new(RefCell::new(None));
    let server = {
        let queue = queue.clone();
        let efd = efd.clone();
        let observed = observed.clone();
        let tid_holder = tid_holder.clone();
        Thread::new("epoll-server", move || {
            let tid = tid_holder.borrow().expect("tid installed before run");
            match queue.borrow_mut().wait(8, tid) {
                WaitOutcome::Ready(events) => {
                    for ev in events {
                        observed.borrow_mut().push(ev.token);
                    }
                    let v = efd.borrow_mut().read().unwrap();
                    observed.borrow_mut().push(v);
                    StepResult::Exit
                }
                _ => StepResult::Block,
            }
        })
    };
    let tid = sched.spawn(server);
    *tid_holder.borrow_mut() = Some(tid);

    // Run until everything is blocked: the thread parks (1 step), and
    // crucially does not spin while nothing is ready.
    let steps_idle = sched.run_to_idle();
    assert_eq!(steps_idle, 1, "parked after a single step, no busy-poll");
    assert_eq!(queue.borrow().waiter_count(), 1);
    assert!(observed.borrow().is_empty());

    // Readiness publication: the edge releases the thread.
    efd.borrow_mut().write(42).unwrap();
    let woken = queue.borrow_mut().take_wakeups();
    assert_eq!(woken, vec![tid], "edge produced exactly our wakeup");
    for id in woken {
        sched.wake(id).unwrap();
    }
    sched.run_to_idle();
    assert_eq!(&*observed.borrow(), &[1, 42], "event token then payload");
    assert_eq!(sched.alive(), 0, "server exited cleanly");
}
