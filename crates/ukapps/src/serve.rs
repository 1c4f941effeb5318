//! The connection loop every TCP server in this crate runs on.
//!
//! A [`Server`] is the §4.1 epoll shape: one [`EventQueue`] watches the
//! listener (`EPOLLIN`: accept queue non-empty) and every connection
//! (`EPOLLIN`/`EPOLLRDHUP`, plus `EPOLLOUT` only while a reply backlog
//! or a streamed body waits for the peer's window). A turn visits the
//! connections the queue reports, plus those it left resumable or
//! finished. What is said is the [`Protocol`]'s business: it reads a
//! request where it landed in the connection's buffer and appends the
//! reply straight onto the connection's send [`Backlog`]. Replies are
//! queued with `tcp_send_queued` and a turn ends in one `flush_output`:
//! every connection's output of a turn leaves as one TX burst, and a
//! turn takes nothing from the host heap once the buffers have grown.

use std::collections::HashMap;

use ukevent::{Event, EventMask, EventQueue};
use uknetstack::stack::{NetStack, SocketHandle};
use ukplat::{Errno, Result};

/// Most ready events one turn of the loop takes.
const MAX_EVENTS: usize = 64;

/// Most bytes one [`recv_append`] reads.
const RECV_MAX: usize = 256 * 1024;

/// What one [`Protocol::serve`] call did with the head of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Served {
    /// Input bytes consumed.
    pub(crate) used: usize,
    /// Hang up once everything owed is sent; later input is dropped.
    pub(crate) close: bool,
    /// Length of a body streamed from the front of [`Protocol::body`]
    /// after the reply; requests behind it wait until it has gone.
    pub(crate) stream: usize,
}

impl Served {
    /// No whole request yet: wait for more input.
    pub(crate) const MORE: Served = Served { used: 0, close: false, stream: 0 };
}

/// A request/reply protocol a [`Server`] speaks.
pub(crate) trait Protocol {
    /// Answers the request at the head of `input`, appending the reply
    /// to `out`; [`Served::MORE`] while no whole request is there.
    fn serve(&mut self, input: &[u8], out: &mut Vec<u8>) -> Served;

    /// Where streamed bodies come from: they go straight from here into
    /// the connection's send queue, never through the backlog.
    fn body(&self) -> &[u8] {
        &[]
    }
}

/// A send backlog: bytes produced and not yet accepted by the socket.
/// Replies are written straight onto its tail; [`flush`](Backlog::flush)
/// moves a cursor over what the socket took instead of shifting the
/// rest down after every partial write, and the storage is kept, so a
/// connection in steady state appends without touching the heap.
#[derive(Debug, Default)]
pub(crate) struct Backlog {
    bytes: Vec<u8>,
    /// `bytes[..sent]` is already with the socket.
    sent: usize,
}

impl Backlog {
    /// Whether everything pushed so far has been accepted by the socket.
    pub(crate) fn is_empty(&self) -> bool {
        self.sent == self.bytes.len()
    }

    /// Where new output is appended.
    pub(crate) fn tail(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Queues pending bytes on `sock` until the backlog is empty or the
    /// socket stops accepting (closed tx window, full send buffer: the
    /// rest waits for the next turn). `false` when the connection
    /// failed; the backlog is then discarded.
    pub(crate) fn flush(&mut self, stack: &mut NetStack, sock: SocketHandle) -> bool {
        let sent = send_queued(stack, sock, &self.bytes[self.sent..]);
        self.sent = sent.map_or(self.bytes.len(), |n| self.sent + n);
        if self.is_empty() {
            self.bytes.clear();
            self.sent = 0;
        } else if self.sent >= self.bytes.len() - self.sent {
            // A peer that never lets the backlog run dry must not make
            // it grow without bound: drop the sent prefix once it is at
            // least as long as the rest (each byte moves at most once
            // per byte sent).
            self.bytes.drain(..self.sent);
            self.sent = 0;
        }
        sent.is_some()
    }
}

/// Queues as much of `bytes` on `sock` as its send buffer takes: how
/// much that was, or `None` once the connection has failed.
fn send_queued(stack: &mut NetStack, sock: SocketHandle, bytes: &[u8]) -> Option<usize> {
    let mut sent = 0;
    while sent < bytes.len() {
        match stack.tcp_send_queued(sock, &bytes[sent..]) {
            Ok(0) | Err(Errno::Again) => break,
            Ok(n) => sent += n,
            Err(_) => return None,
        }
    }
    Some(sent)
}

/// Appends what `sock` has received (up to [`RECV_MAX`] bytes) to
/// `buf`, a buffer the connection keeps; returns how many bytes that
/// was. Allocates only while `buf` grows to its working size.
pub(crate) fn recv_append(stack: &mut NetStack, sock: SocketHandle, buf: &mut Vec<u8>) -> usize {
    let had = buf.len();
    buf.resize(had + stack.tcp_readable(sock).min(RECV_MAX), 0);
    let got = stack.tcp_recv_into(sock, &mut buf[had..]).unwrap_or(0);
    buf.truncate(had + got);
    got
}

struct Conn {
    sock: SocketHandle,
    /// Received bytes not yet forming a complete request.
    buf: Vec<u8>,
    /// Reply bytes the socket has not yet accepted.
    out: Backlog,
    /// A body being streamed: `(size, offset)` into the protocol's
    /// [`body`](Protocol::body).
    body: Option<(usize, usize)>,
    /// Close once `out` drains.
    closing: bool,
}

impl Conn {
    // ukcheck: allow(alloc) -- accept: a new connection's buffers, empty
    // until its first request and reply size them
    fn new(sock: SocketHandle) -> Self {
        let (buf, out) = (Vec::new(), Backlog::default());
        Conn { sock, buf, out, body: None, closing: false }
    }

    /// Requests that queued up behind a streamed body can be served.
    fn resumable(&self) -> bool {
        self.body.is_none() && !self.closing && !self.buf.is_empty()
    }

    /// Nothing more is owed: close and forget.
    fn finished(&self) -> bool {
        self.closing && self.out.is_empty() && self.body.is_none()
    }
}

/// A listener and its connections, driven through one event queue.
pub(crate) struct Server {
    listener: SocketHandle,
    queue: EventQueue,
    conns: HashMap<u64, Conn>,
    /// Requests answered so far.
    replies: u64,
    /// Where each turn's ready events land.
    events: Vec<Event>,
    /// Connections a turn left with work the queue will not report:
    /// requests buffered behind a body that has just drained, or nothing
    /// more owed (to be closed). Emptied at the end of every `poll`.
    todo: Vec<u64>,
}

impl Server {
    /// Starts listening on `port` of `stack`; the listener joins the
    /// event queue immediately.
    // ukcheck: allow(alloc) -- constructor: the table and the scratch
    // vectors
    pub(crate) fn new(stack: &mut NetStack, port: u16) -> Result<Self> {
        let listener = stack.tcp_listen(port)?;
        let mut queue = EventQueue::new();
        queue.ctl_add(listener.0 as u64, &stack.ready_source(listener), EventMask::IN)?;
        Ok(Server {
            listener,
            queue,
            conns: HashMap::new(),
            replies: 0,
            events: Vec::with_capacity(MAX_EVENTS),
            todo: Vec::with_capacity(MAX_EVENTS),
        })
    }

    /// Live connections.
    pub(crate) fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// The event queue (scheduler glue parks/wakes through it).
    pub(crate) fn event_queue_mut(&mut self) -> &mut EventQueue {
        &mut self.queue
    }

    /// One turn of the loop: drains the queue's ready events —
    /// accepting, reading, answering through `proto`, queueing partial
    /// writes — then emits every connection's output as **one TX burst**
    /// and closes the connections nothing more is owed. Returns the
    /// requests answered this call.
    pub(crate) fn poll(&mut self, stack: &mut NetStack, proto: &mut impl Protocol) -> u64 {
        let before = self.replies;
        let mut events = std::mem::take(&mut self.events);
        self.queue.poll_ready_into(&mut events, MAX_EVENTS);
        for &ev in &events {
            if ev.token != self.listener.0 as u64 {
                self.drive(stack, proto, ev);
                continue;
            }
            while let Some(sock) = stack.tcp_accept(self.listener) {
                let token = sock.0 as u64;
                let src = stack.ready_source(sock);
                if self.queue.ctl_add(token, &src, EventMask::IN | EventMask::RDHUP).is_ok() {
                    self.conns.insert(token, Conn::new(sock));
                    // The handshake-completing ACK may have carried data.
                    self.drive(stack, proto, Event { token, events: EventMask::IN });
                }
            }
        }
        self.events = events;
        // Requests that queued up behind a streamed body become
        // serviceable the turn it drains. (Serving them can drain
        // another body: the list may grow under the walk.)
        let mut next = 0;
        while let Some(&token) = self.todo.get(next) {
            next += 1;
            if self.conns.get(&token).is_some_and(Conn::resumable) {
                self.drive(stack, proto, Event { token, events: EventMask::IN });
            }
        }
        let _ = stack.flush_output();
        while let Some(token) = self.todo.pop() {
            if self.conns.get(&token).is_some_and(Conn::finished) {
                if let Some(conn) = self.conns.remove(&token) {
                    let _ = stack.tcp_close(conn.sock);
                    let _ = self.queue.ctl_del(token);
                }
            }
        }
        self.replies - before
    }

    /// Handles one connection's readiness event.
    fn drive(&mut self, stack: &mut NetStack, proto: &mut impl Protocol, ev: Event) {
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return;
        };
        if ev.events.intersects(EventMask::IN | EventMask::RDHUP) {
            // A connection being closed is still read, so the stack's
            // queue drains, but what it says no longer matters.
            let had = conn.buf.len();
            recv_append(stack, conn.sock, &mut conn.buf);
            if conn.closing {
                conn.buf.truncate(had);
            }
            // Answer every whole request (pipelining); a streamed body
            // pauses the walk so replies stay ordered.
            let mut at = 0;
            while conn.body.is_none() && !conn.closing {
                let served = proto.serve(&conn.buf[at..], conn.out.tail());
                if served == Served::MORE {
                    break;
                }
                at += served.used;
                conn.closing = served.close;
                conn.body = (served.stream > 0).then_some((served.stream, 0));
                self.replies += 1;
            }
            conn.buf.drain(..at);
        }
        // After the peer's FIN no bytes can complete a partial request:
        // unless whole ones wait behind a body, what is left is garbage.
        if stack.tcp_peer_closed(conn.sock) && (conn.body.is_none() || conn.buf.is_empty()) {
            conn.closing = true;
        }
        let had_body = conn.body.is_some();
        flush_conn(&mut self.queue, stack, conn, proto.body());
        // The queue reports neither "a body drained with requests behind
        // it" nor "nothing more is owed": hand those to the turn's end.
        if had_body && conn.resumable() || conn.finished() {
            self.todo.push(ev.token);
        }
    }
}

/// Queues the connection's pending output — the backlog, then a body
/// straight from `body` — and watches `EPOLLOUT` exactly while some of
/// it waits for the peer's window.
fn flush_conn(queue: &mut EventQueue, stack: &mut NetStack, conn: &mut Conn, body: &[u8]) {
    if !conn.out.flush(stack, conn.sock) {
        // Connection is gone; nothing more can be delivered.
        conn.closing = true;
        conn.body = None;
    } else if let (true, Some((size, off))) = (conn.out.is_empty(), conn.body.as_mut()) {
        let sent = send_queued(stack, conn.sock, &body[*off..*size]);
        *off += sent.unwrap_or(0);
        // A `closing` mark (the peer half-closed, say) does not cut the
        // promised body short; only a failed connection abandons it.
        if *off >= *size || sent.is_none() {
            conn.body = None;
        }
        conn.closing |= sent.is_none();
    }
    let mut interest = EventMask::IN | EventMask::RDHUP;
    if !conn.out.is_empty() || conn.body.is_some() {
        interest |= EventMask::OUT;
    }
    let _ = queue.ctl_mod(conn.sock.0 as u64, interest);
}

#[cfg(test)]
impl Server {
    /// The most received bytes any connection holds unserved.
    pub(crate) fn max_buffered(&self) -> usize {
        self.conns.values().map(|c| c.buf.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
pub(crate) mod rig {
    //! What the servers' unit tests share: a client stack and a server
    //! stack on one wire, a server on the second, and one established
    //! connection from the first.

    use ukalloc::{AllocBackend, Allocator};
    use uknetstack::stack::{NetStack, SocketHandle};
    use uknetstack::testnet::{self, node, Network};
    use uknetstack::{Endpoint, Ipv4Addr};
    use ukplat::time::Tsc;

    pub(crate) fn mk_alloc(backend: AllocBackend) -> Box<dyn Allocator> {
        let mut a = backend.instantiate();
        a.init(1 << 22, 16 << 20).unwrap();
        a
    }

    pub(crate) struct Rig<S> {
        pub(crate) net: Network,
        pub(crate) ci: usize,
        pub(crate) si: usize,
        pub(crate) server: S,
        pub(crate) conn: SocketHandle,
        pub(crate) clock: Tsc,
        /// Where the client connects.
        pub(crate) ep: Endpoint,
        poll: fn(&mut S, &mut NetStack) -> u64,
    }

    impl<S> Rig<S> {
        /// Client 10.0.0.1, server 10.0.0.2 with `start`'s server on
        /// it, and the client's connection to `port`, accepted.
        pub(crate) fn new(
            port: u16,
            start: impl FnOnce(&mut NetStack) -> S,
            poll: fn(&mut S, &mut NetStack) -> u64,
        ) -> Self {
            let mut net = Network::new();
            let clock = Tsc::new(3_600_000_000);
            net.set_clock(&clock);
            let ci = net.attach(node(1, |_| {}));
            let mut ss = node(2, |_| {});
            let server = start(&mut ss);
            let si = net.attach(ss);
            let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), port);
            let conn = net.stack(ci).tcp_connect(ep).unwrap();
            let mut rig = Rig { net, ci, si, server, conn, clock, ep, poll };
            rig.turns(4);
            rig
        }

        /// One server turn on whatever the wire has delivered.
        pub(crate) fn poll(&mut self) -> u64 {
            (self.poll)(&mut self.server, self.net.stack(self.si))
        }

        /// `n` × (wire quiet, server turn), then the wire quiet again.
        pub(crate) fn turns(&mut self, n: usize) {
            for _ in 0..n {
                self.net.run_until_quiet(16);
                self.poll();
            }
            self.net.run_until_quiet(16);
        }

        pub(crate) fn server_stack(&mut self) -> &mut NetStack {
            self.net.stack(self.si)
        }

        /// Queues `bytes` on node `node`'s `conn` and pushes them to the
        /// wire.
        pub(crate) fn send_on(
            &mut self,
            node: usize,
            conn: SocketHandle,
            bytes: &[u8],
        ) -> ukplat::Result<usize> {
            let stack = self.net.stack(node);
            let n = stack.tcp_send_queued(conn, bytes)?;
            stack.flush_output().map(|()| n)
        }

        pub(crate) fn send(&mut self, bytes: &[u8]) {
            assert_eq!(self.send_on(self.ci, self.conn, bytes), Ok(bytes.len()));
        }

        /// What has arrived on node `node`'s `conn`, up to `max` bytes.
        pub(crate) fn recv_on(&mut self, node: usize, conn: SocketHandle, max: usize) -> Vec<u8> {
            testnet::tcp_recv(self.net.stack(node), conn, max).unwrap_or_default()
        }

        pub(crate) fn recv(&mut self) -> Vec<u8> {
            self.recv_on(self.ci, self.conn, 256 * 1024)
        }

        /// Connections on the server's stack once a closed one's short
        /// linger (10 ms) has run out.
        pub(crate) fn server_conns_after_linger(&mut self) -> usize {
            self.clock.advance_ns(50_000_000);
            self.net.step();
            self.server_stack().tcp_conn_count()
        }
    }
}
