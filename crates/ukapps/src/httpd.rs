//! An nginx-style HTTP/1.1 static file server — event-driven.
//!
//! Serves a static page over keep-alive connections, like the paper's
//! wrk benchmark (Figure 13: "static 612B page"). Each request takes a
//! request block and (for a file) a response block from a `ukalloc`
//! backend and frees both, so the allocator choice shows up in
//! throughput exactly as in Figure 15.
//!
//! Since the `ukevent` subsystem landed, the server is a single-loop
//! event-driven design (the §4.1 epoll shape): one
//! [`EventQueue`](ukevent::EventQueue) multiplexes the listener plus
//! every live connection. The listener is watched for `EPOLLIN`
//! (accept-queue non-empty); each connection for `EPOLLIN`/`EPOLLRDHUP`,
//! plus `EPOLLOUT` while a response is partially written — responses
//! that do not fit the connection's send buffer (peer receive window
//! closed) are queued and drained on writability instead of dropped.
//!
//! **What a request costs.** The request line is parsed where it
//! landed in the connection's buffer (the path is a `&str` into it),
//! the status line, headers and body are appended straight onto the
//! connection's send [`Backlog`], the ready events land in a scratch
//! the server keeps, and consumed request bytes leave the buffer once
//! per readiness event. A 200, 404 or 400 therefore takes nothing from
//! the host heap once a connection's buffers have their size; `/stats`
//! (a JSON dump of the registry) and growing the shared blob source are
//! cold and allocate. The `ukalloc` backend is charged its two
//! `malloc`/`free` pairs per file request whatever the host heap did.
//! Only connections with something to do are visited: the ones the
//! queue reports, plus those a turn left resumable or finished.

use std::collections::HashMap;
use std::rc::Rc;

use ukalloc::Allocator;
use ukevent::{Event, EventMask, EventQueue};
use uknetstack::stack::{NetStack, SocketHandle};
use ukplat::{Errno, Result};

use crate::{put_decimal, recv_append, Backlog};

/// The paper's standard test page size.
pub const DEFAULT_PAGE_SIZE: usize = 612;

/// Largest body `/blob/<size>` serves (bounds the shared source
/// buffer).
pub const BLOB_MAX: usize = 4 << 20;

/// Longest header block accepted (nginx's `large_client_header_buffers`
/// default): a peer that has sent this much without the blank line that
/// ends a request gets a 400 and a close instead of more buffer.
pub const MAX_HEADER: usize = 8 * 1024;

/// Most ready events one turn of the loop takes.
const MAX_EVENTS: usize = 64;

/// The deterministic byte at position `i` of every blob body (clients
/// verify transfers against this).
pub fn blob_byte(i: usize) -> u8 {
    ((i as u32).wrapping_mul(131).wrapping_add(7) % 251) as u8
}

/// Builds the standard 612-byte index page.
// ukcheck: allow(alloc) -- builds the page once, at start-up
pub fn default_page() -> Vec<u8> {
    let mut body = b"<html><head><title>unikraft-rs</title></head><body>".to_vec();
    while body.len() < DEFAULT_PAGE_SIZE - 14 {
        body.extend_from_slice(b"A");
    }
    body.extend_from_slice(b"</body></html>");
    body.truncate(DEFAULT_PAGE_SIZE);
    body
}

struct Conn {
    sock: SocketHandle,
    /// Received bytes not yet forming a complete request.
    buf: Vec<u8>,
    /// Response bytes accepted by us but not yet by the socket (the
    /// partial-write backlog).
    out: Backlog,
    /// An in-flight `/blob/<size>` body: `(size, offset)` into the
    /// server's shared blob source. The bytes go straight from that
    /// buffer into the connection's send queue (`tcp_send_queued`) —
    /// no per-request body copy, no backlog duplication. Further
    /// pipelined requests wait until the blob drains (responses stay
    /// ordered).
    blob: Option<(usize, usize)>,
    /// Close once `out` drains.
    closing: bool,
}

impl Conn {
    // ukcheck: allow(alloc) -- accept: a new connection's buffers, empty
    // until its first request and response size them
    fn new(sock: SocketHandle) -> Self {
        Conn {
            sock,
            buf: Vec::new(),
            out: Backlog::default(),
            blob: None,
            closing: false,
        }
    }

    /// Requests that queued up behind a streaming blob can be served.
    fn resumable(&self) -> bool {
        self.blob.is_none() && !self.closing && !self.buf.is_empty()
    }

    /// Nothing more is owed: close and forget.
    fn finished(&self) -> bool {
        self.closing && self.out.is_empty() && self.blob.is_none()
    }
}

/// The HTTP server.
pub struct Httpd {
    listener: SocketHandle,
    queue: EventQueue,
    conns: HashMap<u64, Conn>,
    files: HashMap<String, Rc<Vec<u8>>>,
    alloc: Box<dyn Allocator>,
    served: u64,
    errors: u64,
    /// Where each turn's ready events land.
    events: Vec<Event>,
    /// Connections a turn left with work the queue will not report:
    /// requests buffered behind a blob that has just drained, or
    /// nothing more owed (to be closed). Pushed where that happens,
    /// emptied at the end of every `poll`.
    todo: Vec<u64>,
    /// Shared deterministic source for `/blob/<size>` bodies, grown
    /// lazily to the largest size requested. Every blob response
    /// streams out of this one buffer — the large-transfer fast path
    /// from application memory to super-segment without intermediate
    /// copies.
    blob_src: Vec<u8>,
}

impl std::fmt::Debug for Httpd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Httpd")
            .field("conns", &self.conns.len())
            .field("served", &self.served)
            .finish()
    }
}

impl Httpd {
    /// Starts listening on `port` of `stack`, serving buffers from
    /// `alloc` (already initialized). The listener joins the server's
    /// event queue immediately.
    // ukcheck: allow(alloc) -- constructor: the tables, the scratch
    // vectors and the one page `/` and `/index.html` share
    pub fn new(stack: &mut NetStack, port: u16, alloc: Box<dyn Allocator>) -> Result<Self> {
        let listener = stack.tcp_listen(port)?;
        let mut queue = EventQueue::new();
        let src = stack.ready_source(listener);
        queue.ctl_add(listener.0 as u64, &src, EventMask::IN)?;
        let page = Rc::new(default_page());
        let mut files = HashMap::new();
        files.insert("/index.html".to_string(), Rc::clone(&page));
        files.insert("/".to_string(), page);
        Ok(Httpd {
            listener,
            queue,
            conns: HashMap::new(),
            files,
            alloc,
            served: 0,
            errors: 0,
            events: Vec::with_capacity(MAX_EVENTS),
            todo: Vec::with_capacity(MAX_EVENTS),
            blob_src: Vec::new(),
        })
    }

    /// Adds (or replaces) a served file.
    // ukcheck: allow(alloc) -- configuration, not the request path
    pub fn add_file(&mut self, path: impl Into<String>, contents: Vec<u8>) {
        self.files.insert(path.into(), Rc::new(contents));
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Malformed requests seen.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Live connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// The server's event queue (scheduler glue parks/wakes through it).
    pub fn event_queue_mut(&mut self) -> &mut EventQueue {
        &mut self.queue
    }

    /// Allocator statistics (live allocations should return to zero
    /// between requests).
    pub fn alloc_stats(&self) -> ukalloc::AllocStats {
        self.alloc.stats()
    }

    /// One turn of the event loop: drains the queue's ready events —
    /// accepting, reading, serving, and queueing partial writes — then
    /// emits every connection's pending output as **one TX burst**
    /// (`flush_output` once per turn, not once per send). Returns the
    /// number of responses completed this call.
    ///
    /// This is the single `EventQueue::wait`-shaped loop; callers embed
    /// it either by polling (benchmarks) or by parking a thread on the
    /// queue between turns (see the scheduler integration tests).
    pub fn poll(&mut self, stack: &mut NetStack) -> u64 {
        let before = self.served;
        let mut events = std::mem::take(&mut self.events);
        self.queue.poll_ready_into(&mut events, MAX_EVENTS);
        for &ev in &events {
            if ev.token == self.listener.0 as u64 {
                self.accept_ready(stack);
            } else {
                self.drive_conn(stack, ev);
            }
        }
        self.events = events;
        // Requests that queued up behind a streaming blob response
        // become serviceable the turn the blob drains. (Serving them
        // can drain another blob: the list may grow under the walk.)
        let mut next = 0;
        while let Some(&token) = self.todo.get(next) {
            next += 1;
            if self.conns.get(&token).is_some_and(Conn::resumable) {
                let events = EventMask::IN;
                self.drive_conn(stack, Event { token, events });
            }
        }
        let _ = stack.flush_output();
        // Close and deregister connections whose work is done.
        while let Some(token) = self.todo.pop() {
            if self.conns.get(&token).is_some_and(Conn::finished) {
                if let Some(conn) = self.conns.remove(&token) {
                    let _ = stack.tcp_close(conn.sock);
                    let _ = self.queue.ctl_del(token);
                }
            }
        }
        self.served - before
    }

    /// Accepts every queued connection and registers it on the queue.
    fn accept_ready(&mut self, stack: &mut NetStack) {
        while let Some(sock) = stack.tcp_accept(self.listener) {
            let token = sock.0 as u64;
            let src = stack.ready_source(sock);
            if self
                .queue
                .ctl_add(token, &src, EventMask::IN | EventMask::RDHUP)
                .is_ok()
            {
                self.conns.insert(token, Conn::new(sock));
                // The handshake-completing ACK may have carried data.
                let events = EventMask::IN;
                self.drive_conn(stack, Event { token, events });
            }
        }
    }

    /// Handles one connection's readiness event.
    fn drive_conn(&mut self, stack: &mut NetStack, ev: Event) {
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return;
        };
        if ev.events.intersects(EventMask::IN | EventMask::RDHUP) {
            // Read: append whatever arrived to the bytes left over. (A
            // connection being closed is still read, so the stack's
            // queue drains, but what it says no longer matters.)
            let had = conn.buf.len();
            recv_append(stack, conn.sock, &mut conn.buf);
            if conn.closing {
                conn.buf.truncate(had);
            }
            // Serve every complete request in the buffer (pipelining);
            // a streaming blob response pauses the loop so responses
            // stay ordered (poll resumes it once the blob drains).
            let mut at = 0;
            while conn.blob.is_none() && !conn.closing {
                let rest = &conn.buf[at..];
                let out = conn.out.tail();
                let Some(end) = find_header_end(rest) else {
                    if rest.len() >= MAX_HEADER {
                        // No request ends in here, and none will be
                        // waited for any longer.
                        self.errors += 1;
                        conn.closing = true;
                        put_response(out, "400 Bad Request", b"header block too large");
                    }
                    break;
                };
                let req_gp = self.alloc.malloc(end.max(64));
                match parse_request(&rest[..end]) {
                    Ok(path) => {
                        if let Some(size) = parse_blob_path(path) {
                            if size <= BLOB_MAX {
                                // Grow the shared source once; the body
                                // then streams straight from it into
                                // the connection's send queue — no
                                // per-request body materialization.
                                while self.blob_src.len() < size {
                                    self.blob_src.push(blob_byte(self.blob_src.len()));
                                }
                                conn.blob = Some((size, 0));
                                self.served += 1;
                                put_head(out, "200 OK", "", size);
                            } else {
                                self.errors += 1;
                                put_response(out, "404 Not Found", b"blob too large");
                            }
                        } else if path == "/stats" {
                            // The live observability plane: a JSON dump
                            // of the whole ukstats registry, served over
                            // the same queued send path as every other
                            // response.
                            self.served += 1;
                            // ukcheck: allow(alloc) -- cold /stats export: the
                            // registry snapshot and its JSON text
                            let body = ukstats::snapshot().to_json();
                            put_head(out, "200 OK", "Content-Type: application/json\r\n", body.len());
                            out.extend_from_slice(body.as_bytes());
                        } else {
                            match self.files.get(path) {
                                Some(body) => {
                                    let resp_gp = self.alloc.malloc(body.len() + 128);
                                    put_response(out, "200 OK", body);
                                    if let Some(gp) = resp_gp {
                                        self.alloc.free(gp);
                                    }
                                    self.served += 1;
                                }
                                None => {
                                    self.errors += 1;
                                    put_response(out, "404 Not Found", b"not found");
                                }
                            }
                        }
                    }
                    Err(_) => {
                        self.errors += 1;
                        conn.closing = true;
                        put_response(out, "400 Bad Request", b"bad request");
                    }
                }
                if let Some(gp) = req_gp {
                    self.alloc.free(gp);
                }
                at += end;
            }
            // Served requests leave the buffer in one move.
            conn.buf.drain(..at);
        }
        // Always try to flush: an EPOLLOUT edge (tx window reopened)
        // lands here, and freshly queued responses go out immediately.
        let had_blob = conn.blob.is_some();
        Self::flush_conn(&mut self.queue, stack, conn, &self.blob_src);
        // After the peer's FIN no bytes can complete a partial request,
        // so any non-request residue in `buf` is discardable garbage.
        if stack.tcp_peer_closed(conn.sock) && find_header_end(&conn.buf).is_none() {
            conn.closing = true;
        }
        // The queue reports neither "a blob drained with requests
        // buffered behind it" nor "nothing more is owed": hand those to
        // the end of this turn.
        if had_blob && conn.resumable() || conn.finished() {
            self.todo.push(ev.token);
        }
    }

    /// Queues pending response bytes on the socket (the device push
    /// happens once per event-loop turn in [`poll`](Self::poll)),
    /// keeping what the send buffer refuses (closed tx window) and
    /// adjusting `EPOLLOUT` interest so the event loop resumes exactly
    /// when it can progress. After the header backlog drains, an
    /// in-flight blob body streams directly from the shared source
    /// buffer into the send queue — the only copy the server makes.
    fn flush_conn(queue: &mut EventQueue, stack: &mut NetStack, conn: &mut Conn, blob: &[u8]) {
        if !conn.out.flush(stack, conn.sock, NetStack::tcp_send_queued) {
            // Connection is gone; nothing more can be delivered.
            conn.closing = true;
            conn.blob = None;
        } else if conn.out.is_empty() {
            if let Some((size, off)) = conn.blob.as_mut() {
                let mut dead = false;
                while *off < *size {
                    match stack.tcp_send_queued(conn.sock, &blob[*off..*size]) {
                        Ok(0) | Err(ukplat::Errno::Again) => break,
                        Ok(n) => *off += n,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                // The blob survives an unrelated `closing` mark (e.g.
                // the peer half-closed its write side): the promised
                // Content-Length worth of body still goes out, and
                // only then does the reap close the socket. Only a
                // failed connection abandons the stream.
                if *off >= *size || dead {
                    conn.blob = None;
                }
                if dead {
                    conn.closing = true;
                }
            }
        }
        let token = conn.sock.0 as u64;
        let mut interest = EventMask::IN | EventMask::RDHUP;
        if !conn.out.is_empty() || conn.blob.is_some() {
            interest |= EventMask::OUT;
        }
        let _ = queue.ctl_mod(token, interest);
    }
}

/// Index one past the `\r\n\r\n` terminating the header block.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// `/blob/<size>` → `Some(size)`; anything else → `None`.
fn parse_blob_path(path: &str) -> Option<usize> {
    path.strip_prefix("/blob/")?.parse().ok()
}

/// Parses the request line where it lies, returning the path.
fn parse_request(req: &[u8]) -> Result<&str> {
    let line_end = req
        .windows(2)
        .position(|w| w == b"\r\n")
        .ok_or(Errno::Inval)?;
    let line = std::str::from_utf8(&req[..line_end]).map_err(|_| Errno::Inval)?;
    let mut parts = line.split(' ');
    let method = parts.next().ok_or(Errno::Inval)?;
    let path = parts.next().ok_or(Errno::Inval)?;
    let version = parts.next().ok_or(Errno::Inval)?;
    if method != "GET" && method != "HEAD" {
        return Err(Errno::Inval);
    }
    if !version.starts_with("HTTP/1.") {
        return Err(Errno::Inval);
    }
    Ok(path)
}

/// Appends the status line and headers of a response whose body is
/// `len` bytes (`extra` is zero or more whole header lines).
fn put_head(out: &mut Vec<u8>, status: &str, extra: &str, len: usize) {
    out.extend_from_slice(b"HTTP/1.1 ");
    out.extend_from_slice(status.as_bytes());
    out.extend_from_slice(b"\r\nServer: unikraft-rs\r\n");
    out.extend_from_slice(extra.as_bytes());
    out.extend_from_slice(b"Content-Length: ");
    put_decimal(out, len as u64);
    out.extend_from_slice(b"\r\nConnection: keep-alive\r\n\r\n");
}

/// Appends a whole response.
fn put_response(out: &mut Vec<u8>, status: &str, body: &[u8]) {
    put_head(out, status, "", body.len());
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukalloc::AllocBackend;
    use uknetstack::testnet::{self, node, Network};
    use uknetstack::{Endpoint, Ipv4Addr};
    

    fn mk_alloc() -> Box<dyn Allocator> {
        let mut a = AllocBackend::Tlsf.instantiate();
        a.init(1 << 22, 8 << 20).unwrap();
        a
    }

    #[test]
    fn default_page_is_612_bytes() {
        assert_eq!(default_page().len(), DEFAULT_PAGE_SIZE);
    }

    #[test]
    fn parse_request_extracts_path() {
        assert_eq!(
            parse_request(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n").unwrap(),
            "/index.html"
        );
        assert!(parse_request(b"POST / HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_request(b"garbage").is_err());
    }

    #[test]
    fn serves_request_over_real_stack() {
        let mut net = Network::new();
        let client_idx = net.attach(node(1, |_| {}));
        let mut server_stack = node(2, |_| {});
        let mut httpd = Httpd::new(&mut server_stack, 80, mk_alloc()).unwrap();
        let server_idx = net.attach(server_stack);

        let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);
        let conn = net.stack(client_idx).tcp_connect(server_ep).unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(server_idx));
        }
        net.stack(client_idx)
            .tcp_send(conn, b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(server_idx));
        }
        let resp = testnet::tcp_recv(net.stack(client_idx), conn, 64 * 1024).unwrap();
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("Content-Length: 612"));
        assert_eq!(httpd.served(), 1);
        // No allocator leaks across requests.
        assert_eq!(httpd.alloc_stats().cur_bytes, 0);
    }

    #[test]
    fn stats_endpoint_serves_live_registry_json() {
        let mut net = Network::new();
        let ci = net.attach(node(1, |_| {}));
        let mut ss = node(2, |_| {});
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        net.stack(ci)
            .tcp_send(conn, b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        let resp = testnet::tcp_recv(net.stack(ci), conn, 256 * 1024).unwrap();
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("Content-Type: application/json"));
        let body = &text[text.find("\r\n\r\n").unwrap() + 4..];
        assert!(body.starts_with('{') && body.ends_with('}'), "JSON body");
        if ukstats::COMPILED_IN {
            // The datapath that carried this very request shows up in
            // the report it served.
            assert!(body.contains("\"netstack.rx_frames\":"), "{body}");
            assert!(body.contains("\"netstack.demux_tcp\":"));
            assert!(body.contains("\"netdev.tx_frames\":"));
            assert!(body.contains("\"netstack.pump_ns\":{\"count\":"));
            // As does the ACK policy's accounting, reason by reason.
            for name in ["acks_piggybacked", "pure_acks_tx", "delack_fires", "window_updates_tx"] {
                assert!(body.contains(&format!("\"netstack.tcp.{name}\":")), "{name}: {body}");
            }
        }
        assert_eq!(httpd.served(), 1);
    }

    #[test]
    fn missing_file_is_404() {
        let mut net = Network::new();
        let ci = net.attach(node(1, |_| {}));
        let mut ss = node(2, |_| {});
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..4 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        net.stack(ci)
            .tcp_send(conn, b"GET /ghost HTTP/1.1\r\n\r\n")
            .unwrap();
        for _ in 0..4 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        let resp = testnet::tcp_recv(net.stack(ci), conn, 4096).unwrap();
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 404"));
        assert_eq!(httpd.errors(), 1);
    }

    #[test]
    fn multiplexes_concurrent_connections_over_one_queue() {
        let mut net = Network::new();
        let c1 = net.attach(node(1, |_| {}));
        let c2 = net.attach(node(3, |_| {}));
        let mut ss = node(2, |_| {});
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);

        let conn1 = net.stack(c1).tcp_connect(ep).unwrap();
        let conn2 = net.stack(c2).tcp_connect(ep).unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        assert_eq!(httpd.conn_count(), 2, "both connections accepted");

        net.stack(c1)
            .tcp_send(conn1, b"GET / HTTP/1.1\r\n\r\n")
            .unwrap();
        net.stack(c2)
            .tcp_send(conn2, b"GET /index.html HTTP/1.1\r\n\r\n")
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        for (ci, conn) in [(c1, conn1), (c2, conn2)] {
            let resp = testnet::tcp_recv(net.stack(ci), conn, 64 * 1024).unwrap();
            assert!(
                String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200 OK"),
                "client {ci} got a response"
            );
        }
        assert_eq!(httpd.served(), 2);
    }

    #[test]
    fn partial_write_survives_closed_tx_window() {
        let mut net = Network::new();
        let ci = net.attach(node(1, |_| {}));
        let mut ss = node(2, |_| {});
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        // A body larger than the peer's whole receive window (65535)
        // cannot be delivered in one go: the tx window must close.
        let big = vec![0x42u8; 200 * 1024];
        httpd.add_file("/big", big.clone());
        let si = net.attach(ss);

        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        net.stack(ci)
            .tcp_send(conn, b"GET /big HTTP/1.1\r\n\r\n")
            .unwrap();
        // Drive the network while the client drains its side slowly;
        // the server must keep the undelivered tail queued and resume
        // on EPOLLOUT edges instead of dropping bytes.
        let mut received = Vec::new();
        for _ in 0..600 {
            net.run_until_quiet(32);
            httpd.poll(net.stack(si));
            if let Ok(chunk) = testnet::tcp_recv(net.stack(ci), conn, 16 * 1024) {
                received.extend_from_slice(&chunk);
            }
            let expected_len = big.len() + header_len(&received);
            if !received.is_empty() && received.len() >= expected_len {
                break;
            }
        }
        let text_head = String::from_utf8_lossy(&received[..64.min(received.len())]);
        assert!(text_head.starts_with("HTTP/1.1 200 OK"), "{text_head}");
        let hdr = header_len(&received);
        assert_eq!(
            received.len() - hdr,
            big.len(),
            "every body byte survived the closed-window stretch"
        );
        assert_eq!(&received[hdr..], &big[..], "no bytes dropped or reordered");
        assert_eq!(httpd.served(), 1);
    }

    fn header_len(resp: &[u8]) -> usize {
        resp.windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)
            .unwrap_or(0)
    }

    #[test]
    fn blob_handler_streams_large_bodies_through_the_fast_path() {
        let mut net = Network::new();
        let ci = net.attach(node(1, |_| {}));
        let mut ss = node(2, |_| {});
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        const SIZE: usize = 256 * 1024; // Several receive windows.
        net.stack(ci)
            .tcp_send(conn, format!("GET /blob/{SIZE} HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        let mut received = Vec::new();
        for _ in 0..2000 {
            net.run_until_quiet(32);
            httpd.poll(net.stack(si));
            if let Ok(chunk) = testnet::tcp_recv(net.stack(ci), conn, 64 * 1024) {
                received.extend_from_slice(&chunk);
            }
            if !received.is_empty() {
                let hdr = header_len(&received);
                if hdr > 0 && received.len() >= hdr + SIZE {
                    break;
                }
            }
        }
        let text_head = String::from_utf8_lossy(&received[..64.min(received.len())]);
        assert!(text_head.starts_with("HTTP/1.1 200 OK"), "{text_head}");
        assert!(String::from_utf8_lossy(&received[..header_len(&received)])
            .contains(&format!("Content-Length: {SIZE}")));
        let body = &received[header_len(&received)..];
        assert_eq!(body.len(), SIZE, "whole blob delivered");
        for (i, &b) in body.iter().enumerate() {
            assert_eq!(b, blob_byte(i), "blob byte {i}");
        }
        assert_eq!(httpd.served(), 1);
        // The transfer rode super-segments, not per-MSS frames.
        assert!(net.stack(si).stats().tso_super_frames > 0);
    }

    #[test]
    fn requests_pipelined_behind_a_blob_are_served_in_order() {
        let mut net = Network::new();
        let ci = net.attach(node(1, |_| {}));
        let mut ss = node(2, |_| {});
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        const SIZE: usize = 100 * 1024;
        // A blob request and an index request in one write: the index
        // response must come after the full blob body.
        net.stack(ci)
            .tcp_send(
                conn,
                format!("GET /blob/{SIZE} HTTP/1.1\r\n\r\nGET /index.html HTTP/1.1\r\n\r\n")
                    .as_bytes(),
            )
            .unwrap();
        let mut received = Vec::new();
        for _ in 0..2000 {
            net.run_until_quiet(32);
            httpd.poll(net.stack(si));
            if let Ok(chunk) = testnet::tcp_recv(net.stack(ci), conn, 64 * 1024) {
                received.extend_from_slice(&chunk);
            }
            if httpd.served() == 2 && net.stack(si).tcp_send_capacity(conn) > 0 {
                // Both responses queued; drain the tail.
                let hdr1 = header_len(&received);
                if hdr1 > 0 && received.len() >= hdr1 + SIZE + 100 {
                    break;
                }
            }
        }
        assert_eq!(httpd.served(), 2, "both requests served");
        let hdr1 = header_len(&received);
        let body1 = &received[hdr1..hdr1 + SIZE];
        for (i, &b) in body1.iter().enumerate() {
            assert_eq!(b, blob_byte(i), "blob byte {i} precedes the second response");
        }
        let rest = &received[hdr1 + SIZE..];
        assert!(
            String::from_utf8_lossy(rest).starts_with("HTTP/1.1 200 OK"),
            "index response follows the blob intact"
        );
    }

    #[test]
    fn blob_completes_after_peer_half_close() {
        // A client that sends its request and immediately shuts its
        // write side (FIN) must still receive the entire promised
        // Content-Length body — a half-close is not an abort.
        let mut net = Network::new();
        let ci = net.attach(node(1, |_| {}));
        let mut ss = node(2, |_| {});
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        const SIZE: usize = 200 * 1024; // Several receive windows.
        net.stack(ci)
            .tcp_send(conn, format!("GET /blob/{SIZE} HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        net.stack(ci).tcp_close(conn).unwrap(); // Half-close right away.
        let mut received = Vec::new();
        for _ in 0..2000 {
            net.run_until_quiet(32);
            httpd.poll(net.stack(si));
            if let Ok(chunk) = testnet::tcp_recv(net.stack(ci), conn, 64 * 1024) {
                received.extend_from_slice(&chunk);
            }
            let hdr = header_len(&received);
            if hdr > 0 && received.len() >= hdr + SIZE {
                break;
            }
        }
        let hdr = header_len(&received);
        assert_eq!(
            received.len() - hdr,
            SIZE,
            "full body delivered despite the early FIN"
        );
        let body = &received[hdr..];
        for (i, &b) in body.iter().enumerate() {
            assert_eq!(b, blob_byte(i), "blob byte {i}");
        }
        assert_eq!(httpd.conn_count(), 0, "connection reaped after the body");
    }

    #[test]
    fn oversized_blob_requests_are_rejected() {
        let mut net = Network::new();
        let ci = net.attach(node(1, |_| {}));
        let mut ss = node(2, |_| {});
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..4 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        net.stack(ci)
            .tcp_send(conn, format!("GET /blob/{} HTTP/1.1\r\n\r\n", BLOB_MAX + 1).as_bytes())
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        let resp = testnet::tcp_recv(net.stack(ci), conn, 4096).unwrap();
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 404"));
        assert_eq!(httpd.errors(), 1);
    }

    #[test]
    fn partial_request_then_fin_is_reaped() {
        let mut net = Network::new();
        let ci = net.attach(node(1, |_| {}));
        let mut ss = node(2, |_| {});
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..4 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        assert_eq!(httpd.conn_count(), 1);
        // Half a request line, then FIN: no terminator will ever come.
        net.stack(ci).tcp_send(conn, b"GET / HTT").unwrap();
        net.stack(ci).tcp_close(conn).unwrap();
        for _ in 0..6 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        assert_eq!(
            httpd.conn_count(),
            0,
            "dead connection with unfinishable request must be reaped"
        );
        assert_eq!(httpd.event_queue_mut().len(), 1, "only the listener remains");
    }

    /// A header block that never ends is not buffered forever: at
    /// `MAX_HEADER` bytes without a blank line the peer gets a 400 and
    /// a close, and what it sends afterwards is dropped.
    #[test]
    fn endless_header_block_is_cut_off_with_400() {
        let mut net = Network::new();
        let ci = net.attach(node(1, |_| {}));
        let mut ss = node(2, |_| {});
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..4 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        net.stack(ci).tcp_send(conn, b"GET / HTTP/1.1\r\n").unwrap();
        let pad = [b"X-Pad: ".as_slice(), &[b'a'; 500], b"\r\n"].concat();
        let mut sent = 0;
        while sent < 2 * MAX_HEADER {
            // A send after the server hung up may fail; that is the point.
            sent += net.stack(ci).tcp_send(conn, &pad).unwrap_or(pad.len());
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
            let buffered = httpd.conns.values().map(|c| c.buf.len()).max().unwrap_or(0);
            assert!(buffered < MAX_HEADER + 2048, "buffered {buffered} B of an endless header");
        }
        for _ in 0..4 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        let resp = testnet::tcp_recv(net.stack(ci), conn, 4096).unwrap();
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 400"), "{resp:?}");
        assert_eq!((httpd.errors(), httpd.served()), (1, 0));
        assert_eq!(httpd.conn_count(), 0, "hung up");
        assert_eq!(httpd.alloc_stats().cur_bytes, 0);
    }
}
