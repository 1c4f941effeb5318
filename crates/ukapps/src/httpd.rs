//! An nginx-style HTTP/1.1 static file server.
//!
//! Serves a static page over keep-alive connections, like the paper's
//! wrk benchmark (Figure 13: "static 612B page"). Each request takes a
//! request block and (for a file) a response block from a `ukalloc`
//! backend and frees both, so the allocator choice shows up in
//! throughput exactly as in Figure 15.
//!
//! `Httpd` is the HTTP protocol over the crate's one event-driven
//! connection loop (the `serve` module, shared with `KvStore`). The
//! request line is parsed where it landed in the connection's buffer
//! (the path is a `&str` into it), the response is appended straight
//! onto the connection's send backlog, and a `/blob/<size>` body streams
//! out of one shared source buffer. A 200, 404 or 400 takes nothing
//! from the host heap once a connection's buffers have their size;
//! `/stats` (a JSON dump of the registry) and growing the blob source
//! are cold and allocate. The `ukalloc` backend is charged its two
//! `malloc`/`free` pairs per file request whatever the host heap did.

use std::collections::HashMap;
use std::rc::Rc;

use ukalloc::Allocator;
use ukevent::EventQueue;
use uknetstack::stack::NetStack;
use ukplat::{Errno, Result};

use crate::put_decimal;
use crate::serve::{Protocol, Served, Server};

/// The paper's standard test page size.
pub(crate) const DEFAULT_PAGE_SIZE: usize = 612;

/// Largest body `/blob/<size>` serves (bounds the shared source
/// buffer).
pub(crate) const BLOB_MAX: usize = 4 << 20;

/// Longest header block accepted (nginx's `large_client_header_buffers`
/// default): a peer that has sent this much without the blank line that
/// ends a request gets a 400 and a close instead of more buffer.
pub(crate) const MAX_HEADER: usize = 8 * 1024;

/// The deterministic byte at position `i` of every blob body (clients
/// verify transfers against this).
pub(crate) fn blob_byte(i: usize) -> u8 {
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

/// What the server serves and what it counted: everything a request
/// touches besides the connection it arrived on.
struct Http {
    files: HashMap<String, Rc<Vec<u8>>>,
    alloc: Box<dyn Allocator>,
    served: u64,
    errors: u64,
    /// Where every `/blob/<size>` body streams from (grown lazily to the
    /// largest size requested): application memory to super-segment
    /// with no intermediate copy.
    blob_src: Vec<u8>,
}

impl Protocol for Http {
    fn serve(&mut self, input: &[u8], out: &mut Vec<u8>) -> Served {
        let Some(end) = find_header_end(input) else {
            if input.len() < MAX_HEADER {
                return Served::MORE;
            }
            // No request ends in here, and none will be waited for any
            // longer.
            self.errors += 1;
            put_response(out, "400 Bad Request", b"header block too large");
            return Served { close: true, ..Served::MORE };
        };
        let req_gp = self.alloc.malloc(end.max(64));
        let mut served = Served { used: end, ..Served::MORE };
        match parse_request(&input[..end]) {
            Ok(path) => match parse_blob_path(path) {
                Some(size) if size <= BLOB_MAX => {
                    // Grow the shared source once; the body then streams
                    // straight from it into the connection's send queue
                    // — no per-request body materialization.
                    while self.blob_src.len() < size {
                        self.blob_src.push(blob_byte(self.blob_src.len()));
                    }
                    self.served += 1;
                    put_head(out, "200 OK", "", size);
                    served.stream = size;
                }
                Some(_) => {
                    self.errors += 1;
                    put_response(out, "404 Not Found", b"blob too large");
                }
                None if path == "/stats" => {
                    // The live observability plane: the whole ukstats
                    // registry as JSON, over the same send path.
                    self.served += 1;
                    // ukcheck: allow(alloc) -- cold /stats export: the
                    // registry snapshot and its JSON text
                    let body = ukstats::snapshot().to_json();
                    put_head(out, "200 OK", "Content-Type: application/json\r\n", body.len());
                    out.extend_from_slice(body.as_bytes());
                }
                None => match self.files.get(path) {
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
                },
            },
            Err(_) => {
                self.errors += 1;
                served.close = true;
                put_response(out, "400 Bad Request", b"bad request");
            }
        }
        if let Some(gp) = req_gp {
            self.alloc.free(gp);
        }
        served
    }

    fn body(&self) -> &[u8] {
        &self.blob_src
    }
}

/// The HTTP server.
pub struct Httpd {
    server: Server,
    http: Http,
}

impl std::fmt::Debug for Httpd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Httpd")
            .field("conns", &self.server.conn_count())
            .field("served", &self.http.served)
            .finish()
    }
}

impl Httpd {
    /// Starts listening on `port` of `stack`, serving buffers from
    /// `alloc` (already initialized). The listener joins the server's
    /// event queue immediately.
    // ukcheck: allow(alloc) -- constructor: the file table and the one
    // page `/` and `/index.html` share
    pub fn new(stack: &mut NetStack, port: u16, alloc: Box<dyn Allocator>) -> Result<Self> {
        let page = Rc::new(default_page());
        let mut files = HashMap::new();
        files.insert("/index.html".to_string(), Rc::clone(&page));
        files.insert("/".to_string(), page);
        Ok(Httpd {
            server: Server::new(stack, port)?,
            http: Http { files, alloc, served: 0, errors: 0, blob_src: Vec::new() },
        })
    }

    /// Adds (or replaces) a served file.
    // ukcheck: allow(alloc) -- configuration, not the request path
    pub fn add_file(&mut self, path: impl Into<String>, contents: Vec<u8>) {
        self.http.files.insert(path.into(), Rc::new(contents));
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.http.served
    }

    /// Malformed requests seen.
    pub fn errors(&self) -> u64 {
        self.http.errors
    }

    /// Live connections.
    pub fn conn_count(&self) -> usize {
        self.server.conn_count()
    }

    /// The server's event queue (scheduler glue parks/wakes through it).
    pub fn event_queue_mut(&mut self) -> &mut EventQueue {
        self.server.event_queue_mut()
    }

    /// Allocator statistics (live allocations should return to zero
    /// between requests).
    pub fn alloc_stats(&self) -> ukalloc::AllocStats {
        self.http.alloc.stats()
    }

    /// One turn of the event loop: accepts, reads and answers whatever
    /// the queue reports, then sends all the output as one TX burst.
    /// Returns the requests answered (404s and 400s included). Callers
    /// poll (benchmarks) or park a thread on the queue between turns.
    pub fn poll(&mut self, stack: &mut NetStack) -> u64 {
        self.server.poll(stack, &mut self.http)
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
    use crate::serve::rig::{mk_alloc, Rig};
    use ukalloc::AllocBackend;
    use uknetstack::testnet::node;

    /// A client connected to an `Httpd` on port 80.
    fn rig() -> Rig<Httpd> {
        let start = |s: &mut NetStack| Httpd::new(s, 80, mk_alloc(AllocBackend::Tlsf)).unwrap();
        Rig::new(80, start, Httpd::poll)
    }

    /// Sends `request`, gives the server eight turns and returns what
    /// came back.
    fn get(rig: &mut Rig<Httpd>, request: &[u8]) -> String {
        rig.send(request);
        rig.turns(8);
        String::from_utf8_lossy(&rig.recv()).into_owned()
    }

    fn header_len(resp: &[u8]) -> usize {
        resp.windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)
            .unwrap_or(0)
    }

    /// A slow reader: turns with `chunk` bytes read per turn until a
    /// whole header block and `body` bytes after it are in.
    fn read_slowly(rig: &mut Rig<Httpd>, chunk: usize, body: usize) -> Vec<u8> {
        let mut received = Vec::new();
        for _ in 0..2000 {
            rig.net.run_until_quiet(32);
            rig.poll();
            received.extend(rig.recv_on(rig.ci, rig.conn, chunk));
            let hdr = header_len(&received);
            if hdr > 0 && received.len() >= hdr + body {
                break;
            }
        }
        received
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
        let mut rig = rig();
        let text = get(&mut rig, b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("Content-Length: 612"));
        assert_eq!(rig.server.served(), 1);
        // No allocator leaks across requests.
        assert_eq!(rig.server.alloc_stats().cur_bytes, 0);
    }

    #[test]
    fn stats_endpoint_serves_live_registry_json() {
        let mut rig = rig();
        let text = get(&mut rig, b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
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
        assert_eq!(rig.server.served(), 1);
    }

    #[test]
    fn missing_file_is_404() {
        let mut rig = rig();
        assert!(get(&mut rig, b"GET /ghost HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));
        assert_eq!(rig.server.errors(), 1);
    }

    #[test]
    fn multiplexes_concurrent_connections_over_one_queue() {
        let mut rig = rig();
        let c2 = rig.net.attach(node(3, |_| {}));
        let conn2 = rig.net.stack(c2).tcp_connect(rig.ep).unwrap();
        rig.turns(8);
        assert_eq!(rig.server.conn_count(), 2, "both connections accepted");

        rig.send(b"GET / HTTP/1.1\r\n\r\n");
        rig.send_on(c2, conn2, b"GET /index.html HTTP/1.1\r\n\r\n").unwrap();
        rig.turns(8);
        for (ci, conn) in [(rig.ci, rig.conn), (c2, conn2)] {
            let resp = rig.recv_on(ci, conn, 64 * 1024);
            assert!(
                String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200 OK"),
                "client {ci} got a response"
            );
        }
        assert_eq!(rig.server.served(), 2);
    }

    #[test]
    fn partial_write_survives_closed_tx_window() {
        let mut rig = rig();
        // A body larger than the peer's whole receive window (65535)
        // cannot be delivered in one go: the tx window must close.
        let big = vec![0x42u8; 200 * 1024];
        rig.server.add_file("/big", big.clone());
        rig.send(b"GET /big HTTP/1.1\r\n\r\n");
        // Drive the network while the client drains its side slowly;
        // the server must keep the undelivered tail queued and resume
        // on EPOLLOUT edges instead of dropping bytes.
        let received = read_slowly(&mut rig, 16 * 1024, big.len());
        let text_head = String::from_utf8_lossy(&received[..64.min(received.len())]);
        assert!(text_head.starts_with("HTTP/1.1 200 OK"), "{text_head}");
        let hdr = header_len(&received);
        assert_eq!(
            received.len() - hdr,
            big.len(),
            "every body byte survived the closed-window stretch"
        );
        assert_eq!(&received[hdr..], &big[..], "no bytes dropped or reordered");
        assert_eq!(rig.server.served(), 1);
    }

    #[test]
    fn blob_handler_streams_large_bodies_through_the_fast_path() {
        let mut rig = rig();
        const SIZE: usize = 256 * 1024; // Several receive windows.
        rig.send(format!("GET /blob/{SIZE} HTTP/1.1\r\n\r\n").as_bytes());
        let received = read_slowly(&mut rig, 64 * 1024, SIZE);
        let text_head = String::from_utf8_lossy(&received[..64.min(received.len())]);
        assert!(text_head.starts_with("HTTP/1.1 200 OK"), "{text_head}");
        assert!(String::from_utf8_lossy(&received[..header_len(&received)])
            .contains(&format!("Content-Length: {SIZE}")));
        let body = &received[header_len(&received)..];
        assert_eq!(body.len(), SIZE, "whole blob delivered");
        for (i, &b) in body.iter().enumerate() {
            assert_eq!(b, blob_byte(i), "blob byte {i}");
        }
        assert_eq!(rig.server.served(), 1);
        // The transfer rode super-segments, not per-MSS frames.
        assert!(rig.server_stack().stats().tso_super_frames > 0);
    }

    #[test]
    fn requests_pipelined_behind_a_blob_are_served_in_order() {
        let mut rig = rig();
        const SIZE: usize = 100 * 1024;
        // A blob request and an index request in one write: the index
        // response must come after the full blob body.
        rig.send(
            format!("GET /blob/{SIZE} HTTP/1.1\r\n\r\nGET /index.html HTTP/1.1\r\n\r\n").as_bytes(),
        );
        // Past the blob and into the response behind it.
        let received = read_slowly(&mut rig, 64 * 1024, SIZE + 100);
        assert_eq!(rig.server.served(), 2, "both requests served");
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
        let mut rig = rig();
        const SIZE: usize = 200 * 1024; // Several receive windows.
        rig.send(format!("GET /blob/{SIZE} HTTP/1.1\r\n\r\n").as_bytes());
        rig.net.stack(rig.ci).tcp_close(rig.conn).unwrap(); // Half-close right away.
        let received = read_slowly(&mut rig, 64 * 1024, SIZE);
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
        assert_eq!(rig.server.conn_count(), 0, "connection reaped after the body");
    }

    #[test]
    fn oversized_blob_requests_are_rejected() {
        let mut rig = rig();
        let request = format!("GET /blob/{} HTTP/1.1\r\n\r\n", BLOB_MAX + 1);
        assert!(get(&mut rig, request.as_bytes()).starts_with("HTTP/1.1 404"));
        assert_eq!(rig.server.errors(), 1);
    }

    #[test]
    fn partial_request_then_fin_is_reaped() {
        let mut rig = rig();
        assert_eq!(rig.server.conn_count(), 1);
        // Half a request line, then FIN: no terminator will ever come.
        rig.send(b"GET / HTT");
        rig.net.stack(rig.ci).tcp_close(rig.conn).unwrap();
        rig.turns(6);
        assert_eq!(
            rig.server.conn_count(),
            0,
            "dead connection with unfinishable request must be reaped"
        );
        assert_eq!(rig.server.event_queue_mut().len(), 1, "only the listener remains");
    }

    /// A header block that never ends is not buffered forever: at
    /// `MAX_HEADER` bytes without a blank line the peer gets a 400 and
    /// a close, and what it sends afterwards is dropped.
    #[test]
    fn endless_header_block_is_cut_off_with_400() {
        let mut rig = rig();
        rig.send(b"GET / HTTP/1.1\r\n");
        let pad = [b"X-Pad: ".as_slice(), &[b'a'; 500], b"\r\n"].concat();
        let mut sent = 0;
        while sent < 2 * MAX_HEADER {
            // A send after the server hung up may fail; that is the point.
            sent += rig.send_on(rig.ci, rig.conn, &pad).unwrap_or(pad.len());
            rig.net.run_until_quiet(16);
            rig.poll();
            let buffered = rig.server.server.max_buffered();
            assert!(buffered < MAX_HEADER + 2048, "buffered {buffered} B of an endless header");
        }
        rig.turns(4);
        let resp = rig.recv();
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 400"), "{resp:?}");
        assert_eq!((rig.server.errors(), rig.server.served()), (1, 0));
        assert_eq!(rig.server.conn_count(), 0, "hung up");
        assert_eq!(rig.server.alloc_stats().cur_bytes, 0);
    }
}
