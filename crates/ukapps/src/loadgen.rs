//! In-process load generators: a wrk-alike and a redis-benchmark-alike.
//!
//! The paper drives nginx with `wrk` (14 threads, 30 connections, 1
//! minute, static 612 B page) and Redis with `redis-benchmark` (30
//! connections, 100 k requests, pipelining 16). These clients reproduce
//! the *connection structure*: N concurrent keep-alive connections, each
//! keeping `pipeline` requests in flight.

use uknetstack::stack::{NetStack, SocketHandle};
use uknetstack::Endpoint;
use ukplat::Result;

use crate::resp::{self, Parse};
use crate::{recv_append, Backlog};

/// One client connection of either generator.
struct Conn {
    sock: SocketHandle,
    established: bool,
    inflight: usize,
    /// Reply bytes not yet forming a whole reply.
    buf: Vec<u8>,
    /// Request bytes the socket has not yet accepted (partial writes).
    out: Backlog,
    /// Connection failed; its in-flight budget was returned.
    dead: bool,
}

/// Opens `nconns` connections to `target`.
fn connect_all(stack: &mut NetStack, target: Endpoint, nconns: usize) -> Result<Vec<Conn>> {
    (0..nconns)
        .map(|_| {
            Ok(Conn {
                sock: stack.tcp_connect(target)?,
                established: false,
                inflight: 0,
                buf: Vec::new(),
                out: Backlog::default(),
                dead: false,
            })
        })
        .collect()
}

impl Conn {
    /// Whether the handshake is done (checked until it is).
    fn ready(&mut self, stack: &NetStack) -> bool {
        self.established = self.established
            || matches!(
                stack.tcp_state(self.sock),
                Some(uknetstack::tcp::TcpState::Established)
            );
        self.established
    }

    /// The connection failed: its unanswered requests can never
    /// complete, so they go back to the issue budget for the surviving
    /// connections.
    fn fail(&mut self, issued: &mut u64) {
        self.dead = true;
        *issued = issued.saturating_sub(self.inflight as u64);
        self.inflight = 0;
    }
}

/// wrk-like HTTP load generator.
pub struct HttpLoadGen {
    conns: Vec<Conn>,
    /// The request every connection repeats.
    request: Vec<u8>,
    pipeline: usize,
    completed: u64,
    issued: u64,
    bytes_read: u64,
    target_requests: u64,
}

impl std::fmt::Debug for HttpLoadGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpLoadGen")
            .field("conns", &self.conns.len())
            .field("completed", &self.completed)
            .finish()
    }
}

impl HttpLoadGen {
    /// Opens `nconns` connections to `target`, requesting `path`,
    /// stopping after `target_requests` responses.
    pub fn new(
        stack: &mut NetStack,
        target: Endpoint,
        path: &str,
        nconns: usize,
        pipeline: usize,
        target_requests: u64,
    ) -> Result<Self> {
        Ok(HttpLoadGen {
            conns: connect_all(stack, target, nconns)?,
            request: format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n")
                .into_bytes(),
            pipeline: pipeline.max(1),
            completed: 0,
            issued: 0,
            bytes_read: 0,
            target_requests,
        })
    }

    /// Responses completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Whether the run is done.
    pub fn done(&self) -> bool {
        self.completed >= self.target_requests
    }

    /// Total response bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Sends requests and consumes responses. Call between network
    /// steps. Returns responses completed this call.
    pub fn poll(&mut self, stack: &mut NetStack) -> u64 {
        let mut newly = 0;
        for c in &mut self.conns {
            if c.dead || !c.ready(stack) {
                continue;
            }
            // Keep the pipeline full. Requests are queued whole and
            // flushed with partial-write handling: a closed tx window
            // never truncates a request mid-line.
            while c.inflight < self.pipeline && self.issued < self.target_requests {
                c.out.tail().extend_from_slice(&self.request);
                c.inflight += 1;
                self.issued += 1;
            }
            if !c.out.flush(stack, c.sock, NetStack::tcp_send) {
                c.fail(&mut self.issued);
                continue;
            }
            // Drain responses.
            self.bytes_read += recv_append(stack, c.sock, &mut c.buf) as u64;
            let mut at = 0;
            while let Some(len) = complete_response_len(&c.buf[at..]) {
                at += len;
                c.inflight = c.inflight.saturating_sub(1);
                self.completed += 1;
                newly += 1;
            }
            c.buf.drain(..at);
        }
        newly
    }
}

/// If `buf` starts with a complete HTTP response (headers +
/// Content-Length body), returns its total length.
fn complete_response_len(buf: &[u8]) -> Option<usize> {
    let hdr_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let headers = std::str::from_utf8(&buf[..hdr_end]).ok()?;
    let mut content_len = 0usize;
    for line in headers.split("\r\n") {
        if let Some(v) = line
            .strip_prefix("Content-Length:")
            .or_else(|| line.strip_prefix("content-length:"))
        {
            content_len = v.trim().parse().ok()?;
        }
    }
    let total = hdr_end + content_len;
    (buf.len() >= total).then_some(total)
}

/// Which command mix a RESP run issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespOp {
    /// GET of pre-seeded keys.
    Get,
    /// SET with a small value.
    Set,
}

/// redis-benchmark-like RESP load generator.
pub struct RespLoadGen {
    conns: Vec<Conn>,
    op: RespOp,
    pipeline: usize,
    completed: u64,
    issued: u64,
    key_cursor: u64,
    keyspace: u64,
    target_requests: u64,
}

impl std::fmt::Debug for RespLoadGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RespLoadGen")
            .field("op", &self.op)
            .field("completed", &self.completed)
            .finish()
    }
}

impl RespLoadGen {
    /// Opens `nconns` connections issuing `op` with the given pipeline
    /// depth over a `keyspace` of keys.
    pub fn new(
        stack: &mut NetStack,
        target: Endpoint,
        op: RespOp,
        nconns: usize,
        pipeline: usize,
        keyspace: u64,
        target_requests: u64,
    ) -> Result<Self> {
        Ok(RespLoadGen {
            conns: connect_all(stack, target, nconns)?,
            op,
            pipeline: pipeline.max(1),
            completed: 0,
            issued: 0,
            key_cursor: 0,
            keyspace: keyspace.max(1),
            target_requests,
        })
    }

    /// Responses completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Whether the run is done.
    pub fn done(&self) -> bool {
        self.completed >= self.target_requests
    }

    /// Sends commands and consumes replies; returns replies completed.
    pub fn poll(&mut self, stack: &mut NetStack) -> u64 {
        let mut newly = 0;
        for c in &mut self.conns {
            if c.dead || !c.ready(stack) {
                continue;
            }
            // Whole commands enter the backlog; the socket takes what
            // its send buffer admits, the rest waits for the window.
            while c.inflight < self.pipeline && self.issued < self.target_requests {
                let key = format!("key:{:012}", self.key_cursor % self.keyspace);
                self.key_cursor += 1;
                match self.op {
                    RespOp::Get => resp::put_command(c.out.tail(), &[b"GET", key.as_bytes()]),
                    RespOp::Set => resp::put_command(
                        c.out.tail(),
                        &[b"SET", key.as_bytes(), b"xxxxxxxxxxxxxxxxxxxxxxxx"],
                    ),
                }
                c.inflight += 1;
                self.issued += 1;
            }
            if !c.out.flush(stack, c.sock, NetStack::tcp_send) {
                c.fail(&mut self.issued);
                continue;
            }
            recv_append(stack, c.sock, &mut c.buf);
            let mut at = 0;
            loop {
                match resp::value_len(&c.buf[at..]) {
                    Parse::Complete((), used) => at += used,
                    Parse::Incomplete => break,
                    Parse::Malformed => {
                        // A reply stream that cannot be framed answers
                        // nothing that is still in flight.
                        c.fail(&mut self.issued);
                        break;
                    }
                }
                c.inflight = c.inflight.saturating_sub(1);
                self.completed += 1;
                newly += 1;
            }
            c.buf.drain(..at);
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_len_parses_content_length() {
        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(complete_response_len(resp), Some(resp.len()));
        // Incomplete body.
        assert_eq!(complete_response_len(&resp[..resp.len() - 1]), None);
    }

    #[test]
    fn response_len_handles_pipelined_buffer() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok".to_vec();
        let mut buf = one.clone();
        buf.extend_from_slice(&one);
        let len = complete_response_len(&buf).unwrap();
        assert_eq!(len, one.len());
    }
}
