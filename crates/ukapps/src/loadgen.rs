//! The in-process load generator: a wrk-alike and a
//! redis-benchmark-alike, one client loop.
//!
//! The paper drives nginx with `wrk` (14 threads, 30 connections, 1
//! minute, static 612 B page) and Redis with `redis-benchmark` (30
//! connections, 100 k requests, pipelining 16). [`LoadGen`] reproduces
//! the *connection structure* of both — N concurrent keep-alive
//! connections, each keeping `pipeline` requests in flight — over a
//! request writer and a reply framer: [`LoadGen::http`] repeats one GET
//! and frames by `Content-Length`, [`LoadGen::resp`] issues GETs or SETs
//! over a keyspace and frames with [`resp::value_len`].

use uknetstack::stack::{NetStack, SocketHandle};
use uknetstack::tcp::TcpState;
use uknetstack::Endpoint;
use ukplat::Result;

use crate::resp::{self, Parse};
use crate::serve::{recv_append, Backlog};

/// One client connection.
struct Conn {
    sock: SocketHandle,
    /// The handshake is done (checked until it is).
    established: bool,
    inflight: usize,
    /// Reply bytes not yet forming a whole reply.
    buf: Vec<u8>,
    /// Request bytes the socket has not yet accepted (partial writes).
    out: Backlog,
    /// Connection failed; its in-flight budget was returned.
    dead: bool,
}

impl Conn {
    /// The connection failed: its unanswered requests can never
    /// complete, so they go back to the issue budget for the surviving
    /// connections.
    fn fail(&mut self, issued: &mut u64) {
        self.dead = true;
        *issued = issued.saturating_sub(self.inflight as u64);
        self.inflight = 0;
    }
}

/// Which command mix a RESP run issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespOp {
    /// GET of pre-seeded keys.
    Get,
    /// SET with a small value.
    Set,
}

/// Appends the next request to a connection's backlog.
type Writer = Box<dyn FnMut(&mut Vec<u8>)>;

/// A closed-loop load generator over N keep-alive connections.
pub struct LoadGen {
    conns: Vec<Conn>,
    write: Writer,
    /// Measures the reply at the head of a connection's buffer.
    frame: fn(&[u8]) -> Parse<()>,
    pipeline: usize,
    completed: u64,
    issued: u64,
    bytes_read: u64,
    target_requests: u64,
}

impl std::fmt::Debug for LoadGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadGen")
            .field("conns", &self.conns.len())
            .field("completed", &self.completed)
            .finish()
    }
}

impl LoadGen {
    /// wrk-like: opens `nconns` connections to `target`, each keeping
    /// `pipeline` `GET path` requests in flight, and stops after
    /// `target_requests` responses.
    pub fn http(
        stack: &mut NetStack,
        target: Endpoint,
        path: &str,
        nconns: usize,
        pipeline: usize,
        target_requests: u64,
    ) -> Result<Self> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n");
        let write = move |out: &mut Vec<u8>| out.extend_from_slice(request.as_bytes());
        Self::new(stack, target, nconns, pipeline, target_requests, Box::new(write), http_reply_len)
    }

    /// redis-benchmark-like: opens `nconns` connections to `target`
    /// issuing `op` with the given pipeline depth over a `keyspace` of
    /// keys, and stops after `target_requests` replies.
    pub fn resp(
        stack: &mut NetStack,
        target: Endpoint,
        op: RespOp,
        nconns: usize,
        pipeline: usize,
        keyspace: u64,
        target_requests: u64,
    ) -> Result<Self> {
        let keyspace = keyspace.max(1);
        let mut cursor = 0u64;
        let write = move |out: &mut Vec<u8>| {
            let key = format!("key:{:012}", cursor % keyspace);
            cursor += 1;
            match op {
                RespOp::Get => resp::put_command(out, &[b"GET", key.as_bytes()]),
                RespOp::Set => {
                    resp::put_command(out, &[b"SET", key.as_bytes(), b"xxxxxxxxxxxxxxxxxxxxxxxx"])
                }
            }
        };
        Self::new(stack, target, nconns, pipeline, target_requests, Box::new(write), resp::value_len)
    }

    fn new(
        stack: &mut NetStack,
        target: Endpoint,
        nconns: usize,
        pipeline: usize,
        target_requests: u64,
        write: Writer,
        frame: fn(&[u8]) -> Parse<()>,
    ) -> Result<Self> {
        let conns = (0..nconns)
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
            .collect::<Result<_>>()?;
        Ok(LoadGen {
            conns,
            write,
            frame,
            pipeline: pipeline.max(1),
            completed: 0,
            issued: 0,
            bytes_read: 0,
            target_requests,
        })
    }

    /// Replies completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Whether the run is done.
    pub fn done(&self) -> bool {
        self.completed >= self.target_requests
    }

    /// Total reply bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Tops up every connection's pipeline and consumes the replies that
    /// arrived; requests are queued whole (a closed tx window never
    /// truncates one mid-line) and leave in one `flush_output`. Call
    /// between network steps. Returns replies completed this call.
    pub fn poll(&mut self, stack: &mut NetStack) -> u64 {
        let mut newly = 0;
        for c in &mut self.conns {
            c.established |= stack.tcp_state(c.sock) == Some(TcpState::Established);
            if c.dead || !c.established {
                continue;
            }
            while c.inflight < self.pipeline && self.issued < self.target_requests {
                (self.write)(c.out.tail());
                c.inflight += 1;
                self.issued += 1;
            }
            if !c.out.flush(stack, c.sock) {
                c.fail(&mut self.issued);
                continue;
            }
            self.bytes_read += recv_append(stack, c.sock, &mut c.buf) as u64;
            let mut at = 0;
            loop {
                match (self.frame)(&c.buf[at..]) {
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
        let _ = stack.flush_output();
        newly
    }
}

/// Measures the HTTP response at the head of `buf`: its header block
/// plus the `Content-Length` body once all of it is there.
fn http_reply_len(buf: &[u8]) -> Parse<()> {
    let Some(body_at) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) else {
        return Parse::Incomplete;
    };
    let len = std::str::from_utf8(&buf[..body_at]).ok().and_then(|head| {
        head.split("\r\n")
            .find_map(|l| l.strip_prefix("Content-Length:").or_else(|| l.strip_prefix("content-length:")))
            .map_or(Some(0), |v| v.trim().parse::<usize>().ok())
    });
    match len {
        None => Parse::Malformed,
        Some(len) if buf.len() >= body_at + len => Parse::Complete((), body_at + len),
        Some(_) => Parse::Incomplete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_len_parses_content_length() {
        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(http_reply_len(resp), Parse::Complete((), resp.len()));
        // Incomplete body.
        assert_eq!(http_reply_len(&resp[..resp.len() - 1]), Parse::Incomplete);
        // A length that is not a number frames nothing.
        assert_eq!(http_reply_len(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n"), Parse::Malformed);
    }

    #[test]
    fn response_len_handles_pipelined_buffer() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok".to_vec();
        let mut buf = one.clone();
        buf.extend_from_slice(&one);
        assert_eq!(http_reply_len(&buf), Parse::Complete((), one.len()));
    }
}
