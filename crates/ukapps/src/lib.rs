//! Example applications and load generators (`ukapps`).
//!
//! The paper's evaluation workloads, reimplemented as real Rust servers
//! running over this workspace's own stack:
//!
//! - [`httpd`] — an nginx-stand-in: HTTP/1.1 keep-alive static server
//!   (Figures 13, 14, 15);
//! - [`kvstore`] — a Redis-stand-in: RESP protocol GET/SET server with
//!   pipelining (Figures 12, 18);
//! - [`sqldb`] — a SQLite-stand-in: SQL tokenizer/parser + row storage
//!   whose record memory flows through `ukalloc` (Figures 16, 17);
//! - [`webcache`] — the Figure 22 web cache opening files via SHFS or
//!   the full vfscore path;
//! - [`udpkv`] — the §6.4/Table 4 UDP key-value store with
//!   syscall-single, syscall-batched, DPDK-style and raw-`uknetdev`
//!   operation modes;
//! - [`loadgen`] — wrk-like and redis-benchmark-like in-process clients;
//! - [`resp`] — the RESP codec `kvstore` and `loadgen` share: a borrowed
//!   parse with stated length caps, writers that append in place.
//!
//! **The request path and the heap.** `httpd` and `kvstore` read a
//! request where it landed in the connection's receive buffer and write
//! the reply straight onto the connection's send [`Backlog`]; both
//! buffers are kept for the connection's life. Serving a GET, a PING, a
//! DEL, a same-length SET or any HTTP 200/404/400 takes nothing from the
//! host heap in steady state; a SET that changes its value's length
//! takes exactly the new value, and a new key is copied once
//! (`tests/zero_alloc.rs` counts this, `make lint` holds the three files
//! to it). That is separate from the `ukalloc` backend each server is
//! constructed with, which is charged per SET and per HTTP request as
//! before — it is the allocator axis of Figures 15 and 18.

pub mod httpd;
pub mod kvstore;
pub mod loadgen;
pub mod resp;
pub mod sqldb;
pub mod udpkv;
pub mod webcache;

use uknetstack::{NetStack, SocketHandle};
use ukplat::{Errno, Result};

/// A send backlog: bytes the application has produced and the socket
/// has not yet accepted. Replies are written straight onto its tail;
/// [`flush`](Backlog::flush) moves a cursor over what the socket took
/// instead of shifting the unsent rest down after every partial write.
/// The storage is retained across requests, so a connection in steady
/// state appends without touching the heap.
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

    /// Pushes pending bytes through `send` (`NetStack::tcp_send`, or
    /// `tcp_send_queued` when the caller emits one TX burst per turn)
    /// until the backlog is empty or the socket stops accepting
    /// (`Ok(0)`/`EAGAIN`: closed tx window, full send buffer — the rest
    /// waits for the caller's next turn). Returns `false` when the
    /// connection failed; the backlog is then discarded.
    pub(crate) fn flush(
        &mut self,
        stack: &mut NetStack,
        sock: SocketHandle,
        send: fn(&mut NetStack, SocketHandle, &[u8]) -> Result<usize>,
    ) -> bool {
        let mut alive = true;
        while self.sent < self.bytes.len() {
            match send(stack, sock, &self.bytes[self.sent..]) {
                Ok(0) | Err(Errno::Again) => break,
                Ok(n) => self.sent += n,
                Err(_) => {
                    alive = false;
                    self.sent = self.bytes.len();
                }
            }
        }
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
        alive
    }
}

/// Most bytes one [`recv_append`] reads.
const RECV_MAX: usize = 256 * 1024;

/// Appends what `sock` has received (up to [`RECV_MAX`] bytes) to
/// `buf` and returns how many bytes that was: the copying read, landing
/// in a buffer the connection keeps, so a read allocates only while
/// that buffer is still growing to its working size.
pub(crate) fn recv_append(stack: &mut NetStack, sock: SocketHandle, buf: &mut Vec<u8>) -> usize {
    let had = buf.len();
    buf.resize(had + stack.tcp_readable(sock).min(RECV_MAX), 0);
    let got = stack.tcp_recv_into(sock, &mut buf[had..]).unwrap_or(0);
    buf.truncate(had + got);
    got
}

/// Appends `v` in decimal — what `format!("{v}")` would, without the
/// temporary `String`.
pub(crate) fn put_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

pub use httpd::Httpd;
pub use kvstore::KvStore;
pub use sqldb::SqlDb;
pub use udpkv::{UdpKvMode, UdpKvServer};
pub use webcache::WebCache;
