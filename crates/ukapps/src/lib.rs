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
//! - [`loadgen`] — one in-process client loop, wrk-like
//!   ([`LoadGen::http`](loadgen::LoadGen::http)) or redis-benchmark-like
//!   ([`LoadGen::resp`](loadgen::LoadGen::resp));
//! - [`resp`] — the RESP codec `kvstore` and `loadgen` share: a borrowed
//!   parse with stated length caps, writers that append in place.
//!
//! **One connection loop.** `httpd` and `kvstore` are two protocols over
//! one event-driven server loop (the private `serve` module, §4.1's
//! epoll shape): the listener and every connection on one
//! [`EventQueue`](ukevent::EventQueue), a request read where it landed
//! in the connection's receive buffer, the reply written straight onto
//! the connection's send backlog (both kept for the connection's life),
//! and every turn's output sent as one TX burst.
//!
//! **The request path and the heap.** Serving a GET, a PING, a DEL, a
//! same-length SET or any HTTP 200/404/400 takes nothing from the host
//! heap in steady state; a SET that changes its value's length takes
//! exactly the new value, and a new key is copied once
//! (`tests/zero_alloc.rs` counts this, and `make lint` holds the four
//! files on that path — `serve.rs`, `resp.rs`, `kvstore.rs`, `httpd.rs`
//! — to it). The `ukalloc` backend each server is constructed with is
//! separate: it is charged per SET and per HTTP request, the allocator
//! axis of Figures 15 and 18.

pub mod httpd;
pub mod kvstore;
pub mod loadgen;
pub mod resp;
mod serve;
pub mod sqldb;
pub mod udpkv;
pub mod webcache;

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
