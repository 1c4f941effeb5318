//! The zero-allocation guard for the request path of the apps.
//!
//! Same shape as `crates/uknetstack/tests/zero_alloc.rs`: this binary
//! installs [`ukalloc::stats::CountingAlloc`] as its global allocator
//! and each test counts its own thread's allocations over one window.
//! The window holds a whole exchange — the client's send, the wire,
//! the server's `poll`, the wire again, the client's read — so what it
//! pins is "serving this costs the host heap N blocks", with the stack's
//! own zero (guarded in its crate) included.
//!
//! After warm-up (buffers, backlog and scratch vectors at their sizes):
//! a `KvStore` turn serving a 16-command GET pipeline takes nothing, no
//! SET or DEL takes anything (keys and values live in the `ukalloc`
//! backend's region) except the one insert that doubles the key index,
//! and an `Httpd` keep-alive `GET /` turn — `poll_ready_into` and all —
//! takes nothing.

mod common;

use common::{mk_alloc, Rig};
use ukalloc::stats::{AllocCounter, CountingAlloc};
use ukalloc::AllocBackend;
use ukapps::httpd::{default_page, Httpd};
use ukapps::kvstore::KvStore;
use ukapps::resp;
use uknetstack::stack::NetStack;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const KEYS: u8 = 16;

fn key(i: u8) -> [u8; 6] {
    [b'k', b'e', b'y', b':', b'a' + i, b'!']
}

/// A `KvStore` on the headline backend (mimalloc) with `KEYS` keys of
/// 100-byte values, every buffer warmed by a few rounds of the traffic
/// the tests measure.
fn kv_rig() -> Rig<KvStore> {
    let start = |s: &mut NetStack| KvStore::new(s, 6379, mk_alloc(AllocBackend::Mimalloc)).unwrap();
    let mut rig = Rig::new(6379, start, KvStore::poll);
    for round in 0..4u8 {
        let mut sets = Vec::new();
        for i in 0..KEYS {
            resp::put_command(&mut sets, &[b"SET", &key(i), &[round; 100]]);
        }
        assert_eq!(rig.exchange(&sets), b"+OK\r\n".repeat(KEYS as usize));
        let gets = get_pipeline();
        assert_eq!(rig.exchange(&gets).len(), KEYS as usize * (6 + 100 + 2));
    }
    rig
}

fn get_pipeline() -> Vec<u8> {
    let mut gets = Vec::new();
    for i in 0..KEYS {
        resp::put_command(&mut gets, &[b"GET", &key(i)]);
    }
    gets
}

/// Allocations the calling thread makes while `rig` answers `request`;
/// the reply is left in `rig.reply[..len]`.
fn allocs_to_answer<S>(rig: &mut Rig<S>, request: &[u8]) -> (u64, usize) {
    let counter = AllocCounter::start();
    let len = rig.exchange(request).len();
    (counter.allocs(), len)
}

#[test]
fn a_get_pipeline_is_served_without_touching_the_heap() {
    let mut rig = kv_rig();
    let gets = get_pipeline();
    let (allocs, len) = allocs_to_answer(&mut rig, &gets);
    assert_eq!(allocs, 0, "16 pipelined GETs");
    let mut want = Vec::new();
    for _ in 0..KEYS {
        resp::put_bulk(&mut want, &[3; 100]);
    }
    assert_eq!(&rig.reply[..len], want, "and they were answered");
    assert_eq!(rig.server.gets(), 5 * u64::from(KEYS));
}

fn command(words: &[&[u8]]) -> Vec<u8> {
    let mut cmd = Vec::new();
    resp::put_command(&mut cmd, words);
    cmd
}

#[test]
fn no_set_or_del_takes_the_host_heap() {
    let mut rig = kv_rig();
    let set = |i: u8, v: &[u8]| command(&[b"SET", &key(i), v]);
    let (same, shorter, longer) = (set(0, &[9; 100]), set(0, &[8; 40]), set(0, &[7; 101]));
    // The `ukalloc` backend's own bookkeeping meets these sizes once
    // before anything is counted.
    for warm in [&shorter, &longer, &same] {
        assert_eq!(rig.exchange(warm), b"+OK\r\n");
    }

    let del = command(&[b"DEL", &key(0)]);
    for (what, request, reply) in [
        ("same length", &same, &b"+OK\r\n"[..]),
        ("shorter", &shorter, b"+OK\r\n"),
        ("longer", &longer, b"+OK\r\n"),
        ("DEL", &del, b":1\r\n"),
        ("a deleted key SET again", &longer, b"+OK\r\n"),
    ] {
        let (allocs, len) = allocs_to_answer(&mut rig, request);
        assert_eq!((allocs, &rig.reply[..len]), (0, reply), "{what}");
    }
    let mut want = Vec::new();
    resp::put_bulk(&mut want, &[7; 101]);
    assert_eq!(rig.exchange(&command(&[b"GET", &key(0)])), want);
    assert_eq!(rig.server.len(), KEYS as usize);

    // New keys: the index (32 slots once the warm-up's 16 keys are in)
    // doubles when an insert would take it past 7/8 load — on the 29th
    // key, and only there.
    let mut grew = Vec::new();
    for i in KEYS..40 {
        let (allocs, len) = allocs_to_answer(&mut rig, &set(i, &[i; 100]));
        assert_eq!(&rig.reply[..len], b"+OK\r\n");
        if allocs != 0 {
            grew.push((rig.server.len(), allocs));
        }
    }
    assert_eq!(grew, [(29, 1)], "(keys after the insert, allocations)");
}

#[test]
fn a_keep_alive_get_is_served_without_touching_the_heap() {
    let mut rig = Rig::new(80, |s| Httpd::new(s, 80, mk_alloc(AllocBackend::Tlsf)).unwrap(), Httpd::poll);
    let request = b"GET / HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n";
    for _ in 0..4 {
        assert!(rig.exchange(request).ends_with(&default_page()));
    }
    let (allocs, len) = allocs_to_answer(&mut rig, request);
    assert_eq!(allocs, 0, "GET / on a warm keep-alive connection");
    assert!(rig.reply[..len].starts_with(b"HTTP/1.1 200 OK\r\n"));
    assert!(rig.reply[..len].ends_with(&default_page()));
    assert_eq!(rig.server.served(), 5);
    // A miss and a refusal are written the same way (the first 404
    // sizes the backlog for its body; the 400 also hangs up).
    assert!(rig.exchange(b"GET /ghost HTTP/1.1\r\n\r\n").starts_with(b"HTTP/1.1 404 "));
    for (request, status) in [
        (&b"GET /ghost HTTP/1.1\r\n\r\n"[..], &b"HTTP/1.1 404 "[..]),
        (b"POST / HTTP/1.1\r\n\r\n", b"HTTP/1.1 400 "),
    ] {
        let (allocs, len) = allocs_to_answer(&mut rig, request);
        assert!(rig.reply[..len].starts_with(status));
        assert_eq!(allocs, 0, "{}", String::from_utf8_lossy(status));
    }
    assert_eq!(rig.server.conn_count(), 0, "the 400 closed the connection");
}
