//! A Redis-style RESP key-value server.
//!
//! Speaks enough RESP (REdis Serialization Protocol) for
//! `redis-benchmark`-style GET/SET load with pipelining (the paper's
//! Figure 12 runs 30 connections, 100k requests, pipelining 16). Every
//! SET takes a block from a `ukalloc` backend and frees its key's old
//! one, so allocator choice affects SET throughput as in Figure 18.
//! `KvStore` is the RESP protocol over the crate's one event-driven
//! connection loop (the `serve` module, shared with `Httpd`).
//!
//! **What a command costs.** A command is read where it landed and
//! answered where it leaves: each connection keeps one receive buffer
//! and one send backlog; `tcp_recv_into` appends to the first,
//! [`resp::command`] borrows the command's words from it, the reply is
//! written straight onto the second, and the unconsumed remainder moves
//! down once per readiness event, not once per command. From the host
//! heap, per command: GET, PING, DEL and a SET that keeps its value's
//! length take nothing; a SET that changes the length takes one
//! exact-sized value (no capacity is kept back, so resident memory is
//! the bytes stored); the first SET of a key also copies the key. The
//! `ukalloc` backend is charged one `malloc` per SET and one `free` per
//! overwrite or DEL, whatever the host heap did.
//!
//! A peer that sends what can never be a command — a count above
//! [`resp::MAX_ARGS`], a bulk above [`resp::MAX_BULK`], a line that is
//! not RESP — gets `-ERR protocol` and is hung up on once that is
//! flushed; a peer that closes is reaped once every command it sent has
//! been answered.

use std::collections::HashMap;

use ukalloc::{Allocator, GpAddr};
use ukevent::EventQueue;
use uknetstack::stack::NetStack;
use ukplat::Result;

use crate::resp::{self, Cmd, Parse};
use crate::serve::{Protocol, Served, Server};

struct StoredValue {
    /// Exactly the value: no spare capacity.
    bytes: Box<[u8]>,
    gp: GpAddr,
}

/// The keys, their values and what was done to them — everything a
/// command touches besides the connection it arrived on.
struct Store {
    data: HashMap<Vec<u8>, StoredValue>,
    alloc: Box<dyn Allocator>,
    gets: u64,
    sets: u64,
    errors: u64,
}

/// The key-value server.
pub struct KvStore {
    server: Server,
    store: Store,
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("keys", &self.store.data.len())
            .field("gets", &self.store.gets)
            .field("sets", &self.store.sets)
            .finish()
    }
}

impl Store {
    /// Runs one command, appending its reply to `out`.
    fn exec(&mut self, cmd: &Cmd<'_>, out: &mut Vec<u8>) {
        let [name, key, val] = cmd.words;
        let is = |n: &[u8]| name.eq_ignore_ascii_case(n);
        match cmd.argc {
            0 => {
                self.errors += 1;
                resp::put_error(out, "ERR protocol");
            }
            1 if is(b"PING") => resp::put_simple(out, "PONG"),
            2 if is(b"GET") => {
                self.gets += 1;
                match self.data.get(key) {
                    Some(v) => resp::put_bulk(out, &v.bytes),
                    None => resp::put_nil(out),
                }
            }
            3 if is(b"SET") => {
                self.sets += 1;
                // Value storage comes from the ukalloc backend.
                let Some(gp) = self.alloc.malloc(val.len().max(16)) else {
                    resp::put_error(out, "OOM");
                    return;
                };
                match self.data.get_mut(key) {
                    Some(slot) => {
                        self.alloc.free(std::mem::replace(&mut slot.gp, gp));
                        if slot.bytes.len() == val.len() {
                            slot.bytes.copy_from_slice(val);
                        } else {
                            // ukcheck: allow(alloc) -- a SET that changes the value's
                            // length: one exact-sized block, so the store holds no slack
                            slot.bytes = Box::from(val);
                        }
                    }
                    None => {
                        let key = key.to_vec(); // ukcheck: allow(alloc) -- first SET of a key copies the key in
                        let bytes = Box::from(val); // ukcheck: allow(alloc) -- and its value, exact-sized
                        self.data.insert(key, StoredValue { bytes, gp });
                    }
                }
                resp::put_simple(out, "OK");
            }
            2 if is(b"DEL") => {
                let removed = self.data.remove(key).map(|old| self.alloc.free(old.gp));
                resp::put_int(out, i64::from(removed.is_some()));
            }
            _ => {
                self.errors += 1;
                resp::put_error(out, "ERR unknown command");
            }
        }
    }
}

impl Protocol for Store {
    fn serve(&mut self, input: &[u8], out: &mut Vec<u8>) -> Served {
        match resp::command(input) {
            Parse::Complete(cmd, used) => {
                self.exec(&cmd, out);
                Served { used, ..Served::MORE }
            }
            Parse::Incomplete => Served::MORE,
            Parse::Malformed => {
                // Nothing after this can be framed: answer, discard the
                // rest, hang up once flushed.
                self.errors += 1;
                resp::put_error(out, "ERR protocol");
                Served { used: input.len(), close: true, stream: 0 }
            }
        }
    }
}

impl KvStore {
    /// Starts listening on `port`; the listener joins the server's
    /// event queue immediately.
    // ukcheck: allow(alloc) -- constructor: the empty table
    pub fn new(stack: &mut NetStack, port: u16, alloc: Box<dyn Allocator>) -> Result<Self> {
        Ok(KvStore {
            server: Server::new(stack, port)?,
            store: Store { data: HashMap::new(), alloc, gets: 0, sets: 0, errors: 0 },
        })
    }

    /// GET operations served.
    pub fn gets(&self) -> u64 {
        self.store.gets
    }

    /// SET operations served.
    pub fn sets(&self) -> u64 {
        self.store.sets
    }

    /// Protocol errors.
    pub fn errors(&self) -> u64 {
        self.store.errors
    }

    /// Keys stored.
    pub fn len(&self) -> usize {
        self.store.data.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.data.is_empty()
    }

    /// Live connections.
    pub fn conn_count(&self) -> usize {
        self.server.conn_count()
    }

    /// The server's event queue (scheduler glue parks/wakes through it).
    pub fn event_queue_mut(&mut self) -> &mut EventQueue {
        self.server.event_queue_mut()
    }

    /// One turn of the event loop: accepts, and answers every complete
    /// pipelined command on the connections the queue reports, then
    /// sends all their replies as one TX burst. Returns the commands
    /// answered this call.
    pub fn poll(&mut self, stack: &mut NetStack) -> u64 {
        self.server.poll(stack, &mut self.store)
    }
}

/// Builds a RESP command array from words.
// ukcheck: allow(alloc) -- allocating convenience for clients and tests
pub fn resp_command(words: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    resp::put_command(&mut out, words);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::rig::{mk_alloc, Rig};
    use ukalloc::AllocBackend;
    use uknetstack::testnet::node;

    /// A client connected to a `KvStore` on port 6379.
    fn rig() -> Rig<KvStore> {
        let start = |s: &mut NetStack| KvStore::new(s, 6379, mk_alloc(AllocBackend::Mimalloc)).unwrap();
        let rig = Rig::new(6379, start, KvStore::poll);
        assert_eq!(rig.server.conn_count(), 1);
        rig
    }

    fn exec(kv: &mut KvStore, words: &[&[u8]]) -> Vec<u8> {
        let wire = resp_command(words);
        let Parse::Complete(cmd, _) = resp::command(&wire) else {
            panic!("a whole command");
        };
        let mut out = Vec::new();
        kv.store.exec(&cmd, &mut out);
        out
    }

    #[test]
    fn pipelined_get_set_over_network() {
        let mut rig = rig();
        // Pipeline: SET a 1, SET b 2, GET a, GET missing.
        let mut pipeline = Vec::new();
        pipeline.extend(resp_command(&[b"SET", b"a", b"1"]));
        pipeline.extend(resp_command(&[b"SET", b"b", b"2"]));
        pipeline.extend(resp_command(&[b"get", b"a"]));
        pipeline.extend(resp_command(&[b"GET", b"missing"]));
        rig.send(&pipeline);
        rig.turns(6);
        let text = String::from_utf8(rig.recv()).unwrap();
        assert_eq!(text, "+OK\r\n+OK\r\n$1\r\n1\r\n$-1\r\n");
        assert_eq!(rig.server.sets(), 2);
        assert_eq!(rig.server.gets(), 2);
    }

    /// One turn that answers pipelines on several connections hands the
    /// device all their replies in one TX burst, not one per connection.
    #[test]
    fn one_turn_sends_every_connections_replies_as_one_burst() {
        let mut rig = rig();
        let mut conns = vec![rig.conn];
        for _ in 0..3 {
            conns.push(rig.net.stack(rig.ci).tcp_connect(rig.ep).unwrap());
        }
        rig.turns(4);
        assert_eq!(rig.server.conn_count(), 4);
        let (mut pipeline, mut want) = (Vec::new(), Vec::new());
        for i in 0..4u8 {
            pipeline.extend(resp_command(&[b"SET", &[b'k', i], &[i; 40]]));
            pipeline.extend(resp_command(&[b"GET", &[b'k', i]]));
            resp::put_simple(&mut want, "OK");
            resp::put_bulk(&mut want, &[i; 40]);
        }
        for &conn in &conns {
            rig.send_on(rig.ci, conn, &pipeline).unwrap();
        }
        rig.net.run_until_quiet(16);
        let bursts = rig.server_stack().stats().tx_bursts;
        assert_eq!(rig.poll(), 4 * 8, "every command answered in this turn");
        assert_eq!(rig.server_stack().stats().tx_bursts - bursts, 1);
        rig.net.run_until_quiet(16);
        for &conn in &conns {
            assert_eq!(rig.recv_on(rig.ci, conn, 64 * 1024), want);
        }
    }

    #[test]
    fn set_overwrite_frees_old_allocation() {
        let mut ss = node(2, |_| {});
        let mut kv = KvStore::new(&mut ss, 6379, mk_alloc(AllocBackend::Mimalloc)).unwrap();
        for v in [&b"first"[..], b"second", b"third!"] {
            assert_eq!(exec(&mut kv, &[b"SET", b"k", v]), b"+OK\r\n");
            let mut want = Vec::new();
            resp::put_bulk(&mut want, v);
            assert_eq!(exec(&mut kv, &[b"GET", b"k"]), want);
        }
        assert_eq!(kv.len(), 1);
        let stats = kv.store.alloc.stats();
        assert_eq!(stats.alloc_count - stats.free_count, 1, "one live value");
        assert_eq!(exec(&mut kv, &[b"DEL", b"k"]), b":1\r\n");
        assert_eq!(exec(&mut kv, &[b"DEL", b"k"]), b":0\r\n");
        let stats = kv.store.alloc.stats();
        assert_eq!(stats.alloc_count, stats.free_count, "DEL frees the value");
    }

    #[test]
    fn unknown_and_empty_commands_are_errors() {
        let mut ss = node(2, |_| {});
        let mut kv = KvStore::new(&mut ss, 6379, mk_alloc(AllocBackend::Mimalloc)).unwrap();
        assert_eq!(exec(&mut kv, &[b"FLUSHALL"]), b"-ERR unknown command\r\n");
        assert_eq!(exec(&mut kv, &[b"GET", b"a", b"b", b"c"]), b"-ERR unknown command\r\n");
        assert_eq!(exec(&mut kv, &[]), b"-ERR protocol\r\n");
        assert_eq!(exec(&mut kv, &[b"ping"]), b"+PONG\r\n");
        assert_eq!(kv.errors(), 3);
    }

    /// Input that can never become a command is answered and hung up
    /// on, not buffered: each of these wedged the connection (or, the
    /// first, panicked the server) when "malformed" and "incomplete"
    /// were one answer.
    #[test]
    fn hostile_input_gets_a_protocol_error_and_a_close() {
        for bad in [
            &b"*576460752303423488\r\n$3\r\nGET\r\n"[..],
            b"hello world\r\n",
            b"\xff\xfe\xfd\r\n",
            b"*abc\r\n",
            b"*1\r\n$1048577\r\n",
        ] {
            let mut rig = rig();
            // A good command first: it is answered before the hang-up.
            let mut bytes = resp_command(&[b"PING"]);
            bytes.extend_from_slice(bad);
            bytes.extend(resp_command(&[b"PING"]));
            rig.send(&bytes);
            rig.turns(4);
            let what = String::from_utf8_lossy(bad).into_owned();
            assert_eq!(rig.recv(), b"+PONG\r\n-ERR protocol\r\n", "{what}");
            assert_eq!(rig.server.errors(), 1, "{what}");
            assert_eq!(rig.server.conn_count(), 0, "{what}: hung up");
            assert!(rig.net.stack(rig.ci).tcp_peer_closed(rig.conn), "{what}: FIN sent");
        }
    }

    #[test]
    fn a_closed_peer_is_reaped() {
        let mut rig = rig();
        rig.send(&resp_command(&[b"SET", b"k", b"v"]));
        rig.turns(4);
        assert_eq!(rig.recv(), b"+OK\r\n");
        rig.net.stack(rig.ci).tcp_close(rig.conn).unwrap();
        rig.turns(8);
        assert_eq!(rig.server.conn_count(), 0, "the server let go of the connection");
        // Both ends closed: the client's side sits out TIME_WAIT, the
        // server's is gone.
        assert_eq!(rig.server_conns_after_linger(), 0, "no CLOSE_WAIT left behind");
    }

    #[test]
    fn a_pipeline_sent_with_the_fin_is_answered_in_full_first() {
        let mut rig = rig();
        let mut pipeline = Vec::new();
        let mut want = Vec::new();
        for i in 0..16u8 {
            pipeline.extend(resp_command(&[b"SET", &[b'k', i], &[i; 40]]));
            pipeline.extend(resp_command(&[b"GET", &[b'k', i]]));
            resp::put_simple(&mut want, "OK");
            resp::put_bulk(&mut want, &[i; 40]);
        }
        // Half a command trails the pipeline: the FIN makes it garbage.
        pipeline.extend_from_slice(b"*2\r\n$3\r\nGET\r\n$5\r\nab");
        rig.send(&pipeline);
        rig.net.stack(rig.ci).tcp_close(rig.conn).unwrap();
        rig.turns(8);
        assert_eq!(rig.recv(), want);
        assert_eq!((rig.server.sets(), rig.server.gets()), (16, 16));
        assert_eq!(rig.server.conn_count(), 0);
        assert_eq!(rig.server_conns_after_linger(), 0);
    }
}
