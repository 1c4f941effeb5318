//! Property-based tests for the application protocol engines.

mod common;

use std::collections::HashMap;

use proptest::prelude::*;

use common::{mk_alloc, Rig};
use ukalloc::{AllocBackend, AllocStats, Allocator};
use ukapps::kvstore::{resp_command, KvStore};
use ukapps::resp::{self, Parse};
use ukapps::sqldb::{parse, SqlDb, Statement, Value};
use ukapps::udpkv::{UdpKvMode, UdpKvServer};
use ukplat::time::Tsc;

fn db() -> SqlDb {
    let mut a = AllocBackend::Tlsf.instantiate();
    a.init(1 << 24, 32 << 20).unwrap();
    SqlDb::new(a)
}

fn words() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..6)
}

fn encode(words: &[Vec<u8>]) -> Vec<u8> {
    let refs: Vec<&[u8]> = words.iter().map(|w| w.as_slice()).collect();
    resp_command(&refs)
}

/// A parse of `buf` either stops short or stays inside it.
fn assert_in_bounds(buf: &[u8]) {
    if let Parse::Complete(_, used) = resp::command(buf) {
        assert!((1..=buf.len()).contains(&used), "command used {used} of {}", buf.len());
    }
    if let Parse::Complete((), used) = resp::value_len(buf) {
        assert!((1..=buf.len()).contains(&used), "value used {used} of {}", buf.len());
    }
}

/// One command of a valid pipeline over a four-key space: what to do,
/// to which key, with what value.
fn pipeline_command((op, key, val): (u8, u8, Vec<u8>)) -> Vec<u8> {
    let key = [b'k', b'0' + key];
    match op {
        0 | 1 => resp_command(&[b"SET", &key, &val]),
        2 | 3 => resp_command(&[b"GET", &key]),
        4 => resp_command(&[b"DEL", &key]),
        5 => resp_command(&[b"PING"]),
        6 => resp_command(&[b"FLUSHALL"]),
        // A simple string is a word as well.
        _ => b"*2\r\n+get\r\n+k1\r\n".to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// However the bytes of a valid pipeline are cut in two, the server
    /// sends the replies it sends when they arrive whole: the cursor,
    /// the once-per-poll compaction and the `Incomplete` path, end to
    /// end through `KvStore::poll` over the wire.
    #[test]
    fn kvstore_replies_do_not_depend_on_where_the_bytes_were_split(
        commands in proptest::collection::vec((0u8..8, 0u8..4, proptest::collection::vec(any::<u8>(), 0..48)), 1..7)
    ) {
        let pipeline: Vec<u8> = commands.into_iter().flat_map(pipeline_command).collect();
        let mut rig = Rig::new(6379, |s| KvStore::new(s, 6379, mk_alloc(AllocBackend::Tlsf)).unwrap(), KvStore::poll);
        let mut wipe = Vec::new();
        for key in b'0'..b'4' {
            wipe.extend(resp_command(&[b"DEL", &[b'k', key]]));
        }
        let whole = rig.exchange(&pipeline).to_vec();
        prop_assert!(!whole.is_empty());
        for cut in 0..=pipeline.len() {
            // Every cut starts from the empty store the whole one did.
            rig.exchange(&wipe);
            rig.send(&pipeline[..cut]);
            rig.turns(2);
            let early = rig.recv();
            let mut split = rig.reply[..early].to_vec();
            split.extend_from_slice(rig.exchange(&pipeline[cut..]));
            prop_assert_eq!(&split, &whole, "cut at {} of {}", cut, pipeline.len());
        }
        prop_assert_eq!(rig.server.conn_count(), 1, "a valid pipeline never costs the connection");
    }
}

/// A backend that reports a region half as long as the one it allocates
/// in, so every block it places in the upper half lies outside what the
/// store's heap backs: the store must answer `-OOM`, not panic or write
/// past the region.
struct Overhang(Box<dyn Allocator>);

impl Allocator for Overhang {
    fn name(&self) -> &'static str {
        "overhang"
    }
    fn init(&mut self, base: u64, len: usize) -> ukplat::Result<()> {
        self.0.init(base, len)
    }
    fn region(&self) -> (u64, usize) {
        let (base, len) = self.0.region();
        (base, len / 2)
    }
    fn malloc(&mut self, size: usize) -> Option<u64> {
        self.0.malloc(size)
    }
    fn memalign(&mut self, align: usize, size: usize) -> Option<u64> {
        self.0.memalign(align, size)
    }
    fn free(&mut self, ptr: u64) {
        self.0.free(ptr)
    }
    fn available(&self) -> usize {
        self.0.available()
    }
    fn stats(&self) -> AllocStats {
        self.0.stats()
    }
}

/// `inner` over `len` bytes, half of which it owns up to.
fn overhang(inner: AllocBackend, len: usize) -> Box<dyn Allocator> {
    let mut a = Overhang(inner.instantiate());
    a.init(1 << 22, len).unwrap();
    Box::new(a)
}

/// Every backend the store can be built on, and two that place blocks
/// past the region they report; whether a SET may be refused.
fn store_backends() -> Vec<(Box<dyn Allocator>, bool)> {
    let mut all: Vec<_> = AllocBackend::all().into_iter().map(|b| (mk_alloc(b), false)).collect();
    all.push((overhang(AllocBackend::Mimalloc, 128 * 1024), true));
    all.push((overhang(AllocBackend::BootAlloc, 4096), true));
    all
}

/// Runs `ops` — (SET/GET/DEL, key, value) — against a `KvStore` on
/// `alloc` and against a map, 16 commands a pipeline. Each reply must be
/// the map's answer (a refused SET, where allowed, changes neither), and
/// after each pipeline the key count and the backend's live blocks must
/// both equal the map's size. Returns the SETs refused.
fn run_against_model(
    alloc: Box<dyn Allocator>,
    may_refuse: bool,
    ops: &[(u8, u8, Vec<u8>)],
) -> usize {
    let name = alloc.name();
    let mut rig = Rig::new(6379, |s| KvStore::new(s, 6379, alloc).unwrap(), KvStore::poll);
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    let mut refused = 0;
    for chunk in ops.chunks(16) {
        let keys: Vec<[u8; 2]> = chunk.iter().map(|&(_, k, _)| [b'k', b'a' + k]).collect();
        let mut pipeline = Vec::new();
        for ((op, _, val), key) in chunk.iter().zip(&keys) {
            pipeline.extend(match op {
                0 => resp_command(&[b"SET", key, val]),
                1 => resp_command(&[b"GET", key]),
                _ => resp_command(&[b"DEL", key]),
            });
        }
        let mut replies = rig.exchange(&pipeline);
        for ((op, _, val), key) in chunk.iter().zip(&keys) {
            let Parse::Complete((), n) = resp::value_len(replies) else {
                panic!("{name}: a reply for every command");
            };
            let (reply, rest) = replies.split_at(n);
            replies = rest;
            let mut want = Vec::new();
            match op {
                0 if may_refuse && reply == b"-OOM\r\n" => {
                    refused += 1;
                    continue;
                }
                0 => {
                    model.insert(key.to_vec(), val.clone());
                    resp::put_simple(&mut want, "OK");
                }
                1 => match model.get(&key[..]) {
                    Some(v) => resp::put_bulk(&mut want, v),
                    None => resp::put_nil(&mut want),
                },
                _ => resp::put_int(&mut want, i64::from(model.remove(&key[..]).is_some())),
            }
            let what = ["SET", "GET", "DEL"][usize::from(*op).min(2)];
            assert_eq!(reply, want, "{name}: {what} {}", key[1] as char);
        }
        assert!(replies.is_empty(), "{name}: one reply per command");
        assert_eq!(rig.server.len(), model.len(), "{name}: keys");
        let live = rig.server.alloc_stats().live();
        assert_eq!(live, model.len() as u64, "{name}: one live block per key");
    }
    refused
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `KvStore` is a map, on every backend: random SET/GET/DEL runs over
    /// twelve keys — so the index stays at 16 slots, its chains wrap and
    /// deletes shift them back — answer as a `HashMap` does.
    #[test]
    fn kvstore_matches_a_map_on_every_backend(
        ops in proptest::collection::vec((0u8..3, 0u8..12, proptest::collection::vec(any::<u8>(), 0..80)), 1..160)
    ) {
        for (alloc, may_refuse) in store_backends() {
            run_against_model(alloc, may_refuse, &ops);
        }
    }
}

/// A block the backend places outside the region it reports is refused
/// with `-OOM` — the SET changes nothing, the block is given back — and
/// the store goes on answering.
#[test]
fn a_block_outside_the_region_is_an_oom_reply() {
    let sets: Vec<_> = (0..120u8).map(|i| (0, i % 12, vec![i; 40 + usize::from(i) % 24])).collect();
    let gets: Vec<_> = (0..12u8).map(|k| (1, k, Vec::new())).collect();
    for (inner, len) in [(AllocBackend::BootAlloc, 4096), (AllocBackend::Mimalloc, 128 * 1024)] {
        let ops: Vec<_> = sets.iter().chain(&gets).cloned().collect();
        let refused = run_against_model(overhang(inner, len), true, &ops);
        assert!(refused > 0, "{}: some blocks landed past the region", inner.name());
    }
}

proptest! {
    /// Words survive `put_command` → `command` as slices of the encoded
    /// buffer: the count, the kept words byte for byte, nothing copied.
    #[test]
    fn resp_roundtrip(words in words()) {
        let encoded = encode(&words);
        let Parse::Complete(cmd, used) = resp::command(&encoded) else {
            panic!("a whole command parses");
        };
        prop_assert_eq!(used, encoded.len());
        prop_assert_eq!(cmd.argc, words.len());
        let range = encoded.as_ptr_range();
        for (i, kept) in cmd.words.iter().enumerate() {
            match words.get(i) {
                Some(w) => {
                    prop_assert_eq!(kept, &w.as_slice());
                    prop_assert!(range.contains(&kept.as_ptr()) || kept.is_empty(), "word {} is borrowed", i);
                }
                None => prop_assert!(kept.is_empty()),
            }
        }
        // As a value, the same bytes measure the same.
        prop_assert_eq!(resp::value_len(&encoded), Parse::Complete((), encoded.len()));
    }

    /// Every proper prefix of a command is "incomplete": never a wrong
    /// parse, never "malformed", never a panic.
    #[test]
    fn resp_every_proper_prefix_is_incomplete(words in words()) {
        let encoded = encode(&words);
        for cut in 0..encoded.len() {
            prop_assert_eq!(resp::command(&encoded[..cut]), Parse::Incomplete, "command cut at {}", cut);
            prop_assert_eq!(resp::value_len(&encoded[..cut]), Parse::Incomplete, "value cut at {}", cut);
        }
    }

    /// Arbitrary bytes never panic the parsers or send them out of the
    /// buffer.
    #[test]
    fn resp_parser_tolerates_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        assert_in_bounds(&bytes);
    }

    /// Nor does a valid command with a few bytes overwritten — the
    /// inputs that get past the first byte and into the length checks.
    #[test]
    fn resp_parser_tolerates_mutated_commands(
        words in words(),
        edits in proptest::collection::vec((any::<u16>(), prop_oneof![
            any::<u8>(), Just(b'9'), Just(b'\r'), Just(b'\n'), Just(b'*'), Just(b'$'), Just(b'-'),
        ]), 1..4),
        tail in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let mut bytes = encode(&words);
        for (at, b) in edits {
            let at = at as usize % bytes.len();
            bytes[at] = b;
        }
        bytes.extend_from_slice(&tail);
        assert_in_bounds(&bytes);
    }

    /// Integer inserts always read back exactly through SELECT.
    #[test]
    fn sql_insert_select_consistency(values in proptest::collection::vec(any::<i32>(), 1..40)) {
        let mut db = db();
        db.execute("CREATE TABLE t (k, v)").unwrap();
        for (i, v) in values.iter().enumerate() {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {v})")).unwrap();
        }
        let rows = db.execute("SELECT v FROM t").unwrap();
        prop_assert_eq!(rows.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            let rows = db.execute(&format!("SELECT v FROM t WHERE k = {i}")).unwrap();
            prop_assert_eq!(&rows, &vec![vec![Value::Int(*v as i64)]]);
        }
    }

    /// Deleting every row frees every record allocation.
    #[test]
    fn sql_delete_releases_memory(n in 1u64..60) {
        let mut db = db();
        db.execute("CREATE TABLE t (k)").unwrap();
        for i in 0..n {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        for i in 0..n {
            db.execute(&format!("DELETE FROM t WHERE k = {i}")).unwrap();
        }
        prop_assert_eq!(db.row_count("t"), 0);
        prop_assert_eq!(db.alloc_stats().live(), 0);
    }

    /// The SQL parser never panics on arbitrary input strings.
    #[test]
    fn sql_parser_tolerates_garbage(s in "\\PC{0,80}") {
        let _ = parse(&s);
    }

    /// Text values with awkward (but quote-free) content survive the
    /// tokenizer.
    #[test]
    fn sql_text_roundtrip(s in "[a-zA-Z0-9 _.,!-]{0,30}") {
        let stmt = format!("INSERT INTO t VALUES ('{s}')");
        match parse(&stmt).unwrap() {
            Statement::Insert { values, .. } => {
                prop_assert_eq!(values, vec![Value::Text(s)]);
            }
            other => prop_assert!(false, "{other:?}"),
        }
    }

    /// The UDP KV server: SET-then-GET returns the stored value for
    /// arbitrary keys/values (space-free tokens per the protocol).
    #[test]
    fn udpkv_set_get_consistency(pairs in proptest::collection::vec(
        ("[a-z0-9]{1,12}", "[a-zA-Z0-9]{1,24}"), 1..30)
    ) {
        let tsc = Tsc::new(3_600_000_000);
        let mut server = UdpKvServer::new(UdpKvMode::UnikraftUknetdev, &tsc);
        for (k, v) in &pairs {
            let reply = server.handle(format!("S {k} {v}").as_bytes());
            prop_assert_eq!(reply, b"O".to_vec());
        }
        // Later writes win; reads agree with a model map.
        let mut model = std::collections::HashMap::new();
        for (k, v) in &pairs {
            model.insert(k.clone(), v.clone());
        }
        for (k, v) in &model {
            let reply = server.handle(format!("G {k}").as_bytes());
            prop_assert_eq!(reply, format!("V {v}").into_bytes());
        }
    }
}
