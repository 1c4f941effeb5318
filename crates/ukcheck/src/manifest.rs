//! The lint manifest: which files are "hot", which crates are
//! Relaxed-only, and what the workspace walker skips.
//!
//! This is the written-down form of the repo's datapath map. A module
//! belongs here when a per-frame or per-segment code path runs through
//! it — the no-alloc and panic-free invariants apply to the whole
//! file, with justified allow escapes for the init-time and
//! cold-export islands inside it.

/// Files on which the hot-path passes (no-alloc, panic-free) run.
pub const HOT_FILES: &[&str] = &[
    // The neighbour table: every transmitted frame resolves its next
    // hop here (the parking queue and the codec beside it are cold).
    "crates/uknetstack/src/arp.rs",
    // Flow-table lookups run once per demuxed segment.
    "crates/uknetstack/src/flow.rs",
    // The timer queue: armed/cancelled per segment, advanced per pump.
    "crates/uknetstack/src/timer.rs",
    // The buffer pool: every frame takes and recycles through it.
    "crates/uknetdev/src/netbuf.rs",
    // Checksums run over every frame's bytes.
    "crates/uknetdev/src/csum.rs",
    // TSO cutting runs per super-segment on the host path.
    "crates/uknetdev/src/gso.rs",
    // The device model: every frame crosses it twice (TX burst, RX
    // inject/burst). Under `panic = "abort"` a panic here kills the
    // image, so the rule is checked where the frames go.
    "crates/uknetdev/src/virtio.rs",
    "crates/uknetdev/src/ring.rs",
    "crates/uknetdev/src/backend.rs",
    // The per-frame codecs: one header parsed and one emitted per
    // frame, per layer.
    "crates/uknetstack/src/eth.rs",
    "crates/uknetstack/src/ipv4.rs",
    "crates/uknetstack/src/udp.rs",
    "crates/uknetstack/src/icmp.rs",
    // Readiness cells: a watched socket publishes through one per
    // request, and a rising edge must not allocate (PR 18).
    "crates/ukevent/src/source.rs",
    // The apps: the request path runs once per command/request —
    // the one connection loop both servers share, then parse where the
    // bytes landed and reply onto the send backlog.
    "crates/ukapps/src/serve.rs",
    "crates/ukapps/src/resp.rs",
    "crates/ukapps/src/kvstore.rs",
    "crates/ukapps/src/httpd.rs",
    // The store's memory: every GET probes the key index and reads its
    // entry's block, every SET writes one, through the heap's checked
    // views.
    "crates/ukapps/src/kvindex.rs",
    "crates/ukalloc/src/heap.rs",
];

/// Source directories that are hot in their entirety.
pub const HOT_DIRS: &[&str] = &[
    // The per-pump sweep: demux, GRO, socket queues, output, timers —
    // every part of a `NetStack` and every file its `impl` is divided
    // into.
    "crates/uknetstack/src/stack/",
    // The TCP engine: segment ingest, emission, retransmission — every
    // part of a `Tcb` and every file its `impl` is divided into.
    "crates/uknetstack/src/tcp/",
    "crates/ukstats/src/",
    "crates/uktrace/src/",
];

/// Crates whose atomics must be `Relaxed`: their hot ops are
/// fire-and-forget counter RMWs, and anything stronger on those paths
/// is either a bug or needs a written justification.
pub const RELAXED_ONLY_DIRS: &[&str] = &["crates/ukstats/src/", "crates/uktrace/src/"];

/// The single-writer owners (the `shared-counter` lint): each of these
/// structs is the only writer of its counts and keeps them in a
/// `ukstats::CounterSet`, so a `ukstats::Counter` here is either a
/// count stored the expensive way or one with a second writer, which
/// its escape must name. An entry ending in `/` is a directory: every
/// file under it.
pub const SINGLE_WRITER_FILES: &[&str] = &[
    // `NetStack`: the accounting table (`stats.rs`) and every file that
    // counts into it.
    "crates/uknetstack/src/stack/",
    // `VirtioNet`: the device's burst counts.
    "crates/uknetdev/src/virtio.rs",
    // `QueueShared`: waits, parks, wakeups, edges, timeouts.
    "crates/ukevent/src/queue.rs",
];

/// Non-test line budgets (the `size` lint): the files the datapath
/// grew up in may shrink or split, not grow back. An entry ending in
/// `/` is a directory and holds **each** file under it to the budget.
/// A file's budget is the count at the PR that last set it, rounded up
/// to the next 50; a PR that needs more raises it here and says why.
pub const SIZE_BUDGETS: &[(&str, usize)] = &[
    // PR 23 split the 2925-line `stack.rs` the same way, the largest
    // file 587 lines: the single-file ratchet (2950) became the
    // directory rule. Deleting the `congestion_control`, `rack` and
    // `pacing` switches and the paths behind them took both directories
    // from 6357 to 6148 lines and left the largest file here, `mod.rs`,
    // at 569: 800 → 600.
    ("crates/uknetstack/src/stack/", 600),
    // PR 22 split the 2898-line `tcp.rs` into parts and jobs, the
    // largest 601 lines: a file that outgrows its budget wants
    // splitting again, not a bigger number. The switch deletion left
    // the largest here, `mod.rs`, at 602: 800 → 650. One way to build
    // a TCB (every queue starts empty) took `mod.rs` under 600, the
    // largest file here: 650 → 600.
    ("crates/uknetstack/src/tcp/", 600),
    // The in-process wire split the same way: `testnet.rs` (813 lines,
    // the crate's largest file) became `testnet/` — the cable and
    // `Network` (`mod.rs`, 397), the fault plan (`faults.rs`, 173) and
    // the forgers (`forge.rs`, 209); the largest rounded up to 50.
    ("crates/uknetstack/src/testnet/", 400),
    // `Httpd` and `KvStore` became two protocols over one connection
    // loop (`serve.rs`, 317 lines) and the two load generators one:
    // `httpd.rs` 476 → 267, `kvstore.rs` 257 → 209, `loadgen.rs`
    // 290 → 233.
    ("crates/ukapps/src/httpd.rs", 300),
    ("crates/ukapps/src/serve.rs", 350),
    ("crates/ukapps/src/loadgen.rs", 250),
    // The store's keys and values moved into the `ukalloc` backend's
    // region: the protocol (`kvstore.rs`, 209 → 191) and where the
    // bytes live (`kvindex.rs`, 220: the entry layout and the flat
    // index) are two files, and the heap that backs a region is one
    // more (`heap.rs`, 96).
    ("crates/ukapps/src/kvstore.rs", 200),
    ("crates/ukapps/src/kvindex.rs", 250),
    ("crates/ukalloc/src/heap.rs", 100),
    // The four-level hierarchical timer wheel (406 lines) became one
    // min-heap by deadline tick (244): no stack arms more than a few
    // dozen timers, and the wheel walked every elapsed tick to serve
    // them.
    ("crates/uknetstack/src/timer.rs", 250),
    // The cooperative and preemptive schedulers were two copies of one
    // run queue (`coop.rs` 202 lines, `preempt.rs` 208); they became one
    // scheduler whose policy sets the quantum (`scheduler.rs`, 228), and
    // the crate's `src/` went from 654 lines to 449.
    ("crates/uksched/src/", 250),
    // The image's own `pthread_getattr_np` (std's start-up stack query,
    // answered without glibc's scanf chain): 246 lines, most of them
    // the maps parser and its contract.
    ("crates/ukplat/src/stack.rs", 250),
];

/// Where the workspace's crates live, one directory each. Every
/// `crates/<c>/src/` of a library crate is a narrow API (the
/// `unused-pub` lint): a `pub` item there must be named by something
/// outside it — another crate, the crate's own `tests/`, the root
/// crate's `src/`, `tests/` and `examples/`, or `benchmark/`. A crate
/// that builds a binary (`src/main.rs` or `src/bin/`) is exempt: its
/// library exists for that binary. Every `crates/<c>/Cargo.toml` is
/// also held to the `unused-dep` lint: each `[dependencies]` entry is
/// named by a file in that crate's `src/`. A library crate here that the
/// root's `[workspace] members` lists must be reached from something that
/// runs (the `unreached-crate` lint, `reach.rs`).
pub const CRATES_DIR: &str = "crates";

/// The standalone benchmark package: read for references, and one of
/// the roots the `unreached-crate` lint walks `[dependencies]` from.
pub const BENCHMARK_DIR: &str = "benchmark";

/// Where the release profile lives (the `build-profile` lint): the one
/// file both build roots — the workspace and the standalone
/// `benchmark/` package — read.
pub const PROFILE_CONFIG: &str = ".cargo/config.toml";

/// What its `[profile.release]` holds, exactly: the settings every
/// `ukperf` number since PR 24 was measured under. A build without
/// them is ≈ 20 % slower on `tcp-rr` and says nothing about it.
pub const RELEASE_PROFILE: &[(&str, &str)] =
    &[("lto", "\"fat\""), ("codegen-units", "1"), ("panic", "\"abort\"")];

/// The one `rustflags` line it holds, and the table it sits in: every
/// binary links glibc statically, a `static-pie` with no loader and no
/// shared libc (≈ 0.8 MiB of every workload's resident set), its
/// segments aligned to the 64 KiB fault-around window (a resident set
/// that does not move with the ASLR base) and its relative relocations
/// packed as RELR. Any other `rustflags` — `[build]`'s, or a second
/// target table's, which cargo joins to this one — is a second place
/// the image's flags are written.
pub const STATIC_RUSTFLAGS: (&str, &str) = (
    "target.x86_64-unknown-linux-gnu",
    "[\"-C\", \"target-feature=+crt-static\", \
     \"-C\", \"link-arg=-Wl,-z,max-page-size=65536\", \
     \"-C\", \"link-arg=-Wl,-z,pack-relative-relocs\"]",
);

/// Directories whose packages' manifests (one level down) may not carry
/// a `[profile.release…]` table of their own, and neither may the root
/// manifest. `benchmark/Cargo.toml` is not linted: it changes only in a
/// PR whose subject is the benchmark.
pub const PROFILE_FREE_MANIFEST_DIRS: &[&str] = &["crates", "third_party"];

/// Directory names the reference scan of `unused-pub` and `unused-dep`
/// skips (it does read `tests/` and `examples/`, which the lint walk
/// does not).
pub const REFERENCE_SKIP_DIRS: &[&str] = &["target", "third_party", "fixtures", "out", ".git"];

/// Directory names the workspace walker never descends into.
pub const SKIP_DIRS: &[&str] = &[
    "target",
    "third_party", // vendored stand-ins, not this repo's code
    "tests",       // test harnesses may unwrap/allocate freely
    "examples",
    "fixtures", // ukcheck's own known-bad corpus
    "out",
    ".git",
];

/// Whether the hot-path passes apply to `rel` (a `/`-separated path
/// relative to the workspace root).
pub fn is_hot(rel: &str) -> bool {
    HOT_FILES.contains(&rel) || HOT_DIRS.iter().any(|d| rel.starts_with(d))
}

/// The non-test line budget of `rel`, if it has one: its own entry, or
/// that of a directory it lies under.
pub fn size_budget(rel: &str) -> Option<usize> {
    SIZE_BUDGETS
        .iter()
        .find(|(f, _)| *f == rel || (f.ends_with('/') && rel.starts_with(f)))
        .map(|&(_, b)| b)
}

/// Whether `rel` belongs to a single-writer owner.
pub fn is_single_writer(rel: &str) -> bool {
    SINGLE_WRITER_FILES.iter().any(|f| *f == rel || (f.ends_with('/') && rel.starts_with(f)))
}

/// The `crates/<c>/src/` tree `rel` lies in, if it lies in one.
pub fn crate_src(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix(CRATES_DIR)?.strip_prefix('/')?;
    let name = rest.split('/').next()?;
    let len = CRATES_DIR.len() + 1 + name.len() + "/src/".len();
    rel.get(..len).filter(|home| home.ends_with("/src/") && !name.is_empty())
}

/// Whether the Relaxed-only atomics policy applies to `rel`.
pub fn is_relaxed_only(rel: &str) -> bool {
    RELAXED_ONLY_DIRS.iter().any(|d| rel.starts_with(d))
}
