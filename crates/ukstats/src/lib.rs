//! `ukstats`: a global, lock-free registry of named counters, gauges and
//! log-bucketed latency histograms.
//!
//! Unikraft exports per-library state through `ukstore`; the evaluation
//! (Figs. 10–13 style throughput/latency curves) depends on measuring
//! *inside* the unikernel without perturbing the hot path. This crate is
//! that substrate:
//!
//! * **Registration** happens at subsystem construction time
//!   ([`Counter::register`], [`Gauge::register`], [`CounterSet::new`],
//!   [`Histogram::register`]). Counter and gauge slots are static
//!   atomics; registering the same name twice returns the same slot, so
//!   counters aggregate across instances. Registration may take a lock
//!   and touch the heap — it is *setup-time only*.
//! * **Counts** come in two kinds. A [`Counter`] is a shared slot any
//!   number of writers add to: one relaxed atomic RMW, a `lock` prefix
//!   per add. A [`CounterSet`] is a struct's own list of counts with
//!   exactly one writer: a plain load and store on the owner's cell,
//!   which is at once the owner's view (`get`) and its share of the
//!   name's total, merged on read — [`snapshot`] adds every live set to
//!   the shared slot, and a dropped set folds into it, so a total never
//!   goes backwards.
//! * **Distributions** follow the one-writer rule too: a [`Histogram`]
//!   is its owner's cells, and [`Histogram::record`] is plain loads and
//!   stores on them — no `lock`-prefixed RMW. [`snapshot`] merges every
//!   live histogram of a name with what the dropped ones folded into the
//!   name's retired total: counts, sums and buckets add, the minimum is
//!   the least minimum and the maximum the greatest. The gauges are
//!   relaxed atomics on pre-resolved `&'static` slots. Nothing on the
//!   recording side locks, allocates or looks a name up: the zero-alloc
//!   tier-1 tests run with stats enabled and still assert 0.000
//!   allocs/frame.
//! * **Snapshots** ([`snapshot`]) walk the registry under the
//!   registration lock and render to plain structs (and JSON via
//!   [`Snapshot::to_json`]) — they allocate, and belong on the control
//!   plane (`/stats`, bench reports, tests), never in `pump`.
//!
//! Histograms are log-bucketed in the HDR shape: power-of-two octaves with
//! 8 linear sub-buckets each, so any recorded value lands in a bucket whose
//! bounds are within 12.5 % of the value. Quantiles ([`Histogram::quantile`])
//! return the upper bound of the bucket holding the rank — the naive
//! sorted-vec quantile is guaranteed to lie inside that bucket, which is
//! exactly what the property tests check.
//!
//! Building with `--no-default-features` compiles every handle down to a
//! zero-sized no-op: `add`/`record` become empty inline functions and the
//! registry reports itself [`COMPILED_IN`]` == false`. A [`CounterSet`]
//! still counts — it is its owner's state — and only its link into the
//! registry goes; a [`Histogram`] records nothing.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
#[cfg(feature = "stats")]
use std::sync::Mutex;

/// Whether the stats plane is compiled in (`stats` feature).
pub const COMPILED_IN: bool = cfg!(feature = "stats");

/// Counter slots available before [`Counter::register`] panics.
#[cfg(feature = "stats")]
const MAX_COUNTERS: usize = 256;
/// Gauge slots available before [`Gauge::register`] panics.
#[cfg(feature = "stats")]
const MAX_GAUGES: usize = 64;

const SUB_BUCKETS: usize = 8; // 3 bits of sub-bucket precision per octave.
#[cfg_attr(not(feature = "stats"), allow(dead_code))]
const NUM_BUCKETS: usize = 61 * SUB_BUCKETS + SUB_BUCKETS; // 496

/// Maps a value to its HDR-shaped bucket index.
///
/// Values below 8 get exact unit buckets; above that, each power-of-two
/// octave is split into 8 linear sub-buckets.
#[cfg_attr(not(feature = "stats"), allow(dead_code))]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let shift = msb - 3;
        (shift + 1) * SUB_BUCKETS + ((v >> shift) as usize & (SUB_BUCKETS - 1))
    }
}

/// Inclusive `(low, high)` value bounds of bucket `idx`.
#[cfg_attr(not(feature = "stats"), allow(dead_code))]
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB_BUCKETS {
        (idx as u64, idx as u64)
    } else {
        let shift = idx / SUB_BUCKETS - 1;
        let base = ((SUB_BUCKETS + idx % SUB_BUCKETS) as u64) << shift;
        (base, base + ((1u64 << shift) - 1))
    }
}

/// Adds `n` to a cell that has exactly one writer: a plain load and
/// store, exact for that writer, and a reader on another thread sees
/// the old value or the new one.
#[inline(always)]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
// ukcheck: allow(unused-pub) -- the rows of the public `Snapshot::counters`
pub struct CounterSnap {
    pub name: &'static str,
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
// ukcheck: allow(unused-pub) -- the rows of the public `Snapshot::gauges`
pub struct GaugeSnap {
    pub name: &'static str,
    pub value: u64,
}

/// One histogram in a snapshot: totals plus the three headline quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
// ukcheck: allow(unused-pub) -- the rows of the public `Snapshot::hists`, and
// what `Snapshot::hist` returns
pub struct HistSnap {
    pub name: &'static str,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: Vec<CounterSnap>,
    pub gauges: Vec<GaugeSnap>,
    pub hists: Vec<HistSnap>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnap> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a JSON object (hand-rolled — the registry
    /// has no serde dependency; names are static identifiers that never
    /// need escaping).
    // ukcheck: allow(alloc) -- cold /stats export path; the hot ops are
    // the Relaxed atomic add/store/observe on the slot arrays
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name, c.value));
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", g.name, g.value));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let min = if h.count == 0 { 0 } else { h.min };
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{},\"p99\":{},\"p999\":{}}}",
                h.name, h.count, h.sum, min, h.max, h.p50, h.p99, h.p999
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(feature = "stats")]
struct Index {
    counters: Vec<&'static str>,
    gauges: Vec<&'static str>,
    /// Every histogram name, with what its dropped owners recorded.
    hists: Vec<(&'static str, imp::HistTotal)>,
    /// Every live [`CounterSet`]: its cells, and the counter slot each
    /// cell's name resolved to.
    sets: Vec<(Arc<[AtomicU64]>, Vec<usize>)>,
    /// Every live [`Histogram`]: its cells, and the slot of its name
    /// in `hists`.
    hist_cells: Vec<(Arc<imp::HistCells>, usize)>,
}

#[cfg(feature = "stats")]
static INDEX: Mutex<Index> = Mutex::new(Index {
    counters: Vec::new(),   // ukcheck: allow(alloc) -- const-eval empty Vec, no heap
    gauges: Vec::new(),     // ukcheck: allow(alloc) -- const-eval empty Vec, no heap
    hists: Vec::new(),      // ukcheck: allow(alloc) -- const-eval empty Vec, no heap
    sets: Vec::new(),       // ukcheck: allow(alloc) -- const-eval empty Vec, no heap
    hist_cells: Vec::new(), // ukcheck: allow(alloc) -- const-eval empty Vec, no heap
});

/// The slot of `name` among `names`, appended if new.
///
/// # Panics
///
/// Panics when `names` already holds `max` others: slots are static.
#[cfg(feature = "stats")]
fn slot_of(names: &mut Vec<&'static str>, name: &'static str, max: usize) -> usize {
    names.iter().position(|n| *n == name).unwrap_or_else(|| {
        assert!(names.len() < max, "ukstats: slots exhausted registering {name}");
        names.push(name);
        names.len() - 1
    })
}

/// The registry index. A panic while holding the lock leaves it
/// structurally valid (names and sets are only appended or removed
/// whole), so a poisoned lock is recovered rather than cascaded into
/// every later user.
#[cfg(feature = "stats")]
fn index() -> std::sync::MutexGuard<'static, Index> {
    INDEX.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(feature = "stats")]
mod imp {
    use super::*;

    // `const` items with interior mutability are re-instantiated per array
    // element, which is exactly what static slot arrays need.
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);

    static COUNTERS: [AtomicU64; MAX_COUNTERS] = [ZERO; MAX_COUNTERS];
    static GAUGES: [AtomicU64; MAX_GAUGES] = [ZERO; MAX_GAUGES];

    /// A monotonically increasing counter. `Copy`: handles are meant to be
    /// resolved once at registration and embedded in the owning struct.
    #[derive(Clone, Copy)]
    pub struct Counter {
        slot: &'static AtomicU64,
    }

    impl Counter {
        /// Registers (or re-resolves) the counter named `name`.
        ///
        /// # Panics
        ///
        /// Panics if more than `MAX_COUNTERS` distinct names register.
        pub fn register(name: &'static str) -> Counter {
            Counter { slot: &COUNTERS[slot_of(&mut index().counters, name, MAX_COUNTERS)] }
        }

        /// Adds `n`: one relaxed atomic add, the whole hot path.
        #[inline(always)]
        pub fn add(&self, n: u64) {
            self.slot.fetch_add(n, Relaxed);
        }

        /// Adds one.
        #[inline(always)]
        pub fn inc(&self) {
            self.add(1);
        }

        /// Current value of the shared slot alone — what live
        /// [`CounterSet`]s hold for this name shows in
        /// [`snapshot`] only.
        pub fn get(&self) -> u64 {
            self.slot.load(Relaxed)
        }
    }

    /// Links a new set's cells into the registry, resolving each name to
    /// its counter slot.
    // ukcheck: allow(alloc) -- set construction is registration: once per
    // owner, on the control plane
    pub(super) fn link_set(names: &[&'static str], cells: &Arc<[AtomicU64]>) {
        let mut idx = index();
        let slots =
            names.iter().map(|name| slot_of(&mut idx.counters, name, MAX_COUNTERS)).collect();
        idx.sets.push((cells.clone(), slots));
    }

    /// Folds a dying set into the shared slots of its names and unlinks
    /// it, under the lock [`snapshot`] takes: a snapshot sees the set's
    /// counts in the set or in the slots, never both and never neither.
    pub(super) fn fold_set(cells: &Arc<[AtomicU64]>) {
        let mut idx = index();
        if let Some(at) = idx.sets.iter().position(|(c, _)| Arc::ptr_eq(c, cells)) {
            let (cells, slots) = idx.sets.swap_remove(at);
            for (cell, slot) in cells.iter().zip(slots) {
                COUNTERS[slot].fetch_add(cell.load(Relaxed), Relaxed);
            }
        }
    }

    /// A last-value / high-watermark cell.
    #[derive(Clone, Copy)]
    pub struct Gauge {
        slot: &'static AtomicU64,
    }

    impl Gauge {
        /// Registers (or re-resolves) the gauge named `name`.
        ///
        /// # Panics
        ///
        /// Panics if more than `MAX_GAUGES` distinct names register.
        pub fn register(name: &'static str) -> Gauge {
            Gauge { slot: &GAUGES[slot_of(&mut index().gauges, name, MAX_GAUGES)] }
        }

        /// Stores `v`.
        #[inline(always)]
        pub fn set(&self, v: u64) {
            self.slot.store(v, Relaxed);
        }

        /// Raises the gauge to `v` if `v` is higher (high-watermark use).
        #[inline(always)]
        pub fn set_max(&self, v: u64) {
            self.slot.fetch_max(v, Relaxed);
        }

        /// Current value.
        pub fn get(&self) -> u64 {
            self.slot.load(Relaxed)
        }
    }

    /// One owner's samples. Atomic so that a snapshot on another
    /// thread reads race-free; only the owner writes.
    pub(super) struct HistCells {
        count: AtomicU64,
        sum: AtomicU64,
        min: AtomicU64,
        max: AtomicU64,
        buckets: [AtomicU64; NUM_BUCKETS],
    }

    impl HistCells {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: HistCells = HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [ZERO; NUM_BUCKETS],
        };

        fn clear(&self) {
            self.count.store(0, Relaxed);
            self.sum.store(0, Relaxed);
            self.min.store(u64::MAX, Relaxed);
            self.max.store(0, Relaxed);
            for b in &self.buckets {
                b.store(0, Relaxed);
            }
        }
    }

    /// Samples summed over owners: what a name's dropped owners left
    /// (kept under the registry lock), or a merge being read.
    #[derive(Clone)]
    pub(super) struct HistTotal {
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: [u64; NUM_BUCKETS],
    }

    impl HistTotal {
        const EMPTY: HistTotal =
            HistTotal { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; NUM_BUCKETS] };

        /// Adds one owner's cells: counts, sums and buckets add, the
        /// bounds widen.
        fn add(&mut self, cells: &HistCells) {
            self.count += cells.count.load(Relaxed);
            self.sum = self.sum.wrapping_add(cells.sum.load(Relaxed));
            self.min = self.min.min(cells.min.load(Relaxed));
            self.max = self.max.max(cells.max.load(Relaxed));
            for (total, b) in self.buckets.iter_mut().zip(&cells.buckets) {
                *total += b.load(Relaxed);
            }
        }

        fn of(cells: &HistCells) -> HistTotal {
            let mut t = HistTotal::EMPTY;
            t.add(cells);
            t
        }

        fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
            if self.count == 0 {
                return None;
            }
            let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut cum = 0u64;
            for (i, &b) in self.buckets.iter().enumerate() {
                cum += b;
                if cum >= rank {
                    return Some(bucket_bounds(i));
                }
            }
            Some(bucket_bounds(NUM_BUCKETS - 1))
        }

        fn quantile(&self, q: f64) -> u64 {
            self.quantile_bounds(q).map(|(_, hi)| hi).unwrap_or(0)
        }

        fn snap(&self, name: &'static str) -> HistSnap {
            HistSnap {
                name,
                count: self.count,
                sum: self.sum,
                min: self.min,
                max: self.max,
                p50: self.quantile(0.50),
                p99: self.quantile(0.99),
                p999: self.quantile(0.999),
            }
        }
    }

    /// A log-bucketed latency histogram (HDR shape) with **exactly one
    /// writer**, the struct that owns it — [`CounterSet`]'s rule for a
    /// distribution. The cells are the owner's (a few KiB of heap each),
    /// linked into the registry under the histogram's name: a
    /// [`snapshot`] merges every owner of the name, and a dropped owner
    /// folds its samples into the name's retired total. The histogram is
    /// `Send` but not `Sync`, so two threads cannot record into one:
    ///
    /// ```compile_fail
    /// fn shared_between_threads<T: Sync>() {}
    /// shared_between_threads::<ukstats::Histogram>();
    /// ```
    pub struct Histogram {
        cells: Arc<HistCells>,
        _one_writer: PhantomData<Cell<()>>,
    }

    impl Histogram {
        /// Empty cells for a new owner, linked into the registry under
        /// `name` (other owners of the name merge with it on read).
        // ukcheck: allow(alloc) -- construction is registration: once per
        // owner, on the control plane
        pub fn register(name: &'static str) -> Histogram {
            let cells = Arc::new(HistCells::EMPTY);
            let mut idx = index();
            let slot = match idx.hists.iter().position(|(n, _)| *n == name) {
                Some(slot) => slot,
                None => {
                    idx.hists.push((name, HistTotal::EMPTY));
                    idx.hists.len() - 1
                }
            };
            idx.hist_cells.push((cells.clone(), slot));
            Histogram { cells, _one_writer: PhantomData }
        }

        /// Records one sample: plain loads and stores on the owner's
        /// cells, plus a store for each bound the sample moves (a handful
        /// of samples per run do) — no RMW, no allocation, no lock.
        #[inline]
        pub fn record(&self, v: u64) {
            let c = &*self.cells;
            bump(&c.buckets[bucket_index(v)], 1);
            bump(&c.count, 1);
            bump(&c.sum, v);
            if v < c.min.load(Relaxed) {
                c.min.store(v, Relaxed);
            }
            if v > c.max.load(Relaxed) {
                c.max.store(v, Relaxed);
            }
        }

        /// Samples this owner recorded.
        pub fn count(&self) -> u64 {
            self.cells.count.load(Relaxed)
        }

        /// Inclusive bucket bounds containing the `q`-quantile
        /// (`0.0 ..= 1.0`) of this owner's samples. The naive
        /// sorted-sample quantile `sorted[max(1, ceil(q·n)) - 1]` is
        /// guaranteed to lie within. Returns `None` when the histogram
        /// is empty.
        pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
            HistTotal::of(&self.cells).quantile_bounds(q)
        }

        /// Upper bound of the bucket containing the `q`-quantile; 0 when
        /// empty.
        pub fn quantile(&self, q: f64) -> u64 {
            HistTotal::of(&self.cells).quantile(q)
        }
    }

    /// Folds the owner's samples into its name's retired total and
    /// unlinks the cells, under the lock [`snapshot`] takes: a snapshot
    /// sees them live or retired, never both and never neither.
    impl Drop for Histogram {
        fn drop(&mut self) {
            let mut idx = index();
            if let Some(at) = idx.hist_cells.iter().position(|(c, _)| Arc::ptr_eq(c, &self.cells)) {
                let (cells, slot) = idx.hist_cells.swap_remove(at);
                idx.hists[slot].1.add(&cells);
            }
        }
    }

    /// Copies the whole registry.
    // ukcheck: allow(alloc) -- snapshotting copies the registry for
    // export/bench attribution; callers take it outside measured windows
    pub fn snapshot() -> Snapshot {
        let idx = index();
        let mut counters: Vec<CounterSnap> = idx
            .counters
            .iter()
            .enumerate()
            .map(|(i, &name)| CounterSnap {
                name,
                value: COUNTERS[i].load(Relaxed),
            })
            .collect();
        // The merge: a name's total is its shared slot plus what every
        // live set holds for it.
        for (cells, slots) in &idx.sets {
            for (cell, &slot) in cells.iter().zip(slots) {
                counters[slot].value += cell.load(Relaxed);
            }
        }
        // And a histogram's is its retired total plus every live owner.
        let mut hists: Vec<HistTotal> = idx.hists.iter().map(|(_, t)| t.clone()).collect();
        for (cells, slot) in &idx.hist_cells {
            hists[*slot].add(cells);
        }
        Snapshot {
            counters,
            gauges: idx
                .gauges
                .iter()
                .enumerate()
                .map(|(i, &name)| GaugeSnap {
                    name,
                    value: GAUGES[i].load(Relaxed),
                })
                .collect(),
            hists: idx.hists.iter().zip(&hists).map(|((name, _), t)| t.snap(name)).collect(),
        }
    }

    /// Zeroes every registered value — live cells and retired totals
    /// alike — while keeping registrations. Meant for single-threaded
    /// harnesses (benches) — racing resets against live increments only
    /// loses increments (or, in an owner's cell, the reset), never
    /// corrupts.
    pub fn reset_all() {
        let mut idx = index();
        for counter in &COUNTERS[..idx.counters.len()] {
            counter.store(0, Relaxed);
        }
        for cell in idx.sets.iter().flat_map(|(cells, _)| cells.iter()) {
            cell.store(0, Relaxed);
        }
        for gauge in &GAUGES[..idx.gauges.len()] {
            gauge.store(0, Relaxed);
        }
        for (_, total) in idx.hists.iter_mut() {
            *total = HistTotal::EMPTY;
        }
        for (cells, _) in &idx.hist_cells {
            cells.clear();
        }
    }
}

#[cfg(not(feature = "stats"))]
mod imp {
    use super::Snapshot;
    use std::cell::Cell;
    use std::marker::PhantomData;

    /// No-op counter: the stats plane is compiled out.
    #[derive(Clone, Copy)]
    pub struct Counter;

    impl Counter {
        pub fn register(_name: &'static str) -> Counter {
            Counter
        }
        #[inline(always)]
        pub fn add(&self, _n: u64) {}
        #[inline(always)]
        pub fn inc(&self) {}
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// No-op gauge: the stats plane is compiled out.
    #[derive(Clone, Copy)]
    pub struct Gauge;

    impl Gauge {
        pub fn register(_name: &'static str) -> Gauge {
            Gauge
        }
        #[inline(always)]
        pub fn set(&self, _v: u64) {}
        #[inline(always)]
        pub fn set_max(&self, _v: u64) {}
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// No-op histogram: the stats plane is compiled out. Still one
    /// writer's (not `Sync`), as with the plane in.
    pub struct Histogram(PhantomData<Cell<()>>);

    impl Histogram {
        pub fn register(_name: &'static str) -> Histogram {
            Histogram(PhantomData)
        }
        #[inline(always)]
        pub fn record(&self, _v: u64) {}
        pub fn count(&self) -> u64 {
            0
        }
        pub fn quantile_bounds(&self, _q: f64) -> Option<(u64, u64)> {
            None
        }
        pub fn quantile(&self, _q: f64) -> u64 {
            0
        }
    }

    /// Empty snapshot: nothing is recorded when compiled out.
    pub fn snapshot() -> Snapshot {
        Snapshot::default()
    }

    /// No-op.
    pub fn reset_all() {}
}

pub use imp::{reset_all, snapshot, Counter, Gauge, Histogram};

/// A fixed list of named counters with **exactly one writer**, the
/// struct that owns the set (see the module doc for how the registry
/// merges sets on read). "One writer" is enforced, not promised: the
/// set is `Send` — an owner may move to another thread — but not `Sync`,
/// so two threads cannot `add` to one set:
///
/// ```compile_fail
/// fn shared_between_threads<T: Sync>() {}
/// shared_between_threads::<ukstats::CounterSet>();
/// ```
///
/// A count that really has several writers (two threads, or code with
/// no owner to hold a set) is a [`Counter`].
pub struct CounterSet {
    /// Atomic so that a snapshot on another thread reads race-free;
    /// shared so that it can.
    cells: Arc<[AtomicU64]>,
    _one_writer: PhantomData<Cell<()>>,
}

impl CounterSet {
    /// A zeroed set with one cell per name, in order, linked into the
    /// registry under those names (resolved once, here).
    ///
    /// # Panics
    ///
    /// Panics if more than `MAX_COUNTERS` (256) distinct names register.
    // ukcheck: allow(alloc) -- construction is registration: once per
    // owner, on the control plane
    pub fn new(names: &'static [&'static str]) -> CounterSet {
        let cells: Arc<[AtomicU64]> = names.iter().map(|_| AtomicU64::new(0)).collect();
        #[cfg(feature = "stats")]
        imp::link_set(names, &cells);
        CounterSet { cells, _one_writer: PhantomData }
    }

    /// Adds `n` to cell `i`: exact with one writer, and a reader on
    /// another thread sees the old value or the new one.
    #[inline(always)]
    pub fn add(&self, i: usize, n: u64) {
        bump(&self.cells[i], n);
    }

    /// Cell `i`: what this owner counted.
    #[inline(always)]
    pub fn get(&self, i: usize) -> u64 {
        self.cells[i].load(Relaxed)
    }
}

#[cfg(feature = "stats")]
impl Drop for CounterSet {
    fn drop(&mut self) {
        imp::fold_set(&self.cells);
    }
}

/// Declares a [`CounterSet`] owner's rows once, `field => "registry.name";`
/// each, as a module of cell indices (`$rows::field`) beside the name
/// list [`CounterSet::new`] takes (`$rows::NAMES`), in the same order.
#[macro_export]
macro_rules! counter_rows {
    ($vis:vis mod $rows:ident { $($(#[$doc:meta])* $field:ident => $name:literal;)* }) => {
        #[allow(non_upper_case_globals)]
        $vis mod $rows {
            #[allow(non_camel_case_types)]
            enum Cell { $($field,)* }
            $($(#[$doc])* pub const $field: usize = Cell::$field as usize;)*
            pub const NAMES: &[&str] = &[$($name,)*];
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_out_handles_are_zero_sized() {
        if !COMPILED_IN {
            assert_eq!(std::mem::size_of::<Counter>(), 0);
            assert_eq!(std::mem::size_of::<Gauge>(), 0);
            assert_eq!(std::mem::size_of::<Histogram>(), 0);
            assert!(snapshot().counters.is_empty());
        }
    }

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in [0u64, 1, 7, 8, 9, 15, 16, 17, 100, 1_000, 65_535, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo},{hi}]");
            // HDR shape: bucket width within 12.5 % of the value.
            assert!(hi - lo <= lo.max(1) / 8 + 1, "bucket too wide at {v}");
        }
    }

    #[cfg(feature = "stats")]
    mod live {
        use super::super::*;

        #[test]
        fn register_dedups_and_counts() {
            let a = Counter::register("test.dedup");
            let b = Counter::register("test.dedup");
            let before = a.get();
            a.inc();
            b.add(2);
            assert_eq!(a.get(), before + 3, "same name, same slot");
            assert!(snapshot().counter("test.dedup").unwrap() >= 3);
        }

        #[test]
        fn gauge_set_max_is_a_high_watermark() {
            let g = Gauge::register("test.hiwater");
            g.set(0);
            g.set_max(5);
            g.set_max(3);
            assert_eq!(g.get(), 5);
        }

        #[test]
        fn histogram_quantiles_bound_the_samples() {
            let h = Histogram::register("test.hist");
            for v in 1..=1000u64 {
                h.record(v);
            }
            assert!(h.count() >= 1000);
            let (lo, hi) = h.quantile_bounds(0.5).unwrap();
            assert!(lo <= 500 && 500 <= hi + hi / 8, "p50 near 500: [{lo},{hi}]");
            let p999 = h.quantile(0.999);
            assert!(p999 >= 999, "p999 upper bound covers the tail");
        }

        #[test]
        fn two_owners_of_one_name_merge_in_snapshot() {
            let (a, b) = (Histogram::register("test.merge"), Histogram::register("test.merge"));
            // What one owner holding every sample would report.
            let both = Histogram::register("test.merge_reference");
            for v in 1..=300u64 {
                let h = if v % 3 == 0 { &a } else { &b };
                h.record(v * 7);
                both.record(v * 7);
            }
            a.record(5_000);
            both.record(5_000);
            assert_eq!((a.count(), b.count()), (101, 200), "each owner sees its own");
            let snap = snapshot();
            let (m, r) = (snap.hist("test.merge").unwrap(), snap.hist("test.merge_reference").unwrap());
            assert_eq!((m.count, m.sum, m.min, m.max), (301, r.sum, 7, 5_000));
            assert_eq!((m.p50, m.p99, m.p999), (r.p50, r.p99, r.p999));
        }

        #[test]
        fn a_dropped_owner_stays_in_the_total() {
            let a = Histogram::register("test.retire");
            a.record(10);
            a.record(30);
            drop(a);
            let h = snapshot().hist("test.retire").cloned().unwrap();
            assert_eq!((h.count, h.sum, h.min, h.max), (2, 40, 10, 30));
            let b = Histogram::register("test.retire");
            b.record(20);
            let h = snapshot().hist("test.retire").cloned().unwrap();
            assert_eq!((h.count, h.sum, h.min, h.max), (3, 60, 10, 30));
            assert_eq!(b.count(), 1, "a new owner starts empty");
        }

        #[test]
        fn snapshot_renders_json() {
            let c = Counter::register("test.json_counter");
            c.inc();
            let h = Histogram::register("test.json_hist");
            h.record(42);
            let json = snapshot().to_json();
            assert!(json.contains("\"test.json_counter\":"));
            assert!(json.contains("\"test.json_hist\":{\"count\":"));
            assert!(json.starts_with('{') && json.ends_with('}'));
        }
    }
}
