//! Allocation statistics shared by all backends, plus process-wide and
//! per-thread heap-allocation counters for asserting allocation-free
//! hot paths.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters every backend maintains; the basis of the memory-footprint
/// experiments (paper Fig 11 reports minimum memory to run each app).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated (payload, not counting metadata).
    pub cur_bytes: usize,
    /// High-water mark of `cur_bytes`.
    pub peak_bytes: usize,
    /// Total successful allocations.
    pub alloc_count: u64,
    /// Total frees.
    pub free_count: u64,
    /// Allocation requests that failed for lack of memory.
    pub failed_count: u64,
    /// Bytes of allocator metadata overhead (headers, bitmaps).
    pub meta_bytes: usize,
}

impl AllocStats {
    /// Records a successful allocation of `bytes`.
    pub fn on_alloc(&mut self, bytes: usize) {
        self.cur_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.cur_bytes);
        self.alloc_count += 1;
    }

    /// Records a free of `bytes`.
    pub fn on_free(&mut self, bytes: usize) {
        self.cur_bytes = self.cur_bytes.saturating_sub(bytes);
        self.free_count += 1;
    }

    /// Records a failed allocation.
    pub fn on_fail(&mut self) {
        self.failed_count += 1;
    }

    /// Live allocations (allocs minus frees).
    pub fn live(&self) -> u64 {
        self.alloc_count.saturating_sub(self.free_count)
    }
}

/// Process-wide count of heap allocations (see [`CountingAlloc`]).
static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's share of [`HEAP_ALLOCS`]: what
    /// [`AllocCounter`] reads, so a measured window sees only the work
    /// of the thread that opened it — not a test harness reporting a
    /// sibling test on its own thread meanwhile.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Frees by the calling thread (nothing reads a process-wide
    /// count, so none is kept).
    static THREAD_FREES: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

fn count_free() {
    THREAD_FREES.with(|c| c.set(c.get() + 1));
}

/// A counting wrapper around the system allocator.
///
/// Install it as the binary's global allocator to make
/// [`heap_alloc_count`] observe every heap allocation the process
/// performs and [`AllocCounter`] every one the calling thread performs
/// — reallocations count as allocations, frees are tracked separately:
///
/// ```ignore
/// #[global_allocator]
/// static COUNTING: ukalloc::stats::CountingAlloc =
///     ukalloc::stats::CountingAlloc;
/// ```
///
/// This is how the netstack's zero-allocation guarantee is *asserted*
/// rather than assumed: a tier-1 test scopes an [`AllocCounter`]
/// around a steady-state TCP echo round-trip and requires the delta
/// to be exactly zero.
pub struct CountingAlloc;

// SAFETY: a pure pass-through to `std::alloc::System` — every method
// forwards its arguments unchanged, so `System`'s own `GlobalAlloc`
// contract (layout validity, pointer provenance, no unwinding) is
// upheld verbatim; the counter bumps are relaxed atomics and plain
// thread-local integers (const-initialised, no destructor, so they are
// reachable for a thread's whole life and never allocate themselves).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (non-zero
    // sized, valid layout); we forward it to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    // SAFETY: same pass-through contract as `alloc` above.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller guarantees `ptr` was allocated here with `layout`
    // (the `GlobalAlloc::realloc` contract); forwarded to `System`.
    // Every realloc counts as an allocation as far as
    // "allocation-free hot path" claims are concerned, paired with
    // a free of the old block so allocs/frees stay balanced.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        count_free();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller guarantees `ptr`/`layout` match the original
    // allocation (the `GlobalAlloc::dealloc` contract); forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free();
        System.dealloc(ptr, layout)
    }
}

/// Heap allocations observed so far (0 unless [`CountingAlloc`] is the
/// global allocator).
pub fn heap_alloc_count() -> u64 {
    HEAP_ALLOCS.load(Ordering::Relaxed)
}

/// A scoped view over the calling thread's heap counters: snapshot at
/// [`start`](AllocCounter::start), read the delta with
/// [`allocs`](AllocCounter::allocs) on the same thread. Other threads'
/// allocations do not show, so tests that libtest runs side by side can
/// each assert an exact count.
#[derive(Debug, Clone, Copy)]
pub struct AllocCounter {
    start_allocs: u64,
    start_frees: u64,
}

impl AllocCounter {
    /// Snapshots the calling thread's counters.
    pub fn start() -> Self {
        AllocCounter {
            start_allocs: THREAD_ALLOCS.get(),
            start_frees: THREAD_FREES.get(),
        }
    }

    /// Heap allocations this thread made since the snapshot.
    pub fn allocs(&self) -> u64 {
        THREAD_ALLOCS.get() - self.start_allocs
    }

    /// Heap frees this thread made since the snapshot.
    pub fn frees(&self) -> u64 {
        THREAD_FREES.get() - self.start_frees
    }

    /// Runs `f` and returns its result plus the allocations it
    /// performed.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let c = Self::start();
        let r = f();
        let n = c.allocs();
        (r, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_delta_is_zero_without_counting_allocator() {
        // This test binary does not install CountingAlloc, so the
        // counters never move — the API still behaves.
        let c = AllocCounter::start();
        let v = vec![1u8, 2, 3];
        assert_eq!(c.allocs(), 0);
        drop(v);
        assert_eq!(c.frees(), 0);
        let ((), n) = AllocCounter::measure(|| ());
        assert_eq!(n, 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut s = AllocStats::default();
        s.on_alloc(100);
        s.on_alloc(50);
        s.on_free(100);
        s.on_alloc(10);
        assert_eq!(s.cur_bytes, 60);
        assert_eq!(s.peak_bytes, 150);
        assert_eq!(s.live(), 2);
    }

    #[test]
    fn failed_allocs_counted_separately() {
        let mut s = AllocStats::default();
        s.on_fail();
        s.on_fail();
        assert_eq!(s.failed_count, 2);
        assert_eq!(s.alloc_count, 0);
    }

    #[test]
    fn free_saturates_at_zero() {
        let mut s = AllocStats::default();
        s.on_alloc(10);
        s.on_free(100);
        assert_eq!(s.cur_bytes, 0);
    }
}
