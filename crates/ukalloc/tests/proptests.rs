//! Property-based tests over every allocator backend.
//!
//! Invariants checked for arbitrary allocation/free traces:
//! 1. returned blocks never overlap while live;
//! 2. blocks respect the requested alignment;
//! 3. for reclaiming backends, freeing everything restores the full heap
//!    (no leaks, full coalescing where the backend promises it);
//! 4. the allocator never hands out memory outside its region.

use proptest::prelude::*;

use ukalloc::{AllocBackend, Allocator, MIN_ALIGN};

const HEAP_BASE: u64 = 1 << 22;
const HEAP_LEN: usize = 4 << 20;

/// One step of a random trace.
#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    AllocAligned { align_log2: u8, size: usize },
    FreeIdx(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..20_000).prop_map(Op::Alloc),
        ((4u8..13), (1usize..8_000))
            .prop_map(|(align_log2, size)| Op::AllocAligned { align_log2, size }),
        (0usize..64).prop_map(Op::FreeIdx),
    ]
}

/// Runs a trace against a backend, checking invariants at every step.
fn run_trace(backend: AllocBackend, ops: &[Op]) {
    let mut a = backend.instantiate();
    a.init(HEAP_BASE, HEAP_LEN).unwrap();
    // Live blocks: (addr, requested_size, min_guaranteed_extent).
    let mut live: Vec<(u64, usize)> = Vec::new();

    for op in ops {
        match op {
            Op::Alloc(size) => {
                if let Some(p) = a.malloc(*size) {
                    assert_eq!(p % MIN_ALIGN as u64, 0, "{}: misaligned", a.name());
                    check_bounds(a.as_ref(), p, *size);
                    check_disjoint(a.as_ref(), &live, p, *size);
                    live.push((p, *size));
                }
            }
            Op::AllocAligned { align_log2, size } => {
                let align = 1usize << align_log2;
                if let Some(p) = a.memalign(align, *size) {
                    assert_eq!(p % align as u64, 0, "{}: align {align} violated", a.name());
                    check_bounds(a.as_ref(), p, *size);
                    check_disjoint(a.as_ref(), &live, p, *size);
                    live.push((p, *size));
                }
            }
            Op::FreeIdx(i) => {
                if !live.is_empty() {
                    let idx = i % live.len();
                    let (p, _) = live.swap_remove(idx);
                    a.free(p);
                }
            }
        }
    }
    // Drain and check restoration for reclaiming backends.
    let reclaims = a.reclaims();
    let is_oscar = backend == AllocBackend::Oscar;
    for (p, _) in live.drain(..) {
        a.free(p);
    }
    if reclaims && !is_oscar {
        // Oscar intentionally keeps a quarantine, so skip it here.
        let avail = a.available();
        assert!(
            avail >= HEAP_LEN - HEAP_LEN / 8,
            "{}: only {avail} of {HEAP_LEN} bytes recovered",
            a.name()
        );
    }
}

fn check_bounds(a: &dyn Allocator, p: u64, size: usize) {
    assert_eq!(a.region(), (HEAP_BASE, HEAP_LEN), "{}: an aligned base loses nothing", a.name());
    assert!(
        p >= HEAP_BASE && p + size as u64 <= HEAP_BASE + HEAP_LEN as u64,
        "{}: {p:#x}+{size} outside region",
        a.name()
    );
}

fn check_disjoint(a: &dyn Allocator, live: &[(u64, usize)], p: u64, size: usize) {
    for &(q, qsize) in live {
        assert!(
            p + size as u64 <= q || q + qsize as u64 <= p,
            "{}: {p:#x}+{size} overlaps {q:#x}+{qsize}",
            a.name()
        );
    }
}

macro_rules! alloc_props {
    ($name:ident, $backend:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn $name(ops in proptest::collection::vec(op_strategy(), 1..200)) {
                run_trace($backend, &ops);
            }
        }
    };
}

/// Runs `ops` on `backend` initialised over `[base, base + len)` with
/// an unaligned `base`: every block must lie inside that range and
/// inside what `region()` reports, which must itself lie inside it.
fn run_unaligned(backend: AllocBackend, base: u64, len: usize, ops: &[Op]) {
    let mut a = backend.instantiate();
    a.init(base, len).unwrap();
    let (rbase, rlen) = a.region();
    let end = base + len as u64;
    let name = a.name();
    assert!(
        rbase >= base && rbase + rlen as u64 <= end,
        "{name}: region {rbase:#x}+{rlen} outside {base:#x}+{len}"
    );
    let inside = |p: u64, size: usize| {
        let past = (p + size as u64).saturating_sub(end);
        assert!(
            p >= base && past == 0,
            "{name}: {p:#x}+{size} outside init's {base:#x}+{len}, {past} B past its end"
        );
        assert!(
            p >= rbase && p + size as u64 <= rbase + rlen as u64,
            "{name}: {p:#x}+{size} outside region {rbase:#x}+{rlen}"
        );
    };
    let mut live = Vec::new();
    for op in ops {
        let (got, size) = match *op {
            Op::Alloc(size) => (a.malloc(size), size),
            Op::AllocAligned { align_log2, size } => (a.memalign(1 << align_log2, size), size),
            Op::FreeIdx(i) => {
                if !live.is_empty() {
                    a.free(live.swap_remove(i % live.len()));
                }
                continue;
            }
        };
        if let Some(p) = got {
            inside(p, size);
            live.push(p);
        }
    }
    // Then take everything left, in ever smaller blocks down to the
    // backends' granules, so the last blocks reach the region's end.
    for size in [1 << 16, 1 << 12, 1 << 8, 64, 32, 16] {
        while let Some(p) = a.malloc(size) {
            inside(p, size);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `init` may round `base` up, but the blocks never run past the end
    /// of the range it was given: the region shrinks by what alignment
    /// skipped. Small regions and large requests, so every run reaches
    /// the end of its region.
    #[test]
    fn every_block_lies_inside_the_region_whatever_the_base(
        offset in 1u64..65_536,
        len in (192usize * 1024)..(448 * 1024),
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        for backend in AllocBackend::all() {
            run_unaligned(backend, HEAP_BASE + offset, len, &ops);
        }
    }
}

alloc_props!(buddy_trace_invariants, AllocBackend::Buddy);
alloc_props!(tlsf_trace_invariants, AllocBackend::Tlsf);
alloc_props!(tinyalloc_trace_invariants, AllocBackend::TinyAlloc);
alloc_props!(mimalloc_trace_invariants, AllocBackend::Mimalloc);
alloc_props!(bootalloc_trace_invariants, AllocBackend::BootAlloc);
alloc_props!(oscar_trace_invariants, AllocBackend::Oscar);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// TLSF fully coalesces: any alloc-all-free-all trace ends in one block.
    #[test]
    fn tlsf_full_coalescing(sizes in proptest::collection::vec(1usize..30_000, 1..100)) {
        let mut a = ukalloc::TlsfAlloc::new();
        a.init(HEAP_BASE, HEAP_LEN).unwrap();
        let before = a.available();
        let ptrs: Vec<_> = sizes.iter().filter_map(|&s| a.malloc(s)).collect();
        for p in ptrs {
            a.free(p);
        }
        prop_assert_eq!(a.available(), before);
    }

    /// Buddy coalescing restores availability exactly.
    #[test]
    fn buddy_full_coalescing(sizes in proptest::collection::vec(1usize..30_000, 1..100)) {
        let mut a = ukalloc::BuddyAlloc::new();
        a.init(HEAP_BASE, HEAP_LEN).unwrap();
        let before = a.available();
        let ptrs: Vec<_> = sizes.iter().filter_map(|&s| a.malloc(s)).collect();
        for p in ptrs {
            a.free(p);
        }
        prop_assert_eq!(a.available(), before);
    }

    /// Stats invariant: live count equals allocs minus frees.
    #[test]
    fn stats_live_accounting(sizes in proptest::collection::vec(16usize..1024, 1..50)) {
        let mut a = ukalloc::Mimalloc::new();
        a.init(HEAP_BASE, HEAP_LEN).unwrap();
        let ptrs: Vec<_> = sizes.iter().filter_map(|&s| a.malloc(s)).collect();
        let n = ptrs.len() as u64;
        prop_assert_eq!(a.stats().live(), n);
        for p in &ptrs {
            a.free(*p);
        }
        prop_assert_eq!(a.stats().live(), 0);
    }
}
