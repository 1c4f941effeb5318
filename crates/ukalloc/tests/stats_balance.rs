//! `AllocStats::cur_bytes` balances: a backend's `free` takes off
//! exactly the bytes its `malloc`/`memalign` charged for that block (the
//! block it handed out, not the request), so a malloc and a free of the
//! same block restore the count, and freeing every live block after any
//! churn reads 0.

use ukalloc::{AllocBackend, Allocator, GpAddr};

/// The backends whose `free` gives a block's bytes back at once.
/// Bootalloc frees nothing by design, and Oscar keeps freed blocks in its
/// quarantine (still counted, by design, until they reach its TLSF).
fn reclaiming_backends() -> impl Iterator<Item = AllocBackend> {
    AllocBackend::all()
        .into_iter()
        .filter(|b| !matches!(b, AllocBackend::BootAlloc | AllocBackend::Oscar))
}

fn fresh(backend: AllocBackend) -> Box<dyn Allocator> {
    let mut a = backend.instantiate();
    a.init(0x10_0000, 16 << 20).unwrap();
    a
}

/// Requests on both sides of the backends' rounding steps: the 16-byte
/// alignment, the size classes, a page, and the large-block path.
const SIZES: &[usize] = &[
    1, 15, 17, 33, 100, 500, 1000, 1025, 4095, 4097, 9000, 65_537, 300_000,
];

/// 0 is a plain `malloc`; the rest are `memalign` alignments.
const ALIGNS: &[usize] = &[0, 64, 256, 4096];

fn take(a: &mut dyn Allocator, size: usize, align: usize) -> Option<GpAddr> {
    if align == 0 {
        a.malloc(size)
    } else {
        a.memalign(align, size)
    }
}

#[test]
fn a_free_takes_off_exactly_what_its_malloc_charged() {
    for b in reclaiming_backends() {
        let mut a = fresh(b);
        // Held throughout, so no check starts from an empty heap.
        let _held = a.malloc(48).unwrap();
        for &size in SIZES {
            for &align in ALIGNS {
                let before = a.stats().cur_bytes;
                let p = take(a.as_mut(), size, align).unwrap_or_else(|| {
                    panic!(
                        "{}: {size} B (align {align}) from a fresh 16 MiB heap",
                        a.name()
                    )
                });
                let charged = a.stats().cur_bytes - before;
                assert!(
                    charged >= size,
                    "{}: {size} B charged as {charged}",
                    a.name()
                );
                a.free(p);
                assert_eq!(
                    a.stats().cur_bytes,
                    before,
                    "{}: {size} B (align {align}) charged {charged} B, freed a different count",
                    a.name()
                );
            }
        }
    }
}

#[test]
fn freeing_every_live_block_after_churn_reads_zero() {
    for b in reclaiming_backends() {
        let mut a = fresh(b);
        // Held through the churn: a backend that frees more than it
        // charged drives the count below this block's own charge.
        let held = a.malloc(48).unwrap();
        let held_bytes = a.stats().cur_bytes;
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut live: Vec<GpAddr> = Vec::new();
        for _ in 0..5_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if live.is_empty() || (live.len() < 48 && rng & 3 != 0) {
                let size = SIZES[(rng >> 8) as usize % SIZES.len()];
                let align = ALIGNS[(rng >> 16) as usize % ALIGNS.len()];
                // A request the heap cannot serve is counted as failed
                // and charges nothing.
                live.extend(take(a.as_mut(), size, align));
            } else {
                let p = live.swap_remove((rng >> 24) as usize % live.len());
                a.free(p);
            }
        }
        for p in live {
            a.free(p);
        }
        assert_eq!(
            a.stats().cur_bytes,
            held_bytes,
            "{}: only the held block is left",
            a.name()
        );
        a.free(held);
        let s = a.stats();
        assert_eq!(
            (s.live(), s.cur_bytes),
            (0, 0),
            "{}: every block freed",
            a.name()
        );
    }
}
