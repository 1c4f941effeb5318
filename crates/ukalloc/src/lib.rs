//! Memory allocation micro-library (`ukalloc`).
//!
//! §3.2 of the paper: Unikraft's allocation subsystem has three layers —
//! a POSIX-facing external API (provided by the libc), the internal
//! `ukalloc` multiplexing interface, and one or more backend allocators,
//! each owning its own memory region. This crate reproduces layers two and
//! three with *real* allocator implementations operating on guest-physical
//! address ranges:
//!
//! - [`buddy`]: binary-buddy allocator (Mini-OS heritage) — slow to
//!   initialize (touches every page), O(log n) alloc/free with coalescing;
//! - `tlsf`: Two-Level Segregated Fits — O(1) real-time allocator;
//! - `tinyalloc`: small block-table allocator with compaction;
//! - `mimalloc`: free-list-sharded allocator in the style of Microsoft's
//!   mimalloc (segments → pages → sharded free lists);
//! - `bootalloc`: region (bump) allocator for fast boots — `free` is a
//!   no-op;
//! - `oscar`: a guarded wrapper adding canaries and a quarantine, in the
//!   spirit of the Oscar secure allocator.
//!
//! A backend manages an address range: an allocation returns a
//! guest-physical address inside the range it was initialised over
//! ([`Allocator::region`]), and all bookkeeping (free lists, bitmaps,
//! headers, coalescing) is real data-structure work, which is what the
//! paper's Figures 14–18 measure. A backend alone keeps no bytes at
//! those addresses; [`Heap`] pairs one with a host allocation of its
//! region's length, so its blocks hold what an application writes there
//! (`ukapps`' key-value store keeps every key and value in one).

pub(crate) mod bootalloc;
pub mod buddy;
pub mod heap;
pub(crate) mod mimalloc;
pub(crate) mod oscar;
pub mod registry;
pub mod stats;
pub(crate) mod tinyalloc;
pub(crate) mod tlsf;

pub use bootalloc::BootAlloc;
pub use buddy::BuddyAlloc;
pub use heap::Heap;
pub use mimalloc::Mimalloc;
use oscar::OscarAlloc;
pub use registry::AllocRegistry;
pub use stats::AllocStats;
pub use tinyalloc::TinyAlloc;
pub use tlsf::TlsfAlloc;

use ukplat::Result;

/// Minimum alignment every backend guarantees (like `max_align_t`).
pub const MIN_ALIGN: usize = 16;

/// A guest-physical address returned by an allocator.
pub type GpAddr = u64;

/// The paper's five-plus allocator backends, for configuration menus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocBackend {
    /// Binary buddy system (Mini-OS `mm.c` heritage).
    Buddy,
    /// Two-Level Segregated Fits real-time allocator.
    Tlsf,
    /// tinyalloc block-table allocator.
    TinyAlloc,
    /// mimalloc-style free-list sharding allocator.
    Mimalloc,
    /// Region/bump allocator for boot-time speed.
    BootAlloc,
    /// Oscar-style guarded secure allocator.
    Oscar,
}

impl AllocBackend {
    /// All backends in the order the paper's Figure 14 lists them.
    pub fn all() -> [AllocBackend; 6] {
        [
            AllocBackend::Buddy,
            AllocBackend::Mimalloc,
            AllocBackend::BootAlloc,
            AllocBackend::TinyAlloc,
            AllocBackend::Tlsf,
            AllocBackend::Oscar,
        ]
    }

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            AllocBackend::Buddy => "Binary buddy",
            AllocBackend::Tlsf => "TLSF",
            AllocBackend::TinyAlloc => "tinyalloc",
            AllocBackend::Mimalloc => "Mimalloc",
            AllocBackend::BootAlloc => "Bootalloc",
            AllocBackend::Oscar => "Oscar",
        }
    }

    /// Instantiates an uninitialized allocator of this kind.
    pub fn instantiate(self) -> Box<dyn Allocator> {
        match self {
            AllocBackend::Buddy => Box::new(BuddyAlloc::new()),
            AllocBackend::Tlsf => Box::new(TlsfAlloc::new()),
            AllocBackend::TinyAlloc => Box::new(TinyAlloc::new()),
            AllocBackend::Mimalloc => Box::new(Mimalloc::new()),
            AllocBackend::BootAlloc => Box::new(BootAlloc::new()),
            AllocBackend::Oscar => Box::new(OscarAlloc::new()),
        }
    }
}

/// The internal `ukalloc` interface every backend implements.
///
/// Mirrors `struct uk_alloc`'s function-pointer table: `uk_malloc`,
/// `uk_memalign`, `uk_free`, plus initialization as required by `ukboot`
/// ("allocators must specify an initialization function which is called by
/// ukboot at an early stage of the boot process", §3.2).
pub trait Allocator {
    /// Backend display name.
    fn name(&self) -> &'static str;

    /// Initializes the allocator over `[base, base + len)`.
    ///
    /// Called exactly once by `ukboot` with the heap region. The allocator
    /// must be ready to serve requests when this returns; its cost is what
    /// Figure 14 measures per backend.
    ///
    /// A backend may round `base` up to its own alignment; the bytes it
    /// skips come off the end, so every block it ever hands out lies
    /// inside `[base, base + len)` — and inside [`region`](Self::region),
    /// which says exactly what is left.
    fn init(&mut self, base: GpAddr, len: usize) -> Result<()>;

    /// The range `[base, base + len)` the allocator manages: the part of
    /// `init`'s range left after alignment. Every block lies inside it;
    /// `(0, 0)` before `init`.
    fn region(&self) -> (GpAddr, usize);

    /// Allocates `size` bytes at [`MIN_ALIGN`] alignment.
    fn malloc(&mut self, size: usize) -> Option<GpAddr>;

    /// Allocates `size` bytes at the given alignment (a power of two
    /// ≥ [`MIN_ALIGN`]).
    fn memalign(&mut self, align: usize, size: usize) -> Option<GpAddr>;

    /// Frees an allocation previously returned by this allocator.
    ///
    /// # Panics
    ///
    /// Backends panic on frees of unknown addresses (double free / wild
    /// free) — the moral equivalent of `UK_ASSERT` in Unikraft.
    fn free(&mut self, ptr: GpAddr);

    /// Usable bytes remaining (approximate for sharded backends).
    fn available(&self) -> usize;

    /// Allocation statistics.
    fn stats(&self) -> AllocStats;

    /// Whether `free` actually reclaims memory (false for [`BootAlloc`]).
    fn reclaims(&self) -> bool {
        true
    }
}

/// Rounds `v` up to the next multiple of `align` (power of two).
pub(crate) fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

/// `[base, base + len)` with `base` rounded up to `align` (a power of
/// two): the aligned base and what is left of `len` once the skipped
/// bytes come off it, so the range never reaches past the original end.
/// `None` if the rounding would eat the whole range.
pub(crate) fn align_region(base: GpAddr, len: usize, align: usize) -> Option<(GpAddr, usize)> {
    let aligned = base.checked_add(align as u64 - 1)? & !(align as u64 - 1);
    let slack = usize::try_from(aligned - base).ok()?;
    Some((aligned, len.checked_sub(slack)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: AllocBackend) {
        let mut a = backend.instantiate();
        a.init(0x10_0000, 4 * 1024 * 1024).unwrap();
        let p1 = a.malloc(100).expect("malloc 100");
        let p2 = a.malloc(4096).expect("malloc 4096");
        assert_ne!(p1, p2);
        assert_eq!(p1 % MIN_ALIGN as u64, 0);
        assert_eq!(p2 % MIN_ALIGN as u64, 0);
        a.free(p1);
        a.free(p2);
    }

    #[test]
    fn every_backend_allocates_aligned_distinct_blocks() {
        for b in AllocBackend::all() {
            exercise(b);
        }
    }

    #[test]
    fn backend_names_are_unique() {
        let names: std::collections::HashSet<_> =
            AllocBackend::all().iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), AllocBackend::all().len());
    }
}
