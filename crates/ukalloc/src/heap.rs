//! A backend with the bytes behind its addresses.
//!
//! A backend on its own manages an address range: it answers `malloc`
//! with a guest-physical address and keeps its books, but nothing lives
//! at that address. [`Heap`] pairs one initialised backend with one
//! zeroed host allocation exactly as long as the backend's
//! [`region`](Allocator::region), so a block the backend hands out is
//! also bytes an application can write — §3.2's "each backend owns its
//! memory region", with the region made of memory.
//!
//! The allocation is made once, at [`Heap::new`]. A large zeroed
//! allocation is a fresh anonymous mapping (glibc's `calloc` maps any
//! request past its mmap threshold, which never exceeds 32 MiB, and
//! skips the zeroing), so the host commits only the pages blocks are
//! written to: a 64 MiB region whose blocks cover 2 MiB adds about 2 MiB
//! to the resident set, not 64.
//!
//! Every view is checked: [`Heap::malloc`] refuses a block that does not
//! lie wholly inside the region (a backend bug must not become an
//! out-of-bounds write), and [`Heap::bytes`]/[`Heap::bytes_mut`] return
//! `None` for a range outside it.

use crate::stats::AllocStats;
use crate::{Allocator, GpAddr};

/// One backend and the memory of its region.
pub struct Heap {
    alloc: Box<dyn Allocator>,
    base: GpAddr,
    mem: Box<[u8]>,
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("backend", &self.alloc.name())
            .field("base", &self.base)
            .field("len", &self.mem.len())
            .finish()
    }
}

impl Heap {
    /// Backs the region of `alloc`, which must already be initialised.
    // ukcheck: allow(alloc) -- constructor: the region's one zeroed allocation
    pub fn new(alloc: Box<dyn Allocator>) -> Heap {
        let (base, len) = alloc.region();
        Heap { alloc, base, mem: vec![0u8; len].into_boxed_slice() }
    }

    /// A block of at least `size` bytes inside the region, or `None` if
    /// the backend has none — or handed out one that is not wholly
    /// inside the region, which is given back at once.
    pub fn malloc(&mut self, size: usize) -> Option<GpAddr> {
        let at = self.alloc.malloc(size)?;
        if self.offset(at, size).is_none() {
            self.alloc.free(at);
            return None;
        }
        Some(at)
    }

    /// Returns a block [`malloc`](Self::malloc) handed out.
    pub fn free(&mut self, at: GpAddr) {
        self.alloc.free(at);
    }

    /// The `len` bytes at `at`, if they lie inside the region.
    pub fn bytes(&self, at: GpAddr, len: usize) -> Option<&[u8]> {
        let off = self.offset(at, len)?;
        self.mem.get(off..off + len)
    }

    /// The `len` bytes at `at`, writable, if they lie inside the region.
    pub fn bytes_mut(&mut self, at: GpAddr, len: usize) -> Option<&mut [u8]> {
        let off = self.offset(at, len)?;
        self.mem.get_mut(off..off + len)
    }

    /// `[base, base + len)` of the region the bytes back.
    pub fn region(&self) -> (GpAddr, usize) {
        (self.base, self.mem.len())
    }

    /// The backend's statistics.
    pub fn stats(&self) -> AllocStats {
        self.alloc.stats()
    }

    /// Where `[at, at + len)` starts in `mem`, if it lies inside it.
    fn offset(&self, at: GpAddr, len: usize) -> Option<usize> {
        let off = usize::try_from(at.checked_sub(self.base)?).ok()?;
        (off.checked_add(len)? <= self.mem.len()).then_some(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocBackend, GpAddr};

    fn heap(backend: AllocBackend) -> Heap {
        let mut a = backend.instantiate();
        a.init(0x10_0000, 1 << 20).unwrap();
        Heap::new(a)
    }

    #[test]
    fn blocks_are_bytes_that_keep_what_was_written() {
        for b in AllocBackend::all() {
            let mut h = heap(b);
            let p = h.malloc(100).unwrap();
            let q = h.malloc(100).unwrap();
            h.bytes_mut(p, 100).unwrap().fill(0xaa);
            h.bytes_mut(q, 100).unwrap().fill(0x55);
            assert!(h.bytes(p, 100).unwrap().iter().all(|&x| x == 0xaa), "{}", b.name());
            assert!(h.bytes(q, 100).unwrap().iter().all(|&x| x == 0x55), "{}", b.name());
            h.free(p);
            h.free(q);
            assert_eq!(h.stats().alloc_count, 2);
        }
    }

    #[test]
    fn views_outside_the_region_are_refused() {
        let h = heap(AllocBackend::Tlsf);
        let (base, len) = h.region();
        assert_eq!((base, len), (0x10_0000, 1 << 20));
        assert!(h.bytes(base, len).is_some());
        assert!(h.bytes(base + 1, len).is_none(), "one past the end");
        assert!(h.bytes(base - 1, 1).is_none(), "before the start");
        assert!(h.bytes(GpAddr::MAX, 2).is_none(), "wraps");
        assert!(h.bytes(base + len as GpAddr, 0).is_some(), "an empty view at the end");
    }
}
