//! tinyalloc-style allocator.
//!
//! A port of the design of thi.ng's `tinyalloc`: a small block table,
//! first-fit search over an address-ordered free list, and eager
//! compaction of adjacent free blocks. Cheap for small, short-lived
//! workloads; the ordered-insert + compaction pass makes it progressively
//! more expensive as the number of live blocks grows — exactly the
//! behaviour behind the paper's Figure 16 (tinyalloc fastest below ~1000
//! SQLite queries, suboptimal above).

use std::collections::HashMap;

use ukplat::{Errno, Result};

use crate::stats::AllocStats;
use crate::{align_region, align_up, Allocator, GpAddr, MIN_ALIGN};

/// Smallest usable split remainder.
const MIN_SPLIT: usize = 32;

/// The tinyalloc state.
#[derive(Debug, Default)]
pub struct TinyAlloc {
    base: GpAddr,
    end: GpAddr,
    /// Bump pointer for fresh blocks.
    top: GpAddr,
    /// Address-ordered free blocks `(addr, size)`.
    free: Vec<(GpAddr, usize)>,
    /// Live blocks `addr → size`.
    used: HashMap<GpAddr, usize>,
    stats: AllocStats,
    initialized: bool,
}

impl TinyAlloc {
    /// Creates an uninitialized tinyalloc.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a block into the ordered free list and merges neighbours.
    /// The O(n) ordered insert + compaction is tinyalloc's signature cost.
    fn insert_free(&mut self, addr: GpAddr, size: usize) {
        let pos = self.free.partition_point(|&(a, _)| a < addr);
        self.free.insert(pos, (addr, size));
        // Merge with successor.
        if pos + 1 < self.free.len() {
            let (na, ns) = self.free[pos + 1];
            if addr + self.free[pos].1 as u64 == na {
                self.free[pos].1 += ns;
                self.free.remove(pos + 1);
            }
        }
        // Merge with predecessor.
        if pos > 0 {
            let (pa, ps) = self.free[pos - 1];
            if pa + ps as u64 == self.free[pos].0 {
                let sz = self.free[pos].1;
                self.free[pos - 1].1 += sz;
                self.free.remove(pos);
            }
        }
        // Compaction against the bump frontier: if the top-most free block
        // touches `top`, return it to the fresh area.
        if let Some(&(la, ls)) = self.free.last() {
            if la + ls as u64 == self.top {
                self.top = la;
                self.free.pop();
            }
        }
    }

    /// The first free block that fits `size` at `align`: its address and
    /// the bytes taken (`size`, plus a remainder too small to split off).
    fn take_first_fit(&mut self, size: usize, align: usize) -> Option<(GpAddr, usize)> {
        for i in 0..self.free.len() {
            let (addr, bsize) = self.free[i];
            let aligned = align_up(addr, align as u64);
            let pad = (aligned - addr) as usize;
            if pad + size <= bsize {
                self.free.remove(i);
                if pad > 0 {
                    self.insert_free(addr, pad);
                }
                let rem = bsize - pad - size;
                let taken = if rem >= MIN_SPLIT {
                    self.insert_free(aligned + size as u64, rem);
                    size
                } else {
                    size + rem
                };
                self.used.insert(aligned, taken);
                return Some((aligned, taken));
            }
        }
        None
    }

    fn bump(&mut self, size: usize, align: usize) -> Option<(GpAddr, usize)> {
        let aligned = align_up(self.top, align as u64);
        let end = aligned.checked_add(size as u64)?;
        if end > self.end {
            return None;
        }
        if aligned > self.top {
            // The alignment gap becomes a free fragment.
            let gap = (aligned - self.top) as usize;
            if gap >= MIN_SPLIT {
                let t = self.top;
                self.top = aligned; // Must move top before insert_free sees it.
                self.insert_free(t, gap);
            }
        }
        self.top = end;
        self.used.insert(aligned, size);
        Some((aligned, size))
    }
}

impl Allocator for TinyAlloc {
    fn name(&self) -> &'static str {
        "tinyalloc"
    }

    fn init(&mut self, base: GpAddr, len: usize) -> Result<()> {
        if self.initialized {
            return Err(Errno::Busy);
        }
        let Some((base, len)) =
            align_region(base, len, MIN_ALIGN).filter(|&(_, len)| len >= MIN_SPLIT * 2)
        else {
            return Err(Errno::Inval);
        };
        self.base = base;
        self.end = base + len as u64;
        self.top = base;
        // tinyalloc init is tiny: clear the (pre-sized) block table.
        self.free = Vec::with_capacity(256);
        self.stats.meta_bytes = 256 * std::mem::size_of::<(GpAddr, usize)>();
        self.initialized = true;
        Ok(())
    }

    fn malloc(&mut self, size: usize) -> Option<GpAddr> {
        let size = align_up(size.max(1) as u64, MIN_ALIGN as u64) as usize;
        let r = self
            .take_first_fit(size, MIN_ALIGN)
            .or_else(|| self.bump(size, MIN_ALIGN));
        match r {
            // The stats charge the block taken: what `free` takes off.
            Some((p, taken)) => {
                self.stats.on_alloc(taken);
                Some(p)
            }
            None => {
                self.stats.on_fail();
                None
            }
        }
    }

    fn memalign(&mut self, align: usize, size: usize) -> Option<GpAddr> {
        let size = align_up(size.max(1) as u64, MIN_ALIGN as u64) as usize;
        let align = align.max(MIN_ALIGN);
        let r = self
            .take_first_fit(size, align)
            .or_else(|| self.bump(size, align));
        match r {
            // The stats charge the block taken: what `free` takes off.
            Some((p, taken)) => {
                self.stats.on_alloc(taken);
                Some(p)
            }
            None => {
                self.stats.on_fail();
                None
            }
        }
    }

    fn free(&mut self, ptr: GpAddr) {
        let size = self
            .used
            .remove(&ptr)
            .unwrap_or_else(|| panic!("tinyalloc: free of unallocated address {ptr:#x}"));
        self.stats.on_free(size);
        self.insert_free(ptr, size);
    }

    fn region(&self) -> (GpAddr, usize) {
        (self.base, (self.end - self.base) as usize)
    }

    fn available(&self) -> usize {
        (self.end - self.top) as usize + self.free.iter().map(|&(_, s)| s).sum::<usize>()
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(len: usize) -> TinyAlloc {
        let mut t = TinyAlloc::new();
        t.init(1 << 20, len).unwrap();
        t
    }

    #[test]
    fn bump_then_reuse() {
        let mut t = mk(1 << 20);
        let a = t.malloc(100).unwrap();
        let b = t.malloc(100).unwrap();
        assert!(b > a);
        t.free(a);
        // First-fit reuses the freed block.
        let c = t.malloc(50).unwrap();
        assert_eq!(c, a);
        t.free(b);
        t.free(c);
    }

    #[test]
    fn free_compaction_restores_top() {
        let mut t = mk(1 << 20);
        let total = t.available();
        let a = t.malloc(128).unwrap();
        let b = t.malloc(128).unwrap();
        let c = t.malloc(128).unwrap();
        t.free(a);
        t.free(b);
        t.free(c);
        assert_eq!(t.available(), total);
        assert!(t.free.is_empty(), "all blocks compacted into fresh area");
    }

    #[test]
    fn adjacent_frees_merge() {
        let mut t = mk(1 << 20);
        let a = t.malloc(64).unwrap();
        let b = t.malloc(64).unwrap();
        let _c = t.malloc(64).unwrap(); // Keeps top away.
        t.free(a);
        t.free(b);
        assert_eq!(t.free.len(), 1, "a and b must merge");
        assert_eq!(t.free[0], (a, 128));
    }

    #[test]
    fn memalign_respects_alignment() {
        let mut t = mk(1 << 20);
        let _pad = t.malloc(48).unwrap();
        let p = t.memalign(4096, 100).unwrap();
        assert_eq!(p % 4096, 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut t = mk(4096);
        let mut n = 0;
        while t.malloc(512).is_some() {
            n += 1;
        }
        assert!(n >= 7);
        assert!(t.stats().failed_count > 0);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn wild_free_panics() {
        let mut t = mk(1 << 20);
        t.free(12345);
    }
}
