//! Binary-buddy allocator.
//!
//! The heritage allocator Unikraft inherited from Mini-OS (`mm.c`): memory
//! is carved into power-of-two blocks; allocation splits larger blocks,
//! free coalesces buddies. Initialization walks the whole heap building
//! the page bitmap, which is why the paper's Figure 14 shows the buddy
//! allocator booting ~6x slower than the region allocator (3.07 ms vs
//! 0.49 ms for nginx) — we reproduce that by doing the same per-page work.
//!
//! Blocks are absolutely size-aligned, so a block's buddy is `addr ^ size`.

use std::collections::HashMap;

use ukplat::{Errno, Result};

use crate::stats::AllocStats;
use crate::{align_region, Allocator, GpAddr, MIN_ALIGN};

/// Smallest block the buddy allocator hands out.
const MIN_BLOCK: usize = 32;
/// Largest supported block (1 GiB).
const MAX_ORDER: u8 = 25; // MIN_BLOCK << 25 = 1 GiB

/// Simulated page size for the init-time frame bitmap.
const PAGE: usize = 4096;

fn order_for(size: usize) -> Option<u8> {
    let size = size.max(MIN_BLOCK);
    let mut order = 0u8;
    let mut block = MIN_BLOCK;
    while block < size {
        block <<= 1;
        order += 1;
        if order > MAX_ORDER {
            return None;
        }
    }
    Some(order)
}

fn block_size(order: u8) -> usize {
    MIN_BLOCK << order
}

/// The buddy allocator state.
#[derive(Debug, Default)]
pub struct BuddyAlloc {
    base: GpAddr,
    len: usize,
    /// Per-order stacks of free block addresses (lazily invalidated).
    free_lists: Vec<Vec<GpAddr>>,
    /// Ground truth of free blocks: address → order.
    free_set: HashMap<GpAddr, u8>,
    /// Live allocations: address → order.
    allocated: HashMap<GpAddr, u8>,
    /// Page-frame bitmap built at init (one bit per 4 KiB page) — the
    /// Mini-OS-style init work that dominates buddy boot time.
    frame_bitmap: Vec<u64>,
    stats: AllocStats,
    initialized: bool,
}

impl BuddyAlloc {
    /// Creates an uninitialized buddy allocator.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_free(&mut self, addr: GpAddr, order: u8) {
        self.free_set.insert(addr, order);
        self.free_lists[order as usize].push(addr);
    }

    /// Pops a genuinely free block of exactly `order`, skipping stale
    /// entries left behind by coalescing.
    fn pop_free(&mut self, order: u8) -> Option<GpAddr> {
        while let Some(addr) = self.free_lists[order as usize].pop() {
            if self.free_set.get(&addr) == Some(&order) {
                self.free_set.remove(&addr);
                return Some(addr);
            }
        }
        None
    }

    fn alloc_order(&mut self, order: u8) -> Option<GpAddr> {
        if let Some(addr) = self.pop_free(order) {
            return Some(addr);
        }
        // Split the next larger block.
        if order >= MAX_ORDER {
            return None;
        }
        let parent = self.alloc_order(order + 1)?;
        let half = block_size(order) as u64;
        self.push_free(parent + half, order);
        Some(parent)
    }
}

impl Allocator for BuddyAlloc {
    fn name(&self) -> &'static str {
        "Binary buddy"
    }

    fn init(&mut self, base: GpAddr, len: usize) -> Result<()> {
        if self.initialized {
            return Err(Errno::Busy);
        }
        let Some((base, len)) =
            align_region(base, len, MIN_BLOCK).filter(|&(_, len)| len >= MIN_BLOCK * 2)
        else {
            return Err(Errno::Inval);
        };
        self.base = base;
        self.len = len;
        self.free_lists = vec![Vec::new(); MAX_ORDER as usize + 1];

        // Mini-OS-style init: mark every page frame free, one bit at a
        // time. This is the real per-page cost Figure 14 measures.
        let pages = len / PAGE;
        self.frame_bitmap = vec![0u64; pages.div_ceil(64)];
        for p in 0..pages {
            self.frame_bitmap[p / 64] |= 1 << (p % 64);
        }

        // Carve the region into maximal absolutely-aligned blocks.
        let mut cur = base;
        let end = base + len as u64;
        while cur + MIN_BLOCK as u64 <= end {
            let align_limit = if cur == 0 {
                block_size(MAX_ORDER)
            } else {
                1usize << cur.trailing_zeros().min(40)
            };
            let remaining = (end - cur) as usize;
            let mut order = MAX_ORDER;
            while order > 0
                && (block_size(order) > remaining || block_size(order) > align_limit)
            {
                order -= 1;
            }
            if block_size(order) > remaining {
                break;
            }
            self.push_free(cur, order);
            cur += block_size(order) as u64;
        }
        self.stats.meta_bytes = self.frame_bitmap.len() * 8;
        self.initialized = true;
        Ok(())
    }

    fn malloc(&mut self, size: usize) -> Option<GpAddr> {
        let order = match order_for(size) {
            Some(o) => o,
            None => {
                self.stats.on_fail();
                return None;
            }
        };
        match self.alloc_order(order) {
            Some(addr) => {
                self.allocated.insert(addr, order);
                self.stats.on_alloc(block_size(order));
                Some(addr)
            }
            None => {
                self.stats.on_fail();
                None
            }
        }
    }

    fn memalign(&mut self, align: usize, size: usize) -> Option<GpAddr> {
        // A buddy block of size >= align is align-aligned by construction.
        self.malloc(size.max(align).max(MIN_ALIGN))
    }

    fn free(&mut self, ptr: GpAddr) {
        let mut order = self
            .allocated
            .remove(&ptr)
            .unwrap_or_else(|| panic!("buddy: free of unallocated address {ptr:#x}"));
        self.stats.on_free(block_size(order));
        // Coalesce with the buddy while possible.
        let mut addr = ptr;
        while order < MAX_ORDER {
            let buddy = addr ^ block_size(order) as u64;
            if self.free_set.get(&buddy) == Some(&order) {
                self.free_set.remove(&buddy);
                addr = addr.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.push_free(addr, order);
    }

    fn region(&self) -> (GpAddr, usize) {
        (self.base, self.len)
    }

    fn available(&self) -> usize {
        self.free_set
            .iter()
            .map(|(_, &o)| block_size(o))
            .sum::<usize>()
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(len: usize) -> BuddyAlloc {
        let mut b = BuddyAlloc::new();
        b.init(1 << 20, len).unwrap();
        b
    }

    #[test]
    fn order_for_rounds_to_power_of_two() {
        assert_eq!(order_for(1), Some(0));
        assert_eq!(order_for(32), Some(0));
        assert_eq!(order_for(33), Some(1));
        assert_eq!(order_for(4096), Some(7));
        assert!(order_for(2 << 30).is_none());
    }

    #[test]
    fn split_and_coalesce_roundtrip() {
        let mut b = mk(1 << 20);
        let before = b.available();
        let p = b.malloc(100).unwrap();
        assert!(b.available() < before);
        b.free(p);
        assert_eq!(b.available(), before, "full coalescing must restore");
    }

    #[test]
    fn blocks_are_size_aligned() {
        let mut b = mk(1 << 20);
        let p = b.malloc(8192).unwrap();
        assert_eq!(p % 8192, 0);
        let q = b.memalign(4096, 64).unwrap();
        assert_eq!(q % 4096, 0);
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let mut b = mk(1 << 20);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for i in 0..64 {
            let sz = 32 + i * 17;
            let p = b.malloc(sz).unwrap();
            let blk = block_size(order_for(sz).unwrap()) as u64;
            for &(s, e) in &spans {
                assert!(p + blk <= s || p >= e, "overlap at {p:#x}");
            }
            spans.push((p, p + blk));
        }
    }

    #[test]
    fn exhaustion_returns_none_and_counts_failure() {
        let mut b = mk(64 * 1024);
        let mut ptrs = Vec::new();
        while let Some(p) = b.malloc(4096) {
            ptrs.push(p);
        }
        assert!(b.stats().failed_count >= 1);
        assert!(!ptrs.is_empty());
        for p in ptrs {
            b.free(p);
        }
    }

    #[test]
    fn non_power_of_two_region_is_carved_fully() {
        // 1 MiB + 96 KiB region must expose nearly all of it.
        let mut b = BuddyAlloc::new();
        b.init(1 << 20, (1 << 20) + 96 * 1024).unwrap();
        assert!(b.available() >= (1 << 20) + 64 * 1024);
    }

    #[test]
    fn double_init_fails() {
        let mut b = mk(1 << 20);
        assert_eq!(b.init(0, 1 << 20).unwrap_err(), Errno::Busy);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn double_free_panics() {
        let mut b = mk(1 << 20);
        let p = b.malloc(64).unwrap();
        b.free(p);
        b.free(p);
    }

    #[test]
    fn stats_track_block_sizes() {
        let mut b = mk(1 << 20);
        let p = b.malloc(100).unwrap(); // Rounds to 128-block.
        assert_eq!(b.stats().cur_bytes, 128);
        b.free(p);
        assert_eq!(b.stats().cur_bytes, 0);
        assert_eq!(b.stats().alloc_count, 1);
        assert_eq!(b.stats().free_count, 1);
    }
}
