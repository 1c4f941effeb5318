//! Two-Level Segregated Fits (TLSF) allocator.
//!
//! Masmano et al.'s O(1) real-time allocator, one of Unikraft's five
//! backends (§5.5). Free blocks live in `FL x SL` segregated buckets
//! selected by two-level bitmaps; allocation and free are constant-time
//! apart from hash-map block-header lookups (the header that would live
//! in front of the block in a C implementation).
//!
//! Physical-neighbour coalescing is immediate, as in the original TLSF.

use std::collections::HashMap;

use ukplat::{Errno, Result};

use crate::stats::AllocStats;
use crate::{align_region, align_up, Allocator, GpAddr, MIN_ALIGN};

/// log2 of the number of second-level subdivisions.
const SL_LOG2: u32 = 4;
/// Second-level buckets per first level.
const SL_COUNT: usize = 1 << SL_LOG2;
/// First levels (supports blocks up to 2^40).
const FL_COUNT: usize = 40;
/// Smallest block TLSF manages.
const MIN_BLOCK: usize = 32;

/// A block header (what lives in front of the payload in C TLSF).
#[derive(Debug, Clone, Copy)]
struct Block {
    size: usize,
    free: bool,
    /// Address of the physically preceding block, if any.
    prev_phys: Option<GpAddr>,
    /// Generation stamp validating lazily-removed bucket entries.
    gen: u64,
}

/// Maps a size to its (fl, sl) bucket.
fn mapping(size: usize) -> (usize, usize) {
    debug_assert!(size >= MIN_BLOCK);
    let fl = usize::BITS - 1 - size.leading_zeros(); // floor(log2(size))
    let sl = (size >> (fl - SL_LOG2)) & (SL_COUNT - 1);
    (fl as usize, sl)
}

/// Rounds a request up so that any block in the found bucket fits it.
fn round_request(size: usize) -> usize {
    if size < MIN_BLOCK {
        return MIN_BLOCK;
    }
    let fl = usize::BITS - 1 - size.leading_zeros();
    if fl <= SL_LOG2 {
        return size;
    }
    let round = (1usize << (fl - SL_LOG2)) - 1;
    size.saturating_add(round) & !round
}

/// The TLSF allocator state.
#[derive(Debug, Default)]
pub struct TlsfAlloc {
    base: GpAddr,
    len: usize,
    blocks: HashMap<GpAddr, Block>,
    buckets: Vec<Vec<(GpAddr, u64)>>,
    fl_bitmap: u64,
    sl_bitmaps: Vec<u32>,
    next_gen: u64,
    stats: AllocStats,
    initialized: bool,
}

impl TlsfAlloc {
    /// Creates an uninitialized TLSF allocator.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(fl: usize, sl: usize) -> usize {
        fl * SL_COUNT + sl
    }

    fn insert_free(&mut self, addr: GpAddr, size: usize, prev_phys: Option<GpAddr>) {
        let gen = self.next_gen;
        self.next_gen += 1;
        self.blocks.insert(
            addr,
            Block {
                size,
                free: true,
                prev_phys,
                gen,
            },
        );
        let (fl, sl) = mapping(size);
        self.buckets[Self::bucket_index(fl, sl)].push((addr, gen));
        self.fl_bitmap |= 1 << fl;
        self.sl_bitmaps[fl] |= 1 << sl;
    }

    /// Pops a valid free block from bucket (fl, sl); clears the bitmap bit
    /// if the bucket turns out to be empty.
    fn pop_bucket(&mut self, fl: usize, sl: usize) -> Option<(GpAddr, Block)> {
        let idx = Self::bucket_index(fl, sl);
        while let Some((addr, gen)) = self.buckets[idx].pop() {
            if let Some(b) = self.blocks.get(&addr) {
                if b.free && b.gen == gen {
                    let blk = *b;
                    return Some((addr, blk));
                }
            }
        }
        self.sl_bitmaps[fl] &= !(1u32 << sl);
        if self.sl_bitmaps[fl] == 0 {
            self.fl_bitmap &= !(1u64 << fl);
        }
        None
    }

    /// Finds a block whose bucket guarantees `size` fits. O(1) via bitmaps
    /// plus lazy-entry skipping.
    fn find_block(&mut self, size: usize) -> Option<(GpAddr, Block)> {
        loop {
            let (fl, sl) = mapping(size);
            // First: same fl, sl' >= sl.
            let sl_mask = self.sl_bitmaps[fl] & (!0u32 << sl);
            let (tfl, tsl) = if sl_mask != 0 {
                (fl, sl_mask.trailing_zeros() as usize)
            } else {
                // Any larger fl.
                let fl_mask = self.fl_bitmap & (!0u64 << (fl + 1));
                if fl_mask == 0 {
                    return None;
                }
                let tfl = fl_mask.trailing_zeros() as usize;
                let tsl = self.sl_bitmaps[tfl].trailing_zeros() as usize;
                if tsl >= SL_COUNT {
                    // Stale fl bit; clear and retry.
                    self.fl_bitmap &= !(1u64 << tfl);
                    continue;
                }
                (tfl, tsl)
            };
            match self.pop_bucket(tfl, tsl) {
                Some(hit) => return Some(hit),
                None => continue, // Bucket was stale; bitmaps updated, retry.
            }
        }
    }

    /// Splits `size` bytes off the front of a free block just popped from
    /// its bucket, returning the remainder (if any) to the free structure.
    /// Returns the size of the block taken: `size`, or all of `blk` when
    /// the remainder is too small to stand alone.
    fn split_and_take(&mut self, addr: GpAddr, blk: Block, size: usize) -> usize {
        let remainder = blk.size - size;
        if remainder >= MIN_BLOCK {
            let rem_addr = addr + size as u64;
            // Fix the physical back-pointer of the block after the split.
            let after = addr + blk.size as u64;
            if let Some(a) = self.blocks.get_mut(&after) {
                a.prev_phys = Some(rem_addr);
            }
            self.blocks.insert(
                addr,
                Block {
                    size,
                    free: false,
                    prev_phys: blk.prev_phys,
                    gen: 0,
                },
            );
            self.insert_free(rem_addr, remainder, Some(addr));
            size
        } else {
            self.blocks.insert(
                addr,
                Block {
                    size: blk.size,
                    free: false,
                    prev_phys: blk.prev_phys,
                    gen: 0,
                },
            );
            blk.size
        }
    }

    fn end(&self) -> GpAddr {
        self.base + self.len as u64
    }
}

impl Allocator for TlsfAlloc {
    fn name(&self) -> &'static str {
        "TLSF"
    }

    fn init(&mut self, base: GpAddr, len: usize) -> Result<()> {
        if self.initialized {
            return Err(Errno::Busy);
        }
        let Some((base, len)) =
            align_region(base, len, MIN_ALIGN).filter(|&(_, len)| len >= MIN_BLOCK * 2)
        else {
            return Err(Errno::Inval);
        };
        self.base = base;
        self.len = len;
        self.buckets = vec![Vec::new(); FL_COUNT * SL_COUNT];
        self.sl_bitmaps = vec![0; FL_COUNT];
        // TLSF init is O(1): the whole heap becomes a single free block.
        self.insert_free(base, len, None);
        self.stats.meta_bytes = FL_COUNT * SL_COUNT * 8 + FL_COUNT * 4 + 8;
        self.initialized = true;
        Ok(())
    }

    fn malloc(&mut self, size: usize) -> Option<GpAddr> {
        let need = round_request(align_up(size.max(1) as u64, MIN_ALIGN as u64) as usize);
        match self.find_block(need) {
            Some((addr, blk)) => {
                // The stats charge the block taken: what `free` takes off.
                let taken = self.split_and_take(addr, blk, need);
                self.stats.on_alloc(taken);
                Some(addr)
            }
            None => {
                self.stats.on_fail();
                None
            }
        }
    }

    fn memalign(&mut self, align: usize, size: usize) -> Option<GpAddr> {
        if align <= MIN_ALIGN {
            return self.malloc(size);
        }
        // Over-allocate, then return the leading pad to the free pool.
        // The slack request must itself be bucket-rounded so any block
        // in the found bucket is guaranteed to fit pad + need.
        let need = round_request(align_up(size.max(1) as u64, MIN_ALIGN as u64) as usize);
        let (addr, blk) = match self.find_block(round_request(need + align + MIN_BLOCK)) {
            Some(hit) => hit,
            None => {
                self.stats.on_fail();
                return None;
            }
        };
        let mut aligned = align_up(addr, align as u64);
        if aligned != addr && (aligned - addr) < MIN_BLOCK as u64 {
            aligned += align as u64;
        }
        let pad = (aligned - addr) as usize;
        debug_assert!(pad == 0 || pad >= MIN_BLOCK);
        debug_assert!(pad + need <= blk.size);
        let taken = if pad > 0 {
            // Split off the pad as its own free block, then take `need`
            // from the rest.
            let rest = Block {
                size: blk.size - pad,
                free: true,
                prev_phys: Some(addr),
                gen: 0,
            };
            // Fix back-pointer of the block after the original.
            let after = addr + blk.size as u64;
            if let Some(a) = self.blocks.get_mut(&after) {
                a.prev_phys = Some(aligned);
            }
            self.insert_free(addr, pad, blk.prev_phys);
            let taken = self.split_and_take(aligned, rest, need);
            // `split_and_take` wrote prev_phys from `rest`; ensure the
            // taken block points back at the pad block.
            if let Some(b) = self.blocks.get_mut(&aligned) {
                b.prev_phys = Some(addr);
            }
            taken
        } else {
            self.split_and_take(addr, blk, need)
        };
        self.stats.on_alloc(taken);
        Some(aligned)
    }

    fn free(&mut self, ptr: GpAddr) {
        let blk = match self.blocks.get(&ptr) {
            Some(b) if !b.free => *b,
            _ => panic!("tlsf: free of unallocated address {ptr:#x}"),
        };
        self.stats.on_free(blk.size);
        let mut addr = ptr;
        let mut size = blk.size;
        let mut prev_phys = blk.prev_phys;
        // Coalesce with the previous physical block.
        if let Some(p) = prev_phys {
            if let Some(pb) = self.blocks.get(&p) {
                if pb.free {
                    size += pb.size;
                    prev_phys = pb.prev_phys;
                    self.blocks.remove(&p);
                    addr = p;
                }
            }
        }
        // Coalesce with the next physical block.
        let next = ptr + blk.size as u64;
        if next < self.end() {
            if let Some(nb) = self.blocks.get(&next) {
                if nb.free {
                    size += nb.size;
                    self.blocks.remove(&next);
                }
            }
        }
        self.blocks.remove(&ptr);
        // Fix the back-pointer of whatever now follows the merged block.
        let after = addr + size as u64;
        if let Some(a) = self.blocks.get_mut(&after) {
            a.prev_phys = Some(addr);
        }
        self.insert_free(addr, size, prev_phys);
    }

    fn region(&self) -> (GpAddr, usize) {
        (self.base, self.len)
    }

    fn available(&self) -> usize {
        self.blocks
            .values()
            .filter(|b| b.free)
            .map(|b| b.size)
            .sum()
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(len: usize) -> TlsfAlloc {
        let mut t = TlsfAlloc::new();
        t.init(1 << 20, len).unwrap();
        t
    }

    #[test]
    fn mapping_is_monotonic() {
        let mut last = (0, 0);
        for size in (MIN_BLOCK..8192).step_by(32) {
            let m = mapping(size);
            assert!(m >= last, "mapping must not decrease: {size}");
            last = m;
        }
    }

    #[test]
    fn round_request_guarantees_fit() {
        for size in [32, 33, 100, 1000, 4097, 65535] {
            let r = round_request(size);
            assert!(r >= size);
            // Any block in bucket mapping(r) is >= r.
            let (fl, sl) = mapping(r);
            let bucket_min = (1usize << fl) + (sl << (fl as u32 - SL_LOG2) as usize);
            assert!(bucket_min >= r, "size {size} round {r} bucket_min {bucket_min}");
        }
    }

    #[test]
    fn alloc_free_restores_single_block() {
        let mut t = mk(1 << 20);
        let total = t.available();
        let p = t.malloc(1000).unwrap();
        let q = t.malloc(5000).unwrap();
        t.free(p);
        t.free(q);
        assert_eq!(t.available(), total, "coalescing must merge all");
        // Everything merged back into one block.
        assert_eq!(t.blocks.values().filter(|b| b.free).count(), 1);
    }

    #[test]
    fn allocations_disjoint() {
        let mut t = mk(1 << 20);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for i in 1..100usize {
            let sz = i * 37 % 2000 + 1;
            let p = t.malloc(sz).unwrap();
            let b = t.blocks[&p];
            for &(s, e) in &spans {
                assert!(p + b.size as u64 <= s || p >= e);
            }
            spans.push((p, p + b.size as u64));
        }
    }

    #[test]
    fn memalign_returns_aligned_and_freeable() {
        let mut t = mk(1 << 20);
        for align in [32usize, 64, 256, 4096] {
            let p = t.memalign(align, 100).unwrap();
            assert_eq!(p % align as u64, 0, "align {align}");
            t.free(p);
        }
        // Heap must be fully coalesced again.
        assert_eq!(t.blocks.values().filter(|b| b.free).count(), 1);
    }

    #[test]
    fn interleaved_free_coalesces_neighbours() {
        let mut t = mk(1 << 20);
        let a = t.malloc(256).unwrap();
        let b = t.malloc(256).unwrap();
        let c = t.malloc(256).unwrap();
        t.free(b);
        t.free(a); // Should merge with b's space.
        t.free(c); // Should merge everything.
        assert_eq!(t.blocks.values().filter(|bb| bb.free).count(), 1);
    }

    #[test]
    fn exhaustion_fails_cleanly() {
        let mut t = mk(64 * 1024);
        let mut ptrs = Vec::new();
        while let Some(p) = t.malloc(1024) {
            ptrs.push(p);
        }
        assert!(t.stats().failed_count > 0);
        for p in ptrs {
            t.free(p);
        }
        assert_eq!(t.blocks.values().filter(|b| b.free).count(), 1);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn wild_free_panics() {
        let mut t = mk(1 << 20);
        t.free(0xdead_beef);
    }

    #[test]
    fn init_is_o1_single_block() {
        let t = mk(1 << 24);
        assert_eq!(t.blocks.len(), 1, "TLSF init creates one free block");
    }
}
