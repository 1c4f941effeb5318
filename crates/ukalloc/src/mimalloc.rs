//! mimalloc-style allocator: free-list sharding in action.
//!
//! Models the structure of Leijen et al.'s mimalloc, the state-of-the-art
//! general-purpose allocator the paper uses for its headline numbers
//! (§5.3: "Unikraft measurements use Mimalloc as the memory allocator"):
//!
//! - the heap is carved into 4 MiB *segments*;
//! - segments are carved into 64 KiB *pages*;
//! - each page serves exactly one size class and owns a *sharded* free
//!   list (one list per page rather than one per size class), keeping
//!   the hot path short and cache-local;
//! - the malloc fast path is: pop from the current page's free list, or
//!   bump-allocate from the page's unused tail.
//!
//! Large allocations (> 16 KiB) take a fallback path with a first-fit
//! free list, as mimalloc's huge objects do.

use std::collections::HashMap;

use ukplat::{Errno, Result};

use crate::stats::AllocStats;
use crate::{align_region, align_up, Allocator, GpAddr, MIN_ALIGN};

/// Segment size (mimalloc uses 4 MiB segments).
const SEGMENT: usize = 4 * 1024 * 1024;
/// Page size within a segment (mimalloc small pages are 64 KiB).
const PAGE: usize = 64 * 1024;
/// Largest size served from sharded pages.
const SMALL_MAX: usize = 16 * 1024;

/// Size classes: 16, 32, 48, 64, then two classes per power of two
/// (96/128, 192/256, ...) — coarser than mimalloc's bins, which
/// split each doubling four ways, so a block wastes up to a third of
/// itself here where mimalloc's waste stays under a fifth.
fn class_of(size: usize) -> usize {
    debug_assert!(size <= SMALL_MAX);
    let size = size.max(1);
    if size <= 64 {
        size.div_ceil(16) - 1 // 0..=3 for 16/32/48/64
    } else {
        let b = (usize::BITS - (size - 1).leading_zeros()) as usize; // ceil log2
        let base = 1usize << (b - 1);
        let step = base / 2;
        let idx = usize::from(size > base + step);
        4 + (b - 7) * 2 + idx
    }
}

/// Block size for a class (inverse of `class_of`, rounded up).
/// The bytes a large request takes: rounded up to [`MIN_ALIGN`].
fn large_block(size: usize) -> usize {
    align_up(size as u64, MIN_ALIGN as u64) as usize
}

fn class_size(class: usize) -> usize {
    if class < 4 {
        (class + 1) * 16
    } else {
        let c = class - 4;
        let b = c / 2 + 7;
        let base = 1usize << (b - 1);
        let step = base / 2;
        // idx 0 → base + step (e.g. 96), idx 1 → 2 * base (e.g. 128).
        base + (c % 2 + 1) * step
    }
}

/// One 64 KiB page serving a single size class.
#[derive(Debug)]
struct Page {
    base: GpAddr,
    block_size: usize,
    capacity: u32,
    /// Next never-used block index (bump within the page).
    bump: u32,
    /// Sharded free list: indices of freed blocks in this page.
    free: Vec<u32>,
    used: u32,
}

impl Page {
    fn alloc(&mut self) -> Option<GpAddr> {
        let idx = if let Some(i) = self.free.pop() {
            i
        } else if self.bump < self.capacity {
            let i = self.bump;
            self.bump += 1;
            i
        } else {
            return None;
        };
        self.used += 1;
        Some(self.base + (idx as usize * self.block_size) as u64)
    }
}

/// The mimalloc-style allocator state.
#[derive(Debug, Default)]
pub struct Mimalloc {
    base: GpAddr,
    end: GpAddr,
    /// Bump pointer carving new segments.
    seg_bump: GpAddr,
    /// Bump pointer carving pages inside the current segment.
    page_bump: GpAddr,
    page_bump_end: GpAddr,
    pages: Vec<Page>,
    /// Current page per size class.
    current: Vec<Option<usize>>,
    /// Non-full pages per class (excluding current).
    partial: Vec<Vec<usize>>,
    /// Page directory: page base → page index.
    directory: HashMap<GpAddr, usize>,
    /// Large allocations: addr → size.
    large_used: HashMap<GpAddr, usize>,
    /// Address-ordered large free list.
    large_free: Vec<(GpAddr, usize)>,
    /// Bump for large area (carved from the top of the heap downwards).
    large_top: GpAddr,
    stats: AllocStats,
    initialized: bool,
}

impl Mimalloc {
    /// Creates an uninitialized mimalloc.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of size classes we track.
    fn nclasses() -> usize {
        class_of(SMALL_MAX) + 1
    }

    fn new_page(&mut self, class: usize) -> Option<usize> {
        if self.page_bump + PAGE as u64 > self.page_bump_end {
            // Carve a new segment.
            let seg = align_up(self.seg_bump, PAGE as u64);
            if seg + SEGMENT as u64 > self.large_top {
                // Heap exhausted (segments grow up, large area grows down).
                // Fall back to a smaller final segment if possible.
                if seg + PAGE as u64 > self.large_top {
                    return None;
                }
                self.page_bump = seg;
                self.page_bump_end = self.large_top & !(PAGE as u64 - 1);
                self.seg_bump = self.page_bump_end;
            } else {
                self.page_bump = seg;
                self.page_bump_end = seg + SEGMENT as u64;
                self.seg_bump = seg + SEGMENT as u64;
            }
        }
        let base = self.page_bump;
        self.page_bump += PAGE as u64;
        let block_size = class_size(class);
        let page = Page {
            base,
            block_size,
            capacity: (PAGE / block_size) as u32,
            bump: 0,
            free: Vec::new(),
            used: 0,
        };
        let idx = self.pages.len();
        self.pages.push(page);
        self.directory.insert(base, idx);
        Some(idx)
    }

    fn alloc_small(&mut self, size: usize) -> Option<GpAddr> {
        let class = class_of(size);
        // Fast path: current page.
        if let Some(pi) = self.current[class] {
            if let Some(p) = self.pages[pi].alloc() {
                return Some(p);
            }
        }
        // Retire the full page; adopt a partial or a fresh one.
        let pi = match self.partial[class].pop() {
            Some(pi) => pi,
            None => self.new_page(class)?,
        };
        self.current[class] = Some(pi);
        self.pages[pi].alloc()
    }

    fn alloc_large(&mut self, size: usize, align: usize) -> Option<GpAddr> {
        let size = large_block(size);
        // First-fit over the large free list.
        for i in 0..self.large_free.len() {
            let (addr, bsize) = self.large_free[i];
            let aligned = align_up(addr, align as u64);
            let pad = (aligned - addr) as usize;
            if pad + size <= bsize {
                self.large_free.remove(i);
                if pad > 0 {
                    self.large_free.push((addr, pad));
                }
                let rem = bsize - pad - size;
                if rem > 0 {
                    self.large_free.push((aligned + size as u64, rem));
                }
                self.large_used.insert(aligned, size);
                return Some(aligned);
            }
        }
        // Carve downward from the top.
        let aligned_top = self.large_top.checked_sub(size as u64)? & !(align as u64 - 1);
        if aligned_top < self.seg_bump.max(self.page_bump) {
            return None;
        }
        let gap = self.large_top - (aligned_top + size as u64);
        if gap > 0 {
            self.large_free.push((aligned_top + size as u64, gap as usize));
        }
        self.large_top = aligned_top;
        self.large_used.insert(aligned_top, size);
        Some(aligned_top)
    }
}

impl Allocator for Mimalloc {
    fn name(&self) -> &'static str {
        "Mimalloc"
    }

    fn init(&mut self, base: GpAddr, len: usize) -> Result<()> {
        if self.initialized {
            return Err(Errno::Busy);
        }
        let Some((base, len)) = align_region(base, len, PAGE).filter(|&(_, len)| len >= 2 * PAGE)
        else {
            return Err(Errno::Inval);
        };
        self.base = base;
        self.end = base + len as u64;
        self.seg_bump = base;
        self.page_bump = base;
        self.page_bump_end = base;
        self.large_top = self.end;
        let n = Self::nclasses();
        self.current = vec![None; n];
        self.partial = vec![Vec::new(); n];
        // mimalloc init allocates its heap metadata: size-class tables and
        // an initial segment descriptor. Moderate cost, far below buddy.
        self.pages = Vec::with_capacity(64);
        self.stats.meta_bytes = n * 64 + 64 * std::mem::size_of::<Page>();
        self.initialized = true;
        Ok(())
    }

    fn malloc(&mut self, size: usize) -> Option<GpAddr> {
        let size = size.max(1);
        // The stats charge the block handed out: what `free` takes off.
        let (r, block) = if size <= SMALL_MAX {
            (self.alloc_small(size), class_size(class_of(size)))
        } else {
            (self.alloc_large(size, MIN_ALIGN), large_block(size))
        };
        match r {
            Some(p) => {
                self.stats.on_alloc(block);
                Some(p)
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
        // Small aligned requests: use a class whose block size is a
        // multiple of the alignment (pages are PAGE-aligned and blocks are
        // block_size-strided from the page base).
        if size <= SMALL_MAX && align <= PAGE {
            let need = align_up(size.max(align) as u64, align as u64) as usize;
            if need <= SMALL_MAX {
                let class = class_of(need);
                if class_size(class).is_multiple_of(align) {
                    let r = self.alloc_small(need);
                    if let Some(p) = r {
                        if p % align as u64 == 0 {
                            self.stats.on_alloc(class_size(class));
                            return Some(p);
                        }
                        // Block not aligned (class size not a multiple);
                        // release and fall through to the large path.
                        self.free_inner(p, false);
                    }
                }
            }
        }
        let r = self.alloc_large(size, align);
        match r {
            Some(p) => {
                self.stats.on_alloc(large_block(size));
                Some(p)
            }
            None => {
                self.stats.on_fail();
                None
            }
        }
    }

    fn free(&mut self, ptr: GpAddr) {
        self.free_inner(ptr, true);
    }

    fn region(&self) -> (GpAddr, usize) {
        (self.base, (self.end - self.base) as usize)
    }

    fn available(&self) -> usize {
        let seg_area = (self.large_top.saturating_sub(self.page_bump)) as usize;
        let page_free: usize = self
            .pages
            .iter()
            .map(|p| {
                ((p.capacity - p.bump) as usize + p.free.len()) * p.block_size
            })
            .sum();
        let large_free: usize = self.large_free.iter().map(|&(_, s)| s).sum();
        seg_area + page_free + large_free
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

impl Mimalloc {
    fn free_inner(&mut self, ptr: GpAddr, count: bool) {
        if let Some(size) = self.large_used.remove(&ptr) {
            if count {
                self.stats.on_free(size);
            }
            self.large_free.push((ptr, size));
            return;
        }
        let page_base = ptr & !(PAGE as u64 - 1);
        let pi = *self
            .directory
            .get(&page_base)
            .unwrap_or_else(|| panic!("mimalloc: free of unallocated address {ptr:#x}"));
        let page = &mut self.pages[pi];
        let off = ptr - page.base;
        assert_eq!(
            off % page.block_size as u64,
            0,
            "mimalloc: interior free at {ptr:#x}"
        );
        let idx = (off / page.block_size as u64) as u32;
        assert!(idx < page.bump, "mimalloc: free of never-allocated block");
        debug_assert!(!page.free.contains(&idx), "double free at {ptr:#x}");
        let was_full = page.used == page.capacity;
        page.free.push(idx);
        page.used -= 1;
        if count {
            self.stats.on_free(page.block_size);
        }
        if was_full {
            // Page becomes reusable: put it back on the partial list.
            let class = class_of(page.block_size);
            if self.current[class] != Some(pi) {
                self.partial[class].push(pi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(len: usize) -> Mimalloc {
        let mut m = Mimalloc::new();
        m.init(1 << 22, len).unwrap();
        m
    }

    #[test]
    fn class_size_is_inverse_of_class_of() {
        for size in [1, 16, 17, 64, 65, 100, 128, 1000, 4096, 10000, SMALL_MAX] {
            let c = class_of(size);
            assert!(
                class_size(c) >= size,
                "class {c} size {} < request {size}",
                class_size(c)
            );
        }
    }

    #[test]
    fn classes_are_monotonic() {
        let mut last = 0;
        for s in 1..=SMALL_MAX {
            let c = class_of(s);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn small_allocs_share_page() {
        let mut m = mk(16 << 20);
        let a = m.malloc(100).unwrap();
        let b = m.malloc(100).unwrap();
        // Same 64 KiB page.
        assert_eq!(a & !(PAGE as u64 - 1), b & !(PAGE as u64 - 1));
        assert_ne!(a, b);
    }

    #[test]
    fn sharded_free_list_reuses_block() {
        let mut m = mk(16 << 20);
        let a = m.malloc(100).unwrap();
        let _b = m.malloc(100).unwrap();
        m.free(a);
        let c = m.malloc(100).unwrap();
        assert_eq!(a, c, "freed block must be reused from the page shard");
    }

    #[test]
    fn large_allocations_work_and_free() {
        let mut m = mk(16 << 20);
        let p = m.malloc(1 << 20).unwrap();
        let q = m.malloc(1 << 20).unwrap();
        assert_ne!(p, q);
        m.free(p);
        m.free(q);
        let r = m.malloc(1 << 20).unwrap();
        assert!(r >= m.base);
    }

    #[test]
    fn page_exhaustion_rolls_to_new_page() {
        let mut m = mk(16 << 20);
        let per_page = PAGE / 16;
        let mut ptrs = Vec::new();
        for _ in 0..per_page + 10 {
            ptrs.push(m.malloc(16).unwrap());
        }
        let pages: std::collections::HashSet<_> =
            ptrs.iter().map(|p| p & !(PAGE as u64 - 1)).collect();
        assert!(pages.len() >= 2);
        for p in ptrs {
            m.free(p);
        }
    }

    #[test]
    fn memalign_large_alignment() {
        let mut m = mk(16 << 20);
        let p = m.memalign(4096, 5000).unwrap();
        assert_eq!(p % 4096, 0);
        m.free(p);
    }

    #[test]
    fn exhaustion_fails_cleanly() {
        let mut m = mk(2 * PAGE + 4096);
        let mut ok = 0;
        while m.malloc(1024).is_some() {
            ok += 1;
            if ok > 1_000_000 {
                panic!("never exhausts");
            }
        }
        assert!(m.stats().failed_count > 0);
    }

    /// A large request bigger than the address of the heap's top is a
    /// failed allocation, not an underflow.
    #[test]
    fn a_request_past_the_bottom_of_the_address_space_fails() {
        let mut m = Mimalloc::new();
        m.init(0, 4 * PAGE).unwrap();
        assert_eq!(m.malloc(1 << 30), None);
        assert_eq!(m.stats().failed_count, 1);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn wild_free_panics() {
        let mut m = mk(16 << 20);
        m.free(0x99);
    }
}
