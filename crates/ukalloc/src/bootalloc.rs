//! Region (bump) allocator for fast boots.
//!
//! The paper's `bootalloc` is "a simple region allocator for faster
//! booting" (§5.5): initialization is two pointer writes and allocation is
//! a bump, but `free` is a no-op — memory is never reclaimed. Figure 14
//! shows it booting nginx in 0.49 ms versus 3.07 ms for the buddy system.

use ukplat::{Errno, Result};

use crate::stats::AllocStats;
use crate::{align_region, align_up, Allocator, GpAddr, MIN_ALIGN};

/// The bump allocator state.
#[derive(Debug, Default)]
pub struct BootAlloc {
    base: GpAddr,
    end: GpAddr,
    top: GpAddr,
    stats: AllocStats,
    initialized: bool,
}

impl BootAlloc {
    /// Creates an uninitialized bump allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes handed out so far.
    pub fn used(&self) -> usize {
        (self.top - self.base) as usize
    }
}

impl Allocator for BootAlloc {
    fn name(&self) -> &'static str {
        "Bootalloc"
    }

    fn init(&mut self, base: GpAddr, len: usize) -> Result<()> {
        if self.initialized {
            return Err(Errno::Busy);
        }
        let Some((base, len)) = align_region(base, len, MIN_ALIGN).filter(|&(_, len)| len > 0)
        else {
            return Err(Errno::Inval);
        };
        // The whole point: O(1) init.
        self.base = base;
        self.end = base + len as u64;
        self.top = self.base;
        self.initialized = true;
        Ok(())
    }

    fn malloc(&mut self, size: usize) -> Option<GpAddr> {
        self.memalign(MIN_ALIGN, size)
    }

    fn memalign(&mut self, align: usize, size: usize) -> Option<GpAddr> {
        let size = size.max(1);
        let aligned = align_up(self.top, align.max(MIN_ALIGN) as u64);
        let end = aligned.checked_add(size as u64)?;
        if end > self.end {
            self.stats.on_fail();
            return None;
        }
        self.top = end;
        self.stats.on_alloc(size);
        Some(aligned)
    }

    fn free(&mut self, _ptr: GpAddr) {
        // Region allocator: free is a no-op by design.
        self.stats.free_count += 1;
    }

    fn region(&self) -> (GpAddr, usize) {
        (self.base, (self.end - self.base) as usize)
    }

    fn available(&self) -> usize {
        (self.end - self.top) as usize
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }

    fn reclaims(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_is_monotonic() {
        let mut b = BootAlloc::new();
        b.init(0x1000, 4096).unwrap();
        let p = b.malloc(100).unwrap();
        let q = b.malloc(100).unwrap();
        assert!(q >= p + 100);
    }

    #[test]
    fn free_does_not_reclaim() {
        let mut b = BootAlloc::new();
        b.init(0x1000, 4096).unwrap();
        let avail0 = b.available();
        let p = b.malloc(1024).unwrap();
        b.free(p);
        assert!(b.available() < avail0);
        assert!(!b.reclaims());
    }

    #[test]
    fn memalign_aligns() {
        let mut b = BootAlloc::new();
        b.init(0x1234, 1 << 20).unwrap();
        let p = b.memalign(4096, 16).unwrap();
        assert_eq!(p % 4096, 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = BootAlloc::new();
        b.init(0, 1024).unwrap();
        assert!(b.malloc(2048).is_none());
        assert_eq!(b.stats().failed_count, 1);
    }

    #[test]
    fn used_tracks_bump() {
        let mut b = BootAlloc::new();
        b.init(0, 4096).unwrap();
        b.malloc(64).unwrap();
        assert_eq!(b.used(), 64);
    }
}
