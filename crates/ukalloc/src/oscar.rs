//! Oscar-style secure allocator.
//!
//! The paper lists the Oscar page-permission-based secure allocator among
//! Unikraft's backends (§3.2). Oscar thwarts dangling-pointer reuse by
//! giving each allocation a fresh "shadow" virtual page and delaying
//! physical reuse. We reproduce the observable policy on top of TLSF:
//!
//! - every allocation gets a canary recorded at allocation time;
//! - `free` verifies the canary (overflow detection stand-in) and places
//!   the block in a FIFO *quarantine* instead of freeing it;
//! - blocks leave quarantine (and only then become reusable) once the
//!   quarantine exceeds its budget — approximating Oscar's delayed
//!   unmapping of shadow pages.

use std::collections::{HashMap, VecDeque};

use ukplat::{Errno, Result};

use crate::stats::AllocStats;
use crate::tlsf::TlsfAlloc;
use crate::{Allocator, GpAddr};

/// Maximum number of blocks held in quarantine before recycling begins.
const QUARANTINE_BLOCKS: usize = 64;

/// The guarded allocator state.
#[derive(Debug)]
pub(crate) struct OscarAlloc {
    inner: TlsfAlloc,
    canaries: HashMap<GpAddr, u64>,
    quarantine: VecDeque<GpAddr>,
    next_canary: u64,
}

impl Default for OscarAlloc {
    fn default() -> Self {
        Self::new()
    }
}

impl OscarAlloc {
    /// Creates an uninitialized guarded allocator.
    pub fn new() -> Self {
        OscarAlloc {
            inner: TlsfAlloc::new(),
            canaries: HashMap::new(),
            quarantine: VecDeque::new(),
            next_canary: 0xdead_0001,
        }
    }

    fn stamp(&mut self, ptr: GpAddr) {
        self.canaries.insert(ptr, self.next_canary);
        self.next_canary = self.next_canary.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
}

impl Allocator for OscarAlloc {
    fn name(&self) -> &'static str {
        "Oscar"
    }

    fn init(&mut self, base: GpAddr, len: usize) -> Result<()> {
        if len < 4096 {
            return Err(Errno::Inval);
        }
        self.inner.init(base, len)
    }

    fn malloc(&mut self, size: usize) -> Option<GpAddr> {
        let p = self.inner.malloc(size)?;
        self.stamp(p);
        Some(p)
    }

    fn memalign(&mut self, align: usize, size: usize) -> Option<GpAddr> {
        let p = self.inner.memalign(align, size)?;
        self.stamp(p);
        Some(p)
    }

    fn free(&mut self, ptr: GpAddr) {
        // Canary check: a missing canary is a wild or double free.
        self.canaries
            .remove(&ptr)
            .unwrap_or_else(|| panic!("oscar: canary missing for {ptr:#x} (double/wild free)"));
        self.quarantine.push_back(ptr);
        // Recycle the oldest quarantined blocks beyond the budget.
        while self.quarantine.len() > QUARANTINE_BLOCKS {
            let victim = self.quarantine.pop_front().expect("non-empty");
            self.inner.free(victim);
        }
    }

    fn region(&self) -> (GpAddr, usize) {
        self.inner.region()
    }

    fn available(&self) -> usize {
        self.inner.available()
    }

    /// The inner TLSF's counts, with a quarantined block counted as
    /// freed (its caller freed it; only its reuse waits), so `live()` is
    /// the blocks the application holds. `cur_bytes` still includes the
    /// quarantine: those bytes are not yet free.
    fn stats(&self) -> AllocStats {
        let mut s = self.inner.stats();
        s.free_count += self.quarantine.len() as u64;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> OscarAlloc {
        let mut o = OscarAlloc::new();
        o.init(1 << 20, 4 << 20).unwrap();
        o
    }

    #[test]
    fn freed_blocks_are_not_immediately_reused() {
        let mut o = mk();
        let p = o.malloc(64).unwrap();
        o.free(p);
        // Unlike TLSF, the very next malloc must not return p.
        let q = o.malloc(64).unwrap();
        assert_ne!(p, q, "quarantine must delay reuse");
    }

    #[test]
    fn quarantine_drains_beyond_budget() {
        let mut o = mk();
        let mut ptrs = Vec::new();
        for _ in 0..QUARANTINE_BLOCKS + 10 {
            ptrs.push(o.malloc(64).unwrap());
        }
        for p in ptrs {
            o.free(p);
        }
        assert!(o.quarantine.len() <= QUARANTINE_BLOCKS);
    }

    #[test]
    #[should_panic(expected = "canary missing")]
    fn double_free_is_detected() {
        let mut o = mk();
        let p = o.malloc(64).unwrap();
        o.free(p);
        o.free(p);
    }

    #[test]
    #[should_panic(expected = "canary missing")]
    fn wild_free_is_detected() {
        let mut o = mk();
        o.free(0xbad);
    }

    #[test]
    fn memalign_is_guarded_too() {
        let mut o = mk();
        let p = o.memalign(256, 100).unwrap();
        assert_eq!(p % 256, 0);
        o.free(p);
        let q = o.memalign(256, 100).unwrap();
        assert_ne!(p, q);
    }
}
