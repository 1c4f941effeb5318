//! The `ukalloc` multiplexing facility.
//!
//! §3.2: "The internal allocation interface serves as a multiplexing
//! facility that enables the presence of multiple memory allocation
//! backends within the same unikernel" — e.g. a fast region allocator for
//! boot code plus a general-purpose allocator for the application, or a
//! separate pool feeding the network stack. The registry owns the
//! backends, assigns each its own memory region, and routes `uk_malloc`
//! calls by allocator id.

use ukplat::{Errno, Result};

use crate::stats::AllocStats;
use crate::{AllocBackend, Allocator, GpAddr};

/// Identifier of a registered allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(pub usize);

/// The allocator registry: `struct uk_alloc *` handles by id.
pub struct AllocRegistry {
    allocators: Vec<Box<dyn Allocator>>,
    default_id: Option<AllocId>,
}

impl std::fmt::Debug for AllocRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocRegistry")
            .field("count", &self.allocators.len())
            .field("default", &self.default_id)
            .finish()
    }
}

impl Default for AllocRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl AllocRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        AllocRegistry {
            allocators: Vec::new(),
            default_id: None,
        }
    }

    /// Instantiates `backend`, initializes it over `[base, base+len)` and
    /// registers it. The first registered allocator becomes the default.
    ///
    /// Mirrors the boot-time flow: "the boot process sets the association
    /// between memory allocators and memory sources".
    pub fn register(
        &mut self,
        backend: AllocBackend,
        base: GpAddr,
        len: usize,
    ) -> Result<AllocId> {
        let mut a = backend.instantiate();
        a.init(base, len)?;
        let id = AllocId(self.allocators.len());
        self.allocators.push(a);
        if self.default_id.is_none() {
            self.default_id = Some(id);
        }
        Ok(id)
    }

    /// The default allocator id (what plain `malloc` uses).
    pub fn default_id(&self) -> Option<AllocId> {
        self.default_id
    }

    /// Re-points the default allocator — the GC-handoff trick of §3.2
    /// (boot with a simple allocator, switch to the main one once its
    /// service thread runs).
    pub fn set_default(&mut self, id: AllocId) -> Result<()> {
        if id.0 >= self.allocators.len() {
            return Err(Errno::Inval);
        }
        self.default_id = Some(id);
        Ok(())
    }

    /// Number of registered allocators.
    pub fn len(&self) -> usize {
        self.allocators.len()
    }

    /// Whether no allocator is registered.
    pub fn is_empty(&self) -> bool {
        self.allocators.is_empty()
    }

    /// `uk_malloc(a, size)`.
    pub fn malloc(&mut self, id: AllocId, size: usize) -> Option<GpAddr> {
        self.allocators.get_mut(id.0)?.malloc(size)
    }

    /// `uk_memalign(a, align, size)`.
    pub fn memalign(&mut self, id: AllocId, align: usize, size: usize) -> Option<GpAddr> {
        self.allocators.get_mut(id.0)?.memalign(align, size)
    }

    /// `uk_free(a, ptr)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid or the backend rejects the pointer.
    pub fn free(&mut self, id: AllocId, ptr: GpAddr) {
        self.allocators
            .get_mut(id.0)
            .expect("invalid allocator id")
            .free(ptr);
    }

    /// Default-allocator `malloc` (the libc path).
    pub fn malloc_default(&mut self, size: usize) -> Option<GpAddr> {
        let id = self.default_id?;
        self.malloc(id, size)
    }

    /// Stats for one allocator.
    pub fn stats(&self, id: AllocId) -> Option<AllocStats> {
        self.allocators.get(id.0).map(|a| a.stats())
    }

    /// Name of one allocator.
    pub fn name(&self, id: AllocId) -> Option<&'static str> {
        self.allocators.get(id.0).map(|a| a.name())
    }

    /// Aggregate statistics across all backends.
    pub fn total_stats(&self) -> AllocStats {
        let mut t = AllocStats::default();
        for a in &self.allocators {
            let s = a.stats();
            t.cur_bytes += s.cur_bytes;
            t.peak_bytes += s.peak_bytes;
            t.alloc_count += s.alloc_count;
            t.free_count += s.free_count;
            t.failed_count += s.failed_count;
            t.meta_bytes += s.meta_bytes;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_registered_is_default() {
        let mut r = AllocRegistry::new();
        let boot = r.register(AllocBackend::BootAlloc, 0, 1 << 16).unwrap();
        let main = r.register(AllocBackend::Tlsf, 1 << 20, 1 << 20).unwrap();
        assert_eq!(r.default_id(), Some(boot));
        r.set_default(main).unwrap();
        assert_eq!(r.default_id(), Some(main));
    }

    #[test]
    fn two_allocators_coexist_with_separate_regions() {
        let mut r = AllocRegistry::new();
        let a = r.register(AllocBackend::BootAlloc, 0, 1 << 16).unwrap();
        let b = r.register(AllocBackend::Buddy, 1 << 20, 1 << 20).unwrap();
        let pa = r.malloc(a, 64).unwrap();
        let pb = r.malloc(b, 64).unwrap();
        assert!(pa < (1 << 16));
        assert!(pb >= (1 << 20));
        r.free(b, pb);
    }

    #[test]
    fn default_malloc_routes() {
        let mut r = AllocRegistry::new();
        r.register(AllocBackend::Tlsf, 0, 1 << 20).unwrap();
        let p = r.malloc_default(128).unwrap();
        r.free(r.default_id().unwrap(), p);
        let s = r.total_stats();
        assert_eq!(s.alloc_count, 1);
        assert_eq!(s.free_count, 1);
    }

    #[test]
    fn set_default_validates_id() {
        let mut r = AllocRegistry::new();
        assert_eq!(r.set_default(AllocId(3)).unwrap_err(), Errno::Inval);
    }

    #[test]
    fn gc_handoff_pattern() {
        // §3.2: boot with bootalloc, then switch the default to mimalloc
        // once its "GC thread" would be up.
        let mut r = AllocRegistry::new();
        let early = r.register(AllocBackend::BootAlloc, 0, 1 << 16).unwrap();
        let p_boot = r.malloc_default(64).unwrap();
        assert!(p_boot < (1 << 16));
        let main = r.register(AllocBackend::Mimalloc, 1 << 22, 8 << 20).unwrap();
        r.set_default(main).unwrap();
        let p_app = r.malloc_default(64).unwrap();
        assert!(p_app >= (1 << 22));
        assert_ne!(early, main);
    }
}
