//! Guest physical memory map.
//!
//! At boot, Unikraft's platform code walks the memory map handed over by
//! the VMM (multiboot info on KVM, start_info on Xen) and builds a region
//! table: kernel image, initrd, usable heap, MMIO holes. `ukboot` consumes
//! this table to place the heap and the page tables.

/// What a region of guest-physical memory is used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// The loaded unikernel image (text + data + bss).
    KernelImage,
    /// Boot stack.
    BootStack,
    /// Page-table area reserved by the platform.
    PageTables,
    /// Initial ramdisk / embedded filesystem image.
    Initrd,
    /// Free RAM available to the allocators.
    Free,
    /// Device MMIO hole; never usable as RAM.
    Mmio,
}

/// One contiguous region of guest-physical memory.
#[derive(Debug, Clone, Copy)]
// ukcheck: allow(unused-pub) -- what the public `MemRegionTable::largest_free`
// returns
pub struct MemRegion {
    /// First byte of the region (guest-physical).
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Role of this region.
    pub kind: RegionKind,
}

impl MemRegion {
    /// One past the last byte.
    pub fn end(&self) -> u64 {
        self.base + self.len
    }

    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// The full memory map of a guest.
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- what the public `Platform::regions` returns
pub struct MemRegionTable {
    regions: Vec<MemRegion>,
}

impl MemRegionTable {
    /// Builds the canonical single-application layout used by our guests:
    /// image at 1 MiB, boot stack and page-table scratch above it, the rest
    /// of RAM free, and a standard MMIO hole.
    ///
    /// # Panics
    ///
    /// Panics if `ram_bytes` is smaller than 4 MiB — Unikraft itself needs
    /// 2–6 MiB to run real applications (paper Fig 11).
    pub(crate) fn standard_layout(ram_bytes: u64) -> Self {
        const MIB: u64 = 1024 * 1024;
        assert!(ram_bytes >= 4 * MIB, "guests need at least 4 MiB RAM");
        let image_base = MIB;
        let image_len = MIB; // Reserve 1 MiB for the image; real ones are smaller.
        let stack_len = 64 * 1024;
        let pt_len = 512 * 1024;
        let free_base = image_base + image_len + stack_len + pt_len;
        let regions = vec![
            MemRegion {
                base: 0,
                len: image_base,
                kind: RegionKind::Mmio,
            },
            MemRegion {
                base: image_base,
                len: image_len,
                kind: RegionKind::KernelImage,
            },
            MemRegion {
                base: image_base + image_len,
                len: stack_len,
                kind: RegionKind::BootStack,
            },
            MemRegion {
                base: image_base + image_len + stack_len,
                len: pt_len,
                kind: RegionKind::PageTables,
            },
            MemRegion {
                base: free_base,
                len: ram_bytes - free_base,
                kind: RegionKind::Free,
            },
        ];
        MemRegionTable { regions }
    }

    /// All regions in ascending base order.
    pub fn iter(&self) -> impl Iterator<Item = &MemRegion> {
        self.regions.iter()
    }

    /// Total bytes of RAM (everything but MMIO holes).
    pub(crate) fn total_ram(&self) -> u64 {
        self.regions
            .iter()
            .filter(|r| r.kind != RegionKind::Mmio)
            .map(|r| r.len)
            .sum::<u64>()
            + self
                .regions
                .iter()
                .filter(|r| r.kind == RegionKind::Mmio)
                .map(|r| r.len)
                .sum::<u64>()
    }

    /// The largest free region — where `ukboot` places the heap.
    pub fn largest_free(&self) -> Option<&MemRegion> {
        self.regions
            .iter()
            .filter(|r| r.kind == RegionKind::Free)
            .max_by_key(|r| r.len)
    }

    /// Splits `len` bytes off the front of the largest free region, marking
    /// them with `kind`. Models early-boot carve-outs (e.g. an initrd).
    ///
    /// Returns the new region, or `None` if no free region is large enough.
    pub fn carve(&mut self, len: u64, kind: RegionKind) -> Option<MemRegion> {
        let idx = self
            .regions
            .iter()
            .position(|r| r.kind == RegionKind::Free && r.len >= len)?;
        let base = self.regions[idx].base;
        self.regions[idx].base += len;
        self.regions[idx].len -= len;
        let carved = MemRegion { base, len, kind };
        self.regions.insert(idx, carved);
        Some(carved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;

    #[test]
    fn standard_layout_partitions_ram() {
        let t = MemRegionTable::standard_layout(64 * MIB);
        assert_eq!(t.total_ram(), 64 * MIB);
        assert!(t.largest_free().unwrap().len > 60 * MIB);
    }

    #[test]
    fn regions_are_contiguous_and_sorted() {
        let t = MemRegionTable::standard_layout(16 * MIB);
        let regs: Vec<_> = t.iter().collect();
        for w in regs.windows(2) {
            assert_eq!(w[0].end(), w[1].base, "regions must tile RAM");
        }
    }

    #[test]
    fn largest_free_is_the_heap_candidate() {
        let t = MemRegionTable::standard_layout(32 * MIB);
        let f = t.largest_free().unwrap();
        assert_eq!(f.kind, RegionKind::Free);
        assert!(f.len > 28 * MIB);
    }

    #[test]
    fn carve_splits_free_region() {
        let mut t = MemRegionTable::standard_layout(32 * MIB);
        let before = t.largest_free().unwrap().len;
        let initrd = t.carve(2 * MIB, RegionKind::Initrd).unwrap();
        assert_eq!(initrd.len, 2 * MIB);
        assert_eq!(t.largest_free().unwrap().len, before - 2 * MIB);
        // Still contiguous.
        let regs: Vec<_> = t.iter().collect();
        for w in regs.windows(2) {
            assert_eq!(w[0].end(), w[1].base);
        }
    }

    #[test]
    fn carve_fails_when_too_large() {
        let mut t = MemRegionTable::standard_layout(8 * MIB);
        assert!(t.carve(100 * MIB, RegionKind::Initrd).is_none());
    }

    #[test]
    fn contains_checks_bounds() {
        let r = MemRegion {
            base: 100,
            len: 10,
            kind: RegionKind::Free,
        };
        assert!(r.contains(100));
        assert!(r.contains(109));
        assert!(!r.contains(110));
        assert!(!r.contains(99));
    }

    #[test]
    #[should_panic(expected = "at least 4 MiB")]
    fn tiny_ram_rejected() {
        let _ = MemRegionTable::standard_layout(MIB);
    }
}
