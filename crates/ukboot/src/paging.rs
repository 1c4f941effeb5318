//! x86-64 four-level page-table construction.
//!
//! §6.1 of the paper: "By default, the Unikraft binary contains an already
//! initialized page-table structure which is loaded in memory by the VMM;
//! during boot Unikraft simply enables paging and updates the page-table
//! base register" (the *static* mode, constant boot cost). "Unikraft also
//! has dynamic page management support … when this is used the entire
//! page-table is populated at boot time" (the *dynamic* mode, cost
//! proportional to RAM). Figure 21 measures exactly this difference.
//!
//! We build genuine 4-level tables (PML4 → PDPT → PD, 2 MiB leaf pages, or
//! down to PTs for 4 KiB pages): 512-entry tables of 64-bit entries,
//! allocated from a page-table arena and filled entry by entry in dynamic
//! mode. Static mode receives a prebuilt table blob (constructed at
//! *image build time*) and only "loads CR3".

use ukplat::{Errno, Result};

/// Size of a 4 KiB leaf page.
pub const PAGE_4K: u64 = 4096;
/// Size of a 2 MiB leaf page.
pub const PAGE_2M: u64 = 2 * 1024 * 1024;

/// Entry flags (subset of x86-64 bits).
const PTE_PRESENT: u64 = 1 << 0;
const PTE_WRITE: u64 = 1 << 1;
const PTE_HUGE: u64 = 1 << 7;
/// Mask extracting the physical frame from an entry.
const ADDR_MASK: u64 = 0x000f_ffff_ffff_f000;

/// How the guest sets up paging at boot (paper §6.1 and Fig 21).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagingMode {
    /// Prebuilt table in the image; boot only loads CR3.
    Static,
    /// Build the full mapping at boot, entry by entry.
    Dynamic,
    /// 32-bit protected mode: no paging at all (paper: "run in protected
    /// (32 bit) mode, disabling guest paging altogether").
    Disabled,
}

/// A forest of 512-entry page tables plus the root pointer.
#[derive(Debug, Clone)]
pub struct PageTables {
    /// All tables; index 0 is the PML4.
    tables: Vec<Box<[u64; 512]>>,
    /// Number of leaf entries written.
    entries_written: u64,
}

impl Default for PageTables {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTables {
    /// Creates an empty hierarchy with just a zeroed PML4.
    pub fn new() -> Self {
        PageTables {
            tables: vec![Box::new([0u64; 512])],
            entries_written: 0,
        }
    }

    fn alloc_table(&mut self) -> usize {
        self.tables.push(Box::new([0u64; 512]));
        self.tables.len() - 1
    }

    /// Ensures a child table exists behind `tables[tidx][slot]`, returning
    /// its index. Table indices are encoded in the entry's address bits.
    fn child(&mut self, tidx: usize, slot: usize) -> usize {
        let e = self.tables[tidx][slot];
        if e & PTE_PRESENT != 0 {
            debug_assert_eq!(e & PTE_HUGE, 0, "descending into a huge leaf");
            ((e & ADDR_MASK) >> 12) as usize
        } else {
            let c = self.alloc_table();
            self.tables[tidx][slot] = ((c as u64) << 12) | PTE_PRESENT | PTE_WRITE;
            self.entries_written += 1;
            c
        }
    }

    /// Identity-maps `[0, len)` with pages of `page_size` (4 KiB or 2 MiB).
    ///
    /// This is the dynamic-mode boot work: every leaf entry is computed
    /// and written individually.
    pub fn map_identity(&mut self, len: u64, page_size: u64) -> Result<()> {
        if page_size != PAGE_4K && page_size != PAGE_2M {
            return Err(Errno::Inval);
        }
        let pages = len.div_ceil(page_size);
        for p in 0..pages {
            let va = p * page_size;
            self.map_one(va, va, page_size)?;
        }
        Ok(())
    }

    /// Maps a single page `va → pa`.
    pub fn map_one(&mut self, va: u64, pa: u64, page_size: u64) -> Result<()> {
        if !va.is_multiple_of(page_size) || !pa.is_multiple_of(page_size) {
            return Err(Errno::Inval);
        }
        let pml4_i = ((va >> 39) & 0x1ff) as usize;
        let pdpt_i = ((va >> 30) & 0x1ff) as usize;
        let pd_i = ((va >> 21) & 0x1ff) as usize;
        let pt_i = ((va >> 12) & 0x1ff) as usize;

        let pdpt = self.child(0, pml4_i);
        let pd = self.child(pdpt, pdpt_i);
        match page_size {
            PAGE_2M => {
                self.tables[pd][pd_i] = (pa & ADDR_MASK) | PTE_PRESENT | PTE_WRITE | PTE_HUGE;
                self.entries_written += 1;
            }
            PAGE_4K => {
                let pt = self.child(pd, pd_i);
                self.tables[pt][pt_i] = (pa & ADDR_MASK) | PTE_PRESENT | PTE_WRITE;
                self.entries_written += 1;
            }
            _ => return Err(Errno::Inval),
        }
        Ok(())
    }

    /// Software page walk: translates `va` to a physical address.
    pub fn translate(&self, va: u64) -> Option<u64> {
        let pml4_i = ((va >> 39) & 0x1ff) as usize;
        let pdpt_i = ((va >> 30) & 0x1ff) as usize;
        let pd_i = ((va >> 21) & 0x1ff) as usize;
        let pt_i = ((va >> 12) & 0x1ff) as usize;

        let e = self.tables[0][pml4_i];
        if e & PTE_PRESENT == 0 {
            return None;
        }
        let pdpt = ((e & ADDR_MASK) >> 12) as usize;
        let e = self.tables[pdpt][pdpt_i];
        if e & PTE_PRESENT == 0 {
            return None;
        }
        let pd = ((e & ADDR_MASK) >> 12) as usize;
        let e = self.tables[pd][pd_i];
        if e & PTE_PRESENT == 0 {
            return None;
        }
        if e & PTE_HUGE != 0 {
            return Some((e & ADDR_MASK) | (va & (PAGE_2M - 1)));
        }
        let pt = ((e & ADDR_MASK) >> 12) as usize;
        let e = self.tables[pt][pt_i];
        if e & PTE_PRESENT == 0 {
            return None;
        }
        Some((e & ADDR_MASK) | (va & (PAGE_4K - 1)))
    }

    /// Number of 4 KiB table frames in use.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Leaf + intermediate entries written so far.
    pub fn entries_written(&self) -> u64 {
        self.entries_written
    }

    /// Builds the *static* prebuilt table for `ram` bytes (image build
    /// time, not boot time). Boot then merely "loads CR3".
    pub fn prebuilt(ram: u64) -> Self {
        let mut pt = PageTables::new();
        pt.map_identity(ram, PAGE_2M).expect("prebuilt mapping");
        pt
    }
}

/// The boot-time paging step: what runs *inside* the guest.
///
/// Returns the active tables (if any). The caller measures its duration;
/// `Static` only swaps in the prebuilt tables (CR3 write), `Dynamic` does
/// the full per-entry population, `Disabled` does nothing.
pub fn boot_paging(mode: PagingMode, ram: u64, prebuilt: Option<PageTables>) -> Option<PageTables> {
    match mode {
        PagingMode::Disabled => None,
        PagingMode::Static => {
            // CR3 write: adopt the image-embedded tables as-is.
            Some(prebuilt.expect("static mode requires a prebuilt table"))
        }
        PagingMode::Dynamic => {
            let mut pt = PageTables::new();
            pt.map_identity(ram, PAGE_2M).expect("dynamic mapping");
            Some(pt)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn identity_map_translates_correctly() {
        let mut pt = PageTables::new();
        pt.map_identity(64 * 1024 * 1024, PAGE_2M).unwrap();
        for va in [0u64, 4096, 2 * 1024 * 1024 + 123, 63 * 1024 * 1024] {
            assert_eq!(pt.translate(va), Some(va));
        }
        assert_eq!(pt.translate(65 * 1024 * 1024), None);
    }

    #[test]
    fn table_count_scales_with_ram_for_2m_pages() {
        let mut small = PageTables::new();
        small.map_identity(GIB, PAGE_2M).unwrap();
        let mut big = PageTables::new();
        big.map_identity(3 * GIB, PAGE_2M).unwrap();
        // 1 GiB = 512 PDEs = 1 PD; 3 GiB = 3 PDs.
        assert_eq!(small.table_count(), 3); // PML4 + PDPT + 1 PD
        assert_eq!(big.table_count(), 5); // PML4 + PDPT + 3 PDs
        assert_eq!(small.entries_written(), 2 + 512);
        assert_eq!(big.entries_written(), 4 + 3 * 512);
    }

    #[test]
    fn four_k_pages_need_page_tables() {
        let mut pt = PageTables::new();
        pt.map_identity(4 * 1024 * 1024, PAGE_4K).unwrap();
        // PML4 + PDPT + PD + 2 PTs.
        assert_eq!(pt.table_count(), 5);
        assert_eq!(pt.translate(4096 * 3 + 17), Some(4096 * 3 + 17));
    }

    #[test]
    fn non_identity_mapping() {
        let mut pt = PageTables::new();
        pt.map_one(0x4000_0000, 0x1000, PAGE_4K).unwrap();
        assert_eq!(pt.translate(0x4000_0123), Some(0x1123));
        assert_eq!(pt.translate(0x4000_1000), None);
    }

    #[test]
    fn misaligned_mapping_rejected() {
        let mut pt = PageTables::new();
        assert_eq!(pt.map_one(123, 0, PAGE_4K).unwrap_err(), Errno::Inval);
        assert_eq!(
            pt.map_identity(GIB, 8192).unwrap_err(),
            Errno::Inval,
            "only 4K/2M page sizes"
        );
    }

    #[test]
    fn static_mode_writes_nothing_at_boot() {
        let pre = PageTables::prebuilt(GIB);
        let written_before = pre.entries_written();
        let pt = boot_paging(PagingMode::Static, GIB, Some(pre)).unwrap();
        assert_eq!(pt.entries_written(), written_before, "no boot-time writes");
    }

    #[test]
    fn dynamic_mode_scales_with_ram() {
        let a = boot_paging(PagingMode::Dynamic, GIB, None).unwrap();
        let b = boot_paging(PagingMode::Dynamic, 2 * GIB, None).unwrap();
        assert!(b.entries_written() > a.entries_written());
    }

    #[test]
    fn disabled_mode_builds_nothing() {
        assert!(boot_paging(PagingMode::Disabled, GIB, None).is_none());
    }
}
