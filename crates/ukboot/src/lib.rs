//! Boot micro-library (`ukboot`).
//!
//! Unikraft's `ukboot` drives the guest boot: platform init, memory-region
//! discovery, paging setup, allocator initialization (§3.2: "allocators
//! must specify an initialization function which is called by ukboot at an
//! early stage of the boot process"), IRQ setup, constructor tables, and
//! finally `main()`. The paper evaluates this layer three ways:
//!
//! - Figure 10: guest boot is tens–hundreds of microseconds, dwarfed by
//!   the VMM;
//! - Figure 14: the chosen allocator dominates guest boot time;
//! - Figure 21: static (prebuilt) page tables boot in constant time while
//!   dynamic page-table population scales with RAM size.
//!
//! All boot-stage work in this crate is *real computation* timed with
//! `Instant`; only the VMM-side portion comes from `ukplat::vmm` models.

pub mod paging;
pub mod sequence;

pub use paging::{PageTables, PagingMode, PAGE_2M, PAGE_4K};
pub use sequence::{BootConfig, BootReport, BootSequence, BootStage};
