//! Filesystem micro-libraries: `vfscore`, ramfs, 9pfs and SHFS.
//!
//! The paper's storage story (Figure 4, scenarios ➂ and ➇):
//!
//! - applications can take the standard path through **vfscore** — mount
//!   table, path walk, dentry cache, file-descriptor table ([`vfscore`]);
//! - guests without persistent storage embed a **RamFS** ([`ramfs`]);
//! - persistent storage is reached via **9pfs** over virtio-9p
//!   ([`ninep`]), with a real 9P2000 message codec and a host model —
//!   the setup of Figure 20;
//! - specialized images drop the VFS entirely and hook a purpose-built
//!   filesystem: **SHFS**, the hash-based web-cache store of Figure 22,
//!   where `open()` is a single hash lookup instead of a path walk.

pub mod ninep;
pub mod ramfs;
pub mod shfs;
pub mod vfscore;

pub use ninep::{NinePClient, NinePHost};
pub use ramfs::RamFs;
pub use shfs::Shfs;
pub use vfscore::{Fd, FileSystem, Vfs};
