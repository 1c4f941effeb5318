//! Platform abstraction layer for `unikraft-rs`.
//!
//! In Unikraft, the platform layer (`plat/`) hides the differences between
//! hypervisors and VMMs (QEMU/KVM, Firecracker, Solo5, Xen, linuxu) behind a
//! small interface: memory-region discovery, a clock source, an interrupt
//! controller and early console. This crate reproduces that layer for a
//! simulated host: all *guest-side* work is real Rust code, while *host-side*
//! costs (traps, device setup, VMM process start) are charged to a virtual
//! cycle counter ([`time::Tsc`]) using constants calibrated from the paper
//! (see [`cost`]).
//!
//! # The image's own stack query
//!
//! The crate also defines one C function for the image it is linked
//! into: `pthread_getattr_np` (module `stack`). std's runtime calls it
//! once per thread, before `main` for the main thread, to place the
//! guard page its stack-overflow handler recognises. glibc's version
//! reads `/proc/self/maps` with `sscanf`, and that one call linked
//! glibc's whole scanf chain into every image: ≈ 145 KB of ELF, and the
//! `C-ctype.o` tables every run read at start-up. A Unikraft image holds
//! only the micro-libraries its application uses (paper §3), so the
//! platform layer answers the query itself, with the same bottom, size
//! and guard glibc 2.36 gives, from the maps parsed by hand.
//!
//! # Examples
//!
//! ```
//! use ukplat::vmm::VmmKind;
//! use ukplat::Platform;
//!
//! let plat = Platform::new(VmmKind::Firecracker);
//! assert!(plat.vmm().setup_ns(0, 0, 0) < 10_000_000);
//! ```

pub mod cost;
pub mod irq;
pub mod lcpu;
pub mod memregion;
mod stack;
pub mod time;
pub mod vmm;

use std::fmt;

use crate::irq::IrqController;
use crate::memregion::MemRegionTable;
use crate::time::Tsc;
use crate::vmm::{Vmm, VmmKind};

/// POSIX-style error numbers used across all micro-libraries.
///
/// Unikraft's syscall shim returns negative errno values; we mirror the
/// subset the reproduced subsystems need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Errno {
    /// Operation not permitted.
    Perm,
    /// No such file or directory.
    NoEnt,
    /// I/O error.
    Io,
    /// Bad file descriptor.
    BadF,
    /// Try again (would block).
    Again,
    /// Out of memory.
    NoMem,
    /// Permission denied.
    Acces,
    /// Device or resource busy.
    Busy,
    /// File exists.
    Exist,
    /// Not a directory.
    NotDir,
    /// Is a directory.
    IsDir,
    /// Invalid argument.
    Inval,
    /// Too many open files.
    MFile,
    /// No space left on device.
    NoSpc,
    /// Function not implemented.
    NoSys,
    /// Directory not empty.
    NotEmpty,
    /// Value too large for defined data type.
    Overflow,
    /// Connection refused.
    ConnRefused,
    /// Not connected.
    NotConn,
    /// Address already in use.
    AddrInUse,
    /// Message too long.
    MsgSize,
    /// Protocol not supported.
    ProtoNoSupport,
    /// Connection reset by peer.
    ConnReset,
    /// Broken pipe.
    Pipe,
    /// Operation timed out.
    TimedOut,
}

impl Errno {
    /// Returns the classic Linux errno number for this error.
    pub fn code(self) -> i32 {
        match self {
            Errno::Perm => 1,
            Errno::NoEnt => 2,
            Errno::Io => 5,
            Errno::BadF => 9,
            Errno::Again => 11,
            Errno::NoMem => 12,
            Errno::Acces => 13,
            Errno::Busy => 16,
            Errno::Exist => 17,
            Errno::NotDir => 20,
            Errno::IsDir => 21,
            Errno::Inval => 22,
            Errno::MFile => 24,
            Errno::NoSpc => 28,
            Errno::NoSys => 38,
            Errno::NotEmpty => 39,
            Errno::Overflow => 75,
            Errno::ConnRefused => 111,
            Errno::NotConn => 107,
            Errno::AddrInUse => 98,
            Errno::MsgSize => 90,
            Errno::ProtoNoSupport => 93,
            Errno::ConnReset => 104,
            Errno::Pipe => 32,
            Errno::TimedOut => 110,
        }
    }

    /// Returns the conventional upper-case symbol, e.g. `ENOSYS`.
    pub fn symbol(self) -> &'static str {
        match self {
            Errno::Perm => "EPERM",
            Errno::NoEnt => "ENOENT",
            Errno::Io => "EIO",
            Errno::BadF => "EBADF",
            Errno::Again => "EAGAIN",
            Errno::NoMem => "ENOMEM",
            Errno::Acces => "EACCES",
            Errno::Busy => "EBUSY",
            Errno::Exist => "EEXIST",
            Errno::NotDir => "ENOTDIR",
            Errno::IsDir => "EISDIR",
            Errno::Inval => "EINVAL",
            Errno::MFile => "EMFILE",
            Errno::NoSpc => "ENOSPC",
            Errno::NoSys => "ENOSYS",
            Errno::NotEmpty => "ENOTEMPTY",
            Errno::Overflow => "EOVERFLOW",
            Errno::ConnRefused => "ECONNREFUSED",
            Errno::NotConn => "ENOTCONN",
            Errno::AddrInUse => "EADDRINUSE",
            Errno::MsgSize => "EMSGSIZE",
            Errno::ProtoNoSupport => "EPROTONOSUPPORT",
            Errno::ConnReset => "ECONNRESET",
            Errno::Pipe => "EPIPE",
            Errno::TimedOut => "ETIMEDOUT",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.symbol(), self.code())
    }
}

impl std::error::Error for Errno {}

/// Result alias used by all micro-libraries.
pub type Result<T> = std::result::Result<T, Errno>;

/// A fully assembled platform instance: VMM model, virtual TSC, memory
/// regions and the interrupt controller.
///
/// This is what `ukboot` receives as "the hardware".
#[derive(Debug, Clone)]
pub struct Platform {
    vmm: Vmm,
    tsc: Tsc,
    regions: MemRegionTable,
    irq: IrqController,
}

impl Platform {
    /// Creates a platform for the given VMM with the default 128 MiB of
    /// guest RAM.
    pub fn new(kind: VmmKind) -> Self {
        Self::with_memory(kind, 128 * 1024 * 1024)
    }

    /// Creates a platform with an explicit guest RAM size in bytes.
    pub fn with_memory(kind: VmmKind, ram_bytes: u64) -> Self {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let vmm = Vmm::new(kind);
        let regions = MemRegionTable::standard_layout(ram_bytes);
        let irq = IrqController::new(irq::NLINES);
        Platform {
            vmm,
            tsc,
            regions,
            irq,
        }
    }

    /// The virtual time-stamp counter shared by all devices on this platform.
    pub fn tsc(&self) -> &Tsc {
        &self.tsc
    }

    /// The VMM model hosting this guest.
    pub fn vmm(&self) -> &Vmm {
        &self.vmm
    }

    /// Guest physical memory map.
    pub fn regions(&self) -> &MemRegionTable {
        &self.regions
    }

    /// The platform interrupt controller.
    pub fn irq(&self) -> &IrqController {
        &self.irq
    }

    /// Total guest RAM in bytes.
    pub fn ram_bytes(&self) -> u64 {
        self.regions.total_ram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_codes_match_linux() {
        assert_eq!(Errno::NoEnt.code(), 2);
        assert_eq!(Errno::NoSys.code(), 38);
        assert_eq!(Errno::Inval.code(), 22);
        assert_eq!(Errno::Again.code(), 11);
    }

    #[test]
    fn errno_display_contains_symbol() {
        let s = format!("{}", Errno::NoMem);
        assert!(s.contains("ENOMEM"));
        assert!(s.contains("12"));
    }

    #[test]
    fn platform_default_memory() {
        let plat = Platform::new(VmmKind::Solo5);
        assert_eq!(plat.ram_bytes(), 128 * 1024 * 1024);
    }
}
