//! Syscall shim micro-library (`uksyscall`).
//!
//! §4 of the paper: "we created a micro-library called syscall shim: each
//! library that implements a system call handler registers it, via a
//! macro, with this micro-library. The shim layer then generates a system
//! call interface at libc-level. In this way, we can link to system call
//! implementations directly … with the result that syscalls are
//! transformed into inexpensive function calls."
//!
//! The shim also auto-stubs missing syscalls with `ENOSYS` ("which our
//! shim layer automatically does if a syscall implementation is
//! missing"), which is why several applications run before their syscall
//! coverage is complete (Figure 7).
//!
//! Cost modes reproduce Table 1: in [`SyscallMode::UnikraftNative`] a
//! syscall is a function call through the dispatch table; in
//! [`SyscallMode::UnikraftBinCompat`] a run-time trap-and-translate cost
//! is charged (84 cycles); Linux modes charge the full trap with or
//! without KPTI-era mitigations (222 / 154 cycles).

pub mod microbench;
pub mod nr;
pub mod shim;

pub use nr::{syscall_name, syscall_nr, UNIKRAFT_SUPPORTED};
pub use shim::{SyscallMode, SyscallShim};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_claim_146_syscalls() {
        // §4.1: "we have implementations for 146 syscalls".
        assert_eq!(UNIKRAFT_SUPPORTED.len(), 146);
    }

    #[test]
    fn well_known_numbers() {
        assert_eq!(syscall_nr("read"), Some(0));
        assert_eq!(syscall_nr("write"), Some(1));
        assert_eq!(syscall_name(60), Some("exit"));
    }
}
