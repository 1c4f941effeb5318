//! `ukcore`: composing micro-libraries into a unikernel.
//!
//! This crate is the "final link step" at run time: a
//! [`UnikernelBuilder`] takes the Kconfig-style choices (platform,
//! allocator, scheduler, network backend, filesystems, libc) and
//! produces a [`Unikernel`] that boots through `ukboot`'s staged
//! sequence and exposes the selected subsystems to the application.
//!
//! It also hosts [`ukdebug`], the levelled logging of §7's debugging
//! micro-library (the `log_*!` macros and their per-module filter).

pub mod posix;
// ukcheck: allow(unused-pub) -- the exported `log_*!` macros expand to
// `$crate::ukdebug::log_at`
pub mod ukdebug;
pub mod unikernel;

pub use posix::PosixEnv;
pub use unikernel::{Unikernel, UnikernelBuilder, UnikernelConfig};
