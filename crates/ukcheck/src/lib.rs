//! `ukcheck`: the repo-native invariant linter.
//!
//! The unikernel thesis (conf_eurosys_KuenzerBLSJGSLT21 §3.1) is that
//! specialization pays only while the image-wide invariants hold
//! *everywhere*: zero-copy buffer ownership, no hidden allocation on
//! the datapath, no panicking paths in the kernel. This crate makes
//! those invariants machine-checked instead of reviewer-checked: a
//! dependency-free static analyzer (hand-rolled lexer, no `syn` — the
//! workspace builds offline) that walks every workspace crate and
//! enforces the rules as lint passes. See `README.md` in this crate
//! for the invariant catalogue and the escape contract, and
//! `src/manifest.rs` for which modules count as hot.

pub mod lexer;
pub mod lints;
pub mod manifest;
mod reach;
pub mod walk;

pub use lints::{
    check_shared_counter, check_size, check_source, check_unused_pub, non_test_lines, Lint,
    Violation,
};
