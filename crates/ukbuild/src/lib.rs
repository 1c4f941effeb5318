//! Build-system micro-library (`ukbuild`).
//!
//! The paper's second main component (§3): "a Kconfig-based menu for
//! users to select which micro-libraries to use in an application build,
//! for them to select which platform(s) and CPU architectures to target…
//! The build system then compiles all of the micro-libraries, links them,
//! and produces one binary per selected platform."
//!
//! - [`registry`] — metadata for every Unikraft micro-library (layer,
//!   size contribution, dependencies);
//! - [`config`] — the menu: select libraries, resolve dependencies
//!   transitively, validate API choices;
//! - [`image`] — the link step: sum selected sizes, apply Dead Code
//!   Elimination and Link-Time Optimization passes (Figure 8);
//! - [`graph`] — dependency-graph extraction and DOT export (Figures 2
//!   and 3), plus the Linux kernel component graph dataset (Figure 1);
//! - [`elf`], [`archive`], [`trace`] and [`hot`] — the measured side of
//!   the link: a minimal ELF and `ar` reader, a `ptrace` function-entry
//!   tracer, and the `.text.hot` linker-script fragment built from its
//!   traces (the `hot-text` tool, `tools/hot_text.rs`).

pub mod archive;
pub mod config;
pub mod elf;
pub mod graph;
pub mod hot;
pub mod image;
pub mod registry;
pub mod trace;

pub use config::BuildConfig;
pub use graph::DepGraph;
pub use image::{ImageReport, LinkPass};
pub use registry::{Layer, LibRegistry, MicroLib};
