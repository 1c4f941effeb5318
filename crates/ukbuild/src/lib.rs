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
//!   and 3), plus the Linux kernel component graph dataset (Figure 1).

pub mod config;
pub mod graph;
pub mod image;
pub mod registry;

pub use config::BuildConfig;
pub use graph::DepGraph;
pub use image::{ImageReport, LinkPass};
pub use registry::{Layer, LibRegistry, MicroLib};
