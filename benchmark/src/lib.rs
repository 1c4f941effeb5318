//! `ukperf` — one repeatable end-to-end + per-layer benchmark for the
//! unikraft-rs datapath and the paper's apps.
//!
//! See `benchmark/README.md` for the workloads, the metrics, which
//! layer's metric should move which end-to-end number, and what cannot
//! be measured here. Everything drives the program through its public
//! API from one thread over the in-process `uknetstack::testnet` wire.

pub mod compare;
pub mod drive;
pub mod gen;
pub mod json;
pub mod probe;
pub mod probes;
pub mod refkernel;
pub mod rig;
pub mod summary;
pub mod tracefile;
pub mod workloads;
