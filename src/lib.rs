//! # unikraft-rs
//!
//! A Rust reproduction of *Unikraft: Fast, Specialized Unikernels the Easy
//! Way* (Kuenzer et al., EuroSys '21).
//!
//! This facade crate re-exports every micro-library in the workspace under
//! one roof so examples and downstream users can depend on a single crate:
//!
//! - [`plat`] — platform layer: virtual TSC, VMM models, memory map, IRQs
//! - [`alloc`] — `ukalloc`: allocation API + buddy/TLSF/tinyalloc/
//!   mimalloc/bootalloc backends
//! - [`boot`] — `ukboot`: staged boot, static/dynamic page tables
//! - [`sched`] — `uksched`: one scheduler, cooperative or preemptive (or
//!   none at all)
//! - [`netdev`] — `uknetdev`: netbufs, burst TX/RX, virtio-net model
//! - [`netstack`] — lwIP-analog network stack + sockets
//! - [`event`] — `ukevent`: epoll/eventfd readiness subsystem
//! - [`stats`] — `ukstats`: lock-free counter/gauge/histogram registry
//! - [`trace`] — `uktrace`: zero-alloc typed tracepoints + ring buffers
//! - [`vfs`] — vfscore + ramfs + 9pfs + SHFS
//! - [`syscall`] — syscall shim layer
//! - [`libc`] — libc profiles + glibc compat layer + link model
//! - [`build`] — Kconfig-like build system, dependency graphs and the
//!   DCE/LTO link *model* of the paper's images (Fig. 8). This
//!   repository's own release binaries are really linked as one program
//!   — fat LTO, one codegen unit, abort on panic and glibc's `libc.a`
//!   linked in, in `.cargo/config.toml` — and `make image-size`
//!   measures what that does to them, beside the model
//! - [`port`] — application-compatibility analysis (Figs 5–7, Table 2)
//! - [`baselines`] — Linux/OSv/Rump/HermiTux/Lupine/Mirage models
//! - [`core`] — the `Unikernel` builder tying everything together
//! - [`apps`] — httpd, kvstore, sqldb, webcache, udpkv and load generators
//!
//! # Examples
//!
//! ```
//! use unikraft_rs::core::UnikernelBuilder;
//! use unikraft_rs::plat::vmm::VmmKind;
//!
//! let mut uk = UnikernelBuilder::new("hello")
//!     .platform(VmmKind::Firecracker)
//!     .build()
//!     .expect("configuration is valid");
//! let report = uk.boot().expect("boot succeeds");
//! assert!(report.guest_ns > 0);
//! ```

pub use ukalloc as alloc;
pub use ukbaselines as baselines;
pub use ukboot as boot;
pub use ukbuild as build;
pub use ukcore as core;
pub use ukevent as event;
pub use uklibc as libc;
pub use uknetdev as netdev;
pub use uknetstack as netstack;
pub use ukplat as plat;
pub use ukport as port;
pub use uksched as sched;
pub use ukstats as stats;
pub use uksyscall as syscall;
pub use uktrace as trace;
pub use ukvfs as vfs;

pub use ukapps as apps;
