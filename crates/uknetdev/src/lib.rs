//! Network device micro-library (`uknetdev`).
//!
//! §3.1 of the paper: `uknetdev` decouples network drivers from network
//! stacks. Its design points, all reproduced here:
//!
//! - burst send/receive (`uk_netdev_tx_burst` / `uk_netdev_rx_burst`)
//!   taking arrays of [`netbuf::Netbuf`]s, with in/out count parameters
//!   and "more room / more packets" flags;
//! - memory management belongs to the *application*: drivers never
//!   allocate; packet buffers come either from a pre-allocated
//!   [`netbuf::NetbufPool`] (performance path) or the general heap;
//! - **zero-copy headroom discipline**: a [`netbuf::Netbuf`] reserves
//!   headroom in front of the payload so protocol layers *prepend*
//!   their headers in place (`push_header` / `push_header_uninit`)
//!   instead of re-serializing — one buffer travels from application
//!   write to wire, and back up through `pull_header` on receive. The
//!   whole datapath performs zero heap allocations per packet in
//!   steady state: buffers circulate pool → tx ring → done-list →
//!   recycle (see the `netbuf` module docs for the ownership rules);
//! - polling, interrupt-driven, or mixed queue operation: a queue runs
//!   polled by default; the driver enables its interrupt line only when it
//!   runs out of work, avoiding interrupt storms and transitioning back to
//!   polling under load;
//! - multiple queues per device, driver capabilities exposed for the
//!   application to pick from.
//!
//! The device model is virtio-net with two host backends, matching the
//! paper's Figure 19 setup: `vhost-net` (kernel backend: kick + copy per
//! burst) and `vhost-user` (DPDK-style shared-memory polling backend:
//! no kicks, no copies).

pub mod backend;
pub mod csum;
pub mod dev;
pub mod gso;
pub mod netbuf;
pub mod ring;
pub(crate) mod virtio;

pub use backend::{VhostKind, Wire};
pub use dev::{BurstStats, NetDev, NetDevConf, NetDevInfo, QueueMode};
pub use netbuf::{GsoRequest, Netbuf, NetbufPool, TcpHold};
pub use virtio::VirtioNet;

/// Maximum burst the API moves per call (matches common driver limits).
pub const MAX_BURST: usize = 64;

/// Default Ethernet MTU used by examples and benches.
pub(crate) const MTU: usize = 1500;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn constants_sane() {
        assert!(MAX_BURST >= 32);
        assert_eq!(MTU, 1500);
    }
}
