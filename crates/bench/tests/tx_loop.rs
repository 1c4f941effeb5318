//! The TX loop Fig. 19 and `ablate-batch` time, held to what it claims.
//!
//! This binary installs [`ukalloc::stats::CountingAlloc`] as its global
//! allocator, so the timed window can be shown to take nothing from the
//! host heap: a `malloc` per burst would be timed as the cost of the TX
//! path, and at burst 1 it would be timed per packet. The window also sends exactly
//! the frames asked for, kicks once per burst under vhost-net (the
//! number `ablate-batch` prints), and leaves every buffer home.

use ukalloc::stats::{AllocCounter, CountingAlloc};
use ukbench::exp_io::TxLoop;
use uknetdev::backend::VhostKind;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Not a multiple of 7 or 32: the last burst is a short one.
const PACKETS: usize = 1_000;

#[test]
fn tx_loop_allocates_nothing_and_kicks_once_per_burst() {
    for burst in [1, 7, 32] {
        let mut tx = TxLoop::new(VhostKind::VhostNet, 64, burst);
        let counter = AllocCounter::start();
        let sent = tx.run(PACKETS);
        let allocs = counter.allocs();
        assert_eq!(allocs, 0, "burst {burst}: the timed loop allocated");
        assert_eq!(sent, PACKETS, "burst {burst}");
        assert_eq!(tx.kicks(), PACKETS.div_ceil(burst) as u64, "burst {burst}");
        assert_eq!(
            tx.pool().available(),
            tx.pool().capacity(),
            "burst {burst}: pool not whole"
        );
    }
}
