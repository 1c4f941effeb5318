//! A device's count lives once: `VirtioNet::tso_frames()` reads the
//! same cell the registry sums into `netdev.tso_super_frames`.
//!
//! One test, alone in its binary: the registry is process-global, and
//! the delta below is exact.

use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::netbuf::Netbuf;
use uknetdev::VirtioNet;
use ukplat::time::Tsc;

fn registry() -> u64 {
    ukstats::snapshot().counter("netdev.tso_super_frames").unwrap_or(0)
}

#[test]
fn tso_frames_is_the_devices_share_of_the_registry_count() {
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    let base = registry();

    // Three bursts: two super-frames, none, one — plain frames between.
    for supers in [2usize, 0, 1] {
        let mut burst: Vec<Netbuf> = (0..4)
            .map(|i| {
                let mut nb = Netbuf::alloc(2048, 64);
                nb.set_len(1500);
                if i < supers {
                    nb.request_csum(1500, 16);
                    nb.request_gso(500);
                }
                nb
            })
            .collect();
        assert_eq!(dev.tx_burst(0, &mut burst).unwrap().sent(), 4);
    }
    assert_eq!(dev.tso_frames(), 3, "the device's own view");
    if ukstats::COMPILED_IN {
        assert_eq!(registry() - base, 3, "the registry reads the same cell");
        drop(dev);
        assert_eq!(registry() - base, 3, "and keeps the count when the device goes");
    }
}
