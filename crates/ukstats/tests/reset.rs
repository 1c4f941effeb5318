//! `reset_all` zeroes what the registry holds for a histogram name —
//! every live owner's cells and the total its dropped owners left. Alone
//! in its binary: a reset zeroes every name, so it would race any test
//! beside it that reads a registry delta.

#![cfg(feature = "stats")]

use ukstats::{reset_all, snapshot, Histogram};

#[test]
fn reset_all_zeroes_live_and_retired_histograms() {
    let gone = Histogram::register("reset.hist");
    gone.record(900);
    drop(gone);
    let live = Histogram::register("reset.hist");
    live.record(3);
    assert_eq!(snapshot().hist("reset.hist").unwrap().count, 2);

    reset_all();
    let h = snapshot().hist("reset.hist").cloned().unwrap();
    assert_eq!((h.count, h.sum, h.max, h.p50), (0, 0, 0, 0));
    assert_eq!(live.count(), 0, "the live owner's cells are zeroed too");

    live.record(5);
    let h = snapshot().hist("reset.hist").cloned().unwrap();
    assert_eq!((h.count, h.sum, h.min, h.max), (1, 5, 5, 5), "nothing retired survived");
}
