//! `CounterSet` against the registry: a name's snapshot value is its
//! shared slot plus every live set's cell, at every point — through
//! adds on either side, set drops (which fold into the slot) and
//! `reset_all`.

#![cfg(feature = "stats")]

use std::sync::Mutex;

use proptest::prelude::*;

use ukstats::{Counter, CounterSet};

/// The registry is process-global and `reset_all` spares no one: the
/// tests of this binary take turns.
static REGISTRY: Mutex<()> = Mutex::new(());

const NAMES: &[&str] = &["counter_set.a", "counter_set.b"];

fn totals() -> [u64; 2] {
    let snap = ukstats::snapshot();
    [0, 1].map(|i| snap.counter(NAMES[i]).unwrap_or(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `k` sets and one shared `Counter` on the same names, arbitrary
    /// interleaving of adds and set drops: after every step the
    /// snapshot equals the sum of all adds so far, so it never moves
    /// backwards across a drop; `reset_all` then zeroes live sets too.
    #[test]
    fn snapshot_is_the_sum_of_all_adds_at_every_point(
        k in 1usize..5,
        ops in proptest::collection::vec((0u8..6, 0usize..4, 0usize..2, 0u64..1000), 1..200),
    ) {
        let _turn = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
        ukstats::reset_all();
        let shared = Counter::register(NAMES[0]);
        let mut sets: Vec<Option<CounterSet>> = (0..k).map(|_| None).collect();
        let mut model = [0u64; 2];
        for (kind, which, cell, n) in ops {
            let slot = &mut sets[which % k];
            match kind {
                // Mostly adds to a set — a dropped one is replaced first.
                0..=3 => {
                    let set = slot.get_or_insert_with(|| CounterSet::new(NAMES));
                    let own = set.get(cell);
                    set.add(cell, n);
                    prop_assert_eq!(set.get(cell), own + n, "the owner's own view");
                    model[cell] += n;
                }
                4 => {
                    shared.add(n);
                    model[0] += n;
                }
                _ => *slot = None,
            }
            prop_assert_eq!(totals(), model);
        }
        ukstats::reset_all();
        prop_assert_eq!(totals(), [0, 0]);
        for set in sets.iter().flatten() {
            prop_assert_eq!((set.get(0), set.get(1)), (0, 0), "live sets are reset too");
        }
    }
}

/// One set per thread on one name: nothing is lost, because no cell has
/// two writers. (A plain load + store on the *shared* slot — the
/// shortcut `CounterSet` exists to avoid — loses increments here.)
#[test]
fn four_writers_with_a_set_each_lose_nothing() {
    const ADDS: u64 = 100_000;
    let _turn = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let base = totals()[0];
    let start = std::sync::Barrier::new(4);
    let sets: Vec<CounterSet> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..4)
            .map(|_| {
                // Built here, moved there: a set is `Send`.
                let set = CounterSet::new(NAMES);
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..ADDS {
                        set.add(0, 1);
                    }
                    set
                })
            })
            .collect();
        writers.into_iter().map(|w| w.join().expect("writer panicked")).collect()
    });
    assert_eq!(totals()[0] - base, 4 * ADDS, "merged from four live sets");
    drop(sets);
    assert_eq!(totals()[0] - base, 4 * ADDS, "and folded into the shared slot");
}
