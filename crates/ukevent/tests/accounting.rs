//! A queue's count lives once: `EventQueue::edges_seen()` reads the
//! same cell the registry sums into `ukevent.edges`.
//!
//! One test, alone in its binary: the registry is process-global, and
//! the delta below is exact.

use ukevent::{EventFd, EventMask, EventQueue};

fn registry() -> u64 {
    ukstats::snapshot().counter("ukevent.edges").unwrap_or(0)
}

#[test]
fn edges_seen_is_the_queues_share_of_the_registry_count() {
    let mut efd = EventFd::new(0, 0).unwrap();
    let mut q = EventQueue::new();
    q.ctl_add(1, &efd, EventMask::IN).unwrap();
    let base = registry();

    // Each write to a drained eventfd is a rising edge; a write to a
    // readable one is not.
    for _ in 0..5 {
        efd.write(1).unwrap();
        efd.write(1).unwrap();
        assert_eq!(q.poll_ready(4).len(), 1);
        efd.read().unwrap();
    }
    let edges = q.edges_seen();
    assert_eq!(edges, 5, "one edge per drain-then-write");
    if ukstats::COMPILED_IN {
        assert_eq!(registry() - base, edges, "the registry reads the same cell");
        drop(q);
        assert_eq!(registry() - base, edges, "and keeps the count when the queue goes");
    }
}
