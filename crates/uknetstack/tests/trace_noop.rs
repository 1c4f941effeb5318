//! The compile-out guarantee, asserted as a cfg test.
//!
//! Built with the `trace` feature off (`make verify-trace-off`), this
//! binary proves the no-op tracing path adds nothing to the stack:
//! the ring each `NetStack` embeds is a zero-sized type, recording is
//! inert, and `trace!` expands to no tokens at all — so `pump` and the
//! rest of the datapath carry no tracing code, not even a branch.

#![cfg(not(feature = "trace"))]

use uknetstack::testnet::{node, Network};
use uknetstack::{Endpoint, Ipv4Addr};

#[test]
fn noop_ring_is_zero_sized_and_inert() {
    assert!(!uktrace::COMPILED_IN);
    assert_eq!(
        std::mem::size_of::<uktrace::TraceRing>(),
        0,
        "a NetStack embeds a zero-sized ring when tracing is compiled out"
    );
    let mut ring = uktrace::TraceRing::new(1024);
    assert_eq!(ring.capacity(), 0);
    assert!(ring.is_empty());
    assert!(ring.drain().is_empty());
    assert_eq!(ring.dropped(), 0);
}

/// `--no-default-features` reaches every crate that publishes into the
/// registry (`uknetdev`, `ukevent`, `uksched` forward `stats`), so the
/// off build is really off — and the stack still counts for itself.
#[cfg(not(feature = "stats"))]
#[test]
fn stats_registry_is_compiled_out_and_the_stack_still_counts() {
    assert!(!ukstats::COMPILED_IN);
    let mut stack = node(1, |_| {});
    stack.pump();
    assert_eq!(stack.stats().pump_sweeps, 1, "the owner's view needs no registry");
    assert!(ukstats::snapshot().counters.is_empty());
}

#[test]
fn datapath_runs_with_tracing_compiled_out_and_records_nothing() {
    let mut net = Network::new();
    let ci = net.attach(node(1, |_| {}));
    let si = net.attach(node(2, |_| {}));
    let listener = net.stack(si).tcp_listen(7).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();
    net.stack(ci).tcp_send(client, b"silent").unwrap();
    net.run_until_quiet(32);
    let mut buf = [0u8; 64];
    let n = net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"silent");
    // The scenario that fills the ring under `trace` leaves it empty:
    // every instrumentation site compiled to nothing.
    assert!(net.stack(si).trace_events().is_empty());
    assert!(net.stack(ci).trace_events().is_empty());
}
