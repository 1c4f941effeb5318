//! The GRO stage: consecutive in-order data segments of one `rx_burst`
//! to the same connection wait here and reach their TCB as **one**
//! multi-buffer ingest with one coalesced ACK — the receive-side mirror
//! of GSO, aimed at per-MSS (non-TSO) senders.
//!
//! A segment continuing the staged run's flow at exactly the expected
//! sequence number is matched **without any demux-table lookup**
//! ([`Gro::continues`], the role of Linux's `gro_list` flow compare).
//! The stack flushes the stage before anything that is not a mergeable
//! data segment reaches a TCB, and at the end of every burst, so nothing
//! ever overtakes staged data. Merging is work-shaping only: the wire
//! conversation is property-tested byte-identical with GRO on and off.
//!
//! Invariant (`runs_are_the_reference_delivery_merged`): a run handed
//! out by [`Gro::next_run`] is one connection's consecutive sequence
//! space, in arrival order — never across a gap, never across a
//! connection — and the runs together are everything staged, once.

use uknetdev::netbuf::Netbuf;
use uknetdev::MAX_BURST;

use super::conns::ConnId;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::Ipv4Addr;

/// What the stage holds per mergeable data segment.
type Staged = (ConnId, TcpHeader, Netbuf);

// The stage moves its elements on every push and drain; the buffer
// rides in it as a one-word handle and the rest is the key beside it.
// A fat descriptor must not creep back in.
const _: () = assert!(size_of::<Staged>() <= 48);

/// The expected continuation of the run currently being staged: the
/// flow identity of its last segment and the sequence number the next
/// in-order segment must carry.
struct Cont {
    src: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    conn: ConnId,
    next_seq: u32,
}

/// Where a mergeable segment stands against the run being staged.
pub(super) enum Continues {
    /// Same flow, exactly the expected sequence number: it joins the
    /// run of this connection, no demux needed.
    InOrder(ConnId),
    /// Same flow, another sequence number (a drop or reorder on the
    /// wire): the run must be delivered *now*, so coalescing never
    /// merges across the hole.
    AfterGap,
    /// Another flow, or nothing staged.
    No,
}

/// One run off the stage front, as the TCB is to see it.
pub(super) struct Run {
    pub(super) conn: ConnId,
    /// The merged header: the run's first sequence number and the
    /// *last* segment's cumulative ACK and window (the freshest peer
    /// state), exactly what a hardware GRO engine presents.
    pub(super) header: TcpHeader,
    /// Segments merged (1: nothing to merge with).
    pub(super) frames: usize,
    /// Payload bytes the run spans.
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    pub(super) bytes: u32,
}

/// The stage (see the module docs).
#[derive(Default)]
pub(super) struct Gro {
    /// `(connection, header, payload buffer)` per mergeable data
    /// segment of the burst being swept, in arrival order (reused
    /// storage).
    stage: Vec<Staged>,
    /// The tail of the run being staged.
    cont: Option<Cont>,
}

impl Gro {
    /// An empty stage.
    // ukcheck: allow(alloc) -- built once, in `NetStack::new` (it was
    // that constructor's before `stack/` was split). Starts at a device
    // burst rather than growing into it: how many sub-MSS tails one
    // sweep stages shifts with ACK and window-update timing, and growth
    // would show up mid-transfer as a datapath allocation
    pub(super) fn new() -> Self {
        Gro { stage: Vec::with_capacity(MAX_BURST), cont: None }
    }

    /// Whether a segment from `src` with header `tcp` continues the run
    /// being staged.
    #[inline]
    pub(super) fn continues(&self, src: Ipv4Addr, tcp: &TcpHeader) -> Continues {
        match &self.cont {
            Some(c) if c.src_port == tcp.src_port && c.dst_port == tcp.dst_port && c.src == src => {
                if c.next_seq == tcp.seq {
                    Continues::InOrder(c.conn)
                } else {
                    Continues::AfterGap
                }
            }
            _ => Continues::No,
        }
    }

    /// Stages a data segment of `conn` (headers pulled: `payload` is
    /// the TCP payload alone) — appending to the run being staged, or
    /// starting (or interleaving) one — and expects the next in order.
    #[inline]
    pub(super) fn append_or_start(
        &mut self,
        conn: ConnId,
        src: Ipv4Addr,
        tcp: TcpHeader,
        payload: Netbuf,
    ) {
        self.cont = Some(Cont {
            src,
            src_port: tcp.src_port,
            dst_port: tcp.dst_port,
            conn,
            next_seq: tcp.seq.wrapping_add(payload.len() as u32),
        });
        self.stage.push((conn, tcp, payload));
    }

    /// A connection was reaped: no later segment may join a run as its.
    /// (What it has staged stays; the delivery finds it gone.)
    #[inline]
    pub(super) fn forget(&mut self, conn: ConnId) {
        if self.cont.as_ref().is_some_and(|c| c.conn == conn) {
            self.cont = None;
        }
    }

    /// Ends the run being staged: whatever comes next starts a new one.
    #[inline]
    pub(super) fn end_run(&mut self) {
        self.cont = None;
    }

    /// Whether nothing is staged.
    #[inline]
    pub(super) fn is_empty(&self) -> bool {
        self.stage.is_empty()
    }

    /// Takes the run at the stage front — adjacent entries, same
    /// connection, consecutive sequence numbers — as its merged header
    /// and its payload buffers in order; `None` once the stage is
    /// empty. Buffers drain straight out of the stage into the caller's
    /// hands — no intermediate move.
    pub(super) fn next_run(&mut self) -> Option<(Run, impl Iterator<Item = Netbuf> + '_)> {
        let &(conn, first, ref nb) = self.stage.first()?;
        let mut next_seq = first.seq.wrapping_add(nb.len() as u32);
        let mut j = 1;
        while j < self.stage.len() && self.stage[j].0 == conn && self.stage[j].1.seq == next_seq {
            next_seq = next_seq.wrapping_add(self.stage[j].2.len() as u32);
            j += 1;
        }
        let last = self.stage[j - 1].1;
        let header = TcpHeader {
            src_port: first.src_port,
            dst_port: first.dst_port,
            seq: first.seq,
            ack: last.ack,
            flags: TcpFlags {
                ack: true,
                psh: first.flags.psh || last.flags.psh,
                ..Default::default()
            },
            window: last.window,
        };
        let run = Run { conn, header, frames: j, bytes: next_seq.wrapping_sub(first.seq) };
        Some((run, self.stage.drain(..j).map(|(_, _, nb)| nb)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One arriving segment: which of two connections, how far past the
    /// connection's expected sequence number (0: in order), how long.
    fn arb_segment() -> impl Strategy<Value = (bool, u32, usize)> {
        (any::<bool>(), 0u32..6, 1usize..40)
            .prop_map(|(b, gap, len)| (b, gap.saturating_sub(4), len))
    }

    proptest! {
        /// Staging any arrival sequence and draining it run by run is
        /// the obvious reference — hand the TCB each segment on its own,
        /// in arrival order — with adjacent segments merged: the same
        /// bytes per connection in the same order, each run one
        /// connection's consecutive sequence space, its ACK and window
        /// the last member's, and never merged across a gap or across a
        /// connection (so the number of runs is exactly the number of
        /// breaks in the reference).
        #[test]
        fn runs_are_the_reference_delivery_merged(
            segs in proptest::collection::vec(arb_segment(), 1..60),
            base in any::<u32>(),
        ) {
            let conns = [1, 2].map(|slot| ConnId::from_key(1 << 32 | slot).unwrap());
            let src = Ipv4Addr::new(10, 0, 0, 2);
            let mut gro = Gro::new();
            let mut expect_seq = [base, base ^ 0x8000_0000];
            // The reference: (connection, seq, ack, window, bytes) per segment.
            let mut reference = Vec::new();
            for (i, &(which, gap, len)) in segs.iter().enumerate() {
                let w = usize::from(which);
                let seq = expect_seq[w].wrapping_add(gap * 100);
                expect_seq[w] = seq.wrapping_add(len as u32);
                let tcp = TcpHeader {
                    src_port: 1000 + w as u16,
                    dst_port: 80,
                    seq,
                    ack: i as u32,
                    flags: TcpFlags { ack: true, ..Default::default() },
                    window: 1000 + i as u16,
                };
                let payload = vec![i as u8; len];
                let mut nb = Netbuf::alloc(64, 0);
                nb.append(&payload);
                // The demux the stack does: a continuation joins without
                // a lookup, anything else names its connection afresh.
                let conn = match gro.continues(src, &tcp) {
                    Continues::InOrder(c) => {
                        prop_assert_eq!(c, conns[w]);
                        c
                    }
                    _ => conns[w],
                };
                gro.append_or_start(conn, src, tcp, nb);
                reference.push((conns[w], seq, i as u32, 1000 + i as u16, payload));
            }
            let breaks = reference.windows(2).filter(|p| {
                p[0].0 != p[1].0 || p[0].1.wrapping_add(p[0].4.len() as u32) != p[1].1
            });
            let expect_runs = 1 + breaks.count();
            let (mut at, mut runs) = (0, 0);
            while let Some((run, bufs)) = gro.next_run() {
                runs += 1;
                let members = &reference[at..at + run.frames];
                prop_assert_eq!(run.header.seq, members[0].1);
                let mut seq = run.header.seq;
                for (m, nb) in members.iter().zip(bufs) {
                    prop_assert_eq!((m.0, m.1), (run.conn, seq), "not this run's next byte");
                    prop_assert_eq!(nb.payload(), &m.4[..]);
                    seq = seq.wrapping_add(m.4.len() as u32);
                }
                let last = &members[run.frames - 1];
                prop_assert_eq!((run.header.ack, run.header.window), (last.2, last.3));
                prop_assert_eq!(run.bytes, seq.wrapping_sub(run.header.seq));
                at += run.frames;
            }
            prop_assert_eq!((at, runs), (reference.len(), expect_runs));
            prop_assert!(gro.is_empty());
        }
    }

    #[test]
    fn a_forgotten_connection_continues_nothing() {
        let id = ConnId::from_key(1 << 32 | 5).unwrap();
        let src = Ipv4Addr::new(10, 0, 0, 2);
        let tcp = TcpHeader {
            src_port: 1000,
            dst_port: 80,
            seq: 10,
            ack: 0,
            flags: TcpFlags { ack: true, ..Default::default() },
            window: 100,
        };
        let mut nb = Netbuf::alloc(64, 0);
        nb.append(b"abcd");
        let mut gro = Gro::new();
        gro.append_or_start(id, src, tcp, nb);
        let next = TcpHeader { seq: 14, ..tcp };
        assert!(matches!(gro.continues(src, &next), Continues::InOrder(c) if c == id));
        assert!(matches!(gro.continues(src, &tcp), Continues::AfterGap));
        gro.forget(id);
        assert!(matches!(gro.continues(src, &next), Continues::No));
        assert!(!gro.is_empty(), "what it had staged is still the flush's to return");
    }
}
