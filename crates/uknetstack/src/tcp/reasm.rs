//! Bounded out-of-order reassembly, and the SACK report it generates
//! (RFC 2018 / RFC 2883). A payload extent landing ahead of `rcv_nxt`
//! is queued (sequence-sorted, overlap-trimmed against both neighbours
//! and `rcv_nxt`) in a budgeted reassembly queue instead of being
//! discarded; the hole's arrival drains every contiguous queued extent
//! in one sweep. Extents that exceed the budget, duplicate queued
//! data, or land outside the sequence horizon are recycled to their
//! pool — never leaked. Invariant: sorted, disjoint, at most
//! [`OOO_QUEUE_BUFS`] buffers / [`OOO_QUEUE_BYTES`] bytes.

use std::collections::VecDeque;

use uknetdev::netbuf::Netbuf;

use super::{seq_le, seq_lt, MAX_SACK_BLOCKS, RCV_BUF_CAP, TCP_MAX_OPT_LEN};

/// Reassembly-queue budget, in buffers: each queued out-of-order
/// extent pins a pool buffer, so the queue is capped independently of
/// byte count.
const OOO_QUEUE_BUFS: usize = 64;
/// Reassembly-queue budget, in payload bytes (one receive window).
const OOO_QUEUE_BYTES: usize = RCV_BUF_CAP;
/// How far ahead of `rcv_nxt` an out-of-order extent may start and
/// still be queued; anything beyond is garbage (or an attack) and is
/// recycled immediately.
const OOO_SEQ_HORIZON: u32 = 1 << 17;

/// One connection's reassembly queue and pending SACK report.
#[derive(Debug)]
pub(super) struct Reassembly {
    /// Out-of-order reassembly queue: `(seq, extent)` sorted by
    /// sequence, overlap-trimmed, bounded by [`OOO_QUEUE_BUFS`] /
    /// [`OOO_QUEUE_BYTES`].
    ooo_q: VecDeque<(u32, Netbuf)>,
    /// Payload bytes across `ooo_q` (≤ [`OOO_QUEUE_BYTES`], so 32 bits:
    /// the `Tcb` stays inside `stack/conns.rs`'s slot-size budget).
    ooo_bytes: u32,
    /// Start of the most recently queued out-of-order extent — the
    /// block RFC 2018 §4 requires first in the next SACK option.
    sack_recent: Option<u32>,
    /// Pending duplicate-arrival report (RFC 2883 D-SACK), emitted as
    /// the first block of exactly one SACK option.
    dsack_pending: Option<(u32, u32)>,
}

impl Reassembly {
    // ukcheck: allow(alloc) -- the queue starts empty, which touches no
    // heap: it grows with the first out-of-order extent
    pub(super) fn new() -> Self {
        Reassembly { ooo_q: VecDeque::new(), ooo_bytes: 0, sack_recent: None, dsack_pending: None }
    }

    /// Whether no extent is waiting for a hole to fill.
    pub(super) fn is_empty(&self) -> bool {
        self.ooo_q.is_empty()
    }

    /// Files an out-of-order extent into the reassembly queue:
    /// sequence-sorted insert, overlap trimmed against both neighbours
    /// (fully covered, over-budget, or out-of-horizon extents are
    /// recycled instead; a duplicate arrival is noted for D-SACK when
    /// `report`). Returns whether the extent was queued.
    pub(super) fn insert<R>(&mut self, seq: u32, nb: Netbuf, rcv_nxt: u32, report: bool, recycle: &mut R) -> bool
    where
        R: FnMut(Netbuf),
    {
        let mut seq = seq;
        let mut nb = nb;
        if self.ooo_q.len() >= OOO_QUEUE_BUFS
            || self.ooo_bytes as usize + nb.len() > OOO_QUEUE_BYTES
            || seq.wrapping_sub(rcv_nxt) > OOO_SEQ_HORIZON
        {
            recycle(nb);
            return false;
        }
        let mut idx = self.ooo_q.len();
        while idx > 0 && seq_lt(seq, self.ooo_q[idx - 1].0) {
            idx -= 1;
        }
        let mut end = seq.wrapping_add(nb.len() as u32);
        if idx > 0 {
            let (pseq, pnb) = &self.ooo_q[idx - 1];
            let pend = pseq.wrapping_add(pnb.len() as u32);
            if seq_le(end, pend) {
                // Fully covered by a queued extent: a duplicate
                // arrival, reported back as a D-SACK.
                self.note_dsack(report, seq, end);
                recycle(nb);
                return false;
            }
            if seq_lt(seq, pend) {
                let trim = pend.wrapping_sub(seq) as usize;
                nb.pull_header(trim);
                seq = pend;
            }
        }
        if idx < self.ooo_q.len() {
            let succ_seq = self.ooo_q[idx].0;
            end = seq.wrapping_add(nb.len() as u32);
            if seq_lt(succ_seq, end) {
                // Keep only the part in front of the queued successor;
                // any tail beyond it is the peer's to retransmit.
                let keep = succ_seq.wrapping_sub(seq) as usize;
                if keep == 0 {
                    self.note_dsack(report, seq, end);
                    recycle(nb);
                    return false;
                }
                nb.truncate(keep);
            }
        }
        self.ooo_bytes += nb.len() as u32;
        // RFC 2018 §4: the first SACK block must report the block
        // containing the most recently received extent.
        self.sack_recent = Some(seq);
        self.ooo_q.insert(idx, (seq, nb));
        true
    }

    /// Records a duplicate data arrival for D-SACK reporting
    /// (RFC 2883) — only when the SACK machinery is on and the peer
    /// negotiated it (`report`); at most one pending report (the newest
    /// wins), emitted as the first block of exactly one SACK option.
    pub(super) fn note_dsack(&mut self, report: bool, seq: u32, end: u32) {
        if report {
            self.dsack_pending = Some((seq, end));
        }
    }

    /// Builds the SACK option for the next pure ACK into `buf`,
    /// returning its total length (0 = nothing to report). Layout:
    /// `NOP NOP 5 len` then up to [`MAX_SACK_BLOCKS`] 8-byte blocks —
    /// a pending D-SACK first (RFC 2883), then the merged reassembly
    /// range containing the most recently queued extent (RFC 2018
    /// §4's recency rule), then the remaining merged ranges ascending,
    /// at most 3 non-D-SACK blocks. Consumes the pending D-SACK — and
    /// says nothing unless `report`.
    pub(super) fn fill_sack_option(&mut self, report: bool, buf: &mut [u8; TCP_MAX_OPT_LEN]) -> usize {
        if !report {
            self.dsack_pending = None;
            return 0;
        }
        let dsack = self.dsack_pending.take();
        if dsack.is_none() && self.ooo_q.is_empty() {
            return 0;
        }
        let mut blocks = [(0u32, 0u32); MAX_SACK_BLOCKS];
        let mut n = 0;
        if let Some(d) = dsack {
            blocks[n] = d;
            n += 1;
        }
        // Merge the (sorted, overlap-trimmed) reassembly extents into
        // contiguous ranges on the fly: the range holding the most
        // recent insert is set aside to lead, the rest collect
        // ascending.
        let recent = self.sack_recent;
        let mut recent_block: Option<(u32, u32)> = None;
        let mut asc = [(0u32, 0u32); MAX_SACK_BLOCKS];
        let mut asc_n = 0;
        let file = |r: (u32, u32),
                        recent_block: &mut Option<(u32, u32)>,
                        asc: &mut [(u32, u32); MAX_SACK_BLOCKS],
                        asc_n: &mut usize| {
            if recent.is_some_and(|p| seq_le(r.0, p) && seq_lt(p, r.1)) {
                *recent_block = Some(r);
            } else if *asc_n < asc.len() {
                asc[*asc_n] = r;
                *asc_n += 1;
            }
        };
        let mut cur: Option<(u32, u32)> = None;
        for (seq, nb) in &self.ooo_q {
            let end = seq.wrapping_add(nb.len() as u32);
            match cur {
                Some((s, e)) if e == *seq => cur = Some((s, end)),
                Some(r) => {
                    file(r, &mut recent_block, &mut asc, &mut asc_n);
                    cur = Some((*seq, end));
                }
                None => cur = Some((*seq, end)),
            }
        }
        if let Some(r) = cur {
            file(r, &mut recent_block, &mut asc, &mut asc_n);
        }
        let mut normal = 0;
        if let Some(r) = recent_block {
            blocks[n] = r;
            n += 1;
            normal += 1;
        }
        let mut i = 0;
        while normal < 3 && i < asc_n && n < MAX_SACK_BLOCKS {
            blocks[n] = asc[i];
            n += 1;
            normal += 1;
            i += 1;
        }
        if n == 0 {
            return 0;
        }
        buf[0] = 1; // NOP.
        buf[1] = 1; // NOP.
        buf[2] = 5; // SACK.
        buf[3] = (2 + 8 * n) as u8;
        for (i, (s, e)) in blocks[..n].iter().enumerate() {
            let o = 4 + i * 8;
            buf[o..o + 4].copy_from_slice(&s.to_be_bytes());
            buf[o + 4..o + 8].copy_from_slice(&e.to_be_bytes());
        }
        4 + 8 * n
    }

    /// Takes the next extent an advance of `rcv_nxt` made contiguous
    /// (front-trimming partial overlap, recycling wholly stale
    /// entries). The caller accepts it, which moves `rcv_nxt`, and asks
    /// again: one sweep drains every now-contiguous extent.
    pub(super) fn pop_ready<R: FnMut(Netbuf)>(&mut self, rcv_nxt: u32, recycle: &mut R) -> Option<Netbuf> {
        while let Some(&(seq, _)) = self.ooo_q.front() {
            if seq_lt(rcv_nxt, seq) {
                break; // Still a hole in front of the queue.
            }
            let Some((seq, mut nb)) = self.ooo_q.pop_front() else {
                // front() above proved the queue is non-empty.
                debug_assert!(false, "ooo_q emptied between front() and pop_front()");
                break;
            };
            self.ooo_bytes -= nb.len() as u32;
            let end = seq.wrapping_add(nb.len() as u32);
            if seq_le(end, rcv_nxt) {
                recycle(nb); // Stale: in-order delivery overtook it.
                continue;
            }
            if seq_lt(seq, rcv_nxt) {
                let trim = rcv_nxt.wrapping_sub(seq) as usize;
                nb.pull_header(trim);
            }
            return Some(nb);
        }
        None
    }

    /// Takes the newest (highest-sequence) extent out of the queue.
    pub(super) fn shed_newest(&mut self) -> Option<Netbuf> {
        let (_, nb) = self.ooo_q.pop_back()?;
        self.ooo_bytes -= nb.len() as u32;
        Some(nb)
    }

    /// Recycles every extent and forgets the report (the connection
    /// died).
    pub(super) fn clear<R: FnMut(Netbuf)>(&mut self, recycle: &mut R) {
        while let Some((_, nb)) = self.ooo_q.pop_front() {
            recycle(nb);
        }
        self.ooo_bytes = 0;
        self.dsack_pending = None;
        self.sack_recent = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever arrives out of order, however it overlaps: the queue
        /// stays sorted, disjoint and inside both budgets, `ooo_bytes`
        /// is the sum of what it holds, a buffer is either queued or
        /// handed back — never both, never neither — and what a drain
        /// yields is contiguous from `rcv_nxt`, byte for byte.
        #[test]
        fn queue_stays_sorted_disjoint_and_bounded(
            below_wrap in 0u32..3000,
            arrivals in proptest::collection::vec((1u32..200_000, 1usize..1500), 1..120),
            fill in 0u32..100_000,
        ) {
            let rcv_nxt = u32::MAX - below_wrap;
            // The stream's byte at sequence `s` is `s as u8`.
            let extent = |seq: u32, len: usize| -> Netbuf {
                let bytes: Vec<u8> = (0..len as u32).map(|i| seq.wrapping_add(i) as u8).collect();
                Netbuf::from_slice(&bytes)
            };
            let mut q = Reassembly::new();
            let mut recycled = 0usize;
            for &(ahead, len) in &arrivals {
                let held = q.ooo_q.len();
                let seq = rcv_nxt.wrapping_add(ahead);
                let queued = q.insert(seq, extent(seq, len), rcv_nxt, true, &mut |_| recycled += 1);
                prop_assert_eq!(q.ooo_q.len(), held + usize::from(queued));
                prop_assert!(q.ooo_q.len() <= OOO_QUEUE_BUFS && q.ooo_bytes as usize <= OOO_QUEUE_BYTES);
                prop_assert_eq!(q.ooo_bytes as usize, q.ooo_q.iter().map(|(_, nb)| nb.len()).sum::<usize>());
                for (seq, nb) in &q.ooo_q {
                    prop_assert!(!nb.is_empty() && seq_lt(rcv_nxt, *seq));
                    prop_assert_eq!(nb.payload()[0], *seq as u8, "trimmed to where it says it starts");
                }
                let ends = q.ooo_q.iter().map(|(s, nb)| s.wrapping_add(nb.len() as u32));
                prop_assert!(ends.zip(q.ooo_q.iter().skip(1)).all(|(end, next)| seq_le(end, next.0)));
            }
            prop_assert_eq!(q.ooo_q.len() + recycled, arrivals.len(), "queued or handed back");
            // The hole fills up to `fill`: the drain is contiguous.
            let mut at = rcv_nxt.wrapping_add(fill);
            while let Some(nb) = q.pop_ready(at, &mut |_| recycled += 1) {
                prop_assert_eq!(nb.payload()[0], at as u8);
                at = at.wrapping_add(nb.len() as u32);
            }
            prop_assert!(q.ooo_q.front().is_none_or(|(seq, _)| seq_lt(at, *seq)));
            q.clear(&mut |_| recycled += 1);
            prop_assert!(q.is_empty() && q.ooo_bytes == 0);
        }
    }
}
