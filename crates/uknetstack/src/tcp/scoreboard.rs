//! The sender's SACK scoreboard (RFC 2018 / RFC 6675): what the peer
//! says it holds above `snd_una`, and the hole-walk's mark. Invariant:
//! the ranges are sorted, disjoint and non-touching, and at most
//! [`MAX_SACKED_RANGES`]. Which blocks are usable is `ack`'s
//! `process_options`; the walk is `recovery`'s `hole_walk`.

use super::{seq_le, seq_lt};

/// Scoreboard capacity: disjoint SACKed ranges tracked per
/// connection. A 64 KB send buffer is ≤ 45 MSS segments, so ≤ 23
/// alternating holes; 32 ranges cover every reachable episode and the
/// `Vec` never reallocates in steady state.
const MAX_SACKED_RANGES: usize = 32;

/// One connection's scoreboard.
#[derive(Debug)]
pub(super) struct Scoreboard {
    /// Sender scoreboard: disjoint, ascending SACKed ranges strictly
    /// above `snd_una`, merged from the peer's SACK blocks. The
    /// hole-walk retransmits only `rtx_q` extents *not* covered here.
    sacked: Vec<(u32, u32)>,
    /// Highest sequence end the hole-walk has retransmitted this
    /// episode (reset when `snd_una` advances or the RTO fires) — the
    /// RACK-less guard against re-sending the same hole every ACK.
    sack_rtx_mark: u32,
}

impl Scoreboard {
    // ukcheck: allow(alloc) -- moved out of `Tcb::new`/`configure` with
    // the allocation: pre-sized once per TCB so recovery never grows
    // it, or (`lean`) empty, which touches no heap
    pub(super) fn new(iss: u32, lean: bool) -> Self {
        let sacked = if lean { Vec::new() } else { Vec::with_capacity(MAX_SACKED_RANGES) };
        Scoreboard { sacked, sack_rtx_mark: iss }
    }

    /// The ranges, ascending.
    pub(super) fn ranges(&self) -> &[(u32, u32)] {
        &self.sacked
    }

    /// Whether the scoreboard fully covers `[s, e)`.
    pub(super) fn covers(&self, s: u32, e: u32) -> bool {
        self.sacked
            .iter()
            .any(|&(rs, re)| seq_le(rs, s) && seq_le(e, re))
    }

    /// Merges `[s, e)` into the sorted, disjoint scoreboard. Returns
    /// whether any previously uncovered byte became covered.
    pub(super) fn merge(&mut self, s: u32, e: u32) -> bool {
        if self.covers(s, e) {
            return false;
        }
        let mut s = s;
        let mut e = e;
        // Absorb every overlapping/touching range into the new one.
        let mut i = 0;
        while i < self.sacked.len() {
            let (rs, re) = self.sacked[i];
            if seq_le(rs, e) && seq_le(s, re) {
                if seq_lt(rs, s) {
                    s = rs;
                }
                if seq_lt(e, re) {
                    e = re;
                }
                self.sacked.remove(i);
            } else {
                i += 1;
            }
        }
        let idx = self
            .sacked
            .iter()
            .position(|&(rs, _)| seq_lt(s, rs))
            .unwrap_or(self.sacked.len());
        if self.sacked.len() < MAX_SACKED_RANGES {
            self.sacked.insert(idx, (s, e));
        }
        // A full scoreboard drops the new range: bounded memory beats
        // completeness — uncovered bytes are merely retransmitted.
        true
    }

    /// Cumulative progress to `snd_una`: retire the ranges the ACK
    /// overtook and restart the hole-walk mark.
    pub(super) fn retire_below(&mut self, snd_una: u32) {
        self.sacked.retain(|&(_, e)| seq_lt(snd_una, e));
        if let Some(first) = self.sacked.first_mut() {
            if seq_lt(first.0, snd_una) {
                first.0 = snd_una;
            }
        }
        self.sack_rtx_mark = snd_una;
    }

    /// Forgets every range (a timeout distrusts them).
    pub(super) fn clear(&mut self) {
        self.sacked.clear();
    }

    /// RFC 6675 §4's `IsLost(snd_una)`: the segment at `snd_una` is
    /// lost once three discontiguous ranges, or more than two segments'
    /// worth of bytes, are SACKed above it. The byte form of the
    /// 3-dup-ACK rule — it still works when the peer answers a whole
    /// flight with one ACK, as this stack's receiver does (one ACK per
    /// poll, and fewer still since ACKs ride replies).
    pub(super) fn says_lost(&self, mss: usize) -> bool {
        let sacked: usize = self
            .sacked
            .iter()
            .map(|&(s, e)| e.wrapping_sub(s) as usize)
            .sum();
        self.sacked.len() >= 3 || sacked > 2 * mss
    }

    /// Whether the extent at `seq` is still owed its one
    /// retransmission this episode.
    pub(super) fn unwalked(&self, seq: u32) -> bool {
        seq_le(self.sack_rtx_mark, seq)
    }

    /// The walk re-emitted everything it will below `seq` — or, with
    /// `seq` at `snd_una`, an episode opens and every hole is owed.
    pub(super) fn mark_walked(&mut self, seq: u32) {
        self.sack_rtx_mark = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Sequence space the reference tracks, byte by byte.
    const N: u32 = 20_000;

    #[derive(Debug, Clone)]
    enum Op {
        /// SACK `len` bytes starting `.0` above the cumulative ACK.
        Merge(u32, u32),
        /// The cumulative ACK advances by `.0`.
        Retire(u32),
        Clear,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Mostly small blocks, which fill the scoreboard to its cap;
        // now and then a large one that bridges what is there, an ACK
        // that retires some of it, rarely a timeout that clears it.
        (0u32..40, 1u32..N, 1u32..120).prop_map(|(kind, s, l)| match kind {
            0 => Op::Clear,
            1..=3 => Op::Retire(s % 1500),
            4..=7 => Op::Merge(s, l * 25),
            _ => Op::Merge(s, l),
        })
    }

    /// The maximal runs of set bits, as absolute sequence ranges.
    fn runs(bits: &[bool], base: u32) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for (i, _) in bits.iter().enumerate().filter(|(_, b)| **b) {
            let at = base.wrapping_add(i as u32);
            match out.last_mut() {
                Some(r) if r.1 == at => r.1 = at.wrapping_add(1),
                _ => out.push((at, at.wrapping_add(1))),
            }
        }
        out
    }

    proptest! {
        /// Under any merge / retire / clear sequence — seeded within
        /// two segments of 2³², so every case wraps — the scoreboard
        /// is the naive bitmap's maximal runs above `snd_una`: sorted,
        /// disjoint, never more than `MAX_SACKED_RANGES` (a block that
        /// would be the 33rd range is dropped, and only that), and
        /// `covers`, `says_lost` and `merge`'s verdict agree with the
        /// bitmap too.
        #[test]
        fn matches_the_bitmap_reference_across_the_wrap(
            below_wrap in 0u32..2920,
            ops in proptest::collection::vec(arb_op(), 1..90),
            probe in (0u32..N, 1u32..3000),
        ) {
            let base = u32::MAX - below_wrap;
            let mut sb = Scoreboard::new(base, false);
            let mut bits = vec![false; N as usize];
            let mut una = 0u32; // Relative to `base`.
            for op in &ops {
                match *op {
                    Op::Merge(above, len) => {
                        if una + above >= N {
                            continue; // Nothing left above the ACK.
                        }
                        let s = una + above;
                        let e = (s + len).min(N);
                        let mut next = bits.clone();
                        next[s as usize..e as usize].fill(true);
                        let news = next != bits;
                        let got = sb.merge(base.wrapping_add(s), base.wrapping_add(e));
                        prop_assert_eq!(got, news, "merge's verdict for {:?}", op);
                        if runs(&next, base).len() <= MAX_SACKED_RANGES {
                            bits = next;
                        }
                    }
                    Op::Retire(delta) => {
                        una = (una + delta).min(N);
                        bits[..una as usize].fill(false);
                        sb.retire_below(base.wrapping_add(una));
                        prop_assert!(sb.unwalked(base.wrapping_add(una)));
                    }
                    Op::Clear => {
                        bits.fill(false);
                        sb.clear();
                    }
                }
                let expect = runs(&bits, base);
                prop_assert_eq!(sb.ranges(), &expect[..], "after {:?} (una={})", op, una);
                prop_assert!(sb.ranges().len() <= MAX_SACKED_RANGES);
                prop_assert!(sb.ranges().iter().all(|&(s, e)| seq_lt(s, e)));
                prop_assert!(sb.ranges().windows(2).all(|w| seq_lt(w[0].1, w[1].0)));
                let set = bits.iter().filter(|&&b| b).count();
                prop_assert_eq!(sb.says_lost(1460), expect.len() >= 3 || set > 2920);
                let (ps, pe) = (probe.0, (probe.0 + probe.1).min(N));
                prop_assert_eq!(
                    sb.covers(base.wrapping_add(ps), base.wrapping_add(pe)),
                    bits[ps as usize..pe as usize].iter().all(|&b| b)
                );
            }
        }
    }

    /// The hole-walk mark admits each hole once per episode.
    #[test]
    fn the_mark_admits_each_hole_once_per_episode() {
        let mut sb = Scoreboard::new(u32::MAX - 10, false);
        sb.mark_walked(u32::MAX - 10);
        assert!(sb.unwalked(u32::MAX - 10));
        sb.mark_walked(1450); // Across the wrap.
        assert!(!sb.unwalked(u32::MAX - 10) && !sb.unwalked(1449));
        assert!(sb.unwalked(1450), "the next hole is still owed");
        sb.retire_below(100);
        assert!(sb.unwalked(100), "progress restarts the walk");
    }
}
