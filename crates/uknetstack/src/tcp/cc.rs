//! NewReno's congestion window (RFC 5681 / RFC 6582). A loss episode
//! halves `ssthresh`, inflates `cwnd` per extra dup-ACK and deflates it
//! per partial ACK; a timeout restarts from one segment. `cwnd` (slow
//! start / congestion avoidance) bounds emission alongside the peer
//! window and composes with the TSO super-segment budget (a
//! super-segment splits at the `min(cwnd, snd_wnd)` edge exactly like at
//! the window edge). Invariant: `ssthresh >= 2·MSS`, every cut but the
//! timeout's leaves `cwnd >= 2·MSS`, and `cwnd` never passes
//! `4·SND_BUF_CAP` — neither by growth nor by an episode's inflation.

use super::{MSS, SND_BUF_CAP};

/// Initial congestion window, in segments (RFC 6928's IW10).
const INITIAL_CWND_SEGS: usize = 10;

/// The most `cwnd` may reach.
const CWND_CAP: usize = 4 * SND_BUF_CAP;

/// One connection's congestion state.
#[derive(Debug)]
pub(super) struct NewReno {
    /// Congestion window (bytes).
    cwnd: usize,
    /// Slow-start threshold (bytes).
    ssthresh: usize,
    /// The segment size every event counts in.
    mss: usize,
}

impl NewReno {
    pub(super) fn new() -> Self {
        NewReno { cwnd: INITIAL_CWND_SEGS * MSS, ssthresh: SND_BUF_CAP, mss: MSS }
    }

    /// The owner's MSS is known (before any data moves).
    pub(super) fn configure(&mut self, mss: usize) {
        self.mss = mss;
        // The initial window is denominated in segments (IW10).
        self.cwnd = INITIAL_CWND_SEGS * mss;
    }

    /// The congestion window in bytes.
    pub(super) fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// What may be in flight against a peer window of `snd_wnd`.
    pub(super) fn window(&self, snd_wnd: usize) -> usize {
        snd_wnd.min(self.cwnd)
    }

    /// Bytes one hole-walk may re-emit.
    pub(super) fn hole_budget(&self, snd_wnd: usize) -> usize {
        self.window(snd_wnd).max(2 * self.mss)
    }

    /// A loss episode opened short of a timeout, `flight` bytes out:
    /// halve, plus the three segments the evidence says have left.
    pub(super) fn on_loss(&mut self, flight: usize) {
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh + 3 * self.mss;
    }

    /// The timer fired on data: a full loss event — restart slow start.
    pub(super) fn on_rto(&mut self, flight: usize) {
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.mss;
    }

    /// Each further dup-ACK in the episode means another segment left
    /// the network: inflate.
    pub(super) fn on_dup_ack(&mut self) {
        self.cwnd = (self.cwnd + self.mss).min(CWND_CAP);
    }

    /// The full ACK that ends the episode: deflate to `ssthresh`.
    pub(super) fn on_full_ack(&mut self) {
        self.cwnd = self.ssthresh.max(2 * self.mss);
    }

    /// A partial ACK inside the episode: deflate by the bytes it
    /// covered, plus the segment its retransmission puts back.
    pub(super) fn on_partial_ack(&mut self, acked: usize) {
        self.cwnd = (self.cwnd.saturating_sub(acked).max(2 * self.mss) + self.mss).min(CWND_CAP);
    }

    /// `acked` new bytes were acknowledged outside an episode: grow.
    pub(super) fn on_ack(&mut self, acked: usize) {
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per ACK (bounded by bytes
            // actually covered, so stretch ACKs don't over-open).
            self.cwnd += acked.min(self.mss);
        } else {
            // Congestion avoidance: ~one MSS per RTT.
            self.cwnd += (self.mss * self.mss / self.cwnd.max(1)).max(1);
        }
        self.cwnd = self.cwnd.min(CWND_CAP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Ev {
        /// New data acknowledged outside an episode, `.0` bytes.
        Ack(usize),
        /// `.0` such ACKs of one MSS each (a long quiet transfer).
        Acks(usize),
        Loss(usize),
        Rto(usize),
        DupAck,
        FullAck,
        PartialAck(usize),
    }

    fn arb_ev() -> impl Strategy<Value = Ev> {
        // What is in flight never exceeds the peer's 16-bit window.
        let flight = 1usize..65_536;
        prop_oneof![
            (0usize..200_000).prop_map(Ev::Ack),
            (0usize..30_000).prop_map(Ev::Acks),
            flight.clone().prop_map(Ev::Loss),
            flight.clone().prop_map(Ev::Rto),
            Just(Ev::DupAck),
            Just(Ev::FullAck),
            flight.prop_map(Ev::PartialAck),
        ]
    }

    fn drive(cc: &mut NewReno, ev: &Ev) {
        match *ev {
            Ev::Ack(n) => cc.on_ack(n),
            Ev::Acks(n) => (0..n).for_each(|_| cc.on_ack(cc.mss)),
            Ev::Loss(f) => cc.on_loss(f),
            Ev::Rto(f) => cc.on_rto(f),
            Ev::DupAck => cc.on_dup_ack(),
            Ev::FullAck => cc.on_full_ack(),
            Ev::PartialAck(n) => cc.on_partial_ack(n),
        }
    }

    proptest! {
        /// Under any event sequence: `ssthresh` holds its 2·MSS
        /// floor and so does `cwnd` wherever it is cut (a timeout
        /// restarts it from one MSS, growth only adds), and `cwnd`
        /// stays at or under 4·`SND_BUF_CAP` after every event.
        #[test]
        fn window_keeps_its_floor_and_ceiling(
            mss in 300usize..MSS + 1,
            evs in proptest::collection::vec(arb_ev(), 1..60),
        ) {
            let mut cc = NewReno::new();
            cc.configure(mss);
            prop_assert_eq!(cc.cwnd(), INITIAL_CWND_SEGS * mss);
            for ev in &evs {
                let before = cc.cwnd;
                drive(&mut cc, ev);
                match ev {
                    Ev::Ack(_) | Ev::Acks(_) | Ev::DupAck => {
                        prop_assert!(cc.cwnd >= before.min(CWND_CAP))
                    }
                    Ev::Rto(_) => prop_assert_eq!(cc.cwnd, mss),
                    _ => prop_assert!(cc.cwnd >= 2 * mss, "{cc:?} after {ev:?}"),
                }
                prop_assert!(cc.ssthresh >= 2 * mss, "{cc:?} after {ev:?}");
                prop_assert!(cc.cwnd <= CWND_CAP, "{cc:?} after {ev:?}");
                prop_assert_eq!(cc.window(65_535), cc.cwnd.min(65_535));
                prop_assert!(cc.hole_budget(0) >= 2 * mss);
            }
        }
    }

    /// A loss episode's inflation stops at the ceiling too: ten
    /// thousand duplicate ACKs, then partial ACKs that cover nothing,
    /// leave `cwnd` at 4·`SND_BUF_CAP`, not one MSS per ACK past it.
    #[test]
    fn dup_ack_inflation_stops_at_the_ceiling() {
        let mut cc = NewReno::new();
        cc.on_loss(60_000);
        for _ in 0..10_000 {
            cc.on_dup_ack();
        }
        assert_eq!(cc.cwnd(), CWND_CAP);
        for _ in 0..100 {
            cc.on_partial_ack(0);
        }
        assert_eq!(cc.cwnd(), CWND_CAP);
    }
}
