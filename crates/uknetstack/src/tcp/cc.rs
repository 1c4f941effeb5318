//! NewReno's congestion window (RFC 5681 / RFC 6582), and the only
//! reader of [`TcbConfig::congestion_control`] (a `StackConfig`
//! ablation; off, every event is ignored and nothing is bounded — fast
//! retransmit and the RTO work either way). A loss episode halves
//! `ssthresh`, inflates `cwnd` per extra dup-ACK and deflates it per
//! partial ACK; a timeout restarts from one segment. `cwnd` (slow start
//! / congestion avoidance) bounds emission alongside the peer window
//! and composes with the TSO super-segment budget (a super-segment
//! splits at the `min(cwnd, snd_wnd)` edge exactly like at the window
//! edge). Invariant, when on: `ssthresh >= 2·MSS`, every cut but the
//! timeout's leaves `cwnd >= 2·MSS`, growth stops at `4·SND_BUF_CAP`.

use super::{TcbConfig, MSS, SND_BUF_CAP};

/// Initial congestion window, in segments (RFC 6928's IW10).
const INITIAL_CWND_SEGS: usize = 10;

/// One connection's congestion state; the switch and the MSS stay in
/// the [`TcbConfig`], which every event is shown.
#[derive(Debug)]
pub(super) struct NewReno {
    /// Congestion window (bytes).
    cwnd: usize,
    /// Slow-start threshold (bytes).
    ssthresh: usize,
}

impl NewReno {
    pub(super) fn new() -> Self {
        NewReno { cwnd: INITIAL_CWND_SEGS * MSS, ssthresh: SND_BUF_CAP }
    }

    /// The owner's MSS is known (before any data moves).
    pub(super) fn configure(&mut self, cfg: &TcbConfig) {
        // The initial window is denominated in segments (IW10).
        self.cwnd = INITIAL_CWND_SEGS * cfg.mss;
    }

    /// The congestion window in bytes, whether or not it is in force.
    pub(super) fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// What may be in flight against a peer window of `snd_wnd`.
    pub(super) fn window(&self, cfg: &TcbConfig, snd_wnd: usize) -> usize {
        if cfg.congestion_control { snd_wnd.min(self.cwnd) } else { snd_wnd }
    }

    /// Bytes one hole-walk may re-emit.
    pub(super) fn hole_budget(&self, cfg: &TcbConfig, snd_wnd: usize) -> usize {
        if cfg.congestion_control { snd_wnd.min(self.cwnd).max(2 * cfg.mss) } else { usize::MAX }
    }

    /// A loss episode opened short of a timeout, `flight` bytes out:
    /// halve, plus the three segments the evidence says have left.
    pub(super) fn on_loss(&mut self, cfg: &TcbConfig, flight: usize) {
        if cfg.congestion_control {
            self.ssthresh = (flight / 2).max(2 * cfg.mss);
            self.cwnd = self.ssthresh + 3 * cfg.mss;
        }
    }

    /// The timer fired on data: a full loss event — restart slow start.
    pub(super) fn on_rto(&mut self, cfg: &TcbConfig, flight: usize) {
        if cfg.congestion_control {
            self.ssthresh = (flight / 2).max(2 * cfg.mss);
            self.cwnd = cfg.mss;
        }
    }

    /// Each further dup-ACK in the episode means another segment left
    /// the network: inflate.
    pub(super) fn on_dup_ack(&mut self, cfg: &TcbConfig) {
        if cfg.congestion_control {
            self.cwnd += cfg.mss;
        }
    }

    /// The full ACK that ends the episode: deflate to `ssthresh`.
    pub(super) fn on_full_ack(&mut self, cfg: &TcbConfig) {
        if cfg.congestion_control {
            self.cwnd = self.ssthresh.max(2 * cfg.mss);
        }
    }

    /// A partial ACK inside the episode: deflate by the bytes it
    /// covered, plus the segment its retransmission puts back.
    pub(super) fn on_partial_ack(&mut self, cfg: &TcbConfig, acked: usize) {
        if cfg.congestion_control {
            self.cwnd = self.cwnd.saturating_sub(acked).max(2 * cfg.mss) + cfg.mss;
        }
    }

    /// `acked` new bytes were acknowledged outside an episode: grow.
    pub(super) fn on_ack(&mut self, cfg: &TcbConfig, acked: usize) {
        if !cfg.congestion_control {
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per ACK (bounded by bytes
            // actually covered, so stretch ACKs don't over-open).
            self.cwnd += acked.min(cfg.mss);
        } else {
            // Congestion avoidance: ~one MSS per RTT.
            self.cwnd += (cfg.mss * cfg.mss / self.cwnd.max(1)).max(1);
        }
        self.cwnd = self.cwnd.min(4 * SND_BUF_CAP);
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

    fn drive(cc: &mut NewReno, cfg: &TcbConfig, ev: &Ev) {
        match *ev {
            Ev::Ack(n) => cc.on_ack(cfg, n),
            Ev::Acks(n) => (0..n).for_each(|_| cc.on_ack(cfg, cfg.mss)),
            Ev::Loss(f) => cc.on_loss(cfg, f),
            Ev::Rto(f) => cc.on_rto(cfg, f),
            Ev::DupAck => cc.on_dup_ack(cfg),
            Ev::FullAck => cc.on_full_ack(cfg),
            Ev::PartialAck(n) => cc.on_partial_ack(cfg, n),
        }
    }

    proptest! {
        /// On, under any event sequence: `ssthresh` holds its 2·MSS
        /// floor and so does `cwnd` wherever it is cut (a timeout
        /// restarts it from one MSS, growth only adds); growth stops at
        /// 4·`SND_BUF_CAP`, which only episode inflation — one MSS per
        /// duplicate or partial ACK, so bounded by the flight that
        /// produced them — can exceed.
        #[test]
        fn window_keeps_its_floor_and_ceiling(
            mss in 300usize..MSS + 1,
            evs in proptest::collection::vec(arb_ev(), 1..60),
        ) {
            let cfg = TcbConfig { mss, congestion_control: true, ..TcbConfig::default() };
            let mut cc = NewReno::new();
            cc.configure(&cfg);
            prop_assert_eq!(cc.cwnd(), INITIAL_CWND_SEGS * mss);
            let mut inflated = 0;
            for ev in &evs {
                let before = cc.cwnd;
                drive(&mut cc, &cfg, ev);
                match ev {
                    Ev::Ack(_) | Ev::Acks(_) | Ev::DupAck => {
                        prop_assert!(cc.cwnd >= before.min(4 * SND_BUF_CAP))
                    }
                    Ev::Rto(_) => prop_assert_eq!(cc.cwnd, mss),
                    _ => prop_assert!(cc.cwnd >= 2 * mss, "{cc:?} after {ev:?}"),
                }
                let inflating = matches!(ev, Ev::DupAck | Ev::PartialAck(_));
                inflated = if inflating { inflated + mss } else { 0 };
                prop_assert!(cc.ssthresh >= 2 * mss, "{cc:?} after {ev:?}");
                prop_assert!(cc.cwnd <= 4 * SND_BUF_CAP + inflated, "{cc:?} after {ev:?}");
                prop_assert_eq!(cc.window(&cfg, 65_535), cc.cwnd.min(65_535));
                prop_assert!(cc.hole_budget(&cfg, 0) >= 2 * mss);
            }
        }

        /// Off, it bounds nothing and every event leaves it alone:
        /// `cwnd()` keeps reading the initial window, as the parent's
        /// did (the `netstack.tcp.cwnd` gauge and the pacing quantum
        /// read it either way).
        #[test]
        fn disabled_it_bounds_nothing(
            mss in 300usize..MSS + 1,
            evs in proptest::collection::vec(arb_ev(), 1..40),
            wnd in 0usize..65_536,
        ) {
            let cfg = TcbConfig { mss, ..TcbConfig::default() };
            let mut cc = NewReno::new();
            cc.configure(&cfg);
            for ev in &evs {
                drive(&mut cc, &cfg, ev);
                prop_assert_eq!(cc.cwnd(), INITIAL_CWND_SEGS * mss);
                prop_assert_eq!(cc.window(&cfg, wnd), wnd);
                prop_assert_eq!(cc.hole_budget(&cfg, wnd), usize::MAX);
            }
        }
    }
}
