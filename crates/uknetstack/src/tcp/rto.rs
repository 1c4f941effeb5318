//! RTO timers on the virtual clock (RFC 6298): SRTT/RTTVAR estimation
//! with Karn's rule (samples are invalidated by any retransmission),
//! exponential backoff undone by forward progress, 200 ms floor / 60 s
//! ceiling — [`Rto::timeout_ns`] never leaves it — and the tail-loss
//! probe's PTO. What a fire *does* is `recovery`'s `on_rto`.

use super::seq_le;

/// Initial retransmission timeout before the first RTT sample
/// (RFC 6298 §2 says 1 s; we keep it).
const RTO_INITIAL_NS: u64 = 1_000_000_000;
/// RTO floor: the in-process wire's RTT is far below real-network
/// granularity, so the classic 1 s floor would dominate every test —
/// 200 ms keeps backoff doubling observable while staying well above
/// any virtual-clock RTT.
const RTO_MIN_NS: u64 = 200_000_000;
/// RTO ceiling (RFC 6298 §2.4 allows 60 s).
const RTO_MAX_NS: u64 = 60_000_000_000;
/// Tail-loss-probe floor (the PTO is `2 * srtt` once an RTT sample
/// exists; before that, half the initial RTO).
const TLP_MIN_NS: u64 = 2_000_000;

/// One connection's estimator.
#[derive(Debug)]
pub(super) struct Rto {
    /// Smoothed RTT (RFC 6298); 0 until the first sample.
    srtt_ns: u64,
    /// RTT variance (RFC 6298).
    rttvar_ns: u64,
    /// Current retransmission timeout (includes backoff).
    rto_ns: u64,
    /// Consecutive RTO fires without forward progress (backoff level).
    backoff: u32,
    /// In-flight RTT measurement: when the flight being timed left
    /// (Karn's rule clears it on any retransmission) and the sequence
    /// number whose ACK completes it. Two fields, not one tuple: the
    /// `Tcb` stays inside `stack/conns.rs`'s slot-size budget.
    rtt_probe: Option<u64>,
    rtt_probe_end: u32,
}

impl Rto {
    pub(super) fn new() -> Self {
        Rto { srtt_ns: 0, rttvar_ns: 0, rto_ns: RTO_INITIAL_NS, backoff: 0, rtt_probe: None, rtt_probe_end: 0 }
    }

    /// The current timeout, back-off included.
    pub(super) fn timeout_ns(&self) -> u64 {
        self.rto_ns
    }

    /// The smoothed RTT; 0 until the first sample.
    pub(super) fn srtt(&self) -> u64 {
        self.srtt_ns
    }

    /// Whether a timeout has fired since the last forward progress.
    pub(super) fn backed_off(&self) -> bool {
        self.backoff > 0
    }

    /// The tail-loss probe's timeout.
    pub(super) fn pto_ns(&self) -> u64 {
        let pto = if self.srtt_ns > 0 { 2 * self.srtt_ns } else { RTO_INITIAL_NS / 2 };
        pto.max(TLP_MIN_NS)
    }

    /// New data up to `end_seq` left at `now_ns`: time this flight,
    /// unless one is being timed or the timer is backed off.
    pub(super) fn probe(&mut self, end_seq: u32, now_ns: u64) {
        if self.rtt_probe.is_none() && self.backoff == 0 {
            self.rtt_probe = Some(now_ns);
            self.rtt_probe_end = end_seq;
        }
    }

    /// Karn: an RTT sample over a retransmission would lie.
    pub(super) fn void_probe(&mut self) {
        self.rtt_probe = None;
    }

    /// The cumulative ACK advanced to `ack` at `now_ns`: forward
    /// progress, and the RTT sample if the timed flight is covered.
    pub(super) fn on_ack(&mut self, ack: u32, now_ns: u64) {
        self.on_progress();
        if let Some(sent_at) = self.rtt_probe {
            if seq_le(self.rtt_probe_end, ack) {
                self.rtt_sample(now_ns.saturating_sub(sent_at));
                self.rtt_probe = None;
            }
        }
    }

    /// Forward progress (new data acknowledged, or a D-SACK showing the
    /// timeout was spurious) undoes the back-off.
    pub(super) fn on_progress(&mut self) {
        if self.backoff > 0 {
            self.backoff = 0;
            self.rto_ns = self.computed_rto();
        }
    }

    /// The timer fired: back off.
    pub(super) fn on_timeout(&mut self) {
        self.backoff = self.backoff.saturating_add(1);
        self.rto_ns = (self.rto_ns * 2).min(RTO_MAX_NS);
        self.rtt_probe = None; // Karn: samples over retransmits lie.
    }

    /// Feeds an RTT measurement into the RFC 6298 estimator.
    fn rtt_sample(&mut self, sample_ns: u64) {
        if self.srtt_ns == 0 {
            self.srtt_ns = sample_ns.max(1);
            self.rttvar_ns = sample_ns / 2;
        } else {
            let diff = self.srtt_ns.abs_diff(sample_ns);
            self.rttvar_ns = (3 * self.rttvar_ns + diff) / 4;
            self.srtt_ns = (7 * self.srtt_ns + sample_ns) / 8;
        }
        self.rto_ns = self.computed_rto();
    }

    /// The un-backed-off RTO from the current estimator state.
    fn computed_rto(&self) -> u64 {
        if self.srtt_ns == 0 {
            RTO_INITIAL_NS
        } else {
            (self.srtt_ns + (4 * self.rttvar_ns).max(1)).clamp(RTO_MIN_NS, RTO_MAX_NS)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// Send `len` new bytes, `wait` ns after the last event.
        Send(u32, u64),
        /// Acknowledge `len` more bytes, `wait` ns later.
        Ack(u32, u64),
        Timeout,
        Retransmit,
        Progress,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let wait = 0u64..200_000_000_000;
        prop_oneof![
            (1u32..100_000, wait.clone()).prop_map(|(l, w)| Op::Send(l, w)),
            (1u32..100_000, wait).prop_map(|(l, w)| Op::Ack(l, w)),
            Just(Op::Timeout),
            Just(Op::Retransmit),
            Just(Op::Progress),
        ]
    }

    proptest! {
        /// Whatever is sampled, however often the timer fires: the
        /// timeout stays inside its clamp, a timeout never shortens it
        /// and forward progress never leaves it backed off.
        #[test]
        fn timeout_stays_inside_its_clamp(
            iss in prop_oneof![Just(7u32), Just(u32::MAX - 1000)],
            ops in proptest::collection::vec(arb_op(), 1..60),
        ) {
            let mut rto = Rto::new();
            let (mut nxt, mut una, mut now) = (iss, iss, 0u64);
            for op in ops {
                let before = rto.timeout_ns();
                match op {
                    Op::Send(len, wait) => {
                        now += wait;
                        nxt = nxt.wrapping_add(len);
                        rto.probe(nxt, now);
                    }
                    Op::Ack(len, wait) => {
                        now += wait;
                        una = una.wrapping_add(len.min(nxt.wrapping_sub(una)));
                        rto.on_ack(una, now);
                        prop_assert!(!rto.backed_off());
                    }
                    Op::Timeout => {
                        rto.on_timeout();
                        prop_assert!(rto.backed_off() && rto.timeout_ns() >= before);
                    }
                    Op::Retransmit => rto.void_probe(),
                    Op::Progress => {
                        rto.on_progress();
                        prop_assert!(!rto.backed_off());
                    }
                }
                prop_assert!((RTO_MIN_NS..=RTO_MAX_NS).contains(&rto.timeout_ns()), "{rto:?}");
                prop_assert!(rto.pto_ns() >= TLP_MIN_NS);
            }
        }
    }

    /// Karn's rule: a flight that was retransmitted — by hand or by a
    /// timeout — is not a sample when its ACK comes, and nothing new is
    /// timed while the timer is backed off.
    #[test]
    fn a_probe_taken_across_a_retransmission_yields_no_sample() {
        for timeout in [false, true] {
            let mut rto = Rto::new();
            rto.probe(1000, 0);
            if timeout {
                rto.on_timeout();
                rto.probe(1000, 5); // Refused: backed off.
            } else {
                rto.void_probe();
            }
            rto.on_ack(1000, 50_000_000);
            assert_eq!(rto.srtt(), 0, "timeout: {timeout}");
            assert_eq!(rto.timeout_ns(), RTO_INITIAL_NS, "timeout: {timeout}");
        }
        // The control: the same flight, not retransmitted, is a sample.
        let mut rto = Rto::new();
        rto.probe(1000, 0);
        rto.on_ack(1000, 50_000_000);
        assert_eq!(rto.srtt(), 50_000_000);
        assert_eq!(rto.timeout_ns(), RTO_MIN_NS);
    }
}
