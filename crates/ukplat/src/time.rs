//! Virtual time-stamp counter and clock utilities.
//!
//! Guest-side computation in this reproduction is real Rust code measured
//! with [`std::time::Instant`]; host-side effects (traps, DMA, VMM work)
//! cannot be physically incurred, so they are *charged* to a shared virtual
//! TSC. Experiments that mix both report them separately (see
//! `EXPERIMENTS.md`).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// A shareable virtual time-stamp counter.
///
/// Cloning a [`Tsc`] yields a handle onto the same counter, mirroring how
/// every device on a platform reads the same hardware TSC.
///
/// # Examples
///
/// ```
/// use ukplat::time::Tsc;
///
/// let tsc = Tsc::new(3_600_000_000);
/// let h = tsc.clone();
/// tsc.advance(3_600); // 3600 cycles at 3.6 GHz = 1 us
/// assert_eq!(h.now_cycles(), 3_600);
/// assert_eq!(h.cycles_to_ns(h.now_cycles()), 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Tsc {
    cycles: Rc<Cell<u64>>,
    freq_hz: u64,
    /// ⌈10⁹ · 2⁶⁴ / `freq_hz`⌉: nanoseconds per cycle in 64.64 fixed
    /// point, rounded up, so [`cycles_to_ns`](Self::cycles_to_ns)
    /// multiplies where it would divide by the frequency.
    ns_per_cycle: u128,
}

const NS_PER_SEC: u64 = 1_000_000_000;

/// A counter at zero, ticking at the platform's nominal frequency
/// ([`crate::cost::CPU_FREQ_HZ`]).
impl Default for Tsc {
    fn default() -> Self {
        Tsc::new(crate::cost::CPU_FREQ_HZ)
    }
}

impl Tsc {
    /// Creates a counter ticking at `freq_hz` cycles per second.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is zero.
    pub fn new(freq_hz: u64) -> Self {
        assert!(freq_hz > 0, "TSC frequency must be non-zero");
        Tsc {
            cycles: Rc::new(Cell::new(0)),
            freq_hz,
            ns_per_cycle: (u128::from(NS_PER_SEC) << 64).div_ceil(u128::from(freq_hz)),
        }
    }

    /// Current virtual cycle count.
    pub fn now_cycles(&self) -> u64 {
        self.cycles.get()
    }

    /// Advances the counter by `cycles`.
    pub fn advance(&self, cycles: u64) {
        self.cycles.set(self.cycles.get().saturating_add(cycles));
    }

    /// Advances the counter by `ns` nanoseconds worth of cycles.
    pub fn advance_ns(&self, ns: u64) {
        self.advance(self.ns_to_cycles(ns));
    }

    /// Converts a cycle count to nanoseconds at this counter's
    /// frequency: ⌊`cycles` · 10⁹ / `freq_hz`⌋, saturating at
    /// `u64::MAX`.
    ///
    /// No divide: `cycles` times the reciprocal that [`Tsc::new`] rounded
    /// up overshoots the exact quotient by `cycles` · (rounding) / 2⁶⁴ < 1,
    /// so the high half of the product is the quotient or one more, and
    /// one multiply-compare tells which (the fixed-point form of Lemire,
    /// Kaser & Kurz, "Faster Remainder by Direct Computation", 2019).
    /// Exact for every frequency and every input.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        let c = u128::from(cycles);
        let r = self.ns_per_cycle;
        let est = c * (r >> 64) + ((c * (r as u64 as u128)) >> 64);
        match u64::try_from(est) {
            Ok(q) => {
                let over = u128::from(q) * u128::from(self.freq_hz) > c * u128::from(NS_PER_SEC);
                q - u64::from(over)
            }
            // The quotient is at least `est - 1 >= u64::MAX`.
            Err(_) => u64::MAX,
        }
    }

    /// Converts nanoseconds to cycles at this counter's frequency:
    /// ⌊`ns` · `freq_hz` / 10⁹⌋, saturating at `u64::MAX`.
    #[inline]
    pub fn ns_to_cycles(&self, ns: u64) -> u64 {
        let (secs, rem) = (ns / NS_PER_SEC, ns % NS_PER_SEC);
        let f = self.freq_hz;
        // ⌊rem · f / 10⁹⌋ with no product past 64 bits: rem < 10⁹ and
        // f / 10⁹ < 1.85 · 10¹⁰.
        let part = rem * (f / NS_PER_SEC) + rem * (f % NS_PER_SEC) / NS_PER_SEC;
        secs.saturating_mul(f).saturating_add(part)
    }

    /// Resets the counter to zero. Used between benchmark iterations.
    pub fn reset(&self) {
        self.cycles.set(0);
    }
}

/// A stopwatch combining real wall-clock time with virtual TSC time.
///
/// `elapsed_ns` reports the *sum*: real guest computation plus charged
/// host-side costs. This is the quantity every figure harness reports.
#[derive(Debug)]
pub struct Stopwatch {
    start_real: Instant,
    start_virtual: u64,
    tsc: Tsc,
}

impl Stopwatch {
    /// Starts timing against the given virtual counter.
    pub fn start(tsc: &Tsc) -> Self {
        Stopwatch {
            start_real: Instant::now(),
            start_virtual: tsc.now_cycles(),
            tsc: tsc.clone(),
        }
    }

    /// Nanoseconds of real wall-clock time since start.
    pub(crate) fn real_ns(&self) -> u64 {
        self.start_real.elapsed().as_nanos() as u64
    }

    /// Nanoseconds of virtual (charged) time since start.
    pub fn virtual_ns(&self) -> u64 {
        self.tsc
            .cycles_to_ns(self.tsc.now_cycles() - self.start_virtual)
    }

    /// Combined real + virtual nanoseconds since start.
    pub fn elapsed_ns(&self) -> u64 {
        self.real_ns() + self.virtual_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsc_advance_and_read() {
        let tsc = Tsc::new(1_000_000_000);
        assert_eq!(tsc.now_cycles(), 0);
        tsc.advance(123);
        assert_eq!(tsc.now_cycles(), 123);
    }

    #[test]
    fn tsc_clone_shares_counter() {
        let a = Tsc::new(1_000_000_000);
        let b = a.clone();
        a.advance(10);
        b.advance(5);
        assert_eq!(a.now_cycles(), 15);
        assert_eq!(b.now_cycles(), 15);
    }

    #[test]
    fn cycle_ns_roundtrip_at_1ghz() {
        let tsc = Tsc::new(1_000_000_000);
        assert_eq!(tsc.cycles_to_ns(1_000), 1_000);
        assert_eq!(tsc.ns_to_cycles(1_000), 1_000);
    }

    #[test]
    fn cycle_ns_conversion_at_3_6ghz() {
        let tsc = Tsc::new(3_600_000_000);
        // 3600 cycles at 3.6 GHz is exactly 1000 ns.
        assert_eq!(tsc.cycles_to_ns(3_600), 1_000);
        assert_eq!(tsc.ns_to_cycles(1_000), 3_600);
    }

    #[test]
    fn conversion_no_overflow_for_large_values() {
        let tsc = Tsc::new(3_600_000_000);
        // One hour of cycles must not overflow.
        let hour_cycles = 3_600_000_000u64 * 3_600;
        let ns = tsc.cycles_to_ns(hour_cycles);
        assert_eq!(ns, 3_600 * 1_000_000_000);
    }

    #[test]
    fn advance_saturates() {
        let tsc = Tsc::new(1_000);
        tsc.advance(u64::MAX);
        tsc.advance(10);
        assert_eq!(tsc.now_cycles(), u64::MAX);
    }

    /// ⌊x · num / den⌋, saturated: what both conversions must return.
    fn exact(x: u64, num: u64, den: u64) -> u64 {
        let q = u128::from(x) * u128::from(num) / u128::from(den);
        u64::try_from(q).unwrap_or(u64::MAX)
    }

    #[test]
    fn conversions_saturate_at_u64_max() {
        for (freq, to_ns, to_cycles) in [
            (1_000, u64::MAX, 18_446_744_073_709),
            (1_000_000_000, u64::MAX, u64::MAX),
            (3_600_000_000, 5_124_095_576_030_431_004, u64::MAX),
        ] {
            let tsc = Tsc::new(freq);
            assert_eq!(tsc.cycles_to_ns(u64::MAX), to_ns, "{freq} Hz");
            assert_eq!(tsc.ns_to_cycles(u64::MAX), to_cycles, "{freq} Hz");
            tsc.advance_ns(u64::MAX);
            assert_eq!(tsc.now_cycles(), to_cycles, "{freq} Hz");
            tsc.advance_ns(u64::MAX);
            assert_eq!(tsc.now_cycles(), to_cycles.saturating_mul(2), "{freq} Hz");
        }
    }

    /// The reciprocal against the divide it replaces, both ways, at the
    /// edges of each frequency's quotient and over random inputs.
    #[test]
    fn reciprocal_conversion_matches_division() {
        const PRIME: u64 = 18_446_744_073_709_551_557; // The largest below 2⁶⁴.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for d in [2, 3, 1_000_000_000, 3_600_000_000, PRIME, 1 << 40, u64::MAX] {
            let tsc = Tsc::new(d);
            let mut inputs = vec![0, 1, d - 1, d, 2 * (d / 2), 7 * (d / 7), u64::MAX];
            inputs.extend([d.saturating_mul(2), d.saturating_mul(1_000), (u64::MAX / d) * d]);
            inputs.extend((0..2_000).map(|i| next() >> (i % 64)));
            for x in inputs {
                assert_eq!(tsc.cycles_to_ns(x), exact(x, NS_PER_SEC, d), "{x} cycles at {d} Hz");
                assert_eq!(tsc.ns_to_cycles(x), exact(x, d, NS_PER_SEC), "{x} ns at {d} Hz");
            }
        }
    }

    #[test]
    fn stopwatch_tracks_virtual_time() {
        let tsc = Tsc::new(1_000_000_000);
        let sw = Stopwatch::start(&tsc);
        tsc.advance(500);
        assert_eq!(sw.virtual_ns(), 500);
        assert!(sw.elapsed_ns() >= 500);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        let _ = Tsc::new(0);
    }
}
