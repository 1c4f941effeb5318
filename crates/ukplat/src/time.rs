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
}

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

    /// Converts a cycle count to nanoseconds at this counter's frequency.
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        // Split to avoid overflow for large cycle counts.
        let secs = cycles / self.freq_hz;
        let rem = cycles % self.freq_hz;
        secs * 1_000_000_000 + rem * 1_000_000_000 / self.freq_hz
    }

    /// Converts nanoseconds to cycles at this counter's frequency.
    pub fn ns_to_cycles(&self, ns: u64) -> u64 {
        let secs = ns / 1_000_000_000;
        let rem = ns % 1_000_000_000;
        secs * self.freq_hz + rem * self.freq_hz / 1_000_000_000
    }

    /// The counter frequency in Hz.
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
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
    pub fn real_ns(&self) -> u64 {
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

/// Monotonic clock exposed to guests (`clock_gettime` backing).
///
/// Reads cost one TSC sample; under para-virtual clocks (kvm-clock,
/// Xen shared info page) no trap is required, which is why reads are cheap.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    tsc: Tsc,
}

impl MonotonicClock {
    /// Creates a clock over the platform TSC.
    pub fn new(tsc: &Tsc) -> Self {
        MonotonicClock { tsc: tsc.clone() }
    }

    /// Current monotonic time in nanoseconds (virtual).
    pub fn now_ns(&self) -> u64 {
        self.tsc.cycles_to_ns(self.tsc.now_cycles())
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

    #[test]
    fn stopwatch_tracks_virtual_time() {
        let tsc = Tsc::new(1_000_000_000);
        let sw = Stopwatch::start(&tsc);
        tsc.advance(500);
        assert_eq!(sw.virtual_ns(), 500);
        assert!(sw.elapsed_ns() >= 500);
    }

    #[test]
    fn monotonic_clock_follows_tsc() {
        let tsc = Tsc::new(1_000_000_000);
        let clk = MonotonicClock::new(&tsc);
        assert_eq!(clk.now_ns(), 0);
        tsc.advance_ns(42);
        assert_eq!(clk.now_ns(), 42);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        let _ = Tsc::new(0);
    }
}
