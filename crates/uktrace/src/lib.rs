//! `uktrace`: typed tracepoints writing fixed-size records into
//! per-instance ring buffers stamped by the virtual clock.
//!
//! Unikraft's `uktrace` (behind `CONFIG_LIBUKDEBUG_TRACEPOINTS`) compiles
//! tracepoint call sites into either a store into a static trace buffer
//! or — when the option is off — nothing at all. This crate reproduces
//! that shape:
//!
//! * [`tracepoints!`] declares typed tracepoints as `pub static`s carrying
//!   their name and argument names, so records decode symbolically.
//! * [`trace!`] writes one fixed-size [`TraceEvent`] (timestamp, point,
//!   up to [`MAX_ARGS`] `u64` args) into a [`TraceRing`]. The ring is
//!   preallocated at construction; recording is index arithmetic plus a
//!   few stores — zero allocation, which is why the zero-alloc tier-1
//!   tests pass with tracing **enabled**.
//! * Timestamps come from the platform's virtual clock when one is
//!   attached ([`TraceRing::set_clock`]); otherwise a per-ring sequence
//!   number keeps records ordered. A clocked record holds the raw cycle
//!   count while it sits in the ring — recording is a counter read, no
//!   conversion — and [`TraceRing::drain`] (or the next `set_clock`)
//!   converts it to virtual-clock nanoseconds, so a drained record's
//!   `ts` is always nanoseconds or a sequence number, never cycles.
//! * Building with `--no-default-features` compiles the whole plane out:
//!   [`TraceRing`] becomes a zero-sized type, `trace!` expands to
//!   nothing, and [`COMPILED_IN`] is `false`. `make verify-trace-off`
//!   asserts this.
//!
//! Draining ([`TraceRing::drain`]) returns records oldest-first and is
//! the basis of the trace-order test style: "this scenario fired exactly
//! these tracepoints in this order".

/// Whether tracepoints are compiled in (`tracepoints` feature).
pub const COMPILED_IN: bool = cfg!(feature = "tracepoints");

/// Maximum `u64` arguments a record carries.
pub const MAX_ARGS: usize = 2;

/// A tracepoint definition: declared once as a `pub static` (see
/// [`tracepoints!`]), referenced by every record that fires it.
#[derive(Debug)]
// ukcheck: allow(unused-pub) -- the exported `tracepoints!` macro declares
// statics of it, and the public `TraceEvent::point` refers to one
pub struct Tracepoint {
    /// Symbolic name, e.g. `"tcp_syn_tx"`.
    pub name: &'static str,
    /// Names of the arguments, e.g. `["local_port", "remote_port"]`.
    pub arg_names: &'static [&'static str],
}

/// One fixed-size trace record.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Virtual-clock nanoseconds (or ring sequence number when no clock
    /// is attached).
    pub ts: u64,
    /// The tracepoint that fired.
    pub point: &'static Tracepoint,
    /// Argument values; only the first `argc` are meaningful.
    pub args: [u64; MAX_ARGS],
    /// How many of `args` were recorded.
    pub argc: u8,
}

impl TraceEvent {
    /// The tracepoint's symbolic name.
    pub fn name(&self) -> &'static str {
        self.point.name
    }

    /// Renders `name arg0=v0 arg1=v1` for dumps and assertion messages.
    // ukcheck: allow(alloc) -- cold render path for dumps/assertions;
    // the hot path is `record`, which only writes a fixed-size slot
    pub fn decode(&self) -> String {
        let mut out = String::from(self.point.name);
        for i in 0..self.argc as usize {
            let arg = self.point.arg_names.get(i).copied().unwrap_or("arg");
            out.push_str(&format!(" {}={}", arg, self.args[i]));
        }
        out
    }
}

/// Declares typed tracepoints as `pub static`s.
///
/// ```
/// pub mod tp {
///     uktrace::tracepoints! {
///         tcp_rto_fired(tcb_id, seq),
///         pump_idle(),
///     }
/// }
/// assert_eq!(tp::tcp_rto_fired.name, "tcp_rto_fired");
/// ```
#[macro_export]
macro_rules! tracepoints {
    ($( $name:ident ( $($arg:ident),* $(,)? ) ),* $(,)?) => {
        $(
            // dead_code: with tracepoints compiled out every `trace!`
            // reference to the static vanishes with the call site.
            #[allow(non_upper_case_globals, dead_code)]
            pub static $name: $crate::Tracepoint = $crate::Tracepoint {
                name: stringify!($name),
                arg_names: &[ $( stringify!($arg) ),* ],
            };
        )*
    };
}

/// Fires a tracepoint into a ring: `trace!(ring, tp::tcp_rto_fired, tcb,
/// seq)`. With tracepoints compiled out this expands to nothing at all.
#[cfg(feature = "tracepoints")]
#[macro_export]
macro_rules! trace {
    ($ring:expr, $tp:expr) => {
        $ring.record(&$tp, &[])
    };
    ($ring:expr, $tp:expr, $a:expr) => {
        $ring.record(&$tp, &[$a as u64])
    };
    ($ring:expr, $tp:expr, $a:expr, $b:expr) => {
        $ring.record(&$tp, &[$a as u64, $b as u64])
    };
}

/// Fires a tracepoint into a ring — compiled out: expands to nothing.
#[cfg(not(feature = "tracepoints"))]
#[macro_export]
macro_rules! trace {
    ($($t:tt)*) => {};
}

#[cfg(feature = "tracepoints")]
mod imp {
    use super::{TraceEvent, Tracepoint, MAX_ARGS};
    use ukplat::time::Tsc;

    static NULL_POINT: Tracepoint = Tracepoint {
        name: "",
        arg_names: &[],
    };

    /// A per-instance ring of fixed-size trace records. Preallocated at
    /// construction; recording never allocates. When full, the oldest
    /// record is overwritten and counted in [`dropped`](Self::dropped).
    #[derive(Debug)]
    pub struct TraceRing {
        buf: Box<[TraceEvent]>,
        /// Next write position.
        head: usize,
        /// Live records (≤ capacity).
        len: usize,
        /// Records ever written: the stamp when no clock is attached.
        seq: u64,
        /// Records overwritten because the ring was full.
        dropped: u64,
        /// The clock records are stamped with, in cycles.
        clock: Option<Tsc>,
        /// `seq` when `clock` was attached: records numbered from here
        /// on hold cycles until [`settle`](Self::settle) converts them.
        clock_from: u64,
    }

    impl TraceRing {
        /// Creates a ring holding `capacity` records (min 1).
        // ukcheck: allow(alloc) -- the ring is pre-allocated once here;
        // `record` writes into it without ever growing it
        pub fn new(capacity: usize) -> Self {
            let capacity = capacity.max(1);
            TraceRing {
                buf: vec![
                    TraceEvent {
                        ts: 0,
                        point: &NULL_POINT,
                        args: [0; MAX_ARGS],
                        argc: 0,
                    };
                    capacity
                ]
                .into_boxed_slice(),
                head: 0,
                len: 0,
                seq: 0,
                dropped: 0,
                clock: None,
                clock_from: 0,
            }
        }

        /// Stamps subsequent records with the platform's virtual clock,
        /// after converting the records a replaced clock stamped at that
        /// clock's own frequency.
        pub fn set_clock(&mut self, tsc: &Tsc) {
            self.settle();
            self.clock = Some(tsc.clone());
        }

        /// Converts the live records the attached clock stamped from
        /// cycles to nanoseconds, newest back.
        fn settle(&mut self) {
            if let Some(clock) = &self.clock {
                let cap = self.buf.len();
                let raw = (self.seq - self.clock_from).min(self.len as u64) as usize;
                for k in 1..=raw {
                    let rec = &mut self.buf[(self.head + cap - k) % cap];
                    rec.ts = clock.cycles_to_ns(rec.ts);
                }
            }
            self.clock_from = self.seq;
        }

        /// Writes one record. Fixed-size stores into the preallocated
        /// ring — the hot-path cost tracing adds: no conversion, no
        /// divide.
        #[inline]
        pub fn record(&mut self, point: &'static Tracepoint, args: &[u64]) {
            let ts = match &self.clock {
                Some(c) => c.now_cycles(),
                None => self.seq,
            };
            self.seq += 1;
            let mut rec = TraceEvent {
                ts,
                point,
                args: [0; MAX_ARGS],
                argc: args.len().min(MAX_ARGS) as u8,
            };
            rec.args[..rec.argc as usize].copy_from_slice(&args[..rec.argc as usize]);
            if self.len == self.buf.len() {
                self.dropped += 1;
            } else {
                self.len += 1;
            }
            self.buf[self.head] = rec;
            self.head += 1;
            if self.head == self.buf.len() {
                self.head = 0;
            }
        }

        /// Removes and returns all buffered records, oldest first, each
        /// stamped in virtual-clock nanoseconds (or its sequence number,
        /// if no clock was attached when it was written).
        // ukcheck: allow(alloc) -- cold export path: tests and dumps
        // drain the ring outside any measured window
        pub fn drain(&mut self) -> Vec<TraceEvent> {
            self.settle();
            let cap = self.buf.len();
            let start = (self.head + cap - self.len) % cap;
            let out = (0..self.len).map(|i| self.buf[(start + i) % cap]).collect();
            self.len = 0;
            self.head = 0;
            out
        }

        /// Buffered record count.
        pub fn len(&self) -> usize {
            self.len
        }

        /// Whether the ring holds no records.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Ring capacity in records.
        pub fn capacity(&self) -> usize {
            self.buf.len()
        }

        /// Records overwritten because the ring was full.
        pub fn dropped(&self) -> u64 {
            self.dropped
        }
    }
}

#[cfg(not(feature = "tracepoints"))]
mod imp {
    use super::{TraceEvent, Tracepoint};
    use ukplat::time::Tsc;

    /// Zero-sized no-op ring: tracepoints are compiled out.
    #[derive(Debug)]
    pub struct TraceRing;

    impl TraceRing {
        pub fn new(_capacity: usize) -> Self {
            TraceRing
        }
        pub fn set_clock(&mut self, _tsc: &Tsc) {}
        #[inline(always)]
        pub fn record(&mut self, _point: &'static Tracepoint, _args: &[u64]) {}
        /// `Vec::new` does not allocate: drain stays allocation-free too.
        // ukcheck: allow(alloc) -- an empty Vec::new performs no heap
        // allocation; this is the compiled-out no-op ring
        pub fn drain(&mut self) -> Vec<TraceEvent> {
            Vec::new()
        }
        pub fn len(&self) -> usize {
            0
        }
        pub fn is_empty(&self) -> bool {
            true
        }
        pub fn capacity(&self) -> usize {
            0
        }
        pub fn dropped(&self) -> u64 {
            0
        }
    }
}

pub use imp::TraceRing;

#[cfg(test)]
mod tests {
    use super::*;

    mod tp {
        crate::tracepoints! {
            unit_fired(value),
            unit_pair(a, b),
            unit_bare(),
        }
    }

    #[test]
    fn compiled_out_ring_is_zero_sized() {
        if !COMPILED_IN {
            assert_eq!(std::mem::size_of::<TraceRing>(), 0);
            let mut r = TraceRing::new(64);
            trace!(r, tp::unit_fired, 1u64);
            assert!(r.drain().is_empty());
        }
    }

    #[test]
    fn tracepoint_metadata_decodes() {
        assert_eq!(tp::unit_pair.name, "unit_pair");
        assert_eq!(tp::unit_pair.arg_names, ["a", "b"]);
    }

    #[cfg(feature = "tracepoints")]
    mod live {
        use super::tp;
        use crate::TraceRing;

        #[test]
        fn records_drain_oldest_first() {
            let mut r = TraceRing::new(8);
            crate::trace!(r, tp::unit_fired, 10u64);
            crate::trace!(r, tp::unit_pair, 1u64, 2u64);
            crate::trace!(r, tp::unit_bare);
            let ev = r.drain();
            assert_eq!(
                ev.iter().map(|e| e.name()).collect::<Vec<_>>(),
                ["unit_fired", "unit_pair", "unit_bare"]
            );
            assert_eq!(ev[0].decode(), "unit_fired value=10");
            assert_eq!(ev[1].decode(), "unit_pair a=1 b=2");
            assert_eq!(ev[2].decode(), "unit_bare");
            assert!(r.is_empty());
        }

        #[test]
        fn sequence_stamps_are_monotonic_without_a_clock() {
            let mut r = TraceRing::new(8);
            for i in 0..5u64 {
                crate::trace!(r, tp::unit_fired, i);
            }
            let ts: Vec<u64> = r.drain().iter().map(|e| e.ts).collect();
            assert_eq!(ts, [0, 1, 2, 3, 4]);
        }

        #[test]
        fn virtual_clock_stamps_records() {
            let tsc = ukplat::time::Tsc::new(1_000_000_000);
            let mut r = TraceRing::new(8);
            r.set_clock(&tsc);
            crate::trace!(r, tp::unit_bare);
            tsc.advance_ns(250);
            crate::trace!(r, tp::unit_bare);
            let ev = r.drain();
            assert_eq!(ev[0].ts, 0);
            assert_eq!(ev[1].ts, 250);
        }

        #[test]
        fn a_small_ring_wraps_and_drains_its_cycle_stamps_in_ns() {
            let tsc = ukplat::time::Tsc::new(3_600_000_000);
            let mut r = TraceRing::new(3);
            r.set_clock(&tsc);
            for round in 0..2u64 {
                let mut stamps = Vec::new();
                for i in 0..7u64 {
                    tsc.advance(1_234_567 * (i + 1)); // Not a whole ns.
                    stamps.push(tsc.now_cycles());
                    crate::trace!(r, tp::unit_fired, i);
                }
                assert_eq!(r.dropped(), 4 * (round + 1));
                let ev = r.drain();
                assert_eq!(ev.iter().map(|e| e.args[0]).collect::<Vec<_>>(), [4, 5, 6]);
                let want: Vec<u64> = stamps[4..].iter().map(|&c| tsc.cycles_to_ns(c)).collect();
                assert_eq!(ev.iter().map(|e| e.ts).collect::<Vec<_>>(), want);
                assert!(r.is_empty());
            }
        }

        #[test]
        fn each_record_converts_at_the_clock_that_stamped_it() {
            let (a, b) = (ukplat::time::Tsc::new(1_000), ukplat::time::Tsc::new(3_600_000_000));
            a.advance(7); // 7 ms.
            b.advance(36_000); // 10 us.
            let mut r = TraceRing::new(8);
            crate::trace!(r, tp::unit_bare);
            r.set_clock(&a);
            crate::trace!(r, tp::unit_bare);
            r.set_clock(&b);
            crate::trace!(r, tp::unit_bare);
            let ts: Vec<u64> = r.drain().iter().map(|e| e.ts).collect();
            assert_eq!(ts, [0, 7_000_000, 10_000]);
        }

        #[test]
        fn full_ring_overwrites_oldest_and_counts_drops() {
            let mut r = TraceRing::new(2);
            crate::trace!(r, tp::unit_fired, 1u64);
            crate::trace!(r, tp::unit_fired, 2u64);
            crate::trace!(r, tp::unit_fired, 3u64);
            assert_eq!(r.dropped(), 1);
            let vals: Vec<u64> = r.drain().iter().map(|e| e.args[0]).collect();
            assert_eq!(vals, [2, 3]);
        }
    }
}
