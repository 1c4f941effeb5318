//! The reference kernel: how fast is the host running *right now*?
//!
//! The box this benchmark runs on changes speed under it — the same
//! binary runs 20–40 % faster or slower for seconds to minutes at a
//! time, with nothing of this process descheduled (neighbours on the
//! sibling hardware thread, clock steps). Two medians of wall-clock
//! rates taken minutes apart therefore differ by more than any change
//! worth catching. So every timed repetition and every set-up is
//! bracketed by one run of this kernel — a fixed amount of the
//! benchmark's **own** work that calls nothing in the program under
//! test — and wall-clock results are scaled by how long the kernel took
//! next to them relative to [`NOMINAL_NS`]. What is reported is the
//! rate the program would show on a host running steadily at the
//! nominal speed.
//!
//! The work is a miniature of a datapath's instruction mix: copy a
//! cache-resident buffer and sum it in 8-byte words (the copy/checksum
//! half), then walk it byte by byte through a small branching state
//! machine (the header-parsing half). On recorded series of all six
//! workloads this mix tracked the workloads' own slow-downs best among
//! the kernels tried (dependent ALU chain, L2 and L3 pointer chases,
//! large copies); it cut the spread between 20 s medians about
//! threefold. It cannot follow a workload exactly — code that misses
//! cache more than this does slows more when a neighbour is noisy — so
//! what is left is still the widest part of `ops_per_s`'s bound.

use std::hint::black_box;
use std::time::Instant;

/// What one [`RefKernel::run`] takes on the reference box in its usual
/// state. Frozen with the workload sizes: changing it rescales every
/// `ops_per_s` and `setup_s`.
pub const NOMINAL_NS: f64 = 2_350_000.0;

const BUF_BYTES: usize = 64 * 1024;
const COPY_ROUNDS: usize = 400;
const PARSE_ROUNDS: u8 = 32;

#[derive(Debug)]
pub struct RefKernel {
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefKernel {
    pub fn new() -> RefKernel {
        RefKernel {
            src: vec![1; BUF_BYTES],
            dst: vec![0; BUF_BYTES],
        }
    }

    /// Does the fixed work once and returns the nanoseconds it took.
    pub fn run(&mut self) -> u64 {
        let t = Instant::now();
        let mut sum = 0u64;
        for round in 0..COPY_ROUNDS {
            self.dst.copy_from_slice(&self.src);
            // Keep the copy from being hoisted: the source changes.
            self.src[round] = self.src[round].wrapping_add(1);
            for word in self.dst.chunks_exact(8) {
                sum = sum.wrapping_add(u64::from_le_bytes(
                    word.try_into().expect("chunks_exact(8) yields 8 bytes"),
                ));
            }
        }
        let (mut state, mut matches) = (0u8, 0u32);
        for round in 0..PARSE_ROUNDS {
            for &byte in &self.dst {
                state = match (state, (byte ^ round) & 7) {
                    (0, 0..=2) => 1,
                    (1, 3) => 2,
                    (1, 0) => 1,
                    (2, 5..=7) => {
                        matches += 1;
                        0
                    }
                    (2, _) => 1,
                    _ => 0,
                };
            }
        }
        black_box((sum, state, matches));
        // The source goes back to what `new` made it, so every run
        // does bit-identical work.
        self.src[..COPY_ROUNDS].fill(1);
        t.elapsed().as_nanos() as u64
    }
}

/// Host speed relative to nominal from the kernel runs before and
/// after a piece of timed work (1.0 = nominal, below 1 = slower).
pub fn host_speed(before_ns: u64, after_ns: u64) -> f64 {
    2.0 * NOMINAL_NS / (before_ns + after_ns).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_repeats_its_work_and_speed_is_relative_to_nominal() {
        let mut k = RefKernel::new();
        assert!(k.run() > 0);
        assert!(k.src.iter().all(|&b| b == 1), "source restored");
        let first = k.dst.clone();
        k.run();
        assert_eq!(first, k.dst, "second run copied the same bytes");
        let n = NOMINAL_NS as u64;
        assert!((host_speed(n, n) - 1.0).abs() < 1e-9);
        assert!((host_speed(2 * n, 2 * n) - 0.5).abs() < 1e-9);
    }
}
