//! The wire's fault schedule: one value, [`FaultPlan`], and the part
//! that applies it, `Faults`, which alone holds the schedule's state.

use std::collections::VecDeque;

use uknetdev::netbuf::Netbuf;

use crate::stack::NetStack;

/// What the wire does wrong, and how often. Each cadence counts plain
/// frames (a chained big-receive frame never crosses a real cable as
/// one frame, so it is exempt), and `0` means never: the default plan
/// is the ideal cable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Discard every n-th frame (TCP recovers it; a datagram is lost).
    pub drop: u64,
    /// Deliver every n-th frame twice, back to back.
    pub dup: u64,
    /// Swap every n-th frame with the one staged before it for the
    /// same destination.
    pub reorder: u64,
    /// Flip a bit in every n-th IPv4 frame and clear its
    /// device-verified mark, so the receiver's checksum pass drops it.
    pub corrupt: u64,
    /// `(every, len)`: discard `len` consecutive frames from every
    /// `every`-th on — tail loss that forces the RTO path.
    pub burst: (u64, u64),
    /// `(delay, per_step)`: each frame stays in flight `delay` steps,
    /// and at most `per_step` frames leave per step (`0`: no cap).
    pub pipe: (u64, usize),
}

/// The wire-side drop counter, one slot however many wires exist.
fn drops_counter() -> ukstats::Counter {
    static C: std::sync::OnceLock<ukstats::Counter> = std::sync::OnceLock::new();
    *C.get_or_init(|| ukstats::Counter::register("testnet.drops_injected"))
}

/// A [`FaultPlan`] and what applying it needs to remember.
#[derive(Debug, Default)]
pub(super) struct Faults {
    plan: FaultPlan,
    /// Plain frames delivered since the plan was armed.
    tick: u64,
    /// Frames still to discard in the current burst.
    burst_left: u64,
    injected: u64,
    /// The pipe's frames in flight: (release step, destination, frame).
    line: VecDeque<(u64, usize, Netbuf)>,
    step_no: u64,
}

impl Faults {
    /// Arms `plan`, restarting every cadence and ending a burst in
    /// progress; frames in the pipe still leave.
    pub(super) fn arm(&mut self, plan: FaultPlan) {
        (self.plan, self.tick, self.burst_left) = (plan, 0, 0);
        if plan.drop > 0 || plan.burst.0 > 0 {
            drops_counter(); // Register the slot up front.
        }
    }

    pub(super) fn plan(&self) -> FaultPlan {
        self.plan
    }

    pub(super) fn injected(&self) -> u64 {
        self.injected
    }

    /// Whether a per-frame fault is armed (the pipe is not one).
    pub(super) fn armed(&self) -> bool {
        let p = &self.plan;
        p.drop > 0 || p.dup > 0 || p.reorder > 0 || p.corrupt > 0 || p.burst.0 > 0
    }

    /// Applies drop (or burst), corrupt, dup and reorder, in that
    /// order, to the frames one delivery staged for `rx`,
    /// `frames[from..]`. Each plain frame ticks the cadence once, so a
    /// host-cut super-segment meets the schedule frame by frame, as on
    /// a real lossy link. `moved` follows the frames dropped and added.
    pub(super) fn apply(
        &mut self,
        frames: &mut Vec<Netbuf>,
        from: usize,
        rx: &mut NetStack,
        moved: &mut usize,
    ) {
        let p = self.plan;
        let mut k = from;
        while k < frames.len() {
            if frames[k].has_frags() {
                k += 1;
                continue;
            }
            self.tick += 1;
            let mut drop = p.drop > 0 && self.tick.is_multiple_of(p.drop);
            if self.burst_left > 0 {
                self.burst_left -= 1; // Mid-burst: this frame goes too.
                drop = true;
            } else if p.burst.0 > 0 && self.tick.is_multiple_of(p.burst.0) {
                self.burst_left = p.burst.1.saturating_sub(1);
                drop = true;
            }
            if drop {
                // Back to the receiver's pool it came from: loss never
                // leaks. `k` now names the next frame.
                rx.recycle(frames.remove(k));
                *moved -= 1;
                self.injected += 1;
                drops_counter().inc();
                continue;
            }
            // Only IPv4 is corrupted: a flipped ARP byte has no checksum
            // to be caught by. The last byte is always inside the
            // transport checksum's coverage.
            let nb = &mut frames[k];
            let hit = p.corrupt > 0 && self.tick.is_multiple_of(p.corrupt);
            if hit && nb.payload().len() > 14 && nb.payload()[12..14] == [0x08, 0x00] {
                let end = nb.payload().len() - 1;
                nb.payload_mut()[end] ^= 0x10;
                nb.clear_csum_verified(); // The receiver must verify (and drop).
                self.injected += 1;
            }
            if p.dup > 0 && self.tick.is_multiple_of(p.dup) {
                // The copy keeps the original's checksum state: a
                // corrupted frame's copy must not regain the mark.
                let mut dup = rx.take_rx_buf();
                dup.set_payload(frames[k].payload());
                if frames[k].csum_verified() {
                    dup.mark_csum_verified();
                }
                frames.insert(k + 1, dup);
                *moved += 1;
                self.injected += 1;
                k += 1; // The copy itself never ticks.
            }
            if p.reorder > 0 && self.tick.is_multiple_of(p.reorder) && k >= 1 {
                frames.swap(k, k - 1);
                self.injected += 1;
            }
            k += 1;
        }
    }

    /// One step of the pipe: what `stage` holds (one batch per
    /// destination) enters the in-flight line, and the frames whose
    /// delay has elapsed, up to the per-step budget, come back to
    /// `stage`. Returns whether frames are still in flight. With no
    /// pipe armed and nothing in flight, `stage` is left as it is.
    pub(super) fn pipe(&mut self, stage: &mut [Vec<Netbuf>]) -> bool {
        self.step_no += 1;
        let (delay, per_step) = self.plan.pipe;
        if delay == 0 && per_step == 0 && self.line.is_empty() {
            return false;
        }
        let due = self.step_no + delay;
        for (i, frames) in stage.iter_mut().enumerate() {
            self.line.extend(frames.drain(..).map(|nb| (due, i, nb)));
        }
        let budget = if per_step == 0 { usize::MAX } else { per_step };
        for _ in 0..budget {
            match self.line.front() {
                Some(&(due, _, _)) if due <= self.step_no => {}
                _ => break,
            }
            let (_, i, nb) = self.line.pop_front().expect("checked front");
            stage[i].push(nb);
        }
        !self.line.is_empty()
    }
}
