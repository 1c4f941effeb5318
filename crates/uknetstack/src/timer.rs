//! The stack's timer queue — the connection-lifecycle substrate.
//!
//! One queue per stack wakes every TCP connection that is waiting for
//! anything (retransmission, persist probes, delayed ACKs, the
//! handshake, FIN-WAIT-2 and TIME_WAIT timeouts, keepalive probing)
//! through one entry per connection, armed at or before the earliest
//! of its deadlines. A stack holds one entry per open connection, a
//! few dozen at most, so the queue is an indexed binary min-heap keyed
//! by deadline tick, as lwIP keeps its timeouts in one deadline-ordered
//! list: arm and cancel cost O(log n), and advance O(log n) per entry
//! it fires, however far the clock jumps.
//!
//! Entries live in a slab; the heap holds the armed entries' slab
//! indices and each entry its own heap position, so a cancel removes
//! it in place. Freed slots are reused before the slab grows: once the
//! vectors reach the armed count's high-water mark (or the capacity
//! [`TimerWheel::with_capacity`] gave them) nothing allocates.
//!
//! [`arm`](TimerWheel::arm) returns a [`TimerToken`], slab index +
//! generation. Each slot reuse bumps the generation, so a stale token
//! (already fired or cancelled) and `NONE` cancel nothing, and cancel
//! is idempotent.
//!
//! Deadlines are nanoseconds on the stack's virtual clock
//! ([`ukplat::time::Tsc`]). An entry armed for `d` fires, in
//! deadline-tick order, on the first [`advance`](TimerWheel::advance)
//! with `now_ns ≥ floor(d / DEFAULT_TICK_NS) · DEFAULT_TICK_NS`; one
//! armed in the past fires on the next advance even if the clock did
//! not move, and time never runs backwards. Callers that need exact
//! sub-tick deadlines (the RTO path does) re-check the true deadline
//! on fire and re-arm for the remainder.

/// Tick granularity: 1 ms in virtual-clock nanoseconds.
pub const DEFAULT_TICK_NS: u64 = 1_000_000;

/// No slab index: the `NONE` token's index, and a free entry's heap
/// position.
const NIL: u32 = u32::MAX;

/// Handle to an armed timer; survives slab reuse via a generation tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken {
    idx: u32,
    gen: u32,
}

impl TimerToken {
    /// A token that never matches an armed entry (useful as a "no
    /// timer" default before the first arm).
    pub(crate) const NONE: TimerToken = TimerToken { idx: NIL, gen: 0 };

    /// True if this is the `NONE` sentinel.
    pub fn is_none(self) -> bool {
        self.idx == NIL
    }
}

impl Default for TimerToken {
    fn default() -> Self {
        TimerToken::NONE
    }
}

#[derive(Debug)]
struct Entry {
    /// Caller's payload, handed back verbatim on fire.
    key: u64,
    /// Absolute deadline in ticks: the heap's order.
    deadline_tick: u64,
    /// Exact deadline in ns (for `fire` callbacks that want it).
    deadline_ns: u64,
    gen: u32,
    /// This entry's index in `heap`, or `NIL` while the slot is free.
    pos: u32,
}

/// The stack's timer queue: an indexed min-heap by deadline tick. See
/// the module docs for the design.
#[derive(Debug)]
pub struct TimerWheel {
    entries: Vec<Entry>,
    /// Slab indices of the armed entries, a binary min-heap on
    /// `deadline_tick`.
    heap: Vec<u32>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// The latest tick an advance reached.
    current_tick: u64,
}

impl TimerWheel {
    /// An empty queue starting at time zero; it allocates on first arm.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A queue pre-sized for `cap` concurrent timers: nothing
    /// allocates until the armed count exceeds `cap`.
    // ukcheck: allow(alloc) -- construction-time sizing so the armed
    // path stays allocation-free
    pub fn with_capacity(cap: usize) -> Self {
        TimerWheel {
            entries: Vec::with_capacity(cap),
            heap: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            current_tick: 0,
        }
    }

    /// Timers currently armed.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The queue's notion of "now", rounded down to its tick.
    pub fn now_ns(&self) -> u64 {
        self.current_tick * DEFAULT_TICK_NS
    }

    /// Arms a timer for `deadline_ns`, returning its token. `key` is
    /// handed back verbatim when the timer fires. Allocates only when
    /// the slab is exhausted.
    pub fn arm(&mut self, deadline_ns: u64, key: u64) -> TimerToken {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let e = Entry { key, deadline_tick: 0, deadline_ns, gen: 1, pos: NIL };
                self.entries.push(e);
                (self.entries.len() - 1) as u32
            }
        };
        let e = &mut self.entries[idx as usize];
        (e.key, e.deadline_tick, e.deadline_ns) = (key, deadline_ns / DEFAULT_TICK_NS, deadline_ns);
        let gen = e.gen;
        self.heap.push(idx);
        self.sift_up(self.heap.len() - 1);
        TimerToken { idx, gen }
    }

    /// Cancels an armed timer. Returns `true` if the token was live;
    /// stale tokens (already fired, cancelled, or `NONE`) are no-ops.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        match self.entries.get(token.idx as usize) {
            Some(e) if e.gen == token.gen && e.pos != NIL => {
                self.remove(e.pos as usize);
                true
            }
            _ => false,
        }
    }

    /// Advances the queue to `now_ns`, invoking `fire(key,
    /// deadline_ns)` for every timer due at or before it, earliest
    /// tick first. Entries armed in the past fire even when the clock
    /// has not moved. Time never goes backwards: an earlier `now_ns`
    /// fires only what was armed at or before the current tick.
    pub fn advance(&mut self, now_ns: u64, mut fire: impl FnMut(u64, u64)) {
        self.current_tick = self.current_tick.max(now_ns / DEFAULT_TICK_NS);
        while let Some(&root) = self.heap.first() {
            if self.entries[root as usize].deadline_tick > self.current_tick {
                break;
            }
            let (key, deadline_ns) = self.remove(0);
            fire(key, deadline_ns);
        }
    }

    /// Takes the entry at heap position `pos` out of the heap (the
    /// entry moved into its place sifts up or down, whichever it
    /// needs), frees its slot, bumping the generation, and returns its
    /// key and deadline.
    fn remove(&mut self, pos: usize) -> (u64, u64) {
        let idx = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            if pos > 0 && self.tick_at(pos) < self.tick_at((pos - 1) / 2) {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
        let e = &mut self.entries[idx as usize];
        e.gen = e.gen.wrapping_add(1).max(1);
        e.pos = NIL;
        self.free.push(idx);
        (e.key, e.deadline_ns)
    }

    fn tick_at(&self, pos: usize) -> u64 {
        self.entries[self.heap[pos] as usize].deadline_tick
    }

    /// Puts slab entry `idx` at heap position `pos`.
    fn place(&mut self, pos: usize, idx: u32) {
        self.heap[pos] = idx;
        self.entries[idx as usize].pos = pos as u32;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let idx = self.heap[pos];
        let tick = self.tick_at(pos);
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.tick_at(parent) <= tick {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, idx);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let idx = self.heap[pos];
        let tick = self.tick_at(pos);
        let len = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.tick_at(child + 1) < self.tick_at(child) {
                child += 1;
            }
            if self.tick_at(child) >= tick {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, idx);
    }
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn collect_fires(w: &mut TimerWheel, now_ns: u64) -> Vec<u64> {
        let mut v = Vec::new();
        w.advance(now_ns, |k, _| v.push(k));
        v
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut w = TimerWheel::new();
        w.arm(10 * MS, 1);
        assert!(collect_fires(&mut w, 9 * MS).is_empty());
        assert_eq!(collect_fires(&mut w, 10 * MS), vec![1]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_deadline_fires_on_next_advance_even_without_time() {
        let mut w = TimerWheel::new();
        w.advance(100 * MS, |_, _| panic!("nothing armed"));
        w.arm(5 * MS, 7); // Already in the past.
        assert_eq!(collect_fires(&mut w, 100 * MS), vec![7]);
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut w = TimerWheel::new();
        w.advance(100 * MS, |_, _| {});
        w.arm(150 * MS, 1);
        w.arm(90 * MS, 2);
        // An earlier `now` fires only what is due by the tick reached.
        assert_eq!(collect_fires(&mut w, 50 * MS), vec![2]);
        assert_eq!(w.now_ns(), 100 * MS);
        assert_eq!(collect_fires(&mut w, 150 * MS), vec![1]);
    }

    #[test]
    fn cancel_prevents_fire_and_is_idempotent() {
        let mut w = TimerWheel::new();
        let t = w.arm(10 * MS, 1);
        assert!(w.cancel(t));
        assert!(!w.cancel(t));
        assert!(!w.cancel(TimerToken::NONE));
        assert!(collect_fires(&mut w, 20 * MS).is_empty());
    }

    #[test]
    fn stale_token_after_fire_cancels_nothing() {
        let mut w = TimerWheel::new();
        let t = w.arm(MS, 1);
        assert_eq!(collect_fires(&mut w, 2 * MS), vec![1]);
        // The slab slot is reused by a new timer; the old token must
        // not cancel it.
        let _t2 = w.arm(50 * MS, 2);
        assert!(!w.cancel(t));
        assert_eq!(collect_fires(&mut w, 60 * MS), vec![2]);
    }

    #[test]
    fn deadlines_from_milliseconds_to_minutes_fire_in_turn() {
        let mut w = TimerWheel::new();
        // 5 ms, 300 ms, 20 s, 30 min, armed latest first.
        w.arm(1_800_000 * MS, 4);
        w.arm(20_000 * MS, 3);
        w.arm(300 * MS, 2);
        w.arm(5 * MS, 1);
        assert_eq!(collect_fires(&mut w, 6 * MS), vec![1]);
        assert_eq!(collect_fires(&mut w, 301 * MS), vec![2]);
        assert!(collect_fires(&mut w, 19_000 * MS).is_empty());
        assert_eq!(collect_fires(&mut w, 20_001 * MS), vec![3]);
        assert_eq!(collect_fires(&mut w, 1_800_001 * MS), vec![4]);
        assert!(w.is_empty());
    }

    #[test]
    fn deadline_hours_away_still_fires() {
        let mut w = TimerWheel::new();
        // ≈ 4.7 h ahead, to the tick.
        let deadline = (64u64.pow(4) + 1000) * MS;
        w.arm(deadline, 9);
        assert!(collect_fires(&mut w, deadline - MS).is_empty());
        assert_eq!(collect_fires(&mut w, deadline), vec![9]);
    }

    #[test]
    fn big_clock_jump_fires_everything_in_deadline_order() {
        let mut w = TimerWheel::new();
        let mut cancelled = Vec::new();
        for i in 1..=100u64 {
            // Armed out of order; every third cancelled from mid-heap.
            let t = w.arm(((i * 37) % 101) * 7 * MS, i);
            if i % 3 == 0 {
                cancelled.push(t);
            }
        }
        for t in cancelled {
            assert!(w.cancel(t));
        }
        let mut fired = Vec::new();
        w.advance(1000 * MS, |k, d| fired.push((d, k)));
        let mut expect: Vec<(u64, u64)> =
            (1..=100u64).filter(|i| i % 3 != 0).map(|i| (((i * 37) % 101) * 7 * MS, i)).collect();
        expect.sort_unstable();
        // Distinct ticks: deadline order is one order.
        assert_eq!(fired, expect);
    }

    #[test]
    fn steady_state_rearm_is_slab_flat() {
        let mut w = TimerWheel::new();
        let mut now = 0;
        let mut tokens: Vec<TimerToken> = Vec::new();
        let mut warm = (0, 0, 0);
        for round in 0..1000u64 {
            now += 3 * MS;
            // Cancel half, let the rest ride until they fire, re-arm
            // a full set every round.
            for (i, t) in tokens.drain(..).enumerate() {
                if i % 2 == 0 {
                    w.cancel(t);
                }
            }
            w.advance(now, |_, _| {});
            for i in 0..32u64 {
                tokens.push(w.arm(now + (1 + (round + i) % 50) * MS, i));
            }
            if round == 100 {
                warm = (w.entries.capacity(), w.heap.capacity(), w.free.capacity());
            }
        }
        assert_eq!(
            (w.entries.capacity(), w.heap.capacity(), w.free.capacity()),
            warm,
            "steady state must not grow the queue after warm-up"
        );
    }

    #[test]
    fn sub_tick_deadline_rounds_down() {
        // An entry armed for 1.5 ticks fires when the queue reaches
        // tick 1 — never later than its deadline's tick.
        let mut w = TimerWheel::new();
        w.arm(MS + MS / 2, 1);
        assert_eq!(collect_fires(&mut w, MS), vec![1]);
    }
}
