//! The stack's timer queue — the connection-lifecycle substrate.
//!
//! `DeadlineHeap` is an indexed binary min-heap of `u32` ids ordered by
//! a `u64` due time, as lwIP keeps its timeouts in one deadline-ordered
//! list. A per-id vector holds each id's due time and heap position, so
//! `set` queues an id or re-keys it in place with one sift, up or down,
//! and `remove` takes it from mid-heap: O(log n) each, and `pop_due`
//! O(log n) per id it pops, however far the clock jumps. The stack's
//! connection table queues its slab slots on one, each at its
//! connection's exact next deadline on the stack's clock
//! ([`ukplat::time::Tsc`]). Nothing allocates once the vectors reach
//! the queued count's high-water mark.
//!
//! [`TimerWheel`] is the standalone timer API over the same heap: a
//! slab of entries (key, deadline, generation) ordered by deadline
//! tick. [`arm`](TimerWheel::arm) returns a [`TimerToken`]: slab index
//! and generation. Each slot reuse bumps the generation, so a stale
//! token cancels nothing. An entry armed for `d` fires on the first
//! [`advance`](TimerWheel::advance) with `now_ns ≥ floor(d /
//! DEFAULT_TICK_NS) · DEFAULT_TICK_NS`, earliest tick first; one armed
//! in the past fires on the next advance, and time never runs
//! backwards.

/// Tick granularity: 1 ms in virtual-clock nanoseconds.
pub const DEFAULT_TICK_NS: u64 = 1_000_000;

/// No heap position: an id that is not queued.
const NIL: u32 = u32::MAX;

/// An indexed min-heap of ids by due time. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct DeadlineHeap {
    /// Per id: its due time and its index in `heap` (`NIL` while it is
    /// not queued).
    at: Vec<(u64, u32)>,
    /// The queued ids, a binary min-heap on their due time.
    heap: Vec<u32>,
}

impl DeadlineHeap {
    /// Ids queued.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// When `id` is due, if it is queued.
    pub(crate) fn due(&self, id: u32) -> Option<u64> {
        self.at.get(id as usize).filter(|&&(_, pos)| pos != NIL).map(|&(due, _)| due)
    }

    /// Queues `id` for `due`, or re-keys it in place if it is queued
    /// already. Allocates only when `id` lies past every id seen so far
    /// or the queue outgrows its high-water mark.
    pub(crate) fn set(&mut self, id: u32, due: u64) {
        let i = id as usize;
        if i >= self.at.len() {
            self.grow(i + 1);
        }
        self.at[i].0 = due;
        let pos = match self.at[i].1 {
            NIL => {
                self.heap.push(id);
                self.heap.len() - 1
            }
            pos => pos as usize,
        };
        self.fix(pos, id);
    }

    /// Makes room for ids below `len`; cold, so `set` stays inlinable.
    #[cold]
    fn grow(&mut self, len: usize) {
        self.at.resize(len, (0, NIL));
    }

    /// Takes `id` off the queue, returning its due time (`None`, and
    /// nothing changes, when it was not queued).
    pub(crate) fn remove(&mut self, id: u32) -> Option<u64> {
        let (due, pos) = *self.at.get(id as usize).filter(|&&(_, pos)| pos != NIL)?;
        self.at[id as usize].1 = NIL;
        let last = self.heap.pop()?;
        if (pos as usize) < self.heap.len() {
            self.fix(pos as usize, last);
        }
        Some(due)
    }

    /// Takes the earliest id off the queue if it is due at `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<u32> {
        let &root = self.heap.first()?;
        (self.at[root as usize].0 <= now).then(|| {
            self.remove(root);
            root
        })
    }

    fn due_at(&self, pos: usize) -> u64 {
        self.at[self.heap[pos] as usize].0
    }

    /// Puts `id` at heap position `pos`, or wherever above or below it
    /// its due time belongs: up for a new or earlier one, down for a
    /// later one.
    fn fix(&mut self, mut pos: usize, id: u32) {
        let due = self.at[id as usize].0;
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.due_at(parent) <= due {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        let len = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.due_at(child + 1) < self.due_at(child) {
                child += 1;
            }
            if self.due_at(child) >= due {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, id);
    }

    /// Puts `id` at heap position `pos`.
    fn place(&mut self, pos: usize, id: u32) {
        self.heap[pos] = id;
        self.at[id as usize].1 = pos as u32;
    }
}

/// Handle to an armed timer; survives slab reuse via a generation tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken {
    idx: u32,
    gen: u32,
}

#[derive(Debug)]
struct Entry {
    /// Caller's payload, handed back verbatim on fire.
    key: u64,
    /// Exact deadline in ns (for `fire` callbacks that want it).
    deadline_ns: u64,
    gen: u32,
}

/// A standalone timer queue: a token slab over a `DeadlineHeap` by
/// deadline tick. See the module docs for the design.
#[derive(Debug)]
pub struct TimerWheel {
    entries: Vec<Entry>,
    /// The armed entries' slab indices, by deadline tick.
    heap: DeadlineHeap,
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
            heap: DeadlineHeap { at: Vec::with_capacity(cap), heap: Vec::with_capacity(cap) },
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
        self.heap.len() == 0
    }

    /// The queue's notion of "now", rounded down to its tick.
    pub fn now_ns(&self) -> u64 {
        self.current_tick * DEFAULT_TICK_NS
    }

    /// Arms a timer for `deadline_ns`, returning its token. `key` is
    /// handed back verbatim when the timer fires. Allocates only when
    /// the slab is exhausted.
    pub fn arm(&mut self, deadline_ns: u64, key: u64) -> TimerToken {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.entries.push(Entry { key, deadline_ns, gen: 1 });
            (self.entries.len() - 1) as u32
        });
        let e = &mut self.entries[idx as usize];
        (e.key, e.deadline_ns) = (key, deadline_ns);
        self.heap.set(idx, deadline_ns / DEFAULT_TICK_NS);
        TimerToken { idx, gen: e.gen }
    }

    /// Cancels an armed timer. Returns `true` if the token was live;
    /// stale tokens (already fired or cancelled) are no-ops.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        let live = self.entries.get(token.idx as usize).is_some_and(|e| e.gen == token.gen);
        live && self.heap.remove(token.idx).map(|_| self.release(token.idx)).is_some()
    }

    /// Advances the queue to `now_ns`, invoking `fire(key,
    /// deadline_ns)` for every timer due at or before it, earliest
    /// tick first. Entries armed in the past fire even when the clock
    /// has not moved. Time never goes backwards: an earlier `now_ns`
    /// fires only what was armed at or before the current tick.
    pub fn advance(&mut self, now_ns: u64, mut fire: impl FnMut(u64, u64)) {
        self.current_tick = self.current_tick.max(now_ns / DEFAULT_TICK_NS);
        while let Some(idx) = self.heap.pop_due(self.current_tick) {
            let (key, deadline_ns) = self.release(idx);
            fire(key, deadline_ns);
        }
    }

    /// Frees slab slot `idx` (off the heap already); returns its key and deadline.
    fn release(&mut self, idx: u32) -> (u64, u64) {
        let e = &mut self.entries[idx as usize];
        e.gen = e.gen.wrapping_add(1).max(1);
        self.free.push(idx);
        (e.key, e.deadline_ns)
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

    fn capacities(w: &TimerWheel) -> [usize; 4] {
        [w.entries.capacity(), w.heap.at.capacity(), w.heap.heap.capacity(), w.free.capacity()]
    }

    #[test]
    fn steady_state_rearm_is_slab_flat() {
        let mut w = TimerWheel::new();
        let mut now = 0;
        let mut tokens: Vec<TimerToken> = Vec::new();
        let mut warm = [0; 4];
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
                warm = capacities(&w);
            }
        }
        assert_eq!(capacities(&w), warm, "steady state must not grow the queue after warm-up");
    }

    #[test]
    fn sub_tick_deadline_rounds_down() {
        // An entry armed for 1.5 ticks fires when the queue reaches
        // tick 1 — never later than its deadline's tick.
        let mut w = TimerWheel::new();
        w.arm(MS + MS / 2, 1);
        assert_eq!(collect_fires(&mut w, MS), vec![1]);
    }

    /// Drains `h` at `now`, checking the heap's shape after every pop.
    fn drain(h: &mut DeadlineHeap, now: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(id) = h.pop_due(now) {
            out.push((h.at[id as usize].0, id));
            assert_eq!(h.due(id), None, "a popped id is off the queue");
            assert_shape(h);
        }
        out
    }

    /// Every parent is due no later than its children, and every
    /// queued id knows its position.
    fn assert_shape(h: &DeadlineHeap) {
        for (pos, &id) in h.heap.iter().enumerate() {
            assert_eq!(h.at[id as usize].1 as usize, pos, "id {id} lost its position");
            if pos > 0 {
                assert!(h.due_at((pos - 1) / 2) <= h.due_at(pos), "heap order broken at {pos}");
            }
        }
    }

    #[test]
    fn rekeying_mid_heap_ids_earlier_and_later_keeps_deadline_order() {
        let mut h = DeadlineHeap::default();
        let mut want: Vec<Option<u64>> = vec![None; 40];
        // Queued out of order, ids sparse (slab slots need not be dense).
        for id in (0..40u32).filter(|id| id % 5 != 4) {
            let due = u64::from((id * 37) % 41) * 10;
            h.set(id, due);
            want[id as usize] = Some(due);
            assert_shape(&h);
        }
        for i in 0..8 {
            // An id with a parent and children.
            let id = h.heap[1 + i];
            assert!(2 * (1 + i) + 1 < h.len(), "id {id} sits mid-heap");
            // Alternately far earlier (sifts up) and far later (down).
            let due = if i % 2 == 0 { i as u64 } else { 1_000 + i as u64 };
            h.set(id, due);
            want[id as usize] = Some(due);
            assert_shape(&h);
            assert_eq!(h.due(id), Some(due));
        }
        // Re-keying to the same due time is a no-op; so is removing an
        // id that is not queued.
        h.set(17, want[17].unwrap_or(0));
        assert_eq!(h.remove(4), None);
        assert_eq!(h.remove(99), None);
        assert_eq!(h.remove(22), want[22].take());
        assert_shape(&h);
        assert_eq!(h.len(), want.iter().flatten().count());
        let mut expect: Vec<(u64, u32)> =
            (0..40u32).filter_map(|id| want[id as usize].map(|d| (d, id))).collect();
        expect.sort_unstable();
        let early: Vec<(u64, u32)> = expect.iter().copied().filter(|&(d, _)| d <= 200).collect();
        let got = drain(&mut h, 200);
        let dues = |v: &[(u64, u32)]| v.iter().map(|p| p.0).collect::<Vec<_>>();
        assert_eq!(dues(&got), dues(&early));
        assert_eq!(h.len(), expect.len() - early.len(), "nothing due later popped");
        let rest = drain(&mut h, u64::MAX);
        assert!(dues(&rest).is_sorted() && dues(&rest).first() > dues(&got).last());
        let mut all: Vec<(u64, u32)> = got.into_iter().chain(rest).collect();
        all.sort_unstable();
        assert_eq!(all, expect);
        assert_eq!(h.len(), 0);
    }
}
