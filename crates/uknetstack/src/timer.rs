//! Hierarchical timer wheel — the connection-lifecycle substrate.
//!
//! One wheel per stack wakes every TCP connection that is waiting for
//! anything — retransmission, persist probes, delayed ACKs, the
//! handshake, FIN-WAIT-2 and TIME_WAIT timeouts, keepalive probing —
//! through one entry per connection, armed at or before the earliest
//! of its deadlines. The design is the classic hashed hierarchical wheel
//! (Varghese & Lauck): `LEVELS` levels of `SLOTS` slots each, where
//! level 0 resolves single ticks and each higher level covers
//! `SLOTS`× the span below it. Arming, cancelling and advancing are
//! all O(1) amortised — advancing walks one slot per elapsed tick and
//! occasionally cascades a coarse slot down a level.
//!
//! # Zero-alloc steady state
//!
//! Timer entries live in a slab (`Vec<Entry>`) threaded into
//! per-slot intrusive doubly-linked lists by index; arming pops the
//! free list and cancelling/firing pushes back onto it, so once the
//! slab has grown to the connection count's high-water mark no
//! operation allocates. [`TimerWheel::with_capacity`] pre-reserves the
//! slab so a sized deployment never allocates at all.
//!
//! # Tokens and generations
//!
//! [`arm`](TimerWheel::arm) returns a [`TimerToken`] — slab index +
//! generation. Each slot reuse bumps the generation, so a stale token
//! held by a connection that raced its timer's firing cancels nothing
//! (ABA-safe). Cancel is idempotent: cancelling a token that already
//! fired or was cancelled is a no-op returning `false`.
//!
//! # Firing semantics
//!
//! Deadlines are nanoseconds on the same virtual clock the stack
//! runs on ([`ukplat::time::Tsc`]). [`advance`](TimerWheel::advance)
//! fires every armed entry whose deadline tick is at or before the
//! new time — including entries armed *in the past*, which fire on
//! the very next advance even if the clock did not move. A timer
//! never fires early relative to its tick: an entry armed for
//! deadline `d` fires on the first advance where
//! `now_ns ≥ floor(d / tick_ns) * tick_ns`. Callers that need exact
//! sub-tick deadlines (the RTO path does) re-check the true deadline
//! on fire and re-arm for the remainder.

/// Slots per level. 64 keeps cascade work tiny and slot indexing a
/// mask.
pub(crate) const SLOTS: usize = 64;
/// Hierarchy depth. With a 1 ms tick, 4 levels span 64⁴ ms ≈ 4.7 h;
/// deadlines beyond that clamp to the furthest slot and re-clamp on
/// cascade, so arbitrarily far deadlines still fire (just with extra
/// cascades).
pub(crate) const LEVELS: usize = 4;
/// Default tick granularity: 1 ms in virtual-clock nanoseconds.
pub const DEFAULT_TICK_NS: u64 = 1_000_000;

const NIL: u32 = u32::MAX;
/// Pseudo-slot for entries armed at-or-before the current tick: they
/// fire on the next advance regardless of clock movement.
const READY_SLOT: u32 = (LEVELS * SLOTS) as u32;
/// Slot marker for free-list entries.
const FREE_SLOT: u32 = READY_SLOT + 1;

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

#[derive(Debug, Clone)]
struct Entry {
    /// Caller's payload, handed back verbatim on fire.
    key: u64,
    /// Absolute deadline in ticks (used to re-place on cascade).
    deadline_tick: u64,
    /// Exact deadline in ns (for `fired` callbacks that want it).
    deadline_ns: u64,
    gen: u32,
    prev: u32,
    next: u32,
    /// Which list this entry is on: a wheel slot, `READY_SLOT`, or
    /// `FREE_SLOT`.
    slot: u32,
}

/// The hierarchical wheel. See the module docs for the design.
#[derive(Debug)]
pub struct TimerWheel {
    /// Slot list heads: `LEVELS * SLOTS` wheel slots followed by the
    /// ready list.
    heads: Vec<u32>,
    entries: Vec<Entry>,
    free_head: u32,
    /// Ticks fully processed so far.
    current_tick: u64,
    tick_ns: u64,
    armed: usize,
    /// Scratch list reused by `advance` while re-placing cascaded
    /// entries (kept so cascades stay zero-alloc after warm-up).
    cascade_scratch: Vec<u32>,
}

impl TimerWheel {
    /// A wheel with the default 1 ms tick starting at time zero.
    pub fn new() -> Self {
        Self::with_tick(DEFAULT_TICK_NS)
    }

    /// A wheel with a custom tick granularity (ns per tick).
    // ukcheck: allow(alloc) -- one-time construction of the slot heads;
    // the entry slab starts empty and is sized via `reserve`
    pub(crate) fn with_tick(tick_ns: u64) -> Self {
        assert!(tick_ns > 0, "tick must be positive");
        TimerWheel {
            heads: vec![NIL; LEVELS * SLOTS + 1],
            entries: Vec::new(),
            free_head: NIL,
            current_tick: 0,
            tick_ns,
            armed: 0,
            cascade_scratch: Vec::new(),
        }
    }

    /// A wheel pre-sized for `cap` concurrent timers: nothing
    /// allocates until the armed count exceeds `cap`.
    // ukcheck: allow(alloc) -- construction-time warm-up so the armed
    // path stays allocation-free
    pub fn with_capacity(cap: usize) -> Self {
        let mut w = Self::new();
        w.reserve(cap);
        w
    }

    /// Grows the slab so `extra` more timers can be armed without
    /// allocating.
    // ukcheck: allow(alloc) -- explicit warm-up entry point; callers
    // invoke it at setup, and zero_alloc asserts steady state stays flat
    pub fn reserve(&mut self, extra: usize) {
        let start = self.entries.len();
        self.entries.reserve(extra);
        for i in 0..extra {
            let idx = (start + i) as u32;
            self.entries.push(Entry {
                key: 0,
                deadline_tick: 0,
                deadline_ns: 0,
                gen: 1,
                prev: NIL,
                next: self.free_head,
                slot: FREE_SLOT,
            });
            self.free_head = idx;
        }
        if self.cascade_scratch.capacity() < SLOTS {
            self.cascade_scratch.reserve(SLOTS - self.cascade_scratch.capacity());
        }
    }

    /// Timers currently armed.
    pub fn len(&self) -> usize {
        self.armed
    }

    /// True when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }

    /// The wheel's notion of "now", rounded down to its tick.
    pub fn now_ns(&self) -> u64 {
        self.current_tick * self.tick_ns
    }

    fn alloc_entry(&mut self) -> u32 {
        if self.free_head == NIL {
            // Grow geometrically so a warm wheel stops allocating.
            let grow = self.entries.len().clamp(8, 64 * 1024);
            // ukcheck: allow(alloc) -- cold slab-exhausted branch only;
            // geometric growth means a warm wheel never re-enters it
            self.reserve(grow);
        }
        let idx = self.free_head;
        self.free_head = self.entries[idx as usize].next;
        idx
    }

    fn link(&mut self, idx: u32, slot: u32) {
        let head = self.heads[slot as usize];
        {
            let e = &mut self.entries[idx as usize];
            e.slot = slot;
            e.prev = NIL;
            e.next = head;
        }
        if head != NIL {
            self.entries[head as usize].prev = idx;
        }
        self.heads[slot as usize] = idx;
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next, slot) = {
            let e = &self.entries[idx as usize];
            (e.prev, e.next, e.slot)
        };
        if prev != NIL {
            self.entries[prev as usize].next = next;
        } else {
            self.heads[slot as usize] = next;
        }
        if next != NIL {
            self.entries[next as usize].prev = prev;
        }
    }

    fn free_entry(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        e.gen = e.gen.wrapping_add(1).max(1);
        e.slot = FREE_SLOT;
        e.prev = NIL;
        e.next = self.free_head;
        self.free_head = idx;
    }

    /// Picks the wheel slot for `deadline_tick` relative to
    /// `current_tick`. Past-or-now deadlines go to the ready list.
    fn place_slot(&self, deadline_tick: u64) -> u32 {
        if deadline_tick <= self.current_tick {
            return READY_SLOT;
        }
        let delta = deadline_tick - self.current_tick;
        let mut span = SLOTS as u64;
        for level in 0..LEVELS {
            if delta < span {
                let shift = 6 * level as u32;
                let slot = (deadline_tick >> shift) as usize & (SLOTS - 1);
                return (level * SLOTS + slot) as u32;
            }
            span = span.saturating_mul(SLOTS as u64);
        }
        // Beyond the hierarchy's span: park in the furthest top-level
        // slot; cascade re-places (and re-clamps) it as time passes.
        let shift = 6 * (LEVELS - 1) as u32;
        let slot = ((self.current_tick >> shift).wrapping_sub(1)) as usize & (SLOTS - 1);
        (((LEVELS - 1) * SLOTS) + slot) as u32
    }

    /// Arms a timer for `deadline_ns`, returning its token. `key` is
    /// handed back verbatim when the timer fires. O(1); allocates only
    /// when the slab is exhausted.
    pub fn arm(&mut self, deadline_ns: u64, key: u64) -> TimerToken {
        let idx = self.alloc_entry();
        let deadline_tick = deadline_ns / self.tick_ns;
        {
            let e = &mut self.entries[idx as usize];
            e.key = key;
            e.deadline_tick = deadline_tick;
            e.deadline_ns = deadline_ns;
        }
        let slot = self.place_slot(deadline_tick);
        self.link(idx, slot);
        self.armed += 1;
        TimerToken {
            idx,
            gen: self.entries[idx as usize].gen,
        }
    }

    /// Cancels an armed timer. Returns `true` if the token was live;
    /// stale tokens (already fired, cancelled, or `NONE`) are no-ops.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        if token.idx == NIL {
            return false;
        }
        let Some(e) = self.entries.get(token.idx as usize) else {
            return false;
        };
        if e.gen != token.gen || e.slot == FREE_SLOT {
            return false;
        }
        self.unlink(token.idx);
        self.free_entry(token.idx);
        self.armed -= 1;
        true
    }

    /// Advances the wheel to `now_ns`, invoking `fire(key,
    /// deadline_ns)` for every timer due at or before it. Entries
    /// armed in the past fire even when the clock has not moved. Time
    /// never goes backwards: an earlier `now_ns` only drains the
    /// ready list.
    pub fn advance(&mut self, now_ns: u64, mut fire: impl FnMut(u64, u64)) {
        // Entries armed at-or-before the current tick.
        self.drain_ready(&mut fire);
        let target_tick = now_ns / self.tick_ns;
        while self.current_tick < target_tick {
            self.current_tick += 1;
            let t = self.current_tick;
            // Cascade coarse levels whose period boundary we just
            // crossed, innermost first so re-placed entries can land
            // in the level-0 slot we're about to expire.
            for level in 1..LEVELS {
                let shift = 6 * level as u32;
                if t & ((1u64 << shift) - 1) != 0 {
                    break;
                }
                let slot = ((level * SLOTS) + ((t >> shift) as usize & (SLOTS - 1))) as u32;
                self.cascade(slot);
            }
            let slot0 = (t as usize & (SLOTS - 1)) as u32;
            self.expire_slot(slot0, &mut fire);
            self.drain_ready(&mut fire);
        }
    }

    /// Re-places every entry in a coarse slot one level down (or to
    /// the ready list if its tick has arrived).
    fn cascade(&mut self, slot: u32) {
        let mut scratch = std::mem::take(&mut self.cascade_scratch);
        scratch.clear();
        let mut cur = self.heads[slot as usize];
        while cur != NIL {
            scratch.push(cur);
            cur = self.entries[cur as usize].next;
        }
        self.heads[slot as usize] = NIL;
        for idx in scratch.drain(..) {
            let dt = self.entries[idx as usize].deadline_tick;
            let new_slot = self.place_slot(dt);
            self.link(idx, new_slot);
        }
        self.cascade_scratch = scratch;
    }

    /// Fires every entry in a level-0 slot whose tick has arrived.
    /// (All entries in the slot match the current tick by
    /// construction once cascades have run.)
    fn expire_slot(&mut self, slot: u32, fire: &mut impl FnMut(u64, u64)) {
        loop {
            let idx = self.heads[slot as usize];
            if idx == NIL {
                break;
            }
            let dt = self.entries[idx as usize].deadline_tick;
            if dt > self.current_tick {
                // A same-slot entry for a later wheel revolution
                // (possible after a clamped far-future arm): move it
                // aside via re-place.
                self.unlink(idx);
                let new_slot = self.place_slot(dt);
                debug_assert_ne!(new_slot, slot, "re-place must make progress");
                self.link(idx, new_slot);
                continue;
            }
            let (key, dns) = {
                let e = &self.entries[idx as usize];
                (e.key, e.deadline_ns)
            };
            self.unlink(idx);
            self.free_entry(idx);
            self.armed -= 1;
            fire(key, dns);
        }
    }

    fn drain_ready(&mut self, fire: &mut impl FnMut(u64, u64)) {
        loop {
            let idx = self.heads[READY_SLOT as usize];
            if idx == NIL {
                break;
            }
            let (key, dns) = {
                let e = &self.entries[idx as usize];
                (e.key, e.deadline_ns)
            };
            self.unlink(idx);
            self.free_entry(idx);
            self.armed -= 1;
            fire(key, dns);
        }
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
    fn long_deadlines_cascade_down() {
        let mut w = TimerWheel::new();
        // Spread across all levels: 5 ms, 300 ms, 20 s, 30 min.
        w.arm(5 * MS, 1);
        w.arm(300 * MS, 2);
        w.arm(20_000 * MS, 3);
        w.arm(1_800_000 * MS, 4);
        assert_eq!(collect_fires(&mut w, 6 * MS), vec![1]);
        assert_eq!(collect_fires(&mut w, 301 * MS), vec![2]);
        assert!(collect_fires(&mut w, 19_000 * MS).is_empty());
        assert_eq!(collect_fires(&mut w, 20_001 * MS), vec![3]);
        assert_eq!(collect_fires(&mut w, 1_800_001 * MS), vec![4]);
        assert!(w.is_empty());
    }

    #[test]
    fn beyond_hierarchy_span_still_fires() {
        let mut w = TimerWheel::new();
        // 64^4 ms ≈ 4.66 h; arm a deadline past the whole span.
        let span_ms = 64u64 * 64 * 64 * 64;
        let deadline = (span_ms + 1000) * MS;
        w.arm(deadline, 9);
        assert!(collect_fires(&mut w, deadline - MS).is_empty());
        assert_eq!(collect_fires(&mut w, deadline), vec![9]);
    }

    #[test]
    fn big_clock_jump_fires_everything_in_between() {
        let mut w = TimerWheel::new();
        for i in 1..=100u64 {
            w.arm(i * 7 * MS, i);
        }
        let fired = collect_fires(&mut w, 1000 * MS);
        assert_eq!(fired.len(), 100);
        // Each key exactly once.
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn steady_state_rearm_is_slab_flat() {
        let mut w = TimerWheel::new();
        let mut now = 0;
        let mut tokens: Vec<TimerToken> = Vec::new();
        let mut warm_cap = 0;
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
                warm_cap = w.entries.len();
            }
        }
        assert_eq!(
            w.entries.len(),
            warm_cap,
            "steady state must not grow the slab after warm-up"
        );
    }

    #[test]
    fn sub_tick_deadline_rounds_down() {
        // An entry armed for 1.5 ticks fires when the wheel crosses
        // tick 1 — never later than its deadline's tick.
        let mut w = TimerWheel::new();
        w.arm(MS + MS / 2, 1);
        assert_eq!(collect_fires(&mut w, MS), vec![1]);
    }
}
