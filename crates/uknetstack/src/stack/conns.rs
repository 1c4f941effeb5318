//! The connection table: the slab every TCB lives in, the flow table
//! that finds a segment's connection, the list of connections the next
//! flush owes a visit, and the timer queue that wakes them.
//!
//! A connection is named by a [`ConnId`] — its slab slot and the
//! generation the slot had when the connection moved in. The same 48
//! bits are the [`SocketHandle`] the application holds and the tag on
//! its data frames in flight, so a handle or a frame that outlives the
//! connection resolves to nothing instead of reaching the slot's next
//! occupant. The timer queue is keyed by the slot alone: a connection
//! leaves it when it leaves the slab, so a slot on the queue is always
//! its current occupant's.
//!
//! Invariants (`table_matches_a_map_reference_across_the_generation_wrap`):
//! generation 0 is never issued, so no garbage handle names a
//! connection; an id minted for a reaped incarnation never resolves
//! again, and its slot's timer never wakes the next occupant; the flow
//! table holds exactly the occupied slots; and the queue pops due
//! connections earliest deadline first.

use ukevent::{EventMask, ReadySource};
use ukstats::CounterSet;

use super::stats::row;
use super::SocketHandle;
use crate::flow::{flow_key, FlowTable};
use crate::tcp::{Tcb, TcbStats, TcbTimer, TcpState};
use crate::timer::DeadlineHeap;
use crate::Endpoint;

/// One incarnation of one slab slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ConnId {
    slot: u32,
    gen: u16,
}

impl ConnId {
    /// The id as one word, `generation << 32 | slot` (generation ≤
    /// 0xffff, so < 2⁴⁸ — below the listener and UDP handle tags): what
    /// a held TX frame and a tracepoint carry.
    #[inline]
    pub(super) fn key(self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.slot)
    }

    /// Reads a [`key`](Self::key) back — `None` for anything no
    /// connection was ever issued: a word with bits above the
    /// generation (listener and UDP handles) or with generation 0.
    #[inline]
    pub(super) fn from_key(key: u64) -> Option<ConnId> {
        let gen = (key >> 32) as u16;
        (key >> 48 == 0 && gen != 0).then_some(ConnId { slot: (key & 0xffff_ffff) as u32, gen })
    }

    /// The slab slot alone (what the `tcp_syn_evicted` tracepoint
    /// records).
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    pub(super) fn slot(self) -> u32 {
        self.slot
    }

    /// The handle the application knows the connection by.
    #[inline]
    pub(super) fn handle(self) -> SocketHandle {
        SocketHandle(self.key() as usize)
    }

    /// The connection `sock` names, if it has the shape of a connection
    /// handle at all.
    #[inline]
    pub(super) fn of(sock: SocketHandle) -> Option<ConnId> {
        Self::from_key(sock.0 as u64)
    }
}

pub(super) struct TcpConn {
    pub(super) tcb: Tcb,
    pub(super) remote: Endpoint,
    pub(super) local_port: u16,
    /// Once the connection is closed: when its slot is reclaimed, the
    /// end of its `CLOSED_LINGER_NS` wait — the one deadline that is
    /// the stack's, not its TCB's (`TcpConn::wake_at`).
    pub(super) linger_until: Option<u64>,
    /// Counted in the table's `held_acks`: the TCB was holding an ACK
    /// at the last flush.
    holds_ack: bool,
    /// The TCB's counters as last published (`publish_tcb_stats`).
    pub(super) published: TcbStats,
    /// Whether this connection sits on the table's dirty list (its
    /// output, timers and readiness get reconciled by the next flush).
    dirty: bool,
    /// Whether an ingest queued readable bytes since that flush: the
    /// "new input" its readiness publish re-triggers `EPOLLET` on.
    pub(super) rx_fresh: bool,
    /// The readiness cell, once [`NetStack::ready_source`] minted it
    /// (the slot's next occupant starts without one).
    ///
    /// [`NetStack::ready_source`]: super::NetStack::ready_source
    pub(super) ready: Option<ReadySource>,
}

impl TcpConn {
    /// The connection row of [`NetStack::readiness`].
    ///
    /// [`NetStack::readiness`]: super::NetStack::readiness
    #[inline]
    pub(super) fn readiness(&self) -> EventMask {
        let mut m = EventMask::EMPTY;
        if self.tcb.readable() > 0 {
            m |= EventMask::IN;
        }
        if self.tcb.peer_fin_seen() {
            m |= EventMask::IN | EventMask::RDHUP;
        }
        if self.tcb.send_capacity() > 0 {
            m |= EventMask::OUT;
        }
        if self.tcb.state == TcpState::Closed {
            m |= EventMask::HUP;
        }
        m
    }
}

/// One slab slot: the generation tag survives the connection, so a
/// handle minted for a reaped incarnation fails the lookup instead of
/// aliasing the slot's next occupant.
struct ConnSlot {
    gen: u16,
    conn: Option<TcpConn>,
}

// `lib.rs` promises an idle connection costs well under a kilobyte. A
// TCB's queues start empty and own no heap, so beside its flow-table
// entry and its place on the timer queue the slot (688 B today, 608 of
// them the `Tcb`) is all it holds.
const _: () = assert!(size_of::<ConnSlot>() <= 688);

/// Every connection of one stack (see the module docs).
pub(super) struct ConnTable {
    /// Connection slab: TCBs live inline in slots; a slot's generation
    /// tag is baked into the connection's id, so a stale one (a reaped
    /// connection whose slot was reused) fails the lookup instead of
    /// reaching the wrong TCB.
    slots: Vec<ConnSlot>,
    /// Free slots awaiting reuse (LIFO keeps the working set warm).
    free: Vec<u32>,
    /// Open-addressing demux: packed `(local port, remote)` flow key →
    /// slab slot. Replaces the old `HashMap<(u16, Endpoint), usize>` —
    /// lookup cost and memory stay flat at 100 K–1 M flows.
    flow: FlowTable,
    /// Connections touched since the last flush (slot list,
    /// deduplicated by the per-connection `dirty` flag): the output,
    /// readiness and timer-sync passes walk this instead of every
    /// connection, so 100 K idle connections — watched by an event
    /// queue or not — cost nothing per pump.
    dirty: Vec<u32>,
    /// Connections holding an ACK as of their last flush — what
    /// [`held_ack_deadline`](Self::held_ack_deadline) checks before it
    /// scans.
    held_acks: usize,
    /// The timer queue: the slot of every connection that waits for
    /// anything, at the exact deadline it wanted at its last visit
    /// ([`sync_timer`](Self::sync_timer)).
    timers: DeadlineHeap,
}

impl ConnTable {
    /// An empty table.
    // ukcheck: allow(alloc) -- built once, in `NetStack::new` (it was
    // that constructor's before `stack/` was split); the slab and the
    // lists grow with the connection population, never per segment
    pub(super) fn new() -> Self {
        ConnTable {
            slots: Vec::new(),
            free: Vec::new(),
            flow: FlowTable::new(),
            dirty: Vec::new(),
            held_acks: 0,
            timers: DeadlineHeap::default(),
        }
    }

    /// Live connections (any state, TIME_WAIT included).
    pub(super) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Resolves an id to its live connection.
    #[inline]
    pub(super) fn get(&self, id: ConnId) -> Option<&TcpConn> {
        let cs = self.slots.get(id.slot as usize)?;
        if cs.gen != id.gen {
            return None;
        }
        cs.conn.as_ref()
    }

    /// Mutable form of [`get`](Self::get).
    #[inline]
    pub(super) fn get_mut(&mut self, id: ConnId) -> Option<&mut TcpConn> {
        let cs = self.slots.get_mut(id.slot as usize)?;
        if cs.gen != id.gen {
            return None;
        }
        cs.conn.as_mut()
    }

    /// The connection that owns a [`flow_key`], if one does.
    #[inline]
    pub(super) fn lookup(&self, key: u64) -> Option<ConnId> {
        let slot = self.flow.get(key)?;
        Some(ConnId { slot, gen: self.slots.get(slot as usize)?.gen })
    }

    /// Installs a connection into the slab + flow table, bumping the
    /// slot's generation, and marks it dirty (its first output — SYN
    /// or SYN-ACK — leaves with the next flush).
    pub(super) fn insert(&mut self, tcb: Tcb, remote: Endpoint, local_port: u16) -> ConnId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(ConnSlot { gen: 0, conn: None });
                (self.slots.len() - 1) as u32
            }
        };
        let cs = &mut self.slots[slot as usize];
        cs.gen = if cs.gen == u16::MAX { 1 } else { cs.gen + 1 };
        cs.conn = Some(TcpConn {
            tcb,
            remote,
            local_port,
            linger_until: None,
            holds_ack: false,
            published: TcbStats::default(),
            dirty: false,
            rx_fresh: false,
            ready: None,
        });
        let id = ConnId { slot, gen: cs.gen };
        self.flow.insert(flow_key(local_port, remote), slot);
        self.mark_dirty(id);
        id
    }

    /// Takes a connection out of the slab, the flow table and the timer
    /// queue and frees its slot; what it still holds — buffers, its
    /// readiness cell — is the caller's to wind down.
    pub(super) fn remove(&mut self, id: ConnId) -> Option<TcpConn> {
        let cs = self.slots.get_mut(id.slot as usize)?;
        if cs.gen != id.gen {
            return None;
        }
        let c = cs.conn.take()?;
        self.held_acks -= usize::from(c.holds_ack);
        self.flow.remove(flow_key(c.local_port, c.remote));
        self.timers.remove(id.slot);
        self.free.push(id.slot);
        Some(c)
    }

    /// Puts a connection on the dirty list (idempotent; stale ids are
    /// ignored): the next flush polls its output and reconciles its
    /// timer and readiness.
    #[inline]
    pub(super) fn mark_dirty(&mut self, id: ConnId) {
        if let Some(c) = self.get_mut(id) {
            if !c.dirty {
                c.dirty = true;
                self.dirty.push(id.slot);
            }
        }
    }

    /// The flush's walk of the dirty list: the next connection on it at
    /// or after `*cursor`, taken off it. Only dirty connections are
    /// polled — at 100 K idle connections the flush touches none of
    /// them. `None` ends the walk and empties the list; a connection
    /// marked after that waits for the next flush.
    #[inline]
    pub(super) fn next_dirty(&mut self, cursor: &mut usize) -> Option<(ConnId, &mut TcpConn)> {
        let slot = loop {
            let Some(&slot) = self.dirty.get(*cursor) else {
                self.dirty.clear();
                return None;
            };
            *cursor += 1;
            let conn = self.slots.get_mut(slot as usize).and_then(|cs| cs.conn.as_mut());
            if conn.is_some_and(|c| std::mem::take(&mut c.dirty)) {
                break slot;
            }
        };
        let cs = self.slots.get_mut(slot as usize)?;
        let id = ConnId { slot, gen: cs.gen };
        cs.conn.as_mut().map(|c| (id, c))
    }

    /// Ends a flush's visit to connection `id`: recounts it among the
    /// ACK holders and queues it at the deadline it now wants
    /// (`TcpConn::wake_at`) — re-keyed in place when that moved, taken
    /// off the queue when it wants none.
    #[inline]
    pub(super) fn sync_timer(&mut self, id: ConnId, counts: &CounterSet, now: u64) {
        let cs = self.slots.get_mut(id.slot as usize).filter(|cs| cs.gen == id.gen);
        let Some(c) = cs.and_then(|cs| cs.conn.as_mut()) else { return };
        let holds_ack = c.tcb.deadline(TcbTimer::DelAck).is_some();
        self.held_acks = self.held_acks + usize::from(holds_ack) - usize::from(c.holds_ack);
        c.holds_ack = holds_ack;
        match c.wake_at(now) {
            Some(d) if self.timers.due(id.slot) != Some(d) => {
                self.timers.set(id.slot, d);
                counts.add(row::timer_arms, 1);
            }
            Some(_) => {}
            None => {
                self.timers.remove(id.slot);
            }
        }
    }

    /// Takes the connection with the earliest deadline off the timer
    /// queue if that deadline is due at `now`.
    #[inline]
    pub(super) fn pop_due(&mut self, now: u64) -> Option<ConnId> {
        let slot = self.timers.pop_due(now)?;
        Some(ConnId { slot, gen: self.slots.get(slot as usize)?.gen })
    }

    /// Connections on the timer queue: at most one entry each.
    pub(super) fn armed(&self) -> usize {
        self.timers.len()
    }

    /// The earliest deadline among the ACKs connections are holding for
    /// a data segment to carry, if any holds one.
    pub(super) fn held_ack_deadline(&self) -> Option<u64> {
        if self.held_acks == 0 {
            return None;
        }
        self.iter().filter_map(|c| c.tcb.deadline(TcbTimer::DelAck)).min()
    }

    /// Every live connection, in slot order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &TcpConn> {
        self.slots.iter().filter_map(|cs| cs.conn.as_ref())
    }

    /// Connections on the dirty list.
    #[cfg(test)]
    pub(super) fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// The timer queue's invariant, checked at the end of every debug
    /// `pump`: a free slot is not queued, and every connection the last
    /// flush left clean is queued at exactly the deadline it wants —
    /// its TCB's [`next_deadline`](Tcb::next_deadline) while it is
    /// open, the end of its linger once it is closed.
    #[cfg(debug_assertions)]
    pub(super) fn assert_deadlines_armed(&self) {
        for (slot, cs) in self.slots.iter().enumerate() {
            let want = match &cs.conn {
                Some(c) if c.dirty => continue,
                Some(c) if c.tcb.state == TcpState::Closed => c.linger_until,
                Some(c) => c.tcb.next_deadline(),
                None => None,
            };
            let due = self.timers.due(slot as u32);
            assert_eq!(due, want, "slot {slot} is queued for {due:?} but wants {want:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ipv4Addr;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u16),
        Remove(usize),
        Stale(usize),
        Lookup(u16),
        /// Queue a live connection at `now + delta` (re-keying it if it
        /// is queued already).
        Wake(usize, u64),
        /// Move the clock by `delta` and pop everything due.
        Pop(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (0u32..11, 0u16..12, 0usize..64, 0u64..40).prop_map(|(kind, port, pick, delta)| {
            match kind {
                0..=2 => Op::Insert(port),
                3..=4 => Op::Remove(pick),
                5 => Op::Stale(pick),
                6 => Op::Lookup(port),
                7..=8 => Op::Wake(pick, delta),
                _ => Op::Pop(delta),
            }
        })
    }

    fn remote(port: u16) -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 40_000 + port)
    }

    proptest! {
        /// Under any insert / remove / lookup / wake / pop sequence,
        /// with every slot's generation seeded two short of the wrap so
        /// each case crosses it: the table agrees with a plain map from
        /// flow to id; generation 0 is never issued (and no key
        /// carrying it parses); an id that was removed resolves to
        /// nothing ever after, whoever lives in its slot now, and never
        /// pops off the timer queue; pops come earliest deadline first,
        /// each exactly once and only when due; `len()` is the number
        /// of flows and `armed()` the number of queued connections.
        #[test]
        fn table_matches_a_map_reference_across_the_generation_wrap(
            ops in proptest::collection::vec(arb_op(), 1..120),
        ) {
            let mut t = ConnTable::new();
            // Open and close a population first, so the slots the case
            // reuses exist and sit at 0xfffe.
            let warm: Vec<ConnId> =
                (0..8).map(|p| t.insert(Tcb::listen(80), remote(100 + p), 80)).collect();
            for id in warm {
                prop_assert!(t.remove(id).is_some());
            }
            for cs in &mut t.slots {
                cs.gen = 0xfffe;
            }
            let mut live: HashMap<u16, ConnId> = HashMap::new();
            let mut dead: Vec<ConnId> = Vec::new();
            // The queue's model: each queued id's deadline, by key.
            let mut queued: HashMap<u64, u64> = HashMap::new();
            let mut now = 0;
            for op in &ops {
                match *op {
                    Op::Insert(port) if !live.contains_key(&port) => {
                        let id = t.insert(Tcb::listen(80), remote(port), 80);
                        prop_assert!(id.gen != 0, "generation 0 issued");
                        prop_assert_eq!(ConnId::from_key(id.key()), Some(id));
                        prop_assert_eq!(ConnId::of(id.handle()), Some(id));
                        prop_assert!(!dead.contains(&id), "an id issued twice");
                        live.insert(port, id);
                    }
                    Op::Insert(_) => {}
                    Op::Remove(pick) => {
                        let Some(&port) = live.keys().nth(pick % live.len().max(1)) else {
                            continue;
                        };
                        let id = live.remove(&port).expect("picked from the map");
                        let c = t.remove(id).expect("a live id removes");
                        prop_assert_eq!(c.remote, remote(port));
                        queued.remove(&id.key());
                        dead.push(id);
                    }
                    Op::Stale(pick) => {
                        let Some(&id) = dead.get(pick % dead.len().max(1)) else { continue };
                        prop_assert!(t.get(id).is_none() && t.get_mut(id).is_none());
                        prop_assert!(t.remove(id).is_none(), "a stale id removed someone");
                        t.mark_dirty(id);
                    }
                    Op::Lookup(port) => {
                        let owner = t.lookup(flow_key(80, remote(port)));
                        prop_assert_eq!(owner, live.get(&port).copied());
                    }
                    Op::Wake(pick, delta) => {
                        let Some(&id) = live.values().nth(pick % live.len().max(1)) else {
                            continue;
                        };
                        t.timers.set(id.slot, now + delta);
                        queued.insert(id.key(), now + delta);
                    }
                    Op::Pop(delta) => {
                        now += delta;
                        let mut last = 0;
                        while let Some(id) = t.pop_due(now) {
                            let due = queued.remove(&id.key());
                            prop_assert!(due.is_some(), "{:?} popped unqueued", id);
                            let due = due.unwrap_or(0);
                            prop_assert!(last <= due && due <= now, "popped {} after {}", due, last);
                            last = due;
                        }
                        prop_assert!(queued.values().all(|&d| d > now), "a due id stayed queued");
                    }
                }
                prop_assert_eq!(t.armed(), queued.len());
                prop_assert_eq!(t.len(), live.len());
                prop_assert_eq!(t.flow.len(), live.len());
                prop_assert_eq!(t.iter().count(), live.len());
                for (&port, &id) in &live {
                    prop_assert_eq!(t.get(id).map(|c| c.remote), Some(remote(port)));
                }
            }
            // What the dirty list names is live, once each.
            let (mut cursor, mut seen) = (0, Vec::new());
            while let Some((id, _)) = t.next_dirty(&mut cursor) {
                prop_assert!(live.values().any(|l| *l == id) && !seen.contains(&id));
                seen.push(id);
            }
            prop_assert!(t.dirty.is_empty());
        }
    }

    #[test]
    fn only_connection_handles_parse() {
        assert_eq!(ConnId::from_key(99), None, "generation 0");
        assert_eq!(ConnId::from_key(1 << 48 | 1 << 32 | 7), None, "a listener's tag");
        let id = ConnId::from_key(0xffff << 32 | 7).expect("the last generation");
        assert_eq!((id.slot, id.gen), (7, 0xffff));
        assert_eq!(id.handle().0, 0xffff_0000_0007);
    }
}
