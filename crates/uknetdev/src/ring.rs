//! Descriptor rings.
//!
//! A bounded circular queue of netbufs standing in for a virtio virtqueue:
//! the driver enqueues on TX / the device enqueues on RX, and the opposite
//! side dequeues. Capacity is a power of two, like real virtqueues.

use std::collections::VecDeque;

use crate::netbuf::Netbuf;

/// A bounded descriptor ring.
#[derive(Debug)]
pub struct DescRing {
    slots: VecDeque<Netbuf>,
    capacity: usize,
    /// Total descriptors ever enqueued (stats).
    enqueued: u64,
    /// Total descriptors ever dequeued (stats).
    dequeued: u64,
}

impl DescRing {
    /// Creates a ring with power-of-two `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not a power of two.
    // ukcheck: allow(alloc) -- the ring's slots are allocated once, when
    // the device is configured; push and pop never grow them
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity > 0,
            "virtqueue sizes are powers of two"
        );
        DescRing {
            slots: VecDeque::with_capacity(capacity),
            capacity,
            enqueued: 0,
            dequeued: 0,
        }
    }

    /// Free descriptor slots.
    pub fn room(&self) -> usize {
        self.capacity - self.slots.len()
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the ring is full.
    pub fn is_full(&self) -> bool {
        self.slots.len() == self.capacity
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues one buffer; returns it back if the ring is full.
    pub fn push(&mut self, nb: Netbuf) -> Result<(), Netbuf> {
        if self.is_full() {
            return Err(nb);
        }
        self.slots.push_back(nb);
        self.enqueued += 1;
        Ok(())
    }

    /// Enqueues up to `max` of `bufs` — as many as fit — draining them
    /// from the front of the vector; what the ring could not take stays
    /// with the caller. Returns how many were enqueued — the `cnt` in/out
    /// semantics of `uk_netdev_tx_burst`.
    pub fn push_burst(&mut self, bufs: &mut Vec<Netbuf>, max: usize) -> usize {
        let n = max.min(bufs.len()).min(self.room());
        for nb in bufs.drain(..n) {
            self.slots.push_back(nb);
        }
        self.enqueued += n as u64;
        n
    }

    /// Dequeues one buffer.
    pub fn pop(&mut self) -> Option<Netbuf> {
        let nb = self.slots.pop_front()?;
        self.dequeued += 1;
        Some(nb)
    }

    /// Dequeues up to `max` buffers into `out`; returns the count.
    pub fn pop_burst(&mut self, out: &mut Vec<Netbuf>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            let Some(nb) = self.slots.pop_front() else { break };
            out.push(nb);
            n += 1;
        }
        self.dequeued += n as u64;
        n
    }

    /// Lifetime enqueue count.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Lifetime dequeue count.
    pub fn total_dequeued(&self) -> u64 {
        self.dequeued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(tag: u8) -> Netbuf {
        let mut nb = Netbuf::alloc(64, 0);
        nb.set_payload(&[tag]);
        nb
    }

    #[test]
    fn fifo_semantics() {
        let mut r = DescRing::new(4);
        r.push(buf(1)).unwrap();
        r.push(buf(2)).unwrap();
        assert_eq!(r.pop().unwrap().payload(), &[1]);
        assert_eq!(r.pop().unwrap().payload(), &[2]);
        assert!(r.pop().is_none());
    }

    #[test]
    fn full_ring_rejects() {
        let mut r = DescRing::new(2);
        r.push(buf(1)).unwrap();
        r.push(buf(2)).unwrap();
        assert!(r.is_full());
        let rejected = r.push(buf(3)).unwrap_err();
        assert_eq!(rejected.payload(), &[3]);
    }

    #[test]
    fn burst_enqueues_partial_when_short_on_room() {
        let mut r = DescRing::new(4);
        r.push(buf(0)).unwrap();
        let mut batch: Vec<Netbuf> = (1..=5).map(buf).collect();
        let n = r.push_burst(&mut batch, usize::MAX);
        assert_eq!(n, 3, "only 3 slots were free");
        assert_eq!(batch.len(), 2, "unsent buffers stay with the caller");
        assert!(r.is_full());
    }

    /// The two bounds of a burst — the caller's `max` and the ring's
    /// room — and neither end of it can fail: a full ring takes
    /// nothing, an empty one gives nothing.
    #[test]
    fn a_burst_is_bounded_by_max_and_by_room_and_never_fails() {
        let mut r = DescRing::new(4);
        let mut batch: Vec<Netbuf> = (0..6).map(buf).collect();
        assert_eq!(r.push_burst(&mut batch, 2), 2, "max below room");
        assert_eq!(r.push_burst(&mut batch, 3), 2, "room below max");
        assert_eq!(r.push_burst(&mut batch, 3), 0, "full: every buffer stays with the caller");
        assert_eq!(batch.iter().map(|nb| nb.payload()[0]).collect::<Vec<_>>(), [4, 5]);
        assert_eq!(r.total_enqueued(), 4);

        let mut out = Vec::new();
        assert_eq!(r.pop_burst(&mut out, 8), 4, "max above what is queued");
        assert_eq!(out.iter().map(|nb| nb.payload()[0]).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(r.pop_burst(&mut out, 8), 0, "empty");
        assert_eq!(r.total_dequeued(), 4);
    }

    #[test]
    fn burst_dequeue_respects_max() {
        let mut r = DescRing::new(8);
        for i in 0..6 {
            r.push(buf(i)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(r.pop_burst(&mut out, 4), 4);
        assert_eq!(out.len(), 4);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn stats_count_lifetime_traffic() {
        let mut r = DescRing::new(2);
        r.push(buf(1)).unwrap();
        r.pop().unwrap();
        r.push(buf(2)).unwrap();
        r.pop().unwrap();
        assert_eq!(r.total_enqueued(), 2);
        assert_eq!(r.total_dequeued(), 2);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = DescRing::new(3);
    }
}
