//! Where `KvStore`'s keys and values live: each entry one block of a
//! `ukalloc` heap, found through one flat index.
//!
//! **An entry** is one backend block, `[key_len u32][val_len u32][key]
//! [value]` (lengths little-endian), written once when it is SET and
//! freed when it is overwritten or deleted. The bytes are the heap's
//! ([`ukalloc::Heap`]), so the backend the store was built with owns its
//! memory as well as its bookkeeping, and no entry costs the host heap
//! anything.
//!
//! **The index** is a power-of-two array of `u64` slots: a 32-bit hash
//! tag in the high half, the entry's 32-bit offset in the heap's region
//! in the low half, all ones for an empty slot. A key's chain starts at
//! slot `tag & mask` and runs by linear probing to the first empty slot;
//! a candidate whose tag matches is confirmed against the key bytes in
//! its block. The home slot is a function of the tag alone, so doubling
//! re-files every slot without reading a key — and doubling, at 7/8 load,
//! is the only host allocation after construction. A removal shifts the
//! rest of its chain back over the hole (Knuth's Algorithm R), so there
//! are no tombstones and a lookup always ends at an empty slot.
//!
//! Tags come from the store's own `RandomState` — SipHash under a key
//! drawn per store, as `HashMap` hashes — so a peer choosing keys cannot
//! aim them all at one chain.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use ukalloc::{AllocStats, Allocator, GpAddr, Heap};

/// Bytes in front of an entry's key: its two lengths.
const HEADER: usize = 8;
/// A slot with no entry. No entry packs to it: offsets stop below
/// `u32::MAX`.
const EMPTY: u64 = u64::MAX;
/// Slots an empty table starts with.
const INITIAL_SLOTS: usize = 16;

/// The entries and their index.
pub(crate) struct Table {
    heap: Heap,
    slots: Box<[u64]>,
    len: usize,
    hasher: RandomState,
}

/// The tag a slot was filed under (its home is `tag & mask`).
fn tag_of(slot: u64) -> usize {
    (slot >> 32) as usize
}

/// `n` empty slots.
// ukcheck: allow(alloc) -- the index's table: made once at construction, and again
// only when it doubles at 7/8 load
#[cold]
fn empty_slots(n: usize) -> Box<[u64]> {
    vec![EMPTY; n].into_boxed_slice()
}

impl Table {
    /// An empty table whose entries live in `alloc`'s region.
    pub(crate) fn new(alloc: Box<dyn Allocator>) -> Table {
        Table {
            heap: Heap::new(alloc),
            slots: empty_slots(INITIAL_SLOTS),
            len: 0,
            hasher: RandomState::new(),
        }
    }

    /// Keys stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The backend's statistics.
    pub(crate) fn stats(&self) -> AllocStats {
        self.heap.stats()
    }

    /// The value stored under `key`.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let slot = self.find(self.tag(key), key)?;
        self.entry(self.slots[slot]).map(|(_, val)| val)
    }

    /// Stores `val` under `key`: one new block, and the old one (if the
    /// key had a value) freed. `false`, with nothing changed, when the
    /// backend has no block for it.
    pub(crate) fn set(&mut self, key: &[u8], val: &[u8]) -> bool {
        let Some(off) = self.write(key, val) else {
            return false;
        };
        let tag = self.tag(key);
        let slot = (tag as u64) << 32 | u64::from(off);
        match self.find(tag, key) {
            Some(at) => {
                let old = std::mem::replace(&mut self.slots[at], slot);
                self.heap.free(self.addr(old));
            }
            None => self.insert(slot),
        }
        true
    }

    /// Removes `key` and frees its block; `false` if it was not stored.
    pub(crate) fn del(&mut self, key: &[u8]) -> bool {
        let Some(slot) = self.find(self.tag(key), key) else {
            return false;
        };
        let old = self.slots[slot];
        self.remove(slot);
        self.heap.free(self.addr(old));
        true
    }

    /// The slot holding `key` (whose tag is `tag`), if it is stored.
    fn find(&self, tag: usize, key: &[u8]) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = tag & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            if tag_of(slot) == tag && self.entry(slot).is_some_and(|(k, _)| k == key) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Files a new slot, doubling the table first if it would pass 7/8
    /// load.
    fn insert(&mut self, slot: u64) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        self.file(slot);
        self.len += 1;
    }

    /// Puts `slot` in the first empty slot of its chain.
    fn file(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut i = tag_of(slot) & mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    #[cold]
    fn grow(&mut self) {
        let doubled = empty_slots(self.slots.len() * 2);
        let old = std::mem::replace(&mut self.slots, doubled);
        for &slot in old.iter().filter(|&&s| s != EMPTY) {
            self.file(slot);
        }
    }

    /// Empties slot `at` and moves back every later slot of its run
    /// that may move: one whose home is not cyclically in
    /// `(hole, itself]`.
    fn remove(&mut self, at: usize) {
        let mask = self.slots.len() - 1;
        let (mut hole, mut j) = (at, at);
        loop {
            j = (j + 1) & mask;
            let slot = self.slots[j];
            if slot == EMPTY {
                break;
            }
            if j.wrapping_sub(tag_of(slot)) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    fn tag(&self, key: &[u8]) -> usize {
        (self.hasher.hash_one(key) >> 32) as usize
    }

    fn addr(&self, slot: u64) -> GpAddr {
        self.heap.region().0 + (slot & u64::from(u32::MAX))
    }

    /// Writes `key` and `val` into a new block; its offset in the
    /// region.
    fn write(&mut self, key: &[u8], val: &[u8]) -> Option<u32> {
        let (klen, vlen) = (u32::try_from(key.len()).ok()?, u32::try_from(val.len()).ok()?);
        let size = HEADER + key.len() + val.len();
        let at = self.heap.malloc(size)?;
        let off = u32::try_from(at - self.heap.region().0).ok().filter(|&off| off < u32::MAX);
        let (Some(off), Some(block)) = (off, self.heap.bytes_mut(at, size)) else {
            self.heap.free(at);
            return None;
        };
        let (head, body) = block.split_at_mut(HEADER);
        head[..4].copy_from_slice(&klen.to_le_bytes());
        head[4..].copy_from_slice(&vlen.to_le_bytes());
        let (k, v) = body.split_at_mut(key.len());
        k.copy_from_slice(key);
        v.copy_from_slice(val);
        Some(off)
    }

    /// The key and value of the entry `slot` points at.
    fn entry(&self, slot: u64) -> Option<(&[u8], &[u8])> {
        let at = self.addr(slot);
        let head = self.heap.bytes(at, HEADER)?;
        let len = |i: usize| head.get(i..i + 4)?.try_into().ok().map(u32::from_le_bytes);
        let (klen, vlen) = (len(0)? as usize, len(4)? as usize);
        let body = self.heap.bytes(at + HEADER as u64, klen + vlen)?;
        Some(body.split_at(klen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use ukalloc::AllocBackend;

    fn table() -> Table {
        let mut a = AllocBackend::Tlsf.instantiate();
        a.init(1 << 22, 1 << 20).unwrap();
        Table::new(a)
    }

    impl Table {
        /// Every entry is found from its home slot: no empty slot lies
        /// between the two, and the count is the slots in use.
        fn check(&self) {
            let mask = self.slots.len() - 1;
            let used: Vec<usize> =
                (0..self.slots.len()).filter(|&i| self.slots[i] != EMPTY).collect();
            assert_eq!(used.len(), self.len);
            assert!(self.len * 8 <= self.slots.len() * 7, "past 7/8 load");
            for &i in &used {
                let mut j = tag_of(self.slots[i]) & mask;
                while j != i {
                    assert_ne!(self.slots[j], EMPTY, "slot {i} cut off from its home");
                    j = (j + 1) & mask;
                }
            }
        }
    }

    /// Random SET/DEL runs over alphabets that keep the table at 16
    /// slots (chains wrap, deletes shift) and that take it through two
    /// doublings, checked against a map and the chain invariant.
    #[test]
    fn the_index_is_a_map_through_wraps_shifts_and_doublings() {
        for keys in [12u64, 50] {
            let (mut t, mut model) = (table(), HashMap::new());
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ keys;
            for step in 0..4000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = format!("key{}", x % keys).into_bytes();
                if x >> 60 < 10 {
                    let val = vec![step as u8; (x >> 40) as usize % 40];
                    assert!(t.set(&key, &val));
                    model.insert(key, val);
                } else {
                    assert_eq!(t.del(&key), model.remove(&key).is_some());
                }
                t.check();
                assert_eq!(t.len(), model.len());
            }
            for (k, v) in &model {
                assert_eq!(t.get(k), Some(&v[..]));
            }
            assert_eq!(t.stats().live(), model.len() as u64, "one block per key");
            let want_slots = if keys == 12 { 16 } else { 64 };
            assert_eq!(t.slots.len(), want_slots, "{keys} keys");
        }
    }
}
