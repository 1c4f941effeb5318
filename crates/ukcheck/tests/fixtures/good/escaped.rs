// Known-good: every violation carries a justified escape, in each of
// the three escape forms (trailing, standalone, fn-scoped).

pub struct Wire {
    // ukcheck: allow(shared-counter) -- every wire thread drops frames
    drops: ukstats::Counter,
}

// ukcheck: allow(alloc) -- constructor runs once at stack bring-up
pub fn new_table() -> Vec<u64> {
    Vec::with_capacity(64)
}

pub fn render(n: usize) -> String {
    // ukcheck: allow(alloc) -- cold diagnostics path, never per-frame
    format!("slot-{n}")
}

pub fn front(q: &[u8]) -> u8 {
    *q.first().unwrap() // ukcheck: allow(panic) -- caller checked is_empty
}
