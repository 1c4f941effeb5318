// Known-bad for `unused-pub`: `orphan` and `ORPHAN_CAP` are `pub` and
// named by nothing outside `crates/uknetstack/src/` — the sibling module
// that calls `orphan` is inside, so it does not count. `used` is named
// by another crate and passes.
pub fn used() -> usize {
    orphan() + ORPHAN_CAP
}

pub fn orphan() -> usize {
    1
}

pub const ORPHAN_CAP: usize = 64;
