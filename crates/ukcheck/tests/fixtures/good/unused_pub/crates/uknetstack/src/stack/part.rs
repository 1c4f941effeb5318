// Known-good for `unused-pub`: every plain `pub` item here is named by a
// file outside `crates/uknetstack/src/` (the integration test beside
// this tree), the seams between the crate's own files say `pub(super)` /
// `pub(crate)`, and the one type nobody has to name says why it is `pub`.
pub struct NetStack {
    pub mss: usize,
}

impl NetStack {
    pub const fn new() -> Self {
        NetStack { mss: 1460 }
    }

    pub fn offloads(&self) -> Offloads {
        Offloads { tso: self.seam() }
    }

    pub(super) fn seam(&self) -> bool {
        self.mss > 0
    }

    pub(crate) fn crate_seam(&self) -> bool {
        true
    }
}

// ukcheck: allow(unused-pub) -- what the public `offloads()` returns:
// callers read its fields, none has to name the type
pub struct Offloads {
    pub tso: bool,
}

pub use self::inner::*;

mod inner {}
