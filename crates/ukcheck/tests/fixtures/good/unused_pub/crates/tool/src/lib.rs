// Known-good for `unused-pub`: the library of a crate that builds a
// binary. Only `main.rs` names `run`, and the crate is exempt: its
// library exists for that binary.
pub fn run() -> i32 {
    0
}
