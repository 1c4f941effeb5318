// Known-good for `unused-pub`: `heap_bytes` is named only by this
// crate's own `tests/`, which count as outside its `src/`.
pub fn heap_bytes() -> usize {
    4096
}
