#[test]
fn a_heap_has_bytes() {
    assert_eq!(ukalloc::heap_bytes(), 4096);
}
