// The reference that keeps `NetStack`, `new` and `offloads` public: a
// test target is outside the crate.
#[test]
fn a_stack_reports_its_offloads() {
    assert!(NetStack::new().offloads().tso);
}
