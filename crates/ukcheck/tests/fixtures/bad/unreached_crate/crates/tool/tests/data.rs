#[test]
fn reads_the_fixture() {
    orphan::fixture_data();
}
