use fixture_rs::sync::Mutex;

#[test]
fn locks() {
    let _ = Mutex;
}
