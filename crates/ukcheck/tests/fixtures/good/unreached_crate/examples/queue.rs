fn main() {
    let _queue = fixture_rs::event::Queue;
}
