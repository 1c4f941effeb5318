// Another crate: what it names is API.
fn app() -> usize {
    uknetstack::stack::used()
}
