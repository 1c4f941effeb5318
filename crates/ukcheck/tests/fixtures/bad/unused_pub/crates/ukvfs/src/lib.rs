// Known-bad for `unused-pub`: a second library crate. The rule holds in
// every `crates/<c>/src/`, and nothing outside this one names `unmount`.
pub fn unmount() -> usize {
    0
}
