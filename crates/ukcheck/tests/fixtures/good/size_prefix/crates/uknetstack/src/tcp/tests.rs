//! Known-good: an out-of-line `mod tests;` under a hot directory. The
//! inner attribute marks the whole file as test code: it may unwrap
//! and allocate, and its lines are not the shipped file's.
#![cfg(test)]

use super::*;

#[test]
fn orders_across_the_wrap() {
    let v = vec![u32::MAX, 0];
    assert!(seq_lt(*v.first().unwrap(), *v.last().expect("two")));
}
