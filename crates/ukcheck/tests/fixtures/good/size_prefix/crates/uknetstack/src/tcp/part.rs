// Known-good: a file under a directory entry of `SIZE_BUDGETS`
// (`crates/uknetstack/src/tcp/` -> 650 per file) that is inside the
// budget, and hot because the directory is in `HOT_DIRS`.
fn seq_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

#[cfg(test)]
mod tests;
