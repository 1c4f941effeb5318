// Names two of the four dependencies; the other two are edges for nothing.
fn now() -> u64 {
    ukplat::now() + uk_stats::count()
}
