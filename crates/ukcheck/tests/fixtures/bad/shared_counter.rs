// Known-bad: the stack's counters as they stood before it owned a
// `CounterSet` — every field a shared registry slot, every add a
// `lock`-prefixed RMW, though the stack is the only writer.
struct StackCounters {
    rx_frames: ukstats::Counter,
    tx_frames: ukstats::Counter,
    /// Wall-clock duration of one full `pump` sweep.
    pump_ns: ukstats::Histogram,
}

impl StackCounters {
    // ukcheck: allow(alloc) -- registration, once per stack
    fn register() -> Self {
        StackCounters {
            rx_frames: ukstats::Counter::register("netstack.rx_frames"),
            tx_frames: ukstats::Counter::register("netstack.tx_frames"),
            pump_ns: ukstats::Histogram::register("netstack.pump_ns"),
        }
    }
}
