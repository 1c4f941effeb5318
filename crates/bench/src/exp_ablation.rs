//! Ablations of the design choices DESIGN.md calls out.
//!
//! Beyond the paper's own figures, these isolate the contribution of
//! individual mechanisms:
//!
//! - `ablate-batch`: TX burst-size sweep — how much of Table 4's win is
//!   batching alone (kick amortization under vhost-net);
//! - `ablate-sched`: cooperative vs preemptive scheduler overhead for a
//!   run-to-completion-style workload (§3.3's jitter argument).

use uknetdev::backend::VhostKind;
use ukplat::time::Tsc;
use uksched::{SchedPolicy, Scheduler, Thread};

use crate::exp_io::tx_rate;
use crate::util::fmt_rate;

/// Burst-size sweep: one kick per burst means bigger bursts amortize
/// the VM exit. Reports packets/s per burst size under vhost-net.
pub fn ablate_batching() -> String {
    const PACKETS: usize = 50_000;
    let mut out = String::new();
    out.push_str("Ablation: TX burst size vs throughput (vhost-net, 64B)\n");
    out.push_str(&format!("{:<12} {:>14} {:>12}\n", "burst", "throughput", "kicks"));
    for burst in [1usize, 2, 4, 8, 16, 32, 64] {
        let (rate, kicks) = tx_rate(VhostKind::VhostNet, 64, burst, PACKETS);
        out.push_str(&format!(
            "{:<12} {:>14} {:>12}\n",
            burst,
            fmt_rate(rate),
            kicks
        ));
    }
    out.push_str("take-away: kicks fall 1/burst; throughput rises until per-packet costs dominate\n");
    out
}

/// Scheduler overhead: the same step workload under coop vs preempt.
pub fn ablate_scheduler() -> String {
    const THREADS: usize = 8;
    const STEPS: u64 = 5_000;
    let mut out = String::new();
    out.push_str("Ablation: cooperative vs preemptive scheduler (virtual cycles)\n");
    let mut cycles = [0u64; 2];
    for (policy, spent) in [SchedPolicy::Coop, SchedPolicy::Preempt].into_iter().zip(&mut cycles) {
        let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
        let mut sched = Scheduler::new(&tsc, policy).expect("the policy has a scheduler");
        for i in 0..THREADS {
            sched.spawn(Thread::count_steps(format!("w{i}"), STEPS));
        }
        sched.run_to_idle();
        *spent = tsc.now_cycles();
        out.push_str(&format!(
            "{:<14} {:>14} cycles {:>10} switches\n",
            sched.name(),
            *spent,
            sched.context_switches()
        ));
    }
    let [coop_cycles, pre_cycles] = cycles;
    out.push_str(&format!(
        "take-away: preemption costs {:.1}x the scheduling cycles — the jitter\n\
         run-to-completion images avoid entirely (0 cycles)\n",
        pre_cycles as f64 / coop_cycles.max(1) as f64
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_ablation_monotone_kicks() {
        let t = ablate_batching();
        assert!(t.contains("burst"));
        assert!(t.contains("take-away"));
    }

    #[test]
    fn scheduler_ablation_shows_preempt_cost() {
        // 8 threads x 5000 yielding steps: 40 008 switches under either
        // policy, each charged at the policy's context-switch cost.
        let t = ablate_scheduler();
        assert!(
            t.contains("ukschedcoop           2400480 cycles      40008 switches\n"),
            "{t}"
        );
        assert!(
            t.contains("ukschedpreempt       16003200 cycles      40008 switches\n"),
            "{t}"
        );
        assert!(t.contains("preemption costs 6.7x"), "{t}");
    }
}
