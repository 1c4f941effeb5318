//! Scheduling micro-library (`uksched`).
//!
//! §3.3 of the paper: "scheduling in Unikraft is available but optional;
//! this enables building lightweight single-threaded unikernels or
//! run-to-completion unikernels, avoiding the jitter caused by a scheduler
//! within the guest". The platform provides only context switching and
//! timers ([`ukplat::lcpu`]); the *policy* lives here. There is one
//! [`Scheduler`], and the [`SchedPolicy`] a build selects decides what it
//! is:
//!
//! - [`SchedPolicy::Coop`] — cooperative round-robin (`ukschedcoop`): a
//!   thread runs until it yields, blocks, sleeps or exits;
//! - [`SchedPolicy::Preempt`] — the same run queue with a quantum
//!   (`ukschedpreempt`): a thread that keeps running is descheduled after
//!   8 steps, and every switch pays the preemptive context-switch cost;
//! - [`SchedPolicy::None`] — no scheduler at all ([`Scheduler::new`]
//!   builds none): a single run-to-completion context, the configuration
//!   the paper's specialized VNF and UDP-server images use (§6.4).
//!
//! Threads are step-based state machines: the scheduler repeatedly invokes
//! the current thread's step function, which reports whether it yielded,
//! blocked, slept, kept running, or exited. This models the control flow
//! of real green threads without machine context switching; every switch
//! still pays the platform's context-switch cost on the virtual TSC.
//! Everything a run does is deterministic: sleepers that come due together
//! wake earliest deadline first and, on a tie, in spawn order.

mod scheduler;
pub mod thread;
pub(crate) mod waitq;

pub use scheduler::Scheduler;
pub use thread::{StepResult, Thread, ThreadId, ThreadState};
pub use waitq::WaitQueue;

/// Which scheduler micro-library a build selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// No scheduler: single run-to-completion context.
    None,
    /// Cooperative round-robin.
    Coop,
    /// Preemptive, quantum-based.
    Preempt,
}

impl SchedPolicy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::None => "none (run-to-completion)",
            SchedPolicy::Coop => "ukschedcoop",
            SchedPolicy::Preempt => "ukschedpreempt",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names() {
        assert!(SchedPolicy::Coop.name().contains("coop"));
        assert!(SchedPolicy::None.name().contains("run-to-completion"));
        assert!(SchedPolicy::Preempt.name().contains("preempt"));
    }
}
