//! Scheduling micro-library (`uksched`).
//!
//! §3.3 of the paper: "scheduling in Unikraft is available but optional;
//! this enables building lightweight single-threaded unikernels or
//! run-to-completion unikernels, avoiding the jitter caused by a scheduler
//! within the guest". The platform provides only context switching and
//! timers ([`ukplat::lcpu`]); the *policy* lives here as interchangeable
//! micro-libraries:
//!
//! - [`coop::CoopScheduler`] — cooperative round-robin (`ukschedcoop`);
//! - [`preempt::PreemptScheduler`] — quantum-based preemptive scheduler;
//! - [`SchedPolicy::None`] — no scheduler at all: a single
//!   run-to-completion context, the configuration the paper's specialized
//!   VNF and UDP-server images use (§6.4).
//!
//! Threads are step-based state machines: the scheduler repeatedly invokes
//! the current thread's step function, which reports whether it yielded,
//! blocked, slept, kept running, or exited. This models the control flow
//! of real green threads without machine context switching; every switch
//! still pays the platform's context-switch cost on the virtual TSC.

pub(crate) mod coop;
pub mod preempt;
pub mod thread;
pub(crate) mod waitq;

pub use coop::CoopScheduler;
pub use preempt::PreemptScheduler;
pub use thread::{StepResult, Thread, ThreadId, ThreadState};
pub use waitq::WaitQueue;

use ukplat::Result;

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

/// The `uksched` API every scheduler implements.
pub trait Scheduler {
    /// Adds a thread to the run queue, returning its id.
    fn spawn(&mut self, thread: Thread) -> ThreadId;

    /// Wakes a blocked thread.
    fn wake(&mut self, id: ThreadId) -> Result<()>;

    /// Runs until every thread has exited or everything is blocked.
    /// Returns the number of thread steps executed.
    fn run_to_idle(&mut self) -> u64;

    /// Executes at most `n` thread steps; returns how many ran.
    fn run_steps(&mut self, n: u64) -> u64;

    /// Number of threads not yet exited.
    fn alive(&self) -> usize;

    /// Total context switches performed.
    fn context_switches(&self) -> u64;

    /// Scheduler name for reports.
    fn name(&self) -> &'static str;
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
