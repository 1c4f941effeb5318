//! Step-based threads.

use std::fmt;

/// Thread identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u64);

/// What a thread's step function reports back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// More work immediately available; a cooperative scheduler keeps the
    /// thread running, a preemptive one may interrupt it.
    Continue,
    /// Thread voluntarily yields the CPU.
    Yield,
    /// Thread blocks until [`Scheduler::wake`](crate::Scheduler::wake).
    Block,
    /// Thread sleeps for the given virtual nanoseconds.
    Sleep(u64),
    /// Thread is done.
    Exit,
}

/// Lifecycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// ukcheck: allow(unused-pub) -- what the public `Thread::state` returns
pub enum ThreadState {
    /// In the run queue.
    Ready,
    /// Currently executing.
    Running,
    /// Waiting for a wake.
    Blocked,
    /// Sleeping until the given virtual time (ns).
    Sleeping(u64),
    /// Finished.
    Exited,
}

/// A green thread: a name, a step function, bookkeeping.
pub struct Thread {
    pub(crate) name: String,
    pub(crate) step: Box<dyn FnMut() -> StepResult>,
    pub(crate) state: ThreadState,
}

impl fmt::Debug for Thread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Thread")
            .field("name", &self.name)
            .field("state", &self.state)
            .finish()
    }
}

impl Thread {
    /// Creates a thread from a step function.
    pub fn new(name: impl Into<String>, step: impl FnMut() -> StepResult + 'static) -> Self {
        Thread {
            name: name.into(),
            step: Box::new(step),
            state: ThreadState::Ready,
        }
    }

    /// A thread that runs `n` steps then exits, yielding between steps.
    pub fn count_steps(name: impl Into<String>, n: u64) -> Self {
        let mut left = n;
        Thread::new(name, move || {
            if left == 0 {
                StepResult::Exit
            } else {
                left -= 1;
                StepResult::Yield
            }
        })
    }

    /// Thread name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current state.
    pub fn state(&self) -> ThreadState {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_steps_thread_exits_after_n() {
        let mut t = Thread::count_steps("t", 2);
        assert_eq!((t.step)(), StepResult::Yield);
        assert_eq!((t.step)(), StepResult::Yield);
        assert_eq!((t.step)(), StepResult::Exit);
    }

    #[test]
    fn new_threads_are_ready() {
        let t = Thread::new("x", || StepResult::Exit);
        assert_eq!(t.state(), ThreadState::Ready);
        assert_eq!(t.name(), "x");
    }
}
