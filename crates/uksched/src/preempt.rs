//! Preemptive scheduler (`ukschedpreempt`).
//!
//! Quantum-based: a thread returning [`StepResult::Continue`] is forcibly
//! descheduled once its quantum of steps expires, paying the (higher)
//! preemptive context-switch cost — the "jitter caused by a scheduler
//! within the guest" the paper's run-to-completion configurations avoid.

use std::collections::{HashMap, VecDeque};

use ukplat::lcpu::Lcpu;
use ukplat::time::Tsc;
use ukplat::{Errno, Result};

use crate::thread::{StepResult, Thread, ThreadId, ThreadState};
use crate::Scheduler;

/// Default quantum, in thread steps.
pub(crate) const DEFAULT_QUANTUM: u64 = 8;

/// The preemptive scheduler over one logical CPU.
#[derive(Debug)]
pub struct PreemptScheduler {
    lcpu: Lcpu,
    tsc: Tsc,
    threads: HashMap<ThreadId, Thread>,
    runq: VecDeque<ThreadId>,
    next_id: u64,
    steps: u64,
    quantum: u64,
}

impl PreemptScheduler {
    /// Creates a scheduler with the default quantum.
    pub fn new(tsc: &Tsc) -> Self {
        Self::with_quantum(tsc, DEFAULT_QUANTUM)
    }

    /// Creates a scheduler with a custom quantum (steps).
    pub(crate) fn with_quantum(tsc: &Tsc, quantum: u64) -> Self {
        PreemptScheduler {
            lcpu: Lcpu::new(0, tsc),
            tsc: tsc.clone(),
            threads: HashMap::new(),
            runq: VecDeque::new(),
            next_id: 1,
            steps: 0,
            quantum: quantum.max(1),
        }
    }

    fn wake_sleepers(&mut self) {
        let now = self.tsc.cycles_to_ns(self.tsc.now_cycles());
        let due: Vec<ThreadId> = self
            .threads
            .iter()
            .filter_map(|(id, t)| match t.state {
                ThreadState::Sleeping(until) if until <= now => Some(*id),
                _ => None,
            })
            .collect();
        for id in due {
            if let Some(t) = self.threads.get_mut(&id) {
                t.state = ThreadState::Ready;
                self.runq.push_back(id);
            }
        }
    }

    fn idle_until_next_deadline(&mut self) -> bool {
        let next = self
            .threads
            .values()
            .filter_map(|t| match t.state {
                ThreadState::Sleeping(until) => Some(until),
                _ => None,
            })
            .min();
        match next {
            Some(deadline) => {
                let now = self.tsc.cycles_to_ns(self.tsc.now_cycles());
                if deadline > now {
                    self.tsc.advance_ns(deadline - now);
                }
                self.wake_sleepers();
                true
            }
            None => false,
        }
    }

    fn run_one(&mut self, budget: u64) -> Option<u64> {
        self.wake_sleepers();
        let id = loop {
            match self.runq.pop_front() {
                Some(id) => {
                    if matches!(
                        self.threads.get(&id).map(|t| t.state),
                        Some(ThreadState::Ready)
                    ) {
                        break id;
                    }
                }
                None => {
                    if self.idle_until_next_deadline() {
                        continue;
                    }
                    return None;
                }
            }
        };
        self.lcpu.switch_to(id.0, true);
        let t = self.threads.get_mut(&id).expect("thread exists");
        t.state = ThreadState::Running;
        let mut ran = 0;
        let quantum = self.quantum.min(budget);
        loop {
            if ran >= quantum {
                // Timer interrupt: forced preemption.
                t.state = ThreadState::Ready;
                self.runq.push_back(id);
                break;
            }
            let r = (t.step)();
            self.steps += 1;
            ran += 1;
            match r {
                StepResult::Continue => continue,
                StepResult::Yield => {
                    t.state = ThreadState::Ready;
                    self.runq.push_back(id);
                    break;
                }
                StepResult::Block => {
                    t.state = ThreadState::Blocked;
                    break;
                }
                StepResult::Sleep(ns) => {
                    let now = self.tsc.cycles_to_ns(self.tsc.now_cycles());
                    t.state = ThreadState::Sleeping(now + ns);
                    break;
                }
                StepResult::Exit => {
                    t.state = ThreadState::Exited;
                    break;
                }
            }
        }
        Some(ran)
    }
}

impl Scheduler for PreemptScheduler {
    fn spawn(&mut self, thread: Thread) -> ThreadId {
        let id = ThreadId(self.next_id);
        self.next_id += 1;
        self.threads.insert(id, thread);
        self.runq.push_back(id);
        id
    }

    fn wake(&mut self, id: ThreadId) -> Result<()> {
        let t = self.threads.get_mut(&id).ok_or(Errno::Inval)?;
        match t.state {
            ThreadState::Blocked | ThreadState::Sleeping(_) => {
                t.state = ThreadState::Ready;
                self.runq.push_back(id);
                Ok(())
            }
            ThreadState::Exited => Err(Errno::Inval),
            _ => Ok(()),
        }
    }

    fn run_to_idle(&mut self) -> u64 {
        let mut total = 0;
        while let Some(n) = self.run_one(u64::MAX) {
            total += n;
        }
        total
    }

    fn run_steps(&mut self, n: u64) -> u64 {
        let mut total = 0;
        while total < n {
            match self.run_one(n - total) {
                Some(k) => total += k,
                None => break,
            }
        }
        total
    }

    fn alive(&self) -> usize {
        self.threads
            .values()
            .filter(|t| t.state != ThreadState::Exited)
            .count()
    }

    fn context_switches(&self) -> u64 {
        self.lcpu.switch_count()
    }

    fn name(&self) -> &'static str {
        "ukschedpreempt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn tsc() -> Tsc {
        Tsc::new(1_000_000_000)
    }

    #[test]
    fn quantum_preempts_cpu_hog() {
        let t = tsc();
        let mut s = PreemptScheduler::with_quantum(&t, 2);
        let log = Rc::new(RefCell::new(Vec::new()));
        {
            let l = log.clone();
            let mut left = 4;
            s.spawn(Thread::new("hog", move || {
                if left == 0 {
                    return StepResult::Exit;
                }
                left -= 1;
                l.borrow_mut().push("hog");
                StepResult::Continue
            }));
        }
        {
            let l = log.clone();
            let mut done = false;
            s.spawn(Thread::new("meek", move || {
                if done {
                    return StepResult::Exit;
                }
                done = true;
                l.borrow_mut().push("meek");
                StepResult::Yield
            }));
        }
        s.run_to_idle();
        // Unlike the cooperative scheduler, meek runs before the hog ends.
        let log = log.borrow();
        let meek_pos = log.iter().position(|&n| n == "meek").unwrap();
        assert!(meek_pos < log.len() - 1, "meek preempted the hog: {log:?}");
    }

    #[test]
    fn preemptive_switches_cost_more_virtual_time() {
        let t_coop = tsc();
        let mut coop = crate::coop::CoopScheduler::new(&t_coop);
        coop.spawn(Thread::count_steps("a", 50));
        coop.spawn(Thread::count_steps("b", 50));
        coop.run_to_idle();

        let t_pre = tsc();
        let mut pre = PreemptScheduler::new(&t_pre);
        pre.spawn(Thread::count_steps("a", 50));
        pre.spawn(Thread::count_steps("b", 50));
        pre.run_to_idle();

        assert!(
            t_pre.now_cycles() > t_coop.now_cycles(),
            "preemptive jitter: {} vs coop {}",
            t_pre.now_cycles(),
            t_coop.now_cycles()
        );
    }

    #[test]
    fn sleep_and_wake_work_under_preemption() {
        let t = tsc();
        let mut s = PreemptScheduler::new(&t);
        let mut phase = 0;
        s.spawn(Thread::new("s", move || {
            phase += 1;
            match phase {
                1 => StepResult::Sleep(500),
                _ => StepResult::Exit,
            }
        }));
        s.run_to_idle();
        assert_eq!(s.alive(), 0);
    }

    #[test]
    fn invalid_wake_errors() {
        let t = tsc();
        let mut s = PreemptScheduler::new(&t);
        assert_eq!(s.wake(ThreadId(42)).unwrap_err(), Errno::Inval);
    }
}
