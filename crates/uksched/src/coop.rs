//! Cooperative round-robin scheduler (`ukschedcoop`).
//!
//! The paper selects this scheduler for Redis "since it fits well with
//! Redis's single threaded approach" (§5.3): threads run until they yield,
//! block, sleep or exit; there is no preemption and thus no timer jitter.

use std::collections::{HashMap, VecDeque};

use ukplat::lcpu::Lcpu;
use ukplat::time::Tsc;
use ukplat::{Errno, Result};

use crate::thread::{StepResult, Thread, ThreadId, ThreadState};
use crate::Scheduler;

/// The cooperative scheduler over one logical CPU.
#[derive(Debug)]
pub struct CoopScheduler {
    lcpu: Lcpu,
    tsc: Tsc,
    threads: HashMap<ThreadId, Thread>,
    runq: VecDeque<ThreadId>,
    next_id: u64,
    steps: u64,
}

impl CoopScheduler {
    /// Creates a scheduler on CPU 0 of the given TSC domain.
    pub fn new(tsc: &Tsc) -> Self {
        CoopScheduler {
            lcpu: Lcpu::new(0, tsc),
            tsc: tsc.clone(),
            threads: HashMap::new(),
            runq: VecDeque::new(),
            next_id: 1,
            steps: 0,
        }
    }

    /// Wakes sleepers whose deadline has passed.
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

    /// If everything is sleeping, advance virtual time to the earliest
    /// deadline (the idle loop programming the timer).
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

    /// Runs one thread until it gives up the CPU. Returns steps executed,
    /// or `None` if no thread was runnable.
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
                    // Stale queue entry (woken twice, etc.); skip.
                }
                None => {
                    if self.idle_until_next_deadline() {
                        continue;
                    }
                    return None;
                }
            }
        };
        self.lcpu.switch_to(id.0, false);
        let t = self.threads.get_mut(&id).expect("thread exists");
        t.state = ThreadState::Running;
        let mut ran = 0;
        loop {
            if ran >= budget {
                // Out of step budget: put the thread back as ready.
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

impl Scheduler for CoopScheduler {
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
            _ => Ok(()), // Already runnable.
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
        "ukschedcoop"
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
    fn round_robin_interleaves_yielding_threads() {
        let t = tsc();
        let mut s = CoopScheduler::new(&t);
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let l = log.clone();
            let mut left = 2;
            s.spawn(Thread::new(name, move || {
                if left == 0 {
                    return StepResult::Exit;
                }
                left -= 1;
                l.borrow_mut().push(name);
                StepResult::Yield
            }));
        }
        s.run_to_idle();
        assert_eq!(&*log.borrow(), &["a", "b", "a", "b"]);
        assert_eq!(s.alive(), 0);
    }

    #[test]
    fn continue_keeps_thread_on_cpu() {
        let t = tsc();
        let mut s = CoopScheduler::new(&t);
        let log = Rc::new(RefCell::new(Vec::new()));
        {
            let l = log.clone();
            let mut left = 3;
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
        // Cooperative: the hog runs all its steps before meek gets a turn.
        assert_eq!(&*log.borrow(), &["hog", "hog", "hog", "meek"]);
    }

    #[test]
    fn block_and_wake() {
        let t = tsc();
        let mut s = CoopScheduler::new(&t);
        let mut first = true;
        let id = s.spawn(Thread::new("b", move || {
            if first {
                first = false;
                StepResult::Block
            } else {
                StepResult::Exit
            }
        }));
        s.run_to_idle();
        assert_eq!(s.alive(), 1, "blocked thread still alive");
        s.wake(id).unwrap();
        s.run_to_idle();
        assert_eq!(s.alive(), 0);
    }

    #[test]
    fn sleep_advances_virtual_clock_when_idle() {
        let t = tsc();
        let mut s = CoopScheduler::new(&t);
        let mut slept = false;
        s.spawn(Thread::new("sleeper", move || {
            if slept {
                StepResult::Exit
            } else {
                slept = true;
                StepResult::Sleep(1_000_000)
            }
        }));
        s.run_to_idle();
        assert_eq!(s.alive(), 0);
        assert!(t.cycles_to_ns(t.now_cycles()) >= 1_000_000);
    }

    #[test]
    fn wake_of_exited_thread_fails() {
        let t = tsc();
        let mut s = CoopScheduler::new(&t);
        let id = s.spawn(Thread::new("x", || StepResult::Exit));
        s.run_to_idle();
        assert_eq!(s.wake(id).unwrap_err(), Errno::Inval);
    }

    #[test]
    fn context_switches_charged() {
        let t = tsc();
        let mut s = CoopScheduler::new(&t);
        s.spawn(Thread::count_steps("a", 3));
        s.spawn(Thread::count_steps("b", 3));
        s.run_to_idle();
        assert!(s.context_switches() >= 6);
        assert!(t.now_cycles() > 0, "switch cost charged to TSC");
    }

    #[test]
    fn run_steps_bounds_execution() {
        let t = tsc();
        let mut s = CoopScheduler::new(&t);
        s.spawn(Thread::count_steps("a", 100));
        let ran = s.run_steps(10);
        assert_eq!(ran, 10);
        assert_eq!(s.alive(), 1);
    }
}
