//! The scheduler: one run queue over one logical CPU, under either
//! policy (`ukschedcoop` or `ukschedpreempt`).
//!
//! A thread runs until it yields, blocks, sleeps or exits, or until its
//! quantum of steps runs out. Under [`SchedPolicy::Coop`] the quantum is
//! unbounded — the paper selects this scheduler for Redis "since it fits
//! well with Redis's single threaded approach" (§5.3) — so only the
//! caller's step budget ends a turn. Under [`SchedPolicy::Preempt`] a
//! thread returning [`StepResult::Continue`] is descheduled after
//! `DEFAULT_QUANTUM` (8) steps (the timer interrupt), and every switch pays
//! the higher preemptive context-switch cost: the "jitter caused by a
//! scheduler within the guest" that run-to-completion images avoid.

use std::collections::VecDeque;

use ukplat::lcpu::Lcpu;
use ukplat::time::Tsc;
use ukplat::{Errno, Result};

use crate::thread::{StepResult, Thread, ThreadId, ThreadState};
use crate::SchedPolicy;

/// `ukschedpreempt`'s quantum, in thread steps.
const DEFAULT_QUANTUM: u64 = 8;

/// A scheduler over one logical CPU.
#[derive(Debug)]
pub struct Scheduler {
    policy: SchedPolicy,
    /// Steps a thread may run before it is put back on the run queue.
    quantum: u64,
    lcpu: Lcpu,
    tsc: Tsc,
    /// Every thread ever spawned: `ThreadId(n)` is `threads[n - 1]`.
    threads: Vec<Thread>,
    runq: VecDeque<ThreadId>,
}

impl Scheduler {
    /// Creates the scheduler `policy` selects, on CPU 0 of the given TSC
    /// domain; [`SchedPolicy::None`] selects none.
    pub fn new(tsc: &Tsc, policy: SchedPolicy) -> Option<Self> {
        let quantum = match policy {
            SchedPolicy::None => return None,
            SchedPolicy::Coop => u64::MAX,
            SchedPolicy::Preempt => DEFAULT_QUANTUM,
        };
        Some(Scheduler {
            policy,
            quantum,
            lcpu: Lcpu::new(0, tsc),
            tsc: tsc.clone(),
            threads: Vec::new(),
            runq: VecDeque::new(),
        })
    }

    /// Adds a thread to the run queue, returning its id.
    pub fn spawn(&mut self, thread: Thread) -> ThreadId {
        self.threads.push(thread);
        let id = ThreadId(self.threads.len() as u64);
        self.runq.push_back(id);
        id
    }

    /// Wakes a blocked or sleeping thread.
    pub fn wake(&mut self, id: ThreadId) -> Result<()> {
        let t = self.thread_mut(id).ok_or(Errno::Inval)?;
        match t.state {
            ThreadState::Blocked | ThreadState::Sleeping(_) => t.state = ThreadState::Ready,
            ThreadState::Exited => return Err(Errno::Inval),
            _ => return Ok(()), // Already runnable.
        }
        self.runq.push_back(id);
        Ok(())
    }

    /// Runs until every thread has exited or everything is blocked.
    /// Returns the number of thread steps executed.
    pub fn run_to_idle(&mut self) -> u64 {
        let mut total = 0;
        while let Some(n) = self.run_one(u64::MAX) {
            total += n;
        }
        total
    }

    /// Executes at most `n` thread steps; returns how many ran.
    pub fn run_steps(&mut self, n: u64) -> u64 {
        let mut total = 0;
        while total < n {
            match self.run_one(n - total) {
                Some(k) => total += k,
                None => break,
            }
        }
        total
    }

    /// Number of threads not yet exited.
    pub fn alive(&self) -> usize {
        self.threads.iter().filter(|t| t.state != ThreadState::Exited).count()
    }

    /// Total context switches performed.
    pub fn context_switches(&self) -> u64 {
        self.lcpu.switch_count()
    }

    /// The policy's name for reports.
    pub fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn thread_mut(&mut self, id: ThreadId) -> Option<&mut Thread> {
        let i = usize::try_from(id.0.checked_sub(1)?).ok()?;
        self.threads.get_mut(i)
    }

    fn now_ns(&self) -> u64 {
        self.tsc.cycles_to_ns(self.tsc.now_cycles())
    }

    /// Queues the sleepers whose deadline has passed, earliest deadline
    /// first and, on a tie, in spawn order.
    fn wake_sleepers(&mut self) {
        let now = self.now_ns();
        let mut due: Vec<(u64, ThreadId)> = self
            .threads
            .iter_mut()
            .zip(1..)
            .filter_map(|(t, n)| match t.state {
                ThreadState::Sleeping(until) if until <= now => {
                    t.state = ThreadState::Ready;
                    Some((until, ThreadId(n)))
                }
                _ => None,
            })
            .collect();
        due.sort_unstable();
        self.runq.extend(due.into_iter().map(|(_, id)| id));
    }

    /// If everything is sleeping, advance virtual time to the earliest
    /// deadline (the idle loop programming the timer).
    fn idle_until_next_deadline(&mut self) -> bool {
        let next = self
            .threads
            .iter()
            .filter_map(|t| match t.state {
                ThreadState::Sleeping(until) => Some(until),
                _ => None,
            })
            .min();
        match next {
            Some(deadline) => {
                let now = self.now_ns();
                if deadline > now {
                    self.tsc.advance_ns(deadline - now);
                }
                self.wake_sleepers();
                true
            }
            None => false,
        }
    }

    /// Runs one thread until it gives up the CPU or has run
    /// `min(quantum, budget)` steps. Returns steps executed, or `None`
    /// if no thread was runnable.
    fn run_one(&mut self, budget: u64) -> Option<u64> {
        self.wake_sleepers();
        let id = loop {
            match self.runq.pop_front() {
                Some(id) => {
                    if matches!(self.thread_mut(id).map(|t| t.state), Some(ThreadState::Ready)) {
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
        self.lcpu.switch_to(id.0, self.policy == SchedPolicy::Preempt);
        let limit = self.quantum.min(budget);
        let t = &mut self.threads[(id.0 - 1) as usize];
        t.state = ThreadState::Running;
        let mut ran = 0;
        loop {
            if ran >= limit {
                // Out of budget, or the timer interrupt: back to the queue.
                t.state = ThreadState::Ready;
                self.runq.push_back(id);
                break;
            }
            let r = (t.step)();
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn tsc() -> Tsc {
        Tsc::new(1_000_000_000)
    }

    fn sched(t: &Tsc, policy: SchedPolicy) -> Scheduler {
        Scheduler::new(t, policy).expect("the policy has a scheduler")
    }

    /// Spawns a thread that logs `hog` for `steps` steps without
    /// yielding, then one that logs `meek` once and yields.
    fn spawn_hog_and_meek(s: &mut Scheduler, log: &Rc<RefCell<Vec<&'static str>>>, steps: u32) {
        {
            let l = log.clone();
            let mut left = steps;
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
    }

    #[test]
    fn no_policy_no_scheduler() {
        assert!(Scheduler::new(&tsc(), SchedPolicy::None).is_none());
        assert_eq!(sched(&tsc(), SchedPolicy::Coop).name(), "ukschedcoop");
        assert_eq!(sched(&tsc(), SchedPolicy::Preempt).name(), "ukschedpreempt");
    }

    #[test]
    fn round_robin_interleaves_yielding_threads() {
        let t = tsc();
        let mut s = sched(&t, SchedPolicy::Coop);
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
        let mut s = sched(&t, SchedPolicy::Coop);
        let log = Rc::new(RefCell::new(Vec::new()));
        spawn_hog_and_meek(&mut s, &log, 3);
        s.run_to_idle();
        // Cooperative: the hog runs all its steps before meek gets a turn.
        assert_eq!(&*log.borrow(), &["hog", "hog", "hog", "meek"]);
    }

    #[test]
    fn quantum_preempts_cpu_hog() {
        let t = tsc();
        let mut s = sched(&t, SchedPolicy::Preempt);
        s.quantum = 2;
        let log = Rc::new(RefCell::new(Vec::new()));
        spawn_hog_and_meek(&mut s, &log, 4);
        s.run_to_idle();
        // Unlike the cooperative scheduler, meek runs before the hog ends.
        let log = log.borrow();
        let meek_pos = log.iter().position(|&n| n == "meek").unwrap();
        assert!(meek_pos < log.len() - 1, "meek preempted the hog: {log:?}");
    }

    #[test]
    fn block_and_wake() {
        let t = tsc();
        let mut s = sched(&t, SchedPolicy::Coop);
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
        let mut s = sched(&t, SchedPolicy::Coop);
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
    fn sleep_and_wake_work_under_preemption() {
        let t = tsc();
        let mut s = sched(&t, SchedPolicy::Preempt);
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

    /// Six threads sleep for the same span, a seventh moves the clock
    /// past all six deadlines: they wake earliest deadline first, which
    /// is spawn order — every run, under either policy.
    #[test]
    fn sleepers_due_together_wake_in_deadline_order() {
        for policy in [SchedPolicy::Coop, SchedPolicy::Preempt] {
            for _ in 0..50 {
                let t = tsc();
                let mut s = sched(&t, policy);
                let log = Rc::new(RefCell::new(String::new()));
                for name in ["a", "b", "c", "d", "e", "f"] {
                    let l = log.clone();
                    let mut slept = false;
                    s.spawn(Thread::new(name, move || {
                        if slept {
                            l.borrow_mut().push_str(name);
                            return StepResult::Exit;
                        }
                        slept = true;
                        StepResult::Sleep(1_000)
                    }));
                }
                let clock = t.clone();
                let mut ticked = false;
                s.spawn(Thread::new("tick", move || {
                    if ticked {
                        return StepResult::Exit;
                    }
                    ticked = true;
                    clock.advance_ns(1_000_000);
                    StepResult::Yield
                }));
                s.run_to_idle();
                assert_eq!(*log.borrow(), "abcdef", "{}", policy.name());
            }
        }
    }

    #[test]
    fn wake_of_exited_thread_fails() {
        let t = tsc();
        let mut s = sched(&t, SchedPolicy::Coop);
        let id = s.spawn(Thread::new("x", || StepResult::Exit));
        s.run_to_idle();
        assert_eq!(s.wake(id).unwrap_err(), Errno::Inval);
    }

    #[test]
    fn invalid_wake_errors() {
        let t = tsc();
        let mut s = sched(&t, SchedPolicy::Preempt);
        assert_eq!(s.wake(ThreadId(42)).unwrap_err(), Errno::Inval);
    }

    #[test]
    fn context_switches_charged() {
        let t = tsc();
        let mut s = sched(&t, SchedPolicy::Coop);
        s.spawn(Thread::count_steps("a", 3));
        s.spawn(Thread::count_steps("b", 3));
        s.run_to_idle();
        assert!(s.context_switches() >= 6);
        assert!(t.now_cycles() > 0, "switch cost charged to TSC");
    }

    #[test]
    fn preemptive_switches_cost_more_virtual_time() {
        let t_coop = tsc();
        let mut coop = sched(&t_coop, SchedPolicy::Coop);
        coop.spawn(Thread::count_steps("a", 50));
        coop.spawn(Thread::count_steps("b", 50));
        coop.run_to_idle();

        let t_pre = tsc();
        let mut pre = sched(&t_pre, SchedPolicy::Preempt);
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
    fn run_steps_bounds_execution() {
        let t = tsc();
        let mut s = sched(&t, SchedPolicy::Coop);
        s.spawn(Thread::count_steps("a", 100));
        let ran = s.run_steps(10);
        assert_eq!(ran, 10);
        assert_eq!(s.alive(), 1);
    }
}
