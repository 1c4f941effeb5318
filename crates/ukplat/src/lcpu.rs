//! Logical CPU abstraction.
//!
//! Unikraft's `plat` layer provides only the raw mechanisms a scheduler
//! needs — context save/restore and a timer — while scheduling *policy*
//! lives in `uksched` micro-libraries. This module models the mechanism
//! side: a logical CPU with a current context and a context-switch
//! primitive that charges its real-world cost.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cost;
use crate::time::Tsc;

/// Identifier of a thread context known to the platform.
pub(crate) type CtxId = u64;

#[derive(Debug)]
struct LcpuInner {
    current: CtxId,
    switches: u64,
}

/// A logical CPU.
///
/// Each scheduler instance in `uksched` owns one `Lcpu` — the paper notes
/// that Unikraft can instantiate one scheduler per virtual CPU.
#[derive(Debug, Clone)]
pub struct Lcpu {
    id: u32,
    tsc: Tsc,
    inner: Rc<RefCell<LcpuInner>>,
}

impl Lcpu {
    /// Creates logical CPU `id` running bootstrap context 0.
    pub fn new(id: u32, tsc: &Tsc) -> Self {
        Lcpu {
            id,
            tsc: tsc.clone(),
            inner: Rc::new(RefCell::new(LcpuInner {
                current: 0,
                switches: 0,
            })),
        }
    }

    /// This CPU's index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The context currently executing.
    pub fn current(&self) -> CtxId {
        self.inner.borrow().current
    }

    /// Switches to `next`, charging the cooperative or preemptive
    /// context-switch cost to the TSC.
    pub fn switch_to(&self, next: CtxId, preemptive: bool) {
        let mut inner = self.inner.borrow_mut();
        if inner.current == next {
            return;
        }
        inner.current = next;
        inner.switches += 1;
        let c = if preemptive {
            cost::CTX_SWITCH_PREEMPT_CYCLES
        } else {
            cost::CTX_SWITCH_COOP_CYCLES
        };
        self.tsc.advance(c);
    }

    /// Number of context switches performed so far.
    pub fn switch_count(&self) -> u64 {
        self.inner.borrow().switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tsc() -> Tsc {
        Tsc::new(1_000_000_000)
    }

    #[test]
    fn switch_changes_current_and_charges() {
        let t = tsc();
        let cpu = Lcpu::new(0, &t);
        assert_eq!(cpu.current(), 0);
        cpu.switch_to(7, false);
        assert_eq!(cpu.current(), 7);
        assert_eq!(cpu.switch_count(), 1);
        assert_eq!(t.now_cycles(), cost::CTX_SWITCH_COOP_CYCLES);
    }

    #[test]
    fn switch_to_self_is_free() {
        let t = tsc();
        let cpu = Lcpu::new(0, &t);
        cpu.switch_to(0, false);
        assert_eq!(cpu.switch_count(), 0);
        assert_eq!(t.now_cycles(), 0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn preemptive_switch_costs_more() {
        let t = tsc();
        let cpu = Lcpu::new(0, &t);
        cpu.switch_to(1, true);
        assert_eq!(t.now_cycles(), cost::CTX_SWITCH_PREEMPT_CYCLES);
        assert!(cost::CTX_SWITCH_PREEMPT_CYCLES > cost::CTX_SWITCH_COOP_CYCLES);
    }
}
