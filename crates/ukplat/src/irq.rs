//! Simulated interrupt controller.
//!
//! `uknetdev` queues can run in interrupt mode: the driver enables the
//! queue's interrupt line when it runs dry, and the device raises the line
//! when new work arrives (§3.1 of the paper). This module provides the
//! line-level mechanics: registration, unmasking and raising.

use std::cell::RefCell;
use std::rc::Rc;

/// Number of interrupt lines our platforms expose.
pub(crate) const NLINES: usize = 64;

/// An interrupt handler. Returns `true` if it handled work.
pub(crate) type IrqHandler = Box<dyn Fn() -> bool>;

struct Line {
    handler: Option<IrqHandler>,
    enabled: bool,
}

impl std::fmt::Debug for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Line")
            .field("has_handler", &self.handler.is_some())
            .field("enabled", &self.enabled)
            .finish()
    }
}

/// The platform interrupt controller.
///
/// Cloning yields a handle to the same controller (devices and the boot
/// code share it).
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- what the public `Platform::irq` returns
pub struct IrqController {
    lines: Rc<RefCell<Vec<Line>>>,
}

impl IrqController {
    /// Creates a controller with `n` lines, all masked and unclaimed.
    pub fn new(n: usize) -> Self {
        let lines = (0..n)
            .map(|_| Line {
                handler: None,
                enabled: false,
            })
            .collect();
        IrqController {
            lines: Rc::new(RefCell::new(lines)),
        }
    }

    /// Registers `handler` on `line` and unmasks it.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range or already claimed — double
    /// registration is a driver bug, as in Unikraft.
    pub fn register(&self, line: usize, handler: IrqHandler) {
        let mut lines = self.lines.borrow_mut();
        let l = &mut lines[line];
        assert!(l.handler.is_none(), "IRQ line {line} already claimed");
        l.handler = Some(handler);
        l.enabled = true;
    }

    /// Unmasks `line` (device may fire).
    pub fn enable(&self, line: usize) {
        self.lines.borrow_mut()[line].enabled = true;
    }

    /// Raises `line`. If unmasked and a handler is registered, the handler
    /// runs immediately (simulating injection).
    ///
    /// Returns `true` if a handler ran.
    pub fn raise(&self, line: usize) -> bool {
        // Take the handler decision under the borrow, then run the handler
        // outside it so handlers can re-enter the controller.
        let run = {
            let l = &self.lines.borrow()[line];
            l.enabled && l.handler.is_some()
        };
        if run {
            self.run_handler(line);
        }
        run
    }

    fn run_handler(&self, line: usize) {
        // Move the handler out for the duration of the call so the
        // RefCell is not held across user code.
        let handler = self.lines.borrow_mut()[line].handler.take();
        if let Some(h) = handler {
            let _ = h();
            let mut lines = self.lines.borrow_mut();
            // Another registration while we ran would be a bug; restore.
            assert!(
                lines[line].handler.is_none(),
                "IRQ line {line} re-registered during dispatch"
            );
            lines[line].handler = Some(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn raise_runs_registered_handler() {
        let ctl = IrqController::new(4);
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        ctl.register(1, Box::new(move || {
            h.set(h.get() + 1);
            true
        }));
        assert!(ctl.raise(1));
        assert_eq!(hits.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_register_panics() {
        let ctl = IrqController::new(2);
        ctl.register(0, Box::new(|| true));
        ctl.register(0, Box::new(|| true));
    }

    #[test]
    fn handler_may_reenter_controller() {
        let ctl = IrqController::new(4);
        let c2 = ctl.clone();
        ctl.register(2, Box::new(move || {
            // Re-entering the controller must not deadlock.
            c2.enable(2);
            true
        }));
        assert!(ctl.raise(2));
        assert!(ctl.raise(2));
    }
}
