//! Synchronization micro-library (`uklock`).
//!
//! §3.3 of the paper: `uklock` provides mutexes and semaphores whose
//! implementation is selected by the unikernel configuration. In the
//! simplest case (no threading) the primitives compile out entirely; our
//! [`LockConfig`] reproduces that selection and the primitives record
//! whether they actually perform work.

pub mod mutex;
pub mod semaphore;

pub use mutex::Mutex;
pub use semaphore::Semaphore;

/// Build-time lock configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockConfig {
    /// Whether the image contains a scheduler / more than one thread.
    pub threading: bool,
}

impl LockConfig {
    /// Single-threaded: everything compiles out.
    pub const BARE: LockConfig = LockConfig { threading: false };
    /// Threaded: counting state, no atomics needed.
    pub const THREADED: LockConfig = LockConfig { threading: true };

    /// Whether mutual exclusion state is needed at all.
    pub(crate) fn needs_state(&self) -> bool {
        self.threading
    }
}

impl Default for LockConfig {
    fn default() -> Self {
        LockConfig::THREADED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_config_compiles_out() {
        assert!(!LockConfig::BARE.needs_state());
    }

    #[test]
    fn threaded_keeps_state() {
        assert!(LockConfig::THREADED.needs_state());
    }
}
