//! The dispatch table and cost modes.

use std::collections::HashMap;

use ukplat::cost;
use ukplat::time::Tsc;
use ukplat::Errno;

/// Registers a syscall handler with a shim, by name.
///
/// The Rust analog of Unikraft's `UK_SYSCALL_R_DEFINE` macro.
///
/// # Examples
///
/// ```
/// use uksyscall::shim::{SyscallMode, SyscallShim};
/// use uksyscall::uk_syscall_register;
/// use ukplat::time::Tsc;
///
/// let tsc = Tsc::new(3_600_000_000);
/// let mut shim = SyscallShim::new(SyscallMode::UnikraftNative, &tsc);
/// uk_syscall_register!(shim, getpid, |_args| 42);
/// assert_eq!(shim.invoke_by_name("getpid", &[]).unwrap(), 42);
/// ```
#[macro_export]
macro_rules! uk_syscall_register {
    ($shim:expr, $name:ident, $handler:expr) => {{
        let nr = $crate::nr::syscall_nr(stringify!($name))
            .expect(concat!("unknown syscall name: ", stringify!($name)));
        $shim.register(nr, Box::new($handler));
    }};
}

/// How syscalls reach their implementation (Table 1's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallMode {
    /// Source-level Unikraft build: the shim generates a libc-level
    /// function and the "syscall" is a plain function call.
    UnikraftNative,
    /// Unikraft binary compatibility: the `syscall` instruction is
    /// trapped and translated at run time (84 cycles, Table 1).
    UnikraftBinCompat,
    /// Linux guest with default mitigations (KPTI etc.): 222 cycles.
    LinuxTrap,
    /// Linux guest with mitigations off: 154 cycles.
    LinuxTrapNoMitigations,
}

impl SyscallMode {
    /// The per-syscall entry/exit overhead in cycles (Table 1).
    pub(crate) fn overhead_cycles(self) -> u64 {
        match self {
            SyscallMode::UnikraftNative => cost::FUNCTION_CALL_CYCLES,
            SyscallMode::UnikraftBinCompat => cost::UNIKRAFT_SYSCALL_CYCLES,
            SyscallMode::LinuxTrap => cost::LINUX_SYSCALL_CYCLES,
            SyscallMode::LinuxTrapNoMitigations => cost::LINUX_SYSCALL_NOMIT_CYCLES,
        }
    }

    /// Display name used in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            SyscallMode::UnikraftNative => "Unikraft function call",
            SyscallMode::UnikraftBinCompat => "Unikraft/KVM system call",
            SyscallMode::LinuxTrap => "Linux/KVM system call",
            SyscallMode::LinuxTrapNoMitigations => "Linux/KVM system call (no mitigations)",
        }
    }
}

/// A syscall handler: raw args in, Linux-convention result out
/// (negative errno on failure).
pub(crate) type Handler = Box<dyn FnMut(&[u64]) -> i64>;

/// The syscall shim: dispatch table, cost accounting, ENOSYS stubbing.
pub struct SyscallShim {
    table: HashMap<u32, Handler>,
    mode: SyscallMode,
    tsc: Tsc,
    invocations: u64,
    enosys_hits: u64,
    /// Numbers that were called but unimplemented (for coverage reports).
    missing: Vec<u32>,
}

impl std::fmt::Debug for SyscallShim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyscallShim")
            .field("mode", &self.mode)
            .field("registered", &self.table.len())
            .field("invocations", &self.invocations)
            .finish()
    }
}

impl SyscallShim {
    /// Creates an empty shim in the given mode.
    pub fn new(mode: SyscallMode, tsc: &Tsc) -> Self {
        SyscallShim {
            table: HashMap::new(),
            mode,
            tsc: tsc.clone(),
            invocations: 0,
            enosys_hits: 0,
            missing: Vec::new(),
        }
    }

    /// Registers a handler for syscall `nr` (later registrations win,
    /// like link order in Unikraft).
    pub fn register(&mut self, nr: u32, handler: Handler) {
        self.table.insert(nr, handler);
    }

    /// Numbers with registered handlers.
    pub fn registered(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.table.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Invokes syscall `nr`, charging the mode's entry/exit cost and
    /// auto-stubbing missing implementations with `-ENOSYS`.
    pub fn invoke(&mut self, nr: u32, args: &[u64]) -> i64 {
        self.invocations += 1;
        self.tsc.advance(self.mode.overhead_cycles());
        match self.table.get_mut(&nr) {
            Some(h) => h(args),
            None => {
                self.enosys_hits += 1;
                if !self.missing.contains(&nr) {
                    self.missing.push(nr);
                }
                -i64::from(Errno::NoSys.code())
            }
        }
    }

    /// Invokes by name; `Err` if the name itself is unknown.
    pub fn invoke_by_name(&mut self, name: &str, args: &[u64]) -> Result<i64, Errno> {
        let nr = crate::nr::syscall_nr(name).ok_or(Errno::NoSys)?;
        Ok(self.invoke(nr, args))
    }

    /// Registers trivial success stubs for a set of syscalls — the
    /// "several can be quickly stubbed in a unikernel context" case
    /// (e.g. `getcpu` on a single CPU).
    pub fn stub_ok(&mut self, nrs: &[u32]) {
        for &nr in nrs {
            self.register(nr, Box::new(|_| 0));
        }
    }

    /// Current mode.
    pub fn mode(&self) -> SyscallMode {
        self.mode
    }

    /// Total invocations.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Calls that hit the ENOSYS auto-stub.
    pub fn enosys_hits(&self) -> u64 {
        self.enosys_hits
    }

    /// Distinct unimplemented numbers that were called.
    pub fn missing_syscalls(&self) -> &[u32] {
        &self.missing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tsc() -> Tsc {
        Tsc::new(cost::CPU_FREQ_HZ)
    }

    #[test]
    fn registered_handler_is_called() {
        let t = tsc();
        let mut s = SyscallShim::new(SyscallMode::UnikraftNative, &t);
        s.register(39, Box::new(|_| 1234)); // getpid
        assert_eq!(s.invoke(39, &[]), 1234);
        assert_eq!(s.invocations(), 1);
    }

    #[test]
    fn missing_syscall_returns_enosys() {
        let t = tsc();
        let mut s = SyscallShim::new(SyscallMode::UnikraftNative, &t);
        assert_eq!(s.invoke(284, &[]), -38); // eventfd → -ENOSYS
        assert_eq!(s.enosys_hits(), 1);
        assert_eq!(s.missing_syscalls(), &[284]);
    }

    #[test]
    fn cost_modes_match_table1() {
        for (mode, cycles) in [
            (SyscallMode::UnikraftNative, 4),
            (SyscallMode::UnikraftBinCompat, 84),
            (SyscallMode::LinuxTrapNoMitigations, 154),
            (SyscallMode::LinuxTrap, 222),
        ] {
            let t = tsc();
            let mut s = SyscallShim::new(mode, &t);
            s.register(39, Box::new(|_| 0));
            s.invoke(39, &[]);
            assert_eq!(t.now_cycles(), cycles, "{}", mode.name());
        }
    }

    #[test]
    fn macro_registration_works() {
        let t = tsc();
        let mut s = SyscallShim::new(SyscallMode::UnikraftNative, &t);
        uk_syscall_register!(s, write, |args: &[u64]| args
            .get(2)
            .map(|n| *n as i64)
            .unwrap_or(-1));
        assert_eq!(s.invoke_by_name("write", &[1, 0, 17]).unwrap(), 17);
    }

    #[test]
    fn stub_ok_registers_batch() {
        let t = tsc();
        let mut s = SyscallShim::new(SyscallMode::UnikraftNative, &t);
        s.stub_ok(&[102, 104, 107, 108]); // uid/gid family
        assert_eq!(s.invoke(102, &[]), 0);
        assert_eq!(s.enosys_hits(), 0);
    }

    #[test]
    fn unknown_name_is_error() {
        let t = tsc();
        let mut s = SyscallShim::new(SyscallMode::UnikraftNative, &t);
        assert_eq!(
            s.invoke_by_name("frobnicate", &[]).unwrap_err(),
            Errno::NoSys
        );
    }

    #[test]
    fn args_are_passed_through() {
        let t = tsc();
        let mut s = SyscallShim::new(SyscallMode::UnikraftNative, &t);
        s.register(8, Box::new(|args| (args[0] + args[1]) as i64)); // lseek
        assert_eq!(s.invoke(8, &[40, 2]), 42);
    }
}
