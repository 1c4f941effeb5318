//! Table 1 microbenchmark helpers: real function-call and syscall costs.
//!
//! Where the host allows it (x86_64 Linux), `real_getpid_ns` issues an
//! actual `SYS_getpid` via the `syscall` instruction so the measured
//! Linux row of Table 1 is genuine; the function-call row is always
//! measured for real. The modelled rows come from
//! [`SyscallMode::overhead_cycles`](crate::shim::SyscallMode).

use std::hint::black_box;
use std::time::Instant;

/// A deliberately un-inlinable no-op function (the "function call" row).
#[inline(never)]
fn noop_function(x: u64) -> u64 {
    black_box(x)
}

/// Measures the average cost of a no-op function call over `iters`
/// iterations, in nanoseconds.
pub fn function_call_ns(iters: u64) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_add(noop_function(black_box(i)));
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Issues one real `getpid` syscall via the `syscall` instruction.
///
/// Returns `None` on non-x86_64 or non-Linux hosts.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn raw_getpid() -> Option<i64> {
    let ret: i64;
    // SAFETY: SYS_getpid (39) takes no arguments, cannot fail, and only
    // clobbers the registers listed; issuing it has no side effects.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 39i64 => ret,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags)
        );
    }
    Some(ret)
}

/// Fallback for other targets.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn raw_getpid() -> Option<i64> {
    None
}

/// Measures the average cost of a real `getpid` syscall, ns; `None` when
/// raw syscalls are unavailable.
pub fn real_getpid_ns(iters: u64) -> Option<f64> {
    raw_getpid()?;
    let start = Instant::now();
    for _ in 0..iters {
        black_box(raw_getpid());
    }
    Some(start.elapsed().as_nanos() as f64 / iters as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_call_is_fast() {
        let ns = function_call_ns(100_000);
        // Generous bound: a no-op call is well under 100 ns even in CI.
        assert!(ns < 100.0, "function call took {ns} ns");
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn raw_getpid_matches_std() {
        let pid = raw_getpid().unwrap();
        assert_eq!(pid as u32, std::process::id());
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn syscall_costs_more_than_function_call() {
        let f = function_call_ns(50_000);
        let s = real_getpid_ns(50_000).unwrap();
        assert!(
            s > f,
            "syscall ({s} ns) must cost more than a function call ({f} ns)"
        );
    }
}
