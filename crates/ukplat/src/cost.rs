//! Calibrated cost constants.
//!
//! Every host-side cost the simulation charges lives here, with its source.
//! The paper's testbed is an Intel i7-9700K at 3.6 GHz (4.9 GHz turbo); the
//! paper's own Table 1 gives syscall and function-call costs measured on
//! that machine, which we adopt verbatim. Remaining constants are
//! order-of-magnitude figures from the cited literature (Firecracker paper,
//! vhost documentation) chosen so that the *relative* shapes of the figures
//! are preserved; absolute values are not claimed to match silicon.

/// CPU frequency used for all cycle/ns conversions (paper testbed: 3.6 GHz).
pub const CPU_FREQ_HZ: u64 = 3_600_000_000;

/// Cost of a guest function call (paper Table 1: 4 cycles / 1.11 ns).
pub const FUNCTION_CALL_CYCLES: u64 = 4;

/// Cost of a Unikraft "system call" — a plain function call through the
/// syscall shim plus argument marshalling (paper Table 1: 84 cycles).
pub const UNIKRAFT_SYSCALL_CYCLES: u64 = 84;

/// Cost of a Linux system call with default mitigations, i.e. KPTI and
/// friends enabled (paper Table 1: 222 cycles / 61.67 ns).
pub const LINUX_SYSCALL_CYCLES: u64 = 222;

/// Cost of a Linux system call with mitigations disabled
/// (paper Table 1: 154 cycles / 42.78 ns).
pub const LINUX_SYSCALL_NOMIT_CYCLES: u64 = 154;

/// Cost of a VM exit + entry pair (hypercall/kick). Literature figure for
/// modern Intel hardware; used for every para-virtual device notification.
pub const VMEXIT_CYCLES: u64 = 1_200;

/// Per-byte cost (in picocycles-ish granularity we fold into per-64B) for
/// host-side copies; expressed per 64-byte cache line.
pub(crate) const HOST_COPY_CYCLES_PER_64B: u64 = 11;

/// Cost of an interrupt injection into the guest.
pub const IRQ_INJECT_CYCLES: u64 = 2_000;

/// vhost-net: host-kernel backend processes a batch of packets after a
/// single kick; per-packet processing cost in the host kernel path
/// (tap device + bridge).
pub const VHOST_NET_PKT_CYCLES: u64 = 720;

/// vhost-user: DPDK-style userspace backend polls shared memory; no kick
/// and no copy, only a small per-packet descriptor handling cost.
pub const VHOST_USER_PKT_CYCLES: u64 = 150;

/// DPDK guest per-packet TX cost (driver + PMD) used for the
/// "DPDK in a Linux VM" baseline of Figure 19/Table 4.
pub const DPDK_GUEST_PKT_CYCLES: u64 = 160;

/// 9P (virtio-9p) per-message base latency charged on the host side:
/// request parsing, host VFS access, reply construction.
pub const P9_MSG_BASE_CYCLES: u64 = 9_000;

/// Xen adds a grant-table map/unmap per 9pfs message.
pub const XEN_GRANT_CYCLES: u64 = 4_000;

/// Linux guest block/file read path adds the full VFS + page-cache +
/// virtio-blk round trip; per-request extra cost relative to Unikraft's
/// slim path (shape source: paper Fig 20 where Linux latency is
/// consistently above Unikraft's).
pub const LINUX_GUEST_FILE_REQ_CYCLES: u64 = 22_000;

/// Context switch between cooperative threads (register save/restore and
/// stack switch; Unikraft's is a handful of instructions).
pub(crate) const CTX_SWITCH_COOP_CYCLES: u64 = 60;

/// Context switch under the preemptive scheduler (adds timer IRQ handling
/// and preemption bookkeeping).
pub(crate) const CTX_SWITCH_PREEMPT_CYCLES: u64 = 400;

/// Converts a cycle count at [`CPU_FREQ_HZ`] to nanoseconds (f64 helper for
/// report printing).
pub fn cycles_to_ns_f64(cycles: u64) -> f64 {
    cycles as f64 * 1e9 / CPU_FREQ_HZ as f64
}

/// Host-side copy cost for `bytes` of data (line-granular).
pub fn copy_cost_cycles(bytes: usize) -> u64 {
    let lines = (bytes as u64).div_ceil(64);
    lines * HOST_COPY_CYCLES_PER_64B
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants_match_paper() {
        // The paper reports 61.67 ns for 222 cycles at 3.6 GHz.
        let ns = cycles_to_ns_f64(LINUX_SYSCALL_CYCLES);
        assert!((ns - 61.67).abs() < 0.1, "got {ns}");
        let ns = cycles_to_ns_f64(UNIKRAFT_SYSCALL_CYCLES);
        assert!((ns - 23.33).abs() < 0.1, "got {ns}");
        let ns = cycles_to_ns_f64(FUNCTION_CALL_CYCLES);
        assert!((ns - 1.11).abs() < 0.01, "got {ns}");
    }

    #[test]
    fn copy_cost_is_line_granular() {
        assert_eq!(copy_cost_cycles(0), 0);
        assert_eq!(copy_cost_cycles(1), HOST_COPY_CYCLES_PER_64B);
        assert_eq!(copy_cost_cycles(64), HOST_COPY_CYCLES_PER_64B);
        assert_eq!(copy_cost_cycles(65), 2 * HOST_COPY_CYCLES_PER_64B);
        assert_eq!(copy_cost_cycles(4096), 64 * HOST_COPY_CYCLES_PER_64B);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn relative_order_of_syscall_costs() {
        assert!(FUNCTION_CALL_CYCLES < UNIKRAFT_SYSCALL_CYCLES);
        assert!(UNIKRAFT_SYSCALL_CYCLES < LINUX_SYSCALL_NOMIT_CYCLES);
        assert!(LINUX_SYSCALL_NOMIT_CYCLES < LINUX_SYSCALL_CYCLES);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn vhost_user_cheaper_than_vhost_net() {
        assert!(VHOST_USER_PKT_CYCLES < VHOST_NET_PKT_CYCLES);
    }
}
