//! VMM (virtual machine monitor) models.
//!
//! Figure 10 of the paper splits total boot time into "VMM" and "Unikraft
//! guest" portions: the guest boots in tens–hundreds of microseconds while
//! the VMM needs milliseconds (QEMU ≈ 38 ms, QEMU microVM ≈ 9 ms, Solo5 and
//! Firecracker ≈ 3 ms). The guest portion is *real code* in `ukboot`; the
//! VMM portion is the calibrated model in this module.

/// The VMMs/platforms evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmmKind {
    /// Stock QEMU with the `pc` machine model.
    Qemu,
    /// QEMU's stripped-down `microvm` machine model.
    QemuMicroVm,
    /// AWS Firecracker.
    Firecracker,
    /// Solo5 hvt tender.
    Solo5,
    /// Xen hypervisor (paravirtual guest).
    Xen,
    /// The `linuxu` debug platform: the unikernel runs as a Linux process,
    /// so there is no VMM at all.
    LinuxUserspace,
}

impl VmmKind {
    /// All VMM kinds, in the order Figure 10 lists them.
    pub fn all() -> [VmmKind; 6] {
        [
            VmmKind::Qemu,
            VmmKind::QemuMicroVm,
            VmmKind::Firecracker,
            VmmKind::Solo5,
            VmmKind::Xen,
            VmmKind::LinuxUserspace,
        ]
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            VmmKind::Qemu => "QEMU",
            VmmKind::QemuMicroVm => "QEMU (MicroVM)",
            VmmKind::Firecracker => "Firecracker",
            VmmKind::Solo5 => "Solo5",
            VmmKind::Xen => "Xen",
            VmmKind::LinuxUserspace => "linuxu",
        }
    }
}

/// A VMM model: process start + machine setup costs, per-device attach
/// costs, and para-virtual transport properties.
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- what the public `Platform::vmm` returns
pub struct Vmm {
    kind: VmmKind,
    /// Time to start the VMM process and create the VM, ns.
    attach_overhead_ns: u64,
    /// Extra setup time per attached virtio NIC, ns.
    nic_attach_ns: u64,
    /// Extra setup time per attached block device, ns.
    blk_attach_ns: u64,
    /// Extra setup time for a 9pfs share, ns (paper: +0.3 ms KVM, +2.7 ms Xen).
    p9_attach_ns: u64,
}

impl Vmm {
    /// Builds the calibrated model for `kind`.
    ///
    /// Calibration sources: paper Fig 10 (QEMU 38.4 ms, QEMU+1NIC 42.7 ms,
    /// microVM 9.1 ms, Solo5 3.1 ms, Firecracker 3.1 ms) and §5.2 for 9pfs
    /// attach costs.
    pub fn new(kind: VmmKind) -> Self {
        let (attach, nic, blk, p9) = match kind {
            VmmKind::Qemu => (38_300_000, 4_300_000, 3_500_000, 300_000),
            VmmKind::QemuMicroVm => (9_000_000, 1_200_000, 1_000_000, 300_000),
            VmmKind::Firecracker => (2_900_000, 450_000, 400_000, 300_000),
            VmmKind::Solo5 => (3_000_000, 350_000, 300_000, 300_000),
            VmmKind::Xen => (11_000_000, 2_000_000, 1_800_000, 2_700_000),
            VmmKind::LinuxUserspace => (200_000, 20_000, 20_000, 10_000),
        };
        Vmm {
            kind,
            attach_overhead_ns: attach,
            nic_attach_ns: nic,
            blk_attach_ns: blk,
            p9_attach_ns: p9,
        }
    }

    /// Which VMM this models.
    pub fn kind(&self) -> VmmKind {
        self.kind
    }

    /// Total VMM-side setup time for a configuration with the given device
    /// counts, in nanoseconds.
    pub fn setup_ns(&self, nics: u32, blks: u32, p9_shares: u32) -> u64 {
        self.attach_overhead_ns
            + u64::from(nics) * self.nic_attach_ns
            + u64::from(blks) * self.blk_attach_ns
            + u64::from(p9_shares) * self.p9_attach_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_vmm_ordering() {
        // QEMU slowest, microVM middle, Solo5/Firecracker fastest.
        let base = |kind| Vmm::new(kind).setup_ns(0, 0, 0);
        let q = base(VmmKind::Qemu);
        let m = base(VmmKind::QemuMicroVm);
        let s = base(VmmKind::Solo5);
        let f = base(VmmKind::Firecracker);
        assert!(q > m && m > s && s >= f);
    }

    #[test]
    fn nic_attach_adds_cost() {
        let v = Vmm::new(VmmKind::Qemu);
        assert!(v.setup_ns(1, 0, 0) > v.setup_ns(0, 0, 0));
        // Paper: QEMU with one NIC ≈ 42.7 ms total vs 38.4 ms without.
        let delta = v.setup_ns(1, 0, 0) - v.setup_ns(0, 0, 0);
        assert!((3_000_000..6_000_000).contains(&delta));
    }

    #[test]
    fn xen_9pfs_attach_much_larger_than_kvm() {
        let p9 = |kind| Vmm::new(kind).setup_ns(0, 0, 1) - Vmm::new(kind).setup_ns(0, 0, 0);
        let xen = p9(VmmKind::Xen);
        let kvm = p9(VmmKind::Qemu);
        // Paper §5.2: 0.3 ms on KVM, 2.7 ms on Xen.
        assert_eq!(kvm, 300_000);
        assert_eq!(xen, 2_700_000);
    }

    #[test]
    fn linuxu_has_negligible_overhead() {
        let v = Vmm::new(VmmKind::LinuxUserspace);
        assert!(v.setup_ns(0, 0, 0) < 1_000_000);
    }

    #[test]
    fn all_lists_six_kinds() {
        assert_eq!(VmmKind::all().len(), 6);
        assert_eq!(VmmKind::Qemu.name(), "QEMU");
    }
}
