//! The unikernel: configuration, boot, and composed subsystems.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use ukalloc::registry::AllocId;
use ukalloc::{AllocBackend, AllocRegistry};
use ukboot::paging::PagingMode;
use ukboot::sequence::{BootConfig, BootReport, BootSequence, BootStage};
use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::VirtioNet;
use uknetstack::stack::{NetStack, StackConfig};
use ukplat::time::Tsc;
use ukplat::vmm::VmmKind;
use ukplat::{Errno, Result};
use uksched::{CoopScheduler, PreemptScheduler, SchedPolicy, Scheduler};
use uksyscall::shim::{SyscallMode, SyscallShim};
use uksyscall::UNIKRAFT_SUPPORTED;
use ukvfs::{RamFs, Vfs};


/// Network selection for a build.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Host backend for the virtio NIC.
    pub backend: VhostKind,
    /// Node number (determines MAC 02:…:n and IP 10.0.0.n).
    pub node: u8,
    /// Whether to run the full stack (lwip path) or leave the raw
    /// `uknetdev` device to the application (scenario ➆).
    pub with_stack: bool,
}

/// The resolved configuration of a unikernel build.
#[derive(Debug, Clone)]
pub struct UnikernelConfig {
    /// Image/application name.
    pub name: String,
    /// Hosting VMM.
    pub vmm: VmmKind,
    /// Guest RAM.
    pub ram_bytes: u64,
    /// Paging mode.
    pub paging: PagingMode,
    /// Heap allocator backend.
    pub allocator: AllocBackend,
    /// Scheduler micro-library (or none: run-to-completion).
    pub sched: SchedPolicy,
    /// Optional network device/stack.
    pub net: Option<NetConfig>,
    /// Files embedded into the ramfs root.
    pub rootfs_files: Vec<(String, Vec<u8>)>,
    /// Whether to mount a VFS at all (specialized images may skip it).
    pub with_vfs: bool,
}

/// Builder for [`Unikernel`].
///
/// # Examples
///
/// ```
/// use ukcore::UnikernelBuilder;
/// use ukplat::vmm::VmmKind;
///
/// let mut uk = UnikernelBuilder::new("hello")
///     .platform(VmmKind::Firecracker)
///     .build()
///     .unwrap();
/// let report = uk.boot().unwrap();
/// assert!(report.guest_ns > 0);
/// ```
#[derive(Debug, Clone)]
pub struct UnikernelBuilder {
    config: UnikernelConfig,
}

impl UnikernelBuilder {
    /// Starts a minimal configuration: KVM, 16 MiB RAM, static paging,
    /// bootalloc, no scheduler, no network, ramfs VFS.
    pub fn new(name: impl Into<String>) -> Self {
        UnikernelBuilder {
            config: UnikernelConfig {
                name: name.into(),
                vmm: VmmKind::Qemu,
                ram_bytes: 16 * 1024 * 1024,
                paging: PagingMode::Static,
                allocator: AllocBackend::BootAlloc,
                sched: SchedPolicy::None,
                net: None,
                rootfs_files: Vec::new(),
                with_vfs: true,
            },
        }
    }

    /// Selects the VMM.
    pub fn platform(mut self, vmm: VmmKind) -> Self {
        self.config.vmm = vmm;
        self
    }

    /// Sets guest RAM.
    pub fn memory(mut self, bytes: u64) -> Self {
        self.config.ram_bytes = bytes;
        self
    }

    /// Selects the paging mode.
    pub fn paging(mut self, mode: PagingMode) -> Self {
        self.config.paging = mode;
        self
    }

    /// Selects the heap allocator.
    pub fn allocator(mut self, backend: AllocBackend) -> Self {
        self.config.allocator = backend;
        self
    }

    /// Selects the scheduler micro-library.
    pub fn scheduler(mut self, policy: SchedPolicy) -> Self {
        self.config.sched = policy;
        self
    }

    /// Attaches a virtio NIC (+ the lwip-path stack unless raw).
    pub fn with_net(mut self, backend: VhostKind, node: u8) -> Self {
        self.config.net = Some(NetConfig {
            backend,
            node,
            with_stack: true,
        });
        self
    }

    /// Attaches a raw `uknetdev` NIC without a stack (scenario ➆).
    pub fn with_raw_net(mut self, backend: VhostKind, node: u8) -> Self {
        self.config.net = Some(NetConfig {
            backend,
            node,
            with_stack: false,
        });
        self
    }

    /// Embeds a file into the ramfs image.
    pub fn with_file(mut self, path: impl Into<String>, data: Vec<u8>) -> Self {
        self.config.rootfs_files.push((path.into(), data));
        self
    }

    /// Drops the VFS layer entirely (SHFS-style specialization).
    pub fn without_vfs(mut self) -> Self {
        self.config.with_vfs = false;
        self
    }

    /// Validates and produces the unikernel (not yet booted).
    pub fn build(self) -> Result<Unikernel> {
        if self.config.ram_bytes < 4 * 1024 * 1024 {
            return Err(Errno::NoMem);
        }
        if !self.config.rootfs_files.is_empty() && !self.config.with_vfs {
            return Err(Errno::Inval); // Files need a filesystem.
        }
        Ok(Unikernel::new(self.config))
    }
}

/// A composed, bootable unikernel instance.
pub struct Unikernel {
    config: UnikernelConfig,
    tsc: Tsc,
    registry: Option<AllocRegistry>,
    heap: Option<AllocId>,
    vfs: Option<Vfs>,
    stack: Option<NetStack>,
    raw_net: Option<VirtioNet>,
    sched: Option<Box<dyn Scheduler>>,
    shim: SyscallShim,
    report: Option<BootReport>,
}

impl std::fmt::Debug for Unikernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Unikernel")
            .field("name", &self.config.name)
            .field("booted", &self.report.is_some())
            .finish()
    }
}

impl Unikernel {
    fn new(config: UnikernelConfig) -> Self {
        let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
        let shim = SyscallShim::new(SyscallMode::UnikraftNative, &tsc);
        Unikernel {
            config,
            tsc,
            registry: None,
            heap: None,
            vfs: None,
            stack: None,
            raw_net: None,
            sched: None,
            shim,
            report: None,
        }
    }

    /// Boots the unikernel: VMM setup (modelled) + the real staged guest
    /// boot, then brings up the selected subsystems, timing each as its
    /// own stage (Figure 14's per-library breakdown).
    pub fn boot(&mut self) -> Result<BootReport> {
        let cfg = &self.config;
        let nics = u32::from(cfg.net.is_some());
        let boot_cfg = BootConfig {
            app: cfg.name.clone(),
            vmm: cfg.vmm,
            ram_bytes: cfg.ram_bytes,
            paging: cfg.paging,
            allocator: cfg.allocator,
            nics,
            blks: 0,
            p9_shares: 0,
        };
        let mut seq = BootSequence::new(boot_cfg);

        // Stage: virtio — probe the NIC (allocates descriptor memory).
        let net_cfg = cfg.net;
        let dev_slot: Rc<RefCell<Option<VirtioNet>>> = Rc::new(RefCell::new(None));
        if let Some(nc) = net_cfg {
            let slot = dev_slot.clone();
            let tsc = self.tsc.clone();
            seq.add_stage("virtio", move |_plat, reg| {
                let mut dev = VirtioNet::new(nc.backend, &tsc);
                dev.configure(NetDevConf::default())?;
                // Descriptor-area allocation from the heap.
                let id = reg.default_id().ok_or(Errno::NoMem)?;
                for _ in 0..8 {
                    reg.malloc(id, 4096).ok_or(Errno::NoMem)?;
                }
                *slot.borrow_mut() = Some(dev);
                Ok(())
            });
        }

        let mut report = seq.run()?;

        // Stage: rootfs — mount the VFS and populate the ramfs.
        if cfg.with_vfs {
            let t = Instant::now();
            let mut ramfs = RamFs::new();
            for (path, data) in &cfg.rootfs_files {
                ramfs.add_file(path.trim_start_matches('/'), data)?;
            }
            let mut vfs = Vfs::new();
            vfs.mount("/", Box::new(ramfs))?;
            self.vfs = Some(vfs);
            report.stages.push(BootStage {
                name: "rootfs".into(),
                ns: t.elapsed().as_nanos() as u64,
            });
        }

        // Stage: lwip — bring up the stack over the probed device.
        if let Some(nc) = net_cfg {
            let dev = dev_slot.borrow_mut().take().ok_or(Errno::Io)?;
            if nc.with_stack {
                let t = Instant::now();
                // One clock for the image: the device's cost model
                // moves it, the scheduler and the stack's timers read it.
                let mut stack = NetStack::new(StackConfig::node(nc.node), Box::new(dev));
                stack.set_clock(&self.tsc);
                self.stack = Some(stack);
                report.stages.push(BootStage {
                    name: "lwip".into(),
                    ns: t.elapsed().as_nanos() as u64,
                });
            } else {
                self.raw_net = Some(dev);
            }
        }

        // Stage: sched — instantiate the selected scheduler.
        if cfg.sched != SchedPolicy::None {
            let t = Instant::now();
            self.sched = Some(match cfg.sched {
                SchedPolicy::Coop => Box::new(CoopScheduler::new(&self.tsc)),
                SchedPolicy::Preempt => Box::new(PreemptScheduler::new(&self.tsc)),
                SchedPolicy::None => unreachable!(),
            });
            report.stages.push(BootStage {
                name: "sched".into(),
                ns: t.elapsed().as_nanos() as u64,
            });
        }

        // Stage: shim — register the supported syscall surface.
        {
            let t = Instant::now();
            self.shim.stub_ok(&UNIKRAFT_SUPPORTED);
            report.stages.push(BootStage {
                name: "shim".into(),
                ns: t.elapsed().as_nanos() as u64,
            });
        }

        report.guest_ns = report.stages.iter().map(|s| s.ns).sum();
        self.registry = seq.registry_mut().map(std::mem::take);
        self.heap = seq.heap_id();
        self.report = Some(report.clone());
        Ok(report)
    }

    /// Allocates an application working set after boot; used by the
    /// minimum-memory search of Figure 11. Fails with `ENOMEM` when the
    /// configured RAM cannot hold it.
    pub fn allocate_workset(&mut self, bytes: usize) -> Result<()> {
        let reg = self.registry.as_mut().ok_or(Errno::Inval)?;
        let heap = self.heap.ok_or(Errno::Inval)?;
        let chunk = 64 * 1024;
        let mut left = bytes;
        while left > 0 {
            let n = left.min(chunk);
            reg.malloc(heap, n).ok_or(Errno::NoMem)?;
            left -= n;
        }
        Ok(())
    }

    /// The boot report, if booted.
    pub fn report(&self) -> Option<&BootReport> {
        self.report.as_ref()
    }

    /// The composed VFS.
    pub fn vfs_mut(&mut self) -> Option<&mut Vfs> {
        self.vfs.as_mut()
    }

    /// The composed network stack.
    pub fn stack_mut(&mut self) -> Option<&mut NetStack> {
        self.stack.as_mut()
    }

    /// Takes the network stack out (to attach it to a testnet hub).
    pub fn take_stack(&mut self) -> Option<NetStack> {
        self.stack.take()
    }

    /// The raw `uknetdev` device for stack-less builds.
    pub fn raw_net_mut(&mut self) -> Option<&mut VirtioNet> {
        self.raw_net.as_mut()
    }

    /// The scheduler, if configured.
    pub fn sched_mut(&mut self) -> Option<&mut Box<dyn Scheduler>> {
        self.sched.as_mut()
    }

    /// The syscall shim.
    pub fn shim_mut(&mut self) -> &mut SyscallShim {
        &mut self.shim
    }

    /// The allocator registry (post-boot).
    pub fn registry_mut(&mut self) -> Option<&mut AllocRegistry> {
        self.registry.as_mut()
    }

    /// The heap allocator id.
    pub fn heap_id(&self) -> Option<AllocId> {
        self.heap
    }

    /// The platform TSC.
    pub fn tsc(&self) -> &Tsc {
        &self.tsc
    }

    /// Configuration snapshot.
    pub fn config(&self) -> &UnikernelConfig {
        &self.config
    }
}

/// Finds the minimum guest RAM (bytes, 1 MiB granularity) for which
/// `make()`'s unikernel boots and can allocate `workset` bytes — the
/// Figure 11 measurement.
pub fn min_memory_to_run(
    make: impl Fn(u64) -> UnikernelBuilder,
    workset: usize,
) -> Result<u64> {
    const MIB: u64 = 1024 * 1024;
    let mut lo = 4 * MIB;
    let mut hi = 512 * MIB;
    let runs = |ram: u64| -> bool {
        match make(ram).memory(ram).build() {
            Ok(mut uk) => uk.boot().is_ok() && uk.allocate_workset(workset).is_ok(),
            Err(_) => false,
        }
    };
    if !runs(hi) {
        return Err(Errno::NoMem);
    }
    if runs(lo) {
        return Ok(lo);
    }
    while hi - lo > MIB {
        let mid = (lo + hi) / 2 / MIB * MIB;
        if runs(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_unikernel_boots() {
        let mut uk = UnikernelBuilder::new("hello")
            .platform(VmmKind::Firecracker)
            .build()
            .unwrap();
        let r = uk.boot().unwrap();
        assert!(r.guest_ns > 0);
        assert!(r.vmm_ns > 0);
        assert!(uk.vfs_mut().is_some());
        assert!(uk.stack_mut().is_none());
    }

    #[test]
    fn full_server_image_composes_everything() {
        let mut uk = UnikernelBuilder::new("nginx")
            .platform(VmmKind::Qemu)
            .allocator(AllocBackend::Tlsf)
            .scheduler(SchedPolicy::Coop)
            .with_net(VhostKind::VhostNet, 1)
            .with_file("/index.html", b"<html>x</html>".to_vec())
            .build()
            .unwrap();
        let r = uk.boot().unwrap();
        assert!(r.stage_ns("virtio").is_some());
        assert!(r.stage_ns("lwip").is_some());
        assert!(r.stage_ns("sched").is_some());
        assert!(uk.stack_mut().is_some());
        // The embedded file is readable through the VFS.
        let vfs = uk.vfs_mut().unwrap();
        let fd = vfs.open("/index.html").unwrap();
        assert_eq!(vfs.read(fd, 64).unwrap(), b"<html>x</html>");
    }

    #[test]
    fn raw_net_build_skips_the_stack() {
        let mut uk = UnikernelBuilder::new("udpkv")
            .with_raw_net(VhostKind::VhostUser, 1)
            .build()
            .unwrap();
        uk.boot().unwrap();
        assert!(uk.raw_net_mut().is_some());
        assert!(uk.stack_mut().is_none());
    }

    #[test]
    fn files_without_vfs_rejected() {
        let e = UnikernelBuilder::new("bad")
            .without_vfs()
            .with_file("/x", vec![1])
            .build()
            .unwrap_err();
        assert_eq!(e, Errno::Inval);
    }

    #[test]
    fn tiny_ram_rejected() {
        let e = UnikernelBuilder::new("tiny")
            .memory(1024 * 1024)
            .build()
            .unwrap_err();
        assert_eq!(e, Errno::NoMem);
    }

    #[test]
    fn workset_allocation_fails_when_ram_too_small() {
        let mut uk = UnikernelBuilder::new("greedy")
            .memory(8 * 1024 * 1024)
            .allocator(AllocBackend::Tlsf)
            .build()
            .unwrap();
        uk.boot().unwrap();
        assert_eq!(
            uk.allocate_workset(64 * 1024 * 1024).unwrap_err(),
            Errno::NoMem
        );
    }

    #[test]
    fn min_memory_search_is_monotone() {
        let min = min_memory_to_run(
            |_| UnikernelBuilder::new("probe").allocator(AllocBackend::Tlsf),
            2 * 1024 * 1024,
        )
        .unwrap();
        assert!(min >= 4 * 1024 * 1024);
        assert!(min <= 16 * 1024 * 1024, "min = {min}");
    }

    #[test]
    fn shim_serves_supported_syscalls_after_boot() {
        let mut uk = UnikernelBuilder::new("hello").build().unwrap();
        uk.boot().unwrap();
        // write (1) is supported → stub returns 0, not -ENOSYS.
        assert_eq!(uk.shim_mut().invoke(1, &[1, 0, 5]), 0);
        // eventfd (284) is not → -ENOSYS.
        assert_eq!(uk.shim_mut().invoke(284, &[]), -38);
    }
}
