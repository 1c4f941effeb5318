//! The staged boot sequence.
//!
//! Reproduces `ukboot`'s flow: VMM setup (modelled), then inside the
//! guest — memory-region discovery, paging, allocator init, IRQ setup,
//! driver probes — all real code, individually timed so Figure 14's
//! stacked per-library breakdown can be regenerated.

use std::time::Instant;

use ukalloc::registry::AllocId;
use ukalloc::{AllocBackend, AllocRegistry};
use ukplat::memregion::RegionKind;
use ukplat::vmm::VmmKind;
use ukplat::{Errno, Platform, Result};

use crate::paging::{boot_paging, PageTables, PagingMode};

/// Configuration of a unikernel boot (the Kconfig choices that matter to
/// boot time).
#[derive(Debug, Clone)]
pub struct BootConfig {
    /// Application name (for reports).
    pub app: String,
    /// Which VMM hosts the guest.
    pub vmm: VmmKind,
    /// Guest RAM in bytes.
    pub ram_bytes: u64,
    /// Paging mode (Fig 21).
    pub paging: PagingMode,
    /// Allocator backend for the main heap (Fig 14).
    pub allocator: AllocBackend,
    /// Number of virtio NICs to attach/probe.
    pub nics: u32,
    /// Number of block devices.
    pub blks: u32,
    /// Number of 9pfs shares.
    pub p9_shares: u32,
}

impl BootConfig {
    /// Minimal hello-world configuration on the given VMM.
    pub fn hello(vmm: VmmKind) -> Self {
        BootConfig {
            app: "helloworld".into(),
            vmm,
            ram_bytes: 8 * 1024 * 1024,
            paging: PagingMode::Static,
            allocator: AllocBackend::BootAlloc,
            nics: 0,
            blks: 0,
            p9_shares: 0,
        }
    }

    /// nginx-like configuration (one NIC, ramfs, general allocator).
    pub fn nginx(vmm: VmmKind, allocator: AllocBackend) -> Self {
        BootConfig {
            app: "nginx".into(),
            vmm,
            ram_bytes: 16 * 1024 * 1024,
            paging: PagingMode::Static,
            allocator,
            nics: 1,
            blks: 0,
            p9_shares: 0,
        }
    }
}

/// One named boot stage and its measured duration.
#[derive(Debug, Clone)]
pub struct BootStage {
    /// Stage/micro-library name (e.g. "alloc", "virtio", "plat").
    pub name: String,
    /// Real guest-side nanoseconds spent.
    pub ns: u64,
}

/// The result of a boot: per-stage breakdown plus totals.
#[derive(Debug, Clone)]
pub struct BootReport {
    /// App that booted.
    pub app: String,
    /// VMM model used.
    pub vmm: VmmKind,
    /// VMM-side setup time (modelled), ns.
    pub vmm_ns: u64,
    /// Guest-side boot time (measured), ns.
    pub guest_ns: u64,
    /// Per-stage breakdown of `guest_ns`.
    pub stages: Vec<BootStage>,
}

impl BootReport {
    /// Total boot time: VMM + guest.
    pub fn total_ns(&self) -> u64 {
        self.vmm_ns + self.guest_ns
    }

    /// Duration of a named stage, if present.
    pub fn stage_ns(&self, name: &str) -> Option<u64> {
        self.stages.iter().find(|s| s.name == name).map(|s| s.ns)
    }
}

/// Extra per-library init work to run during boot (driver probes,
/// filesystem mounts, the app's own constructors).
type StageFn = Box<dyn FnMut(&Platform, &mut AllocRegistry) -> Result<()>>;

/// Drives a configurable boot and produces a [`BootReport`].
pub struct BootSequence {
    config: BootConfig,
    extra_stages: Vec<(String, StageFn)>,
    /// Artifacts available after `run`.
    registry: Option<AllocRegistry>,
    heap_id: Option<AllocId>,
    platform: Option<Platform>,
}

impl std::fmt::Debug for BootSequence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BootSequence")
            .field("config", &self.config)
            .field("extra_stages", &self.extra_stages.len())
            .finish()
    }
}

impl BootSequence {
    /// Creates a sequence for `config`.
    pub fn new(config: BootConfig) -> Self {
        BootSequence {
            config,
            extra_stages: Vec::new(),
            registry: None,
            heap_id: None,
            platform: None,
        }
    }

    /// Adds a named library-init stage, run after core init in
    /// registration order.
    pub fn add_stage(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&Platform, &mut AllocRegistry) -> Result<()> + 'static,
    ) -> &mut Self {
        self.extra_stages.push((name.into(), Box::new(f)));
        self
    }

    /// Runs the boot, consuming the configured stages.
    pub fn run(&mut self) -> Result<BootReport> {
        let cfg = self.config.clone();
        let mut stages = Vec::new();

        // --- VMM side (modelled) -------------------------------------
        let platform = Platform::with_memory(cfg.vmm, cfg.ram_bytes);
        let vmm_ns = platform
            .vmm()
            .setup_ns(cfg.nics, cfg.blks, cfg.p9_shares);

        // --- Guest side (real, timed per stage) ----------------------
        // Stage: plat — memory-region discovery and carve-outs.
        let t = Instant::now();
        let mut regions = platform.regions().clone();
        let heap_region = *regions.largest_free().ok_or(Errno::NoMem)?;
        let _stack = regions.carve(64 * 1024, RegionKind::BootStack);
        stages.push(BootStage {
            name: "plat".into(),
            ns: t.elapsed().as_nanos() as u64,
        });

        // Stage: paging (static: adopt prebuilt; dynamic: populate).
        let prebuilt = match cfg.paging {
            PagingMode::Static => Some(PageTables::prebuilt(cfg.ram_bytes)),
            _ => None,
        };
        let t = Instant::now();
        // The guest's tables live to the end of boot, opaque to the
        // optimiser, so the populating work is not elided.
        let _page_tables = std::hint::black_box(boot_paging(cfg.paging, cfg.ram_bytes, prebuilt));
        stages.push(BootStage {
            name: "paging".into(),
            ns: t.elapsed().as_nanos() as u64,
        });

        // Stage: alloc — initialize the heap allocator (Fig 14's "alloc").
        let t = Instant::now();
        let mut registry = AllocRegistry::new();
        let heap_len = heap_region.len.min(cfg.ram_bytes) as usize;
        let heap_id = registry.register(cfg.allocator, heap_region.base, heap_len)?;
        stages.push(BootStage {
            name: "alloc".into(),
            ns: t.elapsed().as_nanos() as u64,
        });

        // Stage: ukbus/irq — interrupt controller bring-up.
        let t = Instant::now();
        for line in 0..4 {
            platform.irq().enable(line);
        }
        stages.push(BootStage {
            name: "ukbus".into(),
            ns: t.elapsed().as_nanos() as u64,
        });

        // Extra library stages (drivers, filesystems, app init).
        for (name, f) in &mut self.extra_stages {
            let t = Instant::now();
            f(&platform, &mut registry)?;
            stages.push(BootStage {
                name: name.clone(),
                ns: t.elapsed().as_nanos() as u64,
            });
        }

        let guest_ns = stages.iter().map(|s| s.ns).sum();
        self.registry = Some(registry);
        self.heap_id = Some(heap_id);
        self.platform = Some(platform);

        Ok(BootReport {
            app: cfg.app,
            vmm: cfg.vmm,
            vmm_ns,
            guest_ns,
            stages,
        })
    }

    /// The allocator registry built during boot.
    pub fn registry_mut(&mut self) -> Option<&mut AllocRegistry> {
        self.registry.as_mut()
    }

    /// The id of the main heap allocator.
    pub fn heap_id(&self) -> Option<AllocId> {
        self.heap_id
    }

    /// The platform the guest booted on.
    pub fn platform(&self) -> Option<&Platform> {
        self.platform.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_boots_with_report() {
        let mut seq = BootSequence::new(BootConfig::hello(VmmKind::Firecracker));
        let r = seq.run().unwrap();
        assert_eq!(r.app, "helloworld");
        assert!(r.vmm_ns > 0);
        assert!(r.guest_ns > 0);
        assert!(r.total_ns() >= r.vmm_ns);
        assert!(r.stage_ns("alloc").is_some());
        assert!(seq.registry_mut().is_some());
    }

    #[test]
    fn vmm_dominates_total_boot() {
        // Fig 10's key observation: total boot is dominated by the VMM.
        let mut seq = BootSequence::new(BootConfig::hello(VmmKind::Qemu));
        let r = seq.run().unwrap();
        assert!(
            r.vmm_ns > 10 * r.guest_ns,
            "vmm {} vs guest {}",
            r.vmm_ns,
            r.guest_ns
        );
    }

    #[test]
    fn extra_stage_runs_and_is_timed() {
        let mut seq = BootSequence::new(BootConfig::nginx(
            VmmKind::Firecracker,
            AllocBackend::Tlsf,
        ));
        seq.add_stage("virtio", |_p, reg| {
            // Probe: allocate a few descriptors from the heap.
            let id = reg.default_id().unwrap();
            for _ in 0..16 {
                reg.malloc(id, 256).ok_or(Errno::NoMem)?;
            }
            Ok(())
        });
        let r = seq.run().unwrap();
        assert!(r.stage_ns("virtio").is_some());
    }

    #[test]
    fn failing_stage_aborts_boot() {
        let mut seq = BootSequence::new(BootConfig::hello(VmmKind::Solo5));
        seq.add_stage("bad-driver", |_, _| Err(Errno::Io));
        assert_eq!(seq.run().unwrap_err(), Errno::Io);
    }

    #[test]
    fn buddy_alloc_stage_slower_than_bootalloc() {
        // Fig 14: buddy init dominates; compare the "alloc" stage.
        let run = |b| {
            let mut cfg = BootConfig::nginx(VmmKind::Firecracker, b);
            cfg.ram_bytes = 64 * 1024 * 1024;
            let mut seq = BootSequence::new(cfg);
            let mut best = u64::MAX;
            for _ in 0..5 {
                let r = seq_run_fresh(&mut seq, b);
                best = best.min(r);
            }
            best
        };
        fn seq_run_fresh(_seq: &mut BootSequence, b: AllocBackend) -> u64 {
            let mut cfg = BootConfig::nginx(VmmKind::Firecracker, b);
            cfg.ram_bytes = 64 * 1024 * 1024;
            let mut s = BootSequence::new(cfg);
            s.run().unwrap().stage_ns("alloc").unwrap()
        }
        let buddy = run(AllocBackend::Buddy);
        let boot = run(AllocBackend::BootAlloc);
        assert!(
            buddy > boot,
            "buddy alloc stage ({buddy} ns) must exceed bootalloc ({boot} ns)"
        );
    }
}
