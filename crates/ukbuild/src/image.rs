//! The link step: image-size accounting with DCE and LTO passes.
//!
//! Figure 8 builds each application "for all combinations of DCE and
//! LTO". Our link model sums the size contributions of the resolved
//! micro-library set, then:
//!
//! - **DCE** drops the unreferenced fraction of each library (its
//!   `dce_keep` calibration — a libc is mostly unused by any one app,
//!   while a tiny purpose-built library is fully used);
//! - **LTO** applies cross-module inlining/merging shrink.
//!
//! The *mechanism* — fewer selected micro-libraries → smaller image —
//! is the real one; the per-library constants are calibrated.
//! `LTO_FACTOR` in particular is the paper's calibration for *its*
//! applications (C, newlib/musl, GNU ld: images of ≈ 1 MB, Fig. 8), not
//! a measurement of this repository.
//!
//! # Measured beside modelled
//!
//! This repository's own release binaries *are* linked as one program
//! (`.cargo/config.toml`: fat LTO, one codegen unit, abort on panic, and
//! glibc's `libc.a` linked in — a `static-pie` with no loader and no
//! shared object), and `make image-size` builds three of them three
//! ways: with cargo's defaults (no LTO, 16 codegen units, unwinding, the
//! shared libc), with the profile and the shared libc, and as the tree
//! builds them. Beside each stripped ELF stands its run-time closure:
//! the ELF plus every object the loader maps for it
//! (`ld-linux-x86-64.so.2`, `libc.so.6` and `libgcc_s.so.1`, 2 266 544 B
//! together, for each dynamic image; none for a static one). x86-64
//! Linux, glibc 2.36; `ratio` is each closure over the defaults' one:
//!
//! | image                   | build                 | ELF (B)   | closure (B) | ratio |
//! |-------------------------|-----------------------|----------:|------------:|------:|
//! | `examples/webserver`    | cargo defaults        |   887 720 |   3 154 264 |  1.00 |
//! |                         | profile, shared libc  |   636 784 |   2 903 328 |  0.92 |
//! |                         | profile, static libc  | 1 469 472 |   1 469 472 |  0.47 |
//! | `examples/event_server` | cargo defaults        |   869 912 |   3 136 456 |  1.00 |
//! |                         | profile, shared libc  |   609 152 |   2 875 696 |  0.92 |
//! |                         | profile, static libc  | 1 441 760 |   1 441 760 |  0.46 |
//! | `ukperf` (`benchmark/`) | cargo defaults        | 1 154 168 |   3 420 712 |  1.00 |
//! |                         | profile, shared libc  |   921 688 |   3 188 232 |  0.93 |
//! |                         | profile, static libc  | 1 768 256 |   1 768 256 |  0.52 |
//!
//! So the profile alone — LTO, one codegen unit and no unwind tables
//! together — takes the ELF to 0.70–0.80 of the defaults' size against
//! the model's 0.88 for LTO alone: the same direction, more of it. But
//! a dynamic ELF is the smaller part of what it needs to run. Linked
//! statically, our images carry both `std` and the libc — 0.83–0.85 MB
//! more ELF, the glibc objects `std`'s runtime reaches (`sscanf` through
//! `pthread_getattr_np`, `gettext` through `strerror_r`, the `dl*`
//! code) — and need nothing else: 0.46–0.52 of the defaults' closure,
//! and only the pages the program touches are resident. That they are
//! also "≈ 1.5 MB" is what they happen to link, not a calibration.

use crate::config::BuildConfig;
use crate::registry::LibRegistry;

/// LTO's cross-module shrink factor (calibrated from Fig 8's LTO bars).
const LTO_FACTOR: f64 = 0.88;

/// Which optimization passes a build enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkPass {
    /// Plain static link.
    Default,
    /// Link-time optimization only.
    Lto,
    /// Dead-code elimination only.
    Dce,
    /// Both (the paper's smallest images).
    DceLto,
}

impl LinkPass {
    /// All passes in Figure 8's order.
    pub fn all() -> [LinkPass; 4] {
        [LinkPass::Default, LinkPass::Lto, LinkPass::Dce, LinkPass::DceLto]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LinkPass::Default => "Default configuration",
            LinkPass::Lto => "+ Link-Time Optim. (LTO)",
            LinkPass::Dce => "+ Dead Code Elim. (DCE)",
            LinkPass::DceLto => "+ DCE + LTO",
        }
    }
}

/// The result of linking an image.
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- what the public `link_image` returns
pub struct ImageReport {
    /// Application name.
    pub app: &'static str,
    /// Pass used.
    pub pass: LinkPass,
    /// Final image size in bytes.
    pub size_bytes: u64,
    /// Libraries included.
    pub libs: Vec<&'static str>,
}

impl ImageReport {
    /// Size in KB (for report printing).
    pub fn size_kb(&self) -> f64 {
        self.size_bytes as f64 / 1024.0
    }
}

/// Links `config` with the given pass.
pub fn link_image(
    registry: &LibRegistry,
    config: &BuildConfig,
    pass: LinkPass,
) -> Result<ImageReport, String> {
    let libs = config.resolve(registry)?;
    let mut total = 0f64;
    for name in &libs {
        let lib = registry.get(name).expect("resolved lib exists");
        let mut sz = lib.size_bytes as f64;
        if matches!(pass, LinkPass::Dce | LinkPass::DceLto) {
            sz *= lib.dce_keep;
        }
        total += sz;
    }
    if matches!(pass, LinkPass::Lto | LinkPass::DceLto) {
        total *= LTO_FACTOR;
    }
    Ok(ImageReport {
        app: config.app,
        pass,
        size_bytes: total as u64,
        libs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(app: &'static str, pass: LinkPass) -> ImageReport {
        let r = LibRegistry::standard();
        link_image(&r, &BuildConfig::new(app), pass).unwrap()
    }

    #[test]
    fn passes_shrink_monotonically() {
        for app in ["app-helloworld", "app-nginx", "app-redis", "app-sqlite"] {
            let d = report(app, LinkPass::Default).size_bytes;
            let lto = report(app, LinkPass::Lto).size_bytes;
            let dce = report(app, LinkPass::Dce).size_bytes;
            let both = report(app, LinkPass::DceLto).size_bytes;
            assert!(lto < d, "{app}");
            assert!(dce < d, "{app}");
            assert!(both <= dce && both <= lto, "{app}");
        }
    }

    #[test]
    fn fig8_shapes_hold() {
        // Helloworld ~ hundreds of KB; apps under 2 MB (Fig 8: "all
        // under 2MBs for all of these applications").
        let hello = report("app-helloworld", LinkPass::Default);
        assert!(
            (100_000..400_000).contains(&hello.size_bytes),
            "hello = {}",
            hello.size_bytes
        );
        for app in ["app-nginx", "app-redis", "app-sqlite"] {
            let rep = report(app, LinkPass::Default);
            assert!(rep.size_bytes < 2_000_000, "{app} = {}", rep.size_bytes);
            assert!(rep.size_bytes > 1_000_000, "{app} = {}", rep.size_bytes);
        }
    }

    #[test]
    fn specialized_image_is_smaller() {
        let r = LibRegistry::standard();
        let full = link_image(&r, &BuildConfig::new("app-nginx"), LinkPass::DceLto).unwrap();
        let slim = link_image(
            &r,
            &BuildConfig::new("app-nginx")
                .without_lib("lwip")
                .without_lib("uksched")
                .with_lib("uknetdev"),
            LinkPass::DceLto,
        )
        .unwrap();
        assert!(slim.size_bytes < full.size_bytes);
    }

    #[test]
    fn report_lists_included_libs() {
        let rep = report("app-helloworld", LinkPass::Default);
        assert!(rep.libs.contains(&"nolibc"));
        assert!(rep.size_kb() > 0.0);
    }
}
