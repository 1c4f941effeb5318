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
//! together, for each dynamic image; none for a static one), the
//! split of its code into `.text.hot` (the functions the workloads run,
//! see below) and `.text`, and of its constants into `.rodata.hot` (the
//! read-only sections the workloads read) and `.rodata`, its relocation
//! bytes and its segment alignment. x86-64 Linux, glibc 2.36; `ratio`
//! is each closure over the defaults' one:
//!
//! | image                   | build                 | ELF (B)   | `.text.hot` | `.text` | `.rodata.hot` | `.rodata` | relocs | align | closure (B) | ratio |
//! |-------------------------|-----------------------|----------:|--------:|--------:|--------:|-------:|-------:|------:|------------:|------:|
//! | `examples/webserver`    | cargo defaults        |   915 240 | 216 868 | 427 591 |  28 188 | 10 160 | 39 264 | 4 KiB |   3 181 784 |  1.00 |
//! |                         | profile, shared libc  |   671 344 | 287 892 | 257 415 |  25 641 | 12 160 | 19 728 | 4 KiB |   2 937 888 |  0.92 |
//! |                         | profile, static libc  | 1 336 888 | 407 508 | 630 312 |  35 705 | 116 148 | 1 200 | 64 KiB |  1 336 888 |  0.42 |
//! | `examples/event_server` | cargo defaults        |   909 688 | 218 756 | 421 239 |  26 685 | 10 584 | 40 272 | 4 KiB |   3 176 232 |  1.00 |
//! |                         | profile, shared libc  |   664 096 | 291 246 | 250 615 |  24 022 | 11 744 | 18 792 | 4 KiB |   2 930 640 |  0.92 |
//! |                         | profile, static libc  | 1 329 656 | 409 966 | 623 528 |  34 070 | 115 732 | 1 184 | 64 KiB |  1 329 656 |  0.42 |
//! | `ukperf` (`benchmark/`) | cargo defaults        | 1 205 320 | 303 060 | 565 639 |  38 904 | 22 224 | 50 784 | 4 KiB |   3 471 864 |  1.00 |
//! |                         | profile, shared libc  |   929 128 | 371 972 | 387 527 |  34 568 | 24 256 | 24 720 | 4 KiB |   3 195 672 |  0.92 |
//! |                         | profile, static libc  | 1 606 520 | 494 340 | 772 104 |  44 760 | 128 916 | 1 264 | 64 KiB |  1 606 520 |  0.46 |
//!
//! (`relocs` is `.rela.dyn` + `.relr.dyn`; `align` the `PT_LOAD`s'
//! `p_align`. The first two builds drop the config's link flags with
//! its `+crt-static`. Before `ukplat` answered std's stack query itself,
//! the static builds read 1 462 968, 1 390 168 and 1 732 632 B: glibc's
//! scanf chain, ≈ 120 KB of code in each.)
//!
//! So the profile alone — LTO, one codegen unit and no unwind tables
//! together — takes the ELF to 0.70–0.80 of the defaults' size against
//! the model's 0.88 for LTO alone: the same direction, more of it. But
//! a dynamic ELF is the smaller part of what it needs to run. Linked
//! statically, our images carry both `std` and the libc — 0.67–0.68 MB
//! more ELF, the glibc objects `std`'s runtime reaches (`gettext`
//! through `strerror_r`, the `dl*` code; not `sscanf`, which glibc's
//! `pthread_getattr_np` brought until `ukplat` defined its own) — and
//! need nothing else: 0.42–0.46 of the defaults' closure.
//! That they are also "≈ 1.5 MB" is what they happen to link, not a
//! calibration.
//!
//! Linked is not resident, but unused is not absent either. A page
//! fault in the code does not map one page: the kernel maps the 64 KiB
//! window around it (fault-around), as far as the page cache holds the
//! file. In a probe, touching 8 pages 128 KiB apart in a mapped file
//! made 512 kB resident. Laid out in link order, a `tcp-rr` run of the
//! static `ukperf` executed 339 KB of code (354 of ≈ 2 350 functions)
//! but held 1.21–1.28 MB of its 1.34 MB code mapping resident. So every
//! image that links `ukplat` is laid out by `crates/ukplat/link/hot.ld`,
//! which packs the functions the workloads run into one `.text.hot`
//! ahead of the rest (`make hot-text` writes it from traces; see
//! `ukplat`'s `build.rs` and [`crate::hot`]). The same run then held
//! 556–636 kB of code resident, depending on the run: with 4 KiB
//! `p_align` the kernel loaded the image at any 4 KiB-aligned base, and
//! where the windows fell in it changed with every run. Linked with
//! 64 KiB segments (`.cargo/config.toml`), the base is 64 KiB-aligned
//! and the windows fall at fixed offsets; `.text.hot` opens with the
//! start-up code, and its functions are grouped by the workloads that
//! run them and laid out to touch the fewest windows. A `tcp-rr` run
//! now holds 416 kB of code resident (seven windows, the first a half,
//! for 339 KB executed), where RELR relocations replaced 56 kB of
//! `.rela.dyn`; its `peak_rss_mib` went 2.05 → 1.40 → 1.07 MiB over the
//! two steps. It still held 192 kB of the 288 kB read-only segment,
//! three windows for the constants it read: `hot.ld` now also packs the
//! read-only sections the workloads read into a `.rodata.hot` right
//! after the ELF headers and relocation tables ([`crate::rodata`]), and
//! a run holds 64 kB of the segment, one window (`peak_rss_mib`
//! 1.08 → 0.95 MiB). With glibc's scanf chain gone (`ukplat` answers
//! std's start-up stack query itself) it holds 360 kB of code where it
//! held 420 (`peak_rss_mib` 0.996 → 0.943 MiB, median of ten pairs). By
//! origin
//! (`hot-text size`, function symbols of the unstripped static images;
//! "other" is `libgcc`'s unwinder, `compiler_builtins`' C-named
//! intrinsics and the start-up code):
//!
//! | image          | section     |   bytes |    ours |     std | core/alloc |   glibc |  other | padding |
//! |----------------|-------------|--------:|--------:|--------:|-----------:|--------:|-------:|--------:|
//! | `webserver`    | `.text.hot` | 407 508 | 152 851 |  35 068 |     47 587 | 110 426 |  2 947 |  58 629 |
//! |                | `.text`     | 630 312 |  25 445 | 144 750 |     82 681 | 318 945 | 49 564 |   8 927 |
//! | `event_server` | `.text.hot` | 409 966 | 157 546 |  40 318 |     32 617 | 110 426 |  2 947 |  66 112 |
//! |                | `.text`     | 623 528 |  18 647 | 145 681 |     81 924 | 318 945 | 49 564 |   8 767 |
//! | `ukperf`       | `.text.hot` | 494 340 | 269 478 |  23 815 |     65 228 | 110 426 |  2 970 |  22 423 |
//! |                | `.text`     | 772 104 |  99 917 | 173 616 |    108 750 | 329 901 | 49 875 |  10 045 |
//!
//! `.text.hot`'s padding is mostly the one `. = ALIGN(0x10000)` of
//! `hot.ld`: address space, not residency.
//!
//! The glibc code in `.text.hot` is whole archive members (a linker
//! script names C code by object, not by function): 110 KB of members
//! for what the traces saw glibc run, 164 KB while start-up's stack
//! query ran glibc's `sscanf`. `ukperf`'s 1 225 B `pthread_getattr_np`
//! (`ukplat`'s) counts as ours.

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
