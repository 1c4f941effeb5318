//! The image carries its own libc: every binary the tree builds is a
//! self-contained `static-pie` (`.cargo/config.toml`'s
//! `[target.x86_64-unknown-linux-gnu] rustflags`), and this test binary
//! is built with the same flags. A `RUSTFLAGS` in the environment
//! replaces the config's rustflags without a word — the build then
//! loads `libc.so.6` through `ld-linux` again and every workload's
//! resident set grows by ≈ 0.8 MiB — so the first two checks fail
//! instead. The last two check the link flags beside `+crt-static`:
//! segments aligned to the 64 KiB fault-around window, so the resident
//! set does not depend on where ASLR puts the image, and relative
//! relocations packed as RELR. The last one checks what the static link
//! leaves out: glibc's scanf, which its `pthread_getattr_np` would bring.

use std::collections::HashSet;
use std::path::Path;

use ukbuild::elf::{Elf, PT_LOAD};
use ukbuild::hot::WINDOW;

// Links the platform layer, as every image does: its
// `pthread_getattr_np` is the one std's runtime calls.
extern crate ukplat;

#[test]
#[allow(clippy::assertions_on_constants, reason = "the constant is what the build was told")]
fn built_with_the_static_libc() {
    assert!(
        cfg!(target_feature = "crt-static"),
        "built without `+crt-static`: does a RUSTFLAGS in the environment override \
         .cargo/config.toml's target rustflags?"
    );
}

#[test]
fn no_shared_object_is_mapped() {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("reading /proc/self/maps");
    let shared: Vec<&str> = maps
        .lines()
        .filter_map(|l| l.split_whitespace().nth(5))
        .filter(|path| path.ends_with(".so") || path.contains(".so."))
        .collect();
    assert!(shared.is_empty(), "a static image maps no shared object, this one maps {shared:?}");
}

#[test]
fn segments_are_aligned_to_the_fault_around_window() {
    let exe = Path::new("/proc/self/exe");
    let elf = Elf::read(exe).expect("reading /proc/self/exe");
    let loads: Vec<_> = elf.segments().iter().filter(|s| s.kind == PT_LOAD).collect();
    for s in &loads {
        assert!(
            s.align >= WINDOW,
            "PT_LOAD at {:#x} has p_align {:#x}: was the image linked with -z max-page-size=65536?",
            s.vaddr,
            s.align
        );
    }
    // The base the kernel chose: the mapping of the lowest segment's
    // page, less that page's link-time address.
    let path = exe.canonicalize().expect("resolving /proc/self/exe");
    let maps = std::fs::read_to_string("/proc/self/maps").expect("reading /proc/self/maps");
    let start = maps
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 6 && Path::new(f[5]) == path)
                .then(|| u64::from_str_radix(f[0].split('-').next()?, 16).ok())
                .flatten()
        })
        .min()
        .expect("the image is not in /proc/self/maps");
    let low = loads.iter().map(|s| s.vaddr).min().expect("a PT_LOAD") & !0xfff;
    let base = start - low;
    assert_eq!(
        base % WINDOW,
        0,
        "loaded at {base:#x}, not a multiple of 64 KiB, though every p_align is: \
         a static-pie's base follows p_align only from Linux 6.10 on"
    );
}

#[test]
fn relative_relocations_are_packed() {
    let elf = Elf::read(Path::new("/proc/self/exe")).expect("reading /proc/self/exe");
    assert!(
        elf.section(".relr.dyn").is_some(),
        "no .relr.dyn: was the image linked with -z pack-relative-relocs?"
    );
    let rela = elf.section(".rela.dyn").map_or(0, |s| s.size);
    assert!(rela < 1024, ".rela.dyn holds {rela} B: relative relocations are not packed");
}

#[test]
fn the_stack_query_brings_no_scanf() {
    let elf = Elf::read(Path::new("/proc/self/exe")).expect("reading /proc/self/exe");
    let names: HashSet<&str> =
        elf.functions().iter().chain(elf.unsized_functions()).map(|f| f.name.as_str()).collect();
    assert!(names.contains("pthread_getattr_np"), "std's runtime calls pthread_getattr_np");
    // glibc's member defines the function under both names: without the
    // second, the image took it from `ukplat`.
    assert!(
        !names.contains("__pthread_getattr_np"),
        "glibc's pthread_getattr_np.o is linked: is `ukplat`'s `stack.rs` still in the image?"
    );
    for scanf in ["__vfscanf_internal", "__isoc99_sscanf"] {
        assert!(!names.contains(scanf), "the image links glibc's {scanf}");
    }
}
