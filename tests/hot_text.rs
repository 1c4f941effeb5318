//! The image is laid out by `crates/ukplat/link/hot.ld`: every binary
//! that links `ukplat` — this test binary too — gets the fragment from
//! `ukplat`'s `build.rs`, which packs the functions the workloads run
//! into a `.text.hot` ahead of `.text`, and the read-only sections they
//! read into a `.rodata.hot` right after the ELF headers. If the script
//! stops reaching the link, the sections are gone and the code the
//! traffic runs is spread over all of `.text` again (≈ 0.6 MiB more
//! resident on `tcp-rr`), the constants over all of the read-only
//! segment (≈ 0.12 MiB more); these checks fail instead.

use std::path::Path;

use ukbuild::elf::{Elf, PF_W, PF_X, PT_LOAD};

// Links the platform layer, as every image does, whether or not a test
// calls into it: its `build.rs` is what brings `hot.ld` to the link.
extern crate ukplat;

/// `.text.hot` opens the code: only `.init` and `.fini` (32 B of
/// stubs LLD puts there) come before it in the executable segment, no
/// byte of `.text` lies before its end, and the start-up code
/// (`_start`, the entry point) lies inside it.
#[test]
fn text_hot_leads_the_code_segment() {
    let elf = Elf::read(Path::new("/proc/self/exe")).expect("reading /proc/self/exe");
    let hot = elf
        .section(".text.hot")
        .expect("no .text.hot: does ukplat's build.rs still pass link/hot.ld to the linker?");
    let text = elf.section(".text").expect("no .text");
    assert!(hot.size > 0, ".text.hot is empty: does any pattern of hot.ld match this image?");
    assert!(
        hot.addr + hot.size <= text.addr,
        ".text.hot ({:#x}+{:#x}) does not lie before .text ({:#x})",
        hot.addr,
        hot.size,
        text.addr
    );
    assert!(
        hot.contains(elf.entry()),
        "_start ({:#x}) lies outside .text.hot: does hot.ld open with the start-up object?",
        elf.entry()
    );
    let rx = elf
        .segments()
        .iter()
        .find(|s| s.kind == PT_LOAD && s.flags & PF_X != 0 && s.covers(text))
        .expect("no executable PT_LOAD maps .text");
    assert!(rx.covers(hot), ".text.hot and .text are not in one executable segment");
    let before: Vec<&str> = elf
        .sections()
        .iter()
        .filter(|s| s.is_exec() && s.size > 0 && rx.covers(s) && s.addr < hot.addr)
        .map(|s| s.name.as_str())
        .collect();
    assert!(
        before.iter().all(|n| *n == ".init" || *n == ".fini"),
        "code ahead of .text.hot other than .init/.fini: {before:?}"
    );
}

#[test]
fn hot_ld_holds_no_build_path_and_no_hash() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/ukplat/link/hot.ld");
    let script = std::fs::read_to_string(path).expect("reading hot.ld");
    // Without its comments, the script names sections and file
    // patterns only: no `/` of an absolute (or any) path.
    let mut bare = String::new();
    let mut rest = script.as_str();
    while let Some(at) = rest.find("/*") {
        bare.push_str(&rest[..at]);
        rest = rest[at..].split_once("*/").map_or("", |(_, after)| after);
    }
    bare.push_str(rest);
    assert!(!bare.contains('/'), "hot.ld names a path");
    // A legacy symbol's `17h<16 hex digits>E` changes with the source
    // path the tree is built at: a pattern stops before it.
    let b = bare.as_bytes();
    let hashed = (0..b.len().saturating_sub(19)).any(|i| {
        &b[i..i + 3] == b"17h"
            && b[i + 3..i + 19].iter().all(u8::is_ascii_hexdigit)
            && b[i + 19] == b'E'
    });
    assert!(!hashed, "hot.ld names a symbol with its path-dependent hash");
    // rustc's anonymous constants, `.Lanon.<hash>.<n>`, carry a hash
    // of the build path too: the script names them as one class.
    let anon = bare
        .match_indices(".Lanon.")
        .any(|(i, m)| bare[i + m.len()..].starts_with(|c: char| c.is_ascii_hexdigit()));
    assert!(!anon, "hot.ld names an anonymous constant by its path-dependent hash");
    assert!(bare.trim_end().ends_with("INSERT BEFORE .text;"));
    let rodata = bare.find(".rodata.hot").expect("hot.ld has no .rodata.hot block");
    let text = bare.find(".text.hot").expect("hot.ld has no .text.hot block");
    assert!(rodata < text, "the .rodata.hot block does not come before the .text.hot block");
}

/// `.rodata.hot` opens the read-only segment: it follows the ELF
/// headers and relocation tables (`.relr.dyn` last) and comes before
/// every other read-only section, so the constants a run reads share
/// the one 64 KiB window the headers fault in.
#[test]
fn rodata_hot_opens_the_read_only_segment() {
    let elf = Elf::read(Path::new("/proc/self/exe")).expect("reading /proc/self/exe");
    let hot = elf
        .section(".rodata.hot")
        .expect("no .rodata.hot: does ukplat's build.rs still pass link/hot.ld to the linker?");
    assert!(hot.size > 0, ".rodata.hot is empty: does any pattern of hot.ld match this image?");
    let ro = elf
        .segments()
        .iter()
        .find(|s| s.kind == PT_LOAD && s.flags & (PF_W | PF_X) == 0)
        .expect("no read-only PT_LOAD");
    assert!(ro.covers(hot), ".rodata.hot lies outside the read-only segment");
    for name in [".gcc_except_table", ".rodata", ".eh_frame_hdr"] {
        let s = elf.section(name).unwrap_or_else(|| panic!("no {name}"));
        assert!(
            hot.addr < s.addr,
            ".rodata.hot ({:#x}) starts after {name} ({:#x})",
            hot.addr,
            s.addr
        );
    }
    let before = elf
        .sections()
        .iter()
        .filter(|s| s.addr > 0 && s.size > 0 && s.addr < hot.addr)
        .max_by_key(|s| s.addr)
        .map(|s| s.name.as_str());
    assert_eq!(before, Some(".relr.dyn"), "what comes right before .rodata.hot");
}

/// Code no trace can see stays where the layout put it: a function
/// symbol of size 0 (a hand-written stub such as `_init`, crtbegin's,
/// or some of libc's assembly) gets no bytes from `hot-text`'s traces,
/// so only `hot.ld`'s whole-object patterns place it. Each one lies in
/// `.init`, `.fini` or `.text.hot`; one linked into `.text` would fault
/// a cold window in at start-up with no trace to show it.
#[test]
fn no_unsized_code_outside_text_hot() {
    let elf = Elf::read(Path::new("/proc/self/exe")).expect("reading /proc/self/exe");
    let homes: Vec<_> =
        [".init", ".fini", ".text.hot"].iter().filter_map(|n| elf.section(n)).collect();
    let stubs = elf.unsized_functions();
    assert!(stubs.iter().any(|f| f.name == "_init"), "no size-0 `_init`: is .symtab read?");
    let outside: Vec<String> = stubs
        .iter()
        .filter(|f| !homes.iter().any(|s| s.contains(f.addr)))
        .map(|f| format!("{} at {:#x}", f.name, f.addr))
        .collect();
    assert!(outside.is_empty(), "size-0 code outside .init/.fini/.text.hot: {outside:?}");
}
