//! The image is laid out by `crates/ukplat/link/hot.ld`: every binary
//! that links `ukplat` — this test binary too — gets the fragment from
//! `ukplat`'s `build.rs`, which packs the functions the workloads run
//! into a `.text.hot` ahead of `.text`. If the script stops reaching
//! the link, the section is gone and the code the traffic runs is
//! spread over all of `.text` again (≈ 0.6 MiB more resident on
//! `tcp-rr`); these checks fail instead.

use std::path::Path;

use ukbuild::elf::{Elf, PF_X, PT_LOAD};

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
    assert!(bare.contains(".text.hot") && bare.trim_end().ends_with("INSERT BEFORE .text;"));
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
