//! `.rodata.hot`: which read-only input sections a run reads, found by
//! a page-touch probe, and the patterns that place them in the window
//! the ELF headers already fault in.
//!
//! A function-entry trace cannot see a constant being read, so the
//! probe asks the page tables. It is a build of the image linked with
//! [`probe_script`] in place of `hot.ld` (`ukplat`'s `build.rs` takes
//! `UKPLAT_HOT_LD`), which gives every read-only input section a
//! 64 KiB fault-around window ([`WINDOW`]) of its own, and with
//! `-Wl,-Map`, which says which section lies where. A run of it is
//! traced ([`crate::trace`]); at its exit stop a present page names the
//! one section its window holds, whoever read it, the kernel included.
//!
//! A section read becomes a pattern that means the same thing wherever
//! the tree is built:
//!
//! - rustc's anonymous constants, `.rodata..Lanon.<hash>.<n>`, carry a
//!   hash that follows the build path, so they go in as one class,
//!   `*(.rodata..Lanon.*)`;
//! - a Rust constant or switch table named after its function,
//!   `.rodata.<fn>` and `.rodata..Lswitch.table.<fn>`, is globbed
//!   before its `17h<hash>E` as [`crate::hot`] globs code;
//! - C constants are named by archive member,
//!   `*libc.a:C-ctype.o(.rodata)`;
//! - LLD merges the strings and constants of one class (`.rodata.str1.1`,
//!   `.rodata.cst16`, …) that one output section holds into one
//!   section, so a class is probed, and placed, whole: rustc's object
//!   apart from the C objects.

use std::collections::{BTreeMap, BTreeSet};

use crate::elf::{Elf, PF_W, PF_X, PT_LOAD};
use crate::hot::{legacy_prefix, Trace, WINDOW};
use crate::linkmap::Placed;

/// The classes of mergeable strings and constants GCC and LLVM emit.
/// Any other class is probed with the rest of its kind, after these.
const MERGED: &[&str] = &[
    "str1.1", "str1.8", "str1.16", "str1.32", "str2.2", "str4.4", "str4.8", "str4.16", "cst2",
    "cst4", "cst8", "cst16", "cst32",
];

/// The object rustc's LTO writes, whatever the crate and build path
/// (`…-cgu.0.rcgu.o`).
const RUST_OBJECT: &str = "*.rcgu.o";

/// The probe's unit for the classes [`MERGED`] does not list.
const OTHER_MERGED: &str = "*(.rodata.str* .rodata.cst*)";

/// The probe's units that are not one input section each, in the
/// order the probe lays them out: output section `.rodata.probe.<i>`
/// holds unit `i`. The rest, one section per window, follow in
/// `.rodata.probe`.
fn units() -> Vec<String> {
    let mut u = vec!["*(.rodata..Lanon.*)".to_string()];
    for c in MERGED {
        u.push(format!("{RUST_OBJECT}(.rodata.{c})"));
        u.push(format!("*(.rodata.{c})"));
    }
    u.push(OTHER_MERGED.to_string());
    u
}

/// The output section the probe gives unit `i` of [`units`].
fn unit_section(i: usize) -> String {
    format!(".rodata.probe.{i}")
}

/// The linker script a probe image is linked with instead of `hot.ld`:
/// every unit, and then every other read-only input section, starts a
/// 64 KiB window of its own, ahead of the sections LLD puts in the
/// read-only segment itself (`.gcc_except_table`, `.eh_frame_hdr`,
/// `.eh_frame`), which start one more. Each merged class has an output
/// section of its own: LLD merges a class across an output section.
pub fn probe_script() -> String {
    let mut s = String::from(
        "/* hot-text's read-only probe: one 64 KiB window per read-only\n   \
         input section (`hot-text probe-script`, crates/ukbuild). */\nSECTIONS\n{\n",
    );
    for (i, u) in units().iter().enumerate() {
        s.push_str(&format!("  {} : ALIGN({WINDOW:#x}) {{ {u} }}\n", unit_section(i)));
    }
    s.push_str(&format!(
        "  .rodata.probe : ALIGN({WINDOW:#x}) SUBALIGN({WINDOW:#x})\n  {{\n    \
         *(.rodata .rodata.*)\n    . = ALIGN({WINDOW:#x});\n  }}\n}}\n\
         INSERT BEFORE .gcc_except_table;\n"
    ));
    s
}

/// The pattern of a linker script that names an input file without its
/// directory: an archive member as `*libc.a:C-ctype.o`, rustc's object
/// as [`RUST_OBJECT`], another object by its file name.
fn file_pattern(file: &str) -> String {
    let base = |p: &str| p.rsplit('/').next().unwrap_or(p).to_string();
    if let Some((archive, member)) = file.strip_suffix(')').and_then(|f| f.split_once('(')) {
        return format!("*{}:{member}", base(archive));
    }
    if file.ends_with(".rcgu.o") {
        return RUST_OBJECT.to_string();
    }
    format!("*{}", base(file))
}

/// The path-free pattern that places input `section` of `file` (as a
/// link map gives them) in `.rodata.hot`: see the module docs.
fn pattern(file: &str, section: &str) -> String {
    if section.starts_with(".rodata..Lanon.") {
        return "*(.rodata..Lanon.*)".to_string();
    }
    if file.ends_with(')') || section == ".rodata" {
        return format!("{}({section})", file_pattern(file));
    }
    if let Some(at) = section.find("_ZN") {
        if let Some(p) = legacy_prefix(&section[at..]) {
            return format!("*({}{p}*)", &section[..at]);
        }
    }
    format!("*({section})")
}

/// What a probe run read of its image's read-only data, as a trace
/// ([`Trace::rodata`]): the patterns of the sections in the `windows`
/// it held at exit ([`resident_windows`]), each once, with the bytes
/// each places (every input section of the image it names), from where
/// `.rodata.hot` would begin. `map` is the probe image's link map. Also
/// returns the resident windows past the ELF headers' that no probed
/// section accounts for (`.eh_frame`'s, say).
pub fn reads(image: &str, map: &[Placed], windows: &BTreeSet<u64>) -> (Trace, Vec<u64>) {
    let unit_of: BTreeMap<String, String> =
        units().into_iter().enumerate().map(|(i, u)| (unit_section(i), u)).collect();
    let probed = |p: &Placed| p.output == ".rodata.probe" || unit_of.contains_key(&p.output);
    // What LLD puts ahead of the probed sections (non-alloc
    // sections sit at address 0).
    let first = map.iter().filter(|p| probed(p)).map(|p| p.addr).min().unwrap_or(0);
    let start = map
        .iter()
        .filter(|p| p.addr > 0 && p.addr < first)
        .map(|p| p.addr + p.size)
        .max()
        .unwrap_or(0);
    let mut bytes: BTreeMap<String, u64> = BTreeMap::new();
    let mut read: Vec<String> = Vec::new();
    let mut accounted: BTreeSet<u64> = BTreeSet::from([0]);
    for p in map.iter().filter(|p| probed(p) && p.size > 0) {
        let pat = match unit_of.get(&p.output) {
            Some(u) if u != OTHER_MERGED => u.clone(),
            _ => pattern(&p.file, &p.section),
        };
        *bytes.entry(pat.clone()).or_default() += p.size;
        let span = p.addr / WINDOW..=(p.addr + p.size - 1) / WINDOW;
        accounted.extend(span.clone());
        if span.clone().any(|w| windows.contains(&w)) && !read.contains(&pat) {
            read.push(pat);
        }
    }
    let outside = windows.difference(&accounted).copied().collect();
    let patterns = read.into_iter().map(|p| (bytes[&p], p)).collect();
    (Trace { image: image.to_string(), rodata: true, start, patterns }, outside)
}

/// The read-only windows a run of an image laid out by `hot.ld` keeps
/// resident: the one that holds the ELF headers and `.rodata.hot`.
pub const MAX_WINDOWS: usize = 1;

/// The 64 KiB windows of `elf`'s read-only `PT_LOAD` (neither writable
/// nor executable: the one that holds the ELF headers) that the pages
/// in `resident` (by link-time address) lie in.
pub fn resident_windows(elf: &Elf, resident: &[u64]) -> BTreeSet<u64> {
    let ro = elf.segments().iter().find(|s| s.kind == PT_LOAD && s.flags & (PF_W | PF_X) == 0);
    resident
        .iter()
        .filter(|&&p| ro.is_some_and(|s| p >= s.vaddr && p < s.vaddr + s.memsz))
        .map(|p| p / WINDOW)
        .collect()
}

/// The `.rodata.hot` block of `hot.ld` for a set of reads, each named
/// by the source it ran (a workload, an example; the reads of one
/// source, one per round, count as one), and the windows each source
/// is modelled to touch, in the order sources first appear.
///
/// Every pattern any source read goes in, smallest first: the block
/// follows the ELF headers and relocation tables in the first window,
/// so the largest sections go last and a section of which runs read
/// only the head (glibc's `C-ctype.o`, 56.7 KB, which start-up's
/// `sscanf` reads through `isspace`) may run past the window's end. The
/// model counts, for each source, the windows in which the sections it
/// read begin, from its image's start, each pattern at the largest
/// size any image gave it: the first window, and one more for each
/// window past it in which a section it read begins.
pub(crate) fn block(reads: &[&(String, Trace)]) -> (String, Vec<(String, u64)>) {
    let mut size: BTreeMap<&str, u64> = BTreeMap::new();
    for (_, r) in reads.iter().copied() {
        for (b, p) in &r.patterns {
            let e = size.entry(p).or_default();
            *e = (*e).max(*b);
        }
    }
    let mut order: Vec<&str> = size.keys().copied().collect();
    order.sort_by_key(|p| (size[p], *p));
    let mut offset: BTreeMap<&str, u64> = BTreeMap::new();
    let mut at = 0;
    for p in &order {
        offset.insert(p, at);
        at += size[p];
    }

    let mut begun: Vec<(String, BTreeSet<u64>)> = Vec::new();
    for (name, r) in reads.iter().copied() {
        let w = r.patterns.iter().map(|(_, p)| (r.start + offset[p.as_str()]) / WINDOW);
        match begun.iter_mut().find(|(n, _)| n == name) {
            Some(e) => e.1.extend(w),
            None => begun.push((name.clone(), std::iter::once(0).chain(w).collect())),
        }
    }
    let windows = begun.into_iter().map(|(n, w)| (n, w.len() as u64)).collect();

    let mut s = format!(
        "SECTIONS\n{{\n  .rodata.hot :\n  {{\n    \
         /* read by the traced runs, smallest first: {at} B */\n"
    );
    for p in order {
        s.push_str(&format!("    {p}\n"));
    }
    s.push_str("  }\n}\nINSERT BEFORE .gcc_except_table;\n");
    (s, windows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_name_no_path_and_no_hash() {
        let rust = "/t/deps/ukperf-74c2.ukperf.6541-cgu.0.rcgu.o";
        let libc = "/usr/lib/gcc/x86_64-linux-gnu/12/../../../x86_64-linux-gnu/libc.a(C-ctype.o)";
        let cases = [
            (rust, ".rodata..Lanon.fad58de7366495db4650cfefac2fcd61.12", "*(.rodata..Lanon.*)"),
            (rust, ".rodata._ZN6ukperf4main17h7b911850c51a96e6E", "*(.rodata._ZN6ukperf4main17h*)"),
            (
                rust,
                ".rodata..Lswitch.table._ZN10uknetstack3tcp3Tcb4poll17h0123456789abcdefE.llvm.42",
                "*(.rodata..Lswitch.table._ZN10uknetstack3tcp3Tcb4poll17h*)",
            ),
            (
                rust,
                ".rodata._RNvNtCsjrHSEGnQ3l9_3std5alloc24default_alloc_error_hook",
                "*(.rodata._RNvNtCsjrHSEGnQ3l9_3std5alloc24default_alloc_error_hook)",
            ),
            (rust, ".rodata", "*.rcgu.o(.rodata)"),
            (libc, ".rodata", "*libc.a:C-ctype.o(.rodata)"),
            (libc, ".rodata.sse4.2", "*libc.a:C-ctype.o(.rodata.sse4.2)"),
            ("/usr/lib/x86_64-linux-gnu/rcrt1.o", ".rodata", "*rcrt1.o(.rodata)"),
        ];
        for (file, section, want) in cases {
            assert_eq!(pattern(file, section), want, "{file}:({section})");
        }
    }

    #[test]
    fn the_probe_gives_each_unit_a_window_ahead_of_the_rest() {
        let s = probe_script();
        assert!(s.contains(".rodata.probe.0 : ALIGN(0x10000) { *(.rodata..Lanon.*) }"), "{s}");
        let rust = s.find("*.rcgu.o(.rodata.str1.1)").unwrap();
        assert!(rust < s.find(" *(.rodata.str1.1)").unwrap(), "rustc's strings apart, first");
        assert!(s.find("*(.rodata.str* .rodata.cst*)").unwrap() < s.find("SUBALIGN").unwrap());
        assert!(s.trim_end().ends_with("INSERT BEFORE .gcc_except_table;"));
    }

    fn probed(image: &str, start: u64, patterns: &[(u64, &str)]) -> Trace {
        let patterns = patterns.iter().map(|&(b, p)| (b, p.to_string())).collect();
        Trace { image: image.to_string(), rodata: true, start, patterns }
    }

    fn placed(addr: u64, size: u64, output: &str, file: &str, section: &str) -> Placed {
        let (output, file, section) = (output.into(), file.into(), section.into());
        Placed { addr, size, output, file, section }
    }

    #[test]
    fn a_resident_window_names_the_section_it_holds() {
        let rust = "/t/deps/ukperf-1.ukperf.2-cgu.0.rcgu.o";
        let other = unit_section(units().len() - 1);
        let map = [
            placed(0x5b0, 0x278, ".relr.dyn", "<internal>", ".relr.dyn"),
            placed(0x10000, 0x100, ".rodata.probe.0", rust, ".rodata..Lanon.ab12.0"),
            placed(0x10100, 0x200, ".rodata.probe.0", rust, ".rodata..Lanon.ab12.1"),
            placed(0x20000, 0x1000, ".rodata.probe.1", "<internal>", ".rodata.str1.1"),
            placed(0x30000, 0xdd8c, ".rodata.probe", "/l/libc.a(C-ctype.o)", ".rodata"),
            placed(
                0x40000,
                0x20,
                ".rodata.probe",
                rust,
                ".rodata._ZN6ukperf4main17h7b911850c51a96e6E",
            ),
            placed(0x50000, 0x8, &other, "<internal>", ".rodata.str2.2"),
            placed(0x60000, 0x100, ".gcc_except_table", rust, ".gcc_except_table.x"),
        ];
        let windows = BTreeSet::from([0, 1, 3, 5, 6]);
        let (t, outside) = reads("ukperf", &map, &windows);
        assert!(t.rodata);
        assert_eq!(t.start, 0x828, "the end of .relr.dyn");
        let want = [
            (0x300, "*(.rodata..Lanon.*)"),
            (0xdd8c, "*libc.a:C-ctype.o(.rodata)"),
            (0x8, "*(.rodata.str2.2)"),
        ];
        let got: Vec<(u64, &str)> = t.patterns.iter().map(|(b, p)| (*b, p.as_str())).collect();
        assert_eq!(got, want);
        assert_eq!(outside, [6], "no probed section lies in .gcc_except_table's window");
    }

    #[test]
    fn the_block_goes_smallest_first_and_models_where_reads_begin() {
        const K: u64 = 1024;
        let all = [
            ("a".to_string(), probed("img", 0x800, &[(57 * K, "*big"), (K, "*small")])),
            ("b".to_string(), probed("img", 0x800, &[(20 * K, "*mid")])),
            ("a".to_string(), probed("img", 0x800, &[(K, "*small")])),
        ];
        let (s, windows) = block(&all.iter().collect::<Vec<_>>());
        let at = |p: &str| s.find(&format!("    {p}\n")).unwrap();
        assert!(at("*small") < at("*mid") && at("*mid") < at("*big"), "{s}");
        assert!(s.contains("smallest first: 79872 B"), "{s}");
        // `*big` begins at 0x800 + 21 KiB, inside the first window, though
        // it ends past it.
        assert_eq!(windows, [("a".to_string(), 1), ("b".to_string(), 1)]);
        assert!(s.trim_end().ends_with("INSERT BEFORE .gcc_except_table;"));
        // 30 and 40 KiB ahead of it push `*r` into the second window.
        let far = [(
            "c".to_string(),
            probed("img", 0x800, &[(40 * K, "*p"), (30 * K, "*q"), (50 * K, "*r")]),
        )];
        assert_eq!(block(&[&far[0]]).1, [("c".to_string(), 2)]);
    }
}
