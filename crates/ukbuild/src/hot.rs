//! `.text.hot`: from traced runs to the linker-script fragment every
//! image links with (`crates/ukplat/link/hot.ld`), and the checks that
//! it still covers what the workloads run.
//!
//! A traced function becomes an input-section pattern that means the
//! same thing wherever the tree is built:
//!
//! - our crates' legacy symbols end in `17h<hash>E`, and the hash
//!   changes with the source path (cargo hashes path dependencies by
//!   absolute path), so the pattern is globbed before it:
//!   `*(.text._ZN10uknetstack…4pump17h*)`;
//! - a function LLVM knows to be cold (`#[cold]`, or only reached on a
//!   path that is) sits in `.text.unlikely.<name>` instead, and each
//!   pattern names that section too;
//! - `std`'s v0 names (`_R…`) come from the prebuilt standard library
//!   and are listed exactly;
//! - C code is not built with one section per function, so it is named
//!   by archive member, `*libc.a:malloc.o(.text .text.*)` (see
//!   [`crate::archive`]). The start-up object is left out: its `_start`
//!   is the first thing in `.text`, right after `.text.hot`, and naming
//!   `rcrt1.o` would move `.init` and `.fini` ahead of `.text.hot`.

use std::collections::{HashMap, HashSet};

use crate::archive::Archive;
use crate::elf::{Elf, Function};

/// The start of a glob that matches every hash of a legacy symbol:
/// `name` up to and including its `17h` hash prefix.
fn legacy_prefix(name: &str) -> Option<&str> {
    if !name.starts_with("_ZN") {
        return None;
    }
    let at = name.rfind("17h")?;
    let hash = name.get(at + 3..at + 19)?;
    (hash.bytes().all(|c| c.is_ascii_hexdigit()) && name[at + 19..].starts_with('E'))
        .then(|| &name[..at + 3])
}

fn is_rust(name: &str) -> bool {
    name.starts_with("_ZN") || name.starts_with("_R")
}

/// The file pattern of the object in `libs` that defines `name`.
fn member(libs: &[Archive], name: &str) -> Option<String> {
    libs.iter().find_map(|a| a.file_pattern(name))
}

/// The input-section pattern that places a function (all its
/// `aliases`, one address) in `.text.hot`.
fn pattern(aliases: &[&Function], libs: &[Archive]) -> String {
    if let Some(p) = aliases.iter().find_map(|f| legacy_prefix(&f.name)) {
        return format!("*(.text.{p}* .text.unlikely.{p}*)");
    }
    if let Some(f) = aliases.iter().find(|f| f.name.starts_with("_R")) {
        return format!("*(.text.{0} .text.unlikely.{0})", f.name);
    }
    if let Some(m) = aliases.iter().find_map(|f| member(libs, &f.name)) {
        return format!("{m}(.text .text.*)");
    }
    format!("*(.text.{0} .text.unlikely.{0})", aliases[0].name)
}

/// Every function's aliases, by entry address.
fn by_address(elf: &Elf) -> HashMap<u64, Vec<&Function>> {
    let mut aliases: HashMap<u64, Vec<&Function>> = HashMap::new();
    for f in elf.functions() {
        aliases.entry(f.addr).or_default().push(f);
    }
    aliases
}

/// The patterns a traced run's functions need, in first-hit order,
/// each once. `hits` index [`Elf::functions`] as [`crate::trace`]
/// reports them.
pub fn trace_patterns(elf: &Elf, hits: &[usize], libs: &[Archive]) -> Vec<String> {
    let aliases = by_address(elf);
    let mut out: Vec<String> = Vec::new();
    let mut seen = HashSet::new();
    for &h in hits {
        let p = pattern(&aliases[&elf.functions()[h].addr], libs);
        if seen.insert(p.clone()) {
            out.push(p);
        }
    }
    out
}

/// The linker-script fragment for a set of traces (each a pattern list
/// in first-hit order): every pattern once, those more traces share
/// first, ties in the order the traces first list them.
pub fn script(traces: &[Vec<String>]) -> String {
    let mut share: HashMap<&str, usize> = HashMap::new();
    let mut order: Vec<&str> = Vec::new();
    for t in traces {
        for p in t {
            let n = share.entry(p).or_insert(0);
            if *n == 0 {
                order.push(p);
            }
            *n += 1;
        }
    }
    order.sort_by_key(|p| std::cmp::Reverse(share[p]));
    let mut s = String::from(
        "/* The functions the traced workloads run, packed ahead of the code\n   \
         they never run; most-shared first. Written by `make hot-text`\n   \
         (`hot-text script`, crates/ukbuild); not edited by hand. */\n\
         SECTIONS\n{\n  .text.hot :\n  {\n",
    );
    let mut last = 0;
    for p in order {
        if share[p] != last {
            last = share[p];
            s.push_str(&format!("    /* run by {last} of {} traces */\n", traces.len()));
        }
        s.push_str(&format!("    {p}\n"));
    }
    s.push_str("  }\n}\nINSERT BEFORE .text;\n");
    s
}

/// What a traced run executed, against where it lies.
#[derive(Debug, Clone, Copy)]
// ukcheck: allow(unused-pub) -- what the public `coverage` returns
pub struct Coverage {
    /// Distinct functions entered.
    pub functions: usize,
    /// Their bytes (`st_size`).
    pub bytes: u64,
    /// Of those, the bytes of functions inside `.text.hot`.
    pub hot_bytes: u64,
}

impl Coverage {
    /// `hot_bytes` over `bytes`, in percent.
    pub fn hot_pct(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            100.0 * self.hot_bytes as f64 / self.bytes as f64
        }
    }
}

/// How much of what `hits` ran lies in `elf`'s `.text.hot`, and the
/// functions outside it, largest first.
pub fn coverage<'a>(elf: &'a Elf, hits: &[usize]) -> (Coverage, Vec<&'a Function>) {
    let hot = elf.section(".text.hot");
    let mut c = Coverage { functions: hits.len(), bytes: 0, hot_bytes: 0 };
    let mut missed = Vec::new();
    for &h in hits {
        let f = &elf.functions()[h];
        c.bytes += f.size;
        if hot.is_some_and(|s| s.contains(f.addr)) {
            c.hot_bytes += f.size;
        } else {
            missed.push(f);
        }
    }
    missed.sort_by_key(|f| std::cmp::Reverse(f.size));
    (c, missed)
}

/// Where a function's code comes from, for `make image-size`. The
/// discriminants index [`Origin::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// This tree's crates (and the binary's own).
    Ours,
    /// The standard library and the crates only it uses.
    Std,
    /// `core`, `alloc` and `compiler_builtins`.
    CoreAlloc,
    /// A member of glibc's `libc.a` or `libm`.
    Glibc,
    /// Anything else: `libgcc`'s unwinder, `compiler_builtins`' C-named
    /// intrinsics, the start-up code.
    Other,
}

impl Origin {
    /// Every origin, in report order.
    pub const ALL: [Origin; 5] =
        [Origin::Ours, Origin::Std, Origin::CoreAlloc, Origin::Glibc, Origin::Other];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Origin::Ours => "ours",
            Origin::Std => "std",
            Origin::CoreAlloc => "core/alloc",
            Origin::Glibc => "glibc",
            Origin::Other => "other",
        }
    }
}

/// The crates of the standard library's own build.
const STD_CRATES: &[&str] = &[
    "std",
    "panic_abort",
    "panic_unwind",
    "std_detect",
    "rustc_demangle",
    "addr2line",
    "gimli",
    "miniz_oxide",
    "object",
    "memchr",
    "adler2",
    "hashbrown",
    "unwind",
    "libc",
    "cfg_if",
];
const CORE_CRATES: &[&str] = &["core", "alloc", "compiler_builtins"];

/// `<len><ident>` at the start of `s`.
fn ident(s: &str) -> Option<&str> {
    let digits = s.bytes().take_while(u8::is_ascii_digit).count();
    let n: usize = s[..digits].parse().ok()?;
    s.get(digits..digits.checked_add(n)?)
}

/// The crate a mangled Rust symbol's path starts in.
fn rust_crate(name: &str) -> Option<&str> {
    if let Some(rest) = name.strip_prefix("_ZN") {
        let first = ident(rest)?;
        // `<T as Trait>` and `impl` paths: the first `crate..` inside.
        let Some(inner) = first.strip_prefix("_$LT$") else {
            return Some(first);
        };
        let at = inner.find("..")?;
        let head = &inner[..at];
        let start =
            head.rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).map_or(0, |i| i + 1);
        return Some(&head[start..]);
    }
    let rest = name.strip_prefix("_R")?;
    let b = rest.as_bytes();
    (0..b.len()).filter(|&i| b[i] == b'C').find_map(|i| {
        let mut j = i + 1;
        if b.get(j) == Some(&b's') {
            j += 1 + rest[j + 1..].bytes().take_while(u8::is_ascii_alphanumeric).count();
            if b.get(j) != Some(&b'_') {
                return None;
            }
            j += 1;
        }
        ident(&rest[j..]).filter(|s| !s.is_empty())
    })
}

/// The origin of every function of `elf` (the first name at each
/// address): crates by their mangled path, C code by the archive of
/// `libs` that defines it (`libc.a` and `libm`'s archives are glibc).
pub fn origins<'a>(elf: &'a Elf, libs: &[Archive]) -> Vec<(&'a Function, Origin)> {
    let mut out: Vec<(&Function, Origin)> = Vec::new();
    for f in elf.functions() {
        if out.last().is_some_and(|(g, _)| g.addr == f.addr) {
            continue;
        }
        let glibc = |a: &Archive| {
            (a.name.starts_with("libc.") || a.name.starts_with("libm"))
                && a.member_of(&f.name).is_some()
        };
        let origin = match rust_crate(&f.name) {
            Some(c) if STD_CRATES.contains(&c) => Origin::Std,
            Some(c) if CORE_CRATES.contains(&c) => Origin::CoreAlloc,
            Some(_) => Origin::Ours,
            None if is_rust(&f.name) => Origin::Ours,
            None if libs.iter().any(glibc) => Origin::Glibc,
            None => Origin::Other,
        };
        out.push((f, origin));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_names_lose_their_hash() {
        let n = "_ZN10uknetstack4icmp16encode_echo_into17h4831cb8daf341158E";
        assert_eq!(legacy_prefix(n), Some("_ZN10uknetstack4icmp16encode_echo_into17h"));
        let llvm = "_ZN10uknetstack4flow9FlowTable3new17h77bec99451d0c191E.llvm.123";
        assert_eq!(legacy_prefix(llvm), Some("_ZN10uknetstack4flow9FlowTable3new17h"));
        assert_eq!(legacy_prefix("_ZN3foo17hnothexE"), None);
        assert_eq!(legacy_prefix("_RNvCs1234_3std4main"), None);
    }

    #[test]
    fn crates_are_read_off_both_manglings() {
        let cases = [
            ("_ZN10uknetstack3tcp4wire9TcpHeader4emit17h367c70eeba22608fE", "uknetstack"),
            ("_ZN4core3ptr13drop_in_place17h0123456789abcdefE", "core"),
            (
                "_ZN10uknetstack3tcp3ack38_$LT$impl$u20$uknetstack..tcp..Tcb$GT$11process_ack17h372ece3cf7836d46E",
                "uknetstack",
            ),
            ("_ZN59_$LT$ukperf..Foo$u20$as$u20$core..fmt..Debug$GT$3fmt17h0123456789abcdefE", "ukperf"),
            ("_RNvNtNtCsjrHSEGnQ3l9_3std2io5stdio6_print", "std"),
            ("_RNvYNtNvXsf_NtNtCslNYArtu3iFV_5alloc5boxed7convert4from", "alloc"),
            ("_RINvMNtNtCsgEmfK2I1SDS_4core4cell4once8try_initE", "core"),
        ];
        for (name, want) in cases {
            assert_eq!(rust_crate(name), Some(want), "{name}");
        }
        assert_eq!(rust_crate("__libc_malloc"), None);
    }

    #[test]
    fn script_puts_the_most_shared_first() {
        let a = vec!["*(.text.x)".to_string(), "*(.text.y)".to_string()];
        let b = vec!["*(.text.z)".to_string(), "*(.text.y)".to_string()];
        let s = script(&[a, b]);
        let y = s.find("*(.text.y)").unwrap();
        let x = s.find("*(.text.x)").unwrap();
        let z = s.find("*(.text.z)").unwrap();
        assert!(y < x && x < z, "{s}");
        assert_eq!(s.matches("*(.text.y)").count(), 1);
        assert!(s.trim_end().ends_with("INSERT BEFORE .text;"));
    }
}
