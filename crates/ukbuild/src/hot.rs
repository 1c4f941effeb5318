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
//!   [`crate::archive`]); a C name the image defines without the rest of
//!   the member that defines it in `libc.a` (`pthread_getattr_np`, which
//!   `ukplat` defines for std) is a `#[no_mangle]` function of a Rust
//!   object, in a section of its own like any other.
//!
//! The start-up code is not traced into a pattern: the stubs (the
//! start-up objects and LLD's `.iplt`) open the section, whatever the
//! traces say.
//!
//! The order is chosen for the kernel's fault-around: each page fault
//! in the code maps the 64 KiB window ([`WINDOW`]) around it, aligned
//! in virtual address (the image's base is 64 KiB-aligned:
//! `.cargo/config.toml`'s `max-page-size`). What a run keeps resident
//! is the windows its functions touch, so [`script`] groups the
//! patterns by the set of traces that ran them and lays the groups out
//! to touch the fewest windows, summed over the traces.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::archive::{Archive, Present};
use crate::elf::{Elf, Function};

/// The start of a glob that matches every hash of a legacy symbol:
/// `name` up to and including its `17h` hash prefix.
pub(crate) fn legacy_prefix(name: &str) -> Option<&str> {
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

/// The names of `elf`'s functions, size-0 ones too (LLD gives glibc's
/// `strcmp` IFUNC no size).
fn names(elf: &Elf) -> HashSet<&str> {
    elf.functions().iter().chain(elf.unsized_functions()).map(|f| f.name.as_str()).collect()
}

/// The file pattern of the object in `libs` that defines `name`, if the
/// image holds it, and the object's code bytes.
fn member(libs: &[Archive], name: &str, present: Present) -> Option<(String, u64)> {
    libs.iter().find_map(|a| a.file_pattern(name, present))
}

/// The input-section pattern that places a function (all its
/// `aliases`, one address) in `.text.hot`; for a pattern that names an
/// archive member, also the bytes it places (all the member's code).
/// `present` says which functions the image defines.
fn pattern(aliases: &[&Function], libs: &[Archive], present: Present) -> (String, Option<u64>) {
    if let Some(p) = aliases.iter().find_map(|f| legacy_prefix(&f.name)) {
        return (format!("*(.text.{p}* .text.unlikely.{p}*)"), None);
    }
    if let Some(f) = aliases.iter().find(|f| f.name.starts_with("_R")) {
        return (format!("*(.text.{0} .text.unlikely.{0})", f.name), None);
    }
    if let Some((m, code)) = aliases.iter().find_map(|f| member(libs, &f.name, present)) {
        return (format!("{m}(.text .text.*)"), Some(code));
    }
    (format!("*(.text.{0} .text.unlikely.{0})", aliases[0].name), None)
}

/// Every function's aliases, by entry address.
fn by_address(elf: &Elf) -> HashMap<u64, Vec<&Function>> {
    let mut aliases: HashMap<u64, Vec<&Function>> = HashMap::new();
    for f in elf.functions() {
        aliases.entry(f.addr).or_default().push(f);
    }
    aliases
}

/// The bytes of one fault-around window: the kernel maps the 64 KiB
/// around each page fault in a file mapping (`fault_around_bytes`).
pub const WINDOW: u64 = 64 << 10;

/// The windows a traced run's functions may touch beyond the fewest
/// their bytes need (⌈bytes / 64 KiB⌉). A linker script places all of a
/// glibc member and every monomorph of a generic function under one
/// glob, so `.text.hot` holds more than any one run executes; + 2 is
/// the tightest bound the six workloads meet.
const MAX_EXTRA_WINDOWS: u64 = 2;

/// What opens `.text.hot`, ahead of every traced pattern: the start-up
/// object (`_start`, the entry point, run once by every image), GCC's
/// `crtbegin` (`frame_dummy` and `__do_global_dtors_aux`, run from
/// `.init_array` and `.fini_array`; their symbols have no size, so no
/// trace sees them) and LLD's PLT for glibc's IFUNCs, through which
/// every `memcpy` and `memset` of a static image jumps. LLD then puts
/// `.init` and `.fini` (32 B) right before the section.
const STUBS: &[&str] = &["*rcrt1.o(.text .text.*)", "*crtbegin*.o(.text .text.*)", "*(.iplt)"];

/// The one function [`script`] gives a fixed site, and its offset in a
/// 64-byte line ([`PIN_LINE`]): `ukperf`'s reference kernel
/// (`benchmark/src/refkernel.rs`, `RefKernel::run`), whose wall time
/// scales every timed `ukperf` result for host speed. Its own speed
/// follows where its loops fall in the cache lines and fetch blocks
/// (≈ 5–7 % faster at 0 mod 64 than at 16), so a layout that moved it
/// moved every normalised `ops_per_s` and `setup_s` with it. 16 is
/// where it sat in the builds the benchmark's figures were taken from.
/// The pin stays until the kernel has a section of its own.
const PINNED: (&str, u64) = ("_ZN6ukperf9refkernel9RefKernel3run17h", 16);

/// The alignment [`PINNED`]'s offset is taken in.
const PIN_LINE: u64 = 64;

/// The script lines ahead of `pattern`: the pin, for [`PINNED`]'s.
fn pin(pattern: &str) -> Option<String> {
    let (prefix, offset) = PINNED;
    (pattern == format!("*(.text.{prefix}* .text.unlikely.{prefix}*)"))
        .then(|| format!("    . = ALIGN({PIN_LINE});\n    . += {offset};\n"))
}

/// One traced run, as `hot-text trace` (or `hot-text probe`) writes it
/// and `hot-text script` reads it: a `# <image> <start>` line (`# <image>
/// .rodata <start>` for a probe's), then `<bytes>\t<pattern>` lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The image's file name: the traces of one image share a layout.
    pub image: String,
    /// Whether the patterns are read-only sections a probe saw read
    /// ([`crate::rodata::reads`]), not functions a run entered.
    pub rodata: bool,
    /// Where the traced patterns begin in that image: the first
    /// function of `.text.hot` past the stubs (of `.text`, in an image
    /// without one); for a probe's, the end of what LLD puts ahead of
    /// `.rodata.hot` (the ELF headers, notes and relocation tables).
    pub start: u64,
    /// The patterns the run needs, in first-hit order, each once, with
    /// the bytes it places: every function (or read-only input
    /// section) of the image it matches, or all the code of the archive
    /// member it names.
    pub patterns: Vec<(u64, String)>,
}

/// The header word of a probe's trace.
const RODATA: &str = ".rodata";

impl Trace {
    /// The trace of a run of `elf` (called `image`) that entered `hits`
    /// (indices into [`Elf::functions`], as [`crate::trace`] reports
    /// them). The start-up code is left out: the stubs place it.
    pub fn new(image: &str, elf: &Elf, hits: &[usize], libs: &[Archive]) -> Trace {
        let aliases = by_address(elf);
        let names = names(elf);
        let present = |n: &str| names.contains(n);
        let mut bytes: HashMap<String, u64> = HashMap::new();
        for fs in aliases.values() {
            match pattern(fs, libs, &present) {
                (p, Some(code)) => {
                    bytes.insert(p, code);
                }
                (p, None) => {
                    // `st_size` up to the 16 B LLVM aligns a function to.
                    let size = fs.iter().map(|f| f.size.next_multiple_of(16)).max();
                    *bytes.entry(p).or_default() += size.unwrap_or(0);
                }
            }
        }
        let mut patterns = Vec::new();
        let mut seen = HashSet::new();
        for &h in hits {
            let addr = elf.functions()[h].addr;
            if addr == elf.entry() {
                continue;
            }
            let (p, _) = pattern(&aliases[&addr], libs, &present);
            if seen.insert(p.clone()) {
                patterns.push((bytes[&p], p));
            }
        }
        let code = elf.section(".text.hot").or_else(|| elf.section(".text"));
        let start = code.map_or(0, |s| {
            elf.functions()
                .iter()
                .find(|f| s.contains(f.addr) && f.addr != elf.entry())
                .map_or(s.addr, |f| f.addr)
        });
        Trace { image: image.to_string(), rodata: false, start, patterns }
    }

    /// The file form.
    pub fn to_text(&self) -> String {
        let kind = if self.rodata { format!(" {RODATA}") } else { String::new() };
        let mut s = format!("# {}{kind} {:#x}\n", self.image, self.start);
        for (b, p) in &self.patterns {
            s.push_str(&format!("{b}\t{p}\n"));
        }
        s
    }

    /// Reads the file form back.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines();
        let head =
            lines.next().and_then(|l| l.strip_prefix("# ")).ok_or("no `# <image> <start>` line")?;
        let (image, start) = head.split_once(' ').ok_or("no start on the `#` line")?;
        let (rodata, start) = match start.strip_prefix(RODATA) {
            Some(rest) => (true, rest.trim_start()),
            None => (false, start),
        };
        let start = start
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("`{start}`: not a hex address"))?;
        let patterns = lines
            .filter(|l| !l.is_empty())
            .map(|l| {
                let (b, p) = l.split_once('\t').ok_or_else(|| format!("`{l}`: no tab"))?;
                Ok((b.parse().map_err(|_| format!("`{b}`: not a byte count"))?, p.to_string()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Trace { image: image.to_string(), rodata, start, patterns })
    }
}

/// The windows `[lo, hi)` touches beyond `last`, the window a source
/// touched last.
fn new_windows(lo: u64, hi: u64, last: Option<u64>) -> u64 {
    if hi <= lo {
        return 0;
    }
    let (first, end) = (lo / WINDOW, (hi - 1) / WINDOW);
    end - first + 1 - u64::from(last == Some(first))
}

/// A group laid out: its index, and whether it opens a window of its
/// own (`. = ALIGN(64 KiB)` before it).
type Slot = (usize, bool);

/// The most sources [`script`] lays out: it tries every order of them
/// (8! = 40 320 layouts, each a few hundred steps).
const MAX_SOURCES: usize = 8;

/// Each source's place in `order`.
fn rank_of(order: &[usize]) -> Vec<usize> {
    let mut rank = vec![0; order.len()];
    for (r, &s) in order.iter().enumerate() {
        rank[s] = r;
    }
    rank
}

/// What [`script`] lays out: sources (a workload, an example), each
/// run in one image; the groups of patterns, keyed by the set of
/// sources that ran them; and each group's bytes in each image.
struct Model<'a> {
    names: Vec<&'a str>,
    image: Vec<usize>,
    /// Per image: where the first group goes.
    starts: Vec<u64>,
    /// Per group: the sources that ran it (a bit each), its patterns.
    groups: Vec<(u64, Vec<&'a str>)>,
    /// Per group, per image: its bytes there (none in an image no
    /// source of which ran it).
    sizes: Vec<Vec<u64>>,
}

/// A layout in progress: per image, where the next group goes; per
/// source, the window it touched last and the windows it has touched.
#[derive(Clone)]
struct Layout {
    at: Vec<u64>,
    last: Vec<Option<u64>>,
    windows: Vec<u64>,
}

impl Model<'_> {
    fn ran(&self, g: usize) -> impl Iterator<Item = usize> + '_ {
        let mask = self.groups[g].0;
        (0..self.names.len()).filter(move |&s| mask & (1 << s) != 0)
    }

    fn lay(&self, order: &[Slot]) -> Layout {
        let n = self.names.len();
        let mut l = Layout { at: self.starts.clone(), last: vec![None; n], windows: vec![0; n] };
        for &(g, align) in order {
            if align {
                l.at.iter_mut().for_each(|a| *a = a.next_multiple_of(WINDOW));
            }
            for s in self.ran(g) {
                let i = self.image[s];
                let end = l.at[i] + self.sizes[g][i];
                l.windows[s] += new_windows(l.at[i], end, l.last[s]);
                if end > l.at[i] {
                    l.last[s] = Some((end - 1) / WINDOW);
                }
            }
            for (i, a) in l.at.iter_mut().enumerate() {
                *a += self.sizes[g][i];
            }
        }
        l
    }

    fn total(&self, order: &[Slot]) -> u64 {
        self.lay(order).windows.iter().sum()
    }

    /// The groups for one order of the sources (`rank`: each source's
    /// place in it): a group goes with the first source that ran it,
    /// so each source's code follows the code it shares with those
    /// before it; in a source's run, the groups more sources share
    /// first. The group every source ran leads.
    fn ranked(&self, rank: &[usize]) -> Vec<Slot> {
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        order.sort_by_key(|&g| {
            let first = self.ran(g).map(|s| rank[s]).min();
            (first, std::cmp::Reverse(self.groups[g].0.count_ones()))
        });
        order.into_iter().map(|g| (g, false)).collect()
    }

    /// The [`Model::ranked`] layout that touches the fewest windows,
    /// over every order of the sources.
    fn best_ranked(&self) -> Vec<Slot> {
        let n = self.names.len();
        let mut bytes = vec![0u64; n];
        for g in 0..self.groups.len() {
            for s in self.ran(g) {
                bytes[s] += self.sizes[g][self.image[s]];
            }
        }
        let mut by_bytes: Vec<usize> = (0..n).collect();
        by_bytes.sort_by_key(|&s| bytes[s]);
        let mut best = self.ranked(&rank_of(&by_bytes));
        let mut best_total = self.total(&best);
        let mut perm = by_bytes;
        // Heap's algorithm: every order of the sources once.
        let mut c = vec![0usize; n];
        let mut i = 0;
        while i < n {
            if c[i] < i {
                perm.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                let order = self.ranked(&rank_of(&perm));
                let t = self.total(&order);
                if t < best_total {
                    (best, best_total) = (order, t);
                }
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        best
    }

    /// Moves one group elsewhere, or turns its window alignment on or
    /// off, while that lowers [`Model::total`] (the first slot, the
    /// group every source ran, stays).
    fn improve(&self, mut order: Vec<Slot>) -> Vec<Slot> {
        let mut best = self.total(&order);
        let mut better = true;
        while better {
            better = false;
            for from in 1..order.len() {
                for to in 1..order.len() {
                    for flip in [false, true] {
                        let mut next = order.clone();
                        let (g, align) = next.remove(from);
                        next.insert(to, (g, align ^ flip));
                        let t = self.total(&next);
                        if t < best {
                            (order, best, better) = (next, t, true);
                        }
                    }
                }
            }
        }
        order
    }
}

/// The linker-script fragment for a set of traces, code traces and
/// read-only probes' ([`Trace::rodata`]), each named by the source it
/// ran (a workload, an example). Several traces of one source (one per
/// round) count as one: the union of their patterns, laid out from the
/// last one's start.
///
/// The `.rodata.hot` block (`rodata::block`) comes first, when there
/// are probes' traces, so that the fragment still ends in the
/// `.text.hot` block's `INSERT BEFORE .text;`.
///
/// The patterns are grouped by the set of sources that ran them, each
/// group in first-hit order, and no group is split. After the stubs
/// comes the group every source ran. The rest are laid out to touch
/// the fewest 64 KiB windows, summed over the sources, with the byte
/// sizes the traces give; each image holds only the groups a source of
/// it ran, so each is laid out from its own start:
///
/// 1. for an order of the sources, each group goes with the first
///    source that ran it, the groups more sources share first in each
///    source's run; every order of the sources (at most eight) is
///    tried, and the one with the fewest windows kept;
/// 2. then single moves — a group to another place, or a group opening
///    a window of its own (`. = ALIGN(0x10000)`: the gap costs address
///    space, not residency) — are kept while they lower the sum.
///
/// (Placing, one at a time, the group that adds the fewest windows
/// leaves the largest shared group for last; with a bound on what the
/// rest could still add it left one workload three windows over
/// ⌈bytes / 64 KiB⌉. Step 2 alone, from the order of least bytes
/// first, models 63 windows over the six workloads and two examples
/// where both steps model 60.) The header comment gives the windows so
/// modelled, of the code and of the read-only data. The model leaves out
/// the pin in front of the normaliser (`PINNED`, at most 79 B).
pub fn script(traces: &[(String, Trace)]) -> Result<String, String> {
    let (reads, traces): (Vec<_>, Vec<_>) = traces.iter().partition(|(_, t)| t.rodata);
    let mut names: Vec<&str> = Vec::new();
    let mut image: Vec<usize> = Vec::new();
    let mut images: Vec<&str> = Vec::new();
    let mut starts: Vec<u64> = Vec::new();
    let mut first_seen: Vec<&str> = Vec::new();
    let mut ran: HashMap<&str, u64> = HashMap::new();
    let mut bytes: HashMap<(usize, &str), u64> = HashMap::new();
    for (name, t) in traces {
        let i = images.iter().position(|i| *i == t.image).unwrap_or_else(|| {
            images.push(&t.image);
            starts.push(0);
            images.len() - 1
        });
        starts[i] = t.start;
        let s = names.iter().position(|n| n == name).unwrap_or_else(|| {
            names.push(name);
            image.push(i);
            names.len() - 1
        });
        if s >= MAX_SOURCES {
            return Err(format!("more than {MAX_SOURCES} sources"));
        }
        if image[s] != i {
            return Err(format!("{name}: traces of two images"));
        }
        for (b, p) in &t.patterns {
            *ran.entry(p).or_insert_with(|| {
                first_seen.push(p);
                0
            }) |= 1 << s;
            let e = bytes.entry((i, p)).or_default();
            *e = (*e).max(*b);
        }
    }
    if names.is_empty() {
        return Err("no traces".to_string());
    }
    let mut groups: Vec<(u64, Vec<&str>)> = Vec::new();
    for p in first_seen {
        match groups.iter_mut().find(|g| g.0 == ran[p]) {
            Some(g) => g.1.push(p),
            None => groups.push((ran[p], vec![p])),
        }
    }
    let sizes = groups
        .iter()
        .map(|(_, ps)| {
            (0..images.len())
                .map(|i| ps.iter().map(|p| bytes.get(&(i, *p)).copied().unwrap_or(0)).sum())
                .collect()
        })
        .collect();
    let model = Model { names, image, starts, groups, sizes };
    let order = model.improve(model.best_ranked());
    let windows = model.lay(&order).windows;

    let mut s = String::from(
        "/* The functions the traced workloads run, packed ahead of the code\n   \
         they never run: the start-up stubs, then the patterns grouped by\n   \
         the traces that ran them, in the order that touches the fewest\n   \
         64 KiB fault-around windows. Ahead of them, the read-only input\n   \
         sections the probed runs read, packed after the ELF headers into\n   \
         the window those already fault in. Written by `make hot-text`\n   \
         (`hot-text script`, crates/ukbuild); not edited by hand.\n   \
         Modelled windows:",
    );
    let summary: Vec<String> =
        model.names.iter().zip(&windows).map(|(n, w)| format!(" {n} {w}")).collect();
    s.push_str(&summary.join(","));
    let rodata = (!reads.is_empty()).then(|| crate::rodata::block(&reads));
    if let Some((_, ro)) = &rodata {
        s.push_str("\n   Modelled read-only windows:");
        let summary: Vec<String> = ro.iter().map(|(n, w)| format!(" {n} {w}")).collect();
        s.push_str(&summary.join(","));
    }
    s.push_str(" */\n");
    if let Some((block, _)) = &rodata {
        s.push_str(block);
    }
    s.push_str("SECTIONS\n{\n  .text.hot :\n  {\n");
    for stub in STUBS {
        s.push_str(&format!("    {stub}\n"));
    }
    for (g, align) in order {
        if align {
            s.push_str(&format!("    . = ALIGN({WINDOW:#x});\n"));
        }
        let (_, ps) = &model.groups[g];
        let by: Vec<&str> = model.ran(g).map(|k| model.names[k]).collect();
        let size = model.sizes[g].iter().max().copied().unwrap_or(0);
        s.push_str(&format!("    /* run by {}: {size} B */\n", by.join(", ")));
        for p in ps {
            s.push_str(&pin(p).unwrap_or_default());
            s.push_str(&format!("    {p}\n"));
        }
    }
    s.push_str("  }\n}\nINSERT BEFORE .text;\n");
    Ok(s)
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
    /// The 64 KiB windows ([`WINDOW`]) those functions touch: what
    /// fault-around keeps resident of the code for them.
    pub windows: u64,
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

    /// The fewest windows the bytes could touch: ⌈bytes / 64 KiB⌉.
    pub fn floor(&self) -> u64 {
        self.bytes.div_ceil(WINDOW)
    }

    /// Whether the functions touch at most `MAX_EXTRA_WINDOWS` (2) more
    /// windows than [`Coverage::floor`].
    pub fn tight(&self) -> bool {
        self.windows <= self.floor() + MAX_EXTRA_WINDOWS
    }
}

/// How much of what `hits` ran lies in `elf`'s `.text.hot`, the windows
/// it touches, and the functions outside `.text.hot`, largest first.
pub fn coverage<'a>(elf: &'a Elf, hits: &[usize]) -> (Coverage, Vec<&'a Function>) {
    let hot = elf.section(".text.hot");
    let mut c = Coverage { functions: hits.len(), bytes: 0, hot_bytes: 0, windows: 0 };
    let mut missed = Vec::new();
    let mut windows = BTreeSet::new();
    for &h in hits {
        let f = &elf.functions()[h];
        c.bytes += f.size;
        windows.extend(f.addr / WINDOW..=(f.addr + f.size - 1) / WINDOW);
        if hot.is_some_and(|s| s.contains(f.addr)) {
            c.hot_bytes += f.size;
        } else {
            missed.push(f);
        }
    }
    c.windows = windows.len() as u64;
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

/// The origin of the function `name`, as [`origins`] gives it; a C name
/// is the member's only if the image holds the member
/// ([`Archive::linked_member`]).
fn origin(name: &str, libs: &[Archive], present: Present) -> Origin {
    let glibc = |a: &Archive| a.name.starts_with("libc.") || a.name.starts_with("libm");
    match rust_crate(name) {
        Some(c) if STD_CRATES.contains(&c) => Origin::Std,
        Some(c) if CORE_CRATES.contains(&c) => Origin::CoreAlloc,
        Some(_) => Origin::Ours,
        None if is_rust(name) => Origin::Ours,
        None if libs.iter().any(|a| glibc(a) && a.linked_member(name, present).is_some()) => {
            Origin::Glibc
        }
        None if libs.iter().any(|a| a.member_of(name).is_some()) => Origin::Ours,
        None => Origin::Other,
    }
}

/// The origin of every function of `elf` (the first name at each
/// address): crates by their mangled path, C code by the archive of
/// `libs` the image took it from (`libc.a` and `libm`'s archives are
/// glibc). A C name an archive defines but the image did not take from
/// it is ours: a `#[no_mangle]` function standing in for the member's.
pub fn origins<'a>(elf: &'a Elf, libs: &[Archive]) -> Vec<(&'a Function, Origin)> {
    let names = names(elf);
    let present = |n: &str| names.contains(n);
    let mut out: Vec<(&Function, Origin)> = Vec::new();
    for f in elf.functions() {
        if out.last().is_some_and(|(g, _)| g.addr == f.addr) {
            continue;
        }
        out.push((f, origin(&f.name, libs, &present)));
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
    fn a_c_name_the_image_takes_from_a_rust_object_is_not_the_members() {
        // glibc's member defines the function under two names; an image
        // that holds the member holds both, one that defines only the
        // public name took it from elsewhere (`ukplat`'s `#[no_mangle]`).
        let libc = [Archive::of(
            "libc.a",
            &[("pthread_getattr_np.o", &["pthread_getattr_np", "__pthread_getattr_np"], 1024)],
        )];
        let f =
            Function { name: "pthread_getattr_np".to_string(), addr: 0, size: 100, local: false };
        let glibc = |n: &str| n == "pthread_getattr_np" || n == "__pthread_getattr_np";
        let ours = |n: &str| n == "pthread_getattr_np";
        let member = "*libc.a:pthread_getattr_np.o(.text .text.*)".to_string();
        assert_eq!(pattern(&[&f], &libc, &glibc), (member, Some(1024)));
        assert_eq!(origin(&f.name, &libc, &glibc), Origin::Glibc);
        let own = "*(.text.pthread_getattr_np .text.unlikely.pthread_getattr_np)".to_string();
        assert_eq!(pattern(&[&f], &libc, &ours), (own, None));
        assert_eq!(origin(&f.name, &libc, &ours), Origin::Ours);
        // A C name no archive defines stays `Other`.
        assert_eq!(origin("__addtf3", &libc, &ours), Origin::Other);
    }

    fn trace(image: &str, start: u64, patterns: &[(u64, &str)]) -> Trace {
        let patterns = patterns.iter().map(|&(b, p)| (b, p.to_string())).collect();
        Trace { image: image.to_string(), rodata: false, start, patterns }
    }

    /// The lines of a script that name a pattern, stubs and comments
    /// left out.
    fn body(s: &str) -> Vec<&str> {
        s.lines()
            .map(str::trim)
            .filter(|l| l.starts_with("*(.text.") || l.starts_with("*x"))
            .collect()
    }

    #[test]
    fn script_puts_what_every_trace_ran_first_and_splits_no_group() {
        // `y` and `z` every source ran; `x1`, `x2` only `a` (one in
        // each of its rounds); `w` only `b`.
        let traces = [
            (
                "a".to_string(),
                trace("img", 0, &[(16, "*x1"), (16, "*(.text.y)"), (16, "*(.text.z)")]),
            ),
            (
                "b".to_string(),
                trace("img", 0, &[(16, "*(.text.z)"), (16, "*(.text.y)"), (16, "*(.text.w)")]),
            ),
            ("a".to_string(), trace("img", 0, &[(16, "*(.text.y)"), (16, "*x2")])),
        ];
        let s = script(&traces).unwrap();
        let lines = body(&s);
        assert_eq!(lines.len(), 5, "each pattern once, the rounds merged:\n{s}");
        assert_eq!(lines[..2], ["*(.text.y)", "*(.text.z)"], "{s}");
        let at = |p: &str| lines.iter().position(|l| *l == p).unwrap();
        assert_eq!(at("*x2"), at("*x1") + 1, "the group `a` ran alone is split:\n{s}");
        let stubs = s.find("*rcrt1.o(.text .text.*)").unwrap();
        assert!(
            stubs < s.find("*(.iplt)").unwrap()
                && s.find("*(.iplt)").unwrap() < s.find("*(.text.y)").unwrap()
        );
        assert!(s.contains("/* run by a, b: 32 B */"), "{s}");
        assert!(s.trim_end().ends_with("INSERT BEFORE .text;"));
    }

    #[test]
    fn script_keeps_each_source_in_the_fewest_windows() {
        const K: u64 = 1024;
        // `y` (40 KiB) both ran; then 30 KiB only `a` ran and 60 KiB
        // only `b`. Whichever goes second would straddle two windows
        // beyond the first (3 for that source): opening a window of its
        // own keeps it in one.
        let traces = [
            ("a".to_string(), trace("img", 0, &[(40 * K, "*(.text.y)"), (30 * K, "*(.text.a)")])),
            ("b".to_string(), trace("img", 0, &[(40 * K, "*(.text.y)"), (60 * K, "*(.text.b)")])),
        ];
        let s = script(&traces).unwrap();
        assert_eq!(body(&s)[0], "*(.text.y)", "{s}");
        assert_eq!(s.matches(". = ALIGN(0x10000);").count(), 1, "{s}");
        assert!(s.contains("Modelled windows: a 2, b 2 */"), "{s}");
    }

    /// Where `script` puts each pattern of `.text.hot`, from the first
    /// one past the stubs, with each pattern's bytes as `sizes` gives
    /// them: `. = ALIGN(n)` and `. += n` as LLD reads them, and each
    /// input section at the 16 B LLVM aligns a function to.
    fn offsets(script: &str, sizes: &HashMap<&str, u64>) -> HashMap<String, u64> {
        let mut at = 0u64;
        let mut out = HashMap::new();
        let body = &script[script.find(".text.hot :").unwrap()..];
        for l in body.lines().map(str::trim) {
            if let Some(n) = l.strip_prefix(". = ALIGN(").and_then(|r| r.strip_suffix(");")) {
                let n =
                    n.strip_prefix("0x").map_or_else(|| n.parse(), |h| u64::from_str_radix(h, 16));
                at = at.next_multiple_of(n.unwrap());
            } else if let Some(n) = l.strip_prefix(". += ").and_then(|r| r.strip_suffix(';')) {
                at += n.parse::<u64>().unwrap();
            } else if let Some(&b) = sizes.get(l) {
                at = at.next_multiple_of(16);
                out.insert(l.to_string(), at);
                at += b;
            }
        }
        out
    }

    #[test]
    fn the_normaliser_keeps_its_offset_in_a_cache_line() {
        let kernel = format!("*(.text.{0}* .text.unlikely.{0}*)", PINNED.0);
        let sizes: HashMap<&str, u64> =
            [("*(.text.a)", 48), ("*(.text.b)", 32), ("*(.text.new)", 16), (kernel.as_str(), 400)]
                .into();
        let traced = |first: &[&str]| {
            let ps: Vec<(u64, &str)> = first
                .iter()
                .chain(&["*(.text.a)", kernel.as_str(), "*(.text.b)"])
                .map(|p| (sizes[p], *p))
                .collect();
            script(&[("w".to_string(), trace("img", 0, &ps))]).unwrap()
        };
        let before = traced(&[]);
        let after = traced(&["*(.text.new)"]);
        let (at_before, at_after) = (offsets(&before, &sizes), offsets(&after, &sizes));
        assert_eq!(at_after["*(.text.new)"], 0, "{after}");
        assert_ne!(
            at_before["*(.text.a)"], at_after["*(.text.a)"],
            "the new pattern moves what follows"
        );
        assert_eq!(at_before[&kernel] % PIN_LINE, PINNED.1, "{before}");
        assert_eq!(at_after[&kernel] % PIN_LINE, PINNED.1, "{after}");
        assert_eq!(before.matches(". += 16;").count(), 1, "{before}");
    }

    #[test]
    fn script_refuses_more_sources_than_it_tries_every_order_of() {
        let traces: Vec<(String, Trace)> = (0..=MAX_SOURCES)
            .map(|s| (format!("s{s}"), trace("img", 0, &[(16, "*(.text.y)")])))
            .collect();
        assert!(script(&traces[..MAX_SOURCES]).is_ok());
        assert_eq!(script(&traces), Err("more than 8 sources".to_string()));
    }

    #[test]
    fn traces_read_back_what_they_wrote() {
        let t = trace(
            "ukperf",
            0x58220,
            &[(48, "*libc.a:memcpy.o(.text .text.*)"), (16, "*(.text.x)")],
        );
        assert_eq!(Trace::parse(&t.to_text()), Ok(t.clone()));
        let probe = Trace { rodata: true, ..t };
        assert!(probe.to_text().starts_with("# ukperf .rodata 0x58220\n"));
        assert_eq!(Trace::parse(&probe.to_text()), Ok(probe));
        assert!(Trace::parse("16\t*(.text.x)\n").is_err(), "no header");
        assert!(Trace::parse("# ukperf 0x10\nx\t*(.text.x)\n").is_err(), "no byte count");
    }
}
