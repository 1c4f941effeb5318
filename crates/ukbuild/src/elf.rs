//! A minimal ELF reader: the section and program headers and the
//! function symbols of a 64-bit little-endian image (x86-64 Linux).
//!
//! Enough to answer where an image's code lies — which functions sit in
//! `.text.hot` and which in `.text`, which segment maps them — for the
//! `hot-text` tool and `make image-size`. No relocations, no dynamic
//! symbols, no DWARF: a stripped image has no `.symtab`, and then
//! [`Elf::functions`] is empty.

use std::path::Path;

/// `e_type` of a position-independent image (`static-pie` included).
pub(crate) const ET_DYN: u16 = 3;
const ET_REL: u16 = 1;
/// `p_type` of a loadable segment.
pub const PT_LOAD: u32 = 1;
/// `p_flags` bit: the segment is executable.
pub const PF_X: u32 = 1;
/// `p_flags` bit: the segment is writable.
pub const PF_W: u32 = 2;
const SHT_SYMTAB: u32 = 2;
const SHF_EXECINSTR: u64 = 4;
const STT_FUNC: u8 = 2;
const STT_GNU_IFUNC: u8 = 10;
const STB_LOCAL: u8 = 0;

/// One section header, its name resolved.
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- what the public `Elf::section` returns
pub struct Section {
    /// The name in `.shstrtab`.
    pub name: String,
    /// Virtual address (before any load bias).
    pub addr: u64,
    /// Size in bytes.
    pub size: u64,
    /// `sh_flags`.
    pub flags: u64,
    /// `sh_addralign`.
    pub align: u64,
}

impl Section {
    /// Whether the section holds code.
    pub fn is_exec(&self) -> bool {
        self.flags & SHF_EXECINSTR != 0
    }

    /// Whether `addr` lies inside the section.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.addr && addr < self.addr + self.size
    }
}

/// One program header.
#[derive(Debug, Clone, Copy)]
// ukcheck: allow(unused-pub) -- what the public `Elf::segments` returns
pub struct Segment {
    /// `p_type` ([`PT_LOAD`], …).
    pub kind: u32,
    /// `p_flags` ([`PF_X`], …).
    pub flags: u32,
    /// Virtual address.
    pub vaddr: u64,
    /// Size in memory.
    pub memsz: u64,
    /// `p_align`: the loader places the segment at an address
    /// congruent to `vaddr` modulo this.
    pub align: u64,
}

impl Segment {
    /// Whether the segment maps all of `s`.
    pub fn covers(&self, s: &Section) -> bool {
        s.addr >= self.vaddr && s.addr + s.size <= self.vaddr + self.memsz
    }
}

/// A function symbol of `.symtab` that lies in a code section.
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- what the public `Elf::functions` and
// `Elf::unsized_functions` return
pub struct Function {
    /// The symbol name, as stored (mangled).
    pub name: String,
    /// Entry address (before any load bias). In a relocatable object,
    /// whose sections all sit at 0, the section index in the high 32
    /// bits and the offset in it in the low, so that two functions share
    /// an address only when they are one function under two names.
    pub addr: u64,
    /// `st_size` in bytes.
    pub size: u64,
    /// Whether the binding is local (a C `static`, say).
    pub local: bool,
}

/// A parsed image.
#[derive(Debug)]
pub struct Elf {
    kind: u16,
    entry: u64,
    sections: Vec<Section>,
    segments: Vec<Segment>,
    functions: Vec<Function>,
    unsized_functions: Vec<Function>,
}

/// The `N` bytes at `at`; an offset past the end (or past `usize`, as a
/// corrupt header can make it) is an error, not a panic.
fn bytes<const N: usize>(b: &[u8], at: usize) -> Result<[u8; N], String> {
    let end = at.checked_add(N).ok_or_else(truncated)?;
    let s = b.get(at..end).ok_or_else(truncated)?;
    let mut w = [0u8; N];
    w.copy_from_slice(s);
    Ok(w)
}

fn u16_at(b: &[u8], at: usize) -> Result<u16, String> {
    bytes(b, at).map(u16::from_le_bytes)
}

fn u32_at(b: &[u8], at: usize) -> Result<u32, String> {
    bytes(b, at).map(u32::from_le_bytes)
}

fn u64_at(b: &[u8], at: usize) -> Result<u64, String> {
    bytes(b, at).map(u64::from_le_bytes)
}

fn truncated() -> String {
    "truncated ELF".to_string()
}

/// The NUL-terminated string at `at` of a string table.
fn str_at(table: &[u8], at: usize) -> Result<String, String> {
    let rest = table.get(at..).ok_or_else(truncated)?;
    let end = rest.iter().position(|&c| c == 0).ok_or_else(truncated)?;
    Ok(String::from_utf8_lossy(&rest[..end]).into_owned())
}

fn slice(b: &[u8], offset: u64, size: u64) -> Result<&[u8], String> {
    let lo = usize::try_from(offset).map_err(|_| truncated())?;
    let n = usize::try_from(size).map_err(|_| truncated())?;
    b.get(lo..lo.checked_add(n).ok_or_else(truncated)?).ok_or_else(truncated)
}

/// Where entry `i` of a header table at `off` with entries of `size`
/// bytes starts (`i` and `size` are 16-bit, so only the sum can wrap).
fn entry(off: usize, i: usize, size: usize) -> Result<usize, String> {
    off.checked_add(i * size).ok_or_else(truncated)
}

impl Elf {
    /// Reads and parses the image at `path`.
    pub fn read(path: &Path) -> Result<Elf, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Elf::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses an image held in memory.
    pub fn parse(b: &[u8]) -> Result<Elf, String> {
        if b.get(..4) != Some(b"\x7fELF".as_slice()) {
            return Err("not an ELF file".to_string());
        }
        if b.get(4..6) != Some([2u8, 1].as_slice()) {
            return Err("not a 64-bit little-endian ELF".to_string());
        }
        let kind = u16_at(b, 16)?;
        let e_entry = u64_at(b, 24)?;
        let offset = |at| u64_at(b, at).and_then(|o| usize::try_from(o).map_err(|_| truncated()));
        let (phoff, shoff) = (offset(32)?, offset(40)?);
        let (phentsize, phnum) = (u16_at(b, 54)? as usize, u16_at(b, 56)? as usize);
        let (shentsize, shnum) = (u16_at(b, 58)? as usize, u16_at(b, 60)? as usize);
        let shstrndx = u16_at(b, 62)? as usize;

        let mut segments = Vec::with_capacity(phnum);
        for i in 0..phnum {
            let p = entry(phoff, i, phentsize)?;
            segments.push(Segment {
                kind: u32_at(b, p)?,
                flags: u32_at(b, p + 4)?,
                vaddr: u64_at(b, p + 16)?,
                memsz: u64_at(b, p + 40)?,
                align: u64_at(b, p + 48)?,
            });
        }

        // Raw headers first: names need `.shstrtab`, symbols their
        // section's `sh_link` string table.
        struct Raw {
            name: u32,
            kind: u32,
            flags: u64,
            addr: u64,
            offset: u64,
            size: u64,
            link: u32,
            align: u64,
            entsize: u64,
        }
        let mut raw = Vec::with_capacity(shnum);
        for i in 0..shnum {
            let s = entry(shoff, i, shentsize)?;
            raw.push(Raw {
                name: u32_at(b, s)?,
                kind: u32_at(b, s + 4)?,
                flags: u64_at(b, s + 8)?,
                addr: u64_at(b, s + 16)?,
                offset: u64_at(b, s + 24)?,
                size: u64_at(b, s + 32)?,
                link: u32_at(b, s + 40)?,
                align: u64_at(b, s + 48)?,
                entsize: u64_at(b, s + 56)?,
            });
        }
        let shstr = match raw.get(shstrndx) {
            Some(r) => slice(b, r.offset, r.size)?,
            None => &[][..],
        };
        let mut sections = Vec::with_capacity(shnum);
        for r in &raw {
            sections.push(Section {
                name: str_at(shstr, r.name as usize).unwrap_or_default(),
                addr: r.addr,
                size: r.size,
                flags: r.flags,
                align: r.align,
            });
        }

        let (mut functions, mut unsized_functions) = (Vec::new(), Vec::new());
        if let Some(sym) = raw.iter().find(|r| r.kind == SHT_SYMTAB) {
            let strtab = raw.get(sym.link as usize).ok_or_else(truncated)?;
            let strtab = slice(b, strtab.offset, strtab.size)?;
            let table = slice(b, sym.offset, sym.size)?;
            let ent = (sym.entsize as usize).max(24);
            for e in table.chunks_exact(ent) {
                let info = e[4];
                let shndx = u16_at(e, 6)? as usize;
                let size = u64_at(e, 16)?;
                let in_code = sections.get(shndx).is_some_and(Section::is_exec);
                if !matches!(info & 0xf, STT_FUNC | STT_GNU_IFUNC) || !in_code {
                    continue;
                }
                let list = if size == 0 { &mut unsized_functions } else { &mut functions };
                list.push(Function {
                    name: str_at(strtab, u32_at(e, 0)? as usize)?,
                    addr: u64_at(e, 8)? | if kind == ET_REL { (shndx as u64) << 32 } else { 0 },
                    size,
                    local: info >> 4 == STB_LOCAL,
                });
            }
        }
        for list in [&mut functions, &mut unsized_functions] {
            list.sort_by(|a, b| a.addr.cmp(&b.addr).then(a.local.cmp(&b.local)));
        }
        Ok(Elf { kind, entry: e_entry, sections, segments, functions, unsized_functions })
    }

    /// Whether the image is position-independent (loaded at a bias).
    pub(crate) fn is_pie(&self) -> bool {
        self.kind == ET_DYN
    }

    /// The entry point, `e_entry`: the start-up code's `_start`.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Every section header, in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// The first section called `name`.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Every program header, in file order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The function symbols in code sections with a non-zero size, by
    /// address (globals before locals at one address). Aliases — one
    /// address, several names — are all listed.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The function symbols in code sections whose size is 0 (hand
    /// written start-up stubs: `_init`, crtbegin's, some of libc's
    /// assembly), by address. No trace can attribute the bytes they
    /// run, so `functions` leaves them out; they are listed here so a
    /// layout check can still place them.
    pub fn unsized_functions(&self) -> &[Function] {
        &self.unsized_functions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_its_own_test_binary() {
        let elf = Elf::read(Path::new("/proc/self/exe")).unwrap();
        let text = elf.section(".text").expect(".text");
        assert!(text.is_exec() && text.size > 0);
        let rx = elf.segments().iter().find(|s| s.kind == PT_LOAD && s.flags & PF_X != 0);
        assert!(rx.is_some_and(|s| s.covers(text)));
        // The harness's `main` is among the symbols, inside a code section.
        let main = elf.functions().iter().find(|f| f.name == "main").expect("`main`");
        assert!(elf.sections().iter().any(|s| s.is_exec() && s.contains(main.addr)));
    }

    #[test]
    fn rejects_what_is_not_an_elf() {
        assert!(Elf::parse(b"#!/bin/sh\n").is_err());
        assert!(Elf::parse(b"\x7fELF\x01\x01").is_err());
        let mut short = b"\x7fELF\x02\x01".to_vec();
        short.resize(20, 0);
        assert!(Elf::parse(&short).is_err());
        // A header table said to lie at the end of the address space.
        let mut far = std::fs::read("/proc/self/exe").unwrap();
        far[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Elf::parse(&far).is_err());
    }
}
