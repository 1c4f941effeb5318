//! A reader for static libraries (`ar`, GNU format): which member
//! object defines each function.
//!
//! A linker script names C code by file, `*libc.a:malloc.o`, so a
//! function the tracer saw run is looked up here: a global one in the
//! archive's symbol index, a C `static` one (no index entry) in the
//! symbol tables of the members themselves, where its name must be
//! unique to count. A function a member defines under several names
//! (glibc's `pthread_getattr_np` and `__pthread_getattr_np`) brings them
//! all when the member is linked, so an image that defines one name
//! without the others (a `#[no_mangle]` function that stands in for the
//! member's) took it from somewhere else.

use std::collections::HashMap;
use std::path::Path;

use crate::elf::Elf;

const MAGIC: &[u8] = b"!<arch>\n";

/// Whether an image defines a function, by name.
pub(crate) type Present<'a> = &'a dyn Fn(&str) -> bool;
const HEADER: usize = 60;

/// An archive's members and the functions each defines.
#[derive(Debug, Default)]
pub struct Archive {
    /// The archive's file name (`libc.a`), as a script pattern names it.
    pub name: String,
    /// The index: global symbol → member.
    by_symbol: HashMap<String, String>,
    /// Every function in the members' own symbol tables → its member,
    /// or `None` where two members define one name.
    by_function: HashMap<String, Option<String>>,
    /// Each member's functions: name and address (section and offset).
    functions: HashMap<String, Vec<(String, u64)>>,
    /// Each member's `.text` and `.text.*` bytes, each section rounded
    /// up to its alignment: what `*lib.a:member(.text .text.*)` places.
    code: HashMap<String, u64>,
}

impl Archive {
    /// Reads the archive at `path`.
    pub fn read(path: &Path) -> Result<Archive, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        Archive::parse(name, &bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses an archive held in memory; `name` is its file name.
    pub(crate) fn parse(name: String, b: &[u8]) -> Result<Archive, String> {
        let mut ar = Archive { name, ..Archive::default() };
        if !b.starts_with(MAGIC) {
            return Err("not an ar archive".to_string());
        }
        let bad = || "malformed ar archive".to_string();
        // First pass: every member's header offset and name. The `/`
        // member is the symbol index, `//` the long-name table.
        let mut at = MAGIC.len();
        let mut index: Option<&[u8]> = None;
        let mut long_names: &[u8] = &[];
        let mut names_at: HashMap<usize, String> = HashMap::new();
        while at + HEADER <= b.len() {
            let header = &b[at..at + HEADER];
            let size: usize = std::str::from_utf8(&header[48..58])
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(bad)?;
            let start = at + HEADER;
            let end = start.checked_add(size).ok_or_else(bad)?;
            let body = b.get(start..end).ok_or_else(bad)?;
            let raw = std::str::from_utf8(&header[..16]).map_err(|_| bad())?.trim_end();
            match raw {
                "/" => index = Some(body),
                "//" => long_names = body,
                _ => {
                    let member = match raw.strip_prefix('/') {
                        Some(off) => {
                            let off: usize = off.parse().map_err(|_| bad())?;
                            let rest = long_names.get(off..).ok_or_else(bad)?;
                            let end = rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                            String::from_utf8_lossy(&rest[..end]).trim_end_matches('/').to_string()
                        }
                        None => raw.trim_end_matches('/').to_string(),
                    };
                    if let Ok(elf) = Elf::parse(body) {
                        ar.add_functions(member.clone(), &elf);
                        let code = elf
                            .sections()
                            .iter()
                            .filter(|s| s.name == ".text" || s.name.starts_with(".text."))
                            .map(|s| s.size.next_multiple_of(s.align.max(1)))
                            .sum();
                        ar.code.insert(member.clone(), code);
                    }
                    names_at.insert(at, member);
                }
            }
            at = end + (size & 1);
        }
        if let Some(idx) = index {
            let count = idx.get(..4).ok_or_else(bad)?;
            let count = u32::from_be_bytes([count[0], count[1], count[2], count[3]]) as usize;
            let (offsets, strings) = idx[4..].split_at_checked(4 * count).ok_or_else(bad)?;
            let mut strings = strings.split(|&c| c == 0);
            for off in offsets.chunks_exact(4) {
                let off = u32::from_be_bytes([off[0], off[1], off[2], off[3]]) as usize;
                let sym = strings.next().ok_or_else(bad)?;
                if let Some(member) = names_at.get(&off) {
                    ar.by_symbol.insert(String::from_utf8_lossy(sym).into_owned(), member.clone());
                }
            }
        }
        Ok(ar)
    }

    /// Records the functions of one member object.
    fn add_functions(&mut self, member: String, object: &Elf) {
        let names = self.functions.entry(member.clone()).or_default();
        names.extend(object.functions().iter().map(|f| (f.name.clone(), f.addr)));
        for f in object.functions() {
            self.by_function
                .entry(f.name.clone())
                .and_modify(|m| {
                    if m.as_ref() != Some(&member) {
                        *m = None;
                    }
                })
                .or_insert_with(|| Some(member.clone()));
        }
    }

    /// The member that defines `function`: by the index, else by a
    /// name only one member's symbol table holds.
    pub(crate) fn member_of(&self, function: &str) -> Option<&str> {
        self.by_symbol
            .get(function)
            .or_else(|| self.by_function.get(function).and_then(Option::as_ref))
            .map(String::as_str)
    }

    /// The member that defines `function`, if the image holds it: the
    /// member gives the function no other name, or `present` (whether
    /// the image defines a name) says yes to one of them.
    pub(crate) fn linked_member(&self, function: &str, present: Present) -> Option<&str> {
        let m = self.member_of(function)?;
        let defined = self.functions.get(m).map_or(&[][..], Vec::as_slice);
        let Some(&(_, at)) = defined.iter().find(|(n, _)| n == function) else { return Some(m) };
        let mut aliases = defined.iter().filter(|(n, a)| *a == at && n != function).peekable();
        (aliases.peek().is_none() || aliases.any(|(n, _)| present(n))).then_some(m)
    }

    /// The file pattern of a linker script that names `function`'s
    /// member, `*libc.a:malloc.o`, and the member's code bytes, if the
    /// image holds the member ([`Archive::linked_member`]).
    pub(crate) fn file_pattern(&self, function: &str, present: Present) -> Option<(String, u64)> {
        self.linked_member(function, present)
            .map(|m| (format!("*{}:{m}", self.name), self.code.get(m).copied().unwrap_or(0)))
    }

    /// An archive of `members`, each a name, its one function's names
    /// and its code bytes, with every name in the index.
    #[cfg(test)]
    pub(crate) fn of(name: &str, members: &[(&str, &[&str], u64)]) -> Archive {
        let mut ar = Archive { name: name.to_string(), ..Archive::default() };
        for &(m, functions, code) in members {
            for f in functions {
                ar.by_symbol.insert(f.to_string(), m.to_string());
            }
            let named = functions.iter().map(|f| (f.to_string(), 0)).collect();
            ar.functions.insert(m.to_string(), named);
            ar.code.insert(m.to_string(), code);
        }
        ar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(name: &str, size: usize) -> Vec<u8> {
        let h = format!("{name:<16}{:<12}{:<6}{:<6}{:<8}{size:<10}`\n", 0, 0, 0, 644);
        assert_eq!(h.len(), HEADER);
        h.into_bytes()
    }

    /// An index, a long-name table and two members: `a.o` (short name,
    /// body `a`) defining `alpha` and `beta`, and a member with a long
    /// name defining `gamma`.
    fn sample(a: &[u8]) -> Vec<u8> {
        let long = b"memmove-avx-unaligned-erms.o/\n".to_vec();
        let c = b"CCCC".to_vec();
        let index_len = 4 + 3 * 4 + b"alpha\0beta\0gamma\0".len();
        let first = MAGIC.len() + HEADER + index_len + (index_len & 1);
        let after_long = first + HEADER + long.len();
        let a_at = after_long;
        let c_at = a_at + HEADER + a.len() + (a.len() & 1);
        let mut index = 3u32.to_be_bytes().to_vec();
        for off in [a_at, a_at, c_at] {
            index.extend((off as u32).to_be_bytes());
        }
        index.extend(b"alpha\0beta\0gamma\0");
        let mut b = MAGIC.to_vec();
        b.extend(header("/", index.len()));
        b.extend(&index);
        if index.len() & 1 == 1 {
            b.push(b'\n');
        }
        b.extend(header("//", long.len()));
        b.extend(&long);
        b.extend(header("a.o/", a.len()));
        b.extend(a);
        if a.len() & 1 == 1 {
            b.push(b'\n');
        }
        b.extend(header("/0", c.len()));
        b.extend(&c);
        b
    }

    #[test]
    fn maps_symbols_to_members() {
        let ar = Archive::parse("libx.a".to_string(), &sample(b"AAA")).unwrap();
        assert_eq!(ar.member_of("alpha"), Some("a.o"));
        assert_eq!(ar.member_of("beta"), Some("a.o"));
        assert_eq!(ar.member_of("gamma"), Some("memmove-avx-unaligned-erms.o"));
        assert_eq!(ar.member_of("delta"), None);
        assert_eq!(
            ar.file_pattern("gamma", &|_| true).map(|(p, _)| p).as_deref(),
            Some("*libx.a:memmove-avx-unaligned-erms.o")
        );
    }

    #[test]
    fn finds_a_function_the_index_does_not_list() {
        // This test binary as member `a.o`: its `main` is not in the
        // index, so it is found in the member's own symbol table.
        let exe = std::fs::read("/proc/self/exe").unwrap();
        let ar = Archive::parse("libx.a".to_string(), &sample(&exe)).unwrap();
        let (pattern, code) = ar.file_pattern("main", &|_| true).unwrap();
        assert_eq!(pattern, "*libx.a:a.o");
        let text = Elf::parse(&exe).unwrap().section(".text").unwrap().size;
        assert!(code >= text, "the member's code bytes ({code}) hold its .text ({text})");
        assert_eq!(ar.member_of("alpha"), Some("a.o"));
    }

    #[test]
    fn rejects_what_is_not_an_archive() {
        assert!(Archive::parse(String::new(), b"\x7fELF").is_err());
        let mut cut = sample(b"AAA");
        cut.truncate(MAGIC.len() + HEADER + 6); // the index cut short
        assert!(Archive::parse(String::new(), &cut).is_err());
    }
}
