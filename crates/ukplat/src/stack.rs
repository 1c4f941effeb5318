//! The image's `pthread_getattr_np`: std's one start-up stack query,
//! answered without glibc's `sscanf`.
//!
//! std's runtime asks for the calling thread's stack once per thread, to
//! place the guard its overflow handler recognises: for the main thread
//! before `main`, for a spawned one when it starts. glibc's answer for
//! the main thread parses `/proc/self/maps` with `sscanf`, and that one
//! call links glibc's whole scanf chain (`vfscanf-internal.o`, the
//! `strtod` family, `FILE` stdio, the `C-ctype.o` tables) into every
//! image. A function defined here is found before `libc.a`'s member, so
//! the member and everything behind it stay out of the link.
//!
//! The answer is glibc 2.36's for every field std reads (bottom, size,
//! guard size), worked out from the maps alone:
//!
//! - the main thread's stack is the mapping that holds
//!   `__libc_stack_end`; its top is the end of that address's page, and
//!   its size the soft `RLIMIT_STACK` less the mapping above the top,
//!   rounded down to a page, and at most the gap down to the previous
//!   mapping (`nptl/pthread_getattr_np.c`); no guard;
//! - any other thread's stack is the mapping that holds the caller's
//!   stack, and its guard the `---p` mapping that ends where it starts.
//!
//! The maps are read with `open`/`read` into a buffer on the stack and
//! parsed by hand, byte by byte: no stdio, no allocation. `gettid` is
//! not called (std declares it weak, and under fat LTO that declaration
//! resolved to address 0): the `__libc_stack_end` test tells the main
//! thread apart.

use std::ffi::{c_char, c_int, c_long, c_ulong, c_void};

extern "C" {
    static __libc_stack_end: *const c_void;
    fn __errno_location() -> *mut c_int;
    fn pthread_self() -> c_ulong;
    fn pthread_attr_init(attr: *mut c_void) -> c_int;
    fn pthread_attr_setstack(attr: *mut c_void, addr: *mut c_void, size: usize) -> c_int;
    fn pthread_attr_setguardsize(attr: *mut c_void, size: usize) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut [u64; 2]) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn open(path: *const c_char, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

const ENOENT: c_int = 2;
const EINVAL: c_int = 22;
const ENOTSUP: c_int = 95;
const O_RDONLY_CLOEXEC: c_int = 0o2000000;
const RLIMIT_STACK: c_int = 3;
const SC_PAGESIZE: c_int = 30;

/// The bytes read from `/proc/self/maps` at a time.
const BUF: usize = 512;

/// One line of `/proc/self/maps`: its range, and whether it is
/// inaccessible and private (`---p`, a guard).
#[derive(Clone, Copy)]
struct Mapping {
    from: usize,
    to: usize,
    guard: bool,
}

/// A line being read: the range and the permissions are its first
/// fields, so the rest of a line of any length is skipped.
#[derive(Default)]
struct Line {
    /// 0: `from`, 1: `to`, 2: the permissions, 3: the rest; 4: not a
    /// mapping line.
    field: u8,
    from: usize,
    to: usize,
    perms: [u8; 4],
    len: usize,
}

impl Line {
    /// Takes one byte; a newline ends the line and returns its mapping.
    fn push(&mut self, b: u8) -> Option<Mapping> {
        if b == b'\n' {
            return self.end();
        }
        let digit = (b as char).to_digit(16).map(|d| d as usize);
        match (self.field, b, digit) {
            (0, b'-', _) => self.field = 1,
            (1 | 2, b' ', _) => self.field += 1,
            (0, _, Some(d)) => self.from = self.from.wrapping_shl(4) | d,
            (1, _, Some(d)) => self.to = self.to.wrapping_shl(4) | d,
            (2, _, _) if self.len < 4 => {
                self.perms[self.len] = b;
                self.len += 1;
            }
            (0 | 1, _, None) => self.field = 4,
            _ => {}
        }
        None
    }

    /// Ends the line: its mapping, if it had a range.
    fn end(&mut self) -> Option<Mapping> {
        let l = std::mem::take(self);
        let guard = l.perms == *b"---p";
        (l.field == 2 || l.field == 3).then_some(Mapping { from: l.from, to: l.to, guard })
    }
}

/// The mapping that holds the caller's stack, as the maps list it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Found {
    from: usize,
    to: usize,
    /// The end of the mapping listed before it (0 if none).
    prev_to: usize,
    /// The length of a `---p` mapping that ends at `from` (0 if none).
    guard: usize,
    /// Whether it also holds `__libc_stack_end`: the main thread's.
    main: bool,
}

/// Reads maps text from `read` (a `read(2)`: bytes, 0 at the end,
/// negative on error) through an `N`-byte buffer, and finds the mapping
/// that holds `sp`.
fn find<const N: usize>(
    mut read: impl FnMut(&mut [u8]) -> isize,
    sp: usize,
    stack_end: usize,
) -> Option<Found> {
    let mut buf = [0u8; N];
    let mut line = Line::default();
    let mut prev: Option<Mapping> = None;
    let mut found = None;
    let mut see = |m: Mapping| {
        if found.is_none() && m.from <= sp && sp < m.to {
            found = Some(Found {
                from: m.from,
                to: m.to,
                prev_to: prev.map_or(0, |p| p.to),
                guard: prev.filter(|p| p.guard && p.to == m.from).map_or(0, |p| p.to - p.from),
                main: m.from <= stack_end && stack_end < m.to,
            });
        }
        prev = Some(m);
    };
    while let Ok(n @ 1..) = usize::try_from(read(&mut buf)) {
        for &b in &buf[..n.min(N)] {
            if let Some(m) = line.push(b) {
                see(m);
            }
        }
    }
    // A last line with no newline.
    if let Some(m) = line.end() {
        see(m);
    }
    found
}

/// What `pthread_attr_getstack` and `pthread_attr_getguardsize` report.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stack {
    bottom: usize,
    size: usize,
    guard: usize,
}

impl Found {
    /// glibc's answer, given `__libc_stack_end`, the soft stack limit
    /// and the page size.
    fn stack(&self, stack_end: usize, rlimit: u64, page: usize) -> Stack {
        if !self.main {
            return Stack { bottom: self.from, size: self.to - self.from, guard: self.guard };
        }
        let top = (stack_end & !(page - 1)) + page;
        let rlimit = usize::try_from(rlimit).unwrap_or(usize::MAX);
        let size = (rlimit.saturating_sub(self.to - top) / page * page).min(top - self.prev_to);
        Stack { bottom: top - size, size, guard: 0 }
    }
}

/// The calling thread's stack, into `attr` (initialised here).
///
/// The contract is narrower than glibc's: `thread` must be the caller's
/// own handle (`pthread_self()`), which is the only one std passes; any
/// other gets `ENOTSUP`. Errors are returned, as `pthread_*` return
/// them: the `errno` of a failed `open` or `getrlimit`, or `ENOENT`
/// when no mapping holds the caller's stack.
///
/// # Safety
///
/// `attr` points to a `pthread_attr_t` that the caller owns and later
/// passes to `pthread_attr_destroy`.
#[no_mangle]
// ukcheck: allow(unused-pub) -- called by name from std's runtime, not from Rust
// SAFETY: what a caller must hold is under `# Safety`; each unsafe
// block below says why its own calls are sound.
pub unsafe extern "C" fn pthread_getattr_np(thread: c_ulong, attr: *mut c_void) -> c_int {
    // SAFETY: `pthread_self` has no preconditions.
    if thread != unsafe { pthread_self() } {
        return ENOTSUP;
    }
    let here = 0u8;
    let sp = std::hint::black_box(&here) as *const u8 as usize;
    // SAFETY: glibc sets `__libc_stack_end` before any Rust code runs
    // and never writes it again.
    let stack_end = unsafe { __libc_stack_end } as usize;
    // SAFETY: a NUL-terminated path; `read` writes at most `b.len()`
    // bytes into `b`; the descriptor is closed once, after the reads.
    let found = unsafe {
        let fd = open(c"/proc/self/maps".as_ptr(), O_RDONLY_CLOEXEC);
        if fd < 0 {
            return *__errno_location();
        }
        let found = find::<BUF>(|b| read(fd, b.as_mut_ptr().cast(), b.len()), sp, stack_end);
        close(fd);
        found
    };
    let Some(found) = found else { return ENOENT };
    let mut limit = [u64::MAX; 2];
    // SAFETY: `limit` is a `struct rlimit` (two 64-bit words);
    // `sysconf` has no preconditions.
    let page = unsafe {
        if found.main && getrlimit(RLIMIT_STACK, &mut limit) != 0 {
            return *__errno_location();
        }
        sysconf(SC_PAGESIZE)
    };
    let Some(page) = usize::try_from(page).ok().filter(|p| p.is_power_of_two()) else {
        return EINVAL;
    };
    let s = found.stack(stack_end, limit[0], page);
    // SAFETY: the caller passes a `pthread_attr_t` it owns (see
    // `# Safety`); these only write into it.
    unsafe {
        let err = pthread_attr_init(attr);
        if err != 0 {
            return err;
        }
        let err = pthread_attr_setstack(attr, s.bottom as *mut c_void, s.size);
        if err != 0 {
            return err;
        }
        pthread_attr_setguardsize(attr, s.guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 4096;
    const MIB: u64 = 1 << 20;

    /// `find` over `text`, read `chunk` bytes at a time through a
    /// 64-byte buffer.
    fn scan(text: &str, chunk: usize, sp: usize, stack_end: usize) -> Option<Found> {
        let mut rest = text.as_bytes();
        find::<64>(
            |buf| {
                let n = rest.len().min(chunk).min(buf.len());
                buf[..n].copy_from_slice(&rest[..n]);
                rest = &rest[n..];
                n as isize
            },
            sp,
            stack_end,
        )
    }

    const MAPS: &str = "\
55d4c0000000-55d4c0010000 r--p 00000000 fd:01 1234        /usr/bin/ukperf
7f0e06f83000-7f0e06f84000 ---p 00000000 00:00 0
7f0e06f84000-7f0e07784000 rw-p 00000000 00:00 0
7fff8b800000-7fff8b900000 rw-p 00000000 00:00 0
7fff8be86000-7fff8bea7000 rw-p 00000000 00:00 0                          [stack]
ffffffffff600000-ffffffffff601000 --xp 00000000 00:00 0                  [vsyscall]
";

    #[test]
    fn the_main_thread_stops_at_the_previous_mapping() {
        // glibc: top 0x7fff8bea5000 (the page after `__libc_stack_end`'s),
        // an 8 MiB limit reaching past the mapping below at 0x7fff8b900000.
        let (sp, end) = (0x7fff8be9f000, 0x7fff8bea47d8);
        let f = scan(MAPS, 4096, sp, end).unwrap();
        assert!(f.main);
        assert_eq!((f.from, f.to, f.prev_to), (0x7fff8be86000, 0x7fff8bea7000, 0x7fff8b900000));
        let s = f.stack(end, 8 * MIB, PAGE);
        assert_eq!(
            s,
            Stack { bottom: 0x7fff8b900000, size: 0x7fff8bea5000 - 0x7fff8b900000, guard: 0 }
        );
    }

    #[test]
    fn the_main_thread_stops_at_the_rlimit() {
        // What glibc read for this layout with an 8 MiB limit and
        // nothing mapped below: bottom = mapping end − limit.
        let maps = "\
7fff8be86000-7fff8bea7000 rw-p 00000000 00:00 0                          [stack]
";
        let end = 0x7fff8bea47d8;
        let f = scan(maps, 4096, 0x7fff8be9f000, end).unwrap();
        let s = f.stack(end, 8 * MIB, PAGE);
        assert_eq!(s, Stack { bottom: 0x7fff8b6a7000, size: 0x7fe000, guard: 0 });
        // A limit that is not a page multiple is cut down to one.
        assert_eq!(f.stack(end, 8 * MIB + 100, PAGE), s);
        // No limit: the gap down to address 0.
        assert_eq!(f.stack(end, u64::MAX, PAGE).bottom, 0);
    }

    #[test]
    fn a_thread_reports_its_guard() {
        let f = scan(MAPS, 4096, 0x7f0e07700000, 0x7fff8bea47d8).unwrap();
        assert!(!f.main);
        let s = f.stack(0x7fff8bea47d8, 8 * MIB, PAGE);
        assert_eq!(s, Stack { bottom: 0x7f0e06f84000, size: 0x800000, guard: 0x1000 });
    }

    #[test]
    fn a_thread_without_a_guard_reports_none() {
        // The mapping below is accessible: no guard.
        let f = scan(MAPS, 4096, 0x7fff8b880000, 0x7fff8bea47d8).unwrap();
        assert_eq!(f.stack(0, 8 * MIB, PAGE).guard, 0);
        // A `---p` mapping that does not end where the stack starts is
        // not its guard.
        let maps = "1000-2000 ---p 0 0 0\n3000-9000 rw-p 0 0 0\n";
        assert_eq!(scan(maps, 4096, 0x4000, 0).unwrap().guard, 0);
        assert_eq!(
            scan("1000-3000 ---p 0 0 0\n3000-9000 rw-p 0 0 0\n", 4096, 0x4000, 0).unwrap().guard,
            0x2000
        );
    }

    #[test]
    fn a_line_longer_than_the_buffer_is_skipped_whole() {
        let long =
            format!("1000-2000 r--p 00000000 fd:01 1 /{}\n3000-4000 ---p 0 0 0\n", "x".repeat(300));
        let maps = format!("{long}4000-8000 rw-p 0 0 0\n");
        for chunk in [1, 7, 64, 4096] {
            let f = scan(&maps, chunk, 0x5000, 0).unwrap();
            assert_eq!(
                (f.from, f.to, f.prev_to, f.guard),
                (0x4000, 0x8000, 0x4000, 0x1000),
                "{chunk}"
            );
        }
    }

    #[test]
    fn a_last_line_without_a_newline_counts() {
        let f = scan("1000-2000 ---p 0 0 0\n2000-6000 rw-p 0 0 0 [stack]", 4096, 0x3000, 0x5ff0)
            .unwrap();
        assert!(f.main);
        assert_eq!((f.from, f.to), (0x2000, 0x6000));
        // A last line cut before its range ends is no mapping.
        assert_eq!(scan("1000-2000 rw-p 0 0 0\n2000", 4096, 0x2000, 0), None);
    }

    extern "C" {
        fn pthread_attr_getstack(
            a: *const c_void,
            addr: *mut *mut c_void,
            size: *mut usize,
        ) -> c_int;
        fn pthread_attr_getguardsize(a: *const c_void, size: *mut usize) -> c_int;
        fn pthread_attr_destroy(a: *mut c_void) -> c_int;
    }

    #[test]
    fn this_thread_is_found_in_the_real_maps() {
        // A libtest thread: a stack with a guard below it, holding `here`.
        let mut attr = [0u64; 8];
        let a: *mut c_void = attr.as_mut_ptr().cast();
        let (mut bottom, mut size, mut guard) = (std::ptr::null_mut(), 0, 0);
        // SAFETY: `attr` is as large as a `pthread_attr_t` (56 B), and
        // the out-pointers are this frame's.
        unsafe {
            assert_eq!(pthread_getattr_np(pthread_self(), a), 0);
            assert_eq!(pthread_attr_getstack(a, &mut bottom, &mut size), 0);
            assert_eq!(pthread_attr_getguardsize(a, &mut guard), 0);
            pthread_attr_destroy(a);
            assert_eq!(pthread_getattr_np(pthread_self() ^ 1, a), ENOTSUP);
        }
        let here = 0u8;
        let sp = std::hint::black_box(&here) as *const u8 as usize;
        assert!((bottom as usize..bottom as usize + size).contains(&sp));
        assert!(guard >= PAGE, "std panics \"there is no guard page\" at 0");
    }
}
