//! Symbol profiles for nolibc, musl and newlib (+ glibc compat layer).
//!
//! Symbols are grouped into families; a profile provides a set of
//! families plus individual symbols. The families below are the ones
//! whose presence/absence decides Table 2's outcomes.

use std::collections::HashSet;

/// Which libc a build selects (Kconfig choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibcKind {
    /// Unikraft's minimal built-in libc: "only provides a basic minimal
    /// set of functionality such as memcpy and string processing" (§3).
    NoLibc,
    /// The musl port.
    Musl,
    /// The newlib port.
    Newlib,
}

impl LibcKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LibcKind::NoLibc => "nolibc",
            LibcKind::Musl => "musl",
            LibcKind::Newlib => "newlib",
        }
    }
}

/// ANSI C basics every libc provides.
pub(crate) static ANSI_C: &[&str] = &[
    "memcpy", "memset", "memmove", "memcmp", "strlen", "strcmp", "strncmp", "strcpy", "strncpy",
    "strchr", "strstr", "strtol", "atoi", "qsort", "bsearch", "snprintf", "sprintf", "sscanf",
    "malloc", "calloc", "realloc", "free", "abort", "exit", "rand", "srand",
];

/// POSIX file and process interfaces.
pub(crate) static POSIX_IO: &[&str] = &[
    "open", "close", "read", "write", "lseek", "stat", "fstat", "unlink", "mkdir", "rename",
    "fcntl", "ioctl", "dup", "dup2", "pipe", "poll", "select", "access", "getcwd", "chdir",
    "fsync", "ftruncate", "readdir", "opendir", "closedir", "mmap", "munmap", "getenv",
    "setenv", "gettimeofday", "clock_gettime", "nanosleep",
];

/// POSIX sockets.
pub(crate) static POSIX_NET: &[&str] = &[
    "socket", "bind", "listen", "accept", "connect", "send", "recv", "sendto", "recvfrom",
    "sendmsg", "recvmsg", "setsockopt", "getsockopt", "getaddrinfo", "freeaddrinfo",
    "inet_ntop", "inet_pton", "htons", "ntohs", "shutdown",
];

/// POSIX threads.
pub(crate) static PTHREAD: &[&str] = &[
    "pthread_create", "pthread_join", "pthread_detach", "pthread_self",
    "pthread_mutex_init", "pthread_mutex_lock", "pthread_mutex_unlock",
    "pthread_cond_init", "pthread_cond_wait", "pthread_cond_signal",
    "pthread_key_create", "pthread_setspecific", "pthread_getspecific",
];

/// glibc-specific symbols: fortify `_chk` interfaces plus the 64-bit file
/// operations the paper's authors implemented by hand (§4).
pub(crate) static GLIBC_EXT: &[&str] = &[
    "__printf_chk", "__fprintf_chk", "__snprintf_chk", "__sprintf_chk", "__memcpy_chk",
    "__memset_chk", "__strcpy_chk", "__strncpy_chk", "__strcat_chk", "__vfprintf_chk",
    "__read_chk", "__poll_chk", "__realpath_chk", "__explicit_bzero_chk",
    "pread64", "pwrite64", "lseek64", "fopen64", "fseeko64", "ftello64", "mmap64",
    "open64", "stat64", "fstat64", "readdir64", "getrlimit64", "posix_fadvise64",
    "qsort_r", "secure_getenv", "reallocarray", "gnu_get_libc_version", "backtrace",
];

/// A libc's provided-symbol set.
#[derive(Debug, Clone)]
pub struct LibcProfile {
    kind: LibcKind,
    symbols: HashSet<&'static str>,
}

impl LibcProfile {
    /// Builds the symbol profile for `kind`.
    pub fn new(kind: LibcKind) -> Self {
        let mut symbols: HashSet<&'static str> = HashSet::new();
        match kind {
            LibcKind::NoLibc => {
                // memcpy-and-strings only (§3's helloworld image).
                symbols.extend(
                    ANSI_C
                        .iter()
                        .filter(|s| s.starts_with("mem") || s.starts_with("str")),
                );
                symbols.extend(["snprintf", "abort", "exit"]);
            }
            LibcKind::Musl => {
                symbols.extend(ANSI_C);
                symbols.extend(POSIX_IO);
                symbols.extend(POSIX_NET);
                symbols.extend(PTHREAD);
            }
            LibcKind::Newlib => {
                // Embedded-targeted: ANSI plus file I/O, but no sockets
                // and no threads of its own ("many glibc functions are
                // not implemented at all", §4).
                symbols.extend(ANSI_C);
                symbols.extend(POSIX_IO.iter().filter(|s| {
                    !matches!(**s, "poll" | "select" | "mmap" | "munmap")
                }));
            }
        }
        LibcProfile { kind, symbols }
    }

    /// Enables the glibc compatibility layer (Table 2's second column):
    /// the `_chk` fortify interfaces and hand-written 64-bit file ops.
    /// For newlib it additionally pulls in the missing POSIX pieces
    /// (sockets via lwip glue, pthreads via `uksched` glue).
    pub fn with_compat_layer(mut self) -> Self {
        self.symbols.extend(GLIBC_EXT);
        if self.kind == LibcKind::Newlib {
            self.symbols.extend(POSIX_NET);
            self.symbols.extend(PTHREAD);
            self.symbols.extend(["poll", "select", "mmap", "munmap"]);
        }
        self
    }

    /// Which libc this is.
    pub fn kind(&self) -> LibcKind {
        self.kind
    }

    /// Whether `symbol` resolves against this profile.
    pub(crate) fn provides(&self, symbol: &str) -> bool {
        self.symbols.contains(symbol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nolibc_is_minimal() {
        let p = LibcProfile::new(LibcKind::NoLibc);
        assert!(p.provides("memcpy"));
        assert!(p.provides("strlen"));
        assert!(!p.provides("open"));
        assert!(!p.provides("socket"));
    }

    #[test]
    fn musl_covers_posix_but_not_glibc_ext() {
        let p = LibcProfile::new(LibcKind::Musl);
        assert!(p.provides("socket"));
        assert!(p.provides("pthread_create"));
        assert!(!p.provides("__printf_chk"));
        assert!(!p.provides("pread64"));
    }

    #[test]
    fn compat_layer_adds_glibc_symbols() {
        let p = LibcProfile::new(LibcKind::Musl).with_compat_layer();
        assert!(p.provides("__printf_chk"));
        assert!(p.provides("pread64"));
    }

    #[test]
    fn newlib_lacks_sockets_until_compat() {
        let p = LibcProfile::new(LibcKind::Newlib);
        assert!(!p.provides("socket"));
        assert!(!p.provides("pthread_create"));
        let p = p.with_compat_layer();
        assert!(p.provides("socket"));
        assert!(p.provides("pthread_create"));
    }

    #[test]
    fn profiles_grow_monotonically() {
        for kind in [LibcKind::NoLibc, LibcKind::Musl, LibcKind::Newlib] {
            let base = LibcProfile::new(kind).symbols.len();
            let compat = LibcProfile::new(kind).with_compat_layer().symbols.len();
            assert!(compat > base);
        }
    }
}
