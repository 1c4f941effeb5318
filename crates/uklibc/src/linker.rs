//! The external-archive link model.
//!
//! §4: "we rely on the target application's native build system, and use
//! the statically-compiled object files to link them back into Unikraft's
//! final linking step." Whether that link succeeds is a symbol-resolution
//! question; this module is the resolver.

use crate::profile::LibcProfile;

/// A statically-built application archive: the symbols it imports and
/// its measured sizes (Table 2's data columns).
#[derive(Debug, Clone)]
pub struct AppArchive {
    /// Library name (e.g. "lib-nginx").
    pub name: &'static str,
    /// Undefined symbols the archive needs the libc to provide.
    pub required_symbols: Vec<&'static str>,
    /// Image size in MB when linked against musl (Table 2).
    pub musl_size_mb: f64,
    /// Image size in MB when linked against newlib (Table 2).
    pub newlib_size_mb: f64,
    /// Lines of glue code the port needed (Table 2's last column).
    pub glue_loc: u32,
}

/// Outcome of linking an archive against a libc profile.
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- what the public `link` returns
pub struct LinkOutcome {
    /// Whether every symbol resolved.
    pub success: bool,
    /// Symbols that did not resolve.
    pub unresolved: Vec<&'static str>,
}

/// Resolves `app`'s imports against `libc`.
pub fn link(app: &AppArchive, libc: &LibcProfile) -> LinkOutcome {
    let unresolved: Vec<&'static str> = app
        .required_symbols
        .iter()
        .copied()
        .filter(|s| !libc.provides(s))
        .collect();
    LinkOutcome {
        success: unresolved.is_empty(),
        unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{LibcKind, LibcProfile};

    fn app(symbols: &[&'static str]) -> AppArchive {
        AppArchive {
            name: "test-app",
            required_symbols: symbols.to_vec(),
            musl_size_mb: 1.0,
            newlib_size_mb: 1.1,
            glue_loc: 0,
        }
    }

    #[test]
    fn plain_c_app_links_everywhere() {
        let a = app(&["memcpy", "strlen"]);
        for kind in [LibcKind::NoLibc, LibcKind::Musl, LibcKind::Newlib] {
            assert!(link(&a, &LibcProfile::new(kind)).success, "{kind:?}");
        }
    }

    #[test]
    fn glibc_fortified_app_needs_compat() {
        let a = app(&["memcpy", "__printf_chk", "pread64"]);
        let musl = LibcProfile::new(LibcKind::Musl);
        let out = link(&a, &musl);
        assert!(!out.success);
        assert_eq!(out.unresolved, ["__printf_chk", "pread64"]);
        let out = link(&a, &musl.with_compat_layer());
        assert!(out.success);
    }

    #[test]
    fn network_app_fails_on_plain_newlib() {
        let a = app(&["socket", "accept", "recv"]);
        assert!(!link(&a, &LibcProfile::new(LibcKind::Newlib)).success);
        assert!(link(&a, &LibcProfile::new(LibcKind::Newlib).with_compat_layer()).success);
    }
}
