//! Micro-library metadata registry.
//!
//! Every micro-library has "its own Makefile and Kconfig configuration
//! files, and so can be added to the unikernel build independently of
//! each other" (§3). The registry records, per library: the architecture
//! layer it belongs to, its size contribution to the final image, and its
//! dependencies (which the build system pulls in automatically).
//!
//! Size contributions are calibrated so the per-application totals land
//! near the paper's Figure 8 (helloworld ≈ 257 KB, nginx ≈ 1.6 MB,
//! redis ≈ 1.8 MB, sqlite ≈ 1.6 MB in the default configuration).

use std::collections::HashMap;

/// Which layer of Figure 4 a micro-library belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Application code.
    App,
    /// libc layer (nolibc, musl, newlib).
    Libc,
    /// POSIX compatibility layer (syscall shim, vfscore, posix-*).
    PosixCompat,
    /// OS primitives (allocators, schedulers, net/block APIs, stacks).
    OsPrimitive,
    /// Platform layer (KVM, Xen, drivers).
    Platform,
}

/// Metadata for one micro-library.
#[derive(Debug, Clone)]
// ukcheck: allow(unused-pub) -- what the public `LibRegistry::get` returns
pub struct MicroLib {
    /// Library name (matches the paper's figures, e.g. "lwip").
    pub name: &'static str,
    /// Architecture layer.
    pub layer: Layer,
    /// Size contribution in bytes (default build).
    pub size_bytes: u64,
    /// Fraction of the library kept after dead-code elimination when an
    /// app uses it through its public API (calibration: Fig 8's DCE
    /// deltas).
    pub dce_keep: f64,
    /// Dependencies resolved automatically by the build system.
    pub deps: &'static [&'static str],
}

/// The registry of all known micro-libraries.
#[derive(Debug, Clone)]
pub struct LibRegistry {
    libs: HashMap<&'static str, MicroLib>,
}

macro_rules! lib {
    ($libs:expr, $name:literal, $layer:expr, $size:expr, $dce:expr, [$($dep:literal),*]) => {
        $libs.insert(
            $name,
            MicroLib {
                name: $name,
                layer: $layer,
                size_bytes: $size,
                dce_keep: $dce,
                deps: &[$($dep),*],
            },
        );
    };
}

impl LibRegistry {
    /// Builds the standard Unikraft library universe.
    pub fn standard() -> Self {
        let mut libs = HashMap::new();
        use Layer::*;

        // Platform layer.
        lib!(libs, "plat-kvm", Platform, 60_000, 0.85, ["ukboot"]);
        lib!(libs, "plat-xen", Platform, 44_000, 0.85, ["ukboot"]);
        lib!(libs, "plat-linuxu", Platform, 30_000, 0.85, ["ukboot"]);
        lib!(libs, "virtio-net", Platform, 28_000, 0.9, ["uknetdev", "ukbus"]);
        lib!(libs, "virtio-blk", Platform, 22_000, 0.9, ["ukblockdev", "ukbus"]);
        lib!(libs, "virtio-9p", Platform, 24_000, 0.9, ["ukbus"]);
        lib!(libs, "ukbus", Platform, 8_000, 0.95, []);
        lib!(libs, "memregion", Platform, 4_000, 1.0, []);
        lib!(libs, "ukclock", Platform, 6_000, 0.95, []);

        // OS primitives.
        lib!(libs, "ukboot", OsPrimitive, 10_000, 1.0, ["ukalloc", "ukargparse", "memregion"]);
        lib!(libs, "dynamicboot", OsPrimitive, 14_000, 1.0, ["ukboot"]);
        lib!(libs, "ukalloc", OsPrimitive, 6_000, 1.0, []);
        lib!(libs, "ukallocbuddy", OsPrimitive, 12_000, 0.9, ["ukalloc"]);
        lib!(libs, "tlsf", OsPrimitive, 14_000, 0.9, ["ukalloc"]);
        lib!(libs, "mimalloc", OsPrimitive, 60_000, 0.85, ["ukalloc", "pthread"]);
        lib!(libs, "tinyalloc", OsPrimitive, 4_000, 0.95, ["ukalloc"]);
        lib!(libs, "bootalloc", OsPrimitive, 2_000, 1.0, ["ukalloc"]);
        lib!(libs, "uksched", OsPrimitive, 8_000, 0.95, ["ukalloc", "uklock"]);
        lib!(libs, "ukschedcoop", OsPrimitive, 6_000, 0.95, ["uksched"]);
        lib!(libs, "ukschedpreempt", OsPrimitive, 9_000, 0.95, ["uksched", "ukclock"]);
        lib!(libs, "uklock", OsPrimitive, 4_000, 0.95, []);
        lib!(libs, "uknetdev", OsPrimitive, 12_000, 0.9, ["ukalloc"]);
        lib!(libs, "ukblockdev", OsPrimitive, 10_000, 0.9, ["ukalloc"]);
        lib!(libs, "lwip", OsPrimitive, 220_000, 0.8, ["uknetdev", "uklock", "uksched"]);
        lib!(libs, "ukmpi", OsPrimitive, 5_000, 0.95, ["uklock"]);
        lib!(libs, "ukargparse", OsPrimitive, 3_000, 1.0, []);
        lib!(libs, "ukdebug", OsPrimitive, 7_000, 0.9, []);

        // POSIX compatibility layer.
        lib!(libs, "syscall-shim", PosixCompat, 15_000, 0.9, []);
        lib!(libs, "vfscore", PosixCompat, 40_000, 0.85, ["ukalloc", "uklock"]);
        lib!(libs, "ramfs", PosixCompat, 10_000, 0.9, ["vfscore"]);
        lib!(libs, "9pfs", PosixCompat, 28_000, 0.9, ["vfscore", "virtio-9p"]);
        lib!(libs, "shfs", PosixCompat, 18_000, 0.9, ["ukblockdev"]);
        lib!(libs, "posix-fdtab", PosixCompat, 8_000, 0.9, ["vfscore"]);
        lib!(libs, "posix-process", PosixCompat, 12_000, 0.85, ["syscall-shim"]);
        lib!(libs, "posix-socket", PosixCompat, 14_000, 0.9, ["lwip", "posix-fdtab"]);
        lib!(libs, "pthread", PosixCompat, 20_000, 0.85, ["uksched", "uklock"]);
        lib!(libs, "posix-time", PosixCompat, 5_000, 0.95, ["ukclock"]);

        // libc layer.
        lib!(libs, "nolibc", Libc, 25_000, 0.8, ["ukalloc"]);
        lib!(libs, "musl", Libc, 450_000, 0.55, ["syscall-shim", "ukalloc"]);
        lib!(libs, "newlib", Libc, 520_000, 0.55, ["syscall-shim", "ukalloc"]);
        lib!(libs, "glibc-compat", Libc, 30_000, 0.8, ["musl"]);

        // Applications (sizes: app code built by its native build system).
        lib!(libs, "app-helloworld", App, 2_000, 1.0, ["nolibc", "ukboot", "plat-kvm"]);
        lib!(
            libs,
            "app-nginx",
            App,
            720_000,
            0.75,
            ["musl", "posix-socket", "vfscore", "ramfs", "posix-fdtab", "posix-time",
             "ukschedcoop", "tlsf", "plat-kvm", "virtio-net", "ukdebug"]
        );
        lib!(
            libs,
            "app-redis",
            App,
            850_000,
            0.75,
            ["musl", "posix-socket", "vfscore", "ramfs", "posix-fdtab", "posix-time",
             "ukschedcoop", "mimalloc", "plat-kvm", "virtio-net", "ukdebug"]
        );
        lib!(
            libs,
            "app-sqlite",
            App,
            700_000,
            0.75,
            ["musl", "vfscore", "ramfs", "posix-fdtab", "posix-time", "tlsf",
             "plat-kvm", "ukdebug"]
        );
        lib!(
            libs,
            "app-webcache",
            App,
            60_000,
            0.9,
            ["nolibc", "shfs", "uknetdev", "plat-kvm", "virtio-net"]
        );

        LibRegistry { libs }
    }

    /// Looks up a library.
    pub fn get(&self, name: &str) -> Option<&MicroLib> {
        self.libs.get(name)
    }

    /// All library names.
    pub fn names(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.libs.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of registered libraries.
    pub fn len(&self) -> usize {
        self.libs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.libs.is_empty()
    }

    /// Transitive dependency closure of `roots`.
    ///
    /// This is the build system pulling in dependencies automatically
    /// ("unless, of course, a micro-library has a dependency on another,
    /// in which case the build system also builds the dependency").
    pub(crate) fn closure(&self, roots: &[&str]) -> Result<Vec<&'static str>, String> {
        let mut seen: Vec<&'static str> = Vec::new();
        let mut stack: Vec<&str> = roots.to_vec();
        while let Some(name) = stack.pop() {
            let lib = self
                .libs
                .get(name)
                .ok_or_else(|| format!("unknown micro-library: {name}"))?;
            if seen.contains(&lib.name) {
                continue;
            }
            seen.push(lib.name);
            stack.extend(lib.deps.iter().copied());
        }
        seen.sort_unstable();
        Ok(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_is_populated() {
        let r = LibRegistry::standard();
        assert!(r.len() > 35);
        assert!(r.get("lwip").is_some());
        assert!(r.get("vfscore").is_some());
    }

    #[test]
    fn deps_reference_known_libs() {
        let r = LibRegistry::standard();
        for name in r.names() {
            for dep in r.get(name).unwrap().deps {
                assert!(r.get(dep).is_some(), "{name} depends on unknown {dep}");
            }
        }
    }

    #[test]
    fn closure_pulls_transitive_deps() {
        let r = LibRegistry::standard();
        let c = r.closure(&["app-helloworld"]).unwrap();
        assert!(c.contains(&"nolibc"));
        assert!(c.contains(&"ukboot"));
        assert!(c.contains(&"ukalloc"), "transitive via ukboot");
        // And not the network stack.
        assert!(!c.contains(&"lwip"));
    }

    #[test]
    fn nginx_closure_has_no_block_subsystem() {
        // §3: the nginx image "does not include a block subsystem since
        // it only uses RamFS".
        let r = LibRegistry::standard();
        let c = r.closure(&["app-nginx"]).unwrap();
        assert!(c.contains(&"lwip"));
        assert!(c.contains(&"ramfs"));
        assert!(!c.contains(&"ukblockdev"));
        assert!(!c.contains(&"virtio-blk"));
    }

    #[test]
    fn unknown_root_is_an_error() {
        let r = LibRegistry::standard();
        assert!(r.closure(&["app-nonexistent"]).is_err());
    }

    #[test]
    fn hello_is_much_smaller_than_nginx() {
        let r = LibRegistry::standard();
        let size = |roots: &[&str]| -> u64 {
            r.closure(roots)
                .unwrap()
                .iter()
                .map(|n| r.get(n).unwrap().size_bytes)
                .sum()
        };
        let hello = size(&["app-helloworld"]);
        let nginx = size(&["app-nginx"]);
        assert!(nginx > 5 * hello);
    }
}
