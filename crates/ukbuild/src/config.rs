//! The Kconfig-style configuration menu.

use crate::registry::LibRegistry;

/// A build configuration: the outcome of a `make menuconfig` session.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Application root library (e.g. "app-nginx").
    pub app: &'static str,
    /// Extra libraries selected beyond the app's defaults.
    pub extra_libs: Vec<&'static str>,
    /// Libraries explicitly deselected (specialization by removal —
    /// e.g. dropping "lwip" and "uksched" for the UDP appliance of §6.4).
    pub removed_libs: Vec<&'static str>,
}

impl BuildConfig {
    /// Starts a configuration for an application.
    pub fn new(app: &'static str) -> Self {
        BuildConfig {
            app,
            extra_libs: Vec::new(),
            removed_libs: Vec::new(),
        }
    }

    /// Adds a library selection.
    pub fn with_lib(mut self, lib: &'static str) -> Self {
        self.extra_libs.push(lib);
        self
    }

    /// Removes a library (and everything only reachable through it).
    pub fn without_lib(mut self, lib: &'static str) -> Self {
        self.removed_libs.push(lib);
        self
    }

    /// Resolves the final library set: app closure + extras + the KVM
    /// platform library − removals.
    ///
    /// Removal is *subtractive specialization*: the removed library and
    /// any dependency no longer reachable from the roots disappear.
    pub fn resolve(&self, registry: &LibRegistry) -> Result<Vec<&'static str>, String> {
        let mut roots: Vec<&str> = vec![self.app];
        roots.extend(self.extra_libs.iter().copied());
        roots.push("plat-kvm");
        let full = registry.closure(&roots)?;
        if self.removed_libs.is_empty() {
            return Ok(full);
        }
        // Re-run the closure walking around removed libraries.
        let mut seen: Vec<&'static str> = Vec::new();
        let mut stack: Vec<&str> = roots
            .iter()
            .copied()
            .filter(|r| !self.removed_libs.contains(r))
            .collect();
        while let Some(name) = stack.pop() {
            if self.removed_libs.contains(&name) {
                continue;
            }
            let lib = registry
                .get(name)
                .ok_or_else(|| format!("unknown micro-library: {name}"))?;
            if seen.contains(&lib.name) {
                continue;
            }
            seen.push(lib.name);
            stack.extend(
                lib.deps
                    .iter()
                    .copied()
                    .filter(|d| !self.removed_libs.contains(d)),
            );
        }
        seen.sort_unstable();
        let _ = full;
        Ok(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_resolves() {
        let r = LibRegistry::standard();
        let c = BuildConfig::new("app-nginx");
        let libs = c.resolve(&r).unwrap();
        assert!(libs.contains(&"lwip"));
        assert!(libs.contains(&"plat-kvm"));
    }

    #[test]
    fn removal_specializes_the_image() {
        // §6.4: "we remove the lwip stack and scheduler altogether (via
        // Unikraft's Kconfig menu) and code against the uknetdev API".
        let r = LibRegistry::standard();
        let c = BuildConfig::new("app-nginx")
            .without_lib("lwip")
            .without_lib("ukschedcoop")
            .with_lib("uknetdev");
        let libs = c.resolve(&r).unwrap();
        assert!(!libs.contains(&"lwip"));
        assert!(!libs.contains(&"ukschedcoop"));
        assert!(
            !libs.contains(&"uksched"),
            "dep only reachable through removed libs is dropped"
        );
        assert!(libs.contains(&"uknetdev"));
    }

    #[test]
    fn shared_dep_survives_removal_of_one_parent() {
        let r = LibRegistry::standard();
        // Removing the scheduler must not remove uklock (still used by
        // lwip and vfscore).
        let c = BuildConfig::new("app-nginx").without_lib("ukschedcoop");
        let libs = c.resolve(&r).unwrap();
        assert!(libs.contains(&"uklock"));
    }
}
