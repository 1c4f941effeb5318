//! The workspace walker: finds the `.rs` files ukcheck scans and runs
//! the passes over them.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::lints::{
    check_manifest_profile, check_profile_config, check_shared_counter, check_size, check_source,
    check_unused_deps, check_unused_pub, count_identifiers, Violation,
};
use crate::manifest;
use crate::reach::check_unreached_crates;

/// Scans the workspace rooted at `root`: the root crate's `src/` and
/// every `crates/*/src/` tree, skipping [`manifest::SKIP_DIRS`], and
/// every `crates/*/Cargo.toml`.
/// Returns violations sorted by path and line, or an IO error message.
pub fn check_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    let crates = crate_dirs(root);
    for d in &crates {
        collect_rs(&d.join("src"), &mut files);
    }
    if files.is_empty() {
        return Err(format!(
            "no Rust sources found under {} — is this the workspace root?",
            root.display()
        ));
    }
    files.sort();
    let mut out = check_build_profile(root)?;
    out.extend(check_unreached_crates(root)?);
    let refs = References::scan(root)?;
    // `unused-pub`'s reference set for each library crate: the names
    // mentioned outside its `src/`.
    let mut outside: HashMap<String, HashSet<String>> = HashMap::new();
    for d in &crates {
        let home = format!("{}/src/", rel_label(root, d));
        let src = d.join("src");
        let has_binary = src.join("main.rs").is_file() || src.join("bin").is_dir();
        if !has_binary {
            outside.insert(home.clone(), refs.outside(&home));
        }
        let manifest_path = d.join("Cargo.toml");
        if let Ok(toml) = fs::read_to_string(&manifest_path) {
            let empty = HashMap::new();
            let named = refs.by_src.get(&home).unwrap_or(&empty);
            out.extend(check_unused_deps(&rel_label(root, &manifest_path), &toml, named));
        }
    }
    for f in files {
        let rel = rel_label(root, &f);
        let src = fs::read_to_string(&f)
            .map_err(|e| format!("reading {}: {e}", f.display()))?;
        out.extend(check_source(
            &rel,
            &src,
            manifest::is_hot(&rel),
            manifest::is_relaxed_only(&rel),
        ));
        if manifest::is_single_writer(&rel) {
            out.extend(check_shared_counter(&rel, &src));
        }
        if let Some(names) = manifest::crate_src(&rel).and_then(|home| outside.get(home)) {
            out.extend(check_unused_pub(&rel, &src, names));
        }
        if let Some(budget) = manifest::size_budget(&rel) {
            out.extend(check_size(&rel, &src, budget));
        }
    }
    Ok(out)
}

/// The package directories under [`manifest::CRATES_DIR`], sorted.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(root.join(manifest::CRATES_DIR)) else {
        return Vec::new();
    };
    let mut dirs: Vec<PathBuf> =
        entries.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.is_dir()).collect();
    dirs.sort();
    dirs
}

/// The `build-profile` pass, for a root that has a manifest (a root
/// that builds nothing has no profile to pin): the config file holds
/// the release profile and the static-libc rustflags, and neither the root manifest nor any package
/// one level under [`manifest::PROFILE_FREE_MANIFEST_DIRS`] holds
/// another.
fn check_build_profile(root: &Path) -> Result<Vec<Violation>, String> {
    let root_manifest = root.join("Cargo.toml");
    if !root_manifest.is_file() {
        return Ok(Vec::new());
    }
    let config = fs::read_to_string(root.join(manifest::PROFILE_CONFIG)).ok();
    let mut out = check_profile_config(
        manifest::PROFILE_CONFIG,
        config.as_deref(),
        manifest::RELEASE_PROFILE,
        manifest::STATIC_RUSTFLAGS,
    );
    let mut manifests = vec![root_manifest];
    for dir in manifest::PROFILE_FREE_MANIFEST_DIRS {
        let Ok(entries) = fs::read_dir(root.join(dir)) else { continue };
        manifests.extend(entries.filter_map(|e| e.ok().map(|e| e.path().join("Cargo.toml"))));
    }
    manifests.sort();
    for m in manifests.iter().filter(|m| m.is_file()) {
        let src = fs::read_to_string(m).map_err(|e| format!("reading {}: {e}", m.display()))?;
        out.extend(check_manifest_profile(&rel_label(root, m), &src));
    }
    Ok(out)
}

/// Checks an explicit file list (the fixture-test entry point).
/// `hot` applies every manifest-scoped pass to every file.
pub fn check_files(paths: &[PathBuf], hot: bool) -> Result<Vec<Violation>, String> {
    let mut out = Vec::new();
    for f in paths {
        let src = fs::read_to_string(f)
            .map_err(|e| format!("reading {}: {e}", f.display()))?;
        let label = f.to_string_lossy().replace('\\', "/");
        out.extend(check_source(&label, &src, hot, hot));
        if hot {
            out.extend(check_shared_counter(&label, &src));
        }
    }
    Ok(out)
}

/// Identifier counts from one scan of every Rust file the reference
/// passes read — the root crate's `src/`, `tests/` and `examples/`,
/// every crate under `crates/` (its `tests/` and `examples/` too) and
/// `benchmark/` — in total and per `crates/<c>/src/` tree.
struct References {
    total: HashMap<String, usize>,
    by_src: HashMap<String, HashMap<String, usize>>,
}

impl References {
    fn scan(root: &Path) -> Result<Self, String> {
        let mut files = Vec::new();
        for top in ["src", "tests", "examples", manifest::CRATES_DIR, manifest::BENCHMARK_DIR] {
            collect_rs_skipping(&root.join(top), manifest::REFERENCE_SKIP_DIRS, &mut files);
        }
        let mut refs = References { total: HashMap::new(), by_src: HashMap::new() };
        for f in &files {
            let src =
                fs::read_to_string(f).map_err(|e| format!("reading {}: {e}", f.display()))?;
            let mut counts = HashMap::new();
            count_identifiers(&src, &mut counts);
            let rel = rel_label(root, f);
            if let Some(home) = manifest::crate_src(&rel) {
                let own = refs.by_src.entry(home.to_string()).or_default();
                for (name, n) in &counts {
                    *own.entry(name.clone()).or_default() += n;
                }
            }
            for (name, n) in counts {
                *refs.total.entry(name).or_default() += n;
            }
        }
        Ok(refs)
    }

    /// The names mentioned outside `home`: more often in the whole scan
    /// than in `home` itself.
    fn outside(&self, home: &str) -> HashSet<String> {
        let own = self.by_src.get(home);
        self.total
            .iter()
            .filter(|&(name, &n)| n > own.and_then(|o| o.get(name)).copied().unwrap_or(0))
            .map(|(name, _)| name.clone())
            .collect()
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    collect_rs_skipping(dir, manifest::SKIP_DIRS, out);
}

pub(crate) fn collect_rs_skipping(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !skip.contains(&name) {
                collect_rs_skipping(&p, skip, out);
            }
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

fn rel_label(root: &Path, f: &Path) -> String {
    f.strip_prefix(root)
        .unwrap_or(f)
        .to_string_lossy()
        .replace('\\', "/")
}
