//! The workspace walker: finds the `.rs` files ukcheck scans and runs
//! the passes over them.

use std::fs;
use std::path::{Path, PathBuf};

use std::collections::HashSet;

use crate::lints::{
    check_manifest_profile, check_profile_config, check_shared_counter, check_size, check_source,
    check_unused_pub, identifiers, Violation,
};
use crate::manifest;

/// Scans the workspace rooted at `root`: the root crate's `src/` and
/// every `crates/*/src/` tree, skipping [`manifest::SKIP_DIRS`].
/// Returns violations sorted by path and line, or an IO error message.
pub fn check_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut files);
        }
    }
    if files.is_empty() {
        return Err(format!(
            "no Rust sources found under {} — is this the workspace root?",
            root.display()
        ));
    }
    files.sort();
    let mut out = check_build_profile(root)?;
    // `unused-pub`'s reference set, scanned on first need.
    let mut referenced: Option<HashSet<String>> = None;
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
        if manifest::is_narrow_api(&rel) {
            let names = match &referenced {
                Some(names) => names,
                None => referenced.insert(identifiers_outside(root)?),
            };
            out.extend(check_unused_pub(&rel, &src, names));
        }
        if let Some(budget) = manifest::size_budget(&rel) {
            out.extend(check_size(&rel, &src, budget));
        }
    }
    Ok(out)
}

/// The `build-profile` pass, for a root that has a manifest (a root
/// that builds nothing has no profile to pin): the config file holds
/// the release profile, and neither the root manifest nor any package
/// one level under [`manifest::PROFILE_FREE_MANIFEST_DIRS`] holds
/// another.
fn check_build_profile(root: &Path) -> Result<Vec<Violation>, String> {
    let root_manifest = root.join("Cargo.toml");
    if !root_manifest.is_file() {
        return Ok(Vec::new());
    }
    let config = fs::read_to_string(root.join(manifest::PROFILE_CONFIG)).ok();
    let mut out =
        check_profile_config(manifest::PROFILE_CONFIG, config.as_deref(), manifest::RELEASE_PROFILE);
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

/// Every identifier in the workspace's Rust files that lie outside
/// [`NARROW_API_HOME`](manifest::NARROW_API_HOME) — the root crate,
/// every crate under `crates/`, and `benchmark/`, their `tests/` and
/// `examples/` included.
fn identifiers_outside(root: &Path) -> Result<HashSet<String>, String> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "crates", "benchmark"] {
        collect_rs_skipping(&root.join(top), manifest::REFERENCE_SKIP_DIRS, &mut files);
    }
    let mut names = HashSet::new();
    for f in files.iter().filter(|f| !rel_label(root, f).starts_with(manifest::NARROW_API_HOME)) {
        let src = fs::read_to_string(f).map_err(|e| format!("reading {}: {e}", f.display()))?;
        identifiers(&src, &mut names);
    }
    Ok(names)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    collect_rs_skipping(dir, manifest::SKIP_DIRS, out);
}

fn collect_rs_skipping(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) {
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
