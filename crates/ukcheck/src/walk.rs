//! The workspace walker: finds the `.rs` files ukcheck scans and runs
//! the passes over them.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lints::{check_shared_counter, check_size, check_source, Violation};
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
    let mut out = Vec::new();
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
        if manifest::SINGLE_WRITER_FILES.contains(&rel.as_str()) {
            out.extend(check_shared_counter(&rel, &src));
        }
        if let Some(budget) = manifest::size_budget(&rel) {
            out.extend(check_size(&rel, &src, budget));
        }
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

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !manifest::SKIP_DIRS.contains(&name) {
                collect_rs(&p, out);
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
