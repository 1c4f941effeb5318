//! The `unreached-crate` pass: every library crate the workspace builds
//! is linked into something that runs.
//!
//! The packages are the root manifest's, each `[workspace] members`
//! entry's and `benchmark/`'s; an edge is a `[dependencies]` entry with
//! a `path`. What runs is a package that builds a binary (`src/main.rs`,
//! `src/bin/` or a `[[bin]]` table), `benchmark/`, and the root crate's
//! `examples/` — each through the facade aliases it names
//! (`unikraft_rs::<alias>`, where the facade's `src/lib.rs` says `pub use
//! <crate> as <alias>;`). A library crate under [`CRATES_DIR`] that no
//! chain of edges reaches from one of those is reported. Tests do not
//! count: a crate only its own tests and the facade's keep alive is the
//! dead code `unused-pub` finds one level up.
//!
//! [`CRATES_DIR`]: crate::manifest::CRATES_DIR

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;

use crate::lexer::lex;
use crate::lints::{strip_toml_comment, toml_lines, Lint, TomlLine, Violation};
use crate::manifest::{BENCHMARK_DIR, CRATES_DIR, REFERENCE_SKIP_DIRS};
use crate::walk::collect_rs_skipping;

/// What the pass reads of one package's manifest.
struct Package {
    /// The crate name (`[lib] name`, else `[package] name` with `-` read
    /// as `_`).
    name: String,
    /// Each `[dependencies]` entry with a `path`: its key (`-` read as
    /// `_`) and the directory it points at, relative to the root.
    deps: Vec<(String, String)>,
    builds_binary: bool,
    has_lib: bool,
}

impl Package {
    fn read(root: &Path, dir: &str) -> Option<Self> {
        let toml = fs::read_to_string(root.join(dir).join("Cargo.toml")).ok()?;
        let src = root.join(dir).join("src");
        let mut pkg = Package {
            name: String::new(),
            deps: Vec::new(),
            builds_binary: src.join("main.rs").is_file() || src.join("bin").is_dir(),
            has_lib: src.join("lib.rs").is_file(),
        };
        let mut lib_name = None;
        let mut table = "";
        for (_, l) in toml_lines(&toml) {
            match l {
                TomlLine::Table(t) => {
                    table = t;
                    pkg.builds_binary |= t == "bin";
                    pkg.has_lib |= t == "lib";
                    if let Some(dep) = t.strip_prefix("dependencies.") {
                        pkg.deps.push((dep.replace('-', "_"), String::new()));
                    }
                }
                TomlLine::Key("name", v) if table == "package" => pkg.name = unquote(v).to_string(),
                TomlLine::Key("name", v) if table == "lib" => lib_name = Some(unquote(v).to_string()),
                TomlLine::Key(k, v) if table == "dependencies" => {
                    if let Some(path) = inline_path(v) {
                        pkg.deps.push((k.replace('-', "_"), join(dir, path)));
                    }
                }
                TomlLine::Key("path", v) if table.starts_with("dependencies.") => {
                    if let Some((_, to)) = pkg.deps.last_mut() {
                        *to = join(dir, unquote(v));
                    }
                }
                TomlLine::Key(..) => {}
            }
        }
        pkg.deps.retain(|(_, to)| !to.is_empty());
        pkg.name = lib_name.unwrap_or_else(|| pkg.name.replace('-', "_"));
        Some(pkg)
    }
}

/// Runs the pass over the workspace at `root`; a root without a
/// `[workspace] members` list has nothing to check.
pub(crate) fn check_unreached_crates(root: &Path) -> Result<Vec<Violation>, String> {
    let Ok(root_toml) = fs::read_to_string(root.join("Cargo.toml")) else {
        return Ok(Vec::new());
    };
    let members = workspace_members(&root_toml);
    let mut packages: HashMap<&str, Package> = HashMap::new();
    for dir in members.iter().map(String::as_str).chain(["", BENCHMARK_DIR]) {
        if let Some(pkg) = Package::read(root, dir) {
            packages.insert(dir, pkg);
        }
    }
    let mut todo: Vec<String> = packages
        .iter()
        .filter(|&(dir, p)| p.builds_binary || *dir == BENCHMARK_DIR)
        .map(|(dir, _)| dir.to_string())
        .collect();
    if let Some(facade) = packages.get("") {
        todo.extend(example_roots(root, facade)?);
    }
    let mut reached = HashSet::new();
    while let Some(dir) = todo.pop() {
        if let Some(pkg) = packages.get(dir.as_str()).filter(|_| !reached.contains(&dir)) {
            todo.extend(pkg.deps.iter().map(|(_, to)| to.clone()));
        }
        reached.insert(dir);
    }
    let crates_dir = format!("{CRATES_DIR}/");
    let mut out: Vec<Violation> = members
        .iter()
        .filter(|dir| dir.starts_with(&crates_dir) && !reached.contains(*dir))
        .filter_map(|dir| Some((dir, packages.get(dir.as_str()).filter(|p| p.has_lib)?)))
        .map(|(dir, pkg)| Violation {
            file: format!("{dir}/Cargo.toml"),
            line: 1,
            lint: Lint::UnreachedCrate,
            msg: format!(
                "library crate `{}` is reached by no binary, `{BENCHMARK_DIR}/` or example through \
                 `[dependencies]` (tests do not count): delete it, or give it a user",
                pkg.name
            ),
        })
        .collect();
    out.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(out)
}

/// The package directories the root crate's `examples/` reach: each
/// facade alias an example names as `<facade>::<alias>`, mapped through
/// the facade's `pub use <crate> as <alias>;` to the dependency it
/// re-exports. (A grouped `use <facade>::{…}` names no alias this way.)
fn example_roots(root: &Path, facade: &Package) -> Result<Vec<String>, String> {
    let lib = fs::read_to_string(root.join("src/lib.rs")).unwrap_or_default();
    let toks = lex(&lib).toks;
    let mut alias_dir = HashMap::new();
    for w in toks.windows(5) {
        if let [pub_, use_, krate, as_, alias] = w {
            if pub_.ident() == Some("pub") && use_.ident() == Some("use") && as_.ident() == Some("as") {
                let dir = facade.deps.iter().find(|(name, _)| Some(name.as_str()) == krate.ident());
                if let (Some(alias), Some((_, dir))) = (alias.ident(), dir) {
                    alias_dir.insert(alias.to_string(), dir.clone());
                }
            }
        }
    }
    let mut files = Vec::new();
    collect_rs_skipping(&root.join("examples"), REFERENCE_SKIP_DIRS, &mut files);
    let mut out = Vec::new();
    for f in files {
        let src = fs::read_to_string(&f).map_err(|e| format!("reading {}: {e}", f.display()))?;
        let toks = lex(&src).toks;
        for w in toks.windows(4) {
            if w[0].ident() == Some(facade.name.as_str()) && w[1].is_punct(':') && w[2].is_punct(':') {
                out.extend(w[3].ident().and_then(|a| alias_dir.get(a)).cloned());
            }
        }
    }
    Ok(out)
}

/// The `members` array of the manifest's `[workspace]` table, which may
/// span lines.
fn workspace_members(toml: &str) -> Vec<String> {
    let mut table = "";
    for (n, l) in toml_lines(toml) {
        match l {
            TomlLine::Table(t) => table = t,
            TomlLine::Key("members", _) if table == "workspace" => {
                let text: String = toml
                    .lines()
                    .skip(n as usize - 1)
                    .map(strip_toml_comment)
                    .collect::<Vec<_>>()
                    .join("\n");
                let list = text.split_once('[').map_or("", |(_, l)| l);
                let list = list.split_once(']').map_or("", |(l, _)| l);
                return list.split('"').skip(1).step_by(2).map(str::to_string).collect();
            }
            TomlLine::Key(..) => {}
        }
    }
    Vec::new()
}

/// The `path` of an inline table value, `{ path = "…", … }`.
fn inline_path(v: &str) -> Option<&str> {
    let body = v.strip_prefix('{')?.strip_suffix('}')?;
    body.split(',')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| k.trim() == "path")
        .map(|(_, p)| unquote(p))
}

fn unquote(v: &str) -> &str {
    v.trim().trim_matches('"')
}

/// `rel` resolved against the package directory `dir`, both `/`-separated
/// and relative to the root.
fn join(dir: &str, rel: &str) -> String {
    let mut parts: Vec<&str> = dir.split('/').filter(|p| !p.is_empty()).collect();
    for p in rel.split('/') {
        match p {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            p => parts.push(p),
        }
    }
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_resolve_against_the_package() {
        assert_eq!(join("crates/app", "../ukplat"), "crates/ukplat");
        assert_eq!(join("benchmark", "../crates/ukapps"), "crates/ukapps");
        assert_eq!(join("", "crates/core"), "crates/core");
        assert_eq!(inline_path(r#"{ path = "../x", default-features = false }"#), Some("../x"));
        assert_eq!(inline_path(r#""1.0""#), None);
    }

    #[test]
    fn members_span_lines_and_skip_comments() {
        let toml = "[workspace]\nresolver = \"2\"\nmembers = [\n    \"crates/a\", # the \"first\"\n    \"crates/b\",\n]\n[package]\nname = \"x\"\n";
        assert_eq!(workspace_members(toml), ["crates/a", "crates/b"]);
        assert!(workspace_members("[package]\nname = \"x\"\n").is_empty());
    }
}
