//! The lint passes: the repo's written-down invariants, machine-checked.
//!
//! Every pass works on the token stream from [`crate::lexer`] plus the
//! comment side-table; none of them parse Rust properly — they match
//! token *sequences*, which is exactly enough for invariants of the
//! form "this identifier must not appear here without a justification
//! next to it". See `crates/ukcheck/README.md` for the invariant
//! catalogue and the escape contract.

use std::collections::{HashMap, HashSet};

use crate::lexer::{lex, Comment, Tok, TokKind};

/// Which invariant a violation belongs to. The lint's name doubles as
/// the key accepted inside an allow-escape comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// Heap allocation in a manifest-listed hot module.
    Alloc,
    /// Panicking construct (`unwrap`/`expect`/`panic!`/…) in a hot
    /// module.
    Panic,
    /// `unsafe` without an adjacent `// SAFETY:` comment. Not
    /// escapable via `allow` — the SAFETY comment *is* the escape.
    Unsafe,
    /// Atomic-ordering policy: `SeqCst` anywhere, or any non-Relaxed
    /// ordering inside the `ukstats`/`uktrace` hot crates.
    Atomics,
    /// A malformed escape comment (unknown lint name, missing `--`
    /// justification) — escapes are part of the contract and are
    /// themselves linted.
    Escape,
    /// A `ukstats::Counter` — a shared registry slot, one `lock` RMW
    /// per add — in a manifest-listed single-writer owner, whose counts
    /// belong in its `CounterSet`. Escaped by naming the second writer.
    SharedCounter,
    /// A manifest-listed file grew past its non-test line budget. Not
    /// escapable in place — the budget in `manifest.rs` is raised, with
    /// a reason, in the PR that needs the room.
    Size,
    /// A `pub` item in a library crate's `src/` (see
    /// [`CRATES_DIR`](crate::manifest::CRATES_DIR)) whose name no file
    /// outside that `src/` mentions: it is a seam between the crate's
    /// files, not API — `pub(super)` or `pub(crate)` says so. Escaped by
    /// naming the public item that exposes it.
    UnusedPub,
    /// A `[dependencies]` entry of a `crates/*` manifest that no file in
    /// the crate's `src/` names: an edge that links a library in for
    /// nothing. Not escapable — delete the line.
    UnusedDep,
    /// A library crate under `crates/` that the workspace builds but no
    /// binary, `benchmark/` or example links: only tests keep it alive.
    /// Not escapable — delete the crate or give it a user.
    UnreachedCrate,
    /// The release profile is not the one the image is measured under:
    /// `.cargo/config.toml` is missing or its `[profile.release]` is not
    /// exactly [`RELEASE_PROFILE`](crate::manifest::RELEASE_PROFILE), or
    /// a workspace `Cargo.toml` carries a `[profile.release…]` table of
    /// its own. Not escapable — the config file is the one place.
    BuildProfile,
}

impl Lint {
    pub fn name(self) -> &'static str {
        match self {
            Lint::Alloc => "alloc",
            Lint::Panic => "panic",
            Lint::Unsafe => "unsafe",
            Lint::Atomics => "atomics",
            Lint::Escape => "escape",
            Lint::SharedCounter => "shared-counter",
            Lint::Size => "size",
            Lint::UnusedPub => "unused-pub",
            Lint::UnusedDep => "unused-dep",
            Lint::UnreachedCrate => "unreached-crate",
            Lint::BuildProfile => "build-profile",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "alloc" => Lint::Alloc,
            "panic" => Lint::Panic,
            "atomics" => Lint::Atomics,
            "shared-counter" => Lint::SharedCounter,
            "unused-pub" => Lint::UnusedPub,
            _ => return None,
        })
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub lint: Lint,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.name(),
            self.msg
        )
    }
}

/// Allocation-performing constructors: `Type::method` pairs forbidden
/// on the hot path. (`Vec::new` itself does not allocate, but it is
/// the seed of lazy growth — the exact bug class the zero-alloc gates
/// kept catching at runtime — so it is flagged with the rest.)
const ALLOC_CTORS: &[&str] = &[
    "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Box", "String", "Rc",
    "Arc",
];
const ALLOC_CTOR_METHODS: &[&str] = &["new", "from", "with_capacity", "from_iter"];

/// Allocating methods: `.method(` forms forbidden on the hot path.
/// `reserve` is here because on-demand growth *is* an allocation —
/// three of these hid behind warm-up in earlier PRs.
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "reserve",
    "reserve_exact",
];

/// Allocating macros: `name!` forms forbidden on the hot path.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Panicking macros forbidden on the datapath.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Panicking methods (`.unwrap()` / `.expect(…)`) forbidden on the
/// datapath. Exact-identifier matches only — `unwrap_or` is fine.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Checks one source file. `hot` applies the hot-path-only passes
/// (alloc, panic) in addition to the workspace-wide ones (unsafe,
/// atomics, escape); `relaxed_only` additionally restricts atomic
/// orderings to `Relaxed` (the ukstats/uktrace policy).
pub fn check_source(file: &str, src: &str, hot: bool, relaxed_only: bool) -> Vec<Violation> {
    let lexed = lex(src);
    let active = active_mask(&lexed.toks);
    let (allows, mut out) = parse_escapes(file, &lexed.comments);
    let safety_lines = safety_comment_lines(&lexed.comments);
    let comment_lines = comment_line_set(&lexed.comments);

    let toks = &lexed.toks;
    let ranges = allow_ranges(toks, &allows);
    let push = |line: u32, lint: Lint, msg: String, out: &mut Vec<Violation>| {
        if !escaped(&ranges, line, lint) {
            out.push(Violation {
                file: file.to_string(),
                line,
                lint,
                msg,
            });
        }
    };

    for i in 0..toks.len() {
        if !active[i] {
            continue;
        }
        let t = &toks[i];
        let id = match t.ident() {
            Some(id) => id,
            None => continue,
        };
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_bang = matches!(toks.get(i + 1), Some(n) if n.is_punct('!'));
        let next_paren_after_bang =
            matches!(toks.get(i + 2), Some(n) if n.is_punct('(') || n.is_punct('[') || n.is_punct('{'));

        // --- hot-path passes ---------------------------------------
        if hot {
            // `Type::{new,from,with_capacity,…}`
            if ALLOC_CTORS.contains(&id)
                && matches!(toks.get(i + 1), Some(n) if n.is_punct(':'))
                && matches!(toks.get(i + 2), Some(n) if n.is_punct(':'))
            {
                if let Some(m) = toks.get(i + 3).and_then(|t| t.ident()) {
                    if ALLOC_CTOR_METHODS.contains(&m) {
                        push(
                            t.line,
                            Lint::Alloc,
                            format!("`{id}::{m}` allocates (or seeds lazy growth) in a hot module"),
                            &mut out,
                        );
                    }
                }
            }
            // `.to_vec(` / `.collect(` / `.reserve(` …
            if prev_dot
                && ALLOC_METHODS.contains(&id)
                && matches!(toks.get(i + 1), Some(n) if n.is_punct('(') || n.is_punct(':'))
            {
                push(
                    t.line,
                    Lint::Alloc,
                    format!("`.{id}()` allocates in a hot module"),
                    &mut out,
                );
            }
            // `vec![` / `format!(`
            if ALLOC_MACROS.contains(&id) && next_bang && next_paren_after_bang && !prev_dot {
                push(
                    t.line,
                    Lint::Alloc,
                    format!("`{id}!` allocates in a hot module"),
                    &mut out,
                );
            }
            // `.unwrap()` / `.expect(`
            if prev_dot
                && PANIC_METHODS.contains(&id)
                && matches!(toks.get(i + 1), Some(n) if n.is_punct('('))
            {
                push(
                    t.line,
                    Lint::Panic,
                    format!("`.{id}()` can panic on the datapath — return an error or drop the segment"),
                    &mut out,
                );
            }
            // `panic!` / `unreachable!` / …
            if PANIC_MACROS.contains(&id) && next_bang && next_paren_after_bang && !prev_dot {
                push(
                    t.line,
                    Lint::Panic,
                    format!("`{id}!` on the datapath — the kernel must not have panicking paths"),
                    &mut out,
                );
            }
        }

        // --- workspace-wide passes ---------------------------------
        if id == "unsafe" && !has_safety_comment(t.line, &safety_lines, &comment_lines) {
            out.push(Violation {
                file: file.to_string(),
                line: t.line,
                lint: Lint::Unsafe,
                msg: "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            });
        }
        if id == "SeqCst" {
            push(
                t.line,
                Lint::Atomics,
                "`SeqCst` ordering — justify why Relaxed/Acquire/Release is insufficient"
                    .to_string(),
                &mut out,
            );
        } else if relaxed_only && matches!(id, "Acquire" | "Release" | "AcqRel") {
            // Only flag actual ordering arguments (`Ordering::Acquire`),
            // not arbitrary identifiers that happen to share the name.
            let after_colons = i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].ident() == Some("Ordering");
            if after_colons {
                push(
                    t.line,
                    Lint::Atomics,
                    format!("`Ordering::{id}` in a Relaxed-only crate — hot counters must be Relaxed"),
                    &mut out,
                );
            }
        }
    }

    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.msg.cmp(&b.msg)));
    out
}

/// The single-writer pass, for the files of
/// [`SINGLE_WRITER_FILES`](crate::manifest::SINGLE_WRITER_FILES): a
/// `ukstats::Counter` field or a `Counter::register` call is a
/// violation unless its escape names the second writer. (Malformed
/// escapes are [`check_source`]'s to report.)
pub fn check_shared_counter(file: &str, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let active = active_mask(toks);
    let ranges = allow_ranges(toks, &parse_escapes(file, &lexed.comments).0);
    let path_sep = |i: usize| {
        matches!(toks.get(i), Some(t) if t.is_punct(':'))
            && matches!(toks.get(i + 1), Some(t) if t.is_punct(':'))
    };
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !active[i] || toks[i].ident() != Some("Counter") {
            continue;
        }
        let ident_at = |j: usize| toks.get(j).and_then(|t| t.ident());
        let registers = path_sep(i + 1) && ident_at(i + 3) == Some("register");
        let is_type =
            i >= 3 && path_sep(i - 2) && ident_at(i - 3) == Some("ukstats") && !path_sep(i + 1);
        let line = toks[i].line;
        if (registers || is_type) && !escaped(&ranges, line, Lint::SharedCounter) {
            out.push(Violation {
                file: file.to_string(),
                line,
                lint: Lint::SharedCounter,
                msg: "`ukstats::Counter` in a single-writer owner: a count with one writer \
                      is a row of the owner's `CounterSet`; one that really has a second \
                      writer says who — `ukcheck: allow(shared-counter) -- <the writer>`"
                    .to_string(),
            });
        }
    }
    out
}

/// Item keywords a `pub` may introduce (`use` re-exports and struct
/// fields are not items of their own).
const ITEM_KEYWORDS: &[&str] =
    &["fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod"];

/// The narrow-API pass, for files in a library crate's `src/`: a plain `pub`
/// item (not `pub(super)`/`pub(crate)`) whose name is not among
/// `referenced` — every identifier in the files that count as outside —
/// is a violation.
pub fn check_unused_pub(file: &str, src: &str, referenced: &HashSet<String>) -> Vec<Violation> {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let active = active_mask(toks);
    let ranges = allow_ranges(toks, &parse_escapes(file, &lexed.comments).0);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !active[i] || toks[i].ident() != Some("pub") {
            continue;
        }
        // Past `const`/`unsafe`/`async`/`extern "C"` to the keyword that
        // says what the item is; the name follows it.
        let ident_at = |j: usize| toks.get(j).and_then(|t| t.ident());
        let mut k = i + 1;
        loop {
            match ident_at(k) {
                Some("unsafe" | "async") => k += 1,
                Some("const") if ident_at(k + 1) == Some("fn") => k += 1,
                // `extern "C"`: the ABI string rides along.
                Some("extern") => {
                    let abi = matches!(toks.get(k + 1), Some(t) if t.kind == TokKind::Str);
                    k += 1 + usize::from(abi)
                }
                _ => break,
            }
        }
        let Some(kw) = ident_at(k).filter(|kw| ITEM_KEYWORDS.contains(kw)) else { continue };
        let Some(name) = ident_at(k + 1) else { continue };
        let line = toks[i].line;
        if !referenced.contains(name) && !escaped(&ranges, line, Lint::UnusedPub) {
            out.push(Violation {
                file: file.to_string(),
                line,
                lint: Lint::UnusedPub,
                msg: format!(
                    "`pub {kw} {name}` is named by no test, example, other crate or benchmark: \
                     make it `pub(super)`/`pub(crate)`, or delete it"
                ),
            });
        }
    }
    out
}

/// Counts every identifier in `src` (test code included) into `into`:
/// what a file contributes to the reference sets of `unused-pub` and
/// `unused-dep`.
pub fn count_identifiers(src: &str, into: &mut HashMap<String, usize>) {
    for name in lex(src).toks.iter().filter_map(|t| t.ident()) {
        *into.entry(name.to_string()).or_default() += 1;
    }
}

/// Lines of `src` outside `#[cfg(test)]`/`#[test]` items — what a
/// file costs to read and maintain as shipped code. A test item's
/// lines run from its first attribute to its closing brace.
pub fn non_test_lines(src: &str) -> usize {
    let toks = lex(src).toks;
    let active = active_mask(&toks);
    let mut test_lines = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        if active[i] {
            i += 1;
            continue;
        }
        let first = toks[i].line;
        while i < toks.len() && !active[i] {
            i += 1;
        }
        test_lines += (toks[i - 1].line - first + 1) as usize;
    }
    src.lines().count() - test_lines
}

/// The size ratchet: `file` may hold at most `budget` non-test lines.
pub fn check_size(file: &str, src: &str, budget: usize) -> Option<Violation> {
    let lines = non_test_lines(src);
    (lines > budget).then(|| Violation {
        file: file.to_string(),
        line: 1,
        lint: Lint::Size,
        msg: format!(
            "{} lines over budget ({lines} non-test lines, budget {budget}): delete or \
             split, or raise the budget in the same PR with a reason",
            lines - budget
        ),
    })
}

/// What one line of a TOML file says, as far as the `build-profile`
/// pass reads TOML: table headers and `key = value` lines, comments
/// stripped. (No multi-line values, no dotted keys — a profile written
/// that way reads as missing, which is the report wanted.)
pub(crate) enum TomlLine<'a> {
    Table(&'a str),
    Key(&'a str, &'a str),
}

pub(crate) fn toml_lines(src: &str) -> impl Iterator<Item = (u32, TomlLine<'_>)> {
    src.lines().zip(1u32..).filter_map(|(raw, n)| {
        let line = strip_toml_comment(raw).trim();
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            return Some((n, TomlLine::Table(name.trim_matches(['[', ']', ' ']))));
        }
        let (k, v) = line.split_once('=')?;
        Some((n, TomlLine::Key(k.trim(), v.trim())))
    })
}

/// `raw` up to its `#` comment, if it has one outside a string.
pub(crate) fn strip_toml_comment(raw: &str) -> &str {
    let mut in_str = false;
    let end = raw
        .char_indices()
        .find(|&(_, c)| {
            in_str ^= c == '"';
            c == '#' && !in_str
        })
        .map_or(raw.len(), |(i, _)| i);
    &raw[..end]
}

fn is_release_profile(table: &str) -> bool {
    table == "profile.release" || table.starts_with("profile.release.")
}

fn profile_violation(file: &str, line: u32, msg: String) -> Violation {
    Violation { file: file.to_string(), line, lint: Lint::BuildProfile, msg }
}

/// The `build-profile` pass over `.cargo/config.toml` (`src` is `None`
/// when the file is missing): its `[profile.release]` must hold exactly
/// `expected` — each key once, with that value — and have no sub-table,
/// and `rustflags = <value>` must stand once in `[<table>]` of
/// `rustflags`, and in no other table.
pub fn check_profile_config(
    file: &str,
    src: Option<&str>,
    expected: &[(&str, &str)],
    rustflags: (&str, &str),
) -> Vec<Violation> {
    let report = |line: u32, msg: String| profile_violation(file, line, msg);
    let Some(src) = src else {
        return vec![report(
            1,
            "missing: both build roots (the workspace and `benchmark/`) take the release \
             profile from this file and from nowhere else"
                .to_string(),
        )];
    };
    let (flags_table, flags) = rustflags;
    let mut out = Vec::new();
    let mut table = "";
    let mut seen: Vec<&str> = Vec::new();
    let mut flags_seen = false;
    for (line, l) in toml_lines(src) {
        match l {
            TomlLine::Table(t) => {
                table = t;
                if t.starts_with("profile.release.") {
                    out.push(report(line, format!("`[{t}]`: a setting beyond the release profile")));
                }
            }
            TomlLine::Key("rustflags", v) if table == flags_table => {
                if v != flags || flags_seen {
                    out.push(report(line, format!("`rustflags = {v}`: want `rustflags = {flags}`, once")));
                }
                flags_seen = true;
            }
            TomlLine::Key("rustflags", _) if table != "profile.release" => out.push(report(
                line,
                format!("`rustflags` in `[{table}]`: the image's flags live in `[{flags_table}]` only"),
            )),
            TomlLine::Key(k, v) if table == "profile.release" => {
                match expected.iter().find(|(ek, _)| *ek == k) {
                    Some((_, ev)) => {
                        if *ev != v || seen.contains(&k) {
                            out.push(report(line, format!("`{k} = {v}`: want `{k} = {ev}`, once")));
                        }
                        seen.push(k);
                    }
                    None => out.push(report(line, format!("`{k}`: a setting beyond the release profile"))),
                }
            }
            TomlLine::Key(..) => {}
        }
    }
    for (k, v) in expected.iter().filter(|(k, _)| !seen.contains(k)) {
        out.push(report(1, format!("`[profile.release]` lacks `{k} = {v}`")));
    }
    if !flags_seen {
        out.push(report(1, format!("`[{flags_table}]` lacks `rustflags = {flags}`")));
    }
    out
}

/// The `build-profile` pass over a workspace `Cargo.toml`: a
/// `[profile.release…]` table there is a second place the profile is
/// written, and cargo merges the two — the build is no longer the one
/// the config file describes.
pub fn check_manifest_profile(file: &str, src: &str) -> Vec<Violation> {
    toml_lines(src)
        .filter_map(|(line, l)| match l {
            TomlLine::Table(t) if is_release_profile(t) => Some(profile_violation(
                file,
                line,
                format!(
                    "`[{t}]` in a manifest: the release profile lives in `.cargo/config.toml`, \
                     the one file both build roots read"
                ),
            )),
            _ => None,
        })
        .collect()
}

/// The `unused-dep` pass over a `crates/*` manifest: each entry of its
/// `[dependencies]` table (or a `[dependencies.<name>]` table) must be
/// named — `-` read as `_` — by a file in the crate's `src/`, whose
/// identifiers `named` counts.
pub fn check_unused_deps(file: &str, src: &str, named: &HashMap<String, usize>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut table = "";
    for (line, l) in toml_lines(src) {
        let dep = match l {
            TomlLine::Table(t) => {
                table = t;
                t.strip_prefix("dependencies.")
            }
            TomlLine::Key(k, _) if table == "dependencies" => Some(k),
            TomlLine::Key(..) => None,
        };
        let Some(dep) = dep else { continue };
        if !named.contains_key(&dep.replace('-', "_")) {
            out.push(Violation {
                file: file.to_string(),
                line,
                lint: Lint::UnusedDep,
                msg: format!(
                    "dependency `{dep}` is named by no file in this crate's `src/`: delete \
                     the edge"
                ),
            });
        }
    }
    out
}

/// Marks which tokens are "active" (not under a `#[test]`- or
/// `#[cfg(test)]`-guarded item, nor after an inner `#![cfg(test)]`).
/// Test code may unwrap and allocate freely — the invariants protect
/// the image, not the test harness.
fn active_mask(toks: &[Tok]) -> Vec<bool> {
    let mut active = vec![true; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        // `#[...]` or `#![...]`
        let mut j = i + 1;
        if matches!(toks.get(j), Some(t) if t.is_punct('!')) {
            j += 1;
        }
        if !matches!(toks.get(j), Some(t) if t.is_punct('[')) {
            i += 1;
            continue;
        }
        let (attr_end, mentions_test) = scan_attr(toks, j);
        if !mentions_test {
            i = attr_end;
            continue;
        }
        if toks[i + 1].is_punct('!') {
            // `#![cfg(test)]` guards what encloses it: the rest of the
            // file (an out-of-line `mod tests;`) or of the inline module.
            let mut depth = 0i32;
            let mut k = i;
            while k < toks.len() && depth >= 0 {
                active[k] = false;
                depth += i32::from(toks[k].is_punct('{')) - i32::from(toks[k].is_punct('}'));
                k += 1;
            }
            i = k;
            continue;
        }
        // Deactivate this attribute, any stacked attributes after it,
        // and the item they decorate (to its `;` or matching `}`).
        for t in active.iter_mut().take(attr_end).skip(i) {
            *t = false;
        }
        let mut k = attr_end;
        while matches!(toks.get(k), Some(t) if t.is_punct('#')) {
            let mut a = k + 1;
            if matches!(toks.get(a), Some(t) if t.is_punct('!')) {
                a += 1;
            }
            if !matches!(toks.get(a), Some(t) if t.is_punct('[')) {
                break;
            }
            let (end, _) = scan_attr(toks, a);
            for t in active.iter_mut().take(end).skip(k) {
                *t = false;
            }
            k = end;
        }
        let mut depth = 0i32;
        let mut inner = 0i32; // parens/brackets: `[u8; 4]` must not end the item
        while k < toks.len() {
            active[k] = false;
            if toks[k].is_punct('{') {
                depth += 1;
            } else if toks[k].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
            } else if toks[k].is_punct('(') || toks[k].is_punct('[') {
                inner += 1;
            } else if toks[k].is_punct(')') || toks[k].is_punct(']') {
                inner -= 1;
            } else if toks[k].is_punct(';') && depth == 0 && inner == 0 {
                k += 1;
                break;
            }
            k += 1;
        }
        i = k;
    }
    active
}

/// Scans an attribute starting at its `[` token; returns (index past
/// the closing `]`, whether the attribute mentions the ident `test`).
fn scan_attr(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut mentions_test = false;
    let mut k = open;
    while k < toks.len() {
        if toks[k].is_punct('[') {
            depth += 1;
        } else if toks[k].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (k + 1, mentions_test);
            }
        } else if toks[k].ident() == Some("test") {
            mentions_test = true;
        }
        k += 1;
    }
    (k, mentions_test)
}

/// A resolved escape: `lint` is allowed on lines `start..=end`.
struct AllowRange {
    lint: Lint,
    start: u32,
    end: u32,
}

/// Whether an escape for `lint` covers `line`.
fn escaped(ranges: &[AllowRange], line: u32, lint: Lint) -> bool {
    ranges.iter().any(|r| r.lint == lint && r.start <= line && line <= r.end)
}

/// Resolves parsed escapes into line ranges:
///
/// - a **trailing** escape (code on the same line) covers that line;
/// - a **standalone** escape covers the next code line;
/// - a standalone escape whose next code line starts an `fn` item
///   covers the whole function body — one justified escape above a
///   constructor, not one per field.
fn allow_ranges(toks: &[Tok], allows: &HashMap<u32, HashSet<Lint>>) -> Vec<AllowRange> {
    let mut out = Vec::new();
    for (&line, set) in allows {
        let trailing = toks.iter().any(|t| t.line == line);
        let (start, end) = if trailing {
            (line, line)
        } else {
            // First token past the comment, skipping over attributes
            // (`#[cfg(...)]` lines between the escape and its item).
            let Some(mut first) = toks.iter().position(|t| t.line > line) else {
                continue;
            };
            while toks[first].is_punct('#') {
                let mut a = first + 1;
                if matches!(toks.get(a), Some(t) if t.is_punct('!')) {
                    a += 1;
                }
                if !matches!(toks.get(a), Some(t) if t.is_punct('[')) {
                    break;
                }
                let (end, _) = scan_attr(toks, a);
                if end >= toks.len() {
                    break;
                }
                first = end;
            }
            let code_line = toks[first].line;
            let fn_on_line = toks[first..]
                .iter()
                .take_while(|t| t.line == code_line)
                .any(|t| t.ident() == Some("fn"));
            if fn_on_line {
                (code_line, item_end_line(toks, first))
            } else {
                (code_line, code_line)
            }
        };
        for &lint in set {
            out.push(AllowRange { lint, start, end });
        }
    }
    out
}

/// The last line of the item starting at token `from`: its matching
/// close brace, or its `;` for a body-less declaration.
fn item_end_line(toks: &[Tok], from: usize) -> u32 {
    let mut depth = 0i32;
    let mut inner = 0i32;
    let mut k = from;
    while k < toks.len() {
        if toks[k].is_punct('{') {
            depth += 1;
        } else if toks[k].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return toks[k].line;
            }
        } else if toks[k].is_punct('(') || toks[k].is_punct('[') {
            inner += 1;
        } else if toks[k].is_punct(')') || toks[k].is_punct(']') {
            inner -= 1;
        } else if toks[k].is_punct(';') && depth == 0 && inner == 0 {
            return toks[k].line;
        }
        k += 1;
    }
    toks.last().map_or(0, |t| t.line)
}

/// Parses every allow escape (the lint name in parentheses, a `--`,
/// then a mandatory justification) out of the comments. Returns the
/// per-line allow sets (keyed by the comment's *end* line, so both
/// trailing and preceding-line comments work) and any violations for
/// malformed escapes.
fn parse_escapes(
    file: &str,
    comments: &[Comment],
) -> (HashMap<u32, HashSet<Lint>>, Vec<Violation>) {
    let mut allows: HashMap<u32, HashSet<Lint>> = HashMap::new();
    let mut out = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("ukcheck:") {
            rest = &rest[pos + "ukcheck:".len()..];
            let body = rest.trim_start();
            let Some(args) = body.strip_prefix("allow(") else {
                out.push(Violation {
                    file: file.to_string(),
                    line: c.end_line,
                    lint: Lint::Escape,
                    msg: "malformed escape: expected `ukcheck: allow(<lint>) -- <why>`"
                        .to_string(),
                });
                continue;
            };
            let Some(close) = args.find(')') else {
                out.push(Violation {
                    file: file.to_string(),
                    line: c.end_line,
                    lint: Lint::Escape,
                    msg: "malformed escape: unterminated `allow(`".to_string(),
                });
                continue;
            };
            let name = args[..close].trim();
            let after = args[close + 1..].trim_start();
            let Some(lint) = Lint::from_name(name) else {
                out.push(Violation {
                    file: file.to_string(),
                    line: c.end_line,
                    lint: Lint::Escape,
                    msg: format!(
                        "unknown lint `{name}` in escape (valid: alloc, panic, atomics, \
                         shared-counter, unused-pub; \
                         `unsafe` is escaped by a `// SAFETY:` comment)"
                    ),
                });
                continue;
            };
            let justification = after
                .strip_prefix("--")
                .map(str::trim_start)
                .filter(|j| !j.is_empty());
            if justification.is_none() {
                out.push(Violation {
                    file: file.to_string(),
                    line: c.end_line,
                    lint: Lint::Escape,
                    msg: format!(
                        "escape `allow({name})` without a justification — write \
                         `ukcheck: allow({name}) -- <why this is safe here>`"
                    ),
                });
                continue;
            }
            allows.entry(c.end_line).or_default().insert(lint);
        }
    }
    (allows, out)
}

/// Lines on which a comment containing `SAFETY:` ends.
fn safety_comment_lines(comments: &[Comment]) -> HashSet<u32> {
    comments
        .iter()
        .filter(|c| c.text.contains("SAFETY:"))
        .flat_map(|c| c.start_line..=c.end_line)
        .collect()
}

/// Every line touched by any comment (for walking up a contiguous
/// comment block above an `unsafe`).
fn comment_line_set(comments: &[Comment]) -> HashSet<u32> {
    comments
        .iter()
        .flat_map(|c| c.start_line..=c.end_line)
        .collect()
}

/// An `unsafe` on line L is justified if a `SAFETY:` comment sits on
/// L itself (trailing) or anywhere in the contiguous run of
/// comment-bearing lines immediately above L.
fn has_safety_comment(
    line: u32,
    safety_lines: &HashSet<u32>,
    comment_lines: &HashSet<u32>,
) -> bool {
    if safety_lines.contains(&line) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 && comment_lines.contains(&l) {
        if safety_lines.contains(&l) {
            return true;
        }
        l -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_hot(src: &str) -> Vec<Violation> {
        check_source("test.rs", src, true, false)
    }

    #[test]
    fn flags_unwrap_and_alloc_in_hot_code() {
        let v = check_hot("fn f(x: Option<u8>) { x.unwrap(); let v = Vec::new(); }");
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|v| v.lint == Lint::Panic));
        assert!(v.iter().any(|v| v.lint == Lint::Alloc));
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let v = check_hot("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_escape_with_justification_suppresses() {
        let src = "fn f() {\n    // ukcheck: allow(alloc) -- init-time only\n    let v: Vec<u8> = Vec::new();\n}";
        assert!(check_hot(src).is_empty());
        let trailing =
            "fn f() { let v: Vec<u8> = Vec::new(); } // ukcheck: allow(alloc) -- init";
        assert!(check_hot(trailing).is_empty());
    }

    #[test]
    fn allow_without_justification_is_itself_flagged() {
        let src = "// ukcheck: allow(alloc)\nfn f() { let v: Vec<u8> = Vec::new(); }";
        let v = check_hot(src);
        assert!(v.iter().any(|v| v.lint == Lint::Escape), "{v:?}");
        assert!(v.iter().any(|v| v.lint == Lint::Alloc), "escape invalid → lint still fires");
    }

    #[test]
    fn wrong_lint_name_does_not_suppress() {
        let src = "// ukcheck: allow(panic) -- wrong lint\nfn f() { let v: Vec<u8> = Vec::new(); }";
        let v = check_hot(src);
        assert!(v.iter().any(|v| v.lint == Lint::Alloc));
    }

    #[test]
    fn fn_scoped_escape_covers_the_whole_function() {
        let src = "// ukcheck: allow(alloc) -- constructor runs once at boot\n\
                   pub fn new() -> Self {\n\
                       let a: Vec<u8> = Vec::new();\n\
                       let b: Vec<u8> = Vec::new();\n\
                       Self { a, b }\n\
                   }\n\
                   fn hot() { let c: Vec<u8> = Vec::new(); }";
        let v = check_hot(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 7, "escape must not leak past the fn body");
    }

    #[test]
    fn fn_scoped_escape_skips_attributes() {
        let src = "// ukcheck: allow(panic) -- feature-gated diagnostic\n\
                   #[cfg(feature = \"x\")]\n\
                   fn diag() { panic!(\"boom\"); }";
        assert!(check_hot(src).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); let v = vec![1]; }\n}";
        assert!(check_hot(src).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// calls unwrap() and panic!\nfn f() { let s = \"x.unwrap()\"; }";
        assert!(check_hot(src).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "fn f() { unsafe { core(); } }";
        let v = check_source("t.rs", bad, false, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::Unsafe);

        let good = "fn f() {\n    // SAFETY: core() has no preconditions here.\n    unsafe { core(); }\n}";
        assert!(check_source("t.rs", good, false, false).is_empty());

        let multiline = "fn f() {\n    // SAFETY: the pointer is valid because\n    // the pool pins the slab.\n    unsafe { core(); }\n}";
        assert!(check_source("t.rs", multiline, false, false).is_empty());
    }

    #[test]
    fn seqcst_needs_justification_everywhere() {
        let bad = "fn f() { X.load(Ordering::SeqCst); }";
        let v = check_source("t.rs", bad, false, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::Atomics);
        let good = "fn f() {\n    // ukcheck: allow(atomics) -- total order required for the epoch fence\n    X.load(Ordering::SeqCst);\n}";
        assert!(check_source("t.rs", good, false, false).is_empty());
    }

    #[test]
    fn single_writer_owners_reject_shared_counters() {
        let bad = "struct S { rx: ukstats::Counter }\n\
                   fn new() -> S { S { rx: ukstats::Counter::register(\"s.rx\") } }";
        let v = check_shared_counter("t.rs", bad);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.lint == Lint::SharedCounter));

        let good = "struct S {\n    counts: ukstats::CounterSet,\n    \
                    // ukcheck: allow(shared-counter) -- the wire thread also drops frames\n    \
                    drops: ukstats::Counter,\n    lat: ukstats::Histogram,\n}";
        assert!(check_shared_counter("t.rs", good).is_empty());
        assert!(check_source("t.rs", good, true, true).is_empty(), "a well-formed escape");
    }

    #[test]
    fn unused_pub_reads_the_item_name_past_its_modifiers() {
        let src = "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\npub const C: u8 = 0;\n\
                   pub struct D { pub e: u8 }\npub(crate) fn f() {}\npub use g::*;\n\
                   #[cfg(test)]\npub fn h() {}\n\
                   // ukcheck: allow(unused-pub) -- returned by a public fn\npub enum I {}";
        let named = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
        let v = check_unused_pub("t.rs", src, &named(&["a", "D"]));
        let lines: Vec<u32> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, [2, 3], "b and C; fields, restricted, re-exports, tests, escapes pass: {v:?}");
        assert!(v[0].msg.starts_with("`pub fn b`") && v[1].msg.starts_with("`pub const C`"));
        assert!(check_unused_pub("t.rs", src, &named(&["a", "b", "C", "D"])).is_empty());
    }

    #[test]
    fn build_profile_wants_exactly_the_listed_keys() {
        let want = [("lto", "\"fat\""), ("codegen-units", "1")];
        let flags = ("target.t", "[\"-C\", \"x=y\"]");
        let lines = |src: &str| {
            let src = format!("{src}[target.t]\nrustflags = [\"-C\", \"x=y\"] # why\n");
            let v = check_profile_config("c.toml", Some(&src), &want, flags);
            assert!(v.iter().all(|v| v.lint == Lint::BuildProfile));
            v.iter().map(|v| v.line).collect::<Vec<_>>()
        };
        let good = "# why\n[profile.release]\nlto = \"fat\" # whole program\ncodegen-units = 1\n\n[build]\njobs = 2\n";
        assert!(lines(good).is_empty(), "comments and other tables are not the profile's business");
        assert_eq!(check_profile_config("c.toml", None, &want, flags).len(), 1, "missing file");
        assert_eq!(lines("[profile.release]\nlto = \"thin\"\ncodegen-units = 1\n"), [2], "wrong value");
        assert_eq!(lines("[profile.release]\nlto = \"fat\"\n"), [1], "missing key");
        assert_eq!(lines(&format!("{good}[profile.release]\nlto = \"fat\"\n")), [9], "twice");
        assert_eq!(lines("[profile.release]\nlto = \"fat\"\ncodegen-units = 1\ndebug = 1\n"), [4], "extra");
        assert_eq!(lines("[profile.dev]\nlto = \"fat\"\ncodegen-units = 1\n"), [1, 1], "wrong table");
        let sub = "[profile.release]\nlto = \"fat\"\ncodegen-units = 1\n[profile.release.package.x]\nopt-level = 3\n";
        assert_eq!(lines(sub), [4], "a sub-table is one more setting");

        let build = "[build]\nrustflags = [\"-C\", \"x=y\"]\n";
        assert_eq!(lines(&format!("{good}{build}")), [9], "[build] rustflags are a second place");
        let other = "[target.u]\nrustflags = []\n";
        assert_eq!(lines(&format!("{good}{other}")), [9], "cargo joins a second target's flags");
        assert_eq!(lines(&format!("{good}[target.t]\nrustflags = []\n")), [9, 11], "wrong, then twice");
        let bare = check_profile_config("c.toml", Some(good), &want, flags);
        assert_eq!(bare.iter().map(|v| v.line).collect::<Vec<_>>(), [1], "missing flags");
        assert!(bare[0].msg.contains("`[target.t]` lacks `rustflags"), "{}", bare[0].msg);

        let dev = "[package]\nname = \"x\"\n[profile.dev.package.x]\nopt-level = 2\n";
        assert!(check_manifest_profile("Cargo.toml", dev).is_empty(), "not the image's profile");
        let v = check_manifest_profile("Cargo.toml", "[package]\n[profile.release]\ndebug = true\n");
        assert_eq!(v.iter().map(|v| (v.line, v.lint)).collect::<Vec<_>>(), [(2, Lint::BuildProfile)]);
    }

    #[test]
    fn build_profile_wants_every_image_flag() {
        let pinned = crate::manifest::STATIC_RUSTFLAGS;
        let (table, flags) = pinned;
        let want = [("lto", "\"fat\"")];
        let check = |v: &str| {
            let src = format!("[profile.release]\nlto = \"fat\"\n[{table}]\nrustflags = {v}\n");
            check_profile_config("c.toml", Some(&src), &want, pinned)
        };
        assert!(check(flags).is_empty());
        for dropped in [
            "\"-C\", \"target-feature=+crt-static\"",
            "\"-C\", \"link-arg=-Wl,-z,max-page-size=65536\"",
            "\"-C\", \"link-arg=-Wl,-z,pack-relative-relocs\"",
        ] {
            let v = flags.replace(&format!("{dropped}, "), "").replace(&format!(", {dropped}"), "");
            assert_ne!(v, flags, "{dropped} is not in the pinned flags");
            let out = check(&v);
            assert_eq!(out.iter().map(|v| v.line).collect::<Vec<_>>(), [4], "without {dropped}");
        }
    }

    #[test]
    fn relaxed_only_crates_reject_acquire() {
        let src = "fn f() { X.load(Ordering::Acquire); }";
        assert!(check_source("t.rs", src, false, false).is_empty());
        let v = check_source("t.rs", src, false, true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::Atomics);
    }
}
