//! Fixture corpus driven through the `ukcheck` binary itself: every
//! known-bad snippet must exit 1 naming the expected lint, every
//! known-good snippet must exit 0 — so the exit-code contract `make
//! lint` relies on is itself under test.

use std::path::PathBuf;
use std::process::Command;

fn fixture(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

/// Runs the built binary with `args`, returning (exit code, stdout).
fn run(args: &[&std::ffi::OsStr]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ukcheck"))
        .args(args)
        .output()
        .expect("spawn ukcheck");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Scans one fixture as a hot-path file.
fn run_hot(rel: &str) -> (i32, String) {
    run(&["--files".as_ref(), fixture(rel).as_ref(), "--hot".as_ref()])
}

/// Scans a fixture workspace.
fn run_root(rel: &str) -> (i32, String) {
    run(&["--root".as_ref(), fixture(rel).as_ref()])
}

#[test]
fn bad_fixtures_fail_with_the_expected_lint() {
    // (fixture, lint tag that must appear, minimum violation count)
    let cases = [
        ("bad/alloc_ctor.rs", "[alloc]", 1),
        ("bad/alloc_macro.rs", "[alloc]", 2),
        ("bad/alloc_method.rs", "[alloc]", 2),
        ("bad/panic_unwrap.rs", "[panic]", 2),
        ("bad/panic_macro.rs", "[panic]", 1),
        ("bad/unsafe_bare.rs", "[unsafe]", 1),
        ("bad/seqcst.rs", "[atomics]", 1),
        ("bad/escape_unjustified.rs", "[escape]", 1),
        ("bad/shared_counter.rs", "[shared-counter]", 4),
    ];
    for (rel, tag, min) in cases {
        let (code, stdout) = run_hot(rel);
        assert_eq!(code, 1, "{rel} should exit 1; output:\n{stdout}");
        let hits = stdout.matches(tag).count();
        assert!(
            hits >= min,
            "{rel}: wanted >= {min} {tag} findings, got {hits}:\n{stdout}"
        );
    }
}

#[test]
fn good_fixtures_pass_clean() {
    for rel in [
        "good/clean.rs",
        "good/escaped.rs",
        "good/safety.rs",
        "good/test_code.rs",
        "good/tricky_lexing.rs",
    ] {
        let (code, stdout) = run_hot(rel);
        assert_eq!(code, 0, "{rel} should exit 0; output:\n{stdout}");
    }
}

#[test]
fn size_lint_counts_non_test_lines_against_the_budget() {
    let src = std::fs::read_to_string(fixture("good/test_code.rs")).expect("fixture");
    // Five lines of shipped code and the blank one after them; the
    // `#[cfg(test)]` module — attribute to closing brace — is free.
    let lines = ukcheck::non_test_lines(&src);
    assert_eq!(lines, 6);
    assert!(ukcheck::check_size("f.rs", &src, lines).is_none(), "at budget is within budget");
    let over = ukcheck::check_size("f.rs", &src, lines - 2).expect("two lines too many");
    let text = over.to_string();
    assert!(text.starts_with("f.rs:1: [size] 2 lines over budget"), "{text}");
    assert!(text.contains("raise the budget in the same PR with a reason"), "{text}");
}

/// A `SIZE_BUDGETS` entry ending in `/` holds every file under the
/// directory to the budget, and the same directory in `HOT_DIRS` makes
/// each of them hot — except an out-of-line test module, which an inner
/// `#![cfg(test)]` takes out of both.
#[test]
fn a_directory_budget_holds_each_file_under_it() {
    assert_eq!(ukcheck::manifest::size_budget("crates/uknetstack/src/tcp/rto.rs"), Some(600));
    assert_eq!(ukcheck::manifest::size_budget("crates/uknetstack/src/stack/ingest.rs"), Some(600));
    assert_eq!(ukcheck::manifest::size_budget("crates/uknetstack/src/testnet/forge.rs"), Some(400));
    assert_eq!(ukcheck::manifest::size_budget("crates/uknetstack/src/stack.rs"), None);
    assert_eq!(ukcheck::manifest::size_budget("crates/uknetstack/src/tcp.rs"), None);
    assert!(ukcheck::manifest::is_hot("crates/uknetstack/src/tcp/tests.rs"));
    assert!(ukcheck::manifest::is_hot("crates/uknetstack/src/stack/gro.rs"));
    assert!(ukcheck::manifest::is_hot("crates/uknetstack/src/arp.rs"));
    assert!(ukcheck::manifest::is_single_writer("crates/uknetstack/src/stack/stats.rs"));
    assert!(ukcheck::manifest::is_single_writer("crates/uknetdev/src/virtio.rs"));
    assert!(!ukcheck::manifest::is_single_writer("crates/uknetstack/src/arp.rs"));

    let (code, stdout) = run_root("good/size_prefix");
    assert_eq!(code, 0, "within budget, tests exempt; output:\n{stdout}");
    let tests = fixture("good/size_prefix/crates/uknetstack/src/tcp/tests.rs");
    let src = std::fs::read_to_string(tests).expect("fixture");
    assert_eq!(ukcheck::non_test_lines(&src), 3, "only the module doc is not test code");

    let (code, stdout) = run_root("bad/size_prefix");
    assert_eq!(code, 1, "output:\n{stdout}");
    assert!(
        stdout.contains(
            "crates/uknetstack/src/tcp/over.rs:1: [size] 1 lines over budget \
             (601 non-test lines, budget 600)"
        ),
        "{stdout}"
    );
    assert_eq!(stdout.matches('[').count(), 1, "nothing else fires:\n{stdout}");
}

/// `unused-pub`: in every library crate's `src/` a plain `pub` item must
/// be named by a file outside that `src/` — another crate or the crate's
/// own `tests/` counts, a sibling module does not — and a crate that
/// builds a binary is exempt.
#[test]
fn a_pub_item_nobody_outside_names_is_reported() {
    let (code, stdout) = run_root("good/unused_pub");
    assert_eq!(
        code, 0,
        "named outside or by the crate's own tests, restricted, escaped, or in a binary's \
         library; output:\n{stdout}"
    );

    let (code, stdout) = run_root("bad/unused_pub");
    assert_eq!(code, 1, "output:\n{stdout}");
    let at = "crates/uknetstack/src/stack/part.rs";
    assert!(stdout.contains(&format!("{at}:9: [unused-pub] `pub fn orphan`")), "{stdout}");
    assert!(stdout.contains(&format!("{at}:13: [unused-pub] `pub const ORPHAN_CAP`")), "{stdout}");
    assert!(stdout.contains("crates/ukvfs/src/lib.rs:3: [unused-pub] `pub fn unmount`"), "{stdout}");
    assert!(stdout.contains("make it `pub(super)`/`pub(crate)`, or delete it"), "{stdout}");
    assert_eq!(stdout.matches('[').count(), 3, "`used` passes, nothing else fires:\n{stdout}");
}

/// `unused-dep`: each `[dependencies]` entry of a `crates/*` manifest,
/// in either table form, is named by a file in that crate's `src/`.
#[test]
fn a_dependency_nothing_names_is_reported() {
    let (code, stdout) = run_root("bad/unused_dep");
    assert_eq!(code, 1, "output:\n{stdout}");
    let at = "crates/app/Cargo.toml";
    assert!(stdout.contains(&format!("{at}:11: [unused-dep] dependency `uklock`")), "{stdout}");
    assert!(stdout.contains(&format!("{at}:13: [unused-dep] dependency `ukvfs`")), "{stdout}");
    assert_eq!(stdout.matches('[').count(), 2, "named ones and dev-dependencies pass:\n{stdout}");
}

/// `unreached-crate`: every library crate among the root's `[workspace]
/// members` under `crates/` is reached through `[dependencies]` from a
/// package that builds a binary (`src/main.rs`, `src/bin/`, `[[bin]]`),
/// from `benchmark/`, or from an example through a facade alias; tests,
/// dev-dependencies and a non-facade path do not count.
#[test]
fn a_library_crate_nothing_runs_is_reported() {
    let (code, stdout) = run_root("good/unreached_crate");
    assert_eq!(
        code, 0,
        "three binary forms, transitive and table-form edges, benchmark/, facade aliases in a \
         `use` and in a path; output:\n{stdout}"
    );

    let (code, stdout) = run_root("bad/unreached_crate");
    assert_eq!(code, 1, "output:\n{stdout}");
    for name in ["lock", "only", "orphan"] {
        let want = format!(
            "crates/{name}/Cargo.toml:1: [unreached-crate] library crate `{name}` is reached by \
             no binary"
        );
        assert!(stdout.contains(&want), "missing `{want}` in:\n{stdout}");
    }
    assert!(stdout.contains("ukcheck: 3 violation(s)"), "nothing else fires:\n{stdout}");
}

/// `build-profile`: a root with a manifest keeps its release profile in
/// `.cargo/config.toml` — exactly `RELEASE_PROFILE`, and the one
/// `STATIC_RUSTFLAGS` line in its target table — and in no
/// `Cargo.toml`.
#[test]
fn the_release_profile_is_pinned_in_one_file() {
    let (code, stdout) = run_root("good/build_profile");
    assert_eq!(
        code, 0,
        "three keys, the rustflags line, comments, another table, a dev profile; output:\n{stdout}"
    );

    let (code, stdout) = run_root("bad/build_profile");
    assert_eq!(code, 1, "output:\n{stdout}");
    let flags = r#"["-C", "target-feature=+crt-static", "-C", "link-arg=-Wl,-z,max-page-size=65536", "-C", "link-arg=-Wl,-z,pack-relative-relocs"]"#;
    for want in [
        ".cargo/config.toml:5: [build-profile] `lto = \"thin\"`: want `lto = \"fat\"`, once".to_string(),
        ".cargo/config.toml:7: [build-profile] `debug`: a setting beyond the release profile".to_string(),
        ".cargo/config.toml:1: [build-profile] `[profile.release]` lacks `panic = \"abort\"`".to_string(),
        ".cargo/config.toml:10: [build-profile] `rustflags` in `[build]`: the image's flags live in \
         `[target.x86_64-unknown-linux-gnu]` only"
            .to_string(),
        format!(
            ".cargo/config.toml:1: [build-profile] `[target.x86_64-unknown-linux-gnu]` lacks \
             `rustflags = {flags}`"
        ),
        "crates/app/Cargo.toml:6: [build-profile] `[profile.release.package.app]` in a manifest".to_string(),
    ] {
        assert!(stdout.contains(&want), "missing `{want}` in:\n{stdout}");
    }
    assert!(stdout.contains("ukcheck: 6 violation(s)"), "nothing else fires:\n{stdout}");
}

#[test]
fn missing_file_is_a_usage_error_not_a_pass() {
    let (code, _) = run_hot("no/such/file.rs");
    assert_eq!(code, 2, "IO failures must be distinguishable from clean runs");
}
