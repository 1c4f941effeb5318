//! The image carries its own libc: every binary the tree builds is a
//! self-contained `static-pie` (`.cargo/config.toml`'s
//! `[target.x86_64-unknown-linux-gnu] rustflags`), and this test binary
//! is built with the same flags. A `RUSTFLAGS` in the environment
//! replaces the config's rustflags without a word — the build then
//! loads `libc.so.6` through `ld-linux` again and every workload's
//! resident set grows by ≈ 0.8 MiB — so these two checks fail instead.

#[test]
#[allow(clippy::assertions_on_constants, reason = "the constant is what the build was told")]
fn built_with_the_static_libc() {
    assert!(
        cfg!(target_feature = "crt-static"),
        "built without `+crt-static`: does a RUSTFLAGS in the environment override \
         .cargo/config.toml's target rustflags?"
    );
}

#[test]
fn no_shared_object_is_mapped() {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("reading /proc/self/maps");
    let shared: Vec<&str> = maps
        .lines()
        .filter_map(|l| l.split_whitespace().nth(5))
        .filter(|path| path.ends_with(".so") || path.contains(".so."))
        .collect();
    assert!(shared.is_empty(), "a static image maps no shared object, this one maps {shared:?}");
}
