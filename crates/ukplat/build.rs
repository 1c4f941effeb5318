//! Links every image that uses the platform layer with `link/hot.ld`.
//!
//! In Unikraft the platform library owns the image's linker script
//! (`plat/kvm/x86/link64.lds.S`); here `ukplat` owns the one fragment
//! the images add to the linker's default layout. `hot.ld` is
//! `SECTIONS { .text.hot : { … } } INSERT BEFORE .text;`: the
//! functions the workloads execute, packed into one `.text.hot` ahead of
//! the code they never run, so the pages a run faults in (the kernel
//! maps a 64 KiB window around each fault) hold code it uses.
//! `make hot-text` rewrites the list from traces of the workloads.
//!
//! The fragment is passed as a native library: `-bundle` keeps it out
//! of this crate's rlib, so it reaches the link of every binary that
//! depends on `ukplat`, and `+verbatim` names the file itself. LLD (and
//! GNU ld) read an input file that is not an object or an archive as a
//! linker script. Neither `benchmark/` nor `.cargo/config.toml` changes.

use std::path::Path;

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("link");
    println!("cargo:rerun-if-changed=link/hot.ld");
    println!("cargo:rustc-link-search=native={}", dir.display());
    println!("cargo:rustc-link-lib=static:-bundle,+verbatim=hot.ld");
}
