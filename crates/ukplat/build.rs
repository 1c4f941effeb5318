//! Links every image that uses the platform layer with `link/hot.ld`.
//!
//! In Unikraft the platform library owns the image's linker script
//! (`plat/kvm/x86/link64.lds.S`); here `ukplat` owns the one fragment
//! the images add to the linker's default layout. `hot.ld` is two
//! blocks, each placed by an `INSERT`:
//!
//! - `SECTIONS { .rodata.hot : { … } } INSERT BEFORE .gcc_except_table;`
//!   the read-only input sections the workloads read, packed right
//!   after the ELF headers and relocation tables, so that the one
//!   64 KiB window those already fault in holds the constants a run
//!   reads and the rest of the read-only segment stays on disk;
//! - `SECTIONS { .text.hot : { … } } INSERT BEFORE .text;` the
//!   functions the workloads execute, packed into one `.text.hot` ahead
//!   of the code they never run, so the pages a run faults in (the
//!   kernel maps a 64 KiB window around each fault) hold code it uses.
//!
//! `make hot-text` rewrites both from traces of the workloads: the
//! code from function-entry traces, the constants from a probe image
//! linked with `UKPLAT_HOT_LD` (a script that gives every read-only
//! input section a window of its own) in place of `hot.ld`.
//!
//! The fragment is passed as a native library: `-bundle` keeps it out
//! of this crate's rlib, so it reaches the link of every binary that
//! depends on `ukplat`, and `+verbatim` names the file itself. LLD (and
//! GNU ld) read an input file that is not an object or an archive as a
//! linker script. Neither `benchmark/` nor `.cargo/config.toml` changes.

use std::path::{Path, PathBuf};

fn main() {
    println!("cargo:rerun-if-env-changed=UKPLAT_HOT_LD");
    let script = match std::env::var_os("UKPLAT_HOT_LD") {
        Some(p) => PathBuf::from(p),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("link/hot.ld"),
    };
    let (Some(dir), Some(name)) = (script.parent(), script.file_name()) else {
        panic!("UKPLAT_HOT_LD: {} names no file", script.display());
    };
    println!("cargo:rerun-if-changed={}", script.display());
    println!("cargo:rustc-link-search=native={}", dir.display());
    println!("cargo:rustc-link-lib=static:-bundle,+verbatim={}", name.to_string_lossy());
}
