//! std's stack-overflow report holds with the image's
//! `pthread_getattr_np` (`ukplat`'s, not glibc's): std places each
//! thread's guard from that call, and its `SIGSEGV` handler names an
//! overflow only for a fault inside the guard. A wrong answer turns the
//! report into a bare `SIGSEGV` (the main thread), or a panic "there
//! is no guard page" when a thread starts (a spawned one).
//!
//! Each case runs in a child process, this binary again with one
//! argument: `overflow-main` recurses on the main thread, before any
//! other thread exists, `overflow-thread` on a spawned one. Each must
//! abort with std's "has overflowed its stack".

use std::os::unix::process::ExitStatusExt;
use std::process::Command;

// The function under test comes from the platform layer, as in every
// image.
extern crate ukplat;

const SIGABRT: i32 = 6;

/// Recurses until the stack runs out, a page of locals per call.
fn recurse(depth: u64) -> u64 {
    let pad = std::hint::black_box([depth; 512]);
    if pad[0] == u64::MAX {
        return 0;
    }
    pad[1] + recurse(depth + 1)
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("overflow-main") => {
            recurse(0);
        }
        Some("overflow-thread") => {
            let _ = std::thread::spawn(|| recurse(0)).join();
        }
        _ => {
            let exe = std::env::current_exe().expect("the test's own path");
            for case in ["overflow-main", "overflow-thread"] {
                let out = Command::new(&exe).arg(case).output().expect("running the child");
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(
                    out.status.signal(),
                    Some(SIGABRT),
                    "{case}: std's handler aborts on a guard hit; the child ended {:?}:\n{stderr}",
                    out.status
                );
                assert!(
                    stderr.contains("has overflowed its stack"),
                    "{case}: no overflow report:\n{stderr}"
                );
                println!("{case}: {}", stderr.lines().find(|l| !l.is_empty()).unwrap_or(""));
            }
        }
    }
}
