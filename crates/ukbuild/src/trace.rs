//! Which functions a program runs: a `ptrace` tracer that puts an
//! `int3` on every function entry and records each one's first hit.
//!
//! The profile behind `.text.hot` (Pettis & Hansen's code positioning,
//! with function-entry traces instead of a PMU). Each breakpoint fires
//! once: on the hit the original byte goes back and the program runs on
//! at full speed, so a traced run costs one stop per distinct function,
//! not per call. The text is patched through `/proc/<pid>/mem` (a
//! tracer may write a tracee's read-only pages there); only the
//! `ptrace` requests and `waitpid` go through `extern "C"` to glibc.
//! x86-64 Linux only.
//!
//! The same run also reports which pages of the image are resident when
//! it ends: at the `PTRACE_O_TRACEEXIT` stop the address space is still
//! whole, and the present bits of `/proc/<pid>/pagemap` say which pages
//! a fault (the program's own reads, or the kernel's on its behalf)
//! mapped. Present bits need no privilege (no PFN is read), and nothing
//! under `/proc` is written but the tracee's own memory.

use std::collections::{HashMap, HashSet};
use std::ffi::{c_int, c_long, c_void};
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::elf::{Elf, PT_LOAD};

extern "C" {
    fn ptrace(request: c_int, ...) -> c_long;
    fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
}

const PTRACE_TRACEME: c_int = 0;
const PTRACE_CONT: c_int = 7;
const PTRACE_GETREGS: c_int = 12;
const PTRACE_SETREGS: c_int = 13;
const PTRACE_SETOPTIONS: c_int = 0x4200;
const PTRACE_O_TRACECLONE: c_long = 8;
const PTRACE_O_TRACEEXIT: c_long = 0x40;
const PTRACE_O_EXITKILL: c_long = 0x10_0000;
const PTRACE_EVENT_EXIT: c_int = 6;
/// `/proc/<pid>/pagemap`: one 8-byte entry per 4 KiB page, bit 63 set
/// when the page is present.
const PAGE: u64 = 4096;
const PM_PRESENT: u64 = 1 << 63;
const WALL: c_int = 0x4000_0000;
const SIGTRAP: c_int = 5;
const SIGSTOP: c_int = 19;
const INT3: u8 = 0xcc;
/// Index of `rip` in the kernel's x86-64 `user_regs_struct`.
const RIP: usize = 16;

/// The kernel's x86-64 `struct user_regs_struct`: 27 eight-byte words.
#[repr(C)]
struct Regs([u64; 27]);

/// A traced run's result.
#[derive(Debug)]
pub struct Trace {
    /// Indices into the image's [`Elf::functions`] (one per address,
    /// the first alias), in the order they first ran.
    pub hits: Vec<usize>,
    /// The image's pages present when the program exited, by link-time
    /// address (the load bias taken off), ascending.
    pub resident: Vec<u64>,
    /// The program's exit status (128 + signal if a signal ended it).
    pub status: i32,
}

fn os_err(what: &str) -> String {
    format!("{what}: {}", io::Error::last_os_error())
}

/// `ptrace(request, pid, addr, data)` with integer `addr`/`data`.
fn request(req: c_int, pid: c_int, addr: usize, data: c_long) -> Result<c_long, String> {
    // SAFETY: the requests this module issues (CONT, SETOPTIONS) take
    // integer arguments and touch no memory of this process.
    let r = unsafe { ptrace(req, pid, addr as *mut c_void, data as *mut c_void) };
    if r == -1 {
        Err(os_err("ptrace"))
    } else {
        Ok(r)
    }
}

fn regs(req: c_int, tid: c_int, regs: &mut Regs) -> Result<(), String> {
    let p: *mut Regs = regs;
    // SAFETY: GETREGS writes and SETREGS reads one `user_regs_struct`,
    // which `Regs` matches in size and layout; `p` is a live exclusive
    // borrow for the duration of the call.
    let r = unsafe { ptrace(req, tid, std::ptr::null_mut::<c_void>(), p.cast::<c_void>()) };
    if r == -1 {
        Err(os_err("ptrace(GETREGS/SETREGS)"))
    } else {
        Ok(())
    }
}

/// Waits for any traced thread: `(tid, status)`.
fn wait_any() -> Result<(c_int, c_int), String> {
    let mut status: c_int = 0;
    // SAFETY: `status` is a valid, writable `int` for the call.
    let tid = unsafe { waitpid(-1, &mut status, WALL) };
    if tid == -1 {
        Err(os_err("waitpid"))
    } else {
        Ok((tid, status))
    }
}

/// The address the image was loaded at minus its link-time address:
/// the start of the first mapping of `exe` at file offset 0, less the
/// page of its lowest `PT_LOAD`.
fn load_bias(pid: c_int, elf: &Elf, exe: &Path) -> Result<u64, String> {
    if !elf.is_pie() {
        return Ok(0);
    }
    let maps = std::fs::read_to_string(format!("/proc/{pid}/maps"))
        .map_err(|e| format!("/proc/{pid}/maps: {e}"))?;
    let exe = exe.canonicalize().map_err(|e| format!("{}: {e}", exe.display()))?;
    let start = maps
        .lines()
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let hit =
                f.len() >= 6 && f[2].trim_start_matches('0').is_empty() && Path::new(f[5]) == exe;
            hit.then(|| f[0].split('-').next().and_then(|a| u64::from_str_radix(a, 16).ok()))
                .flatten()
        })
        .ok_or_else(|| format!("{} is not mapped in /proc/{pid}/maps", exe.display()))?;
    let low =
        elf.segments().iter().filter(|s| s.kind == PT_LOAD).map(|s| s.vaddr).min().unwrap_or(0);
    Ok(start - (low & !0xfff))
}

/// The pages of the image at `exe` that `pid` has present, by link-time
/// address: every mapping of the file, less `bias`.
fn resident_pages(pid: c_int, exe: &Path, bias: u64) -> Result<Vec<u64>, String> {
    let maps = std::fs::read_to_string(format!("/proc/{pid}/maps"))
        .map_err(|e| format!("/proc/{pid}/maps: {e}"))?;
    let pagemap = File::open(format!("/proc/{pid}/pagemap"))
        .map_err(|e| format!("/proc/{pid}/pagemap: {e}"))?;
    let exe = exe.canonicalize().map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut pages = Vec::new();
    for l in maps.lines() {
        let f: Vec<&str> = l.split_whitespace().collect();
        if f.len() < 6 || Path::new(f[5]) != exe {
            continue;
        }
        let range = f[0].split_once('-').and_then(|(a, b)| {
            Some((u64::from_str_radix(a, 16).ok()?, u64::from_str_radix(b, 16).ok()?))
        });
        let Some((lo, hi)) = range else { continue };
        let mut entries = vec![0u8; ((hi - lo) / PAGE * 8) as usize];
        pagemap
            .read_exact_at(&mut entries, lo / PAGE * 8)
            .map_err(|e| format!("/proc/{pid}/pagemap at {lo:#x}: {e}"))?;
        for (i, e) in entries.chunks_exact(8).enumerate() {
            let word = u64::from_le_bytes(e.try_into().expect("an 8-byte chunk"));
            if word & PM_PRESENT != 0 {
                pages.push(lo + i as u64 * PAGE - bias);
            }
        }
    }
    pages.sort_unstable();
    Ok(pages)
}

/// Runs `exe args…` (stdout discarded) under the tracer and returns the
/// functions of `elf` — the image at `exe` — it entered, in first-hit
/// order, and the image's pages resident when it exited.
pub fn first_hits(elf: &Elf, exe: &Path, args: &[String]) -> Result<Trace, String> {
    let mut cmd = Command::new(exe);
    cmd.args(args).stdout(Stdio::null());
    // SAFETY: the hook runs in the forked child before `exec` and only
    // makes the `ptrace(PTRACE_TRACEME)` system call, which allocates
    // nothing and takes no lock.
    unsafe {
        cmd.pre_exec(|| {
            if ptrace(PTRACE_TRACEME, 0, 0usize, 0usize) == -1 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        });
    }
    let child = cmd.spawn().map_err(|e| format!("{}: {e}", exe.display()))?;
    let pid = child.id() as c_int;
    // The child stops with SIGTRAP once `exec` has replaced it.
    let (_, status) = wait_any()?;
    if status & 0xff != 0x7f {
        return Err(format!("{}: ended before it could be traced", exe.display()));
    }
    request(
        PTRACE_SETOPTIONS,
        pid,
        0,
        PTRACE_O_EXITKILL | PTRACE_O_TRACECLONE | PTRACE_O_TRACEEXIT,
    )?;

    let bias = load_bias(pid, elf, exe)?;
    let mem = File::options()
        .read(true)
        .write(true)
        .open(format!("/proc/{pid}/mem"))
        .map_err(|e| format!("/proc/{pid}/mem: {e}"))?;
    // One breakpoint per entry address (the first alias names it).
    let mut armed: HashMap<u64, (usize, u8)> = HashMap::new();
    for (i, f) in elf.functions().iter().enumerate() {
        let at = f.addr + bias;
        if armed.contains_key(&at) {
            continue;
        }
        let mut orig = [0u8];
        mem.read_exact_at(&mut orig, at).map_err(|e| format!("reading {at:#x}: {e}"))?;
        mem.write_all_at(&[INT3], at).map_err(|e| format!("patching {at:#x}: {e}"))?;
        armed.insert(at, (i, orig[0]));
    }
    let mut fired = HashSet::new();
    let mut hits = Vec::new();
    let mut resident = Vec::new();
    request(PTRACE_CONT, pid, 0, 0)?;
    loop {
        let (tid, status) = wait_any()?;
        let stopped = status & 0xff == 0x7f;
        if !stopped {
            if tid == pid {
                let code =
                    if status & 0x7f == 0 { (status >> 8) & 0xff } else { 128 + (status & 0x7f) };
                return Ok(Trace { hits, resident, status: code });
            }
            continue; // another thread ended
        }
        let sig = (status >> 8) & 0xff;
        let event = status >> 16;
        let mut deliver = 0;
        if sig == SIGTRAP && event == PTRACE_EVENT_EXIT && tid == pid {
            resident = resident_pages(pid, exe, bias)?;
        } else if sig == SIGTRAP && event == 0 {
            let mut r = Regs([0; 27]);
            regs(PTRACE_GETREGS, tid, &mut r)?;
            let at = r.0[RIP].wrapping_sub(1);
            if let Some((i, orig)) = armed.remove(&at) {
                mem.write_all_at(&[orig], at).map_err(|e| format!("restoring {at:#x}: {e}"))?;
                hits.push(i);
                fired.insert(at);
            }
            if fired.contains(&at) {
                // Back to the entry, which now holds its own byte again
                // (a second thread may trap on it before the restore).
                r.0[RIP] = at;
                regs(PTRACE_SETREGS, tid, &mut r)?;
            } else {
                deliver = SIGTRAP;
            }
        } else if sig != SIGTRAP && sig != SIGSTOP {
            deliver = sig;
        }
        request(PTRACE_CONT, tid, 0, deliver as c_long)?;
    }
}
