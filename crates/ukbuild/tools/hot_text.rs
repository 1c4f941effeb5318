//! `hot-text`: traces which functions an image runs and which of its
//! read-only sections it reads, and writes the `.rodata.hot` and
//! `.text.hot` linker-script fragment from those traces
//! (`crates/ukplat/link/hot.ld`, see `ukplat`'s `build.rs`).
//!
//! ```text
//! hot-text trace  [--lib A.a]… OUT -- PROGRAM [ARGS…]   patterns (and their bytes) for what PROGRAM runs
//! hot-text probe-script OUT                             the linker script of a read-only probe image
//! hot-text probe  --map MAP OUT -- PROBE [ARGS…]        patterns (and their bytes) for what PROBE reads
//! hot-text script OUT TRACE…                            the fragment, grouped by who ran (read) what
//! hot-text cover  [--min PCT] [--label L] -- PROGRAM [ARGS…]
//!                                                       bytes run, the share in .text.hot,
//!                                                       the 64 KiB windows they touch,
//!                                                       the read-only windows resident,
//!                                                       the bytes left in the one
//!                                                       .rodata.hot shares
//! hot-text size   [--lib A.a]… ELF…                     .text.hot / .text bytes by origin
//! ```
//!
//! `--lib` names a static library whose members a pattern may name
//! (`libc.a`: `cc -print-file-name=libc.a`). A probe image is one linked
//! with `probe-script`'s script in place of `hot.ld` (`UKPLAT_HOT_LD`)
//! and `-Wl,-Map=MAP`. A trace's file name is the source it ran:
//! `script` merges traces of one name (one per round, in different
//! directories) and tells a probe's reads from a code trace by its
//! header. `cover` fails below `--min` percent in `.text.hot`, above
//! `hot::MAX_EXTRA_WINDOWS` (2) windows more than ⌈bytes / 64 KiB⌉, or
//! above `rodata::MAX_WINDOWS` (1) resident windows of the read-only
//! segment at exit. `make hot-text`, `make verify-hot-text` and
//! `make image-size` drive it.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ukbuild::archive::Archive;
use ukbuild::elf::Elf;
use ukbuild::hot::{self, Origin};
use ukbuild::{linkmap, rodata, trace};

const USAGE: &str = "usage: hot-text trace [--lib A.a]... OUT -- PROGRAM [ARGS...]\n       \
                     hot-text probe-script OUT\n       \
                     hot-text probe --map MAP OUT -- PROBE [ARGS...]\n       \
                     hot-text script OUT TRACE...\n       \
                     hot-text cover [--min PCT] [--label L] -- PROGRAM [ARGS...]\n       \
                     hot-text size [--lib A.a]... ELF...";

/// The options before `--` (`--name value` pairs and plain words) and
/// the command after it.
struct Args {
    opts: Vec<(String, String)>,
    words: Vec<String>,
    command: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let split = args.iter().position(|a| a == "--").unwrap_or(args.len());
    let (head, tail) = args.split_at(split);
    let mut a = Args {
        opts: Vec::new(),
        words: Vec::new(),
        command: tail.iter().skip(1).cloned().collect(),
    };
    let mut it = head.iter();
    while let Some(w) = it.next() {
        if let Some(name) = w.strip_prefix("--") {
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            a.opts.push((name.to_string(), v.clone()));
        } else {
            a.words.push(w.clone());
        }
    }
    Ok(a)
}

impl Args {
    fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.opts.iter().filter(move |(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn one<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.all(name).last()
    }

    /// The `--lib` archives. A GNU ld script standing in
    /// for an archive (`libm.a`: `GROUP ( …/libm-2.36.a … )`) stands for
    /// the archives it names.
    fn libs(&self) -> Result<Vec<Archive>, String> {
        let mut out = Vec::new();
        for p in self.all("lib") {
            let bytes = std::fs::read(p).map_err(|e| format!("{p}: {e}"))?;
            if bytes.starts_with(b"/*")
                || bytes.starts_with(b"GROUP")
                || bytes.starts_with(b"INPUT")
            {
                let text = String::from_utf8_lossy(&bytes);
                for word in text.split(|c: char| c.is_whitespace() || c == '(' || c == ')') {
                    if word.ends_with(".a") && Path::new(word).is_file() {
                        out.push(Archive::read(Path::new(word))?);
                    }
                }
            } else {
                out.push(Archive::read(Path::new(p))?);
            }
        }
        Ok(out)
    }

    fn program(&self) -> Result<(PathBuf, Elf), String> {
        let exe = PathBuf::from(self.command.first().ok_or("no PROGRAM after `--`")?);
        let elf = Elf::read(&exe)?;
        if elf.functions().is_empty() {
            return Err(format!("{}: no function symbols (stripped?)", exe.display()));
        }
        Ok((exe, elf))
    }

    fn run(&self, exe: &Path, elf: &Elf) -> Result<trace::Trace, String> {
        let t = trace::first_hits(elf, exe, &self.command[1..])?;
        if t.status != 0 {
            return Err(format!(
                "{} {:?} exited with status {}",
                exe.display(),
                &self.command[1..],
                t.status
            ));
        }
        Ok(t)
    }
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_trace(a: &Args) -> Result<(), String> {
    let [out] = a.words.as_slice() else { return Err(USAGE.to_string()) };
    let (exe, elf) = a.program()?;
    let t = a.run(&exe, &elf)?;
    let bytes: u64 = t.hits.iter().map(|&h| elf.functions()[h].size).sum();
    let image = exe.file_name().map_or(String::new(), |n| n.to_string_lossy().into_owned());
    let trace = hot::Trace::new(&image, &elf, &t.hits, &a.libs()?);
    write(out, &trace.to_text())?;
    println!(
        "{out}: {} functions, {bytes} bytes run, {} patterns",
        t.hits.len(),
        trace.patterns.len()
    );
    Ok(())
}

fn cmd_probe_script(a: &Args) -> Result<(), String> {
    let [out] = a.words.as_slice() else { return Err(USAGE.to_string()) };
    write(out, &rodata::probe_script())
}

fn cmd_probe(a: &Args) -> Result<(), String> {
    let [out] = a.words.as_slice() else { return Err(USAGE.to_string()) };
    let map_path = a.one("map").ok_or("probe needs --map MAP")?;
    let map = std::fs::read_to_string(map_path).map_err(|e| format!("{map_path}: {e}"))?;
    let map = linkmap::input_sections(&map).map_err(|e| format!("{map_path}: {e}"))?;
    let (exe, elf) = a.program()?;
    let t = a.run(&exe, &elf)?;
    let image = exe.file_name().map_or(String::new(), |n| n.to_string_lossy().into_owned());
    let windows = rodata::resident_windows(&elf, &t.resident);
    let (reads, outside) = rodata::reads(&image, &map, &windows);
    write(out, &reads.to_text())?;
    let bytes: u64 = reads.patterns.iter().map(|(b, _)| b).sum();
    println!("{out}: {} read-only patterns read, {bytes} B", reads.patterns.len());
    for w in outside {
        let at = w * hot::WINDOW;
        let sec = elf
            .sections()
            .iter()
            .find(|s| s.size > 0 && s.addr < at + hot::WINDOW && at < s.addr + s.size);
        let name = sec.map_or("?", |s| s.name.as_str());
        println!("    read outside any probed section: the window at {at:#x} ({name})");
    }
    Ok(())
}

fn cmd_script(a: &Args) -> Result<(), String> {
    let [out, traces @ ..] = a.words.as_slice() else { return Err(USAGE.to_string()) };
    if traces.is_empty() {
        return Err(USAGE.to_string());
    }
    let traces = traces
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            let source =
                Path::new(p).file_name().map_or(p.clone(), |n| n.to_string_lossy().into_owned());
            Ok((source, hot::Trace::parse(&text).map_err(|e| format!("{p}: {e}"))?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let script = hot::script(&traces)?;
    write(out, &script)?;
    for rodata in [false, true] {
        let of_kind = traces.iter().filter(|(_, t)| t.rodata == rodata);
        let patterns: HashSet<&String> =
            of_kind.clone().flat_map(|(_, t)| t.patterns.iter().map(|(_, p)| p)).collect();
        let kind = if rodata { "read-only" } else { "code" };
        println!("{out}: {} {kind} patterns from {} traces", patterns.len(), of_kind.count());
    }
    Ok(())
}

fn cmd_cover(a: &Args) -> Result<bool, String> {
    let min: f64 = a.one("min").unwrap_or("0").parse().map_err(|_| "--min: not a number")?;
    let (exe, elf) = a.program()?;
    let label = a.one("label").map_or_else(|| exe.display().to_string(), str::to_string);
    let t = a.run(&exe, &elf)?;
    let (c, missed) = hot::coverage(&elf, &t.hits);
    let packed = c.hot_pct() >= min;
    let tight = c.tight();
    let ro = rodata::resident_windows(&elf, &t.resident).len();
    let ro_ok = ro <= rodata::MAX_WINDOWS;
    let left = match rodata::headroom(&elf) {
        Some(b) if b >= 0 => format!("{b} B left in its window"),
        Some(b) => format!("{} B past its window", -b),
        None => "no .rodata.hot".to_string(),
    };
    println!(
        "{label:<12} {:>5} functions {:>8} B run, {:>8} B in .text.hot: {:6.2} % {}; \
         {:>2} windows of 64 KiB, floor {:>2} {}; read-only {ro} {} ({left})",
        c.functions,
        c.bytes,
        c.hot_bytes,
        c.hot_pct(),
        if packed { "ok" } else { "BELOW" },
        c.windows,
        c.floor(),
        if tight { "ok" } else { "ABOVE" },
        if ro_ok { "ok" } else { "ABOVE" }
    );
    if !packed {
        for f in missed.iter().take(10) {
            println!("    outside .text.hot: {:>6} B {}", f.size, f.name);
        }
    }
    Ok(packed && tight && ro_ok)
}

fn cmd_size(a: &Args) -> Result<(), String> {
    let libs = a.libs()?;
    print!("{:<24} {:<10} {:>9}", "image", "section", "bytes");
    for o in Origin::ALL {
        print!(" {:>10}", o.label());
    }
    println!(" {:>10}", "padding");
    for path in &a.words {
        let elf = Elf::read(Path::new(path))?;
        if elf.functions().is_empty() {
            return Err(format!("{path}: no function symbols (stripped?)"));
        }
        let origins = hot::origins(&elf, &libs);
        let name =
            Path::new(path).file_name().map_or(path.clone(), |n| n.to_string_lossy().into_owned());
        for sec in [".text.hot", ".text"] {
            let Some(s) = elf.section(sec) else {
                println!("{name:<24} {sec:<10} {:>9}", "(none)");
                continue;
            };
            let mut by = [0u64; Origin::ALL.len()];
            for (f, o) in &origins {
                if s.contains(f.addr) {
                    by[*o as usize] += f.size;
                }
            }
            print!("{name:<24} {sec:<10} {:>9}", s.size);
            for b in by {
                print!(" {b:>10}");
            }
            println!(" {:>10}", s.size.saturating_sub(by.iter().sum()));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = parse(rest).and_then(|a| match sub.as_str() {
        "trace" => cmd_trace(&a).map(|()| true),
        "script" => cmd_script(&a).map(|()| true),
        "probe-script" => cmd_probe_script(&a).map(|()| true),
        "probe" => cmd_probe(&a).map(|()| true),
        "cover" => cmd_cover(&a),
        "size" => cmd_size(&a).map(|()| true),
        _ => Err(USAGE.to_string()),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hot-text: {e}");
            ExitCode::from(2)
        }
    }
}
