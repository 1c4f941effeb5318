//! The span file the traced pass leaves behind:
//! `<dir>/trace-<workload>.json`.
//!
//! Spans and requests are rows (`span_fields` / `request_fields` name
//! the columns; `name` indexes `names`, `parent` indexes `spans`, -1 =
//! the repetition itself), so the first hundred thousand spans fit in a
//! few megabytes. Streamed straight to the file — the tree is never
//! built in memory.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::probe::{Layer, Tracer};

pub fn path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("trace-{workload}.json"))
}

pub fn write(dir: &Path, workload: &str, t: &Tracer) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = path(dir, workload);
    let mut f = BufWriter::new(File::create(&path)?);
    writeln!(f, "{{")?;
    writeln!(f, "\"workload\": \"{workload}\",")?;
    let names: Vec<String> = Layer::ALL
        .iter()
        .map(|l| format!("\"{}\"", l.name()))
        .collect();
    writeln!(f, "\"names\": [{}],", names.join(", "))?;
    writeln!(f, "\"totals\": {{")?;
    for (i, l) in Layer::ALL.iter().enumerate() {
        let tot = t.totals[*l as usize];
        writeln!(
            f,
            "  \"{}\": {{\"count\": {}, \"ns\": {}, \"self_ns\": {}, \"self_allocs\": {}}}{}",
            l.name(),
            tot.count,
            tot.ns,
            tot.self_ns,
            tot.self_allocs,
            if i + 1 < Layer::ALL.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "}},")?;
    writeln!(
        f,
        "\"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"turn\", \"rep\"],"
    )?;
    writeln!(f, "\"spans\": [")?;
    for (i, s) in t.spans.iter().enumerate() {
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            f,
            "[{},{},{},{},{},{}]{}",
            s.layer as u8,
            s.start_ns,
            s.end_ns,
            parent,
            s.turn,
            s.rep,
            if i + 1 < t.spans.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "],")?;
    writeln!(
        f,
        "\"request_fields\": [\"conn\", \"seq\", \"first_turn\", \"last_turn\", \"start_ns\", \"end_ns\"],"
    )?;
    writeln!(f, "\"requests\": [")?;
    for (i, r) in t.reqs.iter().enumerate() {
        writeln!(
            f,
            "[{},{},{},{},{},{}]{}",
            r.conn,
            r.seq,
            r.first_turn,
            r.last_turn,
            r.start_ns,
            r.end_ns,
            if i + 1 < t.reqs.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "]")?;
    writeln!(f, "}}")?;
    f.flush()?;
    Ok(path)
}
