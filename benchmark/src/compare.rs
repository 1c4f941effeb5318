//! Result sets (`ukperf set`) and their comparison (`ukperf compare`).
//!
//! A set is several fresh-process runs of every workload, each with its
//! own seed. Two sets of the same build must agree within the bounds
//! below (`make agree`); a later change is judged by comparing its set
//! against the parent's with the same rule.

use std::path::Path;
use std::process::Command;

use crate::json::{self, Value};
use crate::summary::Five;

/// Which way a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How far a metric's median may move the wrong way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the base median.
    Rel(f64),
    /// Share of the base median, or this absolute amount if larger
    /// (for medians at or near 0).
    RelOrAbs(f64, f64),
    /// Any increase at all.
    AnyIncrease,
}

/// One compared metric.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Whether a spread wider than the bound makes the row
    /// `unresolved`. Off for `setup_s`, as in the contract: a set-up
    /// is a fraction of a second, its runs scatter more than its
    /// bound, and only its medians are compared.
    pub spread_gated: bool,
}

/// The compared metrics. The first three are `BENCHMARK.json`'s
/// end-to-end metrics with the same bounds; the rest are their
/// deterministic companions (a run's detail line carries them), which
/// must not move at all between two sets of one build.
pub const GATES: [Gate; 6] = [
    Gate {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Rel(0.15),
        spread_gated: true,
    },
    Gate {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound::Rel(0.10),
        spread_gated: true,
    },
    Gate {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        spread_gated: false,
    },
    Gate {
        name: "sim_ns_per_op",
        unit: "ns/op",
        better: Better::Lower,
        bound: Bound::Rel(0.005),
        spread_gated: true,
    },
    Gate {
        name: "allocs_per_op",
        unit: "count/op",
        better: Better::Lower,
        bound: Bound::RelOrAbs(0.005, 0.01),
        spread_gated: true,
    },
    Gate {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::AnyIncrease,
        spread_gated: true,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound and the two
    /// sides overlap: the medians cannot be told apart at that
    /// resolution.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub gate: Gate,
    pub a: Five,
    pub b: Five,
    pub verdict: Verdict,
}

impl Row {
    /// `b`'s median over `a`'s (the base), where that is defined.
    pub fn ratio(&self) -> Option<f64> {
        (self.a.median != 0.0).then(|| self.b.median / self.a.median)
    }
}

/// Judges `b` against the base `a` (values of one metric over the runs
/// of one workload).
pub fn judge(gate: &Gate, a: &mut [f64], b: &mut [f64]) -> (Five, Five, Verdict) {
    let (fa, fb) = (Five::of(a), Five::of(b));
    let worse_by = match gate.better {
        Better::Higher => fa.median - fb.median,
        Better::Lower => fb.median - fa.median,
    };
    let allowed = match gate.bound {
        Bound::Rel(r) => r * fa.median.abs(),
        Bound::RelOrAbs(r, abs) => (r * fa.median.abs()).max(abs),
        Bound::AnyIncrease => 0.0,
    };
    let iqr = (fa.q3 - fa.q1).max(fb.q3 - fb.q1);
    let verdict = if gate.spread_gated && iqr > allowed && allowed > 0.0 {
        // Runs that do not overlap at all are a clear result however
        // wide the spread, in either direction.
        let (b_above, b_below) = (fb.min > fa.max, fb.max < fa.min);
        let (clearly_better, clearly_worse) = match gate.better {
            Better::Higher => (b_above, b_below),
            Better::Lower => (b_below, b_above),
        };
        if clearly_better {
            Verdict::Ok
        } else if clearly_worse && worse_by > allowed {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (fa, fb, verdict)
}

fn metric_values(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Value::as_arr)
        .map(|runs| {
            runs.iter()
                .filter_map(|r| r.get(metric).and_then(Value::as_f64))
                .collect()
        })
        .unwrap_or_default()
}

/// Compares two parsed sets; one row per workload × metric present in
/// both.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    let workloads = a.get("workloads").and_then(Value::as_obj).unwrap_or(&[]);
    for (workload, _) in workloads {
        for gate in &GATES {
            let mut va = metric_values(a, workload, gate.name);
            let mut vb = metric_values(b, workload, gate.name);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (fa, fb, verdict) = judge(gate, &mut va, &mut vb);
            rows.push(Row {
                workload: workload.clone(),
                gate: *gate,
                a: fa,
                b: fb,
                verdict,
            });
        }
    }
    rows
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<11} {:<14} {:>14} {:>14} {:>9} {:>8} {:>8}  {}\n",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread", "verdict"
    );
    for r in rows {
        let bound = match r.gate.bound {
            Bound::Rel(x) => format!("{x}"),
            Bound::RelOrAbs(x, abs) => format!("{x}|{abs}"),
            Bound::AnyIncrease => "0".into(),
        };
        let ratio = r.ratio().map_or("-".into(), |x| format!("{x:.4}"));
        out.push_str(&format!(
            "{:<11} {:<14} {:>14.4} {:>14.4} {:>9} {:>8} {:>8.4}  {} [{}]\n",
            r.workload,
            r.gate.name,
            r.a.median,
            r.b.median,
            ratio,
            bound,
            r.a.spread().max(r.b.spread()),
            r.verdict.label(),
            r.gate.unit,
        ));
    }
    out
}

pub fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One fresh-process run through the contract's command line; returns
/// the detail line and the result line.
pub fn run_child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<(Value, Value), String> {
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {} — {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines.next().ok_or("no output")?;
    let detail = lines.next().ok_or("no detail line")?;
    Ok((json::parse(detail)?, json::parse(result)?))
}

fn first_line_of(cmd: &str, arg: &str) -> String {
    Command::new(cmd)
        .arg(arg)
        .output()
        .ok()
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were taken: cores, CPU, kernel, compiler.
pub fn host_header() -> Vec<(String, Value)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    vec![
        ("nproc".into(), Value::from(nproc)),
        ("cpu".into(), Value::str(cpu)),
        ("kernel".into(), Value::str(kernel)),
        (
            "rustc".into(),
            Value::str(first_line_of("rustc", "--version")),
        ),
    ]
}

/// Runs `runs` fresh processes of every workload in `workloads` (seeds
/// `first_seed..`) and returns the set.
pub fn collect_set(
    exe: &Path,
    workloads: &[&str],
    runs: u64,
    first_seed: u64,
    seconds: u64,
) -> Result<Value, String> {
    let mut header = host_header();
    header.push(("run_seconds".into(), Value::from(seconds)));
    header.push(("runs_per_workload".into(), Value::from(runs)));
    header.push(("first_seed".into(), Value::from(first_seed)));
    let mut per_workload = Vec::new();
    for &w in workloads {
        let mut rows = Vec::new();
        for seed in first_seed..first_seed + runs {
            let (detail, result) = run_child(exe, w, seed, seconds, false)?;
            let d = detail.get("detail").ok_or("detail line without `detail`")?;
            let metric = |name: &str| {
                result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .cloned()
                    .unwrap_or(Value::Null)
            };
            let from_detail = |name: &str| d.get(name).cloned().unwrap_or(Value::Null);
            eprintln!(
                "ukperf set: {w} seed {seed}: ops_per_s {}",
                metric("ops_per_s").render()
            );
            rows.push(Value::obj([
                ("seed", Value::from(seed)),
                (
                    "correct",
                    result.get("correct").cloned().unwrap_or(Value::Null),
                ),
                (
                    "attempted",
                    result.get("attempted").cloned().unwrap_or(Value::Null),
                ),
                (
                    "failed",
                    result.get("failed").cloned().unwrap_or(Value::Null),
                ),
                ("ops_per_s", metric("ops_per_s")),
                ("ops_per_s_wall", from_detail("ops_per_s_wall")),
                (
                    "host_speed",
                    d.get("host_speed")
                        .and_then(|h| h.get("median"))
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
                ("peak_rss_mib", metric("peak_rss_mib")),
                ("setup_s", metric("setup_s")),
                ("sim_ns_per_op", from_detail("sim_ns_per_op")),
                ("allocs_per_op", from_detail("allocs_per_op")),
                ("fail_ratio", from_detail("fail_ratio")),
                ("reps", from_detail("reps")),
            ]));
        }
        per_workload.push((w.to_owned(), Value::obj([("runs", Value::Arr(rows))])));
    }
    Ok(Value::obj([
        ("tool", Value::str("ukperf set")),
        ("header", Value::Obj(header)),
        ("workloads", Value::Obj(per_workload)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &str) -> Gate {
        *GATES.iter().find(|g| g.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let g = gate("ops_per_s");
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 10% down: inside the 15% bound.
        let (_, _, v) = judge(&g, &mut base.clone(), &mut [90.0, 91.0, 89.0, 90.5, 89.5]);
        assert_eq!(v, Verdict::Ok);
        // 40% down with tight runs: worse.
        let (_, _, v) = judge(&g, &mut base.clone(), &mut [60.0, 61.0, 59.0, 60.5, 59.5]);
        assert_eq!(v, Verdict::Worse);
        // Runs scattered wider than the bound: unresolved, not ok.
        let (_, _, v) = judge(
            &g,
            &mut base.clone(),
            &mut [40.0, 100.0, 150.0, 55.0, 120.0],
        );
        assert_eq!(v, Verdict::Unresolved);
        // ... unless every run beats every base run,
        let (_, _, v) = judge(
            &g,
            &mut base.clone(),
            &mut [160.0, 200.0, 230.0, 175.0, 210.0],
        );
        assert_eq!(v, Verdict::Ok);
        // or every run loses to every base run by more than the bound.
        let (_, _, v) = judge(&g, &mut base.clone(), &mut [10.0, 60.0, 30.0, 50.0, 20.0]);
        assert_eq!(v, Verdict::Worse);
    }

    #[test]
    fn deterministic_metrics_allow_no_drift() {
        let (_, _, v) = judge(&gate("sim_ns_per_op"), &mut [1000.0; 3], &mut [1010.0; 3]);
        assert_eq!(v, Verdict::Worse);
        let (_, _, v) = judge(&gate("allocs_per_op"), &mut [0.0; 3], &mut [0.005; 3]);
        assert_eq!(v, Verdict::Ok, "within the absolute floor");
        let (_, _, v) = judge(&gate("allocs_per_op"), &mut [0.0; 3], &mut [0.5; 3]);
        assert_eq!(v, Verdict::Worse);
        let (_, _, v) = judge(&gate("fail_ratio"), &mut [0.0; 3], &mut [0.0001; 3]);
        assert_eq!(v, Verdict::Worse, "any increase");
        let (_, _, v) = judge(&gate("fail_ratio"), &mut [0.0; 3], &mut [0.0; 3]);
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn compare_reads_sets() {
        let set = |ops: [f64; 3]| {
            Value::obj([(
                "workloads",
                Value::obj([(
                    "tcp-rr",
                    Value::obj([(
                        "runs",
                        Value::Arr(
                            ops.iter()
                                .map(|&o| {
                                    Value::obj([
                                        ("ops_per_s", Value::Num(o)),
                                        ("fail_ratio", Value::Num(0.0)),
                                    ])
                                })
                                .collect(),
                        ),
                    )]),
                )]),
            )])
        };
        let rows = compare(&set([100.0, 101.0, 102.0]), &set([50.0, 51.0, 52.0]));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert!(render(&rows).contains("worse"));
    }
}
