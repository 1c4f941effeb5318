//! Command line of the benchmark. `BENCHMARK.json` invokes the first
//! form; the subcommands are for people.
//!
//! ```text
//! ukperf --workload W [--seed N] [--seconds S] [--trace 0|1]
//! ukperf run | trace …       the same with `--trace 0` / `--trace 1` filled in
//! ukperf probes
//! ukperf set     --out FILE [--runs N] [--first-seed K] [--seconds S]
//! ukperf compare A.json B.json [--strict]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use ukperf::compare::{self, Verdict};
use ukperf::drive::{self, Metric, RunOpts};
use ukperf::json::Value;
use ukperf::{probes, workloads};

/// Every heap allocation of the process is counted: `allocs_per_op`
/// and the per-layer allocation metrics read this counter.
#[global_allocator]
static COUNTING: ukalloc::stats::CountingAlloc = ukalloc::stats::CountingAlloc;

/// `--seconds` when none is given (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 18.0;
/// Probe time inside a traced run, and for `ukperf probes`.
const TRACE_PROBE_BUDGET: Duration = Duration::from_millis(600);
const PROBES_BUDGET: Duration = Duration::from_millis(2_400);

struct Args(Vec<String>);

impl Args {
    /// Removes `--name value` and returns the value.
    fn opt(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.opt(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: bad value `{v}`")),
        }
    }

    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }

    fn done(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(a) => Err(format!("unknown option `{a}`")),
            None => Ok(self.0),
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        match m.value {
            Some(v) => println!("  {:<40} {:>16.4} {}", m.name, v, m.unit),
            None => println!(
                "  {:<40} {:>16} (absent in this build of the program)",
                m.name, "-"
            ),
        }
    }
}

/// One run in the contract's form. The last line printed is the
/// result object; the line before it carries the detail.
fn run_workload(mut args: Args) -> Result<ExitCode, String> {
    let workload = args.opt("--workload")?.ok_or("--workload is required")?;
    let seed = args.parsed("--seed")?.unwrap_or(1);
    let seconds = args.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let trace = match args.opt("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err("--trace takes 0 or 1".into()),
    };
    args.done()?;
    let opts = RunOpts {
        seed,
        seconds,
        trace,
        trace_dir: trace.then(out_dir),
        ..RunOpts::default()
    };
    let mut report = drive::run(&workload, &opts)?;
    println!(
        "ukperf {} seed {} — single thread, in-process testnet wire (no kernel sockets, no real link)",
        report.workload, report.seed
    );
    print_metrics(
        "end-to-end (untraced repetitions; host speed divided out)",
        &report.end_to_end(),
    );
    println!(
        "  {:<40} {:>16.4} 1/s (as the wall clock read)\n  {:<40} {:>16.4} of nominal (min {:.3}, max {:.3})",
        "ops_per_s_wall",
        report.ops_per_s_wall,
        "host_speed",
        report.host_speed.median,
        report.host_speed.min,
        report.host_speed.max
    );
    println!(
        "  {:<40} {:>16.4} ns/op\n  {:<40} {:>16.4} count/op\n  {:<40} {:>16.6} ratio ({} of {})",
        "sim_ns_per_op",
        report.sim_ns_per_op,
        "allocs_per_op",
        report.allocs_per_op,
        "fail_ratio",
        report.fail_ratio(),
        report.failed,
        report.attempted
    );
    if trace {
        report.layers.extend(probes::run(TRACE_PROBE_BUDGET));
        print_metrics(
            "per-layer (traced repetitions; probes last)",
            &report.layers,
        );
        println!(
            "span file: {}",
            ukperf::tracefile::path(&out_dir(), report.workload).display()
        );
    }
    println!("{}", report.detail_line().render());
    println!("{}", report.result_line(trace).render());
    if !report.correct() {
        eprintln!(
            "ukperf: output verification failed ({} of {} timed, {} of {} warm-up operations)",
            report.failed, report.attempted, report.warmup.failed, report.warmup.attempted
        );
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_probes(args: Args) -> Result<ExitCode, String> {
    args.done()?;
    let metrics = probes::run(PROBES_BUDGET);
    print_metrics("isolated probes (minimum over batches)", &metrics);
    let obj = drive::metrics_value(&metrics);
    println!("{}", Value::obj([("probes", obj)]).render());
    Ok(ExitCode::SUCCESS)
}

fn self_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))
}

fn cmd_set(mut args: Args) -> Result<ExitCode, String> {
    let out = PathBuf::from(args.opt("--out")?.ok_or("--out is required")?);
    let runs = args.parsed("--runs")?.unwrap_or(5);
    let first_seed = args.parsed("--first-seed")?.unwrap_or(1);
    let seconds = args.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS as u64);
    args.done()?;
    let set = compare::collect_set(&self_exe()?, &workloads::NAMES, runs, first_seed, seconds)?;
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, set.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(mut args: Args) -> Result<ExitCode, String> {
    let strict = args.flag("--strict");
    let files = args.done()?;
    let [a, b] = files.as_slice() else {
        return Err("compare takes two set files".into());
    };
    let rows = compare::compare(&compare::load(Path::new(a))?, &compare::load(Path::new(b))?);
    if rows.is_empty() {
        return Err("the two sets share no workload × metric".into());
    }
    print!("{}", compare::render(&rows));
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved (a = base; ratios are b/a)",
        rows.len()
    );
    Ok(if worse > 0 || (strict && unresolved > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn dispatch() -> Result<ExitCode, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first() {
        Some(a) if !a.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    match sub.as_str() {
        "" => {}
        "run" => argv.extend(["--trace".into(), "0".into()]),
        "trace" => argv.extend(["--trace".into(), "1".into()]),
        "probes" => return cmd_probes(Args(argv)),
        "set" => return cmd_set(Args(argv)),
        "compare" => return cmd_compare(Args(argv)),
        other => return Err(format!("unknown command `{other}`")),
    }
    run_workload(Args(argv))
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ukperf: {e}");
            ExitCode::from(64)
        }
    }
}
