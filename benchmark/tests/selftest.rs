//! The benchmark's checks on itself, at 1/100-scale operation counts:
//! every workload completes clean, the deterministic numbers repeat
//! exactly, the load generators allocate nothing, and verification has
//! teeth.

use std::sync::{Mutex, MutexGuard};

use ukperf::drive::{self, RunOpts, LAYER_METRICS};
use ukperf::probe::NoProbe;
use ukperf::workloads::{
    ConnChurn, Flip, HttpWrk, RedisPipe, TcpBulk, TcpLossy, TcpRr, Workload, BULK_OP_BYTES, NAMES,
};

/// Heap allocations are counted process-wide, so the tests that read
/// the count must not overlap.
#[global_allocator]
static COUNTING: ukalloc::stats::CountingAlloc = ukalloc::stats::CountingAlloc;
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the others still need it.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const SCALE: u64 = 100;

fn small(trace: bool) -> RunOpts {
    RunOpts {
        seed: 7,
        trace,
        scale_div: SCALE,
        fixed_reps: Some(6),
        setups: 1,
        ..RunOpts::default()
    }
}

#[test]
fn every_workload_completes_without_a_failed_operation() {
    let _g = serial();
    for w in NAMES {
        let r = drive::run(w, &small(false)).expect("known workload");
        assert!(r.attempted > 0, "{w}: did work");
        assert_eq!(r.failed, 0, "{w}: timed operations all verified");
        assert_eq!(r.warmup.failed, 0, "{w}: warm-up operations all verified");
        assert!(r.correct());
        assert!(r.ops_per_s.median > 0.0 && r.sim_ns_per_op > 0.0, "{w}");
        assert_eq!(r.end_to_end().len(), 3);
    }
    assert!(drive::run("no-such-workload", &small(false)).is_err());
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    let _g = serial();
    for w in NAMES {
        let a = drive::run(w, &small(false)).unwrap();
        let b = drive::run(w, &small(false)).unwrap();
        assert_eq!(
            a.sim_ns_per_op.to_bits(),
            b.sim_ns_per_op.to_bits(),
            "{w}: virtual time per op"
        );
        assert_eq!(
            a.allocs_per_op.to_bits(),
            b.allocs_per_op.to_bits(),
            "{w}: allocations per op"
        );
        assert_eq!(a.attempted, b.attempted, "{w}");
    }
}

#[test]
fn a_different_seed_changes_inputs_not_the_shape_of_the_work() {
    let _g = serial();
    let a = drive::run("tcp-rr", &small(false)).unwrap();
    let b = drive::run(
        "tcp-rr",
        &RunOpts {
            seed: 8,
            ..small(false)
        },
    )
    .unwrap();
    // Payload bytes differ, frames and kicks do not.
    assert_eq!(a.sim_ns_per_op.to_bits(), b.sim_ns_per_op.to_bits());
    assert!(b.correct());
}

#[test]
fn load_generators_allocate_nothing_per_operation() {
    let _g = serial();
    // tcp-rr is client + echo loop + stack only: whatever it allocates,
    // the benchmark's own code allocated (the stack's zero is asserted
    // by the repository's own tests).
    for w in ["tcp-rr", "tcp-bulk", "tcp-lossy"] {
        let r = drive::run(w, &small(false)).unwrap();
        assert_eq!(r.allocs_per_op, 0.0, "{w}");
        assert!(
            r.reps.iter().all(|s| s.allocs == 0),
            "{w}: every repetition"
        );
    }
}

/// Runs one repetition with `flip` installed on a warmed-up workload.
fn failures_with_flip<W: Workload>(
    ops: u64,
    full_verify: bool,
    install: impl FnOnce(&mut W, Flip),
    op_offset: u64,
    byte: usize,
) -> (u64, u64) {
    let mut w = W::setup(11, ops);
    let clean = w.rep(&mut NoProbe, true);
    assert_eq!(clean.failed, 0, "{}: clean before the flip", W::NAME);
    let flip = Flip {
        op: w.next_op() + op_offset,
        byte,
    };
    install(&mut w, flip);
    let out = w.rep(&mut NoProbe, full_verify);
    (out.attempted, out.failed)
}

#[test]
fn one_flipped_expected_byte_fails_exactly_that_operation() {
    let _g = serial();
    // Echo payload.
    let (n, failed) = failures_with_flip::<TcpRr>(200, true, |w, f| w.flip = Some(f), 17, 63);
    assert_eq!((n, failed), (200, 1), "tcp-rr");
    // The echo inside a connection cycle.
    let (n, failed) = failures_with_flip::<ConnChurn>(50, true, |w, f| w.flip = Some(f), 3, 9);
    assert_eq!((n, failed), (50, 1), "conn-churn");
    // HTTP body.
    let (n, failed) = failures_with_flip::<HttpWrk>(200, true, |w, f| w.flip = Some(f), 40, 300);
    assert_eq!((n, failed), (200, 1), "http-wrk");
    // RESP reply: byte 1 exists in `+OK` and in every value.
    let (n, failed) = failures_with_flip::<RedisPipe>(640, true, |w, f| w.flip = Some(f), 333, 1);
    assert_eq!((n, failed), (640, 1), "redis-pipe");
    // Bulk stream, every byte compared.
    let (n, failed) =
        failures_with_flip::<TcpBulk>(4, true, |w, f| w.0.flip = Some(f), 2, BULK_OP_BYTES / 3);
    assert_eq!((n, failed), (4, 1), "tcp-bulk");
    let (n, failed) = failures_with_flip::<TcpLossy>(2, true, |w, f| w.0.flip = Some(f), 1, 5);
    assert_eq!((n, failed), (2, 1), "tcp-lossy");
}

#[test]
fn timed_bulk_check_compares_a_window_per_read_not_every_byte() {
    let _g = serial();
    // One flipped byte in 1 MiB: the windowed check (64 bytes per
    // read) almost surely does not look at it, the full check must.
    let windowed =
        failures_with_flip::<TcpBulk>(2, false, |w, f| w.0.flip = Some(f), 0, BULK_OP_BYTES / 2);
    let full =
        failures_with_flip::<TcpBulk>(2, true, |w, f| w.0.flip = Some(f), 0, BULK_OP_BYTES / 2);
    assert_eq!(full, (2, 1));
    assert!(windowed.1 <= 1);
}

#[test]
fn traced_pass_prints_every_layer_metric_and_accounts_for_its_time() {
    let _g = serial();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{}", std::process::id()));
    for w in ["http-wrk", "conn-churn", "tcp-lossy"] {
        let r = drive::run(
            w,
            &RunOpts {
                trace_dir: Some(dir.clone()),
                ..small(true)
            },
        )
        .unwrap();
        assert!(r.correct(), "{w}");
        assert_eq!(r.layers.len(), LAYER_METRICS.len(), "{w}");
        let get = |name: &str| {
            r.layers
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{w}: {name} printed"))
                .value
        };
        let unattributed = get("loadgen.unattributed_pct").expect("measured");
        assert!(
            (0.0..5.0).contains(&unattributed),
            "{w}: {unattributed}% unattributed"
        );
        assert!(get("loadgen.trace_overhead_pct").is_some());
        assert!(get("uknetstack.pump_server_ns_per_op").unwrap() > 0.0);
        if w == "tcp-lossy" {
            assert!(get("uknetstack.retransmits_per_op").unwrap() > 0.0);
            assert!(get("testnet.faults_per_op").unwrap() > 0.0);
        } else {
            assert_eq!(get("uknetstack.retransmits_per_op"), Some(0.0), "{w}");
            assert_eq!(get("uknetstack.rto_fires_per_op"), Some(0.0), "{w}");
        }
        if w == "http-wrk" {
            assert!(get("ukapps.poll_ns_per_op").unwrap() > 0.0);
            assert!(get("ukevent.edges_per_op").unwrap() > 0.0);
        }
        // A counter the program does not have reads as absent, not 0.
        let line = r.result_line(true).render();
        assert!(line.contains("\"loadgen.busy_ns_per_op\""));
        let file = ukperf::tracefile::path(&dir, w);
        let trace = ukperf::json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
        assert!(!trace.get("spans").unwrap().as_arr().unwrap().is_empty());
        assert!(!trace.get("requests").unwrap().as_arr().unwrap().is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let _g = serial();
    let r = drive::run("tcp-rr", &small(false)).unwrap();
    let line = ukperf::json::parse(&r.result_line(false).render()).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics: Vec<&str> = line
        .get("metrics")
        .unwrap()
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(metrics, ["ops_per_s", "peak_rss_mib", "setup_s"]);
    for (_, m) in line.get("metrics").unwrap().as_obj().unwrap() {
        assert!(m.get("value").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("unit").unwrap().as_str().is_some());
    }
}

#[test]
fn benchmark_json_names_what_the_binary_prints() {
    // Parsing allocates, and the allocation count the other tests read
    // is process-wide.
    let _g = serial();
    // The contract file sits one level up in a checkout; this package
    // can also be built from a bare copy of its directory.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let doc = ukperf::json::parse(&text).expect("BENCHMARK.json parses");
    let pairs = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(|v| v.as_str())
                        .expect("string")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    let mut layers = own(&LAYER_METRICS);
    layers.extend(own(&ukperf::probes::PROBE_METRICS));
    assert_eq!(pairs("per_layer"), layers);
    let e2e: Vec<(String, String)> = ukperf::compare::GATES[..3]
        .iter()
        .map(|g| (g.name.to_owned(), g.unit.to_owned()))
        .collect();
    assert_eq!(pairs("end_to_end"), e2e);
    for (gate, m) in ukperf::compare::GATES
        .iter()
        .zip(doc.get("end_to_end").unwrap().as_arr().unwrap())
    {
        let bound = m.get("bound").and_then(|b| b.as_f64()).unwrap();
        assert_eq!(
            gate.bound,
            ukperf::compare::Bound::Rel(bound),
            "{}",
            gate.name
        );
    }
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
        .collect();
    assert_eq!(names, NAMES);
}
