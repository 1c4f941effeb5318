//! One run of one workload: set-up, timed repetitions, report.
//!
//! The untraced pass yields every end-to-end metric. The traced pass
//! alternates untraced and traced repetitions on the same network, so
//! the per-layer numbers and the cost of taking them come from the same
//! minutes of the same machine.

use std::time::{Duration, Instant};

use ukalloc::stats::AllocCounter;

use crate::json::Value;
use crate::probe::{Layer, NoProbe, Probe, Tracer};
use crate::refkernel::{host_speed, RefKernel};
use crate::summary::{median, Five};
use crate::workloads::{ConnChurn, HttpWrk, RedisPipe, RepOut, TcpBulk, TcpLossy, TcpRr, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Untimed repetitions that end every set-up.
pub const WARMUP_REPS: usize = 8;
/// Timed repetitions whose virtual time and allocations define
/// `sim_ns_per_op` / `allocs_per_op`: a fixed prefix, so the two read
/// the same however long the run lasts.
pub const DET_REPS: usize = 32;
/// A run measures at least this many repetitions whatever `--seconds`.
pub const MIN_REPS: usize = DET_REPS;

/// How one run is carried out.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Timed window (the traced pass splits it between its two kinds
    /// of repetition).
    pub seconds: f64,
    pub trace: bool,
    /// Divides every workload's operations per repetition (self-tests
    /// run at 1/100 scale).
    pub scale_div: u64,
    /// Exact number of timed repetitions instead of a time window
    /// (self-tests: two runs must do identical work).
    pub fixed_reps: Option<usize>,
    pub setups: usize,
    /// Where the traced pass writes its span file.
    pub trace_dir: Option<std::path::PathBuf>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            seed: 1,
            seconds: 18.0,
            trace: false,
            scale_div: 1,
            fixed_reps: None,
            setups: SETUPS,
            trace_dir: None,
        }
    }
}

/// One timed repetition.
#[derive(Debug, Clone, Copy)]
pub struct RepSample {
    pub wall_ns: u64,
    pub sim_ns: u64,
    pub allocs: u64,
    pub out: RepOut,
    /// Host speed next to this repetition (reference kernel before
    /// and after it; 1.0 = nominal).
    pub host_speed: f64,
    pub traced: bool,
    /// Time covered by top-level spans (traced repetitions only).
    pub span_ns: u64,
}

impl RepSample {
    /// Operations per wall-clock second, as measured.
    pub fn wall_rate(&self) -> f64 {
        self.out.attempted as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// Operations per second on a host at nominal speed.
    pub fn rate(&self) -> f64 {
        self.wall_rate() / self.host_speed
    }
}

/// A metric as the contract wants it printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `None`: the program no longer has what this metric reads.
    pub value: Option<f64>,
}

/// Printed for a metric whose source is gone (per-layer metrics may
/// legitimately be 0, so 0 cannot mean "absent").
pub const ABSENT: f64 = -1.0;

/// `{"<name>": {"value": …, "unit": …}, …}`, absent values as
/// [`ABSENT`].
pub fn metrics_value(metrics: &[Metric]) -> Value {
    Value::obj(metrics.iter().map(|m| {
        (
            m.name,
            Value::obj([
                ("value", Value::Num(m.value.unwrap_or(ABSENT))),
                ("unit", Value::str(m.unit)),
            ]),
        )
    }))
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub ops_per_rep: u64,
    pub reps: Vec<RepSample>,
    pub setup_s: Vec<f64>,
    pub warmup: RepOut,
    pub attempted: u64,
    pub failed: u64,
    /// Five-number summary of `ops_per_s` over untraced repetitions:
    /// each repetition's wall-clock rate divided by the host speed
    /// measured next to it.
    pub ops_per_s: Five,
    /// Median of the same repetitions' wall-clock rates as measured.
    pub ops_per_s_wall: f64,
    /// Host speed over the untraced repetitions (1.0 = nominal).
    pub host_speed: Five,
    pub sim_ns_per_op: f64,
    pub allocs_per_op: f64,
    pub peak_rss_mib: f64,
    /// Per-layer metrics (traced pass only).
    pub layers: Vec<Metric>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.warmup.failed == 0
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn setup_median_s(&self) -> f64 {
        median(&mut self.setup_s.clone())
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: Some(self.ops_per_s.median),
            },
            Metric {
                name: "peak_rss_mib",
                unit: "MiB",
                value: Some(self.peak_rss_mib),
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: Some(self.setup_median_s()),
            },
        ]
    }

    /// The contract's result line.
    pub fn result_line(&self, trace: bool) -> Value {
        let metrics = if trace {
            self.layers.clone()
        } else {
            self.end_to_end()
        };
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", metrics_value(&metrics)),
        ])
    }

    /// What the result line has no room for: the spread of the
    /// repetitions and the deterministic companions of `ops_per_s`.
    pub fn detail_line(&self) -> Value {
        let f = self.ops_per_s;
        let untraced = self.reps.iter().filter(|r| !r.traced).count() as u64;
        Value::obj([(
            "detail",
            Value::obj([
                ("workload", Value::str(self.workload)),
                ("seed", Value::from(self.seed)),
                ("ops_per_rep", Value::from(self.ops_per_rep)),
                ("reps", Value::from(untraced)),
                (
                    "ops_per_s",
                    Value::obj([
                        ("min", Value::Num(f.min)),
                        ("q1", Value::Num(f.q1)),
                        ("median", Value::Num(f.median)),
                        ("q3", Value::Num(f.q3)),
                        ("max", Value::Num(f.max)),
                    ]),
                ),
                ("ops_per_s_wall", Value::Num(self.ops_per_s_wall)),
                (
                    "host_speed",
                    Value::obj([
                        ("min", Value::Num(self.host_speed.min)),
                        ("median", Value::Num(self.host_speed.median)),
                        ("max", Value::Num(self.host_speed.max)),
                    ]),
                ),
                ("sim_ns_per_op", Value::Num(self.sim_ns_per_op)),
                ("allocs_per_op", Value::Num(self.allocs_per_op)),
                ("fail_ratio", Value::Num(self.fail_ratio())),
                ("peak_rss_mib", Value::Num(self.peak_rss_mib)),
                (
                    "setup_s",
                    Value::Arr(self.setup_s.iter().map(|&s| Value::Num(s)).collect()),
                ),
                (
                    "rig",
                    Value::str(
                        "one thread; in-process uknetstack::testnet wire (no kernel sockets, \
                         no real link); vhost-net cost model; one shared virtual clock, timers armed",
                    ),
                ),
            ]),
        )])
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the named workload.
pub fn run(workload: &str, opts: &RunOpts) -> Result<RunReport, String> {
    match workload {
        HttpWrk::NAME => Ok(drive::<HttpWrk>(opts)),
        RedisPipe::NAME => Ok(drive::<RedisPipe>(opts)),
        TcpRr::NAME => Ok(drive::<TcpRr>(opts)),
        TcpBulk::NAME => Ok(drive::<TcpBulk>(opts)),
        TcpLossy::NAME => Ok(drive::<TcpLossy>(opts)),
        ConnChurn::NAME => Ok(drive::<ConnChurn>(opts)),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            crate::workloads::NAMES.join(", ")
        )),
    }
}

/// One repetition under the clocks: wall, virtual, heap. `ref_before`
/// is the reference kernel's time just before it; the kernel runs
/// again after it and that time is returned for the next repetition.
fn timed_rep<W: Workload, P: Probe>(
    w: &mut W,
    p: &mut P,
    full_verify: bool,
    kernel: &mut RefKernel,
    ref_before: u64,
) -> (RepSample, u64) {
    let sim0 = w.rig().sim_ns();
    let heap = AllocCounter::start();
    let t = Instant::now();
    let out = w.rep(p, full_verify);
    let wall_ns = t.elapsed().as_nanos() as u64;
    let allocs = heap.allocs();
    let ref_after = kernel.run();
    let sample = RepSample {
        wall_ns,
        sim_ns: w.rig().sim_ns() - sim0,
        allocs,
        out,
        host_speed: host_speed(ref_before, ref_after),
        traced: P::ON,
        span_ns: 0,
    };
    (sample, ref_after)
}

/// Counter and gauge readings around the traced repetitions.
#[derive(Debug, Default)]
struct Counts {
    counters: Vec<(&'static str, u64)>,
}

impl Counts {
    /// Adds every counter's movement between two snapshots. Counters
    /// that exist but did not move are kept at 0 (`counters_since`
    /// drops them, which would read as "absent" below).
    fn add(&mut self, base: &ukstats::Snapshot, now: &ukstats::Snapshot) {
        for c in &now.counters {
            let delta = c.value - base.counter(c.name).unwrap_or(0);
            match self.counters.iter_mut().find(|(n, _)| *n == c.name) {
                Some((_, v)) => *v += delta,
                None => self.counters.push((c.name, delta)),
            }
        }
    }

    /// `None` when the program registers no counter of that name.
    fn get(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v as f64)
    }
}

fn drive<W: Workload>(opts: &RunOpts) -> RunReport {
    let ops_per_rep = (W::OPS_PER_REP / opts.scale_div.max(1)).max(1);

    // Set-up, several times over: build, connect, seed, warm up. The
    // last one is measured on; the earlier ones are dropped first so
    // the peak footprint is that of one rig.
    let mut kernel = RefKernel::new();
    let mut ref_ns = kernel.run();
    let mut setup_s = Vec::with_capacity(opts.setups);
    let mut warmup = RepOut::default();
    let mut built: Option<W> = None;
    for _ in 0..opts.setups.max(1) {
        drop(built.take());
        // The kernel runs after the build and after every warm-up
        // repetition, so each piece is scaled by the host speed right
        // next to it; the kernel's own time is not counted.
        let mut scaled_s = 0.0;
        let mut piece = |ref_ns: &mut u64, t: Instant| {
            let wall_s = t.elapsed().as_secs_f64();
            let after = kernel.run();
            scaled_s += wall_s * host_speed(*ref_ns, after);
            *ref_ns = after;
        };
        let t = Instant::now();
        let mut w = W::setup(opts.seed, ops_per_rep);
        piece(&mut ref_ns, t);
        warmup = RepOut::default();
        for _ in 0..WARMUP_REPS {
            let t = Instant::now();
            let out = w.rep(&mut NoProbe, true);
            piece(&mut ref_ns, t);
            warmup.attempted += out.attempted;
            warmup.failed += out.failed;
        }
        setup_s.push(scaled_s);
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up");

    let mut reps: Vec<RepSample> = Vec::with_capacity(4096);
    let mut tracer = opts.trace.then(Tracer::new);
    let mut counts = Counts::default();
    let app0 = w.app_counters();
    let (mut traced_frames, mut traced_turns, mut traced_faults) = (0u64, 0u64, 0u64);

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds.max(0.0));
    loop {
        let done = match opts.fixed_reps {
            Some(n) => reps.len() >= n,
            None => reps.len() >= MIN_REPS && Instant::now() >= deadline,
        };
        if done {
            break;
        }
        // The traced pass alternates: even repetitions run bare, odd
        // ones under the tracer with every byte compared.
        match tracer.as_mut() {
            Some(tr) if reps.len() % 2 == 1 => {
                let base = ukstats::snapshot();
                let (frames0, turns0) = (w.rig().wire_frames, w.rig().turns);
                let faults = w.rig().net.faults_injected();
                tr.start_rep(reps.len() as u32);
                let (mut s, after) = timed_rep(&mut w, tr, true, &mut kernel, ref_ns);
                ref_ns = after;
                s.span_ns = tr.rep_span_ns();
                counts.add(&base, &ukstats::snapshot());
                traced_frames += w.rig().wire_frames - frames0;
                traced_turns += w.rig().turns - turns0;
                traced_faults += w.rig().net.faults_injected() - faults;
                reps.push(s);
            }
            _ => {
                let (s, after) = timed_rep(&mut w, &mut NoProbe, false, &mut kernel, ref_ns);
                ref_ns = after;
                reps.push(s);
            }
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.out.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.out.failed).sum();
    let bare: Vec<&RepSample> = reps.iter().filter(|r| !r.traced).collect();
    let ops_per_s = Five::of(&mut bare.iter().map(|r| r.rate()).collect::<Vec<_>>());
    let ops_per_s_wall = median(&mut bare.iter().map(|r| r.wall_rate()).collect::<Vec<_>>());
    let host_speed = Five::of(&mut bare.iter().map(|r| r.host_speed).collect::<Vec<_>>());
    let det = &bare[..bare.len().min(DET_REPS)];
    let det_ops: u64 = det.iter().map(|r| r.out.attempted).sum();
    let sim_ns_per_op = det.iter().map(|r| r.sim_ns).sum::<u64>() as f64 / det_ops.max(1) as f64;
    let allocs_per_op = det.iter().map(|r| r.allocs).sum::<u64>() as f64 / det_ops.max(1) as f64;

    let layers = match tracer.as_ref() {
        None => Vec::new(),
        Some(tr) => {
            let app = w.app_counters();
            let gauges = ukstats::snapshot();
            layer_metrics(&LayerInputs {
                tracer: tr,
                reps: &reps,
                counts: &counts,
                gauges: &gauges,
                wire_frames: traced_frames,
                turns: traced_turns,
                faults: traced_faults,
                app_errors: app.errors - app0.errors,
                app_mallocs: app
                    .heap
                    .zip(app0.heap)
                    .map(|(now, then)| now.alloc_count - then.alloc_count),
                app_peak_bytes: app.heap.map(|h| h.peak_bytes),
                sim_ns_per_op,
                allocs_per_op,
            })
        }
    };
    if let (Some(tr), Some(dir)) = (tracer.as_ref(), opts.trace_dir.as_ref()) {
        if let Err(e) = crate::tracefile::write(dir, W::NAME, tr) {
            eprintln!("ukperf: could not write the span file: {e}");
        }
    }

    RunReport {
        workload: W::NAME,
        seed: opts.seed,
        ops_per_rep,
        reps,
        setup_s,
        warmup,
        attempted,
        failed,
        ops_per_s,
        ops_per_s_wall,
        host_speed,
        sim_ns_per_op,
        allocs_per_op,
        peak_rss_mib: peak_rss_mib(),
        layers,
    }
}

struct LayerInputs<'a> {
    tracer: &'a Tracer,
    reps: &'a [RepSample],
    counts: &'a Counts,
    gauges: &'a ukstats::Snapshot,
    wire_frames: u64,
    turns: u64,
    faults: u64,
    /// Movement of the app's own counters over every timed repetition
    /// (the apps expose running totals only).
    app_errors: u64,
    app_mallocs: Option<u64>,
    app_peak_bytes: Option<usize>,
    sim_ns_per_op: f64,
    allocs_per_op: f64,
}

/// Name and unit of every per-layer metric the traced pass prints, in
/// `BENCHMARK.json` order (the isolated probes follow them).
pub const LAYER_METRICS: [(&str, &str); 37] = [
    ("sim_ns_per_op", "ns/op"),
    ("allocs_per_op", "count/op"),
    ("loadgen.busy_ns_per_op", "ns/op"),
    ("loadgen.turns_per_op", "count/op"),
    ("loadgen.lat_p50_us", "us"),
    ("loadgen.lat_p99_us", "us"),
    ("loadgen.trace_overhead_pct", "%"),
    ("loadgen.unattributed_pct", "%"),
    ("testnet.transfer_ns_per_op", "ns/op"),
    ("testnet.wire_frames_per_op", "count/op"),
    ("testnet.wire_bytes_per_op", "B/op"),
    ("testnet.faults_per_op", "count/op"),
    ("uknetstack.pump_client_ns_per_op", "ns/op"),
    ("uknetstack.pump_server_ns_per_op", "ns/op"),
    ("uknetstack.pump_sweeps_per_op", "count/op"),
    ("uknetstack.frames_per_rx_burst", "count"),
    ("uknetstack.dropped_per_op", "count/op"),
    ("uknetstack.allocs_per_op", "count/op"),
    ("uknetstack.pool_inflight_hiwater", "count"),
    ("uknetstack.sock_send_ns_per_op", "ns/op"),
    ("uknetstack.sock_recv_ns_per_op", "ns/op"),
    ("uknetstack.gro_merged_ratio", "ratio"),
    ("uknetstack.tso_bytes_per_super", "B"),
    ("uknetstack.retransmits_per_op", "count/op"),
    ("uknetstack.rto_fires_per_op", "count/op"),
    ("uknetstack.spurious_rtx_per_op", "count/op"),
    ("uknetstack.conn_ctl_ns_per_op", "ns/op"),
    ("uknetdev.frames_per_tx_burst", "count"),
    ("uknetdev.tx_bursts_per_op", "count/op"),
    ("uknetdev.irqs_per_op", "count/op"),
    ("uknetdev.rx_ring_drops_per_op", "count/op"),
    ("ukevent.edges_per_op", "count/op"),
    ("ukapps.poll_ns_per_op", "ns/op"),
    ("ukapps.allocs_per_op", "count/op"),
    ("ukapps.errors_per_op", "count/op"),
    ("ukalloc.mallocs_per_op", "count/op"),
    ("ukalloc.peak_bytes", "B"),
];

fn layer_metrics(i: &LayerInputs<'_>) -> Vec<Metric> {
    let traced: Vec<&RepSample> = i.reps.iter().filter(|r| r.traced).collect();
    let bare: Vec<&RepSample> = i.reps.iter().filter(|r| !r.traced).collect();
    let ops = traced.iter().map(|r| r.out.attempted).sum::<u64>().max(1) as f64;
    let t = |l: Layer| i.tracer.totals[l as usize];
    let per_op = |v: u64| Some(v as f64 / ops);
    let count_per_op = |name: &str| i.counts.get(name).map(|v| v / ops);
    let ratio = |num: &str, den: &str| {
        let (n, d) = (i.counts.get(num)?, i.counts.get(den)?);
        Some(if d == 0.0 { 0.0 } else { n / d })
    };

    let ns_per_op = |rs: &[&RepSample]| {
        let mut v: Vec<f64> = rs.iter().map(|r| 1e9 / r.rate()).collect();
        (!v.is_empty()).then(|| median(&mut v))
    };
    let overhead = match (ns_per_op(&traced), ns_per_op(&bare)) {
        (Some(tr), Some(b)) if b > 0.0 => Some((tr - b) / b * 100.0),
        _ => None,
    };
    let traced_wall: u64 = traced.iter().map(|r| r.wall_ns).sum();
    let traced_span: u64 = traced.iter().map(|r| r.span_ns).sum();
    let unattributed = (traced_wall > 0)
        .then(|| (traced_wall - traced_span.min(traced_wall)) as f64 / traced_wall as f64 * 100.0);

    let stack_allocs = [
        Layer::PumpClient,
        Layer::PumpServer,
        Layer::SockSend,
        Layer::SockRecv,
        Layer::ConnCtl,
    ]
    .iter()
    .map(|&l| t(l).self_allocs)
    .sum::<u64>();
    let busy = t(Layer::Client).self_ns + t(Layer::Echo).self_ns + t(Layer::Verify).self_ns;
    let all_ops = i.reps.iter().map(|r| r.out.attempted).sum::<u64>().max(1) as f64;

    let values: [Option<f64>; 37] = [
        Some(i.sim_ns_per_op),
        Some(i.allocs_per_op),
        per_op(busy),
        per_op(i.turns),
        Some(i.tracer.latency_ns.quantile(0.50) as f64 / 1e3),
        Some(i.tracer.latency_ns.quantile(0.99) as f64 / 1e3),
        overhead,
        unattributed,
        per_op(t(Layer::Transfer).ns),
        per_op(i.wire_frames),
        count_per_op("netdev.tx_bytes"),
        per_op(i.faults),
        per_op(t(Layer::PumpClient).ns),
        per_op(t(Layer::PumpServer).ns),
        count_per_op("netstack.pump_sweeps"),
        ratio("netstack.rx_frames", "netstack.rx_bursts"),
        count_per_op("netstack.dropped"),
        per_op(stack_allocs),
        i.gauges
            .gauge("netstack.pool_inflight_hiwater")
            .map(|v| v as f64),
        per_op(t(Layer::SockSend).ns),
        per_op(t(Layer::SockRecv).ns),
        ratio("netstack.gro_merged_frames", "netstack.rx_frames"),
        ratio("netstack.tso_super_bytes", "netstack.tso_super_frames"),
        count_per_op("netstack.tcp.retransmits"),
        count_per_op("netstack.tcp.rto_fires"),
        count_per_op("netstack.tcp.spurious_rtx"),
        per_op(t(Layer::ConnCtl).ns),
        ratio("netdev.tx_frames", "netdev.tx_bursts"),
        count_per_op("netdev.tx_bursts"),
        count_per_op("netdev.irq_fires"),
        count_per_op("netdev.rx_ring_drops"),
        count_per_op("ukevent.edges"),
        per_op(t(Layer::AppPoll).ns),
        per_op(t(Layer::AppPoll).self_allocs),
        Some(i.app_errors as f64 / all_ops),
        i.app_mallocs.map(|n| n as f64 / all_ops),
        i.app_peak_bytes.map(|b| b as f64),
    ];
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}
