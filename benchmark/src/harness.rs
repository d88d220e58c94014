//! One workload, one process: the untraced run that yields the
//! end-to-end metrics and the traced run that yields the layer ledger.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde_json::Value;
use xgomp_core::{clock, StatsSnapshot, TraceLevel};

use crate::common::{ticks_to_us, Sizing};
use crate::metrics::{self, LAYERS};
use crate::spans::SpanLog;
use crate::stats::{self, ratio, Summary};
use crate::{micro, procfs};

/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `lat_tail_us` where a repetition is one request (regions, loops): the
/// percentile over the run's repetitions that keeps ten of them beyond
/// it from fifty repetitions up.
pub const REP_TAIL_PERCENTILE: f64 = 80.0;
/// A run never reports on fewer repetitions than this, however short
/// `--seconds` is.
pub const MIN_REPS: usize = 9;
/// At most this many requests' spans go to the JSONL file; statistics
/// use every span.
const SPAN_FILE_REQUESTS: u64 = 5_000;

/// One repetition: a region, a loop, or a window of serve requests.
#[derive(Debug, Default)]
pub struct Rep {
    pub wall_ticks: u64,
    /// Work units completed (tasks, hashes, rows, jobs).
    pub units: u64,
    /// Operations attempted and operations that failed or returned a
    /// wrong result.
    pub attempted: u64,
    pub failed: u64,
    /// Median and tail (the workload's `TAIL_PERCENTILE`) latency of the
    /// repetition's requests, in microseconds. A region or a loop is one
    /// request: both are its duration.
    pub lat_p50_us: f64,
    pub lat_tail_us: f64,
}

impl Rep {
    /// A repetition that is a single request lasting from `t0` to `t1`.
    pub fn single(t0: u64, t1: u64, units: u64, ok: bool) -> Self {
        let us = us_between(t0, t1);
        Rep {
            wall_ticks: t1.saturating_sub(t0),
            units,
            attempted: 1,
            failed: u64::from(!ok),
            lat_p50_us: us,
            lat_tail_us: us,
        }
    }
}

/// What the traced pass collects beside spans: named samples and the
/// team counters summed over the traced repetitions.
#[derive(Default)]
pub struct Trace {
    pub spans: SpanLog,
    pub next_request: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Team counters, with the repetitions and wall time they cover.
    pub team: StatsSnapshot,
    pub team_reps: f64,
    pub team_wall_s: f64,
    /// Per-worker body ticks, summed over the traced repetitions.
    pub worker_loads: Vec<f64>,
}

impl Trace {
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request - 1
    }

    /// Folds in team counters that cover `reps` repetitions lasting
    /// `wall_s` in total.
    pub fn add_team(&mut self, stats: &StatsSnapshot, reps: f64, wall_s: f64) {
        self.team.add(stats);
        self.team_reps += reps;
        self.team_wall_s += wall_s;
    }

    pub fn add_loads(&mut self, loads: &[f64]) {
        if self.worker_loads.len() < loads.len() {
            self.worker_loads.resize(loads.len(), 0.0);
        }
        for (acc, l) in self.worker_loads.iter_mut().zip(loads) {
            *acc += l;
        }
    }
}

/// The layer ledger of one traced run. Names not set read zero.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, Summary>,
}

impl Ledger {
    pub fn set(&mut self, name: &'static str, s: Summary) {
        assert!(
            LAYERS.iter().any(|l| l.name == name),
            "{name} is not in the layer registry"
        );
        self.values.insert(name, s);
    }

    pub fn set_value(&mut self, name: &'static str, v: f64) {
        self.set(name, Summary::single(v));
    }

    /// Sets a value unless the workload already read a more exact one.
    fn set_default(&mut self, name: &'static str, v: f64) {
        if !self.values.contains_key(name) {
            self.set_value(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Summary {
        self.values
            .get(name)
            .copied()
            .unwrap_or(Summary::single(0.0))
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// What `ops_per_s` counts on this workload.
    const UNIT: &'static str;
    /// The highest percentile that keeps at least ten samples beyond it
    /// at this workload's request count (`lat_tail_us`).
    const TAIL_PERCENTILE: f64;
    /// Whether the calling thread is a load generator (its CPU is then
    /// not the runtime's) or worker 0 of a region.
    const CALLER_IS_CLIENT: bool;
    /// Whether `lat_tail_us` is the median of per-repetition tails (serve
    /// windows hold thousands of requests) or the percentile over the
    /// run's repetitions (a region or loop is one request).
    const TAIL_PER_REP: bool;

    /// Input generation from the seed, the sequential reference, runtime
    /// or server construction and warm-up repetitions.
    fn setup(seed: u64, sizing: &Sizing) -> Self;
    fn rep(&mut self) -> Rep;
    /// A repetition with spans around every call into a layer and
    /// counters read at the same boundaries.
    fn traced_rep(&mut self, trace: &mut Trace) -> Rep;
    /// Re-runs under the flight recorder's `level` from now on.
    fn set_trace_level(&mut self, level: TraceLevel);
    /// Legs that difference two configurations on this workload's input,
    /// and whatever else only this workload can read. `budget` is what
    /// the run can spare.
    fn layer_legs(&mut self, trace: &mut Trace, ledger: &mut Ledger, budget: Duration);
    /// Stops the runtime; returns operations found failed by the final
    /// conservation checks, folding team counters into `trace`.
    fn teardown(self, trace: Option<(&mut Trace, &mut Ledger)>) -> u64;
}

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub sizing: Sizing,
}

/// A finished run: what goes on the result line plus the quartiles
/// behind each value.
pub struct Outcome {
    pub workload: &'static str,
    pub unit: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
}

fn lat_p50s(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.lat_p50_us).collect()
}

/// The untraced run: `SETUPS` complete set-ups, then repetitions for
/// `seconds`, then the conservation checks.
pub fn run_untraced<W: Workload>(opts: &RunOpts) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut failed = 0;
    let mut workload = None;
    for _ in 0..SETUPS {
        if let Some(prev) = workload.take() {
            failed += W::teardown(prev, None);
        }
        let t0 = Instant::now();
        workload = Some(W::setup(opts.seed, &opts.sizing));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUPS >= 1");

    let cpu0 = (procfs::process_cpu_s(), procfs::thread_cpu_s());
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < opts.seconds {
        reps.push(w.rep());
    }
    let cpu1 = (procfs::process_cpu_s(), procfs::thread_cpu_s());
    failed += W::teardown(w, None);

    let mut cpu = cpu1.0 - cpu0.0;
    if W::CALLER_IS_CLIENT {
        cpu -= cpu1.1 - cpu0.1;
    }
    let walls: Vec<f64> = reps
        .iter()
        .map(|r| clock::ticks_to_secs(r.wall_ticks))
        .collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| ratio(r.units as f64, clock::ticks_to_secs(r.wall_ticks)))
        .collect();
    let tails: Vec<f64> = reps.iter().map(|r| r.lat_tail_us).collect();
    let tail = if W::TAIL_PER_REP {
        Summary::of(&tails)
    } else {
        Summary::total(stats::percentile(&tails, W::TAIL_PERCENTILE), tails.len())
    };
    let value = |name: &str| -> Summary {
        match name {
            "setup_s" => Summary::of(&setups),
            "makespan_s" => Summary::of(&walls),
            "ops_per_s" => Summary::of(&rates),
            "lat_p50_us" => Summary::of(&lat_p50s(&reps)),
            "lat_tail_us" => tail,
            "cpu_s" => Summary::total(cpu.max(0.0) / reps.len() as f64, reps.len()),
            "peak_rss_mib" => Summary::single(procfs::peak_rss_mib()),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        }
    };
    Outcome {
        workload: W::NAME,
        unit: W::UNIT,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: failed + reps.iter().map(|r| r.failed).sum::<u64>(),
        metrics: metrics::E2E
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect(),
    }
}

/// The traced run: repetitions with and without spans, this workload's
/// differencing legs, then the micro legs.
pub fn run_traced<W: Workload>(opts: &RunOpts) -> Outcome {
    let started = Instant::now();
    let budget = |share: f64| Duration::from_secs_f64(opts.seconds * share);
    let mut ledger = Ledger::default();
    let mut trace = Trace::default();
    let mut w = W::setup(opts.seed, &opts.sizing);

    // Four variants of the repetition, interleaved so that drift in the
    // machine hits all of them alike: untraced (the base), with spans,
    // and untraced under each flight-recorder level.
    let phase = Instant::now();
    let (mut base, mut traced) = (Vec::new(), Vec::new());
    let (mut lifecycle, mut full) = (Vec::new(), Vec::new());
    while base.len() < 3 || phase.elapsed() < budget(0.45) {
        base.push(w.rep());
        traced.push(w.traced_rep(&mut trace));
        for (level, reps) in [
            (TraceLevel::Lifecycle, &mut lifecycle),
            (TraceLevel::Full, &mut full),
        ] {
            w.set_trace_level(level);
            reps.push(w.rep());
        }
        w.set_trace_level(TraceLevel::Off);
    }
    let base_p50 = stats::median(&lat_p50s(&base));
    for (name, reps) in [
        ("bench.span_overhead", &traced),
        ("profiling.trace.overhead_lifecycle", &lifecycle),
        ("profiling.trace.overhead_full", &full),
    ] {
        ledger.set_value(name, ratio(stats::median(&lat_p50s(reps)), base_p50));
    }

    w.layer_legs(&mut trace, &mut ledger, budget(0.2));

    let all_reps = || base.iter().chain(&traced).chain(&lifecycle).chain(&full);
    let mut attempted: u64 = all_reps().map(|r| r.attempted).sum();
    let mut failed: u64 = all_reps().map(|r| r.failed).sum();
    failed += w.teardown(Some((&mut trace, &mut ledger)));
    attempted = attempted.max(1);

    // Team counters, per traced repetition (paper Tables II/III).
    let t = trace.team;
    let f = |v: u64| v as f64;
    let team_size = if W::CALLER_IS_CLIENT {
        opts.sizing.workers
    } else {
        opts.sizing.team
    } as f64;
    let reps = trace.team_reps.max(1.0);
    ledger.set_value(
        "core.task.ns_per_task",
        ratio(team_size * trace.team_wall_s * 1e9, f(t.tasks_created)),
    );
    ledger.set_value(
        "core.task.imm_exec_ratio",
        ratio(f(t.ntasks_imm_exec), f(t.tasks_created)),
    );
    ledger.set_value(
        "core.task.self_ratio",
        ratio(f(t.ntasks_self), f(t.tasks_executed)),
    );
    ledger.set_value("core.dlb.requests", f(t.nreq_sent) / reps);
    ledger.set_value(
        "core.dlb.steal_success_ratio",
        ratio(f(t.nreq_has_steal), f(t.nreq_handled)),
    );
    ledger.set_value(
        "core.dlb.tasks_per_steal",
        ratio(f(t.ntasks_stolen), f(t.nreq_has_steal)),
    );
    ledger.set_value(
        "core.dlb.src_empty_ratio",
        ratio(f(t.nreq_src_empty), f(t.nreq_handled)),
    );
    ledger.set_value(
        "core.dlb.work_imbalance",
        stats::max_over_mean(&trace.worker_loads),
    );
    ledger.set_value(
        "core.loops.pct_imbalance",
        stats::pct_imbalance(&trace.worker_loads),
    );
    ledger.set_value("core.loops.cov", stats::cov(&trace.worker_loads));
    ledger.set_default("core.loops.chunks", f(t.nloop_chunks) / reps);
    ledger.set_default(
        "core.loops.claim_local_ratio",
        ratio(f(t.nloop_claim_local), f(t.nloop_chunks)),
    );
    ledger.set_default("core.loops.range_steals", f(t.nloop_range_steals) / reps);
    ledger.set_value("bench.fail_ratio", failed as f64 / attempted as f64);

    // Spans: what each call into the serving API cost.
    for (metric, span, scale) in [
        ("service.server.submit_call_ns", "submit_call", 1e3),
        ("service.handle.join_wake_us_p50", "join_wake", 1.0),
    ] {
        let d = trace.spans.durations_us(span);
        if !d.is_empty() {
            ledger.set_value(metric, stats::median(&d) * scale);
        }
    }
    for (metric, sample, p) in [
        ("service.ingress.queued_us_p50", "queued_us", 50.0),
        ("service.ingress.queued_us_p99", "queued_us", 99.0),
        ("service.server.run_us_p50", "run_us", 50.0),
    ] {
        ledger.set_value(metric, stats::percentile(trace.samples(sample), p));
    }
    print_span_table(&trace.spans);
    write_spans(W::NAME, &trace.spans);

    let spent = started.elapsed();
    let left = Duration::from_secs_f64(opts.seconds).saturating_sub(spent);
    micro::run_all(&mut ledger, left, &opts.sizing);

    Outcome {
        workload: W::NAME,
        unit: W::UNIT,
        attempted,
        failed,
        metrics: LAYERS
            .iter()
            .map(|l| (l.name, l.unit, ledger.get(l.name)))
            .collect(),
    }
}

/// Where each request's time went: per span name, the median duration
/// and the median self time (duration minus what its children cover).
fn print_span_table(spans: &SpanLog) {
    println!("  span            count      p50 us  self p50 us");
    for (name, count, p50, self_p50) in spans.summary() {
        println!("  {name:<12} {count:>8} {p50:>11.3} {self_p50:>12.3}");
    }
}

fn write_spans(workload: &str, spans: &SpanLog) {
    let path = crate::out_dir().join(format!("spans-{workload}.jsonl"));
    match spans.write_jsonl(&path, SPAN_FILE_REQUESTS) {
        Ok(n) => println!(
            "spans: {} recorded, {n} written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable table.
    pub fn print_table(&self) {
        println!(
            "workload {}  (ops = {}; attempted {} failed {})",
            self.workload, self.unit, self.attempted, self.failed
        );
        for (name, unit, s) in &self.metrics {
            println!(
                "  {name:<38} {:>16.6} {unit:<6} q1 {:<14.6} q3 {:<14.6} iqr {:>5.1}% n {}",
                s.median,
                s.q1,
                s.q3,
                s.spread() * 100.0,
                s.n
            );
        }
    }

    /// Every metric with its quartiles (the `detail` line the battery
    /// parent reads).
    pub fn detail_json(&self) -> Value {
        Value::Map(
            self.metrics
                .iter()
                .map(|(name, unit, s)| (name.to_string(), s.to_json(unit)))
                .collect(),
        )
    }

    /// The result line of the driver's contract.
    pub fn result_json(&self) -> Value {
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            (
                "metrics".into(),
                Value::Map(
                    self.metrics
                        .iter()
                        .map(|(name, unit, s)| {
                            (
                                name.to_string(),
                                Value::Map(vec![
                                    ("value".into(), Value::Float(s.median)),
                                    ("unit".into(), Value::Str(unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Microseconds between two clock stamps.
pub fn us_between(start: u64, end: u64) -> f64 {
    ticks_to_us(end.saturating_sub(start))
}
