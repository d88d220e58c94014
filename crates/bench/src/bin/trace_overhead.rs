//! Flight-recorder overhead measurement: the same mixed-grain ingress
//! workload served under `TraceLevel::Off` / `Lifecycle` / `Full`,
//! against an untraced baseline leg.
//!
//! Every instrumentation site added with the flight recorder is gated on
//! one relaxed load + branch when tracing is off; this binary checks that
//! claim end to end: the `off` leg must match the `baseline` leg (also
//! `Off` — the pair measures pure run-to-run noise) within the noise
//! band, and the `lifecycle`/`full` legs report their measured per-event
//! cost so regressions in the emit path are visible in CI artifacts.
//!
//! ```text
//! cargo run --release -p xgomp-bench --bin trace_overhead -- \
//!     --scale test --emit-artifacts results/trace
//! ```
//!
//! With `--emit-artifacts DIR`, the `full` leg also writes
//! `DIR/trace.json` (Chrome-tracing / Perfetto) and `DIR/metrics.prom`
//! (Prometheus text) — the single-command observability artifact flow.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xgomp_bench::harness::fmt_count;
use xgomp_bench::Table;
use xgomp_core::{chrome_json_from_dir, final_summary, LoopSchedule, RuntimeConfig, TraceLevel};
use xgomp_service::{ServerConfig, TaskServer, STABLE_METRIC_FAMILIES};

struct Opts {
    scale: String,
    threads: usize,
    reps: usize,
    artifacts: Option<PathBuf>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        scale: "quick".to_string(),
        threads: 4,
        reps: 5,
        artifacts: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> String {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--scale" => opts.scale = take(i),
            "--threads" => {
                opts.threads = take(i).parse().unwrap_or_else(|_| {
                    eprintln!("--threads expects a number");
                    std::process::exit(2);
                })
            }
            "--reps" => {
                opts.reps = take(i).parse().unwrap_or_else(|_| {
                    eprintln!("--reps expects a number");
                    std::process::exit(2);
                })
            }
            "--emit-artifacts" => opts.artifacts = Some(PathBuf::from(take(i))),
            other => {
                eprintln!(
                    "unknown flag `{other}`\nusage: trace_overhead [--scale test|quick|paper] \
                     [--threads N] [--reps N] [--emit-artifacts DIR]"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    opts
}

/// Busy-work of `n` dependent steps (the optimizer cannot elide it).
fn spin(n: u64) -> u64 {
    let mut x = 0u64;
    for i in 0..n {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(x)
}

struct Leg {
    name: &'static str,
    median_secs: f64,
    events: u64,
    dropped: u64,
}

/// Scrapes one metric value out of a Prometheus text exposition.
fn scrape(prom: &str, name: &str) -> u64 {
    prom.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
        .unwrap_or(0)
}

#[allow(clippy::too_many_arguments)]
fn run_leg(
    name: &'static str,
    level: TraceLevel,
    threads: usize,
    jobs: usize,
    loops: usize,
    loop_len: u64,
    reps: usize,
    artifacts: Option<&Path>,
) -> Leg {
    let rt = RuntimeConfig::xgomptb(threads).trace(level);
    let server = TaskServer::start(ServerConfig::new(threads).runtime(rt));

    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(jobs);
        for j in 0..jobs {
            // Mixed grain: mostly fine tasks, every 8th an order of
            // magnitude coarser — the ingress mix a task server sees.
            let grain = if j % 8 == 0 { 32_768 } else { 2_048 };
            handles.push(server.submit(move |_| spin(grain)).expect("submit"));
        }
        let mut loop_handles = Vec::with_capacity(loops);
        for _ in 0..loops {
            loop_handles.push(
                server
                    .submit_for(0..loop_len, LoopSchedule::Guided(16), |i, _| {
                        spin(64 + (i & 63));
                    })
                    .expect("submit loop"),
            );
        }
        for h in handles {
            h.join().expect("job");
        }
        for h in loop_handles {
            h.join().expect("loop job");
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let median_secs = times[times.len() / 2];

    let prom = server.render_prometheus();
    let events = scrape(&prom, "xgomp_trace_events_emitted_total");
    let dropped = scrape(&prom, "xgomp_trace_events_dropped_total");
    if let Some(dir) = artifacts {
        std::fs::create_dir_all(dir).expect("artifact dir");
        server
            .dump_trace(dir.join("trace.json"))
            .expect("trace dump");
        std::fs::write(dir.join("metrics.prom"), &prom).expect("metrics dump");
        println!(
            "artifacts: {} ({} events), {}",
            dir.join("trace.json").display(),
            fmt_count(events),
            dir.join("metrics.prom").display()
        );
    }
    server.shutdown();
    Leg {
        name,
        median_secs,
        events,
        dropped,
    }
}

/// One plain-text HTTP/1.1 GET against the in-process listener; returns
/// the response body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "expected 200 from {path}, got: {head}"
    );
    body.to_string()
}

/// The streaming-drain leg: the same workload at `Lifecycle`, with the
/// continuous pipeline on — collector tailing the rings into small
/// rolling segments (forcing rotations) and the `/metrics` listener
/// scraped mid-load. Asserts the pipeline's CI contract: zero
/// collector drops, ≥ 3 rotations, exact conservation in the final
/// on-disk summary, every stable metric family in the live scrape.
#[allow(clippy::too_many_arguments)]
fn run_stream_leg(
    threads: usize,
    jobs: usize,
    loops: usize,
    loop_len: u64,
    reps: usize,
    artifacts: Option<&Path>,
) -> Leg {
    let dir = artifacts.map(|d| d.join("stream")).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("xgomp-trace-stream-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let rt = RuntimeConfig::xgomptb(threads).trace(TraceLevel::Lifecycle);
    let server = TaskServer::start(
        ServerConfig::new(threads)
            .runtime(rt)
            .trace_stream(&dir, 256 * 1024, 64)
            .trace_stream_interval(Duration::from_micros(500))
            .metrics_addr("127.0.0.1:0"),
    );
    let addr = server
        .metrics_local_addr()
        .expect("metrics listener bound on an ephemeral port");

    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(jobs);
        for j in 0..jobs {
            let grain = if j % 8 == 0 { 32_768 } else { 2_048 };
            handles.push(server.submit(move |_| spin(grain)).expect("submit"));
        }
        let mut loop_handles = Vec::with_capacity(loops);
        for _ in 0..loops {
            loop_handles.push(
                server
                    .submit_for(0..loop_len, LoopSchedule::Guided(16), |i, _| {
                        spin(64 + (i & 63));
                    })
                    .expect("submit loop"),
            );
        }
        for h in handles {
            h.join().expect("job");
        }
        for h in loop_handles {
            h.join().expect("loop job");
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let median_secs = times[times.len() / 2];

    // Live scrape under load: a parseable exposition carrying every
    // stable family, and a healthy serve state.
    let scraped = http_get(addr, "/metrics");
    for name in STABLE_METRIC_FAMILIES {
        assert!(
            scraped.contains(&format!("# TYPE {name} ")),
            "live /metrics scrape is missing family {name}"
        );
    }
    assert!(scrape(&scraped, "xgomp_metrics_scrapes_total") >= 1);
    let health = http_get(addr, "/healthz");
    assert!(
        health.contains("\"state\":\"serving\""),
        "loaded server must report serving, got: {health}"
    );

    let prom = server.render_prometheus();
    let events = scrape(&prom, "xgomp_trace_events_emitted_total");
    let live = server.trace_stream_stats().expect("stream configured");
    server.shutdown();

    // The files carry the contract: the stream's final summary
    // (cumulative totals + per-worker rows).
    let summary = final_summary(&dir).expect("final drain summary");
    let (drained, dropped, rotations) = (summary.drained, summary.dropped, summary.rotations);
    let emitted_sum = summary.emitted();
    let segments = std::fs::read_dir(&dir).expect("stream dir").count();
    assert_eq!(
        dropped, 0,
        "collector must keep up with the rings at Lifecycle load"
    );
    assert!(
        rotations >= 3,
        "small segments under load must rotate ≥ 3 times, saw {rotations}"
    );
    assert_eq!(
        drained + dropped,
        emitted_sum,
        "conservation must hold exactly across every rotation"
    );
    assert!(
        live.drained <= drained,
        "live counters never exceed the final accounting"
    );
    // And the retained concatenation still converts to Chrome JSON.
    let chrome = chrome_json_from_dir(&dir).expect("trace2chrome over rolled segments");
    assert!(chrome.starts_with('{'), "chrome trace is a JSON object");
    println!(
        "stream: {} records drained across {} segments ({rotations} rotations), 0 dropped; \
         chrome conversion {} bytes",
        fmt_count(drained),
        segments,
        fmt_count(chrome.len() as u64)
    );
    if artifacts.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Leg {
        name: "stream",
        median_secs,
        events,
        dropped,
    }
}

fn main() {
    let opts = parse_opts();
    let (jobs, loops, loop_len) = match opts.scale.as_str() {
        "test" => (3_000, 2, 2_000),
        "quick" => (12_000, 4, 8_000),
        "paper" => (60_000, 8, 32_000),
        other => {
            eprintln!("unknown scale `{other}` (test|quick|paper)");
            std::process::exit(2);
        }
    };
    let threads = opts.threads.max(2);
    let reps = opts.reps.max(3);

    // Warm-up: page in the allocator, spin the team up once.
    run_leg(
        "warmup",
        TraceLevel::Off,
        threads,
        jobs / 4,
        1,
        loop_len / 4,
        1,
        None,
    );

    let baseline = run_leg(
        "baseline",
        TraceLevel::Off,
        threads,
        jobs,
        loops,
        loop_len,
        reps,
        None,
    );
    let off = run_leg(
        "off",
        TraceLevel::Off,
        threads,
        jobs,
        loops,
        loop_len,
        reps,
        None,
    );
    let lifecycle = run_leg(
        "lifecycle",
        TraceLevel::Lifecycle,
        threads,
        jobs,
        loops,
        loop_len,
        reps,
        None,
    );
    let full = run_leg(
        "full",
        TraceLevel::Full,
        threads,
        jobs,
        loops,
        loop_len,
        reps,
        opts.artifacts.as_deref(),
    );
    let stream = run_stream_leg(
        threads,
        jobs,
        loops,
        loop_len,
        reps,
        opts.artifacts.as_deref(),
    );

    let mut t = Table::new(
        format!(
            "flight-recorder overhead: {jobs} mixed-grain jobs + {loops} guided loops per rep, \
             {threads} workers, median of {reps} reps"
        ),
        &["leg", "median", "vs off", "events", "dropped", "cost/event"],
    );
    for leg in [&baseline, &off, &lifecycle, &full, &stream] {
        let rel = leg.median_secs / off.median_secs.max(1e-12);
        let cost = if leg.events > 0 {
            let delta = leg.median_secs - off.median_secs;
            format!("{:.1} ns", delta * 1e9 / leg.events as f64)
        } else {
            "-".to_string()
        };
        t.row(vec![
            leg.name.to_string(),
            format!("{:.3} ms", leg.median_secs * 1e3),
            format!("{rel:.3}x"),
            fmt_count(leg.events),
            fmt_count(leg.dropped),
            cost,
        ]);
    }
    t.print();

    assert_eq!(baseline.events, 0, "Off must record nothing");
    assert_eq!(off.events, 0, "Off must record nothing");
    assert!(lifecycle.events > 0, "Lifecycle must record job spans");
    assert!(
        full.events > lifecycle.events,
        "Full must add task/steal/chunk events on top of Lifecycle"
    );

    // Off-mode overhead must be indistinguishable from run-to-run noise:
    // `off` and `baseline` measure the *same* configuration, so their
    // spread *is* the noise band. The tolerance is deliberately generous
    // at test scale (shared CI runners) — the assertion exists to catch
    // an accidentally un-gated emit path (an order-of-magnitude effect),
    // not single-percent drift.
    let noise = (off.median_secs - baseline.median_secs).abs() / baseline.median_secs.max(1e-12);
    let tolerance = if opts.scale == "test" { 0.50 } else { 0.25 };
    println!(
        "\noff-vs-baseline delta: {:.1}% (tolerance {:.0}%)",
        noise * 1e2,
        tolerance * 1e2
    );
    assert!(
        noise < tolerance,
        "Off-mode trace gating cost exceeded the noise band: off {:.3} ms vs baseline {:.3} ms",
        off.median_secs * 1e3,
        baseline.median_secs * 1e3
    );
    println!("OK: Off-mode tracing is free to within noise; per-event costs above.");
}
