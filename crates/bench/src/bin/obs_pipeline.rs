//! Continuous-observability pipeline driver for CI: starts a
//! [`TaskServer`] with both halves of the pipeline on — the streaming
//! trace collector rolling segments into `--dir` and the in-process
//! `/metrics` + `/healthz` listener on `--addr` — then sustains a mixed
//! jobs-plus-loops load for `--secs` seconds so an *external* scraper
//! (CI uses `python3 -c 'urllib...'`) can exercise the endpoint over
//! real TCP while the server is hot.
//!
//! ```text
//! cargo run --release -p xgomp-bench --bin obs_pipeline -- \
//!     --addr 127.0.0.1:9184 --dir results/obs --secs 5
//! ```
//!
//! On the way out it shuts the server down and re-checks the pipeline
//! contract from the rolled files: zero collector drops, ≥ 3 segment
//! rotations, and exact `drained + dropped == emitted` conservation in
//! the final on-disk summary.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use xgomp_bench::harness::fmt_count;
use xgomp_core::{chrome_json_from_dir, final_summary, LoopSchedule, RuntimeConfig, TraceLevel};
use xgomp_service::{ServerConfig, TaskServer};

struct Opts {
    addr: String,
    dir: PathBuf,
    secs: u64,
    threads: usize,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        addr: "127.0.0.1:0".to_string(),
        dir: std::env::temp_dir().join(format!("xgomp-obs-pipeline-{}", std::process::id())),
        secs: 5,
        threads: 4,
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
            "--addr" => opts.addr = take(i),
            "--dir" => opts.dir = PathBuf::from(take(i)),
            "--secs" => {
                opts.secs = take(i).parse().unwrap_or_else(|_| {
                    eprintln!("--secs expects a number");
                    std::process::exit(2);
                })
            }
            "--threads" => {
                opts.threads = take(i).parse().unwrap_or_else(|_| {
                    eprintln!("--threads expects a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "unknown flag `{other}`\nusage: obs_pipeline [--addr HOST:PORT] [--dir DIR] \
                     [--secs N] [--threads N]"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    opts
}

fn spin(n: u64) -> u64 {
    let mut x = 0u64;
    for i in 0..n {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(x)
}

fn main() {
    let opts = parse_opts();
    let _ = std::fs::remove_dir_all(&opts.dir);
    let threads = opts.threads.max(2);
    let rt = RuntimeConfig::xgomptb(threads).trace(TraceLevel::Lifecycle);
    let server = TaskServer::start(
        ServerConfig::new(threads)
            .runtime(rt)
            .trace_stream(&opts.dir, 256 * 1024, 64)
            .trace_stream_interval(Duration::from_micros(500))
            .metrics_addr(&opts.addr),
    );
    let addr = server.metrics_local_addr().unwrap_or_else(|| {
        eprintln!("metrics listener failed to bind {}", opts.addr);
        std::process::exit(1);
    });
    // The scraping side (CI) parses this line to find the endpoint.
    println!(
        "obs_pipeline: serving http://{addr}/metrics for {}s",
        opts.secs
    );

    let deadline = Instant::now() + Duration::from_secs(opts.secs);
    let mut batches = 0u64;
    while Instant::now() < deadline {
        let handles: Vec<_> = (0..256)
            .map(|j| {
                let grain = if j % 8 == 0 { 32_768 } else { 2_048 };
                server.submit(move |_| spin(grain)).expect("submit")
            })
            .collect();
        let lh = server
            .submit_for(0..2_000u64, LoopSchedule::Guided(16), |i, _| {
                spin(64 + (i & 63));
            })
            .expect("submit loop");
        for h in handles {
            h.join().expect("job");
        }
        lh.join().expect("loop");
        batches += 1;
    }
    let stats = server.stats();
    let stream = server.trace_stream_stats().expect("stream configured");
    server.shutdown();

    // Contract re-check from the files (same checks as the
    // trace_overhead stream leg).
    let summary = final_summary(&opts.dir).expect("final drain summary");
    let (drained, rotations) = (summary.drained, summary.rotations);
    assert_eq!(summary.dropped, 0, "collector must keep up under load");
    assert!(rotations >= 3, "expected ≥ 3 rotations, saw {rotations}");
    assert_eq!(
        drained + summary.dropped,
        summary.emitted(),
        "on-disk conservation"
    );
    let segments = std::fs::read_dir(&opts.dir).expect("stream dir").count();
    let chrome = chrome_json_from_dir(&opts.dir).expect("trace2chrome");
    assert!(chrome.starts_with('{'));

    println!(
        "obs_pipeline OK: {} jobs in {batches} batches; {} records drained across {} segments \
         ({rotations} rotations), 0 dropped; live-counter floor {}; chrome conversion {} bytes",
        fmt_count(stats.completed),
        fmt_count(drained),
        segments,
        fmt_count(stream.drained),
        fmt_count(chrome.len() as u64),
    );
}
