//! Continuous observability pipeline, end to end: the streaming trace
//! drain (rolling on-disk segments with rotation, retention, and exact
//! drop accounting) and the in-process `/metrics` + `/healthz`
//! endpoint, driven through a live [`TaskServer`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use xgomp::service::{ServerConfig, TaskServer, STABLE_METRIC_FAMILIES};
use xgomp::{
    chrome_json_from_dir, final_summary, EventKind, LoopSchedule, RuntimeConfig, StreamLine,
    TraceLevel,
};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xgomp-stream-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads every rolled segment in rotation order.
fn read_segments(dir: &Path) -> Vec<String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("stream dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("segment readable"))
        .collect()
}

/// Every line of every segment, through the stream's one typed format
/// — asserting on the way that what the writer put on disk re-serialises
/// to something that parses back to the same line.
fn parse_segments(segments: &[String]) -> Vec<StreamLine> {
    let lines = segments.iter().flat_map(|s| s.lines());
    lines
        .map(|l| {
            let parsed = StreamLine::parse(l).expect("segment line parses");
            let again = StreamLine::parse(&parsed.to_json()).expect("round trip parses");
            assert_eq!(again, parsed, "line round-trips: {l}");
            parsed
        })
        .collect()
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body split present");
    (head.to_string(), body.to_string())
}

// ---- rolling drain: conservation under rotation + reshape --------------

#[test]
fn rolling_drain_conserves_across_rotations_and_reshape() {
    let dir = scratch_dir("conserve");
    let rt = RuntimeConfig::xgomptb(2).trace(TraceLevel::Full);
    let cfg = ServerConfig::new(2)
        .runtime(rt)
        // Tiny segments force rotation mid-load; a high retention cap
        // keeps every rolled segment so the whole stream is on disk.
        .trace_stream(&dir, 16 * 1024, 10_000)
        .trace_stream_interval(Duration::from_micros(300));
    let server = TaskServer::start(cfg);

    // Concurrent producers at Full level racing rotation, with a
    // pause + `resume_with` team reshape (2 → 3 workers) in between.
    let load = |server: &TaskServer, jobs: usize| {
        let handles: Vec<_> = (0..jobs)
            .map(|i| server.submit(move |_| i * 7).expect("submit"))
            .collect();
        let lh = server
            .submit_for(0..4_000u64, LoopSchedule::Guided(8), |i, _| {
                std::hint::black_box(i.wrapping_mul(0x9e3779b97f4a7c15));
            })
            .expect("submit loop");
        for h in handles {
            h.join().expect("job");
        }
        lh.join().expect("loop");
    };
    load(&server, 600);
    server.pause().expect("pause");
    server
        .resume_with(RuntimeConfig::xgomptb(3).trace(TraceLevel::Full))
        .expect("resume reshaped");
    load(&server, 600);
    server.shutdown();

    let segments = read_segments(&dir);
    assert!(segments.len() > 3, "tiny segments must have rotated");
    let summary = final_summary(&dir).expect("final drain summary");
    let rotations = summary.rotations;
    assert!(rotations >= 3, "expected ≥ 3 rotations, saw {rotations}");

    // Per-worker conservation: `position == drained + dropped` for every
    // cursor, and — the writers being quiesced by shutdown — position
    // reaches the ring's emitted count exactly.
    assert!(
        summary.workers.len() >= 3,
        "reshaped server has ≥ 3 worker rings"
    );
    for w in &summary.workers {
        assert_eq!(w.position, w.drained + w.dropped, "cursor identity");
        assert_eq!(w.position, w.emitted, "quiesced stream reaches every head");
    }
    assert_eq!(
        summary.drained + summary.dropped,
        summary.emitted(),
        "global conservation across all rolled segments"
    );

    // Cross-check the totals against the raw lines: all three line kinds
    // are on disk, the on-disk final summary is the last drain line, and
    // every non-synthetic event line is one drained record.
    let lines = parse_segments(&segments);
    assert!(matches!(lines[0], StreamLine::Segment(h) if h.seq == 0));
    let last_drain = lines.iter().rev().find_map(|l| match l {
        StreamLine::Drain(d) => Some(d),
        _ => None,
    });
    assert_eq!(last_drain, Some(&summary));
    let is_record =
        |l: &&StreamLine| matches!(l, StreamLine::Event(e) if e.kind != EventKind::DrainCycle);
    let event_lines = lines.iter().filter(is_record).count() as u64;
    assert_eq!(event_lines, summary.drained, "one line per drained record");

    // And the concatenation converts to valid Chrome-trace JSON.
    let chrome = chrome_json_from_dir(&dir).expect("trace2chrome");
    let parsed: serde_json::Value = serde_json::from_str(&chrome).expect("valid JSON");
    drop(parsed);
    assert!(chrome.contains("\"traceEvents\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pause_flush_barrier_completes_the_on_disk_stream() {
    let dir = scratch_dir("barrier");
    let rt = RuntimeConfig::xgomptb(2).trace(TraceLevel::Lifecycle);
    let server = TaskServer::start(
        ServerConfig::new(2)
            .runtime(rt)
            .trace_stream(&dir, 1 << 20, 10_000)
            // Deliberately glacial cadence: only the pause barrier can
            // explain the records reaching disk promptly.
            .trace_stream_interval(Duration::from_secs(30)),
    );
    let jobs = 40;
    let handles: Vec<_> = (0..jobs)
        .map(|i| server.submit(move |_| i).expect("submit"))
        .collect();
    for h in handles {
        h.join().expect("job");
    }
    server.pause().expect("pause");

    // Without resuming or shutting down: the paused stream already
    // carries every pre-pause record.
    let is_start =
        |l: &&StreamLine| matches!(l, StreamLine::Event(e) if e.kind == EventKind::JobStart);
    let lines = parse_segments(&read_segments(&dir));
    let starts = lines.iter().filter(is_start).count();
    assert_eq!(starts, jobs, "every pre-pause JobStart is on disk");
    server.resume().expect("resume");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- /metrics + /healthz endpoint --------------------------------------

#[test]
fn metrics_endpoint_serves_the_stable_schema_and_serve_state() {
    let server = TaskServer::start(ServerConfig::new(2).metrics_addr("127.0.0.1:0"));
    let addr = server.metrics_local_addr().expect("ephemeral bind");

    let handles: Vec<_> = (0..20)
        .map(|i| server.submit(move |_| i).expect("submit"))
        .collect();
    for h in handles {
        h.join().expect("job");
    }

    // /metrics: parseable exposition, every stable family exactly once.
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"));
    assert!(head.contains("text/plain; version=0.0.4"));
    for name in STABLE_METRIC_FAMILIES {
        assert_eq!(
            body.matches(&format!("# TYPE {name} ")).count(),
            1,
            "family {name} must appear exactly once"
        );
    }
    assert!(body.contains("xgomp_jobs_submitted_total 20"));

    // The scrape counter moves between scrapes (bumped before render,
    // so the very first scrape already reports itself).
    let first = json_scrape(&body, "xgomp_metrics_scrapes_total");
    assert!(first >= 1);
    let (_, body2) = http_get(addr, "/metrics");
    assert!(json_scrape(&body2, "xgomp_metrics_scrapes_total") > first);

    // /healthz tracks the lifecycle.
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"));
    assert!(head.contains("application/json"));
    assert!(body.contains("\"state\":\"serving\""), "got: {body}");
    server.pause().expect("pause");
    let (_, body) = http_get(addr, "/healthz");
    assert!(body.contains("\"state\":\"paused\""), "got: {body}");
    server.resume().expect("resume");
    let (_, body) = http_get(addr, "/healthz");
    assert!(body.contains("\"state\":\"serving\""), "got: {body}");

    // Unknown paths and methods are answered, not hung up on.
    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"));

    server.shutdown();
    // The listener is torn down with the server: connecting now fails.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be closed after shutdown"
    );
}

/// Scrapes one metric value out of a Prometheus exposition body.
fn json_scrape(prom: &str, name: &str) -> u64 {
    prom.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
        .unwrap_or(0)
}
