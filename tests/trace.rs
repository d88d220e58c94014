//! End-to-end flight-recorder semantics: ring conservation under
//! overwrite and concurrent readers, job-lifecycle spans through the
//! task server, automatic dump-on-panic, and trace continuity across
//! pause / `resume_with` reshaping.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use xgomp::service::{ServerConfig, TaskServer};
use xgomp::xqueue::{EventRing, RingCursor};
use xgomp::{DlbConfig, DlbStrategy, EventKind, MachineTopology, RuntimeConfig, TraceLevel};

fn traced_server(threads: usize, level: TraceLevel) -> TaskServer {
    let cfg = ServerConfig::new(threads);
    let rt = cfg.runtime.clone().trace(level);
    TaskServer::start(cfg.runtime(rt))
}

/// A fresh scratch directory under the target-adjacent temp root.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xgomp-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

// ---- event ring ------------------------------------------------------

#[test]
fn ring_overwrite_keeps_conservation_and_newest_events() {
    let ring = EventRing::with_capacity(64);
    let total = 1_000u64;
    for i in 0..total {
        ring.emit(i, 1, 0, i, 0);
    }
    let mut cursor = RingCursor::default();
    let mut drained = Vec::new();
    let n = ring.drain(&mut cursor, &mut |e| drained.push(e.b));
    assert_eq!(n, drained.len() as u64);
    // Conservation: every emitted event is either drained or counted
    // dropped — the flight recorder never loses events silently.
    assert_eq!(drained.len() as u64 + cursor.dropped(), total);
    assert_eq!(ring.emitted(), total);
    assert_eq!(
        cursor.position(),
        total,
        "the cursor caught up with the head"
    );
    // Overwrite-oldest: what survives is the *newest* window, in order.
    assert_eq!(drained.len() as u64, ring.capacity() as u64 - 1);
    assert_eq!(*drained.last().unwrap(), total - 1);
    for pair in drained.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "retained window is contiguous");
    }
}

#[test]
fn ring_concurrent_writer_reader_stress_conserves_every_event() {
    let ring = Arc::new(EventRing::with_capacity(256));
    let total = 200_000u64;
    let writer = {
        let ring = ring.clone();
        std::thread::spawn(move || {
            for i in 0..total {
                ring.emit(i, 2, 7, i, i ^ 0xdead);
                if i % 1_024 == 0 {
                    std::thread::yield_now();
                }
            }
        })
    };
    let mut cursor = RingCursor::default();
    let mut drained = 0u64;
    let mut last_seq: Option<u64> = None;
    let mut scan = |e: xgomp::xqueue::RawEvent| {
        // Every record read while the writer races must be internally
        // consistent — the head-validation protocol may skip records,
        // but must never yield a torn one.
        assert_eq!(e.kind, 2);
        assert_eq!(e.a, 7);
        assert_eq!(e.c, e.b ^ 0xdead, "torn read: payload mismatch");
        if let Some(prev) = last_seq {
            assert!(e.b > prev, "drained sequence must advance");
        }
        last_seq = Some(e.b);
        drained += 1;
    };
    while !writer.is_finished() {
        ring.drain(&mut cursor, &mut scan);
    }
    writer.join().unwrap();
    ring.drain(&mut cursor, &mut scan);
    assert_eq!(
        drained + cursor.dropped(),
        total,
        "conservation must hold under concurrent draining"
    );
    assert_eq!(
        last_seq,
        Some(total - 1),
        "final drain reaches the newest event"
    );
}

// ---- server lifecycle tracing ----------------------------------------

#[test]
fn dump_on_panic_writes_parseable_trace_with_the_jobs_span() {
    let dir = scratch_dir("panic");
    let cfg = ServerConfig::new(2).trace_dump(&dir);
    let rt = cfg.runtime.clone().trace(TraceLevel::Lifecycle);
    let server = TaskServer::start(cfg.runtime(rt));

    // A healthy job first, then the panicking one.
    server.submit(|_| 1u32).unwrap().join().unwrap();
    let h = server
        .submit(|_| -> u32 { panic!("recorded crash") })
        .unwrap();
    let id = h.job_id();
    let err = h.join().unwrap_err();
    let panic = err.panic().expect("panicked job yields JobError::Panicked");
    assert!(panic.message.contains("recorded crash"));

    // The dump was written *before* the handle completed, so it is
    // already on disk here.
    let path = dir.join(format!("panic-job-{id}.trace.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("panic dump {} must exist: {e}", path.display()));
    // Structurally valid JSON (shim `Value` parse validates the tree).
    let _: serde_json::Value = serde_json::from_str(&text).expect("dump parses as JSON");
    assert!(
        text.contains(&format!("\"name\":\"job {id}\"")),
        "dump must contain the panicking job's span"
    );
    assert!(
        text.contains("\"panicked\":1"),
        "the span must be marked panicked"
    );

    server.shutdown();
    // Shutdown adds its own dump when a dump dir is configured.
    assert!(
        dir.join("shutdown.trace.json").exists(),
        "shutdown must leave a final flight-recorder dump"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_survives_pause_and_resume_with_reshaping() {
    let server = traced_server(2, TraceLevel::Lifecycle);
    for i in 0..10u64 {
        server.submit(move |_| i).unwrap().join().unwrap();
    }
    server.pause().unwrap();
    // Grow the team across the generation boundary; the recorder (and
    // everything it already holds) must ride along.
    server
        .resume_with(RuntimeConfig::xgomptb(4).trace(TraceLevel::Lifecycle))
        .unwrap();
    for i in 0..10u64 {
        server.submit(move |_| i).unwrap().join().unwrap();
    }
    let snap = server.trace_snapshot();
    assert_eq!(
        snap.count(EventKind::JobStart),
        20,
        "job spans from both generations in one stream"
    );
    assert_eq!(snap.count(EventKind::JobEnd), 20);
    assert_eq!(snap.count(EventKind::GenOpen), 2);
    assert_eq!(
        snap.count(EventKind::GenClose),
        1,
        "generation 2 still open"
    );
    // The chrome export stays well-formed across the reshape.
    let _: serde_json::Value =
        serde_json::from_str(&snap.to_chrome_json()).expect("chrome JSON parses");
    server.shutdown();
}

#[test]
fn full_trace_captures_loop_and_runtime_events() {
    let server = traced_server(4, TraceLevel::Full);
    let seen = Arc::new(AtomicBool::new(false));
    let s = seen.clone();
    let report = server
        .submit_for(0..4_000, xgomp::LoopSchedule::Guided(16), move |_, _| {
            s.store(true, Ordering::Relaxed);
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(report.iterations, 4_000);
    assert!(seen.load(Ordering::Relaxed));
    let snap = server.trace_snapshot();
    assert!(
        snap.count(EventKind::ChunkClaim) > 0,
        "Full level records loop chunk claims"
    );
    assert!(
        snap.count(EventKind::Task) > 0,
        "Full level records task spans"
    );
    server.shutdown();

    // One `ChunkClaim` per *executed* chunk, wherever its units came
    // from. Two zones with all the cost in zone 1's half, so zone 0
    // drains its own pool and must steal across: chunks
    // cut from the stolen ranges are on the timeline like any other.
    // 250 chunks stay far inside the 4096-record rings.
    let rt = RuntimeConfig::xgomptb(4)
        .topology(MachineTopology::new(2, 2, 1))
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal))
        .trace(TraceLevel::Full);
    let server = TaskServer::start(ServerConfig::new(4).runtime(rt));
    let report = server
        .submit_for(0..4_000, xgomp::LoopSchedule::Dynamic(16), |i, _| {
            if i >= 2_000 {
                for _ in 0..2_000 {
                    std::hint::spin_loop();
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(report.iterations, 4_000);
    assert!(report.range_steals > 0, "zone 0 had to steal");
    let snap = server.trace_snapshot();
    assert_eq!(snap.dropped, 0, "the rings did not wrap");
    assert_eq!(snap.count(EventKind::ChunkClaim) as u64, report.chunks);
    assert_eq!(
        snap.count(EventKind::RangeSteal) as u64,
        report.range_steals
    );
    server.shutdown();
}
