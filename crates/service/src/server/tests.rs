//! Unit tests of the serving layer (the `server` module tree).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::*;
use crate::{locked, JobHandle, LoopSchedule, SubmitOptions, TraceLevel};
use xgomp_core::{EventKind, TaskCtx};

#[test]
fn jobs_roundtrip_results() {
    let server = TaskServer::start(ServerConfig::new(4));
    let handles: Vec<_> = (0..200u64)
        .map(|i| server.submit(move |_| i * 3).unwrap())
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as u64 * 3);
    }
    let report = server.shutdown();
    assert_eq!(report.stats.completed, 200);
    assert_eq!(report.stats.in_flight, 0);
    assert_eq!(report.stats.generations, 1);
    assert!(report.prior_regions.is_empty(), "single generation");
    let region = report.region.expect("clean serve");
    region.stats.check_invariants().unwrap();
}

#[test]
fn jobs_can_fan_out_into_tasks() {
    let server = TaskServer::start(ServerConfig::new(4));
    let h = server
        .submit(|ctx| {
            let mut squares = vec![0u64; 64];
            ctx.scope(|s| {
                for (i, sq) in squares.iter_mut().enumerate() {
                    s.spawn(move |_| *sq = (i as u64) * (i as u64));
                }
            });
            squares.iter().sum::<u64>()
        })
        .unwrap();
    assert_eq!(h.join().unwrap(), (0..64u64).map(|i| i * i).sum());
    // 1 job task + 64 subtasks.
    let report = server.shutdown();
    assert_eq!(
        report
            .region
            .expect("clean serve")
            .stats
            .total()
            .tasks_executed,
        65
    );
}

#[test]
fn submit_for_serves_loops_as_jobs() {
    use std::sync::atomic::AtomicU64;

    let server = TaskServer::start(ServerConfig::new(4));
    let sum = Arc::new(AtomicU64::new(0));
    let s = sum.clone();
    let report = server
        .submit_for(0..10_000u64, LoopSchedule::Dynamic(64), move |i, _| {
            s.fetch_add(i + 1, Ordering::Relaxed);
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(report.iterations, 10_000);
    assert!(report.chunks >= 10_000 / 64);
    assert_eq!(sum.load(Ordering::Relaxed), (1..=10_000u64).sum());

    // A plain job and a loop job coexist.
    let h = server.submit(|_| 7u32).unwrap();
    assert_eq!(h.join().unwrap(), 7);

    // Loop counters are surfaced on the live server stats and in the
    // per-schedule telemetry.
    let stats = server.stats();
    assert_eq!(stats.loops, 1);
    assert_eq!(stats.loop_iters, 10_000);
    assert!(stats.loop_chunks >= 10_000 / 64);
    let per = server.loop_telemetry().per_schedule;
    assert_eq!(per[LoopSchedule::Dynamic(64).index()].loops, 1);
    assert_eq!(per[LoopSchedule::Static.index()].loops, 0);

    // …and in the generation's RegionOutput on shutdown.
    let report = server.shutdown();
    let region = report.region.expect("clean serve");
    region.stats.check_invariants().unwrap();
    assert_eq!(region.stats.total().nloop_iters, 10_000);
}

#[test]
fn loop_panics_are_isolated_per_job() {
    let server = TaskServer::start(ServerConfig::new(2));
    let err = server
        .submit_for(0..100, LoopSchedule::Dynamic(8), |i, _| {
            if i == 37 {
                panic!("iteration 37 exploded");
            }
        })
        .unwrap()
        .join()
        .unwrap_err();
    assert!(err.panic().expect("panicked").message.contains("exploded"));
    // The server survives and keeps serving.
    let h = server.submit(|_| 5u32).unwrap();
    assert_eq!(h.join().unwrap(), 5);
    server.shutdown();
}

#[test]
fn backpressure_bounds_admission() {
    // One worker that is blocked on a gate ⇒ in-flight saturates.
    let gate = Arc::new(AtomicBool::new(false));
    let server = TaskServer::start(
        ServerConfig::new(1)
            .max_in_flight(4)
            .ls_reserve(0)
            .lanes_per_shard(1)
            .lane_capacity(8),
    );
    assert_eq!(server.stats().max_in_flight, 4, "bound under capacity");
    let mut handles = Vec::new();
    let mut accepted = 0;
    for _ in 0..64 {
        let gate = gate.clone();
        match server.try_submit(move |_| {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }) {
            Ok(h) => {
                handles.push(h);
                accepted += 1;
            }
            Err(e) => {
                assert!(e.is_backpressure(), "serving bound ⇒ Backpressure: {e:?}");
                break;
            }
        }
    }
    assert!(
        accepted <= 4 + 1,
        "admission exceeded the bound: {accepted} accepted"
    );
    assert!(server.stats().rejected == 0 || accepted >= 4);
    gate.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn closed_server_rejects_submissions() {
    let server = TaskServer::start(ServerConfig::new(2));
    let h = server.submit(|_| 1u32).unwrap();
    assert_eq!(h.join().unwrap(), 1);
    let report = server.shutdown();
    assert_eq!(report.stats.submitted, 1);
}

#[test]
#[should_panic(expected = "max_in_flight must be ≥ 1")]
fn zero_in_flight_bound_is_rejected_loudly() {
    let mut cfg = ServerConfig::new(1);
    cfg.max_in_flight = 0; // bypasses the builder's own assert
    let _ = TaskServer::start(cfg);
}

#[test]
fn effective_in_flight_bound_is_surfaced() {
    // Configured 1 000 000 but the rings only hold 1 lane × 8 slots:
    // the clamp must be visible instead of silently applied.
    let server = TaskServer::start(
        ServerConfig::new(1)
            .max_in_flight(1_000_000)
            .lanes_per_shard(1)
            .lane_capacity(8),
    );
    let capacity = server.ingress().capacity();
    assert_eq!(server.stats().max_in_flight, capacity);
    let report = server.shutdown();
    assert_eq!(report.stats.max_in_flight, capacity);
}

#[test]
fn registered_submitter_roundtrips_through_its_lane() {
    let server = TaskServer::start(ServerConfig::new(2).lanes_per_shard(2));
    let mut sub = server.register_submitter(0);
    assert!(sub.lane().is_some(), "a free lane must be reserved");
    let handles: Vec<_> = (0..100u64)
        .map(|i| sub.submit(move |_| i + 7).unwrap())
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as u64 + 7);
    }
    let lane = sub.lane().unwrap();
    let counters = server.ingress().shard(sub.shard()).lane_counters();
    assert_eq!(counters[lane].0, 100, "all jobs went through the pin");
    assert_eq!(counters[lane].1, 100, "and were drained from it");
    // From a pause onward the pinned route diverts to the spill: the
    // rings belong to the pause drain, so the lane sees no push.
    server.pause().unwrap();
    let spilled = sub.try_submit(|_| 9u32).unwrap();
    assert_eq!(server.stats().queued, 1);
    let counters = server.ingress().shard(sub.shard()).lane_counters();
    assert_eq!(counters[lane].0, 100, "paused pinned submit spilled");
    server.resume().unwrap();
    assert_eq!(spilled.join().unwrap(), 9);
    drop(sub);
    // Lane released: a new registration gets it back.
    let again = server.register_submitter(0);
    assert!(again.lane().is_some());
    drop(again);
    server.shutdown();
}

#[test]
fn registration_falls_back_when_lanes_exhausted() {
    let server = TaskServer::start(ServerConfig::new(1).lanes_per_shard(2));
    let mut a = server.register_submitter(0);
    let mut b = server.register_submitter(0);
    assert!(a.lane().is_some());
    assert!(
        b.lane().is_none(),
        "only one reservable lane (lane 0 stays anonymous)"
    );
    // Both handles still submit fine.
    assert_eq!(a.submit(|_| 4u32).unwrap().join().unwrap(), 4);
    assert_eq!(b.submit(|_| 5u32).unwrap().join().unwrap(), 5);
    // Spill-on-pause through both routes: the pinned handle and the
    // lane-less (anonymous-route) one queue for the next generation.
    server.pause().unwrap();
    let (ha, hb) = (a.submit(|_| 6u32).unwrap(), b.submit(|_| 7u32).unwrap());
    assert_eq!(server.stats().queued, 2);
    assert_eq!(
        server.ingress().occupancy(),
        0,
        "both spilled, no ring push"
    );
    server.resume().unwrap();
    assert_eq!((ha.join().unwrap(), hb.join().unwrap()), (6, 7));
    drop((a, b));
    server.shutdown();
}

#[test]
fn pause_resume_roundtrip_completes_queued_jobs() {
    let server = TaskServer::start(ServerConfig::new(2));
    assert_eq!(server.lifecycle(), Lifecycle::Serving);
    let before = server.submit(|_| 1u32).unwrap();
    server.pause().unwrap();
    assert_eq!(server.lifecycle(), Lifecycle::Paused);
    assert_eq!(before.join().unwrap(), 1, "in-team job drained by pause");

    // Queued while paused: admitted, not executed.
    let queued = server.submit(|_| 2u32).unwrap();
    assert!(!queued.is_done());
    assert_eq!(server.stats().queued, 1);

    // Pause is idempotent; resume on a serving server errors.
    server.pause().unwrap();
    server.resume().unwrap();
    assert_eq!(server.lifecycle(), Lifecycle::Serving);
    assert_eq!(server.resume(), Err(LifecycleError::NotPaused));
    assert_eq!(queued.join().unwrap(), 2);

    let report = server.shutdown();
    assert_eq!(report.stats.completed, 2);
    assert_eq!(report.stats.generations, 2);
    assert_eq!(report.prior_regions.len(), 1, "one retired generation");
    assert!(report.region.is_some());
}

#[test]
fn paused_at_capacity_bounces_with_paused_error() {
    let server = TaskServer::start(
        ServerConfig::new(1)
            .max_in_flight(2)
            .lanes_per_shard(1)
            .lane_capacity(4),
    );
    server.pause().unwrap();
    let a = server.try_submit(|_| 1u32).unwrap();
    let b = server.try_submit(|_| 2u32).unwrap();
    let bounced = server.try_submit(|_| 3u32).unwrap_err();
    assert!(
        bounced.is_paused(),
        "bound reached while paused must be Paused, got {bounced:?}"
    );
    server.resume().unwrap();
    assert_eq!(a.join().unwrap(), 1);
    assert_eq!(b.join().unwrap(), 2);
    server.shutdown();

    // The same through a pinned lane, with the pause landing *while*
    // the placement waits on a full ring: one worker stuck in a gated
    // job, so nothing drains the 2-slot reserved lane.
    let server = TaskServer::start(
        ServerConfig::new(1)
            .max_in_flight(4)
            .ls_reserve(0)
            .lanes_per_shard(2)
            .lane_capacity(2),
    );
    let mut sub = server.register_submitter(0);
    let lane = sub.lane().expect("lane 1 is reservable");
    let (gate, running) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let (g, r) = (gate.clone(), running.clone());
    let blocker = server
        .submit(move |_| {
            r.store(true, Ordering::Release);
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
        .unwrap();
    while !running.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let queued: Vec<_> = (0..2u32)
        .map(|i| sub.try_submit(move |_| i).unwrap())
        .collect();
    std::thread::scope(|s| {
        // Admitted (3 of 4 slots used) but the lane is full: this
        // submit waits inside `place` until the pause diverts it.
        let third = s.spawn(|| sub.try_submit(|_| 2u32).unwrap());
        while server.in_flight() != 4 {
            std::thread::yield_now();
        }
        let pause = s.spawn(|| server.pause().unwrap());
        let third = third.join().unwrap();
        let pushed = server.ingress().shard(0).lane_counters()[lane].0;
        assert_eq!(pushed, 2, "the third job spilled instead of blocking");
        let bounced = server.try_submit(|_| ()).unwrap_err();
        assert!(bounced.is_backpressure(), "still draining: {bounced:?}");
        gate.store(true, Ordering::Release);
        pause.join().unwrap();
        // The pause drained what was in the team and the rings; the
        // spilled job waits for the next generation.
        blocker.join().unwrap();
        for (i, h) in queued.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i as u32);
        }
        assert_eq!(server.stats().queued, 1);
        assert!(!third.is_done());
        server.resume().unwrap();
        assert_eq!(third.join().unwrap(), 2);
    });
    drop(sub);
    let report = server.shutdown();
    assert_eq!(report.stats.submitted, 4);
    assert_eq!(report.stats.completed, 4);
}

/// The pause drain's Dekker half, driven by hand: a producer admitted
/// while `SERVING` that has not pushed yet is counted in `in_flight`, so
/// the drain must wait for it — and its late ring push then completes
/// in the draining generation instead of stranding in a ring.
#[test]
fn pause_waits_for_an_admitted_job_still_being_placed() {
    let server = TaskServer::start(ServerConfig::new(2));
    let shared = server.shared.clone();
    shared.in_flight.fetch_add(1, Ordering::SeqCst);
    assert_eq!(server.lifecycle(), Lifecycle::Serving, "rings open");
    let (paused, ran) = (AtomicBool::new(false), Arc::new(AtomicBool::new(false)));
    let paused_early = std::thread::scope(|s| {
        s.spawn(|| {
            server.pause().unwrap();
            paused.store(true, Ordering::SeqCst);
        });
        while server.lifecycle() != Lifecycle::Draining {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        let early = paused.load(Ordering::SeqCst);
        // Push either way, so a failing run still retires the job and
        // the shutdown below cannot wait on it forever.
        let (ran2, ledger) = (ran.clone(), shared.clone());
        let job = JobRef::from_fn(move |_| {
            ran2.store(true, Ordering::SeqCst);
            ledger.in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(shared.ingress.push_from(0, job).is_ok());
        early
    });
    let (ran, stranded) = (ran.load(Ordering::SeqCst), server.ingress().occupancy());
    server.shutdown();
    assert!(!paused_early, "pause left a counted job behind");
    assert!(ran, "the late push ran before the pause ended");
    assert_eq!(stranded, 0);
}

#[test]
fn lifecycle_errors_after_shutdown_begins() {
    let server = TaskServer::start(ServerConfig::new(2));
    server.pause().unwrap();
    let queued = server.submit(|_| 7u32).unwrap();
    // Shutdown from paused: the queued job still completes.
    let report = server.shutdown();
    assert_eq!(queued.join().unwrap(), 7);
    assert_eq!(report.stats.completed, 1);
    assert_eq!(report.stats.in_flight, 0);
}

/// A traced server config (the test env leaves `XGOMP_TRACE` unset,
/// so the level must be explicit).
fn traced_config(threads: usize, level: TraceLevel) -> ServerConfig {
    let cfg = ServerConfig::new(threads);
    let rt = cfg.runtime.clone().trace(level);
    cfg.runtime(rt)
}

#[test]
fn stats_cohere_when_quiescent_and_delta_subtracts() {
    let server = TaskServer::start(ServerConfig::new(2));
    let handles: Vec<_> = (0..40u64)
        .map(|i| server.submit(move |_| i).unwrap())
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.pause().unwrap();
    let s1 = server.stats();
    // Quiescent (paused, nothing queued): the cross-field identities
    // the docs promise hold exactly.
    assert_eq!(s1.submitted, s1.completed + s1.queued as u64);
    assert_eq!(s1.in_flight, s1.queued);
    server.resume().unwrap();
    let more: Vec<_> = (0..25u64)
        .map(|i| server.submit(move |_| i).unwrap())
        .collect();
    for h in more {
        h.join().unwrap();
    }
    server.pause().unwrap();
    let s2 = server.stats();
    let d = s2.delta(&s1);
    assert_eq!(d.submitted, 25, "window counts only the second batch");
    assert_eq!(d.completed, 25);
    assert_eq!(d.generations, 1, "one resume in the window");
    // Gauges come from the later snapshot, not a difference.
    assert_eq!(d.max_in_flight, s2.max_in_flight);
    assert_eq!(d.shards, s2.shards);
    // Swapped arguments saturate to zero instead of wrapping.
    assert_eq!(s1.delta(&s2).submitted, 0);
    let report = server.shutdown();
    assert_eq!(report.stats.submitted, report.stats.completed);
    assert_eq!(report.stats.in_flight, 0);
    assert_eq!(report.stats.queued, 0);
}

/// The `# HELP`/`# TYPE` header lines of the full exposition, frozen at
/// the commit that introduced the metric table: the reference the table's
/// order, help strings and kinds are compared against.
const FROZEN_HEADERS: &str = "\
# HELP xgomp_jobs_submitted_total Jobs accepted by admission control
# TYPE xgomp_jobs_submitted_total counter
# HELP xgomp_jobs_completed_total Jobs whose body ran to its own end (including panicked bodies)
# TYPE xgomp_jobs_completed_total counter
# HELP xgomp_jobs_cancelled_total Jobs cancelled cooperatively after their body started
# TYPE xgomp_jobs_cancelled_total counter
# HELP xgomp_jobs_shed_total Jobs shed before their body ran (cancel/deadline while queued)
# TYPE xgomp_jobs_shed_total counter
# HELP xgomp_jobs_rejected_total Submissions bounced by backpressure, pause-at-capacity or closure
# TYPE xgomp_jobs_rejected_total counter
# HELP xgomp_jobs_in_flight Jobs admitted but not yet completed
# TYPE xgomp_jobs_in_flight gauge
# HELP xgomp_jobs_queued Admitted jobs still queued in the ingress tier
# TYPE xgomp_jobs_queued gauge
# HELP xgomp_max_in_flight Effective admission bound
# TYPE xgomp_max_in_flight gauge
# HELP xgomp_generations_total Serve generations opened
# TYPE xgomp_generations_total counter
# HELP xgomp_retunes_total Effective DLB retunes published (operator swaps)
# TYPE xgomp_retunes_total counter
# HELP xgomp_ingress_shards Ingress shards (one per NUMA zone)
# TYPE xgomp_ingress_shards gauge
# HELP xgomp_workers_parked Workers currently parked
# TYPE xgomp_workers_parked gauge
# HELP xgomp_park_events_total Committed worker parks across all generations
# TYPE xgomp_park_events_total counter
# HELP xgomp_loops_total Data-parallel loops completed
# TYPE xgomp_loops_total counter
# HELP xgomp_loop_chunks_total Loop chunks executed
# TYPE xgomp_loop_chunks_total counter
# HELP xgomp_loop_iters_total Loop iterations executed
# TYPE xgomp_loop_iters_total counter
# HELP xgomp_loop_range_steals_total Cross-zone loop range steal-splits
# TYPE xgomp_loop_range_steals_total counter
# HELP xgomp_wake_events_total Wake-ups delivered across all generations (doorbells, pushes, teardown)
# TYPE xgomp_wake_events_total counter
# HELP xgomp_ingress_claim_conflicts_total Lost lane-claim races on the anonymous ingress path
# TYPE xgomp_ingress_claim_conflicts_total counter
# HELP xgomp_ingress_occupancy Jobs currently sitting in ingress ring slots
# TYPE xgomp_ingress_occupancy gauge
# HELP xgomp_loop_chunks_by_schedule_total Loop chunks executed, by schedule family
# TYPE xgomp_loop_chunks_by_schedule_total counter
# HELP xgomp_loop_auto_selected_total Schedule::Auto loop instances run, by the concrete schedule the selector picked
# TYPE xgomp_loop_auto_selected_total counter
# HELP xgomp_loops_by_space_total Data-parallel loops completed, by iteration-space shape
# TYPE xgomp_loops_by_space_total counter
# HELP xgomp_loop_iters_by_space_total Loop elements executed, by iteration-space shape
# TYPE xgomp_loop_iters_by_space_total counter
# HELP xgomp_jobs_submitted_by_class_total Jobs accepted by admission control, by QoS class
# TYPE xgomp_jobs_submitted_by_class_total counter
# HELP xgomp_jobs_completed_by_class_total Jobs whose body ran to its own end, by QoS class
# TYPE xgomp_jobs_completed_by_class_total counter
# HELP xgomp_jobs_cancelled_by_class_total Jobs cancelled cooperatively mid-run, by QoS class
# TYPE xgomp_jobs_cancelled_by_class_total counter
# HELP xgomp_jobs_shed_by_class_total Jobs shed before their body ran, by QoS class
# TYPE xgomp_jobs_shed_by_class_total counter
# HELP xgomp_job_queued_seconds Admission-to-body-start latency of started jobs, by QoS class
# TYPE xgomp_job_queued_seconds histogram
# HELP xgomp_job_run_seconds Body run time of started jobs, by QoS class
# TYPE xgomp_job_run_seconds histogram
# HELP xgomp_trace_events_emitted_total Flight-recorder events emitted (all rings, including overwritten)
# TYPE xgomp_trace_events_emitted_total counter
# HELP xgomp_trace_events_dropped_total Flight-recorder events overwritten before a drain read them
# TYPE xgomp_trace_events_dropped_total counter
# HELP xgomp_trace_level Active trace level (0=off, 1=lifecycle, 2=full)
# TYPE xgomp_trace_level gauge
# HELP xgomp_trace_drained_total Flight-recorder records written to the rolling on-disk stream
# TYPE xgomp_trace_drained_total counter
# HELP xgomp_trace_dropped_total Records the streaming collector lost to ring overwrite
# TYPE xgomp_trace_dropped_total counter
# HELP xgomp_trace_rotations_total Rolling trace segment rotations
# TYPE xgomp_trace_rotations_total counter
# HELP xgomp_metrics_scrapes_total GET /metrics requests served by the in-process endpoint
# TYPE xgomp_metrics_scrapes_total counter
";

#[test]
fn prometheus_rendering_uses_stable_names() {
    let server = TaskServer::start(ServerConfig::new(2));
    let handles: Vec<_> = (0..10u64)
        .map(|i| server.submit(move |_| i).unwrap())
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let text = server.render_prometheus();
    // The stable schema: every family present with HELP and TYPE,
    // each exactly once (a duplicated header is an invalid
    // exposition a strict scraper rejects).
    for name in STABLE_METRIC_FAMILIES {
        for header in ["HELP", "TYPE"] {
            let line = format!("# {header} {name} ");
            assert_eq!(
                text.matches(&line).count(),
                1,
                "family {name}: {header} line must appear exactly once"
            );
        }
    }
    // And no family outside the stable set: every HELP line's name
    // is listed.
    for line in text.lines().filter(|l| l.starts_with("# HELP ")) {
        let name = line.split_whitespace().nth(2).unwrap();
        assert!(
            STABLE_METRIC_FAMILIES.contains(&name),
            "unlisted metric family {name}: extend STABLE_METRIC_FAMILIES"
        );
    }
    // Order, help strings and kinds are pinned too: the headers appear
    // in exactly `STABLE_METRIC_FAMILIES` order, text unchanged.
    let headers: Vec<&str> = text.lines().filter(|l| l.starts_with('#')).collect();
    assert_eq!(headers, FROZEN_HEADERS.lines().collect::<Vec<_>>());
    let help_names: Vec<&str> = headers
        .iter()
        .filter_map(|l| l.strip_prefix("# HELP "))
        .map(|l| l.split(' ').next().unwrap())
        .collect();
    assert_eq!(help_names, STABLE_METRIC_FAMILIES);
    // A bare snapshot renders the snapshot-backed prefix of the same
    // table (17 families).
    let bare = server.stats().render_prometheus();
    let bare_headers: Vec<&str> = bare.lines().filter(|l| l.starts_with('#')).collect();
    assert_eq!(bare_headers, headers[..34]);
    assert!(text.contains("xgomp_jobs_submitted_total 10"));
    // Continuous-pipeline families render (at zero) even with the
    // stream and listener unconfigured.
    assert!(text.contains("xgomp_trace_drained_total 0"));
    assert!(text.contains("xgomp_metrics_scrapes_total 0"));
    assert!(text.contains(r#"xgomp_loop_chunks_by_schedule_total{schedule="guided"}"#));
    assert!(text.contains(r#"xgomp_jobs_submitted_by_class_total{class="normal"} 10"#));
    assert!(text.contains(r#"xgomp_job_queued_seconds_bucket{class="normal",le="+Inf"} 10"#));
    assert!(text.contains(r#"xgomp_job_run_seconds_count{class="normal"} 10"#));
    server.shutdown();
}

#[test]
fn flight_recorder_spans_jobs_and_reports_latency() {
    let server = TaskServer::start(traced_config(2, TraceLevel::Lifecycle));
    let handles: Vec<_> = (0..8u64)
        .map(|i| server.submit(move |_| i * i).unwrap())
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let id = h.job_id();
        assert!(id > 0, "tracked jobs get nonzero ids");
        while !h.is_done() {
            std::thread::yield_now();
        }
        let r = h.report().expect("done job reports");
        assert_eq!(r.job_id, id);
        assert_eq!(r.total_cycles, r.queued_cycles + r.run_cycles);
        assert_eq!(h.join().unwrap(), (i as u64) * (i as u64));
    }
    let snap = server.trace_snapshot();
    assert_eq!(snap.count(EventKind::JobStart), 8);
    assert_eq!(snap.count(EventKind::JobEnd), 8);
    // All clean completions: every JobEnd carries a = 0.
    assert!(snap
        .events
        .iter()
        .filter(|e| e.kind == EventKind::JobStart || e.kind == EventKind::JobEnd)
        .all(|e| e.a == 0 && e.b > 0));
    let json = snap.to_chrome_json();
    assert!(json.contains("\"ph\":\"b\""), "async span begin present");
    assert!(json.contains("\"ph\":\"e\""), "async span end present");
    server.shutdown();
}

#[test]
fn job_report_is_complete_after_done() {
    let server = TaskServer::start(traced_config(2, TraceLevel::Lifecycle));
    let h = server
        .submit(|_| std::thread::sleep(Duration::from_millis(2)))
        .unwrap();
    while !h.is_done() {
        std::thread::yield_now();
    }
    let r = h.report().expect("done job reports");
    assert!(r.run_cycles > 0, "a sleeping job has nonzero run time");
    assert_eq!(r.total_cycles, r.queued_cycles + r.run_cycles);
    h.join().unwrap();
    server.shutdown();
}

#[test]
fn trace_level_flips_live() {
    let server = TaskServer::start(traced_config(2, TraceLevel::Off));
    assert_eq!(server.trace_level(), TraceLevel::Off);
    let h = server.submit(|_| ()).unwrap();
    h.join().unwrap();
    assert_eq!(
        server.trace_snapshot().count(EventKind::JobStart),
        0,
        "Off records nothing"
    );
    server.set_trace_level(TraceLevel::Lifecycle);
    let h = server.submit(|_| ()).unwrap();
    h.join().unwrap();
    let snap = server.trace_snapshot();
    assert_eq!(snap.count(EventKind::JobStart), 1, "live flip takes effect");
    server.shutdown();
}

#[test]
fn generation_markers_bracket_every_generation() {
    let server = TaskServer::start(traced_config(2, TraceLevel::Lifecycle));
    let h = server.submit(|_| 1u32).unwrap();
    h.join().unwrap();
    server.pause().unwrap();
    server.resume().unwrap();
    let h = server.submit(|_| 2u32).unwrap();
    h.join().unwrap();
    let snap = server.trace_snapshot();
    // Generation 1 opened and closed (at the pause); generation 2
    // opened on resume and is still running.
    assert_eq!(snap.count(EventKind::GenOpen), 2);
    assert_eq!(snap.count(EventKind::GenClose), 1);
    let opens: Vec<u64> = snap
        .events
        .iter()
        .filter(|e| e.kind == EventKind::GenOpen)
        .map(|e| e.b)
        .collect();
    assert_eq!(opens, vec![1, 2], "markers carry the generation number");
    server.shutdown();
}

/// The per-class outcome cells live in per-worker shards; every reader
/// sums them. Across a four-worker team and all three classes, the sums
/// partition `submitted` exactly and agree with the histogram counts.
#[test]
fn class_counters_sum_across_worker_shards() {
    use crate::{JobError, QosClass, SubmitOptions};
    const JOBS: u64 = 1_000;
    let server = TaskServer::start(ServerConfig::new(4));
    let opts = |qos: QosClass| SubmitOptions::from(qos);

    // Shed: cancelled while paused, so the body never runs.
    server.pause().unwrap();
    let mut queued = Vec::new();
    for qos in QosClass::ALL {
        for i in 0..10u64 {
            let h = server.with(opts(qos)).submit(move |_| i).unwrap();
            if i % 2 == 0 {
                h.cancel();
            }
            queued.push(h);
        }
    }
    server.resume().unwrap();
    let shed = queued
        .into_iter()
        .map(|h| h.join())
        .filter(|r| matches!(r, Err(JobError::Cancelled)))
        .count();
    assert_eq!(shed, 15);

    // Cancelled: the body started, then unwound at a checkpoint.
    for qos in QosClass::ALL {
        for _ in 0..3 {
            let started = Arc::new(AtomicBool::new(false));
            let s = started.clone();
            let h = server
                .with(opts(qos))
                .submit(move |ctx| -> u64 {
                    s.store(true, Ordering::Release);
                    loop {
                        ctx.check_cancel();
                        std::hint::spin_loop();
                    }
                })
                .unwrap();
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            h.cancel();
            assert!(h.join().unwrap_err().is_cancelled());
        }
    }

    // Completed: the rest of the thousand, round-robin over the classes.
    let rest = JOBS - 30 - 9;
    let handles: Vec<_> = (0..rest)
        .map(|i| {
            let qos = QosClass::ALL[i as usize % 3];
            server.with(opts(qos)).submit(move |_| i).unwrap()
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as u64);
    }

    server.pause().unwrap();
    let text = server.render_prometheus();
    for (i, cs) in server.class_stats().iter().enumerate() {
        // 10 paused (5 shed, 5 ran), 3 cancelled, and its share of `rest`.
        let ran = rest / 3 + u64::from((i as u64) < rest % 3);
        let partition = (cs.submitted, cs.completed, cs.cancelled, cs.shed);
        assert_eq!(partition, (13 + ran, 5 + ran, 3, 5), "{:?}", cs.class);
        let run_count = format!(
            "xgomp_job_run_seconds_count{{class=\"{}\"}} {}",
            cs.class.name(),
            cs.completed + cs.cancelled
        );
        assert!(text.lines().any(|l| l == run_count), "missing {run_count}");
    }
    let report = server.shutdown();
    let s = report.stats;
    assert_eq!(s.submitted, JOBS);
    assert_eq!(s.submitted.abs_diff(s.completed + s.cancelled + s.shed), 0);
    assert_eq!((s.cancelled, s.shed, s.in_flight), (9, 15, 0));
}

/// A joiner whose submit woke the parked team spins on the job instead
/// of sleeping on its condvar, so the completing worker skips the
/// broadcast. Each ping waits until both workers have parked, so its
/// doorbell wakes one; a joiner that slept at once would cost a
/// broadcast on nearly every ping. Parking is pinned on, so an
/// `XGOMP_WAIT_POLICY=active` run (no worker ever parks, no spin gate
/// ever opens) tests the same thing.
#[test]
fn a_joiner_that_woke_the_team_spins_instead_of_sleeping() {
    const PINGS: u32 = 200;
    let cfg = ServerConfig::new(2);
    let rt = cfg.runtime.clone().park_idle(true);
    let server = TaskServer::start(cfg.runtime(rt));
    let parked = || {
        server
            .shared
            .doorbell
            .with_current(|p| p.currently_parked())
    };
    let mut broadcasts = 0;
    for i in 0..PINGS {
        // A team that never parks fails the count below, not the suite's
        // patience.
        let give_up = Instant::now() + Duration::from_millis(100);
        while parked() != Some(2) && Instant::now() < give_up {
            std::hint::spin_loop();
        }
        let handle = server.submit(move |_| i).unwrap();
        let state = handle.state.clone();
        assert_eq!(handle.join().unwrap(), i);
        broadcasts += state.broadcasts.get();
    }
    assert!(
        broadcasts < PINGS / 2,
        "{broadcasts} of {PINGS} pings woke their joiner with a broadcast"
    );
    assert_eq!(server.shutdown().stats.completed, u64::from(PINGS));
}

/// Before a deadline job's wrapper took its entry out, every entry kept
/// its job's record alive until the tick: with hour-long deadlines the
/// set, and the memory behind it, grew by one job per submit.
#[test]
fn resolved_deadline_jobs_leave_the_deadline_set() {
    const JOBS: u64 = 20_000;
    const BATCH: u64 = 100;
    let server = TaskServer::start(ServerConfig::new(2));
    let opts = SubmitOptions::new().deadline(Duration::from_secs(3_600));
    for batch in 0..JOBS / BATCH {
        let handles: Vec<_> = (0..BATCH)
            .map(|i| {
                server
                    .with(opts)
                    .submit(move |_| batch * BATCH + i)
                    .unwrap()
            })
            .collect();
        for (i, h) in (0..BATCH).zip(handles) {
            assert_eq!(h.join().unwrap(), batch * BATCH + i);
        }
    }
    assert_eq!(
        server.shared.deadlines.len(),
        0,
        "resolved jobs left entries"
    );
    // A cancelled job leaves too, when its wrapper drains it.
    let shared = server.shared.clone();
    let h = server.with(opts).submit(|_| ()).unwrap();
    h.cancel();
    let report = server.shutdown();
    assert_eq!(report.stats.completed + report.stats.shed, JOBS + 1);
    assert_eq!(shared.deadlines.len(), 0);
}

/// Counts its drops into the counter it shares.
struct Canary(Arc<AtomicUsize>);

impl Drop for Canary {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

fn counter() -> Arc<AtomicUsize> {
    Arc::new(AtomicUsize::new(0))
}

/// Occupies one worker with a job that spins until the returned gate
/// opens; returns once the job is running.
fn hold_a_worker(server: &TaskServer) -> (Arc<AtomicBool>, JobHandle<()>) {
    let (gate, running) = (Arc::new(AtomicBool::new(false)), counter());
    let (g, r) = (gate.clone(), running.clone());
    let held = server
        .submit(move |_| {
            r.store(1, Ordering::Release);
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
        .unwrap();
    while running.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }
    (gate, held)
}

/// A job whose closure holds a canary: counts into `ran` when it runs,
/// into `drops` when the closure is dropped.
fn canary_job(
    ran: &Arc<AtomicUsize>,
    drops: &Arc<AtomicUsize>,
) -> impl FnOnce(&TaskCtx<'_>) -> u32 + Send + 'static {
    let (ran, canary) = (ran.clone(), Canary(drops.clone()));
    move |_| {
        let _keep = &canary;
        ran.fetch_add(1, Ordering::Relaxed);
        7
    }
}

#[test]
fn a_job_closure_is_dropped_once_when_it_runs() {
    let server = TaskServer::start(ServerConfig::new(2));
    let (ran, drops, results) = (counter(), counter(), counter());
    let (r, canary, result) = (ran.clone(), Canary(drops.clone()), Canary(results.clone()));
    let h = server
        .submit(move |_| {
            let _keep = &canary;
            r.fetch_add(1, Ordering::Relaxed);
            result
        })
        .unwrap();
    let result = h.join().unwrap();
    assert_eq!(drops.load(Ordering::Relaxed), 1);
    assert_eq!(
        results.load(Ordering::Relaxed),
        0,
        "the joiner owns the result"
    );
    drop(result);
    assert_eq!(results.load(Ordering::Relaxed), 1);
    server.shutdown();
    assert_eq!(
        (ran.load(Ordering::Relaxed), drops.load(Ordering::Relaxed)),
        (1, 1)
    );
}

#[test]
fn a_cancelled_queued_job_drops_its_closure_once() {
    let server = TaskServer::start(ServerConfig::new(1));
    let (gate, held) = hold_a_worker(&server);
    let (ran, drops) = (counter(), counter());
    let h = server.submit(canary_job(&ran, &drops)).unwrap();
    h.cancel();
    assert!(h.join().unwrap_err().is_cancelled());
    gate.store(true, Ordering::Release);
    held.join().unwrap();
    let report = server.shutdown();
    assert_eq!(report.stats.shed, 1);
    assert_eq!(
        (ran.load(Ordering::Relaxed), drops.load(Ordering::Relaxed)),
        (0, 1)
    );
}

#[test]
fn a_deadline_shed_job_drops_its_closure_once() {
    let server = TaskServer::start(ServerConfig::new(1));
    let (gate, held) = hold_a_worker(&server);
    let (ran, drops) = (counter(), counter());
    let opts = SubmitOptions::new().deadline(Duration::from_millis(1));
    let h = server.with(opts).submit(canary_job(&ran, &drops)).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    gate.store(true, Ordering::Release);
    held.join().unwrap();
    assert!(h.join().unwrap_err().is_deadline_exceeded());
    let report = server.shutdown();
    assert_eq!(report.stats.shed, 1);
    assert_eq!(
        (ran.load(Ordering::Relaxed), drops.load(Ordering::Relaxed)),
        (0, 1)
    );
}

#[test]
fn a_panicking_job_drops_its_closure_once() {
    let server = TaskServer::start(ServerConfig::new(2));
    let drops = counter();
    let canary = Canary(drops.clone());
    let h = server
        .submit(move |_| -> u32 {
            let _keep = &canary;
            panic!("canary job failed");
        })
        .unwrap();
    assert!(h.join().unwrap_err().panic().is_some());
    assert_eq!(drops.load(Ordering::Relaxed), 1);
    server.shutdown();
    assert_eq!(drops.load(Ordering::Relaxed), 1);
}

/// Jobs still in a lane, or in the spill, when the server shuts down run
/// in its drain: each closure runs once and is dropped once, handles
/// dropped or not.
#[test]
fn queued_and_spilled_jobs_drop_their_closures_once_at_shutdown() {
    const JOBS: usize = 3;
    let (ran, drops) = (counter(), counter());
    let server = TaskServer::start(ServerConfig::new(1));
    let (gate, held) = hold_a_worker(&server);
    for _ in 0..JOBS {
        drop(server.submit(canary_job(&ran, &drops)).unwrap());
    }
    assert_eq!(server.ingress().occupancy(), JOBS, "the jobs sit in a lane");
    let shared = server.shared.clone();
    std::thread::scope(|s| {
        let closing = s.spawn(|| server.shutdown());
        while shared.state.load(Ordering::Relaxed) != lifecycle::CLOSING {
            std::thread::yield_now();
        }
        gate.store(true, Ordering::Release);
        assert_eq!(closing.join().unwrap().stats.completed, JOBS as u64 + 1);
    });
    drop(held);
    assert_eq!(ran.load(Ordering::Relaxed), JOBS);
    assert_eq!(drops.load(Ordering::Relaxed), JOBS);

    let (ran, drops) = (counter(), counter());
    let server = TaskServer::start(ServerConfig::new(1));
    server.pause().unwrap();
    let handles: Vec<_> = (0..JOBS)
        .map(|_| server.submit(canary_job(&ran, &drops)).unwrap())
        .collect();
    assert_eq!(locked(&server.shared.spill).len(), JOBS, "the jobs spilled");
    assert_eq!(drops.load(Ordering::Relaxed), 0);
    server.shutdown();
    for h in handles {
        assert_eq!(h.join().unwrap(), 7);
    }
    assert_eq!(ran.load(Ordering::Relaxed), JOBS);
    assert_eq!(drops.load(Ordering::Relaxed), JOBS);
}

/// Drops the result, recording the thread it was dropped on.
struct WhereDropped(Arc<Mutex<Vec<std::thread::ThreadId>>>);

impl Drop for WhereDropped {
    fn drop(&mut self) {
        locked(&self.0).push(std::thread::current().id());
    }
}

/// A handle dropped before its job completes leaves the worker holding
/// the last reference: the worker frees the record, and with it the
/// result nobody took.
#[test]
fn a_detached_handle_leaves_the_worker_to_free_the_record() {
    let server = TaskServer::start(ServerConfig::new(1));
    let (gate, held) = hold_a_worker(&server);
    let dropped_on = Arc::new(Mutex::new(Vec::new()));
    let result = WhereDropped(dropped_on.clone());
    drop(server.submit(move |_| result).unwrap());
    gate.store(true, Ordering::Release);
    held.join().unwrap();
    server.shutdown();
    let dropped_on = locked(&dropped_on).clone();
    assert_eq!(dropped_on.len(), 1, "the result is dropped once");
    assert_ne!(dropped_on[0], std::thread::current().id());
}
