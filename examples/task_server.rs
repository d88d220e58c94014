//! `task_server`: the persistent executor under concurrent load.
//!
//! Eight submitter threads push 1 000 jobs each into a [`TaskServer`]
//! running on a two-socket virtual machine (two ingress shards). Each
//! submitter registers a pinned ingress lane in its NUMA zone
//! ([`TaskServer::register_submitter`]) — claim-free SPSC submission
//! with a zone-local doorbell wake. Halfway through, every submitter
//! switches from fine-grained jobs (hundreds of cycles) to coarse ones
//! (about 10^5 cycles). A generation's team keeps one DLB configuration
//! for its life, so the operator retunes at the next generation
//! boundary: generation 2 opens under Table IV's pick for the coarse
//! task size ([`TaskServer::resume_with`] with `recommend_dlb`), and the
//! retune is logged to stderr. Before that the example demonstrates the
//! event-driven idle path: the drained server parks every worker (zero
//! CPU) and one last doorbell ring wakes it.
//!
//! ```text
//! cargo run --release --example task_server
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xgomp::guidelines::recommend_dlb;
use xgomp::service::{ServerConfig, TaskServer};
use xgomp::{DlbConfig, DlbStrategy, MachineTopology, RuntimeConfig};

const SUBMITTERS: u64 = 8;
const JOBS_PER_SUBMITTER: u64 = 1_000;
/// Spin iterations of one coarse (second-phase) job.
const COARSE_ITERS: u64 = 20_000;
/// Cycles of one coarse job, roughly five per spin iteration.
const COARSE_CYCLES: u64 = 5 * COARSE_ITERS;

fn submit_and_verify(server: &TaskServer, t: u64, checksum: &AtomicU64) {
    // Pin this submitter to a reserved SPSC lane in its NUMA zone: no
    // producer-claim traffic, and every push rings that zone's doorbell.
    let mut sub = server.register_submitter(t as usize % server.stats().shards);
    let mut handles = Vec::with_capacity(JOBS_PER_SUBMITTER as usize);
    for i in 0..JOBS_PER_SUBMITTER {
        // First half: fine-grained jobs (a handful of arithmetic ops).
        // Second half: coarse jobs spinning for ~10^5 cycles.
        let coarse = i >= JOBS_PER_SUBMITTER / 2;
        let h = sub
            .submit(move |_ctx| {
                if coarse {
                    let mut acc = 0u64;
                    for k in 0..COARSE_ITERS {
                        acc = acc.wrapping_add(std::hint::black_box(k ^ i));
                    }
                    std::hint::black_box(acc);
                }
                t * 1_000_000 + i
            })
            .expect("server open");
        handles.push((i, h));
    }
    for (i, h) in handles {
        let got = h.join().expect("job completed");
        assert_eq!(got, t * 1_000_000 + i, "wrong result for job ({t},{i})");
        checksum.fetch_add(got, Ordering::Relaxed);
    }
}

fn main() {
    // Two sockets × four cores: workers 0..4 on zone 0, 4..8 on zone 1,
    // so the ingress runs with two NUMA shards.
    let runtime = RuntimeConfig::xgomptb(8)
        .topology(MachineTopology::new(2, 4, 1))
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal))
        // The example asserts on parked_workers(): pin parking on so it
        // holds under any XGOMP_WAIT_POLICY environment.
        .park_idle(true);
    let server = TaskServer::start(
        ServerConfig::new(8)
            .runtime(runtime)
            .max_in_flight(2_048)
            .log_retunes(true),
    );
    eprintln!(
        "[task_server] serving with {} ingress shard(s), initial DLB {}",
        server.stats().shards,
        server.active_dlb().strategy.name(),
    );

    let checksum = Arc::new(AtomicU64::new(0));
    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..SUBMITTERS {
            let server = &server;
            let checksum = checksum.clone();
            s.spawn(move || submit_and_verify(server, t, &checksum));
        }
    });
    let wall = started.elapsed();

    let expected: u64 = (0..SUBMITTERS)
        .map(|t| {
            (0..JOBS_PER_SUBMITTER)
                .map(|i| t * 1_000_000 + i)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(
        checksum.load(Ordering::Relaxed),
        expected,
        "checksum over all job results"
    );

    // Event-driven idle: with the backlog drained, every worker (the
    // serve loop included) parks — an idle server burns no CPU. One
    // more submission rings the doorbell and wakes a zone-local worker.
    let n_workers = 8;
    let parked_at = std::time::Instant::now();
    while server.parked_workers() < n_workers {
        assert!(
            parked_at.elapsed() < std::time::Duration::from_secs(20),
            "drained server failed to park its workers"
        );
        std::thread::yield_now();
    }
    let wake_t0 = std::time::Instant::now();
    let woken = server
        .submit(move |_| wake_t0.elapsed())
        .expect("server open")
        .join()
        .expect("wake job");
    eprintln!(
        "[task_server] idle: all {n_workers} workers parked after {:.2?}; \
         doorbell wake -> job done in {woken:.2?} ({} parks, {} wakes so far)",
        parked_at.elapsed(),
        server.park_events(),
        server.wake_events(),
    );

    // Multi-generation serving: pause the server (the whole team parks,
    // ingress lanes survive), queue a backlog at ~0 CPU, then resume
    // under a *different* configuration — half the workers, and Table
    // IV's DLB pick for the coarse jobs the submitters ended on — and let
    // generation 2 complete the queued-while-paused jobs plus fresh ones.
    server.pause().expect("pause");
    assert_eq!(server.parked_workers(), n_workers, "paused team parked");
    let paused_jobs: Vec<_> = (0..256u64)
        .map(|i| server.submit(move |_| i).expect("queues while paused"))
        .collect();
    assert!(
        paused_jobs.iter().all(|h| !h.is_done()),
        "paused jobs must wait for resume"
    );
    eprintln!(
        "[task_server] paused: {} jobs queued while every worker sleeps",
        server.stats().queued
    );
    server
        .resume_with(
            RuntimeConfig::xgomptb(4)
                .topology(MachineTopology::new(2, 2, 1))
                .dlb(recommend_dlb(COARSE_CYCLES)),
        )
        .expect("resume with new config");
    let backlog: u64 = paused_jobs
        .into_iter()
        .map(|h| h.join().expect("queued job completes"))
        .sum();
    assert_eq!(backlog, (0..256u64).sum::<u64>(), "backlog conserved");
    let fresh = server.submit(|_| 1u64).expect("generation 2 serves");
    assert_eq!(fresh.join().expect("fresh job"), 1);
    eprintln!(
        "[task_server] generation {} serving on 4 workers under {} after the swap",
        server.generation(),
        server.active_dlb().strategy.name(),
    );

    // Data-parallel phase: two *concurrent* skewed-cost loops served as
    // jobs through the same admission/telemetry pipeline (adaptive
    // chunking, zone pools, range stealing from the rich zone's block).
    let loop_sum = Arc::new(AtomicU64::new(0));
    let loop_handles: Vec<_> = (0..2)
        .map(|_| {
            let ls = loop_sum.clone();
            server
                .submit_for(0..200_000u64, xgomp::LoopSchedule::Adaptive, move |i, _| {
                    if i >= 150_000 {
                        // Skewed tail: the second zone's block is rich.
                        for _ in 0..60 {
                            std::hint::spin_loop();
                        }
                    }
                    ls.fetch_add(i, Ordering::Relaxed);
                })
                .expect("loop job admitted")
        })
        .collect();
    let mut loop_chunks = 0;
    for h in loop_handles {
        let loop_report = h.join().expect("loop job completes");
        assert_eq!(loop_report.iterations, 200_000);
        loop_chunks += loop_report.chunks;
    }
    assert_eq!(
        loop_sum.load(Ordering::Relaxed),
        2 * (0..200_000u64).sum::<u64>(),
        "loop checksum conserved"
    );
    eprintln!(
        "[task_server] parallel_for: 2 concurrent skewed loops × 200k iterations \
         in {} chunks ({} range steals)",
        loop_chunks,
        server.stats().loop_range_steals,
    );

    let report = server.shutdown();
    let total = SUBMITTERS * JOBS_PER_SUBMITTER;
    assert_eq!(
        report.stats.completed,
        total + 1 + 256 + 1 + 2, // + wake probe, paused backlog, gen-2 probe, loop jobs
        "every job completed"
    );
    assert_eq!(report.stats.loops, 2, "the parallel_for jobs are counted");
    assert_eq!(report.stats.loop_iters, 400_000);
    assert_eq!(report.stats.generations, 2);
    assert_eq!(report.prior_regions.len(), 1);
    assert!(
        report.stats.retunes >= 1,
        "the Table IV pick at generation 2 must count a retune (got {})",
        report.stats.retunes,
    );

    eprintln!(
        "[task_server] OK: {total} jobs from {SUBMITTERS} submitters in {wall:.2?} \
         ({:.0} jobs/s), {} DLB retune(s), {} rejected submissions",
        total as f64 / wall.as_secs_f64(),
        report.stats.retunes,
        report.stats.rejected,
    );
    let region = report.region.expect("server exited cleanly");
    eprintln!(
        "[task_server] serve region: {} tasks executed, {} migrated by DLB",
        region.stats.total().tasks_executed,
        region.stats.total().ntasks_stolen,
    );
}
