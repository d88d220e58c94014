//! Multi-generation serving: pause/resume quiescence, config swaps at
//! generation boundaries, drop-without-shutdown, shutdown of a fully
//! parked team, and job conservation when submitters race lifecycle
//! transitions across ≥ 3 generations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xgomp::service::{Lifecycle, ServerConfig, TaskServer};
use xgomp::{clock, DlbConfig, DlbStrategy, MachineTopology, RuntimeConfig};

/// A server whose parking behavior is pinned on regardless of the
/// `XGOMP_WAIT_POLICY` CI leg — these tests assert on park counters.
fn parking_server(threads: usize) -> TaskServer {
    TaskServer::start(
        ServerConfig::new(threads).runtime(
            RuntimeConfig::xgomptb(threads)
                .dlb(DlbConfig::new(DlbStrategy::WorkSteal))
                .park_idle(true),
        ),
    )
}

/// Busy-waits ≥ 1 µs and hands `v` back: a job body that takes
/// measurable time, not an instant return.
fn after_1us(v: u64) -> u64 {
    let t0 = clock::now();
    while clock::now().saturating_sub(t0) < clock::ns_to_ticks(1_000) {
        std::hint::spin_loop();
    }
    v
}

fn wait_parked(server: &TaskServer, n: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.parked_workers() < n {
        assert!(
            Instant::now() < deadline,
            "{what}: only {}/{n} workers parked (parks={}, wakes={})",
            server.parked_workers(),
            server.park_events(),
            server.wake_events(),
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Dropping a server without `shutdown` must run the same drain: every
/// admitted job completes and its handle resolves.
#[test]
fn drop_without_shutdown_still_drains() {
    let server = TaskServer::start(ServerConfig::new(4));
    let done = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..128u64)
        .map(|i| {
            let done = done.clone();
            server
                .submit(move |_| {
                    std::thread::sleep(Duration::from_micros(200));
                    done.fetch_add(1, Ordering::SeqCst);
                    i
                })
                .unwrap()
        })
        .collect();
    drop(server);
    assert_eq!(done.load(Ordering::SeqCst), 128, "drop drained everything");
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as u64);
    }
}

/// Dropping a *paused* server must still complete the jobs that were
/// queued while paused (the drop drain runs a closing generation).
#[test]
fn drop_while_paused_completes_queued_jobs() {
    let server = TaskServer::start(ServerConfig::new(2));
    server.pause().unwrap();
    let queued: Vec<_> = (0..32u64)
        .map(|i| server.submit(move |_| i * 2).unwrap())
        .collect();
    assert_eq!(server.stats().queued, 32, "paused jobs stay queued");
    drop(server);
    for (i, h) in queued.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as u64 * 2);
    }
}

/// Shutting down a team that is fully parked (every worker asleep, park
/// counter frozen) must wake it, drain, and return a clean report.
#[test]
fn shutdown_while_fully_parked_drains_cleanly() {
    const THREADS: usize = 4;
    let server = parking_server(THREADS);
    server.submit(|_| ()).unwrap().join().unwrap();
    wait_parked(&server, THREADS, "pre-shutdown idle");
    // Let announcements commit to sleeps, then prove the park counter
    // stopped advancing — no yield-loop progress while fully idle.
    std::thread::sleep(Duration::from_millis(50));
    let parks_before = server.park_events();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        server.park_events(),
        parks_before,
        "fully parked team must not cycle through park/unpark"
    );
    let report = server.shutdown();
    assert_eq!(report.stats.completed, 1);
    assert_eq!(report.stats.in_flight, 0);
    assert!(
        report.region.is_some(),
        "parked team must tear down cleanly"
    );
}

/// The acceptance scenario: serve generation 1 → `pause()` (everything
/// parks, submitter lane retained) → queue jobs while paused →
/// `resume_with` a different `RuntimeConfig` + `DlbConfig` (smaller
/// team, different zone map) → generation 2 completes the queued and
/// fresh jobs with exact conservation.
#[test]
fn pause_swap_resume_conserves_across_generations() {
    const THREADS_G1: usize = 8;
    let server = TaskServer::start(
        ServerConfig::new(THREADS_G1)
            .runtime(
                RuntimeConfig::xgomptb(THREADS_G1)
                    .topology(MachineTopology::new(2, 4, 1))
                    .dlb(DlbConfig::new(DlbStrategy::WorkSteal))
                    .park_idle(true),
            )
            .lanes_per_shard(3),
    );
    assert_eq!(server.stats().shards, 2, "two-socket placement");
    let mut pinned = server.register_submitter(1);
    let pinned_lane = pinned.lane().expect("free lane in zone-1 shard");

    // Generation 1 traffic through both paths.
    let g1: Vec<_> = (0..100u64)
        .map(|i| {
            if i % 2 == 0 {
                server.submit(move |_| after_1us(i)).unwrap()
            } else {
                pinned.submit(move |_| after_1us(i)).unwrap()
            }
        })
        .collect();
    for (i, h) in g1.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as u64);
    }

    // Pause: quiescent, fully parked, ~0 CPU.
    server.pause().unwrap();
    assert_eq!(server.lifecycle(), Lifecycle::Paused);
    assert_eq!(server.parked_workers(), THREADS_G1);
    let parks_paused = server.park_events();
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        server.park_events(),
        parks_paused,
        "paused team must be asleep, not yield-looping"
    );

    // Queue while paused, through the *retained* pinned lane and the
    // anonymous path. Nothing may execute yet.
    let queued: Vec<_> = (0..60u64)
        .map(|i| {
            if i % 2 == 0 {
                server.submit(move |_| after_1us(1_000 + i)).unwrap()
            } else {
                pinned.submit(move |_| after_1us(1_000 + i)).unwrap()
            }
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    assert!(queued.iter().all(|h| !h.is_done()), "paused jobs must wait");
    assert_eq!(server.stats().queued, 60);
    assert_eq!(pinned.lane(), Some(pinned_lane), "lane survives the pause");

    // Generation 2: smaller team, single-zone topology (the worker →
    // shard map re-folds onto the two persistent shards), RP tuning.
    server
        .resume_with(
            RuntimeConfig::xgomptb(3)
                .topology(MachineTopology::new(1, 4, 1))
                .dlb(DlbConfig::new(DlbStrategy::RedirectPush))
                .park_idle(true),
        )
        .unwrap();
    assert_eq!(server.lifecycle(), Lifecycle::Serving);
    assert_eq!(server.generation(), 2);
    assert_eq!(
        server.active_dlb().strategy,
        DlbStrategy::RedirectPush,
        "resume_with seeds the tuning cell"
    );
    for (i, h) in queued.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), 1_000 + i as u64);
    }
    // Fresh generation-2 jobs, both paths again.
    let g2: Vec<_> = (0..50u64)
        .map(|i| {
            if i % 2 == 0 {
                server.submit(move |_| after_1us(2_000 + i)).unwrap()
            } else {
                pinned.submit(move |_| after_1us(2_000 + i)).unwrap()
            }
        })
        .collect();
    for (i, h) in g2.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), 2_000 + i as u64);
    }

    drop(pinned);
    let report = server.shutdown();
    assert_eq!(report.stats.submitted, 210, "100 + 60 + 50 admitted");
    assert_eq!(report.stats.completed, 210, "exact conservation");
    assert_eq!(report.stats.in_flight, 0);
    assert_eq!(report.stats.generations, 2);
    assert_eq!(report.prior_regions.len(), 1);
    let g1_region = &report.prior_regions[0];
    g1_region.stats.check_invariants().unwrap();
    report
        .region
        .as_ref()
        .expect("clean final generation")
        .stats
        .check_invariants()
        .unwrap();
    // Every job task is accounted to exactly one generation.
    assert_eq!(
        g1_region.stats.total().tasks_executed
            + report.region.as_ref().unwrap().stats.total().tasks_executed,
        210
    );
}

/// The ledger rule a returned `pause()` promises: no job is left in a
/// ring, and every admitted, unfinished job is held (spilled) for the
/// next generation. The ring check is exact at once; `in_flight ==
/// queued` may trail by submissions still between admission and their
/// spill push, so it is awaited (they stop at the bound or in `join`).
fn assert_paused_ledger(server: &TaskServer) {
    assert_eq!(server.ingress().occupancy(), 0, "a job stranded in a ring");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let s = server.stats();
        if s.in_flight == s.queued {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "paused with {} in flight but {} queued",
            s.in_flight,
            s.queued
        );
        std::thread::yield_now();
    }
}

/// Stress: registered and anonymous submitters race pause / resume /
/// config-swap cycles across ≥ 3 generations; every admitted job must
/// complete exactly once (checksum + counter conservation).
#[test]
fn pause_resume_stress_conserves_jobs() {
    const ANON_THREADS: u64 = 2;
    const REG_THREADS: u64 = 2;
    const JOBS_PER: u64 = 400;
    let server = Arc::new(TaskServer::start(
        ServerConfig::new(4).max_in_flight(256).lanes_per_shard(4),
    ));
    let checksum = Arc::new(AtomicU64::new(0));

    let mut submitters = Vec::new();
    for t in 0..ANON_THREADS {
        let server = server.clone();
        let checksum = checksum.clone();
        submitters.push(std::thread::spawn(move || {
            let handles: Vec<_> = (0..JOBS_PER)
                .map(|i| server.submit(move |_| t * 100_000 + i).unwrap())
                .collect();
            for h in handles {
                checksum.fetch_add(h.join().unwrap(), Ordering::Relaxed);
            }
        }));
    }
    for t in ANON_THREADS..ANON_THREADS + REG_THREADS {
        let server = server.clone();
        let checksum = checksum.clone();
        submitters.push(std::thread::spawn(move || {
            let mut sub = server.register_submitter(t as usize);
            let handles: Vec<_> = (0..JOBS_PER)
                .map(|i| sub.submit(move |_| t * 100_000 + i).unwrap())
                .collect();
            for h in handles {
                checksum.fetch_add(h.join().unwrap(), Ordering::Relaxed);
            }
        }));
    }

    // Lifecycle churn while the submitters hammer: three full
    // pause/resume cycles, two of them swapping the configuration.
    for round in 0..3 {
        std::thread::sleep(Duration::from_millis(20));
        server.pause().unwrap();
        assert_eq!(server.lifecycle(), Lifecycle::Paused);
        assert_paused_ledger(&server);
        match round {
            0 => server.resume().unwrap(),
            1 => server
                .resume_with(
                    RuntimeConfig::xgomptb(2).dlb(DlbConfig::new(DlbStrategy::RedirectPush)),
                )
                .unwrap(),
            _ => server
                .resume_with(RuntimeConfig::xgomptb(6).dlb(DlbConfig::new(DlbStrategy::WorkSteal)))
                .unwrap(),
        }
        assert_eq!(server.lifecycle(), Lifecycle::Serving);
    }

    for s in submitters {
        s.join().unwrap();
    }
    let total = (ANON_THREADS + REG_THREADS) * JOBS_PER;
    let expected: u64 = (0..ANON_THREADS + REG_THREADS)
        .map(|t| (0..JOBS_PER).map(|i| t * 100_000 + i).sum::<u64>())
        .sum();
    assert_eq!(checksum.load(Ordering::Relaxed), expected);
    let server = Arc::into_inner(server).expect("all submitters done");
    assert!(server.generation() >= 4, "three pauses ⇒ ≥ 4 generations");
    let report = server.shutdown();
    assert_eq!(report.stats.submitted, total, "every job admitted once");
    assert_eq!(report.stats.completed, total, "every job completed once");
    assert_eq!(report.stats.in_flight, 0);
    // Per-generation telemetry sums to the total job count.
    let mut tasks = report
        .region
        .expect("clean serve")
        .stats
        .total()
        .tasks_executed;
    for r in &report.prior_regions {
        tasks += r.stats.total().tasks_executed;
    }
    assert_eq!(tasks, total, "generations partition the executed jobs");
}

/// `swap_tuning` works mid-generation without a pause and survives into
/// later generations.
#[test]
fn swap_tuning_applies_without_pause() {
    let server = TaskServer::start(ServerConfig::new(2));
    let manual = DlbConfig::new(DlbStrategy::RedirectPush).n_steal(2);
    server.swap_tuning(manual);
    assert_eq!(server.active_dlb(), manual);
    server.submit(|_| ()).unwrap().join().unwrap();
    server.pause().unwrap();
    server.resume().unwrap();
    assert_eq!(server.active_dlb(), manual, "swap survives a generation");
    server.shutdown();
}
