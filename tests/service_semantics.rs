//! Persistent-runtime semantics of `xgomp-service`: one team serves many
//! jobs, handles complete independently of submission order, a panicking
//! job poisons only itself, and shutdown drains everything in flight.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use xgomp::service::{JobHandle, ServerConfig, TaskServer};
use xgomp::{DlbConfig, DlbStrategy, RuntimeConfig};

fn server(threads: usize) -> TaskServer {
    TaskServer::start(ServerConfig::new(threads))
}

#[test]
fn one_team_serves_many_jobs() {
    let server = server(4);
    // Many waves of jobs against the same team; the serving region's
    // telemetry proves a single team executed all of them.
    let mut expected_tasks = 0u64;
    for wave in 0..20u64 {
        let handles: Vec<_> = (0..50u64)
            .map(|i| server.submit(move |_| wave * 1_000 + i).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), wave * 1_000 + i as u64);
        }
        expected_tasks += 50;
    }
    let report = server.shutdown();
    assert_eq!(report.stats.submitted, expected_tasks);
    assert_eq!(report.stats.completed, expected_tasks);
    // One region served everything: its counters cover every job task.
    let region = report.region.expect("clean serve");
    assert_eq!(region.stats.total().tasks_executed, expected_tasks);
    region.stats.check_invariants().unwrap();
}

#[test]
fn results_are_correct_in_any_join_order() {
    let server = server(4);
    let handles: Vec<JobHandle<u64>> = (0..300u64)
        .map(|i| {
            server
                .submit(move |_| {
                    // Uneven grains so completion order scrambles.
                    for _ in 0..(i % 13) * 50 {
                        std::hint::spin_loop();
                    }
                    i * i
                })
                .unwrap()
        })
        .collect();
    // Join in reverse submission order, then verify by index.
    for (i, h) in handles.into_iter().enumerate().rev() {
        assert_eq!(h.join().unwrap(), (i as u64) * (i as u64));
    }
    server.shutdown();
}

#[test]
fn job_panic_poisons_only_that_job() {
    let server = server(4);
    let before = server.submit(|_| 1u32).unwrap();
    let bomb = server
        .submit(|_| -> u32 { panic!("job 1 exploded") })
        .unwrap();
    let after: Vec<_> = (0..100u32)
        .map(|i| server.submit(move |_| i + 10).unwrap())
        .collect();

    assert_eq!(before.join().unwrap(), 1);
    let err = bomb.join().unwrap_err();
    let panic = err.panic().expect("panicked job yields JobError::Panicked");
    assert!(
        panic.message.contains("job 1 exploded"),
        "panic payload lost: {}",
        panic.message
    );
    // The runtime survived: every later job still completes correctly.
    for (i, h) in after.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as u32 + 10);
    }
    let report = server.shutdown();
    assert_eq!(report.stats.completed, 102);
}

#[test]
fn jobs_spawning_subtasks_share_the_team() {
    let server = TaskServer::start(
        ServerConfig::new(4).runtime(
            RuntimeConfig::xgomptb(4).dlb(
                DlbConfig::new(DlbStrategy::WorkSteal)
                    .n_steal(8)
                    .t_interval(64),
            ),
        ),
    );
    let handles: Vec<_> = (0..20u64)
        .map(|_| {
            server
                .submit(|ctx| {
                    let mut leaves = vec![0u64; 32];
                    ctx.scope(|s| {
                        for (i, leaf) in leaves.iter_mut().enumerate() {
                            s.spawn(move |_| *leaf = i as u64 + 1);
                        }
                    });
                    leaves.iter().sum::<u64>()
                })
                .unwrap()
        })
        .collect();
    let per_job: u64 = (1..=32u64).sum();
    for h in handles {
        assert_eq!(h.join().unwrap(), per_job);
    }
    let report = server.shutdown();
    // 20 job tasks + 20 × 32 subtasks, all through one team.
    assert_eq!(
        report
            .region
            .expect("clean serve")
            .stats
            .total()
            .tasks_executed,
        20 + 20 * 32
    );
}

#[test]
fn shutdown_drains_in_flight_work() {
    let server = server(4);
    let done = Arc::new(AtomicU64::new(0));
    // Slow jobs that are certainly still queued/running at shutdown.
    let handles: Vec<_> = (0..64u64)
        .map(|i| {
            let done = done.clone();
            server
                .submit(move |_| {
                    std::thread::sleep(Duration::from_millis(1));
                    done.fetch_add(1, Ordering::SeqCst);
                    i
                })
                .unwrap()
        })
        .collect();
    // Shut down immediately: every admitted job must still complete.
    let report = server.shutdown();
    assert_eq!(done.load(Ordering::SeqCst), 64);
    assert_eq!(report.stats.completed, 64);
    assert_eq!(report.stats.in_flight, 0);
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as u64);
    }
}

#[test]
fn submissions_after_close_are_rejected() {
    let server = server(2);
    let ok = server.submit(|_| ()).unwrap();
    let report_thread = std::thread::spawn(move || server.shutdown());
    let report = report_thread.join().unwrap();
    ok.join().unwrap();
    assert_eq!(report.stats.completed, 1);
}

#[test]
fn reentrant_submission_with_cooperative_join() {
    // A job that submits more jobs and waits for them must use the
    // cooperative join — a parked worker cannot drain its own lattice
    // row (see `JobHandle::join_within` docs).
    let server = Arc::new(server(4));
    let s2 = server.clone();
    let outer = server
        .submit(move |ctx| {
            let inner: Vec<_> = (0..50u64)
                .filter_map(|i| s2.try_submit(move |_| i * 2).ok())
                .collect();
            inner
                .into_iter()
                .map(|h| h.join_within(ctx).unwrap())
                .sum::<u64>()
        })
        .unwrap();
    let got = outer.join().unwrap();
    assert_eq!(got, (0..50u64).map(|i| i * 2).sum());
    let server = Arc::into_inner(server).expect("all submitters done");
    server.shutdown();
}

#[test]
fn subtask_panic_fails_only_its_job() {
    // A panic in a *subtask* of a job must surface as that job's
    // JobPanic — not poison the team (which would strand every other
    // in-flight job and wedge shutdown).
    let server = server(4);
    let backlog: Vec<_> = (0..200u64)
        .map(|i| server.submit(move |_| i).unwrap())
        .collect();
    let bomb = server
        .submit(|ctx| {
            ctx.scope(|s| {
                s.spawn(|_| panic!("subtask exploded"));
                for _ in 0..8 {
                    s.spawn(|_| std::hint::spin_loop());
                }
            });
            0u64
        })
        .unwrap();
    let err = bomb.join().unwrap_err();
    let panic = err.panic().expect("panicked job yields JobError::Panicked");
    assert!(
        panic.message.contains("subtask exploded"),
        "payload lost: {}",
        panic.message
    );
    for (i, h) in backlog.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as u64);
    }
    let report = server.shutdown();
    assert_eq!(report.stats.completed, 201);
    assert!(report.region.is_some(), "serve must end cleanly");
}

/// A job that panics inside its own scope while its sibling is still
/// queued on the job's worker: the scope's unwinding wait runs the
/// sibling there, and the sibling's normal return must not count as a
/// panic of its own. The bomb resolves `Panicked`, the team keeps
/// serving, and shutdown counts both jobs.
fn job_panic_inside_its_own_scope(server: TaskServer) {
    let bomb = server
        .submit(|c| {
            c.scope(|s| {
                s.spawn_on(c.worker_id(), |_| {});
                panic!("bomb inside its own scope");
            });
            0u32
        })
        .unwrap();
    let err = bomb.join().unwrap_err();
    let panic = err.panic().expect("panicked job yields JobError::Panicked");
    assert!(
        panic.message.contains("bomb inside its own scope"),
        "payload lost: {}",
        panic.message
    );
    // The bound only turns a dead serving team into a failure.
    let later = server.submit(|_| 7u32).unwrap();
    match later.join_timeout(Duration::from_secs(5)) {
        Ok(result) => assert_eq!(result.unwrap(), 7),
        Err(_) => panic!("a job submitted after the bomb never resolved"),
    }
    let report = server.shutdown();
    assert_eq!(report.stats.completed, 2);
    assert!(report.region.is_some(), "serve must end cleanly");
}

#[test]
fn job_panic_inside_its_own_scope_keeps_one_worker_serving() {
    job_panic_inside_its_own_scope(server(1));
}

#[test]
fn job_panic_inside_its_own_scope_keeps_two_workers_serving() {
    // Static balancing: no steal can move the sibling off the job's
    // worker before the unwinding wait pops it.
    let cfg = ServerConfig::new(2).runtime(RuntimeConfig::xgomptb(2));
    job_panic_inside_its_own_scope(TaskServer::start(cfg));
}

/// A job whose third scoped child finds the job worker's capacity-2 queue
/// full runs that child undeferred, on a record in the spawning frame.
/// Its panic stops at the child's own `execute` like any task's and
/// reaches the job through the scope's wait: the job resolves `Panicked`
/// with the child's payload, and the team keeps serving.
#[test]
fn job_panic_in_an_undeferred_child_resolves_panicked() {
    let cfg = ServerConfig::new(1).runtime(RuntimeConfig::xgomptb(1).queue_capacity(2));
    let server = TaskServer::start(cfg);
    let bomb = server
        .submit(|c| {
            c.scope(|s| {
                s.spawn_on(c.worker_id(), |_| {});
                s.spawn_on(c.worker_id(), |_| {});
                s.spawn_on(c.worker_id(), |_| panic!("undeferred child failed"));
            });
            0u32
        })
        .unwrap();
    let err = bomb.join().unwrap_err();
    let panic = err.panic().expect("panicked job yields JobError::Panicked");
    assert!(
        panic.message.contains("undeferred child failed"),
        "payload lost: {}",
        panic.message
    );
    let later = server.submit(|_| 7u32).unwrap();
    match later.join_timeout(Duration::from_secs(5)) {
        Ok(result) => assert_eq!(result.unwrap(), 7),
        Err(_) => panic!("a job submitted after the bomb never resolved"),
    }
    let report = server.shutdown();
    assert_eq!(report.stats.completed, 2);
    let region = report.region.expect("serve must end cleanly");
    assert_eq!(
        region.stats.total().ntasks_imm_exec,
        1,
        "one undeferred child"
    );
}

#[test]
fn second_subtask_panic_is_not_swallowed() {
    // A job that survives a first isolated subtask panic (catching it
    // itself) must still see a *second* subtask panic — the panic slot
    // re-arms after each take.
    let server = server(2);
    let h = server
        .submit(|ctx| {
            let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.scope(|s| s.spawn(|_| panic!("first boom")));
            }));
            assert!(first.is_err(), "first subtask panic must re-raise");
            // Second wave of subtasks; this panic must also surface.
            ctx.scope(|s| s.spawn(|_| panic!("second boom")));
            0u8
        })
        .unwrap();
    let err = h.join().unwrap_err();
    let panic = err.panic().expect("panicked job yields JobError::Panicked");
    assert!(
        panic.message.contains("second boom"),
        "second panic swallowed: {}",
        panic.message
    );
    server.shutdown();
}

#[test]
fn saturated_cooperative_joins_make_progress() {
    // Every execution context waits inside join_within at once: the
    // awaited jobs sit in the ingress, and the waiters themselves must
    // drain it (help_pending) or the team deadlocks.
    let server = Arc::new(server(2));
    let outers: Vec<_> = (0..2)
        .map(|o| {
            let s2 = server.clone();
            server
                .submit(move |ctx| {
                    let inner: Vec<_> = (0..25u64)
                        .filter_map(|i| s2.try_submit(move |_| o * 100 + i).ok())
                        .collect();
                    let mut joined = 0u64;
                    for h in inner {
                        h.join_within(ctx).unwrap();
                        joined += 1;
                    }
                    joined
                })
                .unwrap()
        })
        .collect();
    for h in outers {
        assert_eq!(h.join().unwrap(), 25);
    }
    let server = Arc::into_inner(server).expect("all submitters done");
    server.shutdown();
}

/// The help-first join rule — a bounded wait never nests unbounded work
/// — on the smallest team that can break it. `waiter` holds the only
/// worker until gated `slow` sits in the ingress behind it, then waits
/// for it with a deadline. A bounded join that helped itself to the
/// ingress would run `slow` nested on top of the one frame that can open
/// its gate: the deadline could never fire and the server would hang.
#[test]
fn bounded_join_never_nests_the_awaited_job() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    let server = server(1);
    let gate = Arc::new(AtomicBool::new(false));
    let handoff: Arc<Mutex<Option<JobHandle<u32>>>> = Arc::default();
    let (g, slot) = (gate.clone(), handoff.clone());
    let waiter = server
        .submit(move |ctx| {
            let slow = loop {
                if let Some(h) = slot.lock().unwrap().take() {
                    break h;
                }
                std::thread::yield_now();
            };
            let timeout = slow
                .join_within_timeout(ctx, Duration::from_millis(50))
                .expect_err("`slow` is gated until this frame opens the gate");
            g.store(true, Ordering::Release);
            timeout.handle.join_within(ctx).unwrap()
        })
        .unwrap();
    let g = gate.clone();
    let slow = server
        .submit(move |_| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            17u32
        })
        .unwrap();
    *handoff.lock().unwrap() = Some(slow);
    let outcome = waiter.join_timeout(Duration::from_secs(5));
    // Whatever happened, let a nested `slow` finish so a failing run can
    // still report and shut down instead of hanging.
    gate.store(true, Ordering::Release);
    let joined = outcome.expect("the bounded join ran the awaited job nested above its gate");
    assert_eq!(joined.unwrap(), 17);
    server.shutdown();
}

#[test]
fn idle_server_parks_all_workers_and_stays_parked() {
    const THREADS: usize = 4;
    // Pin parking on: this test asserts the parking subsystem itself, so
    // it must not inherit the `XGOMP_WAIT_POLICY=active` CI leg default.
    let server = TaskServer::start(
        ServerConfig::new(THREADS).runtime(
            RuntimeConfig::xgomptb(THREADS)
                .dlb(DlbConfig::new(DlbStrategy::WorkSteal))
                .park_idle(true),
        ),
    );
    // Warm up: prove the team is fully serving before it goes idle.
    server.submit(|_| ()).unwrap().join().unwrap();

    // Every worker — the serve-loop master included — must reach the
    // parked state once the backlog is gone.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while server.parked_workers() < THREADS {
        assert!(
            std::time::Instant::now() < deadline,
            "idle team never parked: {}/{THREADS} after warmup \
             (parks={}, wakes={})",
            server.parked_workers(),
            server.park_events(),
            server.wake_events(),
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let in-progress announcements commit to actual sleeps.
    std::thread::sleep(Duration::from_millis(50));

    // The park counter must stop moving: a parked team makes no
    // yield-loop progress (this is the CPU-burn assertion, observable
    // without wall-clock sampling).
    let parks_before = server.park_events();
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(
        server.park_events(),
        parks_before,
        "parked workers cycled through park/unpark while fully idle"
    );
    assert_eq!(server.parked_workers(), THREADS);

    // The doorbell path: one submission wakes the sleeping team and the
    // job completes normally.
    assert_eq!(server.submit(|_| 99u32).unwrap().join().unwrap(), 99);
    assert!(
        server.park_events() > parks_before || server.parked_workers() < THREADS,
        "submission must have woken at least one sleeper"
    );

    let report = server.shutdown();
    assert_eq!(report.stats.completed, 2);
    assert!(
        report.region.is_some(),
        "parked team must tear down cleanly"
    );
}

#[test]
fn concurrent_submitters_from_many_threads() {
    const SUBMITTERS: u64 = 8;
    const JOBS_PER: u64 = 250;
    let server = Arc::new(server(4));
    let sum = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let server = server.clone();
            let sum = sum.clone();
            std::thread::spawn(move || {
                let handles: Vec<_> = (0..JOBS_PER)
                    .map(|i| server.submit(move |_| t * 10_000 + i).unwrap())
                    .collect();
                for h in handles {
                    sum.fetch_add(h.join().unwrap(), Ordering::Relaxed);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let expected: u64 = (0..SUBMITTERS)
        .map(|t| (0..JOBS_PER).map(|i| t * 10_000 + i).sum::<u64>())
        .sum();
    assert_eq!(sum.load(Ordering::Relaxed), expected);
    let server = Arc::into_inner(server).expect("all submitters done");
    let report = server.shutdown();
    assert_eq!(report.stats.completed, SUBMITTERS * JOBS_PER);
}
