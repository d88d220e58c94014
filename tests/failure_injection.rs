//! Failure-injection and edge-case tests: degenerate configurations,
//! starved protocols, and hostile parameter choices must degrade
//! gracefully, never deadlock, and never corrupt results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xgomp::bots::{BotsApp, Scale};
use xgomp::service::{ServerConfig, TaskServer};
use xgomp::{DlbConfig, DlbStrategy, LoopSchedule, MachineTopology, Runtime, RuntimeConfig};

#[test]
fn zero_ish_queue_capacity_is_clamped_and_works() {
    // capacity 0/1 clamp to 2; everything still runs via overflow.
    for cap in [0usize, 1, 2] {
        let cfg = RuntimeConfig::xgomptb(3).queue_capacity(cap);
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|ctx| xgomp::bots::fib::par(ctx, 12));
        assert_eq!(out.result, 144, "cap={cap}");
    }
}

#[test]
fn dlb_on_single_worker_team_is_inert() {
    // One worker: no victims exist; the thief path must not spin-lock
    // or send self-requests that corrupt anything.
    for strategy in [DlbStrategy::WorkSteal, DlbStrategy::RedirectPush] {
        let cfg = RuntimeConfig::xgomptb(1).dlb(DlbConfig::new(strategy).t_interval(1));
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|ctx| xgomp::bots::fib::par(ctx, 14));
        assert_eq!(out.result, 377);
        let t = out.stats.total();
        assert_eq!(t.ntasks_stolen, 0, "{strategy:?} stole on a 1-team");
    }
}

#[test]
fn victims_that_never_find_tasks_cannot_stall_thieves() {
    // A region whose only work is one long-running task: every other
    // worker is a thief whose requests are never handled (the lone
    // victim never reaches a found-task scheduling point again). The
    // timeout/retry path must keep the system live to termination.
    let cfg = RuntimeConfig::xgomptb(4).dlb(
        DlbConfig::new(DlbStrategy::WorkSteal)
            .n_victim(1)
            .t_interval(4), // aggressive retry
    );
    let rt = Runtime::new(cfg);
    let hits = Arc::new(AtomicU64::new(0));
    let h = hits.clone();
    let out = rt.parallel(move |ctx| {
        let h = h.clone();
        ctx.spawn(move |_| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            h.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(hits.load(Ordering::Relaxed), 1);
    // Thieves sent (possibly many) requests; none may have been counted
    // as handled-with-steal since there was nothing to steal.
    let t = out.stats.total();
    assert_eq!(t.ntasks_stolen, 0);
    assert!(t.nreq_sent > 0, "starved thieves should have asked");
}

#[test]
fn empty_scopes_and_immediate_taskwaits_are_noops() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(2));
    let out = rt.parallel(|ctx| {
        ctx.scope(|_| { /* nothing spawned */ });
        ctx.taskwait();
        ctx.scope(|s| {
            s.spawn(|ctx| {
                ctx.taskwait(); // no children
            });
        });
        7u32
    });
    assert_eq!(out.result, 7);
    assert_eq!(out.stats.total().tasks_created, 1);
}

#[test]
fn extreme_priorities_do_not_confuse_any_scheduler() {
    for cfg in [
        RuntimeConfig::gomp(2),
        RuntimeConfig::lomp(2),
        RuntimeConfig::xgomptb(2),
    ] {
        let rt = Runtime::new(cfg);
        let sum = Arc::new(AtomicU64::new(0));
        let s2 = sum.clone();
        rt.parallel(move |ctx| {
            for (i, p) in [(1u64, i32::MAX), (2, i32::MIN), (4, 0), (8, -1)] {
                let s = s2.clone();
                ctx.spawn_with_priority(p, move |_| {
                    s.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 15);
    }
}

#[test]
fn pathological_dlb_parameters_stay_correct() {
    // t_interval = 1 (request every idle point), n_steal = huge,
    // p_local at both extremes.
    for p_local in [0.0, 1.0] {
        for strategy in [DlbStrategy::WorkSteal, DlbStrategy::RedirectPush] {
            let cfg = RuntimeConfig::xgomptb(4).dlb(
                DlbConfig::new(strategy)
                    .n_victim(64)
                    .n_steal(1_000_000)
                    .t_interval(1)
                    .p_local(p_local),
            );
            let rt = Runtime::new(cfg);
            let expect = BotsApp::Uts.run_seq(Scale::Test);
            let out = rt.parallel(|ctx| BotsApp::Uts.run_par(ctx, Scale::Test));
            assert_eq!(out.result, expect, "{strategy:?} p_local={p_local}");
            out.stats.check_invariants().unwrap();
        }
    }
}

#[test]
fn many_sequential_regions_do_not_leak() {
    // The allocator's leak counter is asserted inside parallel() in
    // debug builds; hammer region setup/teardown.
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    for i in 0..50 {
        let out = rt.parallel(|ctx| {
            let mut v = [0u8; 16];
            ctx.scope(|s| {
                for (j, b) in v.iter_mut().enumerate() {
                    s.spawn(move |_| *b = (i + j) as u8);
                }
            });
            v.iter().map(|&b| b as u64).sum::<u64>()
        });
        let expect: u64 = (0..16).map(|j| ((i + j) as u8) as u64).sum();
        assert_eq!(out.result, expect);
    }
}

#[test]
fn deeply_nested_scopes_do_not_overflow_reasonable_stacks() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(2).queue_capacity(4));
    let out = rt.parallel(|ctx| {
        fn nest(ctx: &xgomp::TaskCtx<'_>, depth: u32) -> u64 {
            if depth == 0 {
                return 1;
            }
            let mut below = 0u64;
            ctx.scope(|s| {
                s.spawn(|ctx| below = nest(ctx, depth - 1));
            });
            below + 1
        }
        nest(ctx, 300)
    });
    assert_eq!(out.result, 301);
}

#[test]
fn panicking_loop_body_racing_a_rebalance_probe_is_isolated() {
    // A loop whose body panics inside the rich half of the space —
    // the half the other zone's drain tasks steal-split from — must
    // fail only its own job: the sibling skewed loop conserves and the
    // server keeps serving.
    let rt = RuntimeConfig::xgomptb(4)
        .topology(MachineTopology::new(2, 2, 1))
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(32));
    let server = TaskServer::start(ServerConfig::new(4).runtime(rt));

    const N: u64 = 30_000;
    let sum = Arc::new(AtomicU64::new(0));
    let s = sum.clone();
    let sibling = server
        .submit_for(0..N, LoopSchedule::Dynamic(32), move |i, _| {
            if i >= N / 2 {
                for _ in 0..100 {
                    std::hint::spin_loop();
                }
            }
            s.fetch_add(i + 1, Ordering::Relaxed);
        })
        .unwrap();
    let doomed = server
        .submit_for(0..N, LoopSchedule::Guided(16), |i, _| {
            if i == N - N / 4 {
                panic!("iteration {i} exploded in the stolen-from half");
            }
            if i >= N / 2 {
                for _ in 0..100 {
                    std::hint::spin_loop();
                }
            }
        })
        .unwrap();

    let err = doomed.join().unwrap_err();
    let panic = err.panic().expect("panicked job yields JobError::Panicked");
    assert!(panic.message.contains("exploded"), "{}", panic.message);
    sibling.join().unwrap();
    assert_eq!(sum.load(Ordering::Relaxed), (1..=N).sum::<u64>());

    // The server still serves both flavors of work.
    assert_eq!(server.submit(|_| 5u32).unwrap().join().unwrap(), 5);
    let again = server
        .submit_for(0..1_000, LoopSchedule::Adaptive, |_, _| {})
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(again.iterations, 1_000);
    server.shutdown();
}

#[test]
fn profiling_on_under_dlb_keeps_invariants() {
    let cfg = RuntimeConfig::xgomptb(4)
        .profiling(true)
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(8));
    let rt = Runtime::new(cfg);
    let expect = BotsApp::Sort.run_seq(Scale::Test);
    let out = rt.parallel(|ctx| BotsApp::Sort.run_par(ctx, Scale::Test));
    assert_eq!(out.result, expect);
    out.stats.check_invariants().unwrap();
    assert!(out.logs.iter().any(|l| !l.events().is_empty()));
}

#[test]
fn trickling_metrics_clients_lose_their_handlers_at_the_head_deadline() {
    // A `/metrics` slow-loris: eight clients hold every handler slot,
    // each trickling its request head one byte per 200 ms — always
    // inside a per-read timeout, never finishing the head. A scrape at
    // once is shed with `503`; once the 2 s head deadline has passed,
    // every trickler has lost its handler and a scrape is served.
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    let server = TaskServer::start(ServerConfig::new(1).metrics_addr("127.0.0.1:0"));
    let addr = server.metrics_local_addr().expect("ephemeral bind");
    let stop = Arc::new(AtomicBool::new(false));
    let tricklers: Vec<_> = (0..8)
        .map(|_| {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(b"G").expect("first byte");
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(200));
                    if conn.write_all(b"E").is_err() {
                        break;
                    }
                }
            })
        })
        .collect();
    // Accepted after the eight (the listener's queue is FIFO). The shed
    // path answers without reading, so the request is sent only once
    // no `503` arrived.
    let scrape = || {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut resp = String::new();
        if conn.read_to_string(&mut resp).is_err() {
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            conn.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
            let _ = conn.read_to_string(&mut resp);
        }
        resp
    };
    let shed = scrape();
    assert!(shed.starts_with("HTTP/1.1 503"), "all slots held: {shed:?}");
    std::thread::sleep(Duration::from_millis(3_000));
    let served = scrape();
    assert!(
        served.starts_with("HTTP/1.1 200"),
        "tricklers outlived the head deadline: {:?}",
        served.lines().next()
    );
    stop.store(true, Ordering::Relaxed);
    for t in tricklers {
        t.join().unwrap();
    }
    server.shutdown();
}
