//! Serving robustness: QoS admission quotas, cooperative cancellation,
//! deadlines with load shedding — chaos tests and exact conservation.
//!
//! The contract under test:
//!
//! * Admission is class-aware: `Background`/`Normal` jobs admit against
//!   `max_in_flight - ls_reserve` (Background additionally against
//!   `background_cap`), so a background flood backpressures while
//!   latency-sensitive capacity stays reserved;
//! * `JobHandle::cancel()` resolves exactly one way per job — *shed*
//!   (body never ran), *cancelled* (unwound at a checkpoint), or the
//!   job's own completion if it got there first — and a cancelled
//!   `parallel_for` abandons its remaining ranges into
//!   `nloop_cancelled_iters` with **exact** iteration conservation;
//! * deadlines shed expired queued jobs (even across a paused
//!   generation) and cooperatively cancel expired running jobs;
//! * after quiescence, `submitted == completed + cancelled + shed`
//!   holds exactly, globally and per QoS class, under random class
//!   mixes, quota splits, and cancel points.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use xgomp::service::{ServerConfig, TaskServer};
use xgomp::{
    CancelToken, DlbConfig, DlbStrategy, LoopSchedule, MachineTopology, QosClass, Runtime,
    RuntimeConfig, SubmitOptions,
};

/// A two-zone server.
fn two_zone_server(threads: usize) -> TaskServer {
    let rt = RuntimeConfig::xgomptb(threads)
        .topology(MachineTopology::new(2, threads.div_ceil(2).max(1), 1))
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(32));
    TaskServer::start(ServerConfig::new(threads).runtime(rt))
}

#[test]
fn background_flood_leaves_latency_sensitive_capacity() {
    // One gated worker ⇒ nothing drains; admission is all that moves.
    let gate = Arc::new(AtomicBool::new(false));
    let server = TaskServer::start(
        ServerConfig::new(1)
            .max_in_flight(4)
            .ls_reserve(2)
            .background_cap(2)
            .lanes_per_shard(1)
            .lane_capacity(8),
    );
    let blocked = |gate: &Arc<AtomicBool>| {
        let gate = gate.clone();
        move |_: &xgomp::TaskCtx<'_>| {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
    };

    // Background admits up to min(max - ls_reserve, background_cap) = 2.
    let mut handles = Vec::new();
    for _ in 0..2 {
        handles.push(
            server
                .with(SubmitOptions::from(QosClass::Background))
                .try_submit(blocked(&gate))
                .expect("background quota not yet full"),
        );
    }
    let err = server
        .with(SubmitOptions::from(QosClass::Background))
        .try_submit(blocked(&gate))
        .unwrap_err();
    assert!(err.is_backpressure(), "background flood sheds: {err:?}");
    // Normal shares the non-reserved pool, which the flood just filled.
    let err = server
        .with(SubmitOptions::from(QosClass::Normal))
        .try_submit(blocked(&gate))
        .unwrap_err();
    assert!(err.is_backpressure(), "{err:?}");

    // The reserved headroom still admits latency-sensitive work.
    for _ in 0..2 {
        handles.push(
            server
                .with(SubmitOptions::from(QosClass::LatencySensitive))
                .try_submit(blocked(&gate))
                .expect("ls_reserve carve-out must admit"),
        );
    }
    let err = server
        .with(SubmitOptions::from(QosClass::LatencySensitive))
        .try_submit(blocked(&gate))
        .unwrap_err();
    assert!(err.is_backpressure(), "{err:?}");

    gate.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    let by_class = server.class_stats();
    assert_eq!(by_class[QosClass::Background.index()].submitted, 2);
    assert_eq!(by_class[QosClass::LatencySensitive.index()].submitted, 2);
    let report = server.shutdown();
    assert_eq!(report.stats.completed, 4);
    assert_eq!(report.stats.rejected, 3);
}

#[test]
fn cancel_mid_loop_conserves_iterations_exactly() {
    const LEN: u64 = 100_000;
    let server = two_zone_server(4);
    let spin = Arc::new(AtomicBool::new(true));
    let ran = Arc::new(AtomicU64::new(0));
    let (s, r) = (spin.clone(), ran.clone());
    let h = server
        .submit_for(0..LEN, LoopSchedule::Dynamic(64), move |_, _| {
            r.fetch_add(1, Ordering::Relaxed);
            while s.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        })
        .unwrap();
    // Workers are each stuck inside one iteration: the cancel lands
    // strictly before the loop can finish.
    while ran.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    h.cancel();
    spin.store(false, Ordering::Release);
    let err = h.join().unwrap_err();
    assert!(err.is_cancelled(), "typed cancel outcome: {err:?}");

    // The server survives a cancelled loop.
    let ok = server
        .submit_for(0..1_000, LoopSchedule::Static, |_, _| {})
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(ok.iterations, 1_000);

    let stats = server.stats();
    assert_eq!(stats.cancelled, 1);
    let report = server.shutdown();
    let total = report.region.expect("clean serve end").stats.total();
    // Exact conservation: every iteration either ran (once) or was
    // abandoned into the cancelled count — none lost, none doubled.
    assert_eq!(total.nloop_iters + total.nloop_cancelled_iters, LEN + 1_000);
    assert_eq!(total.nloop_iters, ran.load(Ordering::Relaxed) + 1_000);
    assert!(total.nloop_cancelled_iters > 0, "ranges were abandoned");
}

/// `Dynamic(1)` over no-op bodies runs at full reserve depth: each
/// worker holds up to 32 already-claimed chunks privately. A token fired
/// from inside iteration `k` must stop every worker at its *next* chunk
/// — the reserve is abandoned into `cancelled_iters`, not run out — so at
/// most one body per worker can even start with the token already fired,
/// and conservation stays exact.
#[test]
fn cancel_inside_a_reserve_abandons_it_exactly() {
    const LEN: u64 = 1 << 20;
    const WORKERS: usize = 4;
    let rt =
        Runtime::new(RuntimeConfig::xgomptb(WORKERS).topology(MachineTopology::new(1, WORKERS, 1)));
    for round in 0..200u64 {
        let k = 2_000 + 37 * round;
        let out = rt.parallel(move |ctx| {
            let token = CancelToken::new();
            ctx.set_cancel_token(token.clone());
            let (ran, late) = (AtomicU64::new(0), AtomicU64::new(0));
            let report = ctx.parallel_for(0..LEN, LoopSchedule::Dynamic(1), |i, _| {
                late.fetch_add(u64::from(token.is_fired()), Ordering::Relaxed);
                ran.fetch_add(1, Ordering::Relaxed);
                if i == k {
                    token.cancel();
                }
            });
            ctx.clear_cancel_token();
            (report, ran.into_inner(), late.into_inner())
        });
        let (report, ran, late) = out.result;
        assert_eq!(report.iterations, ran, "round {round}");
        assert_eq!(
            report.iterations + report.cancelled_iters,
            LEN,
            "round {round}: conservation with reserves in flight"
        );
        assert!(report.cancelled_iters > 0, "round {round}");
        assert_eq!(
            report.chunks, ran,
            "round {round}: chunks are executed chunks"
        );
        assert!(
            late <= WORKERS as u64,
            "round {round}: {late} bodies started after the token fired — a reserve was run out"
        );
        out.stats.check_invariants().unwrap();
    }
}

/// The same, fired by a deadline: the drain path compares the deadline
/// once per timing window (with the window's own clock reading) and the
/// serve loop sweeps it too; whichever promotes the token, the per-chunk
/// state check stops every worker inside its reserve.
#[test]
fn deadline_inside_a_reserve_abandons_it_exactly() {
    const LEN: u64 = 1 << 30; // seconds of work: only the deadline ends it
    const WORKERS: usize = 4;
    const ROUNDS: u64 = 20;
    let rt = RuntimeConfig::xgomptb(WORKERS).topology(MachineTopology::new(1, WORKERS, 1));
    let server = TaskServer::start(ServerConfig::new(WORKERS).runtime(rt));
    let ran = Arc::new(AtomicU64::new(0));
    for round in 0..ROUNDS {
        let late = Arc::new(AtomicU64::new(0));
        let (r, l) = (ran.clone(), late.clone());
        let h = server
            .with(SubmitOptions::new().deadline(Duration::from_millis(5)))
            .submit_for(0..LEN, LoopSchedule::Dynamic(1), move |_, ctx| {
                let fired = ctx.cancel_token().is_some_and(|t| t.is_fired());
                l.fetch_add(u64::from(fired), Ordering::Relaxed);
                r.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        let err = h.join().unwrap_err();
        assert!(err.is_deadline_exceeded(), "round {round}: {err:?}");
        let late = late.load(Ordering::Relaxed);
        assert!(
            late <= WORKERS as u64,
            "round {round}: {late} bodies started after the deadline fired"
        );
    }
    let report = server.shutdown();
    // A job the host delayed past its deadline before it could start is
    // shed, loop unseen; every loop that did start conserves exactly.
    let started = report.stats.cancelled;
    assert_eq!(started + report.stats.shed, ROUNDS);
    let total = report.region.expect("clean serve end").stats.total();
    assert_eq!(
        total.nloop_iters + total.nloop_cancelled_iters,
        started * LEN
    );
    assert_eq!(total.nloop_iters, ran.load(Ordering::Relaxed));
    assert_eq!(total.nloop_chunks, total.nloop_iters);
    assert!(total.nloop_cancelled_iters > 0);
}

#[test]
fn cancel_races_pause_and_resume_with() {
    let server = Arc::new(two_zone_server(4));
    let spin = Arc::new(AtomicBool::new(true));
    let ran = Arc::new(AtomicU64::new(0));
    let (s, r) = (spin.clone(), ran.clone());
    let h = server
        .submit_for(0..50_000, LoopSchedule::Dynamic(32), move |_, _| {
            r.fetch_add(1, Ordering::Relaxed);
            while s.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        })
        .unwrap();
    while ran.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    // Cancel, then pause while the loop is still unwinding: the drain
    // must complete (abandoned ranges and all) for the pause to land.
    h.cancel();
    let pauser = {
        let server = server.clone();
        std::thread::spawn(move || server.pause())
    };
    std::thread::sleep(Duration::from_millis(2));
    spin.store(false, Ordering::Release);
    pauser.join().unwrap().expect("pause completes post-cancel");
    assert!(h.join().unwrap_err().is_cancelled());

    // The next generation reshapes the machine and keeps serving.
    let rt = RuntimeConfig::xgomptb(2)
        .topology(MachineTopology::new(1, 2, 1))
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(32));
    server.resume_with(rt).unwrap();
    let ok = server
        .submit_for(0..5_000, LoopSchedule::Adaptive, |_, _| {})
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(ok.iterations, 5_000);
    let stats = server.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled + stats.shed
    );
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

#[test]
fn queued_deadline_expires_across_a_paused_generation() {
    let server = two_zone_server(2);
    server.pause().unwrap();
    // Queued into the paused generation; nothing can start it.
    let h = server
        .with(
            SubmitOptions::new()
                .qos(QosClass::Background)
                .deadline(Duration::from_millis(5)),
        )
        .submit(|_| 42u32)
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    // The deadline passed while paused (no sweep runs); resuming must
    // shed it — at the sweep or the start-time gate, whichever first.
    server.resume().unwrap();
    let err = h.join().unwrap_err();
    assert!(err.is_deadline_exceeded(), "{err:?}");
    assert!(!err.is_cancelled());

    // A deadline roomy enough never fires.
    let ok = server
        .with(SubmitOptions::new().deadline(Duration::from_secs(600)))
        .submit(|_| 7u32)
        .unwrap();
    assert_eq!(ok.join().unwrap(), 7);

    let report = server.shutdown();
    assert_eq!(report.stats.shed, 1);
    assert_eq!(report.stats.completed, 1);
    assert_eq!(
        report.stats.submitted,
        report.stats.completed + report.stats.cancelled + report.stats.shed
    );
}

#[test]
fn running_job_past_deadline_cancels_at_a_checkpoint() {
    let server = two_zone_server(2);
    let h = server
        .with(SubmitOptions::new().deadline(Duration::from_millis(10)))
        .submit(|ctx| -> u32 {
            // A cooperative body: polls the checkpoint until the
            // serve loop's sweep fires the token.
            loop {
                ctx.check_cancel();
                std::hint::spin_loop();
            }
        })
        .unwrap();
    let err = h.join().unwrap_err();
    assert!(err.is_deadline_exceeded(), "{err:?}");
    let report = server.shutdown();
    // Started and then unwound ⇒ cancelled, not shed.
    assert_eq!(report.stats.cancelled, 1);
    assert_eq!(report.stats.shed, 0);
}

#[test]
fn join_timeout_returns_the_live_handle() {
    let server = two_zone_server(2);
    let gate = Arc::new(AtomicBool::new(false));
    let g = gate.clone();
    let h = server
        .submit(move |_| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            11u32
        })
        .unwrap();
    let timeout = h
        .join_timeout(Duration::from_millis(5))
        .expect_err("gated job cannot finish in time");
    gate.store(true, Ordering::Release);
    assert_eq!(timeout.handle.join().unwrap(), 11);

    // In-team flavor: a job waits on a sibling without parking the
    // worker, times out, releases the sibling's gate, then joins it.
    let gate = Arc::new(AtomicBool::new(false));
    let g = gate.clone();
    let slow = server
        .submit(move |_| {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            17u32
        })
        .unwrap();
    let waiter = server
        .submit(move |ctx| {
            let timeout = slow
                .join_within_timeout(ctx, Duration::from_millis(5))
                .expect_err("sibling is gated");
            gate.store(true, Ordering::Release);
            timeout.handle.join_within(ctx).unwrap()
        })
        .unwrap();
    assert_eq!(waiter.join().unwrap(), 17);
    server.shutdown();
}

/// Regression stress for the gated-sibling stranding hang: with batched
/// round-robin injection, a drained job could be spawned into the SPSC
/// queue of a worker that was spinning inside another job's body — where
/// no one else could ever pop it, even with every other worker idle. The
/// observed shape (~20% of runs of the test above, parked leg): the
/// master futex-parked, one worker spinning in the gated `slow` body,
/// and `waiter` — the only job that would release the gate — stranded in
/// the spinner's queue. Injection now self-targets one job at a time, so
/// an unclaimed job always stays in the shared MPSC ingress where any
/// idle worker can take it. Hammer that exact dependency shape; a hang
/// (CI timeout) is the failure mode.
#[test]
fn gated_sibling_pairs_never_strand() {
    let server = two_zone_server(2);
    for round in 0..200 {
        let gate = Arc::new(AtomicBool::new(false));
        let g = gate.clone();
        let slow = server
            .submit(move |_| {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                round
            })
            .unwrap();
        let waiter = server
            .submit(move |ctx| {
                // Waiting in-team with a tiny timeout keeps this worker
                // helping (it may even run `slow`'s sibling jobs), then
                // releases the gate the sibling spins on.
                let timeout = slow
                    .join_within_timeout(ctx, Duration::from_micros(100))
                    .expect_err("sibling is gated until we release it");
                gate.store(true, Ordering::Release);
                timeout.handle.join_within(ctx).unwrap()
            })
            .unwrap();
        assert_eq!(waiter.join().unwrap(), round);
    }
    let report = server.shutdown();
    assert_eq!(report.stats.completed, 400);
}

#[test]
fn cancel_before_start_sheds_without_running_the_body() {
    // Paused server: the job can never start, so cancel() must resolve
    // the handle as shed — and the body must never run.
    let server = two_zone_server(2);
    server.pause().unwrap();
    let ran = Arc::new(AtomicBool::new(false));
    let r = ran.clone();
    let h = server
        .submit(move |_| {
            r.store(true, Ordering::Release);
        })
        .unwrap();
    h.cancel();
    // The handle resolves immediately — no resume needed to observe it.
    let err = h.join().unwrap_err();
    assert!(err.is_cancelled(), "{err:?}");
    server.resume().unwrap();
    let report = server.shutdown();
    assert!(!ran.load(Ordering::Acquire), "shed body must never run");
    assert_eq!(report.stats.shed, 1);
    assert_eq!(report.stats.completed, 0);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs a real server + thread team
        .. ProptestConfig::default()
    })]

    /// Random (class mix, quota split, cancel points): after the server
    /// quiesces, `completed + cancelled + shed == submitted` holds
    /// *exactly*, globally and per class, and every handle resolved
    /// with a typed outcome.
    #[test]
    fn outcomes_partition_submissions_exactly(
        seed in 0u64..1_000_000,
        threads in 1usize..5,
        max_in_flight in 2usize..12,
        reserve_pick in 0usize..4,
        bg_pick in 1usize..5,
        n_jobs in 8usize..40,
    ) {
        let mix = |x: u64| {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let server = TaskServer::start(
            ServerConfig::new(threads)
                .max_in_flight(max_in_flight)
                .ls_reserve(reserve_pick.min(max_in_flight - 1))
                .background_cap(bg_pick.min(max_in_flight)),
        );
        let mut handles = Vec::new();
        let mut accepted = 0u64;
        for j in 0..n_jobs {
            let r = mix(seed.wrapping_add(j as u64));
            let qos = match r % 3 {
                0 => QosClass::LatencySensitive,
                1 => QosClass::Normal,
                _ => QosClass::Background,
            };
            let mut opts = SubmitOptions::from(qos);
            // Cancel points: 0 = run clean, 1 = cancel right after
            // submit, 2 = instant deadline, 3 = roomy deadline.
            let point = (r >> 8) % 4;
            if point == 2 {
                opts = opts.deadline(Duration::ZERO);
            } else if point == 3 {
                opts = opts.deadline(Duration::from_secs(600));
            }
            let spin = 1 + (r >> 16) % 500;
            match server.with(opts).try_submit(move |_| {
                for _ in 0..spin {
                    std::hint::spin_loop();
                }
            }) {
                Ok(h) => {
                    if point == 1 {
                        h.cancel();
                    }
                    accepted += 1;
                    handles.push(h);
                }
                Err(e) => prop_assert!(e.is_backpressure(), "{e:?}"),
            }
        }
        for h in handles {
            match h.join() {
                Ok(()) => {}
                Err(e) => prop_assert!(
                    e.is_cancelled() || e.is_deadline_exceeded(),
                    "only typed outcomes: {e:?}"
                ),
            }
        }
        // Quiesce first: a handle resolves before its ring slot drains,
        // so the counters lag the joins by a moment.
        while server.stats().in_flight != 0 {
            std::thread::yield_now();
        }
        let by_class = server.class_stats();
        for c in &by_class {
            prop_assert_eq!(c.submitted, c.completed + c.cancelled + c.shed);
        }
        let class_sum: u64 = by_class.iter().map(|c| c.submitted).sum();
        // Shutdown drains the rings: the partition is exact after it.
        let report = server.shutdown();
        let s = &report.stats;
        prop_assert_eq!(s.submitted, accepted);
        prop_assert_eq!(s.submitted, class_sum);
        prop_assert_eq!(s.submitted, s.completed + s.cancelled + s.shed);
        prop_assert_eq!(s.in_flight, 0);
        prop_assert_eq!(s.queued, 0);
    }
}
