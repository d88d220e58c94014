//! Loop balancing across zones: conservation and chaos tests for
//! *concurrent* loops sharing one team.
//!
//! The contract under test, on top of `tests/loops.rs`' single-loop
//! guarantees:
//!
//! * N simultaneous `submit_for` jobs (mixed schedules, skewed bodies)
//!   each execute **every iteration exactly once**, with the executing
//!   zone recorded — no iteration runs in two zones;
//! * the server's cumulative range-steal telemetry equals the sum over
//!   the loops' reports;
//! * the chaos matrix holds: pause→resume landing mid-stream on live
//!   skewed loops, and a `resume_with` zone collapse (2 sockets → 1)
//!   plus worker shrink.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use xgomp::service::{ServerConfig, SubmitError, TaskServer};
use xgomp::{DlbConfig, DlbStrategy, IterSpace, LoopSchedule, MachineTopology, RuntimeConfig};

const SCHEDULES: [LoopSchedule; 8] = [
    LoopSchedule::Static,
    LoopSchedule::Dynamic(128),
    LoopSchedule::Guided(32),
    LoopSchedule::Adaptive,
    LoopSchedule::Tss {
        first: 256,
        last: 8,
    },
    LoopSchedule::Factoring,
    LoopSchedule::WeightedFactoring,
    LoopSchedule::Awf,
];

/// Schedule from a random pick: the classic four, the LB4OMP portfolio,
/// and `Auto` (resolved by the server's online selector — concurrent
/// Auto loops over different shapes exercise distinct selection sites).
fn pick_schedule(pick: u64, chunk: u32) -> LoopSchedule {
    match pick % 9 {
        0 => LoopSchedule::Static,
        1 => LoopSchedule::Dynamic(chunk),
        2 => LoopSchedule::Guided(chunk),
        3 => LoopSchedule::Adaptive,
        4 => LoopSchedule::Tss {
            first: chunk.max(1).saturating_mul(4),
            last: (chunk / 8).max(1),
        },
        5 => LoopSchedule::Factoring,
        6 => LoopSchedule::WeightedFactoring,
        7 => LoopSchedule::Awf,
        _ => LoopSchedule::Auto,
    }
}

/// A two-zone server.
fn two_zone_server(threads: usize) -> TaskServer {
    let rt = RuntimeConfig::xgomptb(threads)
        .topology(MachineTopology::new(2, threads.div_ceil(2).max(1), 1))
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(64));
    TaskServer::start(ServerConfig::new(threads).runtime(rt))
}

/// Spins ~`w` iterations of busy work (pure, checksum-free).
fn spin(w: u64) {
    for _ in 0..w {
        std::hint::spin_loop();
    }
}

/// (a) The conservation suite: N simultaneous loop jobs on one team,
/// mixed schedules, skewed cost. Every loop exactly-once, with the
/// executing zone recorded per iteration (an iteration claimed by two
/// zones would overwrite a non-zero owner), and the server's range-steal
/// telemetry equal to the sum of the loops' reports.
#[test]
fn concurrent_loops_conserve_exactly_once_across_zones() {
    const N: u64 = 60_000;
    const JOBS: usize = 8;
    let server = two_zone_server(4);

    // owners[j][i] = 1 + zone that executed iteration i of loop j.
    let owners: Vec<Arc<Vec<AtomicU8>>> = (0..JOBS)
        .map(|_| Arc::new((0..N).map(|_| AtomicU8::new(0)).collect()))
        .collect();
    let doubles = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..JOBS)
        .map(|j| {
            let sched = SCHEDULES[j % SCHEDULES.len()];
            let own = owners[j].clone();
            let doubles = doubles.clone();
            server
                .submit_for(0..N, sched, move |i, ctx| {
                    // Skew: the top quarter of every space is ~20× the
                    // cost, concentrated in the last zone's block.
                    if i >= N - N / 4 {
                        spin(400);
                    }
                    let zone = ctx.numa_zone() as u8 + 1;
                    if own[i as usize].swap(zone, Ordering::Relaxed) != 0 {
                        doubles.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .unwrap()
        })
        .collect();

    let mut steals_sum = 0;
    for (j, h) in handles.into_iter().enumerate() {
        let report = h.join().unwrap();
        let sched = SCHEDULES[j % SCHEDULES.len()];
        assert_eq!(report.iterations, N, "loop {j} ({})", sched.name());
        steals_sum += report.range_steals;
    }
    assert_eq!(doubles.load(Ordering::Relaxed), 0, "iteration ran twice");
    for (j, own) in owners.iter().enumerate() {
        assert!(
            own.iter().all(|o| {
                let z = o.load(Ordering::Relaxed);
                z == 1 || z == 2
            }),
            "loop {j}: some iteration never ran (or reported a bogus zone)"
        );
    }

    // The per-schedule telemetry's steal total is exactly the sum of the
    // loops' own reports — no steal is double-counted or lost.
    let stats = server.stats();
    assert_eq!(stats.loops, JOBS as u64);
    assert_eq!(stats.loop_iters, N * JOBS as u64);
    assert_eq!(stats.loop_range_steals, steals_sum);

    let report = server.shutdown();
    let region = report.region.expect("clean serve");
    region.stats.check_invariants().unwrap();
}

/// (b) Chaos: a pause lands mid-stream on a queue of skewed loops whose
/// zones steal from each other; the drain completes them, the queued
/// tail runs in the next generation, everything conserved.
#[test]
fn pause_resume_mid_rebalance_conserves() {
    const N: u64 = 20_000;
    const JOBS: usize = 10;
    let server = two_zone_server(4);
    let sum = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for j in 0..JOBS {
        let sched = SCHEDULES[j % SCHEDULES.len()];
        let s = sum.clone();
        handles.push(
            server
                .submit_for(0..N, sched, move |i, _| {
                    if i >= N / 2 {
                        spin(60);
                    }
                    s.fetch_add(i + 1, Ordering::Relaxed);
                })
                .unwrap(),
        );
        if j == JOBS / 2 {
            // Mid-stream: loops done / in-team (with possible in-flight
            // steals) / ring-queued. The pause drains everything
            // admitted so far.
            server.pause().unwrap();
        }
    }
    server.resume().unwrap();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        sum.load(Ordering::Relaxed),
        JOBS as u64 * (1..=N).sum::<u64>()
    );
    let stats = server.stats();
    assert_eq!(stats.loops, JOBS as u64);
    assert_eq!(stats.loop_iters, JOBS as u64 * N);
    server.shutdown();
}

/// (c) Chaos: `resume_with` collapses 2 sockets → 1 *and* shrinks the
/// worker set. Pre-swap loops may steal across zones (two pools);
/// post-swap loops cannot (single pool) — and the cumulative telemetry
/// must reflect exactly that.
#[test]
fn zone_collapse_and_worker_shrink_with_live_balancer() {
    const N: u64 = 30_000;
    let server = two_zone_server(6);

    let sum = Arc::new(AtomicU64::new(0));
    let s = sum.clone();
    let before = server
        .submit_for(0..N, LoopSchedule::Guided(16), move |i, _| {
            if i >= N / 2 {
                spin(80);
            }
            s.fetch_add(i, Ordering::Relaxed);
        })
        .unwrap()
        .join()
        .unwrap();
    let steals_before = server.stats().loop_range_steals;
    assert_eq!(steals_before, before.range_steals);

    server.pause().unwrap();
    server
        .resume_with(
            RuntimeConfig::xgomptb(2)
                .topology(MachineTopology::new(1, 2, 1))
                .dlb(DlbConfig::new(DlbStrategy::RedirectPush)),
        )
        .unwrap();

    let s = sum.clone();
    let after = server
        .submit_for(0..N, LoopSchedule::Adaptive, move |i, _| {
            if i >= N / 2 {
                spin(80);
            }
            s.fetch_add(i, Ordering::Relaxed);
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(sum.load(Ordering::Relaxed), 2 * (0..N).sum::<u64>());
    assert_eq!(
        after.range_steals, 0,
        "a single-zone loop has no remote pool to steal from"
    );
    // Cumulative across the swap: pre-swap steals survive, post-swap
    // adds none.
    let stats = server.stats();
    assert_eq!(stats.loops, 2);
    assert_eq!(stats.loop_range_steals, steals_before);
    server.shutdown();
}

/// (d) `submit_for` space validation: an iteration space wider than the
/// 2^62-unit schedulable bound comes back as a typed, terminal
/// `SubmitError::InvalidLoop` — before admission, so it costs no
/// in-flight slot — from both the blocking and non-blocking paths, with
/// the body handed back. (Ranges past u32::MAX are *valid* now — they
/// wave through panes — so the only rejection left is the 2^62 bound.)
#[test]
fn oversized_submit_for_returns_typed_error() {
    let server = two_zone_server(2);
    // A 2^41 x 2^41 rectangle: 2^82 elements, far past the bound, but
    // cheap to name — validation is O(1) closed-form math.
    let huge = xgomp::IterSpace::rect(1u64 << 41, 1u64 << 41);

    let err = server
        .try_submit_for(huge, LoopSchedule::Dynamic(64), |_, _| {})
        .unwrap_err();
    assert!(matches!(err, SubmitError::InvalidLoop(..)), "{err:?}");
    let loop_err = err.loop_error().expect("carries the loop error");
    assert!(matches!(
        loop_err,
        xgomp::LoopError::RangeTooLarge { len: u64::MAX }
    ));
    assert!(err.to_string().contains("2^62"));
    let _body = err.into_inner(); // the closure comes back

    // The blocking path is terminal too (must not park forever).
    let err = server
        .submit_for(huge, LoopSchedule::Adaptive, |_, _| {})
        .unwrap_err();
    assert!(err.loop_error().is_some());

    // Never admitted: no slot consumed, no submission counted.
    let stats = server.stats();
    assert_eq!(stats.submitted, 0);
    assert_eq!(stats.in_flight, 0);

    // A valid loop still runs fine afterwards.
    let ok = server
        .submit_for(0..100, LoopSchedule::Static, |_, _| {})
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(ok.iterations, 100);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, // each case runs a real server + thread team
        .. ProptestConfig::default()
    })]

    /// Random (loops, ranges, schedules, workers, sockets): L concurrent
    /// loop jobs conserve — index-sum checksums match the closed form and
    /// the team-level §V invariants hold.
    #[test]
    fn random_concurrent_loops_conserve(
        n_loops in 1usize..5,
        seed in 0u64..1_000_000,
        chunk in 1u32..256,
        threads in 1usize..6,
        sockets in 1usize..3,
    ) {
        // Per-loop (start, len, schedule) derived from the seed with a
        // splitmix-style mixer — the shim's proptest has no collection
        // strategies.
        let mix = |x: u64| {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let topo = MachineTopology::new(sockets, threads.div_ceil(sockets).max(1), 1);
        let rt = RuntimeConfig::xgomptb(threads)
            .topology(topo)
            .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(32));
        let server = TaskServer::start(
            ServerConfig::new(threads).runtime(rt),
        );

        let handles: Vec<_> = (0..n_loops)
            .map(|j| {
                let r = mix(seed.wrapping_add(j as u64));
                let sched = pick_schedule(r, chunk);
                let (start, len) = ((r >> 2) % 1_000, (r >> 12) % 20_000);
                let sum = Arc::new(AtomicU64::new(0));
                let s = sum.clone();
                let h = server
                    .submit_for(start..start + len, sched, move |i, _| {
                        s.fetch_add(i, Ordering::Relaxed);
                    })
                    .unwrap();
                (h, sum, start, len)
            })
            .collect();

        for (h, sum, start, len) in handles {
            let report = h.join().unwrap();
            prop_assert_eq!(report.iterations, len);
            let expect: u64 = (start..start + len).sum();
            prop_assert_eq!(sum.load(Ordering::Relaxed), expect);
        }
        let report = server.shutdown();
        let region = report.region.expect("clean serve");
        prop_assert!(region.stats.check_invariants().is_ok());
    }

    /// Random concurrent loops over **mixed iteration-space shapes**
    /// (1-D / 2-D tiled / triangular) racing on one server: each job's
    /// linear-id checksum matches the closed form (the point → id map is
    /// a bijection onto `0..len`, so the sum proves exactly-once), some
    /// jobs are cancelled mid-flight and must conserve
    /// `executed + cancelled == len` instead.
    #[test]
    fn random_concurrent_spaces_conserve(
        n_loops in 1usize..5,
        seed in 0u64..1_000_000,
        chunk in 1u32..128,
        threads in 1usize..6,
        sockets in 1usize..3,
        cancel_mask in 0u8..8,
    ) {
        let mix = |x: u64| {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let topo = MachineTopology::new(sockets, threads.div_ceil(sockets).max(1), 1);
        let rt = RuntimeConfig::xgomptb(threads)
            .topology(topo)
            .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(32));
        let server = TaskServer::start(
            ServerConfig::new(threads).runtime(rt),
        );

        let handles: Vec<_> = (0..n_loops)
            .map(|j| {
                let r = mix(seed.wrapping_add(j as u64));
                let sched = pick_schedule(r, chunk);
                let tile = ((r >> 8) % 18 + 1) as u32;
                let (a, b) = ((r >> 13) % 90 + 1, (r >> 21) % 45 + 1);
                // Linear element id per shape: a bijection onto 0..len.
                type Lin = fn(u64, u64, u64) -> u64;
                let (space, lin): (IterSpace, Lin) = match (r >> 2) % 3 {
                    0 => (IterSpace::range(0..a * b), |i, _, _| i),
                    1 => (
                        IterSpace::rect_tiled(a, b, tile, (tile / 2).max(1)),
                        |r, c, cols| r * cols + c,
                    ),
                    _ => (
                        IterSpace::triangular_tiled(a, tile),
                        |r, c, _| r * (r + 1) / 2 + c,
                    ),
                };
                let len = space.len();
                let sum = Arc::new(AtomicU64::new(0));
                let count = Arc::new(AtomicU64::new(0));
                let (s, n) = (sum.clone(), count.clone());
                let h = server
                    .submit_for(space, sched, move |(p, q), _| {
                        s.fetch_add(lin(p, q, b), Ordering::Relaxed);
                        n.fetch_add(1, Ordering::Relaxed);
                    })
                    .unwrap();
                let cancel = j < 3 && cancel_mask & (1 << j) != 0;
                if cancel {
                    h.cancel();
                }
                (h, sum, count, len, cancel)
            })
            .collect();

        let mut executed_total = 0u64;
        for (h, sum, count, len, cancel) in handles {
            match h.join() {
                Ok(report) => {
                    prop_assert_eq!(report.iterations, len);
                    // Linear-id sum over exactly-once coverage.
                    prop_assert_eq!(
                        sum.load(Ordering::Relaxed),
                        len * len.saturating_sub(1) / 2
                    );
                    prop_assert_eq!(count.load(Ordering::Relaxed), len);
                }
                Err(e) => {
                    // Only an explicitly cancelled job may resolve with
                    // an error — shed (never ran) or cancelled mid-run;
                    // either way no element runs twice.
                    prop_assert!(cancel, "uncancelled job failed: {:?}", e);
                    prop_assert!(e.is_cancelled());
                    prop_assert!(count.load(Ordering::Relaxed) <= len);
                }
            }
            executed_total += count.load(Ordering::Relaxed);
        }
        let report = server.shutdown();
        let region = report.region.expect("clean serve");
        prop_assert!(region.stats.check_invariants().is_ok());
        // Team-level conservation: the §V counters saw exactly the
        // elements the bodies executed — completed, cancelled and shed
        // jobs included.
        prop_assert_eq!(region.stats.total().nloop_iters, executed_total);
    }
}
