//! Data-parallel loop subsystem: end-to-end conservation tests.
//!
//! The contract under test: **every schedule executes every iteration
//! exactly once** — including while ordinary task jobs run concurrently,
//! across a `pause()`/`resume()` cycle that lands mid-stream in a queue
//! of loop jobs, and across a worker-count shrink at a generation
//! boundary — and the loop/ingress telemetry is cumulative across
//! generations (counters survive a `resume_with` zone re-map).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use xgomp::service::{ServerConfig, TaskServer};
use xgomp::{
    CancelToken, DlbConfig, DlbStrategy, IterSpace, LoopSchedule, MachineTopology, Runtime,
    RuntimeConfig,
};

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

/// The proptest schedule generator: the classic four (with a random
/// chunk), the LB4OMP portfolio, and `Auto` (which resolves through the
/// selector on a server, or to the fallback on a plain runtime — either
/// way the conservation contract is identical).
fn pick_schedule(pick: u8, chunk: u32) -> LoopSchedule {
    match pick % 9 {
        0 => LoopSchedule::Static,
        1 => LoopSchedule::Dynamic(chunk),
        2 => LoopSchedule::Guided(chunk),
        3 => LoopSchedule::Adaptive,
        4 => LoopSchedule::Tss {
            first: chunk.max(1),
            last: (chunk / 16).max(1),
        },
        5 => LoopSchedule::Factoring,
        6 => LoopSchedule::WeightedFactoring,
        7 => LoopSchedule::Awf,
        _ => LoopSchedule::Auto,
    }
}

fn two_zone_server(threads: usize) -> TaskServer {
    let rt = RuntimeConfig::xgomptb(threads)
        .topology(MachineTopology::new(2, threads.div_ceil(2).max(1), 1))
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(64));
    TaskServer::start(ServerConfig::new(threads).runtime(rt))
}

/// (a) Exactly-once over 1M iterations for every schedule, with a
/// stream of ordinary task jobs running concurrently on the same team.
#[test]
fn every_schedule_is_exactly_once_under_concurrent_jobs() {
    const N: usize = 1_000_000;
    let server = two_zone_server(4);
    for sched in SCHEDULES {
        let hits: Arc<Vec<AtomicU8>> = Arc::new((0..N).map(|_| AtomicU8::new(0)).collect());
        let noise = Arc::new(AtomicU64::new(0));

        // Concurrent task jobs racing the loop through the same ingress.
        let task_jobs: Vec<_> = (0..64)
            .map(|_| {
                let noise = noise.clone();
                server
                    .submit(move |_| {
                        noise.fetch_add(1, Ordering::Relaxed);
                    })
                    .unwrap()
            })
            .collect();

        let h2 = hits.clone();
        let report = server
            .submit_for(0..N as u64, sched, move |i, _| {
                h2[i as usize].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap()
            .join()
            .unwrap();

        assert_eq!(report.iterations, N as u64, "{}", sched.name());
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "{}: some iteration not executed exactly once",
            sched.name()
        );
        for j in task_jobs {
            j.join().unwrap();
        }
        assert_eq!(noise.load(Ordering::Relaxed), 64);
    }
    let stats = server.stats();
    assert_eq!(stats.loops, SCHEDULES.len() as u64);
    assert_eq!(stats.loop_iters, (N * SCHEDULES.len()) as u64);
    server.shutdown();
}

/// (b) A pause → resume cycle landing mid-stream in a queue of loop
/// jobs: everything admitted is conserved, before and after the cycle.
#[test]
fn pause_resume_mid_loop_queue_conserves_iterations() {
    const N: u64 = 40_000;
    const JOBS: usize = 12;
    let server = two_zone_server(4);
    let sum = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for j in 0..JOBS {
        let sched = SCHEDULES[j % SCHEDULES.len()];
        let s = sum.clone();
        handles.push(
            server
                .submit_for(0..N, sched, move |i, _| {
                    s.fetch_add(i + 1, Ordering::Relaxed);
                })
                .unwrap(),
        );
        if j == JOBS / 2 {
            // Mid-stream: some loop jobs done, some in-team, some still
            // ring-queued. The pause drains everything admitted so far
            // to a quiescent parked team.
            server.pause().unwrap();
            // Jobs submitted while paused queue for the next generation.
        }
    }
    let paused_stats = server.stats();
    assert!(paused_stats.generations >= 1);
    server.resume().unwrap();
    for h in handles {
        h.join().unwrap();
    }
    let expect = (JOBS as u64) * (1..=N).sum::<u64>();
    assert_eq!(sum.load(Ordering::Relaxed), expect);

    let report = server.shutdown();
    assert_eq!(report.stats.loops, JOBS as u64);
    assert_eq!(report.stats.loop_iters, JOBS as u64 * N);
}

/// (c) Worker-count shrink (and zone re-map) on resume: loops keep
/// conserving, and the cross-generation loop telemetry keeps counting —
/// it must not reset with the generation.
#[test]
fn worker_shrink_on_resume_conserves_and_telemetry_survives() {
    const N: u64 = 100_000;
    let server = two_zone_server(6);

    let sum = Arc::new(AtomicU64::new(0));
    let s = sum.clone();
    server
        .submit_for(0..N, LoopSchedule::Guided(16), move |i, _| {
            s.fetch_add(i, Ordering::Relaxed);
        })
        .unwrap()
        .join()
        .unwrap();
    let before = server.stats();
    assert_eq!(before.loop_iters, N);

    // Shrink 6 → 2 workers AND collapse two zones into one (zone re-map
    // onto the fixed ingress shard set).
    server.pause().unwrap();
    server
        .resume_with(
            RuntimeConfig::xgomptb(2)
                .topology(MachineTopology::new(1, 2, 1))
                .dlb(DlbConfig::new(DlbStrategy::RedirectPush)),
        )
        .unwrap();

    let s = sum.clone();
    server
        .submit_for(0..N, LoopSchedule::Adaptive, move |i, _| {
            s.fetch_add(i, Ordering::Relaxed);
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(sum.load(Ordering::Relaxed), 2 * (0..N).sum::<u64>());

    // Cumulative across the swap: the telemetry block belongs to the
    // server, not the generation.
    let after = server.stats();
    assert_eq!(after.loops, before.loops + 1);
    assert_eq!(after.loop_iters, before.loop_iters + N);
    let per = server.loop_telemetry().per_schedule;
    assert_eq!(per[LoopSchedule::Guided(16).index()].loops, 1);
    assert_eq!(per[LoopSchedule::Adaptive.index()].loops, 1);
    server.shutdown();
}

/// The reserve decays with the pool: one claim takes at most half the
/// claimer's fair share of what is left, so cheap iterations ahead of an
/// expensive tail cannot talk a worker into reserving the whole tail
/// (an uncapped 32-deep reserve would swallow all 16 slow iterations
/// here), and a loop too short to measure never reserves at all.
#[test]
fn reserves_decay_so_no_worker_swallows_a_slow_tail() {
    const SLOW: u64 = 16;
    let rt = Runtime::new(RuntimeConfig::xgomptb(4).topology(MachineTopology::new(1, 4, 1)));
    for fast in [10_000u64, 0] {
        let slow_by_worker: [AtomicU64; 4] = Default::default();
        let out = rt.parallel(|ctx| {
            ctx.parallel_for(0..fast + SLOW, LoopSchedule::Dynamic(1), |i, c| {
                if i >= fast {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    slow_by_worker[c.worker_id()].fetch_add(1, Ordering::Relaxed);
                }
            })
        });
        assert_eq!(out.result.iterations, fast + SLOW);
        let ran = slow_by_worker.each_ref().map(|n| n.load(Ordering::Relaxed));
        assert_eq!(ran.iter().sum::<u64>(), SLOW);
        assert!(
            ran.iter().all(|&n| n <= SLOW / 2),
            "{fast} fast iterations first: slow iterations per worker {ran:?}"
        );
    }
}

/// Satellite audit: per-lane ingress counters survive a `resume_with`
/// zone re-map — a registered submitter's pushed/drained accounting is
/// cumulative across generations, not reset by the re-map.
#[test]
fn ingress_lane_counters_survive_resume_with_zone_remap() {
    let server = two_zone_server(4);
    let mut sub = server.register_submitter(0);
    let lane = sub.lane().expect("a reservable lane");
    let shard = sub.shard();

    let h: Vec<_> = (0..50u64)
        .map(|i| sub.submit(move |_| i).unwrap())
        .collect();
    for (i, h) in h.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), i as u64);
    }
    let (pushed_before, drained_before) = server.ingress().shard(shard).lane_counters()[lane];
    assert_eq!((pushed_before, drained_before), (50, 50));

    // Re-map: 2 zones → 1 zone, worker count changed.
    server.pause().unwrap();
    server
        .resume_with(RuntimeConfig::xgomptb(3).topology(MachineTopology::new(1, 3, 1)))
        .unwrap();

    let h: Vec<_> = (0..30u64)
        .map(|i| sub.submit(move |_| i).unwrap())
        .collect();
    for h in h {
        h.join().unwrap();
    }
    let (pushed_after, drained_after) = server.ingress().shard(shard).lane_counters()[lane];
    assert_eq!(
        (pushed_after, drained_after),
        (80, 80),
        "lane counters must be cumulative across a zone re-map, not reset"
    );
    drop(sub);
    server.shutdown();
}

/// Giant waved spaces (one element either side of the old u32::MAX
/// ceiling) conserve **in u64** under cancellation: a brief executed
/// slice, then the remainder is abandoned through the O(1) closed-form
/// accounting — `executed + cancelled == len` exactly. (Full completion
/// of a >u32::MAX space is exercised in release by the `loop_schedules`
/// bench bin; here the body only runs a sliver, so debug builds stay
/// fast.)
#[test]
fn giant_waved_loops_conserve_under_cancellation() {
    for len in [u32::MAX as u64 - 1, u32::MAX as u64 + 1] {
        let rt = Runtime::new(
            RuntimeConfig::xgomptb(4)
                .topology(MachineTopology::new(2, 2, 1))
                .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(64)),
        );
        let out = rt.parallel(move |ctx| {
            let token = CancelToken::new();
            ctx.set_cancel_token(token.clone());
            let count = AtomicU64::new(0);
            let report = ctx.parallel_for(0..len, LoopSchedule::Dynamic(512), |_, _| {
                if count.fetch_add(1, Ordering::Relaxed) == 20_000 {
                    token.cancel();
                }
            });
            ctx.clear_cancel_token();
            (count.load(Ordering::Relaxed), report)
        });
        let (executed, report) = out.result;
        assert_eq!(
            report.iterations + report.cancelled_iters,
            len,
            "u64 conservation at len = {len}"
        );
        assert_eq!(report.iterations, executed, "every executed body counted");
        assert!(report.cancelled_iters > 0, "the tail was abandoned");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, // each case runs a real thread team
        .. ProptestConfig::default()
    })]

    /// Random (range, chunk, schedule, workers) conserves iterations:
    /// the index-sum checksum matches the closed form and the region's
    /// loop counters agree.
    #[test]
    fn random_loops_conserve_iterations(
        start in 0u64..1_000,
        len in 0u64..40_000,
        chunk in 0u32..512,
        sched_pick in 0u8..9,
        threads in 1usize..6,
        sockets in 1usize..3,
    ) {
        let sched = pick_schedule(sched_pick, chunk);
        let topo = MachineTopology::new(sockets, threads.div_ceil(sockets).max(1), 1);
        let rt = xgomp::Runtime::new(
            RuntimeConfig::xgomptb(threads)
                .topology(topo)
                .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(32)),
        );
        let (got_sum, got_count, report) = {
            let out = rt.parallel(move |ctx| {
                let sum = AtomicU64::new(0);
                let count = AtomicU64::new(0);
                let report = ctx.parallel_for(start..start + len, sched, |i, _| {
                    sum.fetch_add(i, Ordering::Relaxed);
                    count.fetch_add(1, Ordering::Relaxed);
                });
                (
                    sum.load(Ordering::Relaxed),
                    count.load(Ordering::Relaxed),
                    report,
                )
            });
            out.stats.check_invariants().unwrap();
            prop_assert_eq!(out.stats.total().nloop_iters, len);
            out.result
        };
        let expect_sum: u64 = (start..start + len).sum();
        prop_assert_eq!(got_sum, expect_sum);
        prop_assert_eq!(got_count, len);
        prop_assert_eq!(report.iterations, len);
    }

    /// Random (space kind, dims, tile, schedule, workers, sockets) is
    /// **exactly-once over every element** of the space — a per-element
    /// hit array, not just a checksum — on 1-D, 2-D and triangular
    /// shapes.
    #[test]
    fn random_spaces_are_exactly_once(
        kind in 0u8..3,
        dim_a in 1u64..120,
        dim_b in 1u64..60,
        tile in 1u32..20,
        chunk in 1u32..64,
        sched_pick in 0u8..9,
        threads in 1usize..6,
        sockets in 1usize..3,
    ) {
        let sched = pick_schedule(sched_pick, chunk);
        // The linear element id of a point, per shape — a bijection onto
        // 0..len, so hit-counting proves exactly-once coverage.
        let (space, lin): (IterSpace, Box<dyn Fn(u64, u64) -> u64 + Sync>) = match kind {
            0 => (
                IterSpace::range(0..dim_a * dim_b),
                Box::new(|i, _| i),
            ),
            1 => (
                IterSpace::rect_tiled(dim_a, dim_b, tile, (tile / 2).max(1)),
                Box::new(move |r, c| r * dim_b + c),
            ),
            _ => (
                IterSpace::triangular_tiled(dim_a, tile),
                Box::new(|r, c| r * (r + 1) / 2 + c),
            ),
        };
        let len = space.len();
        let topo = MachineTopology::new(sockets, threads.div_ceil(sockets).max(1), 1);
        let rt = Runtime::new(
            RuntimeConfig::xgomptb(threads)
                .topology(topo)
                .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(32)),
        );
        let hits: Vec<AtomicU8> = (0..len).map(|_| AtomicU8::new(0)).collect();
        let report = {
            let hits = &hits;
            let lin = &lin;
            rt.parallel(move |ctx| {
                ctx.parallel_for(space, sched, |(a, b), _| {
                    hits[lin(a, b) as usize].fetch_add(1, Ordering::Relaxed);
                })
            })
            .result
        };
        prop_assert_eq!(report.iterations, len);
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "element {} of {:?}", i, space.kind());
        }
    }
}
