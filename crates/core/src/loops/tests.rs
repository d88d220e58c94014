//! Unit tests of the loop layer.

use super::policy::AdaptiveCost;
use super::*;
use crate::config::RuntimeConfig;
use crate::dlb::{DlbConfig, DlbStrategy};
use crate::team::Runtime;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use xgomp_profiling::StatsSnapshot;
use xgomp_topology::MachineTopology;
use xgomp_xqueue::PaneSet;

fn schedules() -> [LoopSchedule; 8] {
    [
        LoopSchedule::Static,
        LoopSchedule::Dynamic(64),
        LoopSchedule::Guided(16),
        LoopSchedule::Adaptive,
        LoopSchedule::Tss {
            first: 512,
            last: 8,
        },
        LoopSchedule::Factoring,
        LoopSchedule::WeightedFactoring,
        LoopSchedule::Awf,
    ]
}

/// Two single-worker zones holding `[0, 100)` and `[100, 200)`.
fn two_zone_core() -> LoopCore {
    let pool = |lo| PaneSet::new(lo, lo + 100);
    LoopCore::new(vec![pool(0), pool(100)], &[1, 1])
}

/// The merged ledger makes the report and the per-worker stats the
/// same numbers by construction: every field, not just `iterations`.
fn assert_report_matches_stats(report: &LoopReport, total: &StatsSnapshot, what: &str) {
    let from_stats = LoopReport {
        iterations: total.nloop_iters,
        cancelled_iters: total.nloop_cancelled_iters,
        chunks: total.nloop_chunks,
        claimed_local: total.nloop_claim_local,
        range_steals: total.nloop_range_steals,
    };
    assert_eq!(*report, from_stats, "{what}: report vs WorkerStats totals");
}

#[test]
fn every_schedule_runs_every_iteration_exactly_once() {
    const N: usize = 50_000;
    for sched in schedules() {
        let rt =
            Runtime::new(RuntimeConfig::xgomptb(4).dlb(DlbConfig::new(DlbStrategy::WorkSteal)));
        let out = rt.parallel(|ctx| {
            let hits: Vec<AtomicU8> = (0..N).map(|_| AtomicU8::new(0)).collect();
            let report = ctx.parallel_for(0..N as u64, sched, |i, _| {
                hits[i as usize].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(report.iterations, N as u64, "{}", sched.name());
            (report, hits.iter().all(|h| h.load(Ordering::Relaxed) == 1))
        });
        let (report, exactly_once) = out.result;
        assert!(
            exactly_once,
            "{}: some index not hit exactly once",
            sched.name()
        );
        out.stats.check_invariants().unwrap();
        let total = out.stats.total();
        assert_eq!(total.nloop_iters, N as u64, "{}", sched.name());
        assert!(total.nloop_chunks > 0);
        assert_report_matches_stats(&report, &total, sched.name());
    }
}

#[test]
fn cancelled_loops_conserve_iterations_on_every_schedule() {
    // A token fired mid-loop makes drain tasks abandon the pooled
    // remainder (static blocks break at their stride); every
    // iteration is either executed once or counted as cancelled —
    // never both, never lost. Plain (non-isolating) runtime: the
    // checkpoints don't unwind, so the report surfaces directly.
    use crate::cancel::CancelToken;
    const N: u64 = 200_000;
    for sched in schedules() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let out = rt.parallel(move |ctx| {
            let token = CancelToken::new();
            ctx.set_cancel_token(token.clone());
            let ran = AtomicU64::new(0);
            let report = ctx.parallel_for(0..N, sched, |i, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 10 {
                    token.cancel();
                }
            });
            ctx.clear_cancel_token();
            (report, ran.load(Ordering::Relaxed))
        });
        let (report, ran) = out.result;
        assert_eq!(report.iterations, ran, "{}", sched.name());
        assert_eq!(
            report.iterations + report.cancelled_iters,
            N,
            "{}: conservation",
            sched.name()
        );
        assert!(report.cancelled_iters > 0, "{}", sched.name());
        out.stats.check_invariants().unwrap();
        let total = out.stats.total();
        assert_eq!(
            total.nloop_iters + total.nloop_cancelled_iters,
            N,
            "{}: worker-stat conservation",
            sched.name()
        );
        assert_report_matches_stats(&report, &total, sched.name());
    }
}

#[test]
fn offset_ranges_and_empty_ranges() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(3));
    let out = rt.parallel(|ctx| {
        let sum = AtomicU64::new(0);
        let r = ctx.parallel_for(1_000u64..1_100, LoopSchedule::Dynamic(7), |i, _| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(r.iterations, 100);
        let empty = ctx.parallel_for(5..5, LoopSchedule::Adaptive, |_, _| {
            panic!("empty range must not run")
        });
        assert_eq!(empty.iterations, 0);
        sum.load(Ordering::Relaxed)
    });
    assert_eq!(out.result, (1_000u64..1_100).sum::<u64>());
}

#[test]
fn single_worker_team_runs_serially() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(1));
    let out = rt.parallel(|ctx| {
        let sum = AtomicU64::new(0);
        ctx.parallel_for(0u64..1_000, LoopSchedule::Guided(8), |i, _| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        sum.load(Ordering::Relaxed)
    });
    assert_eq!(out.result, (1..=1_000u64).sum::<u64>());
}

#[test]
fn body_can_spawn_nested_tasks_that_finish_before_return() {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    let nested = Arc::new(AtomicUsize::new(0));
    let n2 = nested.clone();
    let out = rt.parallel(move |ctx| {
        ctx.parallel_for(0..64, LoopSchedule::Dynamic(4), |_, ictx| {
            let n = n2.clone();
            ictx.spawn(move |_| {
                n.fetch_add(1, Ordering::Relaxed);
            });
        });
        // parallel_for returned: every nested spawn is done.
        n2.load(Ordering::Relaxed)
    });
    assert_eq!(out.result, 64);
    assert_eq!(nested.load(Ordering::Relaxed), 64);
}

#[test]
fn parallel_for_borrows_from_the_frame() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    let out = rt.parallel(|ctx| {
        let data: Vec<u64> = (0..10_000).collect();
        let sum = AtomicU64::new(0);
        ctx.parallel_for(0..data.len() as u64, LoopSchedule::Guided(32), |i, _| {
            sum.fetch_add(data[i as usize], Ordering::Relaxed);
        });
        sum.load(Ordering::Relaxed)
    });
    assert_eq!(out.result, (0..10_000u64).sum::<u64>());
}

#[test]
fn range_steals_follow_zone_local_first_order() {
    // Two zones. All the *work* (slow iterations) sits in zone 1's
    // half of the space; zone 0's workers finish their own block and
    // must steal across — while zone 1's workers never steal (their
    // own pool always has work until the very end).
    let topo = MachineTopology::new(2, 2, 1); // 2 sockets × 2 cores
    let rt = Runtime::new(
        RuntimeConfig::xgomptb(4)
            .topology(topo)
            .dlb(DlbConfig::new(DlbStrategy::WorkSteal)),
    );
    let out = rt.parallel(|ctx| {
        ctx.parallel_for(0..4_000, LoopSchedule::Dynamic(16), |i, _| {
            if i >= 2_000 {
                // Zone 1's block is ~100× the cost of zone 0's.
                for _ in 0..2_000 {
                    std::hint::spin_loop();
                }
            }
        })
    });
    let report = out.result;
    assert_eq!(report.iterations, 4_000);
    assert!(
        report.range_steals > 0,
        "zone 0 drained its pool and must have stolen from zone 1"
    );
    assert!(
        report.claimed_local > 0,
        "local claims happen before any steal"
    );
    out.stats.check_invariants().unwrap();
    // Counter-verified victim order: every steal-split was performed
    // by a worker whose own pool was dry (the drive loop only
    // reaches the steal arm after a failed local claim), and local
    // claims dominate.
    let total = out.stats.total();
    assert!(total.nloop_claim_local >= total.nloop_range_steals);
}

#[test]
fn local_pools_with_work_are_never_stolen_from_remotely() {
    // Deterministic victim-order check at the pool level: a worker
    // whose zone pools have iterations claims locally; the remote
    // pools are untouched until the local ones are dry.
    let core = two_zone_core();
    // Claim as zone 0 until its pool is dry: no steals yet.
    while core.pools[0].0.claim(10).is_some() {}
    assert_eq!(core.pools[1].0.remaining(), 100, "remote pool untouched");
    // Only now does the steal arm fire: upper half of the remote pool
    // (nearest-first rotation from the local pool).
    let my = 0usize;
    assert_eq!(core.pools[(my + 1) % 2].0.steal_half(), Some((150, 200)));
}

#[test]
fn loops_conserve_on_every_scheduler_backend() {
    // GOMP/LOMP have no per-worker placement queues: `spawn_to`
    // degrades to a plain spawn, and the loop must still conserve.
    for cfg in [
        RuntimeConfig::gomp(3),
        RuntimeConfig::lomp(3),
        RuntimeConfig::xgomptb(3),
    ] {
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|ctx| {
            let sum = AtomicU64::new(0);
            ctx.parallel_for(0u64..5_000, LoopSchedule::Dynamic(32), |i, _| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            sum.load(Ordering::Relaxed)
        });
        assert_eq!(out.result, (1..=5_000u64).sum::<u64>());
    }
}

#[test]
fn adaptive_chunks_grow_toward_the_target() {
    let cost = AdaptiveCost::default();
    assert_eq!(cost.estimate(), None, "no samples yet");
    // 1000 iterations at ~40 ticks each → decade 1 → estimate 30.
    cost.record_chunk(1_000, 40_000);
    assert_eq!(cost.estimate(), Some(30));
    // A minority of expensive chunks does not move the mode.
    cost.record_chunk(10, 10_000_000);
    assert_eq!(cost.estimate(), Some(30));
}

#[test]
fn oversized_spaces_return_a_typed_error() {
    use xgomp_xqueue::MAX_SHARE_UNITS;
    let rt = Runtime::new(RuntimeConfig::xgomptb(1));
    let out = rt.parallel(|ctx| {
        let err = ctx
            .try_parallel_for(0..MAX_SHARE_UNITS + 1, LoopSchedule::Static, |_, _| {
                panic!("body must not run on a rejected space")
            })
            .unwrap_err();
        assert_eq!(
            err,
            LoopError::RangeTooLarge {
                len: MAX_SHARE_UNITS + 1
            }
        );
        assert!(err.to_string().contains("2^62"));
        // The context stays fully usable after the rejection.
        ctx.parallel_for(0..10, LoopSchedule::Dynamic(2), |_, _| {})
            .iterations
    });
    assert_eq!(out.result, 10);
}

#[test]
#[should_panic(expected = "2^62 units")]
fn parallel_for_still_panics_loudly_on_oversized_spaces() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(1));
    rt.parallel(|ctx| {
        ctx.parallel_for(
            IterSpace::rect(1 << 40, 1 << 40),
            LoopSchedule::Static,
            |_, _| {},
        );
    });
}

#[test]
fn rect2d_loops_cover_every_cell_exactly_once() {
    use std::sync::atomic::AtomicU8;
    const R: u64 = 130;
    const C: u64 = 75;
    for sched in schedules() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let out = rt.parallel(|ctx| {
            let hits: Vec<AtomicU8> = (0..R * C).map(|_| AtomicU8::new(0)).collect();
            let space = IterSpace::rect_tiled(R, C, 16, 16);
            let report = ctx.parallel_for(space, sched, |(r, c), _| {
                hits[(r * C + c) as usize].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(report.iterations, R * C, "{}", sched.name());
            assert_eq!(report.cancelled_iters, 0, "{}", sched.name());
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)
        });
        assert!(
            out.result,
            "{}: some cell not hit exactly once",
            sched.name()
        );
        out.stats.check_invariants().unwrap();
    }
}

#[test]
fn triangular_static_loops_waste_zero_iterations() {
    // The acceptance shape: a static triangular loop visits exactly
    // the n(n+1)/2 lower-triangle points — no guard-skipped no-ops.
    use std::sync::atomic::AtomicU8;
    const N: u64 = 101;
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    let out = rt.parallel(|ctx| {
        let hits: Vec<AtomicU8> = (0..N * N).map(|_| AtomicU8::new(0)).collect();
        let visits = AtomicU64::new(0);
        let report = ctx.parallel_for(
            IterSpace::triangular_tiled(N, 16),
            LoopSchedule::Static,
            |(r, c), _| {
                assert!(c <= r && r < N, "({r},{c}) outside the triangle");
                hits[(r * N + c) as usize].fetch_add(1, Ordering::Relaxed);
                visits.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(report.iterations, N * (N + 1) / 2);
        assert_eq!(visits.load(Ordering::Relaxed), N * (N + 1) / 2);
        (0..N * N).all(|i| {
            let (r, c) = (i / N, i % N);
            hits[i as usize].load(Ordering::Relaxed) == u8::from(c <= r)
        })
    });
    assert!(out.result, "triangle coverage is exact — zero waste");
}

#[test]
fn parallel_for_tri_balances_tiles_with_conserved_migration() {
    // Two zones, skewed tile cost: whatever triangular *tiles* (pane
    // tails) the cheaper zone steals from the other, the per-loop
    // ledger stays exact for 2D spaces.
    let topo = MachineTopology::new(2, 2, 1);
    let rt = Runtime::new(
        RuntimeConfig::xgomptb(4)
            .topology(topo)
            .dlb(DlbConfig::new(DlbStrategy::WorkSteal)),
    );
    let out = rt.parallel(|ctx| {
        ctx.parallel_for(
            IterSpace::triangular_tiled(256, 8),
            LoopSchedule::Dynamic(2),
            |(r, _), _| {
                if r >= 128 {
                    for _ in 0..500 {
                        std::hint::spin_loop();
                    }
                }
            },
        )
    });
    let report = out.result;
    assert_eq!(report.iterations, 256 * 257 / 2);
    assert_eq!(report.cancelled_iters, 0);
    out.stats.check_invariants().unwrap();
    assert_report_matches_stats(&report, &out.stats.total(), "triangular");
}

#[test]
fn waved_loops_conserve_across_pane_refills() {
    // Small panes (the private entry's `pane` argument; production
    // passes `DEFAULT_PANE_UNITS`) force the wave layer on a modest space: many
    // refills, pane-run steals and stolen-tail deposits race the
    // claims, and every index is still hit exactly once.
    const N: usize = 60_000;
    for sched in [LoopSchedule::Dynamic(64), LoopSchedule::Adaptive] {
        let topo = MachineTopology::new(2, 2, 1);
        let rt = Runtime::new(
            RuntimeConfig::xgomptb(4)
                .topology(topo)
                .dlb(DlbConfig::new(DlbStrategy::WorkSteal)),
        );
        let out = rt.parallel(|ctx| {
            let hits: Vec<AtomicU8> = (0..N).map(|_| AtomicU8::new(0)).collect();
            let runner = |lo: u64, hi: u64, _: &TaskCtx<'_>| {
                for i in lo..hi {
                    hits[i as usize].fetch_add(1, Ordering::Relaxed);
                }
                hi - lo
            };
            let space = IterSpace::range(0..N as u64);
            let report = run_loop(ctx, &space, sched, &runner, 4096);
            assert_eq!(report.iterations, N as u64, "{}", sched.name());
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)
        });
        assert!(
            out.result,
            "{}: waved loop lost or repeated an index",
            sched.name()
        );
        out.stats.check_invariants().unwrap();
    }
}

#[test]
fn cancelled_tiled_loops_conserve_elements() {
    use crate::cancel::CancelToken;
    const N: u64 = 600; // 180_300 elements in 8×8 tiles
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    let out = rt.parallel(move |ctx| {
        let token = CancelToken::new();
        ctx.set_cancel_token(token.clone());
        let ran = AtomicU64::new(0);
        let report = ctx.parallel_for(
            IterSpace::triangular_tiled(N, 8),
            LoopSchedule::Dynamic(4),
            |(r, c), _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if r == 10 && c == 10 {
                    token.cancel();
                }
            },
        );
        ctx.clear_cancel_token();
        (report, ran.load(Ordering::Relaxed))
    });
    let (report, ran) = out.result;
    assert_eq!(report.iterations, ran);
    assert_eq!(
        report.iterations + report.cancelled_iters,
        N * (N + 1) / 2,
        "element conservation under cancellation of a tiled space"
    );
    assert!(report.cancelled_iters > 0);
    out.stats.check_invariants().unwrap();
}

#[test]
fn static_blocks_drain_through_the_shared_ledger() {
    // One chunk per non-empty block and exact conservation, with more
    // workers than units (an empty block is no chunk) and without: with
    // no token each block is one runner call; with a token set it runs
    // in 256-unit strides and, once the token fires, abandons its
    // remainder.
    use crate::cancel::CancelToken;
    const N: u64 = 100_000;
    for (len, blocks, cancel_at) in [
        (3, 3, None),
        (N, 4, None),
        (3, 3, Some(u64::MAX)),
        (N, 4, Some(u64::MAX)),
        (N, 4, Some(10)),
    ] {
        let what = format!("static, len {len}, token {cancel_at:?}");
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let out = rt.parallel(|ctx| {
            let token = CancelToken::new();
            if cancel_at.is_some() {
                ctx.set_cancel_token(token.clone());
            }
            let report = ctx.parallel_for(0..len, LoopSchedule::Static, |i, _| {
                if Some(i) == cancel_at {
                    token.cancel();
                }
            });
            ctx.clear_cancel_token();
            report
        });
        let report = out.result;
        assert_eq!(report.iterations + report.cancelled_iters, len, "{what}");
        if cancel_at == Some(10) {
            assert!(report.cancelled_iters > 0, "{what}: fired mid-loop");
            assert!((1..=blocks).contains(&report.chunks), "{what}");
        } else {
            assert_eq!((report.chunks, report.iterations), (blocks, len), "{what}");
        }
        assert_eq!(report.range_steals, 0, "{what}");
        out.stats.check_invariants().unwrap();
        assert_report_matches_stats(&report, &out.stats.total(), &what);
    }
}

#[test]
fn fixed_chunks_keep_an_exact_ledger_under_reserve_ahead() {
    // One zone, so no steal can split a chunk: however many chunks one
    // claim reserved (the no-op body puts `Dynamic(1)` at full depth),
    // the report counts executed chunks of `c` — ragged only at the end
    // of the pool — and every one of them as zone-local.
    for c in [1u32, 7, 256] {
        for len in [1, u64::from(c) - 1, 10_007, 1 << 17] {
            for workers in [1, 2, 4] {
                let what = format!("Dynamic({c}), len {len}, {workers} workers");
                let rt = Runtime::new(
                    RuntimeConfig::xgomptb(workers).topology(MachineTopology::new(1, workers, 1)),
                );
                let out = rt.parallel(|ctx| {
                    let sum = AtomicU64::new(0);
                    let report = ctx.parallel_for(0..len, LoopSchedule::Dynamic(c), |i, _| {
                        sum.fetch_add(i + 1, Ordering::Relaxed);
                    });
                    (report, sum.load(Ordering::Relaxed))
                });
                let (report, sum) = out.result;
                assert_eq!(sum, len * (len + 1) / 2, "{what}: exactly once");
                assert_eq!(report.iterations, len, "{what}");
                assert_eq!(report.chunks, len.div_ceil(u64::from(c)), "{what}");
                assert_eq!(report.claimed_local, report.chunks, "{what}");
                assert_eq!(report.range_steals + report.cancelled_iters, 0, "{what}");
                out.stats.check_invariants().unwrap();
                assert_report_matches_stats(&report, &out.stats.total(), &what);
            }
        }
    }
}

#[test]
fn reservations_are_whole_chunks_capped_by_cost_and_by_the_tail() {
    use super::policy::Chunker;
    // One pool of 100 000 units shared by 4 workers.
    let core = LoopCore::new(vec![PaneSet::new(0, 100_000)], &[4]);
    let fixed = Chunker::Fixed(3);
    // Unmeasured, or a chunk that costs the whole budget: one chunk.
    assert_eq!(fixed.reservation(0, &core, 3, u64::MAX), 3);
    assert_eq!(fixed.reservation(0, &core, 3, 1 << 15), 3);
    // Cheaper chunks reserve deeper, up to the ceiling of 32.
    assert_eq!(fixed.reservation(0, &core, 3, 1 << 13), 4 * 3);
    assert_eq!(fixed.reservation(0, &core, 3, 40), 32 * 3);
    assert_eq!(fixed.reservation(0, &core, 3, 0), 32 * 3);
    // The tail: at most half the claimer's fair share of what is left,
    // in whole chunks, never less than one.
    core.pools[0].0.claim(100_000 - 400); // 400 left → fair 100 → 50
    assert_eq!(fixed.reservation(0, &core, 3, 40), 16 * 3);
    core.pools[0].0.claim(400 - 20); // 20 left → fair 5 → 2
    assert_eq!(fixed.reservation(0, &core, 3, 40), 3);
    // A chunker whose next size depends on shared state claims exactly
    // the chunk it was asked for.
    let guided = Chunker::Guided { min: 1 };
    assert_eq!(guided.reservation(0, &core, 17, 40), 17);
}
