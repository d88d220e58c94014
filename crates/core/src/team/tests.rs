//! Region-level tests of the team: every case drives whole regions
//! through [`Runtime`], so they sit beside all three parts.

use super::*;
use crate::config::RuntimeConfig;
use crate::ctx::Scope;

fn smoke(cfg: RuntimeConfig) {
    let rt = Runtime::new(cfg);
    let out = rt.parallel(|ctx| {
        let mut acc = vec![0u64; 64];
        ctx.scope(|s| {
            for (i, slot) in acc.iter_mut().enumerate() {
                s.spawn(move |_| {
                    *slot = (i as u64) * 2;
                });
            }
        });
        acc.iter().sum::<u64>()
    });
    assert_eq!(out.result, (0..64u64).map(|i| i * 2).sum::<u64>());
    let total = out.stats.total();
    assert_eq!(total.tasks_created, 64);
    assert_eq!(total.tasks_executed, 64);
    out.stats.check_invariants().unwrap();
}

#[test]
fn all_presets_run_a_region() {
    for threads in [1usize, 2, 4] {
        smoke(RuntimeConfig::gomp(threads));
        smoke(RuntimeConfig::lomp(threads));
        smoke(RuntimeConfig::xgomp(threads));
        smoke(RuntimeConfig::xgomptb(threads));
        smoke(RuntimeConfig::xlomp(threads));
    }
}

#[test]
fn nested_scopes_and_taskwait() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    let out = rt.parallel(|ctx| {
        let mut outer = [0u64; 8];
        ctx.scope(|s| {
            for (i, o) in outer.iter_mut().enumerate() {
                s.spawn(move |ctx| {
                    let mut inner = [0u64; 4];
                    ctx.scope(|s2| {
                        for (j, v) in inner.iter_mut().enumerate() {
                            s2.spawn(move |_| *v = (i * 10 + j) as u64);
                        }
                    });
                    *o = inner.iter().sum();
                });
            }
        });
        outer.iter().sum::<u64>()
    });
    let expect: u64 = (0..8u64)
        .map(|i| (0..4u64).map(|j| i * 10 + j).sum::<u64>())
        .sum();
    assert_eq!(out.result, expect);
}

#[test]
fn empty_region_terminates_immediately() {
    for cfg in [
        RuntimeConfig::gomp(3),
        RuntimeConfig::xgomp(3),
        RuntimeConfig::xgomptb(3),
    ] {
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|_| 42);
        assert_eq!(out.result, 42);
        assert_eq!(out.stats.total().tasks_created, 0);
    }
}

#[test]
fn detached_static_spawns_complete_before_region_ends() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    let counter = Arc::new(AtomicUsize::new(0));
    let c2 = counter.clone();
    let out = rt.parallel(move |ctx| {
        for _ in 0..100 {
            let c = c2.clone();
            ctx.spawn(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    drop(out);
    assert_eq!(counter.load(Ordering::Relaxed), 100);
}

#[test]
fn deep_recursion_via_immediate_execution() {
    // Tiny queues force the overflow → execute-immediately path.
    let cfg = RuntimeConfig::xgomptb(2).queue_capacity(2);
    let rt = Runtime::new(cfg);
    let out = rt.parallel(|ctx| {
        fn fib(ctx: &TaskCtx<'_>, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (mut a, mut b) = (0, 0);
            ctx.scope(|s| {
                s.spawn(|ctx| a = fib(ctx, n - 1));
                s.spawn(|ctx| b = fib(ctx, n - 2));
            });
            a + b
        }
        fib(ctx, 16)
    });
    assert_eq!(out.result, 987);
    assert!(out.stats.total().ntasks_imm_exec > 0);
}

/// Four children of the scope's task, each logging its index when it
/// runs; `placed` spawns them on worker 0 instead of round-robin.
fn spawn_four<'env>(s: &Scope<'_, 'env>, ran: &'env Mutex<Vec<usize>>, placed: bool) {
    for i in 0..4 {
        let body = move |_: &TaskCtx<'_>| locked(ran).push(i);
        if placed {
            s.spawn_on(0, body);
        } else {
            s.spawn(body);
        }
    }
}

/// One worker, so every round-robin target is the spawner itself: an
/// explicit task's unplaced children are its own nested work and run
/// newest first; the implicit task's spawns and placed spawns go through
/// the lattice and keep arrival order.
#[test]
fn nested_self_spawns_run_newest_first() {
    let ran = Mutex::new(Vec::new());
    let take = || std::mem::take(&mut *locked(&ran));
    let out = Runtime::new(RuntimeConfig::xgomptb(1)).parallel(|ctx| {
        ctx.scope(|s| s.spawn(|ctx| ctx.scope(|s| spawn_four(s, &ran, false))));
        let nested = take();
        ctx.scope(|s| spawn_four(s, &ran, false));
        let root = take();
        ctx.scope(|s| s.spawn(|ctx| ctx.scope(|s| spawn_four(s, &ran, true))));
        [nested, root, take()]
    });
    let [nested, root, placed] = out.result;
    assert_eq!(nested, [3, 2, 1, 0], "unplaced nested spawns");
    assert_eq!(root, [0, 1, 2, 3], "the implicit task's spawns");
    assert_eq!(placed, [0, 1, 2, 3], "placed nested spawns");
    let total = out.stats.total();
    assert_eq!(total.tasks_created, total.tasks_executed);
    out.stats.check_invariants().unwrap();
}

/// Helping with the newest child first bounds how deep task bodies nest
/// by the recursion depth: a binary recursion of depth 18 on one worker
/// nests 19 bodies (one per level), where helping with the oldest queued
/// task nests unrelated subtrees on top of each other.
#[test]
fn nested_help_depth_follows_recursion() {
    use std::cell::Cell;
    thread_local! {
        static DEPTH: Cell<usize> = const { Cell::new(0) };
        static MAX_DEPTH: Cell<usize> = const { Cell::new(0) };
    }
    fn rec(ctx: &TaskCtx<'_>, levels: u32) {
        let depth = DEPTH.get() + 1;
        DEPTH.set(depth);
        MAX_DEPTH.set(MAX_DEPTH.get().max(depth));
        // Checked here too, so a scheduler that nests deeper fails at
        // the first frame too many instead of riding the stack down.
        assert!(depth <= 20, "task bodies nested {depth} deep");
        if levels > 0 {
            ctx.scope(|s| {
                s.spawn(move |ctx| rec(ctx, levels - 1));
                s.spawn(move |ctx| rec(ctx, levels - 1));
            });
        }
        DEPTH.set(depth - 1);
    }
    // One worker: every body runs on this thread, the master.
    let out = Runtime::new(RuntimeConfig::xgomptb(1)).parallel(|ctx| {
        ctx.scope(|s| s.spawn(|ctx| rec(ctx, 18)));
        MAX_DEPTH.get()
    });
    assert_eq!(out.result, 19, "one body per recursion level");
    let total = out.stats.total();
    assert_eq!(total.tasks_created, (1 << 19) - 1);
    assert_eq!(total.tasks_created, total.tasks_executed);
    assert_eq!(total.ntasks_imm_exec, 0, "the stack never fills");
}

#[test]
fn profiling_collects_events() {
    let cfg = RuntimeConfig::xgomptb(2).profiling(true);
    let rt = Runtime::new(cfg);
    let out = rt.parallel(|ctx| {
        ctx.scope(|s| {
            for _ in 0..32 {
                s.spawn(|_| std::hint::spin_loop());
            }
        });
    });
    assert_eq!(out.logs.len(), 2);
    let events: usize = out.logs.iter().map(|l| l.events().len()).sum();
    assert!(events > 0, "profiling produced no events");
}

#[test]
fn dlb_configs_run_clean() {
    use crate::dlb::{DlbConfig, DlbStrategy};
    for strat in [DlbStrategy::WorkSteal, DlbStrategy::RedirectPush] {
        let cfg = RuntimeConfig::xgomptb(4).dlb(DlbConfig::new(strat).n_steal(4).t_interval(16));
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|ctx| {
            let mut acc = vec![0u64; 256];
            ctx.scope(|s| {
                for (i, slot) in acc.iter_mut().enumerate() {
                    s.spawn(move |_| {
                        // Unbalanced grains provoke stealing.
                        let spins = (i % 7) * 100;
                        for _ in 0..spins {
                            std::hint::spin_loop();
                        }
                        *slot = 1;
                    });
                }
            });
            acc.iter().sum::<u64>()
        });
        assert_eq!(out.result, 256);
        out.stats.check_invariants().unwrap();
    }
}

#[test]
#[should_panic(expected = "task body panicked")]
fn task_panic_propagates_without_hanging() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(2));
    rt.parallel(|ctx| {
        ctx.spawn(|_| panic!("task body panicked"));
        // Give the panicking task a chance to run on either worker.
        ctx.taskwait();
    });
}

#[test]
fn parked_workers_wake_for_late_work_and_release() {
    // The master stays busy (no spawns) long enough for every other
    // worker to exhaust its backoff and park inside the region; the
    // late spawns must wake them, and region teardown must release
    // the sleepers — onto the start gate, where the next round's
    // generation finds them.
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    for round in 0..3u64 {
        let out = rt.parallel(|ctx| {
            std::thread::sleep(Duration::from_millis(60));
            let mut acc = vec![0u64; 64];
            ctx.scope(|s| {
                for (i, slot) in acc.iter_mut().enumerate() {
                    s.spawn(move |_| *slot = round * 100 + i as u64);
                }
            });
            acc.iter().sum::<u64>()
        });
        assert_eq!(out.result, (0..64u64).map(|i| round * 100 + i).sum());
        out.stats.check_invariants().unwrap();
    }
}

#[test]
fn spin_mode_still_works_with_parking_disabled() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(4).park_idle(false));
    let out = rt.parallel(|ctx| {
        let mut acc = vec![0u64; 128];
        ctx.scope(|s| {
            for (i, slot) in acc.iter_mut().enumerate() {
                s.spawn(move |_| *slot = i as u64);
            }
        });
        acc.iter().sum::<u64>()
    });
    assert_eq!(out.result, (0..128u64).sum());
}

#[test]
fn reconfigure_resizes_and_swaps_between_regions() {
    let mut rt = Runtime::new(RuntimeConfig::xgomptb(2));
    let run_sum = |rt: &Runtime| {
        let n = rt.config().threads;
        let out = rt.parallel(move |ctx| {
            assert_eq!(ctx.n_workers(), n);
            let mut acc = vec![0u64; n * 8];
            ctx.scope(|s| {
                for (i, slot) in acc.iter_mut().enumerate() {
                    s.spawn(move |_| *slot = i as u64);
                }
            });
            acc.iter().sum::<u64>()
        });
        out.stats.check_invariants().unwrap();
        out.result
    };
    assert_eq!(run_sum(&rt), (0..16u64).sum());
    // Grow: 2 → 4 workers, and swap the barrier kind with it.
    rt.reconfigure(RuntimeConfig::xgomp(4));
    assert_eq!(run_sum(&rt), (0..32u64).sum());
    // Same-size swap keeps the threads, then shrink to a lone master.
    rt.reconfigure(RuntimeConfig::xgomptb(4).queue_capacity(16));
    assert_eq!(rt.config().queue_capacity, 16);
    assert_eq!(run_sum(&rt), (0..32u64).sum());
    rt.reconfigure(RuntimeConfig::xgomptb(1));
    assert_eq!(run_sum(&rt), (0..8u64).sum());
}

fn panic_message(region: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(region))
        .expect_err("task panic must propagate out of the region");
    let literal = payload.downcast_ref::<&str>().map(|s| s.to_string());
    literal
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("panic! payloads are strings")
}

#[test]
fn off_master_task_panic_payload_reaches_the_caller() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(2));
    let msg = panic_message(|| {
        rt.parallel(|ctx| {
            // Static balancing: only worker 1 can pop its own row.
            ctx.scope(|s| s.spawn_on(1, |c| panic!("boom on worker {}", c.worker_id())));
        });
    });
    assert_eq!(msg, "boom on worker 1");
}

#[test]
fn runtime_survives_a_panicked_region() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(2));
    let msg = panic_message(|| {
        rt.parallel(|ctx| {
            ctx.spawn(|_| panic!("poisoned region"));
            ctx.taskwait();
        });
    });
    assert_eq!(msg, "poisoned region");
    // The next region runs normally.
    let out = rt.parallel(|ctx| {
        let mut acc = vec![0u64; 32];
        ctx.scope(|s| {
            for (i, slot) in acc.iter_mut().enumerate() {
                s.spawn(move |_| *slot = i as u64);
            }
        });
        acc.iter().sum::<u64>()
    });
    assert_eq!(out.result, (0..32u64).sum());
    out.stats.check_invariants().unwrap();
}

#[test]
fn idle_workers_drain_an_ingress_source() {
    use std::sync::atomic::AtomicUsize;

    const JOBS: usize = 500;

    struct CountSource {
        remaining: AtomicUsize,
        hits: Arc<AtomicUsize>,
    }
    impl IngressSource for CountSource {
        fn poll(&self, ctx: &TaskCtx<'_>) -> usize {
            let mut injected = 0;
            // Claim up to 8 pending jobs per poll.
            while injected < 8 {
                let claimed = self
                    .remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                    .is_ok();
                if !claimed {
                    break;
                }
                let hits = self.hits.clone();
                ctx.spawn_boxed_local(Box::new(move |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }));
                injected += 1;
            }
            injected
        }
    }

    let hits = Arc::new(AtomicUsize::new(0));
    let source = Arc::new(CountSource {
        remaining: AtomicUsize::new(JOBS),
        hits: hits.clone(),
    });
    let sampler = Arc::<LiveTaskSampler>::default();
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    let h2 = hits.clone();
    let hooks = ServingHooks {
        source: Some(source),
        sampler: Some(sampler.clone()),
        ..ServingHooks::default()
    };
    let out = rt.serve(hooks, move |ctx| {
        // The master helps until every injected job has executed.
        while h2.load(Ordering::Relaxed) < JOBS {
            ctx.run_pending(32);
            std::hint::spin_loop();
        }
    });
    assert_eq!(hits.load(Ordering::Relaxed), JOBS);
    assert_eq!(out.stats.total().tasks_executed as usize, JOBS);
    assert_eq!(sampler.tasks_observed() as usize, JOBS);
    out.stats.check_invariants().unwrap();
}

/// Every cell a `Worker` owns — cursor, NA-RP redirect, RNG, free list,
/// log — driven from nested `execute` frames: capacity-2 queues turn
/// most placed spawns into immediate execution, whose bodies spawn again
/// from inside the frame that is still spawning. A borrow held across a
/// body would be a `RefCell` panic here.
#[test]
fn owned_worker_state_survives_a_reentrancy_storm() {
    use crate::dlb::{DlbConfig, DlbStrategy};
    use crate::AllocKind;
    use std::sync::atomic::AtomicUsize;

    let cfg = RuntimeConfig::xgomptb(2)
        .queue_capacity(2)
        .allocator(AllocKind::MultiLevel)
        .dlb(DlbConfig::new(DlbStrategy::RedirectPush).t_interval(2))
        .profiling(true);
    let ran = AtomicUsize::new(0);
    let out = Runtime::new(cfg).parallel(|ctx| {
        ctx.scope(|s| {
            for _ in 0..64 {
                s.spawn_on(1, |c| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    c.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|c| {
                                ran.fetch_add(1, Ordering::Relaxed);
                                c.scope(|leaf| {
                                    leaf.spawn(|_| {
                                        ran.fetch_add(1, Ordering::Relaxed);
                                    })
                                });
                            });
                        }
                    });
                });
            }
        });
    });
    assert_eq!(ran.load(Ordering::Relaxed), 64 * (1 + 4 * 2));
    let total = out.stats.total();
    assert_eq!(total.tasks_created, total.tasks_executed);
    assert!(total.ntasks_imm_exec > 0, "the storm must nest frames");
    out.stats.check_invariants().unwrap();
    // `outstanding() == 0` is `finish_region`'s own (debug) assert: the
    // region returning at all says every record came back.
    assert_eq!(out.logs.len(), 2);
    for (w, log) in out.logs.iter().enumerate() {
        assert_eq!(log.worker(), w);
        assert!(!log.events().is_empty(), "worker {w} logged nothing");
    }
}

/// A region opened from inside an NA-WS task of another region on the
/// same runtime: the thread that is worker `k` of the outer team is
/// worker 0 of the inner one, and the two `Worker`s it holds must not
/// mix — each region's accounting balances on its own.
#[test]
fn nested_region_inside_a_dlb_task_keeps_both_teams_apart() {
    use crate::dlb::{DlbConfig, DlbStrategy};

    let cfg = RuntimeConfig::xgomptb(3).dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(2));
    let rt = Runtime::new(cfg);
    let outer = rt.parallel(|ctx| {
        let mut inner_ok = [false; 3];
        ctx.scope(|s| {
            for (w, ok) in inner_ok.iter_mut().enumerate() {
                let rt = &rt;
                s.spawn_on(w, move |_| {
                    let inner = rt.parallel(|ctx| {
                        let mut acc = [0u64; 48];
                        ctx.scope(|s| {
                            for (i, slot) in acc.iter_mut().enumerate() {
                                s.spawn(move |_| *slot = i as u64);
                            }
                        });
                        acc.iter().sum::<u64>()
                    });
                    let total = inner.stats.total();
                    *ok = inner.result == (0..48u64).sum()
                        && total.tasks_created == 48
                        && total.tasks_executed == 48
                        && inner.stats.check_invariants().is_ok();
                });
            }
        });
        inner_ok
    });
    assert_eq!(outer.result, [true; 3]);
    let total = outer.stats.total();
    assert_eq!(total.tasks_created, 3);
    assert_eq!(total.tasks_executed, 3);
    outer.stats.check_invariants().unwrap();
}

/// A team claims the server-owned cells its workers write for its whole
/// life. `emit_meta` from outside the team is a second writer of ring 0,
/// so it panics while the team holds that ring instead of interleaving
/// records, and lands once the team is gone. A second team on the same
/// tracer or sampler panics where it is built, before any worker runs.
#[test]
fn server_owned_cells_have_one_team_at_a_time() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use xgomp_profiling::EventKind;
    let tracer = Arc::new(Tracer::new(TraceLevel::Lifecycle));
    let sampler = Arc::<LiveTaskSampler>::default();
    let rt = Runtime::new(RuntimeConfig::xgomptb(2));
    let hooks = || ServingHooks {
        sampler: Some(sampler.clone()),
        tracer: Some(tracer.clone()),
        ..ServingHooks::default()
    };
    let meta = || tracer.emit_meta(0, EventKind::GenOpen, 0, 7, 0);
    let inside = rt.serve(hooks(), |_| {
        let meta_panicked = catch_unwind(AssertUnwindSafe(meta)).is_err();
        // A team of its own on the same cells, from inside a task.
        let other = Runtime::new(RuntimeConfig::xgomptb(1));
        let team_panicked =
            catch_unwind(AssertUnwindSafe(|| other.serve(hooks(), |_| ()))).is_err();
        (meta_panicked, team_panicked)
    });
    assert_eq!(inside.result, (true, true));
    meta();
    let events = tracer.snapshot().events;
    let metas: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::GenOpen)
        .collect();
    assert_eq!(metas.len(), 1, "only the post-team marker landed");
    assert_eq!((metas[0].worker, metas[0].b), (0, 7));
    // Released with the team: the next generation claims the cells again.
    rt.serve(hooks(), |_| ());
}
