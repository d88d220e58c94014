//! End-to-end semantic tests of the public tasking API: scope borrowing,
//! taskwait, priorities, profiling plumbing, topology/locality behavior,
//! DLB statistics causality, and the team engine's lifecycle (hot
//! threads with per-region stats, overlapping regions, join on drop).

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

use xgomp::topology::MachineTopology;
use xgomp::{Affinity, CostModel, DlbConfig, DlbStrategy, EventKind, Runtime, RuntimeConfig};

#[test]
fn scope_borrows_stack_data_mutably() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    let out = rt.parallel(|ctx| {
        let mut words = vec![String::new(); 64];
        ctx.scope(|s| {
            for (i, w) in words.iter_mut().enumerate() {
                s.spawn(move |_| *w = format!("task-{i}"));
            }
        });
        words.iter().filter(|w| w.starts_with("task-")).count()
    });
    assert_eq!(out.result, 64);
}

#[test]
fn taskwait_orders_child_effects() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    let out = rt.parallel(|ctx| {
        let counter = Arc::new(AtomicUsize::new(0));
        for round in 0..10 {
            let before = counter.load(Ordering::SeqCst);
            assert_eq!(before, round * 16);
            for _ in 0..16 {
                let c = counter.clone();
                ctx.spawn(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            ctx.taskwait();
            assert_eq!(counter.load(Ordering::SeqCst), (round + 1) * 16);
        }
        counter.load(Ordering::SeqCst)
    });
    assert_eq!(out.result, 160);
}

#[test]
fn nested_scopes_preserve_sequencing() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(4));
    let out = rt.parallel(|ctx| {
        let mut layers = [0u64; 4];
        ctx.scope(|s| {
            for (depth, slot) in layers.iter_mut().enumerate() {
                s.spawn(move |ctx| {
                    let mut inner = [0u64; 8];
                    ctx.scope(|s2| {
                        for (j, v) in inner.iter_mut().enumerate() {
                            s2.spawn(move |_| *v = (depth * 8 + j) as u64 + 1);
                        }
                    });
                    // All inner writes must be visible here.
                    *slot = inner.iter().sum();
                });
            }
        });
        layers.iter().sum::<u64>()
    });
    assert_eq!(out.result, (1..=32u64).sum::<u64>());
}

#[test]
fn gomp_priorities_order_fifo_queue() {
    // Single worker: priorities fully determine execution order under
    // the GOMP scheduler.
    let rt = Runtime::new(RuntimeConfig::gomp(1));
    let out = rt.parallel(|ctx| {
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        for (priority, tag) in [(0, "low1"), (5, "high"), (0, "low2"), (3, "mid")] {
            let order = order.clone();
            ctx.spawn_with_priority(priority, move |_| {
                order.lock().unwrap().push(tag);
            });
        }
        ctx.taskwait();
        Arc::try_unwrap(order).unwrap().into_inner().unwrap()
    });
    assert_eq!(out.result, vec!["high", "mid", "low1", "low2"]);
}

#[test]
fn profiling_events_cover_all_classes() {
    let cfg = RuntimeConfig::xgomptb(4).profiling(true);
    let rt = Runtime::new(cfg);
    let out = rt.parallel(|ctx| {
        ctx.scope(|s| {
            for _ in 0..200 {
                s.spawn(|_| {
                    std::hint::spin_loop();
                });
            }
        });
    });
    let mut seen = [false; 5];
    for log in &out.logs {
        for e in log.events() {
            seen[e.kind as usize] = true;
            assert!(e.end >= e.start, "negative event duration");
        }
    }
    assert!(seen[EventKind::Task as usize], "no TASK events");
    assert!(seen[EventKind::TaskCreate as usize], "no GOMP_TASK events");
    assert!(seen[EventKind::Barrier as usize], "no BARRIER events");
}

#[test]
fn locality_counters_follow_the_topology() {
    // Single zone ⇒ no remote executions, ever.
    let topo = MachineTopology::new(1, 8, 1);
    let cfg = RuntimeConfig::xgomptb(4)
        .topology(topo)
        .affinity(Affinity::Close);
    let rt = Runtime::new(cfg);
    let out = rt.parallel(|ctx| {
        ctx.scope(|s| {
            for _ in 0..500 {
                s.spawn(|_| ());
            }
        });
    });
    let t = out.stats.total();
    assert_eq!(t.ntasks_remote, 0, "single-zone machine saw remote tasks");
    assert_eq!(t.tasks_executed, 500);
}

#[test]
fn dlb_statistics_are_causally_consistent() {
    let cfg = RuntimeConfig::xgomptb(4).dlb(
        DlbConfig::new(DlbStrategy::WorkSteal)
            .n_victim(2)
            .n_steal(8)
            .t_interval(32),
    );
    let rt = Runtime::new(cfg);
    let out = rt.parallel(|ctx| {
        ctx.scope(|s| {
            for i in 0..2000u64 {
                s.spawn(move |_| {
                    // Uneven grains provoke stealing.
                    for _ in 0..(i % 13) * 50 {
                        std::hint::spin_loop();
                    }
                });
            }
        });
    });
    let t = out.stats.total();
    out.stats.check_invariants().unwrap();
    assert!(t.nreq_handled <= t.nreq_sent);
    assert!(t.nreq_has_steal <= t.nreq_handled);
    assert_eq!(t.nsteal_local + t.nsteal_remote, t.ntasks_stolen);
}

#[test]
fn cost_model_slows_remote_execution_measurably() {
    // Same workload, cost model off vs extreme: the penalized run must
    // be slower when remote executions occur.
    let mk = |model: CostModel| {
        RuntimeConfig::xgomptb(4)
            .topology(MachineTopology::new(4, 1, 1))
            .cost_model(model)
    };
    let work = |ctx: &xgomp::TaskCtx<'_>| {
        ctx.scope(|s| {
            for _ in 0..3000 {
                s.spawn(|_| ());
            }
        });
    };
    let fast = Runtime::new(mk(CostModel::disabled())).parallel(work);
    let heavy = CostModel {
        enabled: true,
        local_ns: 2_000,
        remote_ns: 20_000,
        accesses_per_task: 10,
    };
    let slow = Runtime::new(mk(heavy)).parallel(work);
    // Only assert when the run actually had non-self executions.
    let t = slow.stats.total();
    if t.ntasks_local + t.ntasks_remote > 500 {
        assert!(
            slow.wall > fast.wall,
            "cost model had no effect: fast={:?} slow={:?}",
            fast.wall,
            slow.wall
        );
    }
}

#[test]
fn region_reuse_produces_fresh_teams() {
    // Hot threads, fresh stats: every region runs on the same three OS
    // threads (the caller + two parked workers) yet reports counters of
    // its own.
    let rt = Runtime::new(RuntimeConfig::xgomptb(3));
    let mut team_threads: Option<HashSet<(usize, ThreadId)>> = None;
    for i in 0..20 {
        let out = rt.parallel(|ctx| {
            let mut acc = vec![(0u64, None); 32];
            ctx.scope(|s| {
                for (j, a) in acc.iter_mut().enumerate() {
                    s.spawn(move |c| {
                        *a = (
                            (i * j) as u64,
                            Some((c.worker_id(), std::thread::current().id())),
                        )
                    });
                }
            });
            acc
        });
        let sum: u64 = out.result.iter().map(|(v, _)| v).sum();
        assert_eq!(sum, (0..32).map(|j| (i * j) as u64).sum::<u64>());
        let total = out.stats.total();
        assert_eq!(total.tasks_created, 32);
        assert_eq!(total.tasks_executed, 32);
        out.stats.check_invariants().unwrap();
        // Static balancing: each worker runs its own share, so the set
        // names every worker exactly once.
        let ran_on: HashSet<_> = out.result.iter().filter_map(|(_, t)| *t).collect();
        assert_eq!(ran_on.len(), 3, "one OS thread per worker: {ran_on:?}");
        assert_eq!(*team_threads.get_or_insert(ran_on.clone()), ran_on);
    }
}

fn sum_region(rt: &Runtime, k: u64) -> u64 {
    let out = rt.parallel(|ctx| {
        let mut acc = vec![0u64; 48];
        ctx.scope(|s| {
            for (j, a) in acc.iter_mut().enumerate() {
                s.spawn(move |_| *a = k * j as u64);
            }
        });
        acc.iter().sum::<u64>()
    });
    assert_eq!(out.stats.total().tasks_executed, 48);
    out.stats.check_invariants().unwrap();
    out.result
}

#[test]
fn concurrent_and_nested_regions_share_one_runtime() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(3));
    let expect = |k: u64| (0..48u64).map(|j| k * j).sum::<u64>();
    // Two callers at once: whoever finds the hot workers checked out
    // runs on a set of its own.
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let rt = &rt;
            s.spawn(move || {
                for i in 0..50 {
                    assert_eq!(sum_region(rt, t * 50 + i), expect(t * 50 + i));
                }
            });
        }
    });
    // A task that opens a region on its own runtime.
    let out = rt.parallel(|ctx| {
        let mut inner = [0u64; 3];
        ctx.scope(|s| {
            for (w, slot) in inner.iter_mut().enumerate() {
                let rt = &rt;
                s.spawn_on(w, move |_| *slot = sum_region(rt, w as u64 + 7));
            }
        });
        inner
    });
    assert_eq!(out.result, [expect(7), expect(8), expect(9)]);
    out.stats.check_invariants().unwrap();
}

#[test]
fn dropping_a_runtime_joins_its_workers() {
    static EXITED: AtomicUsize = AtomicUsize::new(0);
    struct CountExit;
    impl Drop for CountExit {
        fn drop(&mut self) {
            EXITED.fetch_add(1, Ordering::SeqCst);
        }
    }
    thread_local! {
        static SENTINEL: RefCell<Option<CountExit>> = const { RefCell::new(None) };
    }

    const N: usize = 4;
    let rt = Runtime::new(RuntimeConfig::xgomptb(N));
    rt.parallel(|ctx| {
        ctx.scope(|s| {
            for w in 0..N {
                s.spawn_on(w, |_| {
                    SENTINEL.with(|c| {
                        c.borrow_mut().get_or_insert(CountExit);
                    })
                });
            }
        });
    });
    assert_eq!(
        EXITED.load(Ordering::SeqCst),
        0,
        "workers outlive the region"
    );
    drop(rt);
    // Every worker but the caller (this thread, still alive) has run its
    // thread-local destructors, i.e. was joined.
    assert_eq!(EXITED.load(Ordering::SeqCst), N - 1);
}
