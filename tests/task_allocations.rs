//! Heap allocations per spawned task, counted on the calling thread by
//! the shared counting allocator (`support`). A one-worker runtime runs
//! every task on the calling thread, so tests running in parallel cannot
//! pollute the count. The per-task figure is a region spawning 2 000
//! tasks minus one spawning 1 000 (after a warm-up region), which cancels
//! every per-region allocation. Queued tasks are spawned in waves of 100,
//! each waited for before the next, so every one fits the 256-slot queue.
//!
//! A queued task is one record with its body inline: one allocation under
//! the `Malloc` policy (GOMP's `malloc` per task), none under `MultiLevel`
//! (recycled records). A capture larger than the inline storage is boxed
//! and pays one more. A task that finds its queue full runs undeferred on
//! a record in its spawner's frame, libgomp's undeferred task: it
//! allocates no record under either policy, and pays only an oversized
//! capture's box. A region that panics frees every record it allocated,
//! its root task included.
//!
//! The `detach_*` tests pin the owner-biased child count's three detach
//! paths on two workers, each reached by placement rather than by the
//! schedule, and race a detach against completions on both workers at
//! once: every task record is freed exactly once, whichever party — the
//! retiring owner or a child on either worker — lets go of it last. The
//! `undeferred_*` test places an undeferred task's child on the other
//! worker: the record on the spawner's frame outlives that child.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use xgomp::{Runtime, RuntimeConfig, Scope, TaskCtx};

mod support;

/// This thread's allocations so far.
fn allocs() -> u64 {
    support::allocs().0
}

/// A capture larger than the inline storage.
const BIG: [u64; 4] = [1; 4];

/// Tasks per wave: each wave fits the 256-slot queue.
const WAVE: u64 = 100;

/// Spawns one task that counts itself into `hits`, capturing [`BIG`] as
/// well when `big`.
fn spawn_one<'env>(s: &Scope<'_, 'env>, hits: &'env AtomicU64, big: bool) {
    if big {
        let pad = BIG;
        s.spawn(move |_| {
            hits.fetch_add(pad[0], Ordering::Relaxed);
        });
    } else {
        s.spawn(move |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
}

/// This thread's allocations during one region that spawns `n` tasks,
/// each capturing a reference (plus [`BIG`] when `big`). `queued`: in
/// waves of [`WAVE`], each waited for before the next, so every task is
/// queued; otherwise two tasks fill the queue first (a capacity-2 queue
/// on one worker), and all `n` find it full and run undeferred.
fn region_allocs(rt: &Runtime, n: u64, big: bool, queued: bool) -> u64 {
    let hits = AtomicU64::new(0);
    let hits = &hits;
    let before = allocs();
    let out = rt.parallel(|ctx| {
        if queued {
            for _ in 0..n / WAVE {
                ctx.scope(|s| (0..WAVE).for_each(|_| spawn_one(s, hits, big)));
            }
        } else {
            ctx.scope(|s| {
                s.spawn(|_| {});
                s.spawn(|_| {});
                (0..n).for_each(|_| spawn_one(s, hits, big));
            });
        }
    });
    let spent = allocs() - before;
    assert_eq!(hits.load(Ordering::Relaxed), n);
    let undeferred = out.stats.total().ntasks_imm_exec;
    assert_eq!(undeferred, if queued { 0 } else { n });
    spent
}

/// Allocations per task on a one-worker runtime built from `cfg`: per
/// queued task, or per undeferred one when not `queued`.
fn per_task(cfg: RuntimeConfig, big: bool, queued: bool) -> u64 {
    let rt = Runtime::new(cfg);
    region_allocs(&rt, 1_000, big, queued);
    let small = region_allocs(&rt, 1_000, big, queued);
    let large = region_allocs(&rt, 2_000, big, queued);
    let extra = large - small;
    assert_eq!(extra % 1_000, 0, "{extra} allocations for 1000 more tasks");
    extra / 1_000
}

#[test]
fn malloc_policy_allocates_one_record_per_task() {
    assert_eq!(per_task(RuntimeConfig::xgomptb(1), false, true), 1);
}

#[test]
fn multilevel_policy_allocates_nothing_per_task() {
    assert_eq!(per_task(RuntimeConfig::xlomp(1), false, true), 0);
}

#[test]
fn an_oversized_capture_is_boxed() {
    assert_eq!(per_task(RuntimeConfig::xgomptb(1), true, true), 2);
    assert_eq!(per_task(RuntimeConfig::xlomp(1), true, true), 1);
}

/// Every task finds its capacity-2 queue full and runs undeferred, with
/// no record allocated; an oversized capture still pays its box.
#[test]
fn an_undeferred_task_allocates_no_record() {
    let cfg = || RuntimeConfig::xgomptb(1).queue_capacity(2);
    assert_eq!(per_task(cfg(), false, false), 0);
    assert_eq!(per_task(cfg(), true, false), 1);
}

/// A panicked region retires every task record like a clean one. Three
/// shapes, 100 regions each: the region body panics; a task body the
/// master runs panics; the region body spawns 10 tasks and then panics
/// (the poisoned team discards them). Each leaves this thread's live
/// allocations where its warm-up left them (the warm-up covers the panic
/// machinery's own first-use state).
#[test]
fn a_panicked_region_leaks_no_task_record() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(1));
    type Body = fn(&TaskCtx<'_>);
    let shapes: [(&str, Body); 3] = [
        ("the region body panics", |_| panic!("region body panicked")),
        ("a task body panics", |ctx| {
            ctx.spawn(|_| panic!("task body panicked"));
            ctx.taskwait();
        }),
        ("the region body spawns 10 tasks, then panics", |ctx| {
            for _ in 0..10 {
                ctx.spawn(|_| unreachable!("a poisoned team runs no queued task"));
            }
            panic!("region body panicked");
        }),
    ];
    for (shape, body) in shapes {
        let panicked_region = |i: u32| {
            let region = catch_unwind(AssertUnwindSafe(|| rt.parallel(body)));
            assert!(
                region.is_err(),
                "{shape}: region {i} must re-raise its panic"
            );
        };
        (0..10).for_each(panicked_region);
        let baseline = support::live();
        (0..100).for_each(panicked_region);
        let left = support::live() - baseline;
        assert_eq!(
            left, 0,
            "{shape}: 100 panicked regions left {left} allocations live"
        );
    }
}

/// Runs `body` in 100 two-worker regions, after 10 warm-up ones, on
/// `xgomptb(2)` and on the multi-level allocator (`xlomp(2)`). Each region
/// must count `children` bodies into `ran`, and the 100 must leave the
/// live allocations of tracked set `set` — this thread and worker 1's —
/// where they found them: a record never freed stays live, and one freed
/// twice takes a second block away (the multi-level pool frees it twice
/// when the team drops).
fn every_record_freed_once(set: usize, ran: &AtomicU64, children: u64, body: fn(&TaskCtx<'_>)) {
    let cfgs = [RuntimeConfig::xgomptb(2), RuntimeConfig::xlomp(2)];
    every_record_freed_once_on(cfgs, set, ran, children, body);
}

/// [`every_record_freed_once`] on the two configurations `cfgs`.
fn every_record_freed_once_on(
    cfgs: [RuntimeConfig; 2],
    set: usize,
    ran: &AtomicU64,
    children: u64,
    body: fn(&TaskCtx<'_>),
) {
    support::track_this_thread(set);
    for cfg in cfgs {
        let rt = Runtime::new(cfg);
        rt.parallel(|ctx| {
            ctx.scope(|s| {
                s.spawn_on(1, |c| {
                    assert_eq!(c.worker_id(), 1);
                    support::track_this_thread(set);
                });
            });
        });
        let region = |i: u32| {
            ran.store(0, Ordering::Relaxed);
            rt.parallel(body);
            let n = ran.load(Ordering::Relaxed);
            assert_eq!(n, children, "region {i} ran {n} of {children} children");
        };
        (0..10).for_each(region);
        let baseline = support::tracked_live(set);
        (0..100).for_each(region);
        let left = support::tracked_live(set) - baseline;
        assert_eq!(left, 0, "100 regions left {left} allocations live");
    }
}

/// A parent on worker 1 puts its one child in worker 1's own queue and
/// returns: it detaches with the child outstanding, and the child —
/// completing on the owner's worker, after the detach — frees it.
#[test]
fn detach_last_child_on_the_owner_worker() {
    static RAN: AtomicU64 = AtomicU64::new(0);
    every_record_freed_once(0, &RAN, 1, |ctx| {
        ctx.scope(|s| {
            s.spawn_on(1, |p| {
                assert_eq!(p.worker_id(), 1);
                p.spawn_local(|c| {
                    assert_eq!(c.worker_id(), 1);
                    RAN.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
    });
}

/// A parent on worker 0 sends its one child to worker 1 and returns. The
/// child waits for a grandchild placed on worker 0, which worker 0 runs
/// only after the parent's `execute` — detach included — has returned,
/// so the child completes on the peer after the detach and frees it.
#[test]
fn detach_last_child_on_the_peer() {
    static RAN: AtomicU64 = AtomicU64::new(0);
    every_record_freed_once(1, &RAN, 2, |ctx| {
        // Worker 0's first round-robin spawn targets its own queue; this
        // one moves its cursor on, so the parent's spawn targets worker 1.
        ctx.spawn(|_| {
            RAN.fetch_add(1, Ordering::Relaxed);
        });
        ctx.scope(|s| {
            s.spawn_on(0, |p| {
                assert_eq!(p.worker_id(), 0);
                p.spawn(|c| {
                    assert_eq!(c.worker_id(), 1, "the cursor's second target");
                    c.scope(|s| s.spawn_on(0, |_| {}));
                    RAN.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
    });
}

/// A parent on worker 1 waits for a child placed on worker 0 (a remote
/// completion on an attached parent), then puts a second child in its own
/// queue and returns. The detach finds one of two children counted, so it
/// frees nothing; the second child, after the detach, frees the parent.
#[test]
fn detach_after_a_remote_completion() {
    static RAN: AtomicU64 = AtomicU64::new(0);
    every_record_freed_once(2, &RAN, 2, |ctx| {
        ctx.scope(|s| {
            s.spawn_on(1, |p| {
                assert_eq!(p.worker_id(), 1);
                p.scope(|s| {
                    s.spawn_on(0, |c| {
                        assert_eq!(c.worker_id(), 0);
                        RAN.fetch_add(1, Ordering::Relaxed);
                    });
                });
                p.spawn_local(|c| {
                    assert_eq!(c.worker_id(), 1);
                    RAN.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
    });
}

/// A parent spreads eight children over both workers and returns. The
/// first child to run on the parent's own worker does so after the
/// parent's `execute`, detach included, has returned; the children on the
/// other worker wait for it (bounded), so completions land on both
/// workers at once while the parent is detached. Only the completer whose
/// increment brings the count to zero may free it, and no completer may
/// read the record after its own increment.
#[test]
fn detach_with_children_finishing_on_both_workers() {
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};
    static RAN: AtomicU64 = AtomicU64::new(0);
    static OWNER: AtomicUsize = AtomicUsize::new(0);
    static DETACHED: AtomicBool = AtomicBool::new(false);
    fn child(c: &TaskCtx<'_>) {
        if c.worker_id() == OWNER.load(Ordering::Relaxed) {
            DETACHED.store(true, Ordering::Release);
        } else {
            let deadline = Instant::now() + Duration::from_secs(1);
            while !DETACHED.load(Ordering::Acquire) && Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
        RAN.fetch_add(1, Ordering::Relaxed);
    }
    every_record_freed_once(3, &RAN, 8, |ctx| {
        DETACHED.store(false, Ordering::Relaxed);
        ctx.scope(|s| {
            s.spawn_on(0, |p| {
                OWNER.store(p.worker_id(), Ordering::Relaxed);
                for _ in 0..8 {
                    p.spawn(child);
                }
            });
        });
    });
}

/// An undeferred child on worker 0 sends a detached grandchild to worker 1
/// and returns. The child's record lives on its spawner's frame, so the
/// spawn returns only once the grandchild has completed on the peer (one
/// RMW on that record), and the frame then lets the record go without a
/// free: the balance holds on both allocators.
#[test]
fn undeferred_child_waits_for_its_grandchild_on_the_peer() {
    use std::time::Duration;
    static RAN: AtomicU64 = AtomicU64::new(0);
    static DONE: AtomicBool = AtomicBool::new(false);
    let cfgs = [
        RuntimeConfig::xgomptb(2).queue_capacity(2),
        RuntimeConfig::xlomp(2).queue_capacity(2),
    ];
    every_record_freed_once_on(cfgs, 4, &RAN, 4, |ctx| {
        DONE.store(false, Ordering::Relaxed);
        ctx.scope(|s| {
            // Two tasks fill worker 0's own capacity-2 queue; the first,
            // unplaced, moves its cursor on to worker 1.
            s.spawn(|_| {
                RAN.fetch_add(1, Ordering::Relaxed);
            });
            s.spawn_on(0, |_| {
                RAN.fetch_add(1, Ordering::Relaxed);
            });
            s.spawn_on(0, |c| {
                assert_eq!(c.worker_id(), 0);
                c.spawn(|g| {
                    assert_eq!(g.worker_id(), 1, "the cursor's second target");
                    std::thread::sleep(Duration::from_millis(1));
                    DONE.store(true, Ordering::Release);
                    RAN.fetch_add(1, Ordering::Relaxed);
                });
                RAN.fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                DONE.load(Ordering::Acquire),
                "the undeferred spawn returned before its grandchild finished"
            );
        });
    });
}
