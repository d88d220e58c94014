//! Heap allocations per spawned task, counted on the calling thread by
//! the shared counting allocator (`support`). A one-worker runtime runs
//! every task on the calling thread, so tests running in parallel cannot
//! pollute the count. The per-task figure is a region spawning 2 000 tasks minus one
//! spawning 1 000 (after a warm-up region), which cancels every per-region
//! allocation.
//!
//! A task is one record with its body inline: one allocation under the
//! `Malloc` policy (GOMP's `malloc` per task), none under `MultiLevel`
//! (recycled records). A capture larger than the inline storage is boxed
//! and pays one more. A region that panics frees every record it
//! allocated, its root task included.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use xgomp::{Runtime, RuntimeConfig, TaskCtx};

mod support;

/// This thread's allocations so far.
fn allocs() -> u64 {
    support::allocs().0
}

/// A capture larger than the inline storage.
const BIG: [u64; 4] = [1; 4];

/// This thread's allocations during one region that spawns `n` tasks,
/// each capturing a reference (plus [`BIG`] when `big`).
fn region_allocs(rt: &Runtime, n: u64, big: bool) -> u64 {
    let hits = AtomicU64::new(0);
    let hits = &hits;
    let before = allocs();
    rt.parallel(|ctx| {
        ctx.scope(|s| {
            for _ in 0..n {
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
        });
    });
    let spent = allocs() - before;
    assert_eq!(hits.load(Ordering::Relaxed), n);
    spent
}

/// Allocations per task on a one-worker runtime built from `cfg`.
fn per_task(cfg: RuntimeConfig, big: bool) -> u64 {
    let rt = Runtime::new(cfg);
    region_allocs(&rt, 1_000, big);
    let small = region_allocs(&rt, 1_000, big);
    let large = region_allocs(&rt, 2_000, big);
    let extra = large - small;
    assert_eq!(extra % 1_000, 0, "{extra} allocations for 1000 more tasks");
    extra / 1_000
}

#[test]
fn malloc_policy_allocates_one_record_per_task() {
    assert_eq!(per_task(RuntimeConfig::xgomptb(1), false), 1);
}

#[test]
fn multilevel_policy_allocates_nothing_per_task() {
    assert_eq!(per_task(RuntimeConfig::xlomp(1), false), 0);
}

#[test]
fn an_oversized_capture_is_boxed() {
    assert_eq!(per_task(RuntimeConfig::xgomptb(1), true), 2);
    assert_eq!(per_task(RuntimeConfig::xlomp(1), true), 1);
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
