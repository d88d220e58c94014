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
//! and pays one more.

use std::sync::atomic::{AtomicU64, Ordering};

use xgomp::{Runtime, RuntimeConfig};

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
