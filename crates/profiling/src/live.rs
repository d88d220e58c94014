//! Live (always-on, cross-thread-readable) task-size sampling.
//!
//! The §V [`PerfLog`](crate::PerfLog) timelines are collected only when a
//! region *ends*, which is useless for a persistent executor that never
//! tears its team down. [`LiveTaskSampler`] is the online counterpart: a
//! per-worker-sharded decade histogram of task durations that workers
//! update with relaxed single-writer stores while any thread (the
//! adaptive controller) reads a merged [`TaskSizeHistogram`] snapshot at
//! any time. This is the measurement feeding the online Table-IV
//! retuning in `xgomp-service`.
//!
//! Like the [`Tracer`](crate::Tracer) beside it, a sampler outlives any
//! one team generation: lanes materialize on first request and are never
//! retired, so a server owns one sampler from start to shutdown and a
//! team resize simply grows the lane list.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{decade_index, TaskSizeHistogram};

/// One worker's write lane, padded to its own pair of cache lines so
/// recording never false-shares across workers. A worker obtains its
/// lane once per generation ([`LiveTaskSampler::lane`]) and records with
/// no shared state.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct TaskLane {
    buckets: [AtomicU64; 9],
    count: AtomicU64,
    total_ticks: AtomicU64,
    min_ticks: AtomicU64,
    max_ticks: AtomicU64,
}

impl TaskLane {
    /// Records one task of `ticks` duration. Single-writer: at most one
    /// thread records into a lane at a time (one lane per worker), which
    /// is what lets every update be a load+store instead of an RMW.
    #[inline]
    pub fn record(&self, ticks: u64) {
        self.record_n(ticks, 1);
    }

    /// Records `n` tasks of `ticks` duration each — exactly `n` calls of
    /// [`record`](Self::record) in one pass (`n == 0` records nothing).
    /// This is how a loop's timing window of `n` sub-µs chunks keeps one
    /// sample of mass per chunk while reading the clock once. Same
    /// single-writer contract.
    #[inline]
    pub fn record_n(&self, ticks: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = &self.buckets[decade_index(ticks)];
        b.store(b.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        // `count == 0` means "no minimum yet" (same rule as
        // `TaskSizeHistogram`); the minimum is stored before the count
        // that makes it meaningful.
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 || ticks < self.min_ticks.load(Ordering::Relaxed) {
            self.min_ticks.store(ticks, Ordering::Relaxed);
        }
        if ticks > self.max_ticks.load(Ordering::Relaxed) {
            self.max_ticks.store(ticks, Ordering::Relaxed);
        }
        self.total_ticks.store(
            self.total_ticks.load(Ordering::Relaxed) + ticks * n,
            Ordering::Relaxed,
        );
        self.count.store(count + n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> TaskSizeHistogram {
        TaskSizeHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            total_ticks: self.total_ticks.load(Ordering::Relaxed),
            min_ticks: self.min_ticks.load(Ordering::Relaxed),
            max_ticks: self.max_ticks.load(Ordering::Relaxed),
        }
    }
}

/// Shared online task-size histogram: one write lane per worker, merged
/// on read.
///
/// Writers use `Relaxed` ordering throughout — the reader only needs a
/// statistically faithful snapshot, not a linearizable one, exactly like
/// the paper's §V counters. A `default()` sampler has no lanes yet.
#[derive(Debug, Default)]
pub struct LiveTaskSampler {
    lanes: Mutex<Vec<Arc<TaskLane>>>,
}

impl LiveTaskSampler {
    /// Worker `w`'s lane, created on first request. Workers call this
    /// once per generation and cache the `Arc`; the lane — and
    /// everything recorded into it — persists across generations.
    pub fn lane(&self, worker: usize) -> Arc<TaskLane> {
        let mut lanes = self.lanes.lock().unwrap();
        while lanes.len() <= worker {
            lanes.push(Arc::default());
        }
        lanes[worker].clone()
    }

    /// Tasks observed so far (merged over lanes; monotonic).
    pub fn tasks_observed(&self) -> u64 {
        let lanes = self.lanes.lock().unwrap();
        lanes.iter().map(|l| l.count.load(Ordering::Relaxed)).sum()
    }

    /// Merged snapshot as a plain [`TaskSizeHistogram`]. Cumulative since
    /// construction; windowed views are obtained by differencing two
    /// snapshots' monotonic `buckets`/`count`/`total_ticks`.
    pub fn snapshot(&self) -> TaskSizeHistogram {
        let mut h = TaskSizeHistogram::default();
        for lane in self.lanes.lock().unwrap().iter() {
            h.merge(&lane.snapshot());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_merge_across_lanes() {
        let s = LiveTaskSampler::default();
        s.lane(0).record(5);
        s.lane(1).record(500);
        s.lane(2).record(50_000);
        s.lane(2).record(50_000);
        let h = s.snapshot();
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[4], 2);
        assert_eq!(h.min_ticks, 5);
        assert_eq!(h.max_ticks, 50_000);
        assert_eq!(h.total_ticks, 5 + 500 + 100_000);
        assert_eq!(s.tasks_observed(), 4);
    }

    #[test]
    fn record_n_is_n_records() {
        // Around earlier samples on both sides, so min/max are exercised
        // as "kept" and as "replaced".
        for (first, t) in [(5_000, 300), (30, 300), (300, 300)] {
            let (weighted, single) = (LiveTaskSampler::default(), LiveTaskSampler::default());
            weighted.lane(0).record(first);
            weighted.lane(0).record_n(t, 8);
            weighted.lane(0).record_n(9_999_999, 0); // no mass, no trace
            single.lane(0).record(first);
            for _ in 0..8 {
                single.lane(0).record(t);
            }
            let h = weighted.snapshot();
            assert_eq!(h, single.snapshot(), "count, buckets, total, min, max");
            assert_eq!((h.count, h.buckets[2]), (9, 8 + u64::from(first == 300)));
            assert_eq!(h.total_ticks, first + 8 * t);
            assert_eq!((h.min_ticks, h.max_ticks), (first.min(t), first.max(t)));
            assert_eq!(weighted.tasks_observed(), single.tasks_observed());
        }
        // Into an empty lane: the first weighted record sets the minimum.
        let s = LiveTaskSampler::default();
        s.lane(0).record_n(700, 4);
        let h = s.snapshot();
        assert_eq!((h.count, h.min_ticks, h.max_ticks), (4, 700, 700));
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let s = LiveTaskSampler::default();
        assert_eq!(s.snapshot(), TaskSizeHistogram::default());
        // Materialized-but-silent lanes are as empty as no lanes.
        s.lane(1);
        let h = s.snapshot();
        assert_eq!(h.count, 0);
        assert_eq!(h.min_ticks, 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn lanes_grow_and_keep_everything_recorded() {
        // A team resize is "ask for a higher lane": nothing recorded on
        // the old lanes is retired, and the merged minimum is the true
        // one — not the 0 an empty lane (or histogram) starts from.
        let s = LiveTaskSampler::default();
        let lane0 = s.lane(0);
        lane0.record(700);
        let before = s.snapshot();
        assert_eq!((before.count, before.min_ticks), (1, 700));
        s.lane(3).record(9_000);
        assert!(Arc::ptr_eq(&lane0, &s.lane(0)), "lanes are stable");
        let h = s.snapshot();
        assert_eq!(h.count, 2, "both lanes' records survive the growth");
        assert_eq!(h.min_ticks, 700);
        assert_eq!(h.max_ticks, 9_000);
        assert!(h.count >= before.count, "snapshots are monotone");
    }

    #[test]
    fn concurrent_recording_is_conserved() {
        let s = Arc::new(LiveTaskSampler::default());
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let lane = s.lane(w);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        lane.record(i % 1_000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Per-lane single-writer discipline ⇒ no lost updates.
        assert_eq!(s.tasks_observed(), 40_000);
        assert_eq!(s.snapshot().count, 40_000);
    }
}
