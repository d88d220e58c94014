//! Live (always-on, cross-thread-readable) task-size sampling.
//!
//! The §V [`PerfLog`](crate::PerfLog) timelines are collected only when a
//! region *ends*, which is useless for a persistent executor that never
//! tears its team down. [`LiveTaskSampler`] is the online counterpart: a
//! decade histogram of task durations kept as one [`TaskLane`] per worker
//! seat of a [`Cells`], which workers update with relaxed single-writer
//! stores while any thread (the adaptive controller) reads a merged
//! [`TaskSizeHistogram`] snapshot at any time. This is the measurement
//! feeding the online Table-IV retuning in `xgomp-service`.
//!
//! Like the [`Tracer`](crate::Tracer) beside it, a sampler outlives any
//! one team generation: lanes appear on first request and are never
//! retired, so a server owns one sampler from start to shutdown, a team
//! resize simply grows the lanes, and each generation
//! claims the lanes its workers write.

use std::sync::Arc;

use xgomp_xqueue::Cells;

use crate::histogram::{TaskLane, TaskSizeHistogram};

/// Shared online task-size histogram: one write lane per worker, merged
/// on read. A `default()` sampler has no lanes yet.
#[derive(Debug, Default)]
pub struct LiveTaskSampler {
    /// One lane per worker seat. Each team generation
    /// [`claim`](Cells::claim)s the lanes its workers record into (a
    /// second claim of a held lane panics); a lane — and everything
    /// recorded into it — persists across generations.
    pub lanes: Arc<Cells<TaskLane>>,
}

impl LiveTaskSampler {
    /// Tasks observed so far (merged over lanes; monotonic).
    pub fn tasks_observed(&self) -> u64 {
        self.lanes.iter().flat_map(TaskLane::buckets).sum()
    }

    /// Merged snapshot as a plain [`TaskSizeHistogram`]. Cumulative since
    /// construction; windowed views are obtained by differencing two
    /// snapshots' monotonic `buckets`/`count`/`total_ticks`.
    pub fn snapshot(&self) -> TaskSizeHistogram {
        let mut h = TaskSizeHistogram::default();
        for lane in self.lanes.iter() {
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
        let lanes = s.lanes.claim(0..3);
        lanes.seat(0).record(5, 1);
        lanes.seat(1).record(500, 1);
        lanes.seat(2).record(50_000, 1);
        lanes.seat(2).record(50_000, 1);
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
            let (w, s) = (weighted.lanes.claim(0..1), single.lanes.claim(0..1));
            w.seat(0).record(first, 1);
            w.seat(0).record(t, 8);
            w.seat(0).record(9_999_999, 0); // no mass, no trace
            s.seat(0).record(first, 1);
            for _ in 0..8 {
                s.seat(0).record(t, 1);
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
        s.lanes.claim(0..1).seat(0).record(700, 4);
        let h = s.snapshot();
        assert_eq!((h.count, h.min_ticks, h.max_ticks), (4, 700, 700));
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let s = LiveTaskSampler::default();
        assert_eq!(s.snapshot(), TaskSizeHistogram::default());
        // Materialized-but-silent lanes are as empty as no lanes.
        s.lanes.claim(0..2).seat(1);
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
        let lanes = s.lanes.claim(0..4);
        let lane0 = lanes.seat(0);
        lane0.record(700, 1);
        let before = s.snapshot();
        assert_eq!((before.count, before.min_ticks), (1, 700));
        lanes.seat(3).record(9_000, 1);
        assert!(std::ptr::eq(lane0, lanes.seat(0)), "lanes are stable");
        let h = s.snapshot();
        assert_eq!(h.count, 2, "both lanes' records survive the growth");
        assert_eq!(h.min_ticks, 700);
        assert_eq!(h.max_ticks, 9_000);
        assert!(h.count >= before.count, "snapshots are monotone");
    }

    #[test]
    fn concurrent_recording_is_conserved() {
        let s = LiveTaskSampler::default();
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let lanes = s.lanes.claim(w..w + 1);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        lanes.seat(w).record(i % 1_000, 1);
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

    /// A lane's seat starts a line and fills whole lines, so adjacent
    /// workers' lanes never share a 128-byte line.
    #[test]
    fn lanes_never_share_a_line() {
        use std::mem::{align_of, offset_of, size_of};
        use xgomp_xqueue::cells::Slot;
        assert_eq!(align_of::<Slot<TaskLane>>(), 128);
        assert_eq!(size_of::<Slot<TaskLane>>() % 128, 0);
        assert_eq!(offset_of!(Slot<TaskLane>, 0), 0);
    }
}
