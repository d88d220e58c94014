//! Cross-generation telemetry of the data-parallel loop subsystem.
//!
//! Per-*region* loop counters live in [`WorkerStats`](crate::WorkerStats)
//! (single-writer, collected into each generation's `RegionOutput`).
//! [`LoopTelemetry`] is the *persistent* counterpart a long-lived server
//! hangs onto across pause/resume cycles and config swaps: one shared
//! block of per-schedule chunk/iteration/steal counters, updated once
//! per completed `parallel_for` (not per chunk), so plain `fetch_add`
//! contention is irrelevant.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of loop-schedule families tracked (Static / Dynamic / Guided /
/// Adaptive / the LB4OMP portfolio TSS / Factoring / WeightedFactoring /
/// AWF, plus the `Auto` selector — in that index order; see
/// `xgomp_core::loops::LoopSchedule`).
pub const LOOP_SCHEDULES: usize = 9;

/// Canonical schedule names, index-aligned with the counters. Loops
/// submitted as `Auto` are recorded under `"auto"` (their chunks ran
/// under whichever concrete member the selector picked — that breakdown
/// is the selector's own `selected_counts`).
pub const LOOP_SCHEDULE_NAMES: [&str; LOOP_SCHEDULES] = [
    "static",
    "dynamic",
    "guided",
    "adaptive",
    "tss",
    "factoring",
    "weighted_factoring",
    "awf",
    "auto",
];

/// Number of iteration-space shape families tracked (1D range / 2D
/// rectangle / triangular, in that index order — see
/// `xgomp_core::loops::SpaceKind`).
pub const LOOP_SPACE_KINDS: usize = 3;

/// Canonical space-kind names, index-aligned with the counters.
pub const LOOP_SPACE_KIND_NAMES: [&str; LOOP_SPACE_KINDS] = ["range1d", "rect2d", "triangular"];

/// One schedule family's counter block.
#[derive(Debug, Default)]
struct ScheduleCounters {
    loops: AtomicU64,
    chunks: AtomicU64,
    iters: AtomicU64,
    range_steals: AtomicU64,
}

/// One space-kind family's counter block.
#[derive(Debug, Default)]
struct SpaceKindCounters {
    loops: AtomicU64,
    iters: AtomicU64,
}

/// Persistent per-schedule and per-space-kind loop counters. All iteration counts are u64 end-to-end — a
/// completed >u32::MAX-iteration waved loop folds in without truncation.
#[derive(Debug, Default)]
pub struct LoopTelemetry {
    per_schedule: [ScheduleCounters; LOOP_SCHEDULES],
    per_space: [SpaceKindCounters; LOOP_SPACE_KINDS],
}

impl LoopTelemetry {
    /// A zeroed telemetry block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed loop's totals into schedule `schedule` and
    /// space kind `space_kind` (index orders of [`LOOP_SCHEDULE_NAMES`]
    /// / [`LOOP_SPACE_KIND_NAMES`]; out-of-range indices are clamped
    /// into the last family rather than dropped).
    pub fn record_loop(
        &self,
        schedule: usize,
        space_kind: usize,
        chunks: u64,
        iters: u64,
        range_steals: u64,
    ) {
        let s = &self.per_schedule[schedule.min(LOOP_SCHEDULES - 1)];
        s.loops.fetch_add(1, Ordering::Relaxed);
        s.chunks.fetch_add(chunks, Ordering::Relaxed);
        s.iters.fetch_add(iters, Ordering::Relaxed);
        s.range_steals.fetch_add(range_steals, Ordering::Relaxed);
        let k = &self.per_space[space_kind.min(LOOP_SPACE_KINDS - 1)];
        k.loops.fetch_add(1, Ordering::Relaxed);
        k.iters.fetch_add(iters, Ordering::Relaxed);
    }

    /// Plain-value snapshot.
    pub fn snapshot(&self) -> LoopTelemetrySnapshot {
        let mut snap = LoopTelemetrySnapshot::default();
        for (i, s) in self.per_schedule.iter().enumerate() {
            snap.per_schedule[i] = ScheduleSnapshot {
                schedule: LOOP_SCHEDULE_NAMES[i],
                loops: s.loops.load(Ordering::Relaxed),
                chunks: s.chunks.load(Ordering::Relaxed),
                iters: s.iters.load(Ordering::Relaxed),
                range_steals: s.range_steals.load(Ordering::Relaxed),
            };
        }
        for (i, k) in self.per_space.iter().enumerate() {
            snap.per_space[i] = SpaceKindSnapshot {
                space: LOOP_SPACE_KIND_NAMES[i],
                loops: k.loops.load(Ordering::Relaxed),
                iters: k.iters.load(Ordering::Relaxed),
            };
        }
        snap
    }
}

/// Snapshot of one schedule family's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleSnapshot {
    /// Schedule family name ([`LOOP_SCHEDULE_NAMES`] entry).
    pub schedule: &'static str,
    /// Completed `parallel_for` regions.
    pub loops: u64,
    /// Chunks executed.
    pub chunks: u64,
    /// Iterations executed.
    pub iters: u64,
    /// Cross-zone range steal-splits performed.
    pub range_steals: u64,
}

/// Snapshot of one space-kind family's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpaceKindSnapshot {
    /// Space-kind name (`"range1d"` / `"rect2d"` / `"triangular"`).
    pub space: &'static str,
    /// Completed `parallel_for` regions over this shape.
    pub loops: u64,
    /// Elements executed over this shape.
    pub iters: u64,
}

/// Snapshot of a whole [`LoopTelemetry`] block.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopTelemetrySnapshot {
    /// One entry per schedule family, index-aligned with
    /// [`LOOP_SCHEDULE_NAMES`].
    pub per_schedule: [ScheduleSnapshot; LOOP_SCHEDULES],
    /// One entry per space-kind family, index-aligned with
    /// [`LOOP_SPACE_KIND_NAMES`].
    pub per_space: [SpaceKindSnapshot; LOOP_SPACE_KINDS],
}

impl LoopTelemetrySnapshot {
    /// Totals across all schedule families:
    /// `(loops, chunks, iters, range_steals)`.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        self.per_schedule.iter().fold((0, 0, 0, 0), |acc, s| {
            (
                acc.0 + s.loops,
                acc.1 + s.chunks,
                acc.2 + s.iters,
                acc.3 + s.range_steals,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_schedule_and_space() {
        let t = LoopTelemetry::new();
        t.record_loop(0, 0, 10, 1_000, 0);
        t.record_loop(1, 2, 20, 2_000, 3);
        t.record_loop(1, 2, 5, 500, 1);
        let snap = t.snapshot();
        assert_eq!(snap.per_schedule[0].loops, 1);
        assert_eq!(snap.per_schedule[0].chunks, 10);
        assert_eq!(snap.per_schedule[1].loops, 2);
        assert_eq!(snap.per_schedule[1].chunks, 25);
        assert_eq!(snap.per_schedule[1].range_steals, 4);
        assert_eq!(snap.totals(), (3, 35, 3_500, 4));
        assert_eq!(snap.per_space[0].loops, 1);
        assert_eq!(snap.per_space[0].iters, 1_000);
        assert_eq!(snap.per_space[2].loops, 2);
        assert_eq!(snap.per_space[2].iters, 2_500);
    }

    #[test]
    fn giant_loop_iters_fold_in_without_truncation() {
        // The u32 boundary: a waved loop one past u32::MAX and one
        // under must both survive the fold and the snapshot exactly.
        let t = LoopTelemetry::new();
        let over = u32::MAX as u64 + 1;
        let under = u32::MAX as u64 - 1;
        t.record_loop(1, 0, 7, over, 0);
        t.record_loop(1, 0, 7, under, 0);
        let snap = t.snapshot();
        assert_eq!(snap.per_schedule[1].iters, over + under);
        assert_eq!(snap.per_space[0].iters, over + under);
        assert_eq!(snap.totals().2, over + under);
    }

    #[test]
    fn out_of_range_indices_clamp() {
        let t = LoopTelemetry::new();
        t.record_loop(99, 99, 1, 1, 0);
        let snap = t.snapshot();
        assert_eq!(snap.per_schedule[LOOP_SCHEDULES - 1].loops, 1);
        assert_eq!(snap.per_space[LOOP_SPACE_KINDS - 1].loops, 1);
    }
}
