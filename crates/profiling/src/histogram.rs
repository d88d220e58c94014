//! Log-scale task-size histograms (§VI-A: "We use our profiling tools
//! to measure task size (in rdtscp cycles) and order applications based
//! on their task size").
//!
//! The paper characterizes each BOTS application by the distribution of
//! per-task cycles (Fib 10–80, FFT mostly 10³–10⁴, Align ~10⁶, …) and
//! keys the Table IV guidelines on it. [`TaskSizeHistogram`] builds
//! that distribution from recorded `TASK` events.
//!
//! [`HistCell`] is the one recorder: a single-writer atomic histogram
//! of `N` buckets. [`TaskLane`] is its decade form, which
//! [`TaskSizeHistogram::from_logs`] records through, and the task
//! server's per-worker latency histograms use it with fixed `le` edges.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};
use xgomp_xqueue::bump;

use crate::events::{EventKind, PerfLog};

/// Decade-bucketed histogram of task durations (ticks ≈ cycles on
/// x86-64). Bucket `i` holds durations in `[10^i, 10^(i+1))`; bucket 0
/// also absorbs sub-10-cycle tasks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSizeHistogram {
    /// Counts per decade, index 0 = <10^1 … index 8 = ≥10^8.
    pub buckets: [u64; 9],
    /// Total tasks observed.
    pub count: u64,
    /// Sum of durations (for the mean).
    pub total_ticks: u64,
    /// Smallest observed task (meaningful once `count > 0`; an empty
    /// histogram has no minimum yet and reports 0, which is what makes
    /// `Default` a correct empty histogram).
    pub min_ticks: u64,
    /// Largest observed task.
    pub max_ticks: u64,
}

/// Decade bucket index for a duration in ticks: 0 for `<10`, otherwise
/// `⌊log10⌋` capped at 8 (shared by [`TaskSizeHistogram`] and
/// [`TaskLane`]).
#[inline]
pub fn decade_index(ticks: u64) -> usize {
    (ticks.max(1).ilog10() as usize).min(8)
}

/// The modal-decade rule, written once: index of the decade bucket
/// holding the most samples, or `None` when every bucket is empty. Ties
/// are broken toward the decade containing the distribution's *median*
/// sample (the percentile tie-break of the modal-decade classifier): of
/// the tied maxima, the one closest to the median decade wins; an exact
/// distance tie goes to the smaller decade (finer-grained tuning is the
/// safer default). Allocation-free — the loop chunker calls this on the
/// claim path.
pub fn modal_index(buckets: &[u64; 9]) -> Option<usize> {
    let max = *buckets.iter().max()?;
    if max == 0 {
        return None;
    }
    // Median decade: smallest index whose cumulative count reaches half
    // the samples.
    let half = buckets.iter().sum::<u64>().div_ceil(2);
    let mut cum = 0u64;
    let median = buckets.iter().position(|&c| {
        cum += c;
        cum >= half
    })?;
    (0..buckets.len())
        .filter(|&i| buckets[i] == max)
        .min_by_key(|&i| (i.abs_diff(median), i))
}

impl TaskSizeHistogram {
    /// Builds the histogram from every `TASK` event in the team's logs
    /// (recorded through a [`TaskLane`], the one recorder).
    pub fn from_logs(logs: &[PerfLog]) -> Self {
        let lane = TaskLane::default();
        let tasks = logs.iter().flat_map(PerfLog::events);
        for e in tasks.filter(|e| e.kind == EventKind::Task) {
            lane.record(e.duration());
        }
        lane.snapshot()
    }

    /// Mean task size in ticks (0 when empty).
    pub fn mean(&self) -> u64 {
        self.total_ticks.checked_div(self.count).unwrap_or(0)
    }

    /// The window between an `earlier` cumulative snapshot and this one:
    /// bucket counts, task count and tick totals are differenced
    /// (saturating — swapped arguments yield an empty window instead of
    /// nonsense). `min_ticks`/`max_ticks` are not diffable and are
    /// reported as the cumulative values.
    pub fn window_since(&self, earlier: &TaskSizeHistogram) -> TaskSizeHistogram {
        let mut w = TaskSizeHistogram {
            count: self.count.saturating_sub(earlier.count),
            total_ticks: self.total_ticks.saturating_sub(earlier.total_ticks),
            min_ticks: self.min_ticks,
            max_ticks: self.max_ticks,
            ..Default::default()
        };
        for (dst, (now, was)) in w
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *dst = now.saturating_sub(*was);
        }
        w
    }

    /// Index of the decade holding the most tasks — the paper's "highest
    /// proportion around 10^k cycles" — or `None` when the histogram is
    /// empty ([`modal_index`] over the buckets: argmax, median
    /// tie-break).
    pub fn modal_decade_index(&self) -> Option<usize> {
        modal_index(&self.buckets)
    }

    /// A representative per-task cycle count for guideline
    /// classification: the *modal decade* of the distribution (argmax
    /// bucket, median tie-break), positioned within the decade by the
    /// histogram's mean when the mean falls inside it and clamped to the
    /// decade's bounds otherwise. Unlike the raw mean, this cannot be
    /// dragged across a class boundary by a minority of outliers — a
    /// bimodal window (many tiny tasks, a few huge ones) classifies by
    /// what *most* tasks look like. `None` when empty.
    pub fn modal_cycles(&self) -> Option<u64> {
        let i = self.modal_decade_index()?;
        let lo = if i == 0 { 0 } else { 10u64.pow(i as u32) };
        let hi = 10u64.pow(i as u32 + 1) - 1;
        Some(self.mean().clamp(lo, hi))
    }

    /// Renders an ASCII distribution, one row per decade.
    pub fn render(&self) -> String {
        let max = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "tasks={} mean={} min={} max={} ticks\n",
            self.count,
            self.mean(),
            self.min_ticks,
            self.max_ticks
        ));
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bar = (c as u128 * 40 / max as u128) as usize;
            out.push_str(&format!(
                "10^{i}..10^{}: {:<40} {}\n",
                i + 1,
                "#".repeat(bar.max(1)),
                c
            ));
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &TaskSizeHistogram) {
        if other.count > 0 {
            self.min_ticks = if self.count == 0 {
                other.min_ticks
            } else {
                self.min_ticks.min(other.min_ticks)
            };
            self.max_ticks = self.max_ticks.max(other.max_ticks);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_ticks += other.total_ticks;
    }
}

/// The one live histogram recorder: `N` bucket counts plus the sum,
/// minimum and maximum of the recorded values, readable from any thread.
///
/// **Single writer.** One thread records into a cell at a time (one cell
/// per worker, a [`Cells`](xgomp_xqueue::Cells) seat), so every update
/// is a relaxed load + store, never an RMW; readers merge cells and get
/// a statistically faithful view, like the paper's §V counters. The
/// caller picks the bucket: decades for task sizes ([`TaskLane`]), fixed
/// `le` edges for the task server's latency histograms.
///
/// There is no count cell: the count is the sum of the buckets, read in
/// the same pass, so a reader racing a record never sees a count that
/// disagrees with the buckets (no finite bucket above `+Inf`).
#[derive(Debug)]
pub struct HistCell<const N: usize> {
    buckets: [AtomicU64; N],
    sum: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    max: AtomicU64,
}

impl<const N: usize> Default for HistCell<N> {
    fn default() -> Self {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl<const N: usize> HistCell<N> {
    /// Records one `value` into `bucket`. The extremes are stored
    /// before the bucket that makes them count.
    #[inline]
    pub fn record_at(&self, bucket: usize, value: u64) {
        if value < self.min.load(Ordering::Relaxed) {
            self.min.store(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.store(value, Ordering::Relaxed);
        }
        bump(&self.sum, value);
        bump(&self.buckets[bucket], 1);
    }

    /// Bucket counts.
    pub fn buckets(&self) -> [u64; N] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Sum of the recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// A decade [`HistCell`] of task durations in ticks: the recorder
/// behind [`TaskSizeHistogram`].
pub type TaskLane = HistCell<9>;

impl TaskLane {
    /// Records one task of `ticks` duration.
    #[inline]
    pub fn record(&self, ticks: u64) {
        self.record_at(decade_index(ticks), ticks);
    }

    /// The lane as a plain histogram (an empty lane reports minimum 0).
    pub fn snapshot(&self) -> TaskSizeHistogram {
        let (buckets, min) = (self.buckets(), self.min.load(Ordering::Relaxed));
        TaskSizeHistogram {
            buckets,
            count: buckets.iter().sum(),
            total_ticks: self.sum(),
            min_ticks: if min == u64::MAX { 0 } else { min },
            max_ticks: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `samples` recorded through one lane.
    fn recorded(samples: impl IntoIterator<Item = u64>) -> TaskSizeHistogram {
        let lane = TaskLane::default();
        samples.into_iter().for_each(|t| lane.record(t));
        lane.snapshot()
    }

    #[test]
    fn buckets_by_decade() {
        let h = recorded([3u64, 12, 99, 100, 5_000, 123_456]);
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets[0], 1); // 3
        assert_eq!(h.buckets[1], 2); // 12, 99
        assert_eq!(h.buckets[2], 1); // 100
        assert_eq!(h.buckets[3], 1); // 5000
        assert_eq!(h.buckets[5], 1); // 123456
        assert_eq!(h.min_ticks, 3);
        assert_eq!(h.max_ticks, 123_456);
    }

    #[test]
    fn modal_decade_and_mean() {
        // Ten in decade 10^3, one below.
        let h = recorded(std::iter::repeat_n(2_000, 10).chain([50]));
        assert_eq!(h.modal_decade_index(), Some(3));
        assert_eq!(h.mean(), (10 * 2_000 + 50) / 11);
    }

    #[test]
    fn from_logs_selects_only_task_events() {
        let mut log = PerfLog::new(0, true);
        log.push_span(EventKind::Task, 0, 150);
        log.push_span(EventKind::TaskCreate, 0, 9_999); // ignored
        log.push_span(EventKind::Task, 1_000, 1_020);
        let h = TaskSizeHistogram::from_logs(&[log]);
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets[2], 1); // 150
        assert_eq!(h.buckets[1], 1); // 20
    }

    #[test]
    fn merge_accumulates() {
        let mut a = recorded([10]);
        a.merge(&recorded([100_000]));
        assert_eq!(a.count, 2);
        assert_eq!(a.min_ticks, 10);
        assert_eq!(a.max_ticks, 100_000);
        // Merging into (or from) an empty histogram keeps the true
        // minimum: `Default` has no minimum yet, not a minimum of 0.
        let mut fresh = TaskSizeHistogram::default();
        fresh.merge(&a);
        assert_eq!(fresh, a);
        fresh.merge(&TaskSizeHistogram::default());
        assert_eq!(fresh.min_ticks, 10);
    }

    #[test]
    fn render_is_humane() {
        let s = recorded([500; 5]).render();
        assert!(s.contains("tasks=5"));
        assert!(s.contains("10^2..10^3"));
    }

    #[test]
    fn window_since_diffs_buckets_and_totals() {
        let early = recorded([50, 5_000]);
        let late = recorded([50, 5_000, 50, 50, 700]);
        let w = late.window_since(&early);
        assert_eq!(w.count, 3);
        assert_eq!(w.buckets[1], 2); // the two new 50s
        assert_eq!(w.buckets[2], 1); // 700
        assert_eq!(w.buckets[3], 0, "pre-window 5000 excluded");
        assert_eq!(w.total_ticks, 50 + 50 + 700);
        // Swapped arguments (counts go backwards) yield an empty window.
        assert_eq!(early.window_since(&late).count, 0);
    }

    #[test]
    fn modal_decade_index_argmax_and_median_tie_break() {
        let mut h = TaskSizeHistogram::default();
        assert_eq!(h.modal_decade_index(), None, "empty has no mode");
        h.buckets = [0, 6, 0, 2, 0, 0, 0, 0, 0];
        h.count = 8;
        assert_eq!(h.modal_decade_index(), Some(1));
        // Tie between decades 1 and 6; the median sample sits in decade
        // 1's half of the distribution, so the tie breaks low.
        h.buckets = [0, 5, 1, 0, 0, 0, 5, 0, 0];
        h.count = 11;
        assert_eq!(h.modal_decade_index(), Some(1));
        // Mass shifted high: median now lives in decade 6.
        h.buckets = [0, 5, 0, 0, 0, 1, 5, 0, 0];
        h.count = 11;
        assert_eq!(h.modal_decade_index(), Some(6));
    }

    #[test]
    fn modal_cycles_resists_bimodal_outliers() {
        // 1000 tasks of ~50 cycles + 100 tasks of ~5M cycles: the mean
        // (~455k) says "huge tasks", the modal decade says what most
        // tasks are — tiny — and clamps the representative into it.
        let h = recorded(std::iter::repeat_n(50, 1_000).chain(std::iter::repeat_n(5_000_000, 100)));
        assert!(h.mean() > 100_000, "mean is outlier-dragged");
        assert_eq!(h.modal_decade_index(), Some(1));
        let rep = h.modal_cycles().unwrap();
        assert!(
            (10..100).contains(&rep),
            "representative in 10..100, got {rep}"
        );
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = TaskSizeHistogram::from_logs(&[]);
        assert_eq!(h.count, 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min_ticks, 0);
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
