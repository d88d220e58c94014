//! Log-scale task-size histograms (§VI-A: "We use our profiling tools
//! to measure task size (in rdtscp cycles) and order applications based
//! on their task size").
//!
//! The paper characterizes each BOTS application by the distribution of
//! per-task cycles (Fib 10–80, FFT mostly 10³–10⁴, Align ~10⁶, …) and
//! keys the Table IV guidelines on it. [`TaskSizeHistogram`] builds
//! that distribution from recorded `TASK` events.

use serde::{Deserialize, Serialize};

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
    /// histogram has no minimum yet and reports 0).
    pub min_ticks: u64,
    /// Largest observed task.
    pub max_ticks: u64,
}

/// Decade bucket index for a duration in ticks: 0 for `<10`, otherwise
/// `⌊log10⌋` capped at 8 (shared by [`TaskSizeHistogram`] and the live
/// sampler).
#[inline]
pub fn decade_index(ticks: u64) -> usize {
    if ticks < 10 {
        0
    } else {
        (ticks.ilog10() as usize).min(8)
    }
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
    /// Builds the histogram from every `TASK` event in the team's logs.
    pub fn from_logs(logs: &[PerfLog]) -> Self {
        let mut h = TaskSizeHistogram::default();
        for log in logs {
            for e in log.events() {
                if e.kind == EventKind::Task {
                    h.record(e.duration());
                }
            }
        }
        h
    }

    /// Records one task of `ticks` duration.
    #[inline]
    pub fn record(&mut self, ticks: u64) {
        // `count == 0` means "no minimum yet", which is what makes
        // `Default` a correct empty histogram.
        self.min_ticks = if self.count == 0 {
            ticks
        } else {
            self.min_ticks.min(ticks)
        };
        self.max_ticks = self.max_ticks.max(ticks);
        self.buckets[decade_index(ticks)] += 1;
        self.count += 1;
        self.total_ticks += ticks;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_decade() {
        let mut h = TaskSizeHistogram::default();
        for t in [3u64, 12, 99, 100, 5_000, 123_456] {
            h.record(t);
        }
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
        let mut h = TaskSizeHistogram::default();
        for _ in 0..10 {
            h.record(2_000); // decade 10^3
        }
        h.record(50);
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
        let mut a = TaskSizeHistogram::default();
        a.record(10);
        let mut b = TaskSizeHistogram::default();
        b.record(100_000);
        a.merge(&b);
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
        let mut h = TaskSizeHistogram::default();
        for _ in 0..5 {
            h.record(500);
        }
        let s = h.render();
        assert!(s.contains("tasks=5"));
        assert!(s.contains("10^2..10^3"));
    }

    #[test]
    fn window_since_diffs_buckets_and_totals() {
        let mut early = TaskSizeHistogram::default();
        early.record(50);
        early.record(5_000);
        let mut late = early.clone();
        late.record(50);
        late.record(50);
        late.record(700);
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
        let mut h = TaskSizeHistogram::default();
        for _ in 0..1_000 {
            h.record(50);
        }
        for _ in 0..100 {
            h.record(5_000_000);
        }
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
}
