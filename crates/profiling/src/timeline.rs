//! Fig. 3 renderers: per-thread timeline summary (ASCII Gantt), state
//! summaries, and the task-count summary.

use crate::counters::StatsSnapshot;
use crate::events::{EventKind, PerfLog};

/// Aggregated per-worker state times (the stacked bars on the left of
/// Fig. 3).
#[derive(Debug, Clone)]
pub struct StateSummaryRow {
    /// Worker id.
    pub worker: usize,
    /// Ticks per event kind, indexed by `EventKind as usize`.
    pub ticks: [u64; 5],
}

impl StateSummaryRow {
    /// Ticks spent doing useful work (the paper's "utilized time": task
    /// execution + task creation).
    pub fn utilized(&self) -> u64 {
        self.ticks[EventKind::Task as usize] + self.ticks[EventKind::TaskCreate as usize]
    }

    /// Total recorded ticks.
    pub fn total(&self) -> u64 {
        self.ticks.iter().sum()
    }
}

/// Computes per-worker state totals from the team's logs.
pub fn state_summary(logs: &[PerfLog]) -> Vec<StateSummaryRow> {
    logs.iter()
        .map(|log| StateSummaryRow {
            worker: log.worker(),
            ticks: log.totals(),
        })
        .collect()
}

/// Renders the Fig. 3 "Timeline Summary": one row per worker, the wall
/// time divided into `width` columns, each column showing the event class
/// that dominated it (`T` task, `C` creation, `w` taskwait, `B` barrier,
/// `.` stall, space = unrecorded).
pub fn render_timeline(logs: &[PerfLog], width: usize) -> String {
    let width = width.max(10);
    let (t_min, t_max) = match global_time_range(logs) {
        Some(r) => r,
        None => return String::from("(no events recorded)\n"),
    };
    let span = (t_max - t_min).max(1);
    let mut out = String::new();
    out.push_str(&format!(
        "Timeline Summary  [T]=TASK [C]=GOMP_TASK [w]=TASKWAIT [B]=BARRIER [.]=STALL  span={:.3}s\n",
        crate::clock::ticks_to_secs(span)
    ));
    for log in logs {
        // Per-column tick totals per kind.
        let mut cols = vec![[0u64; 5]; width];
        for e in log.events() {
            let s = e.start.max(t_min);
            let t = e.end.min(t_max).max(s);
            let c0 = ((s - t_min) as u128 * width as u128 / span as u128) as usize;
            let c1 = ((t - t_min) as u128 * width as u128 / span as u128) as usize;
            let c1 = c1.min(width - 1);
            if c0 == c1 {
                cols[c0][e.kind as usize] += e.duration();
            } else {
                // Spread proportionally across covered columns.
                let per = e.duration() / ((c1 - c0 + 1) as u64);
                for col in cols.iter_mut().take(c1 + 1).skip(c0) {
                    col[e.kind as usize] += per;
                }
            }
        }
        out.push_str(&format!("t{:<4}|", log.worker()));
        for col in &cols {
            let (best_kind, best_ticks) = col
                .iter()
                .enumerate()
                .max_by_key(|(_, &t)| t)
                .map(|(k, &t)| (k, t))
                .unwrap();
            if best_ticks == 0 {
                out.push(' ');
            } else {
                out.push(EventKind::ALL[best_kind].glyph().unwrap_or('?'));
            }
        }
        out.push_str("|\n");
    }
    out
}

fn global_time_range(logs: &[PerfLog]) -> Option<(u64, u64)> {
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    for log in logs {
        for e in log.events() {
            t_min = t_min.min(e.start);
            t_max = t_max.max(e.end);
        }
    }
    if t_min == u64::MAX {
        None
    } else {
        Some((t_min, t_max))
    }
}

/// Renders the Fig. 3 "Task Count Summary": per-worker bars of tasks
/// created (`#`) and executed (`=`), with max/min annotations.
pub fn render_task_counts(stats: &[StatsSnapshot]) -> String {
    let total: u64 = stats.iter().map(|s| s.tasks_created).sum();
    let max_any = stats
        .iter()
        .map(|s| s.tasks_created.max(s.tasks_executed))
        .max()
        .unwrap_or(0)
        .max(1);
    let bar_width = 40usize;
    let mut out = String::new();
    out.push_str(&format!(
        "Task Count Summary (tasks={total})  [#]=created [=]=executed\n"
    ));
    for (w, s) in stats.iter().enumerate() {
        let c = (s.tasks_created as u128 * bar_width as u128 / max_any as u128) as usize;
        let e = (s.tasks_executed as u128 * bar_width as u128 / max_any as u128) as usize;
        out.push_str(&format!(
            "t{:<4}|{:<width$}| {:>10}\n     |{:<width$}| {:>10}\n",
            w,
            "#".repeat(c),
            s.tasks_created,
            "=".repeat(e),
            s.tasks_executed,
            width = bar_width
        ));
    }
    let created_max = stats.iter().map(|s| s.tasks_created).max().unwrap_or(0);
    let created_min = stats.iter().map(|s| s.tasks_created).min().unwrap_or(0);
    let exec_max = stats.iter().map(|s| s.tasks_executed).max().unwrap_or(0);
    let exec_min = stats.iter().map(|s| s.tasks_executed).min().unwrap_or(0);
    out.push_str(&format!(
        "created max/min = {created_max}/{created_min}   executed max/min = {exec_max}/{exec_min}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::PerfLog;

    fn synthetic_logs() -> Vec<PerfLog> {
        let mut a = PerfLog::new(0, true);
        a.push_span(EventKind::TaskCreate, 0, 100);
        a.push_span(EventKind::Task, 100, 500);
        a.push_span(EventKind::Barrier, 500, 600);
        let mut b = PerfLog::new(1, true);
        b.push_span(EventKind::Stall, 0, 450);
        b.push_span(EventKind::Task, 450, 600);
        vec![a, b]
    }

    #[test]
    fn state_summary_totals() {
        let rows = state_summary(&synthetic_logs());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].ticks[EventKind::Task as usize], 400);
        assert_eq!(rows[0].utilized(), 500);
        assert_eq!(rows[1].ticks[EventKind::Stall as usize], 450);
        assert_eq!(rows[1].utilized(), 150);
    }

    #[test]
    fn timeline_shows_dominant_states() {
        let s = render_timeline(&synthetic_logs(), 60);
        // Worker 0's row should be mostly 'T'; worker 1 mostly '.'.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].matches('T').count() > lines[1].matches('.').count());
        assert!(lines[2].matches('.').count() > lines[2].matches('T').count());
    }

    #[test]
    fn empty_logs_render_gracefully() {
        let s = render_timeline(&[PerfLog::new(0, true)], 40);
        assert!(s.contains("no events"));
    }

    #[test]
    fn task_count_bars_scale() {
        let a = StatsSnapshot {
            tasks_created: 100,
            tasks_executed: 50,
            ..Default::default()
        };
        let b = StatsSnapshot {
            tasks_created: 10,
            tasks_executed: 160,
            ..Default::default()
        };
        let s = render_task_counts(&[a, b]);
        assert!(s.contains("tasks=110"));
        assert!(s.contains("max/min = 100/10"));
        assert!(s.contains("160/50"));
    }
}
