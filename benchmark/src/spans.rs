//! Benchmark-side spans: one record per call into a layer's public API,
//! kept in memory during the traced pass and written out at exit.
//!
//! Stamps are `xgomp_core::clock` ticks (the same clock `JobReport` and
//! the flight recorder use), so spans taken on the client thread and
//! stamps a job body returns line up on one axis.

use std::io::{self, BufWriter, Write};
use std::path::Path;

use xgomp_core::clock;

use crate::common::ticks_to_us;
use crate::stats;

/// Index of a span inside its [`SpanLog`].
pub type SpanId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// The span that caused this one (`None` for a request's root).
    pub parent: Option<SpanId>,
    /// Shared by every span of one request.
    pub request: u64,
}

impl Span {
    pub fn ticks(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a finished span and returns its id (for children to name
    /// as their parent).
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ticks_to_us(s.ticks()))
            .collect()
    }

    /// Self time in ticks of every span, by span id: its duration minus
    /// the part of it its direct children cover.
    pub fn self_ticks_by_id(&self) -> Vec<u64> {
        // (parent, start, end) of every child, sorted so that each
        // parent's children form one run ordered by start.
        let mut kids: Vec<(SpanId, u64, u64)> = self
            .spans
            .iter()
            .filter_map(|s| Some((s.parent?, s.start, s.end)))
            .collect();
        kids.sort_unstable();
        let mut own: Vec<u64> = self.spans.iter().map(Span::ticks).collect();
        for run in kids.chunk_by(|a, b| a.0 == b.0) {
            let parent = &self.spans[run[0].0 as usize];
            let intervals = run.iter().map(|&(_, s, e)| (s, e));
            own[run[0].0 as usize] = self_ticks(parent.start, parent.end, intervals);
        }
        own
    }

    /// Per span name, in order of first appearance: how many there are,
    /// their median duration and their median self time, in microseconds.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_ticks_by_id();
        let mut by_name: Vec<(&'static str, Vec<f64>, Vec<f64>)> = Vec::new();
        for (s, own) in self.spans.iter().zip(own) {
            let at = by_name
                .iter()
                .position(|(n, _, _)| *n == s.name)
                .unwrap_or_else(|| {
                    by_name.push((s.name, Vec::new(), Vec::new()));
                    by_name.len() - 1
                });
            by_name[at].1.push(ticks_to_us(s.ticks()));
            by_name[at].2.push(ticks_to_us(own));
        }
        by_name
            .into_iter()
            .map(|(n, d, o)| (n, d.len(), stats::median(&d), stats::median(&o)))
            .collect()
    }

    /// Writes the first `max_requests` requests' spans as JSON lines
    /// (ticks plus the tick rate, so a reader can convert).
    pub fn write_jsonl(&self, path: &Path, max_requests: u64) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"ticks_per_us\":{},\"spans_total\":{}}}",
            clock::cycles_per_ns() * 1e3,
            self.spans.len()
        )?;
        let mut written = 0;
        for (id, s) in self.spans.iter().enumerate() {
            if s.request >= max_requests {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
            written += 1;
        }
        out.flush()?;
        Ok(written)
    }
}

/// Ticks of `[start, end)` not covered by any of `children`, which come
/// ordered by start (clipped to the parent; overlapping children count
/// once).
pub fn self_ticks(start: u64, end: u64, children: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut covered = 0;
    let mut cursor = start;
    for (cs, ce) in children {
        let cs = cs.max(cursor);
        let ce = ce.min(end);
        if ce > cs {
            covered += ce - cs;
            cursor = ce;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uncovered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
        self_ticks(start, end, children.iter().copied())
    }

    #[test]
    fn self_time_of_adjacent_children_is_the_gaps() {
        // [0,100) with children [10,30) and [30,60): gaps 10 + 40.
        assert_eq!(uncovered(0, 100, &[(10, 30), (30, 60)]), 50);
        // Children that tile the parent leave nothing.
        assert_eq!(uncovered(0, 100, &[(0, 50), (50, 100)]), 0);
        // No children: all of it.
        assert_eq!(uncovered(5, 25, &[]), 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        assert_eq!(uncovered(0, 100, &[(10, 50), (40, 70)]), 40);
        assert_eq!(uncovered(10, 100, &[(0, 20), (90, 200)]), 70);
        assert_eq!(uncovered(10, 20, &[(0, 100)]), 0);
    }

    #[test]
    fn nested_spans_subtract_direct_children_only() {
        let mut log = SpanLog::default();
        let job = log.push("job", 0, 1000, None, 7);
        let run = log.push("run", 200, 800, Some(job), 7);
        log.push("inner", 300, 500, Some(run), 7);
        // Pushed out of start order, and after a grandchild.
        log.push("submit_call", 0, 100, Some(job), 7);
        // job: 1000 − (600 + 100); the grandchild does not count twice.
        assert_eq!(log.self_ticks_by_id(), vec![300, 400, 200, 100]);
        let names: Vec<_> = log.summary().iter().map(|r| (r.0, r.1)).collect();
        assert_eq!(
            names,
            vec![("job", 1), ("run", 1), ("inner", 1), ("submit_call", 1)]
        );
        let run_us = log.durations_us("run")[0];
        assert!((run_us - ticks_to_us(600)).abs() < 1e-9);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn jsonl_caps_by_request_and_keeps_parents() {
        let mut log = SpanLog::default();
        for r in 0..4 {
            let root = log.push("job", r * 10, r * 10 + 9, None, r);
            log.push("run", r * 10 + 1, r * 10 + 5, Some(root), r);
        }
        let dir = crate::out_dir().join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("spans-test.jsonl");
        assert_eq!(log.write_jsonl(&path, 2).unwrap(), 4);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(
            text.contains("\"name\":\"run\",\"start\":11,\"end\":15,\"parent\":2,\"request\":1")
        );
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":null"));
    }
}
