//! Chrome-trace / Perfetto export of drained flight-recorder events —
//! of a live [`TraceSnapshot`] (public path:
//! [`trace::TraceSnapshot`](crate::trace::TraceSnapshot)) or of rolled
//! [`stream`](crate::stream) segments (`trace2chrome`, public under
//! `stream::`).

use std::fmt::Write as _;
use std::path::Path;
use std::{fs, io};

use crate::clock;
use crate::events::EventKind;
use crate::stream::{segment_paths, StreamLine};
use crate::trace::TraceEvent;

/// A drained, time-sorted view of every ring.
#[derive(Debug)]
pub struct TraceSnapshot {
    /// All drained records, ascending timestamp.
    pub events: Vec<TraceEvent>,
    /// Cumulative records lost to flight-recorder overwrite.
    pub dropped: u64,
    /// Tick-to-nanosecond calibration at snapshot time.
    pub cycles_per_ns: f64,
}

impl TraceSnapshot {
    /// Highest worker index present, plus one.
    pub fn n_workers(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.worker as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Events of one kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Renders the snapshot as Chrome-trace ("Trace Event Format")
    /// JSON, loadable in `chrome://tracing` and Perfetto.
    ///
    /// * one thread track per worker (`pid` 1, `tid` = worker);
    /// * consecutive Park→Wake pairs become `"parked"` duration
    ///   events; unpaired ends render as instants;
    /// * `Task` and `JobEnd` records (which carry their start in `c`)
    ///   become complete (`ph:"X"`) spans on the worker's track;
    /// * `JobStart`/`JobEnd` additionally open/close an async span
    ///   (`ph:"b"`/`"e"`) per job id, beginning at *submission* time —
    ///   the async track therefore shows queue wait + run per job;
    /// * everything else renders as an instant (`ph:"i"`).
    pub fn to_chrome_json(&self) -> String {
        // Timebase: earliest timestamp mentioned anywhere (including
        // span starts carried in `c`), so every "ts" is a non-negative
        // microsecond offset.
        let base = self
            .events
            .iter()
            .flat_map(|e| {
                let c = e.kind.c_is_span_start().then_some(e.c);
                std::iter::once(e.ts).chain(c)
            })
            .min()
            .unwrap_or(0);
        let per_us = self.cycles_per_ns * 1_000.0;
        let us = |ticks: u64| ticks.saturating_sub(base) as f64 / per_us;

        let mut out = String::with_capacity(64 * self.events.len() + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        let _ = write!(
            out,
            "\"dropped_events\":{},\"cycles_per_ns\":{:.4}",
            self.dropped, self.cycles_per_ns
        );
        out.push_str("},\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&ev);
        };

        // Track naming metadata.
        push(
            &mut out,
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"xgomp\"}}"
                .to_string(),
        );
        for w in 0..self.n_workers() {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{w},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"worker {w}\"}}}}"
                ),
            );
        }

        // An unpaired park or wake: an instant with no payload to show.
        let bare_instant = |w: usize, name: &str, ts: f64| {
            format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{w},\
                 \"name\":\"{name}\",\"ts\":{ts:.3}}}"
            )
        };
        let mut pending_park: Vec<Option<u64>> = vec![None; self.n_workers()];
        for e in &self.events {
            let w = e.worker;
            let name = e.kind.label();
            match e.kind {
                EventKind::Park => {
                    // Held until the matching wake (events are sorted,
                    // and one worker's park/wake strictly alternate).
                    pending_park[w as usize] = Some(e.ts);
                }
                EventKind::Wake => match pending_park[w as usize].take() {
                    Some(p0) => push(
                        &mut out,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{w},\"name\":\"parked\",\
                             \"cat\":\"idle\",\"ts\":{:.3},\"dur\":{:.3}}}",
                            us(p0),
                            us(e.ts) - us(p0)
                        ),
                    ),
                    None => push(&mut out, bare_instant(w as usize, name, us(e.ts))),
                },
                EventKind::Task => push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{w},\"name\":\"task\",\
                         \"cat\":\"task\",\"ts\":{:.3},\"dur\":{:.3}}}",
                        us(e.c),
                        us(e.ts) - us(e.c)
                    ),
                ),
                EventKind::JobStart => push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"b\",\"cat\":\"job\",\"id\":{},\"pid\":1,\"tid\":{w},\
                         \"name\":\"job {}\",\"ts\":{:.3}}}",
                        e.b,
                        e.b,
                        us(e.c)
                    ),
                ),
                EventKind::JobEnd => {
                    push(
                        &mut out,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{w},\"name\":\"job {}\",\
                             \"cat\":\"job\",\"ts\":{:.3},\"dur\":{:.3},\
                             \"args\":{{\"panicked\":{}}}}}",
                            e.b,
                            us(e.c),
                            us(e.ts) - us(e.c),
                            e.a
                        ),
                    );
                    push(
                        &mut out,
                        format!(
                            "{{\"ph\":\"e\",\"cat\":\"job\",\"id\":{},\"pid\":1,\"tid\":{w},\
                             \"name\":\"job {}\",\"ts\":{:.3}}}",
                            e.b,
                            e.b,
                            us(e.ts)
                        ),
                    );
                }
                _ => push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{w},\
                         \"name\":\"{name}\",\"ts\":{:.3},\
                         \"args\":{{\"a\":{},\"b\":{},\"c\":{}}}}}",
                        us(e.ts),
                        e.a,
                        e.b,
                        e.c
                    ),
                ),
            }
        }
        // Workers still parked at snapshot time: render as instants.
        for (w, p) in pending_park.iter().enumerate() {
            if let Some(p0) = p {
                push(&mut out, bare_instant(w, "PARK", us(*p0)));
            }
        }
        out.push_str("]}");
        out
    }

    /// Writes the Chrome-trace JSON to `path`.
    pub fn dump_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_chrome_json())
    }
}

/// `trace2chrome`: converts concatenated stream segments (JSONL text,
/// in rotation order) into one Chrome-trace / Perfetto JSON document.
///
/// Segment headers contribute the tick calibration, `drain` summaries
/// contribute the drop accounting (cumulative — the largest value
/// wins), and every event line becomes a trace event; the result is
/// rendered through [`TraceSnapshot::to_chrome_json`], so rolled
/// segments concatenate into a single loadable stream.
pub fn chrome_json_from_jsonl(text: &str) -> Result<String, serde_json::Error> {
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut dropped = 0u64;
    let mut cycles_per_ns = 0.0f64;
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        match StreamLine::parse(line)? {
            StreamLine::Segment(h) if cycles_per_ns == 0.0 => cycles_per_ns = h.cycles_per_ns,
            StreamLine::Segment(_) => {}
            StreamLine::Drain(d) => dropped = dropped.max(d.dropped),
            StreamLine::Event(e) => events.push(e),
        }
    }
    if cycles_per_ns == 0.0 {
        cycles_per_ns = clock::cycles_per_ns();
    }
    events.sort_by_key(|e| e.ts);
    let snapshot = TraceSnapshot {
        events,
        dropped,
        cycles_per_ns,
    };
    Ok(snapshot.to_chrome_json())
}

/// Reads every `trace-*.jsonl` segment under `dir` in rotation order,
/// concatenates them, and converts the result with
/// [`chrome_json_from_jsonl`].
pub fn chrome_json_from_dir(dir: &Path) -> io::Result<String> {
    let mut text = String::new();
    for seg in &segment_paths(dir, "trace-")? {
        text.push_str(&fs::read_to_string(seg)?);
        if !text.ends_with('\n') {
            text.push('\n');
        }
    }
    chrome_json_from_jsonl(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}
