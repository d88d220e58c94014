//! Flight-recorder tracing: per-worker event rings, Chrome-trace /
//! Perfetto export, and Prometheus text-exposition helpers.
//!
//! The §V [`PerfLog`](crate::PerfLog) answers "where did the cycles
//! go" per worker, in aggregate. This module answers *when*: every
//! worker owns a bounded, overwrite-oldest
//! [`EventRing`] into which instrumented
//! runtime sites emit fixed-size binary records (park/wake, steals,
//! balancer migrations, job lifecycle spans). A [`Tracer`] owns the
//! rings across team generations, gates every site behind a
//! [`TraceLevel`] held in one atomic byte — `Off` costs a single
//! relaxed load and branch per site — and drains them into a
//! [`TraceSnapshot`] whose [`to_chrome_json`](TraceSnapshot::to_chrome_json)
//! export opens directly in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): one track per worker, async
//! spans per job.
//!
//! The rings are *flight recorders*: emission never blocks on a slow
//! (or absent) reader, the newest ~capacity records are always
//! retained, and everything older is drop-counted — so a panic dump
//! shows the milliseconds leading up to the panic, which is exactly
//! the window that matters.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use xgomp_xqueue::{EventRing, RingCursor};

use crate::clock;
use crate::events::EventKind;

/// How much the runtime records, per instrumentation site.
///
/// Levels are ordered: a site gated at `Lifecycle` also fires at
/// `Full`. The level lives in one atomic byte inside the [`Tracer`]
/// and can be flipped live.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[repr(u8)]
pub enum TraceLevel {
    /// No recording. Every site costs one relaxed load plus a branch.
    #[default]
    Off = 0,
    /// Coarse events only: park/wake, job spans, generation
    /// boundaries, retunes, balancer migrations — O(events) ≪
    /// O(tasks), safe to leave on in production.
    Lifecycle = 1,
    /// Everything: per-task run spans, steal batches, per-chunk loop
    /// claims and range steals. For short diagnostic windows.
    Full = 2,
}

impl TraceLevel {
    /// Parses `"off"` / `"lifecycle"` / `"full"` (or `0`/`1`/`2`),
    /// case-insensitive.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(TraceLevel::Off),
            "lifecycle" | "1" => Some(TraceLevel::Lifecycle),
            "full" | "2" => Some(TraceLevel::Full),
            _ => None,
        }
    }

    /// Reads `XGOMP_TRACE` (unset or unparseable ⇒ `Off`).
    pub fn from_env() -> TraceLevel {
        std::env::var("XGOMP_TRACE")
            .ok()
            .and_then(|v| TraceLevel::parse(&v))
            .unwrap_or(TraceLevel::Off)
    }

    /// Lower-case stable name (`off`/`lifecycle`/`full`).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Lifecycle => "lifecycle",
            TraceLevel::Full => "full",
        }
    }
}

struct RingState {
    ring: Arc<EventRing>,
    cursor: RingCursor,
}

/// Owner of the per-worker flight-recorder rings.
///
/// A `Tracer` outlives any one team generation: the task server keeps
/// one for its whole life, so rings (and their retained windows)
/// survive `pause()`/`resume_with()` reshaping — a resize simply grows
/// the ring list. Workers cache their ring `Arc` at generation start
/// and emit with zero shared state; draining
/// ([`snapshot`](Self::snapshot)) happens under one mutex, off every hot path.
pub struct Tracer {
    level: AtomicU8,
    ring_capacity: usize,
    rings: Mutex<Vec<RingState>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("level", &self.level())
            .field("rings", &self.rings.lock().unwrap().len())
            .finish()
    }
}

impl Tracer {
    /// A tracer at `level` with default ring capacity.
    pub fn new(level: TraceLevel) -> Self {
        Tracer::with_capacity(level, xgomp_xqueue::DEFAULT_EVENT_CAPACITY)
    }

    /// A tracer at `level` whose rings hold `ring_capacity` records
    /// each (rounded up to a power of two).
    pub fn with_capacity(level: TraceLevel, ring_capacity: usize) -> Self {
        Tracer {
            level: AtomicU8::new(level as u8),
            ring_capacity,
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Current level (relaxed — the only consistency an instrumentation
    /// site needs is "eventually sees a flip").
    #[inline]
    pub fn level(&self) -> TraceLevel {
        match self.level.load(Ordering::Relaxed) {
            0 => TraceLevel::Off,
            1 => TraceLevel::Lifecycle,
            _ => TraceLevel::Full,
        }
    }

    /// Flips the level live. Takes effect at each site's next relaxed
    /// load; no synchronization with in-flight emits.
    pub fn set_level(&self, level: TraceLevel) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// The Off-cost gate: one relaxed load plus a compare.
    #[inline]
    pub fn enabled(&self, min: TraceLevel) -> bool {
        self.level.load(Ordering::Relaxed) >= min as u8
    }

    /// Worker `w`'s ring, created on first request. Workers call this
    /// once per generation and cache the `Arc`; the ring — and its
    /// retained record window — persists across generations.
    pub fn ring(&self, worker: usize) -> Arc<EventRing> {
        let mut rings = self.rings.lock().unwrap();
        while rings.len() <= worker {
            rings.push(RingState {
                ring: Arc::new(EventRing::with_capacity(self.ring_capacity)),
                cursor: RingCursor::new(),
            });
        }
        rings[worker].ring.clone()
    }

    /// Number of rings materialized so far.
    pub fn n_rings(&self) -> usize {
        self.rings.lock().unwrap().len()
    }

    /// Clones of every materialized ring `Arc`, in worker order. An
    /// external reader (the streaming drain collector) keeps its *own*
    /// [`RingCursor`] per ring and drains
    /// through these handles without holding the tracer's lock during
    /// I/O — independent cursors each see the retained window, so the
    /// stream and [`snapshot`](Self::snapshot) never steal each other's
    /// events.
    pub fn ring_handles(&self) -> Vec<Arc<EventRing>> {
        self.rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.ring.clone())
            .collect()
    }

    /// Emits one record into `worker`'s ring from *outside* that
    /// worker's thread, stamped with [`clock::now`]. Only safe while
    /// the worker is not running (the rings are SPSC) — used for
    /// generation open/close markers between team regions.
    pub fn emit_meta(&self, worker: usize, kind: EventKind, a: u32, b: u64, c: u64) {
        if !self.enabled(TraceLevel::Lifecycle) {
            return;
        }
        let ring = self.ring(worker);
        ring.emit(clock::now(), kind as u8, a, b, c);
    }

    /// Total records emitted across all rings.
    pub fn emitted(&self) -> u64 {
        self.rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.ring.emitted())
            .sum()
    }

    /// Total records lost to flight-recorder overwrite, as accounted
    /// by drains so far.
    pub fn dropped(&self) -> u64 {
        self.rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.ring.dropped())
            .sum()
    }

    /// Drains every ring (advancing the tracer's cursors) into a
    /// time-sorted snapshot. Two consecutive snapshots partition the
    /// event stream: each record lands in exactly one snapshot (or in
    /// the drop count, if the recorder lapped the reader).
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut events = Vec::new();
        let mut dropped = 0;
        {
            let mut rings = self.rings.lock().unwrap();
            for (w, state) in rings.iter_mut().enumerate() {
                state.ring.drain(&mut state.cursor, &mut |raw| {
                    if let Some(kind) = EventKind::from_u8(raw.kind) {
                        events.push(TraceEvent {
                            worker: w as u32,
                            ts: raw.ts,
                            kind,
                            a: raw.a,
                            b: raw.b,
                            c: raw.c,
                        });
                    }
                });
                dropped += state.cursor.dropped();
            }
        }
        events.sort_by_key(|e| e.ts);
        TraceSnapshot {
            events,
            dropped,
            cycles_per_ns: clock::cycles_per_ns(),
        }
    }
}

/// One decoded trace record (see [`EventKind`] for payload meanings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The worker whose ring recorded the event.
    pub worker: u32,
    /// Timestamp ([`clock::now`] ticks).
    pub ts: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Payload word `a` (small operand).
    pub a: u32,
    /// Payload word `b` (job id, range lo, batch size…).
    pub b: u64,
    /// Payload word `c` (paired timestamp, range hi…).
    pub c: u64,
}

impl TraceEvent {
    /// Whether payload `c` carries a paired start timestamp (the event
    /// closes a span `[c, ts]`).
    fn c_is_timestamp(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Task | EventKind::JobStart | EventKind::JobEnd
        )
    }
}

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
                let c = e.c_is_timestamp().then_some(e.c);
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
                    None => push(
                        &mut out,
                        format!(
                            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{w},\
                             \"name\":\"{name}\",\"ts\":{:.3}}}",
                            us(e.ts)
                        ),
                    ),
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
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{w},\
                         \"name\":\"PARK\",\"ts\":{:.3}}}",
                        us(*p0)
                    ),
                );
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

/// Incremental builder of a Prometheus text-format exposition
/// (`# HELP` / `# TYPE` headers plus sample lines). Purely textual —
/// callers bring their own counter values, so the exposition works on
/// any snapshot without a live registry.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> Self {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, typ: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {typ}");
    }

    /// One unlabeled counter metric (header + sample).
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One unlabeled gauge metric (header + sample).
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One metric with a labeled sample per entry. `label` is the
    /// label key; entries are `(label value, sample)`.
    pub fn counter_vec(&mut self, name: &str, help: &str, label: &str, entries: &[(&str, u64)]) {
        self.header(name, help, "counter");
        for (lv, v) in entries {
            let _ = writeln!(self.out, "{name}{{{label}=\"{lv}\"}} {v}");
        }
    }

    /// One fixed-bucket histogram series under a single label pair.
    /// `buckets` are the upper bounds (in ascending order) matching
    /// `counts`, which hold *cumulative* observation counts per bucket
    /// (`counts[i]` = observations ≤ `buckets[i]`); a `+Inf` bucket,
    /// `_sum` and `_count` lines complete the series. Emit the
    /// `# HELP`/`# TYPE` header once via
    /// [`histogram_header`](Self::histogram_header) before the first labeled series.
    #[allow(clippy::too_many_arguments)]
    pub fn histogram_series(
        &mut self,
        name: &str,
        label: &str,
        label_value: &str,
        buckets: &[f64],
        counts: &[u64],
        sum: f64,
        count: u64,
    ) {
        debug_assert_eq!(buckets.len(), counts.len());
        for (le, c) in buckets.iter().zip(counts) {
            let _ = writeln!(
                self.out,
                "{name}_bucket{{{label}=\"{label_value}\",le=\"{le}\"}} {c}"
            );
        }
        let _ = writeln!(
            self.out,
            "{name}_bucket{{{label}=\"{label_value}\",le=\"+Inf\"}} {count}"
        );
        let _ = writeln!(self.out, "{name}_sum{{{label}=\"{label_value}\"}} {sum}");
        let _ = writeln!(
            self.out,
            "{name}_count{{{label}=\"{label_value}\"}} {count}"
        );
    }

    /// The `# HELP`/`# TYPE histogram` header for a histogram metric
    /// (once per metric name, before its labeled series).
    pub fn histogram_header(&mut self, name: &str, help: &str) {
        self.header(name, help, "histogram");
    }

    /// The accumulated exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(TraceLevel::Off < TraceLevel::Lifecycle);
        assert!(TraceLevel::Lifecycle < TraceLevel::Full);
        assert_eq!(TraceLevel::parse("FULL"), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("lifecycle"), Some(TraceLevel::Lifecycle));
        assert_eq!(TraceLevel::parse("0"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("nope"), None);
        assert_eq!(TraceLevel::default(), TraceLevel::Off);
    }

    #[test]
    fn tracer_gates_by_level_and_flips_live() {
        let t = Tracer::new(TraceLevel::Off);
        assert!(!t.enabled(TraceLevel::Lifecycle));
        t.set_level(TraceLevel::Lifecycle);
        assert!(t.enabled(TraceLevel::Lifecycle));
        assert!(!t.enabled(TraceLevel::Full));
        t.set_level(TraceLevel::Full);
        assert!(t.enabled(TraceLevel::Full));
        assert_eq!(t.level(), TraceLevel::Full);
    }

    #[test]
    fn snapshot_partitions_the_stream() {
        let t = Tracer::with_capacity(TraceLevel::Full, 64);
        let r0 = t.ring(0);
        let r1 = t.ring(1);
        r0.emit(10, EventKind::Park as u8, 0, 0, 0);
        r1.emit(5, EventKind::Steal as u8, 0, 3, 0);
        let s1 = t.snapshot();
        assert_eq!(s1.events.len(), 2);
        // Sorted by timestamp across rings.
        assert_eq!(s1.events[0].kind, EventKind::Steal);
        assert_eq!(s1.events[0].worker, 1);
        r0.emit(20, EventKind::Wake as u8, 0, 0, 0);
        let s2 = t.snapshot();
        assert_eq!(s2.events.len(), 1, "second snapshot sees only new events");
        assert_eq!(s2.events[0].kind, EventKind::Wake);
    }

    #[test]
    fn chrome_export_pairs_parks_and_emits_job_spans() {
        let t = Tracer::with_capacity(TraceLevel::Full, 64);
        let r = t.ring(0);
        r.emit(1_000, EventKind::Park as u8, 0, 0, 0);
        r.emit(2_000, EventKind::Wake as u8, 0, 0, 0);
        r.emit(3_000, EventKind::JobStart as u8, 0, 42, 2_500);
        r.emit(4_000, EventKind::JobEnd as u8, 0, 42, 3_000);
        r.emit(4_500, EventKind::Rebalance as u8, 1, 0, 0);
        let json = t.snapshot().to_chrome_json();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"parked\""), "park/wake paired");
        assert!(json.contains("\"name\":\"job 42\""));
        assert!(json.contains("\"ph\":\"b\"") && json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"name\":\"REBALANCE\""));
        // Structural sanity: serde_json parses what we hand-build.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        drop(v);
    }

    #[test]
    fn prom_text_shape() {
        let mut p = PromText::new();
        p.counter("xgomp_jobs_submitted_total", "Jobs submitted.", 7);
        p.gauge("xgomp_jobs_in_flight", "Jobs admitted, not completed.", 2);
        p.counter_vec(
            "xgomp_loop_chunks_total",
            "Loop chunks claimed.",
            "schedule",
            &[("static", 1), ("dynamic", 2)],
        );
        let s = p.finish();
        assert!(s.contains("# TYPE xgomp_jobs_submitted_total counter"));
        assert!(s.contains("xgomp_jobs_submitted_total 7"));
        assert!(s.contains("# TYPE xgomp_jobs_in_flight gauge"));
        assert!(s.contains("xgomp_loop_chunks_total{schedule=\"dynamic\"} 2"));
    }

    #[test]
    fn prom_histogram_shape() {
        let mut p = PromText::new();
        p.histogram_header("xgomp_job_run_seconds", "Job run latency.");
        p.histogram_series(
            "xgomp_job_run_seconds",
            "class",
            "normal",
            &[0.001, 0.01],
            &[3, 5],
            0.042,
            6,
        );
        let s = p.finish();
        assert!(s.contains("# TYPE xgomp_job_run_seconds histogram"));
        assert!(s.contains("xgomp_job_run_seconds_bucket{class=\"normal\",le=\"0.001\"} 3"));
        assert!(s.contains("xgomp_job_run_seconds_bucket{class=\"normal\",le=\"+Inf\"} 6"));
        assert!(s.contains("xgomp_job_run_seconds_sum{class=\"normal\"} 0.042"));
        assert!(s.contains("xgomp_job_run_seconds_count{class=\"normal\"} 6"));
    }
}
