//! Flight-recorder tracing: the per-worker event rings, their level
//! gate, and the one reader every consumer drains them through.
//!
//! The §V [`PerfLog`](crate::PerfLog) answers "where did the cycles
//! go" per worker, in aggregate. This module answers *when*: every
//! worker owns a bounded, overwrite-oldest
//! [`EventRing`] into which instrumented
//! runtime sites emit fixed-size binary records (park/wake, steals,
//! balancer migrations, job lifecycle spans). A [`Tracer`] owns the
//! rings across team generations, gates every site behind a
//! [`TraceLevel`] held in one atomic byte — `Off` costs a single
//! relaxed load and branch per site. Every consumer reads the rings
//! through a [`RingReader`]: [`Tracer::snapshot`] is the tracer's own
//! reader with a `Vec` sink, yielding a [`TraceSnapshot`] whose
//! [`to_chrome_json`](TraceSnapshot::to_chrome_json) export opens
//! directly in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)
//! (one track per worker, async spans per job); the rolling on-disk
//! [`stream`](crate::stream) is another reader with a line sink.
//!
//! The rings are *flight recorders*: emission never blocks on a slow
//! (or absent) reader, the newest ~capacity records are always
//! retained, and everything older is drop-counted — so a panic dump
//! shows the milliseconds leading up to the panic, which is exactly
//! the window that matters.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use xgomp_xqueue::{Cells, EventRing, RingCursor};

pub use crate::chrome::TraceSnapshot;
use crate::clock;
use crate::events::EventKind;
pub use crate::prom::PromText;

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

/// Owner of the per-worker flight-recorder rings.
///
/// A `Tracer` outlives any one team generation: the task server keeps
/// one for its whole life, so rings (and their retained windows)
/// survive `pause()`/`resume_with()` reshaping — the rings are one
/// [`Cells`] seat per worker, and a resize simply grows them. Each
/// generation claims the rings its workers write, and
/// every worker emits into its own seat with zero shared state;
/// draining happens through [`RingReader`]s, off every hot path.
pub struct Tracer {
    level: AtomicU8,
    /// Every ring that exists, in worker order; readers iterate them
    /// lock-free, so a reader never stops an emitter (or a growing team).
    /// Each team generation [`claim`](Cells::claim)s the rings its
    /// workers emit into (a second claim of a held ring panics); a ring,
    /// and its retained record window, persists across generations.
    pub rings: Arc<Cells<EventRing>>,
    /// The reader behind [`snapshot`](Self::snapshot).
    reader: Mutex<RingReader>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("level", &self.level())
            .field("rings", &self.rings)
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
            rings: Arc::new(Cells::new(move || EventRing::with_capacity(ring_capacity))),
            reader: Mutex::default(),
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

    /// Emits one record into `worker`'s ring from *outside* that
    /// worker's thread, stamped with [`clock::now`] — the generation
    /// open/close markers between team regions. The rings are
    /// single-writer, so the emit claims ring `worker` for its duration.
    ///
    /// # Panics
    ///
    /// If a live team holds ring `worker` (at `Lifecycle` or above; at
    /// `Off` nothing is emitted or claimed).
    pub fn emit_meta(&self, worker: usize, kind: EventKind, a: u32, b: u64, c: u64) {
        if !self.enabled(TraceLevel::Lifecycle) {
            return;
        }
        let ring = self.rings.claim(worker..worker + 1);
        ring.seat(worker).emit(clock::now(), kind as u8, a, b, c);
    }

    /// Total records emitted across all rings.
    pub fn emitted(&self) -> u64 {
        self.rings.iter().map(EventRing::emitted).sum()
    }

    /// Records the tracer's own [`snapshot`](Self::snapshot) reader lost
    /// to flight-recorder overwrite so far. Drops are a per-reader
    /// fact: another [`RingReader`] over the same rings (the streaming
    /// collector) accounts its own, so this never exceeds
    /// [`emitted`](Self::emitted).
    pub fn dropped(&self) -> u64 {
        self.reader.lock().unwrap().dropped()
    }

    /// Drains every ring through the tracer's own reader into a
    /// time-sorted snapshot. Two consecutive snapshots partition the
    /// event stream: each record lands in exactly one snapshot (or in
    /// the drop count, if the recorder lapped the reader).
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut events = Vec::new();
        let dropped = {
            let mut reader = self.reader.lock().unwrap();
            reader.drain(self, |e| events.push(e));
            reader.dropped()
        };
        events.sort_by_key(|e| e.ts);
        TraceSnapshot {
            events,
            dropped,
            cycles_per_ns: clock::cycles_per_ns(),
        }
    }
}

/// One reader's position in every ring of a [`Tracer`]: a private
/// [`RingCursor`] per worker ring, plus the one place a raw ring record
/// is decoded into a [`TraceEvent`].
///
/// Readers are independent. Each sees every record its rings still
/// retain, exactly once, and none consumes another's view — which is
/// why [`Tracer::snapshot`] and the rolling [`stream`](crate::stream)
/// coexist — and each accounts its *own* drops: per cursor,
/// `drained + dropped == position`, and `position` reaches the ring's
/// `emitted` count once the writer quiesces. A `default()` reader starts
/// at the oldest retained record of every ring.
#[derive(Debug, Default)]
pub struct RingReader {
    cursors: Vec<RingCursor>,
}

impl RingReader {
    /// Drains every ring `tracer` has materialized — rings that appeared
    /// since the last call get a fresh cursor — handing each decoded
    /// record to `sink` in per-ring emission order. Records of a kind
    /// this build does not know are skipped. Returns the records handed
    /// to `sink`.
    pub fn drain(&mut self, tracer: &Tracer, mut sink: impl FnMut(TraceEvent)) -> u64 {
        let rings = &tracer.rings;
        self.cursors
            .resize_with(rings.iter().count(), RingCursor::new);
        let mut delivered = 0;
        for (w, (ring, cursor)) in rings.iter().zip(&mut self.cursors).enumerate() {
            ring.drain(cursor, &mut |raw| {
                if let Some(kind) = EventKind::from_u8(raw.kind) {
                    delivered += 1;
                    sink(TraceEvent {
                        worker: w as u32,
                        ts: raw.ts,
                        kind,
                        a: raw.a,
                        b: raw.b,
                        c: raw.c,
                    });
                }
            });
        }
        delivered
    }

    /// The per-worker cursors (`position`/`drained`/`dropped` of ring
    /// `w` at index `w`), for readers that publish their accounting.
    pub fn cursors(&self) -> &[RingCursor] {
        &self.cursors
    }

    /// Records this reader lost to ring overwrite, over all rings.
    pub fn dropped(&self) -> u64 {
        self.cursors.iter().map(|c| c.dropped()).sum()
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

#[cfg(test)]
mod tests {
    //! Everything reachable as `trace::…` is tested here — the
    //! re-exported [`TraceSnapshot`] export and [`PromText`] included,
    //! which pins those public paths across the file split.
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
        let rings = t.rings.claim(0..2);
        let (r0, r1) = (rings.seat(0), rings.seat(1));
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

        // A second reader over the same rings (what the rolling stream
        // is) partitions the same records on its own: late to the party,
        // it still sees all three retained records, each exactly once,
        // and takes nothing away from the snapshot reader.
        let mut stream = RingReader::default();
        let mut seen = Vec::new();
        assert_eq!(stream.drain(&t, |e| seen.push((e.worker, e.ts))), 3);
        assert_eq!(seen, [(0, 10), (0, 20), (1, 5)], "per-ring emission order");
        r1.emit(30, EventKind::Steal as u8, 0, 1, 0);
        t.rings
            .claim(2..3)
            .seat(2)
            .emit(40, EventKind::Park as u8, 0, 0, 0); // a ring neither has met
        seen.clear();
        assert_eq!(stream.drain(&t, |e| seen.push((e.worker, e.ts))), 2);
        assert_eq!(seen, [(1, 30), (2, 40)]);
        let s3 = t.snapshot();
        assert_eq!(s3.events.len(), 2, "the stream consumed nothing of ours");
        assert_eq!(stream.drain(&t, |_| {}), 0);
        assert_eq!((stream.dropped(), t.dropped()), (0, 0));
        assert_eq!(stream.cursors().len(), 3);
    }

    /// A ring's seat starts a line and fills whole lines, so adjacent
    /// workers' ring heads (written on every emit) never share one.
    #[test]
    fn rings_never_share_a_line() {
        use std::mem::{align_of, offset_of, size_of};
        use xgomp_xqueue::cells::Slot;
        assert_eq!(align_of::<Slot<EventRing>>(), 128);
        assert_eq!(size_of::<Slot<EventRing>>() % 128, 0);
        assert_eq!(offset_of!(Slot<EventRing>, 0), 0);
    }

    #[test]
    fn chrome_export_pairs_parks_and_emits_job_spans() {
        let t = Tracer::with_capacity(TraceLevel::Full, 64);
        let rings = t.rings.claim(0..1);
        let r = rings.seat(0);
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
