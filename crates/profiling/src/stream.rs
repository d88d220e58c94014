//! Rolling on-disk trace stream: the continuous half of the flight
//! recorder.
//!
//! [`Tracer::snapshot`](crate::Tracer::snapshot) is point-in-time — it
//! answers "what just happened" at a panic or an explicit call. This
//! module streams instead: a [`TraceStream`] owns its own
//! [`RingReader`] and, on every
//! [`drain_cycle`](TraceStream::drain_cycle), tails whatever the rings
//! accumulated since the last cycle into an append-only **JSONL
//! segment** on disk, rotating by size or age
//! (`trace-<epoch>-<seq>.jsonl`) and pruning rolled segments beyond a
//! retention cap.
//!
//! ## Line format
//!
//! Each line of a segment is one JSON object, and the three shapes it
//! can take are the three variants of [`StreamLine`] — the only place
//! the on-disk format is spelled, for the writer and every re-reader
//! alike ([`StreamLine::parse`], [`final_summary`]):
//!
//! * [`StreamLine::Segment`] — first line of every segment: which
//!   segment this is, plus the tick calibration;
//! * [`StreamLine::Event`] — one per drained record, plus one synthetic
//!   [`EventKind::DrainCycle`] marker per non-empty cycle on the
//!   collector's pseudo-track (the collector thread never emits into a
//!   worker's SPSC ring);
//! * [`StreamLine::Drain`] — the cumulative accounting summary below.
//!
//! ## Conservation across rotations
//!
//! The flight-recorder identity `drained + dropped == emitted` is
//! carried *into the files*: every non-empty drain cycle appends a
//! [`DrainSummary`] with the reader's cumulative per-worker cursor
//! accounting (`position == drained + dropped`) next to the ring's
//! `emitted` counter, and [`finish`](TraceStream::finish) writes one
//! final summary after the writers quiesce — so the last summary of the
//! last segment states the identity exactly, no matter how many times
//! the stream rotated underneath it.
//!
//! `trace2chrome` — [`chrome_json_from_jsonl`] and the directory-walking
//! [`chrome_json_from_dir`], re-exported here from the Chrome export —
//! converts any concatenation of segments, in rotation order, back into
//! one Perfetto-loadable Chrome-trace JSON document.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use serde::{DeError, Deserialize, Serialize, Value};

pub use crate::chrome::{chrome_json_from_dir, chrome_json_from_jsonl};
use crate::clock;
use crate::events::EventKind;
use crate::trace::{RingReader, TraceEvent, Tracer};

/// First line of every segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentHeader {
    /// Unix-seconds stamp naming the stream's segment family.
    pub epoch: u64,
    /// Rotation sequence number of this segment.
    pub seq: u64,
    /// Tick-to-nanosecond calibration of the event timestamps.
    pub cycles_per_ns: f64,
}

/// One worker ring's row of a [`DrainSummary`]: the stream reader's
/// cursor next to the ring's own counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerDrain {
    /// The worker whose ring this row accounts.
    pub worker: u64,
    /// Next record the stream will read (`drained + dropped`).
    pub position: u64,
    /// Records of this ring the stream surfaced.
    pub drained: u64,
    /// Records of this ring the stream lost to overwrite.
    pub dropped: u64,
    /// Records the ring's writer had emitted at summary time.
    pub emitted: u64,
}

/// The stream's cumulative conservation summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainSummary {
    /// Drain cycles run so far (empty ones included).
    pub cycle: u64,
    /// Segment rotations performed so far.
    pub rotations: u64,
    /// Records written to disk across all segments.
    pub drained: u64,
    /// Records the stream's reader lost to ring overwrite.
    pub dropped: u64,
    /// One row per worker ring.
    pub workers: Vec<WorkerDrain>,
}

impl DrainSummary {
    /// Records emitted over all rings at summary time — what
    /// `drained + dropped` equals once the writers have quiesced.
    pub fn emitted(&self) -> u64 {
        self.workers.iter().map(|w| w.emitted).sum()
    }
}

/// One line of a segment (see the [module docs](self#line-format)).
/// On disk a header is `{"segment":{…}}`, a summary is `{"drain":{…}}`
/// and an event is the bare [`TraceEvent`] object.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamLine {
    /// Segment header.
    Segment(SegmentHeader),
    /// A drained (or synthetic `DrainCycle`) record.
    Event(TraceEvent),
    /// Cumulative conservation summary.
    Drain(DrainSummary),
}

impl Serialize for StreamLine {
    fn to_value(&self) -> Value {
        let keyed = |key: &str, v: Value| Value::Map(vec![(key.to_string(), v)]);
        match self {
            StreamLine::Segment(h) => keyed("segment", h.to_value()),
            StreamLine::Event(e) => e.to_value(),
            StreamLine::Drain(d) => keyed("drain", d.to_value()),
        }
    }
}

impl Deserialize for StreamLine {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if let Ok(h) = serde::field(v, "segment") {
            SegmentHeader::from_value(h).map(StreamLine::Segment)
        } else if let Ok(d) = serde::field(v, "drain") {
            DrainSummary::from_value(d).map(StreamLine::Drain)
        } else {
            TraceEvent::from_value(v).map(StreamLine::Event)
        }
    }
}

impl StreamLine {
    /// Parses one segment line.
    pub fn parse(line: &str) -> Result<StreamLine, serde_json::Error> {
        serde_json::from_str(line)
    }

    /// The line as written to disk (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("stream lines serialize")
    }
}

/// Shape of the rolling stream: where segments live, when they rotate,
/// how many survive.
#[derive(Debug, Clone)]
pub struct TraceStreamConfig {
    /// Directory the segments are written into (created on demand).
    pub dir: PathBuf,
    /// Rotate the current segment once it exceeds this many bytes.
    pub rotate_bytes: u64,
    /// Rotate the current segment once it is older than this, even if
    /// small — bounds how stale the newest *closed* segment can be.
    pub rotate_after: Duration,
    /// Segments retained on disk (the live one included); older rolled
    /// segments of this stream are deleted, newest kept. Minimum 1.
    pub keep: usize,
}

impl TraceStreamConfig {
    /// Defaults: 4 MiB size rotation, 60 s age rotation, 8 segments
    /// retained.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TraceStreamConfig {
            dir: dir.into(),
            rotate_bytes: 4 << 20,
            rotate_after: Duration::from_secs(60),
            keep: 8,
        }
    }

    /// Sets the size-rotation threshold (bytes, ≥ 1 KiB).
    pub fn rotate_bytes(mut self, n: u64) -> Self {
        self.rotate_bytes = n.max(1024);
        self
    }

    /// Sets the age-rotation threshold.
    pub fn rotate_after(mut self, d: Duration) -> Self {
        self.rotate_after = d;
        self
    }

    /// Sets the retention cap (segments kept, ≥ 1).
    pub fn keep(mut self, n: usize) -> Self {
        self.keep = n.max(1);
        self
    }
}

/// Cumulative counters of one [`TraceStream`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStreamStats {
    /// Drain cycles run (empty ones included).
    pub cycles: u64,
    /// Records written to disk across all segments.
    pub drained: u64,
    /// Records the stream's cursors lost to ring overwrite — `0` means
    /// the collector kept up with every writer.
    pub dropped: u64,
    /// Segment rotations performed (segments opened, minus one).
    pub rotations: u64,
}

/// The live segment file and everything that decides when it rolls.
/// Kept apart from the [`RingReader`] so lines are written — and
/// size-rotated — from inside the reader's sink, as they are decoded.
#[derive(Debug)]
struct SegmentWriter {
    cfg: TraceStreamConfig,
    /// Unix-seconds stamp naming this stream's segment family.
    epoch: u64,
    seq: u64,
    file: BufWriter<File>,
    bytes: u64,
    segment_events: u64,
    opened_at: Instant,
}

/// The rolling sink (see the [module docs](self)).
#[derive(Debug)]
pub struct TraceStream {
    reader: RingReader,
    out: SegmentWriter,
    cycles: u64,
    drained: u64,
}

impl SegmentWriter {
    fn write(&mut self, line: &StreamLine) -> io::Result<()> {
        let line = line.to_json();
        writeln!(self.file, "{line}")?;
        self.bytes += line.len() as u64 + 1;
        Ok(())
    }

    fn write_header(&mut self) -> io::Result<()> {
        self.write(&StreamLine::Segment(SegmentHeader {
            epoch: self.epoch,
            seq: self.seq,
            cycles_per_ns: clock::cycles_per_ns(),
        }))
    }

    /// Appends one drained record. Size rotation applies here, *between
    /// records*: one burst cycle draining far more than `rotate_bytes`
    /// (a ring holds up to its capacity between cycles) still produces
    /// bounded segments.
    fn write_event(&mut self, event: TraceEvent) -> io::Result<()> {
        self.write(&StreamLine::Event(event))?;
        self.segment_events += 1;
        if self.bytes >= self.cfg.rotate_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Age (or size) rotation, checked once per cycle.
    fn maybe_rotate(&mut self) -> io::Result<()> {
        let due = self.bytes >= self.cfg.rotate_bytes
            || self.opened_at.elapsed() >= self.cfg.rotate_after;
        // Never roll a segment that carries no events yet: an idle
        // stream must not churn header-only files through retention.
        if due && self.segment_events > 0 {
            self.rotate()?;
        }
        Ok(())
    }

    /// Unconditionally rolls to the next segment: flush, bump the
    /// sequence number, open the new file with its header, prune old
    /// segments past the retention cap.
    fn rotate(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.seq += 1;
        let path = segment_path_of(&self.cfg.dir, self.epoch, self.seq);
        self.file = BufWriter::new(File::create(path)?);
        self.bytes = 0;
        self.segment_events = 0;
        self.opened_at = Instant::now();
        self.write_header()?;
        self.apply_retention();
        Ok(())
    }

    /// Deletes this stream's oldest rolled segments beyond the
    /// retention cap (best-effort; other epochs in the directory are
    /// left alone).
    fn apply_retention(&self) {
        let Ok(mut segs) = segment_paths(&self.cfg.dir, &format!("trace-{}-", self.epoch)) else {
            return;
        };
        while segs.len() > self.cfg.keep.max(1) {
            let _ = fs::remove_file(segs.remove(0));
        }
    }
}

impl TraceStream {
    /// Opens the stream: creates `cfg.dir` and segment 0 with its
    /// header line.
    pub fn create(cfg: TraceStreamConfig) -> io::Result<Self> {
        fs::create_dir_all(&cfg.dir)?;
        let epoch = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut out = SegmentWriter {
            file: BufWriter::new(File::create(segment_path_of(&cfg.dir, epoch, 0))?),
            cfg,
            epoch,
            seq: 0,
            bytes: 0,
            segment_events: 0,
            opened_at: Instant::now(),
        };
        out.write_header()?;
        Ok(TraceStream {
            reader: RingReader::default(),
            out,
            cycles: 0,
            drained: 0,
        })
    }

    /// Cumulative stream counters.
    pub fn stats(&self) -> TraceStreamStats {
        TraceStreamStats {
            cycles: self.cycles,
            drained: self.drained,
            dropped: self.reader.dropped(),
            rotations: self.out.seq,
        }
    }

    /// Appends the cumulative conservation summary: stream totals plus
    /// one per-worker row of `position == drained + dropped` next to
    /// the ring's `emitted` counter.
    fn write_summary(&mut self, tracer: &Tracer) -> io::Result<()> {
        let stats = self.stats();
        let rings = tracer.rings();
        let row = |(w, cur): (usize, &xgomp_xqueue::RingCursor)| WorkerDrain {
            worker: w as u64,
            position: cur.position(),
            drained: cur.drained(),
            dropped: cur.dropped(),
            emitted: rings.get(w).map_or(0, |r| r.emitted()),
        };
        let summary = DrainSummary {
            cycle: stats.cycles,
            rotations: stats.rotations,
            drained: stats.drained,
            dropped: stats.dropped,
            workers: self.reader.cursors().iter().enumerate().map(row).collect(),
        };
        self.out.write(&StreamLine::Drain(summary))
    }

    /// One collector cycle: tails every ring through the stream's own
    /// reader, appending each record as it is decoded (plus the
    /// synthetic [`EventKind::DrainCycle`] marker and the conservation
    /// summary when anything arrived), and rotates/prunes as configured
    /// — by size between records, by age once per cycle. Returns the
    /// records written this cycle.
    pub fn drain_cycle(&mut self, tracer: &Tracer) -> io::Result<u64> {
        let out = &mut self.out;
        let mut io = Ok(());
        let cycle_drained = self.reader.drain(tracer, |event| {
            if io.is_ok() {
                io = out.write_event(event);
            }
        });
        io?;
        self.cycles += 1;
        if cycle_drained > 0 {
            self.drained += cycle_drained;
            // The cycle marker rides the collector's pseudo-track (one
            // past the worker rings) — never a worker's SPSC ring.
            let marker = TraceEvent {
                worker: self.reader.cursors().len() as u32,
                ts: clock::now(),
                kind: EventKind::DrainCycle,
                a: self.out.seq.min(u32::MAX as u64) as u32,
                b: cycle_drained,
                c: self.reader.dropped(),
            };
            self.out.write(&StreamLine::Event(marker))?;
            self.write_summary(tracer)?;
        }
        self.out.maybe_rotate()?;
        Ok(cycle_drained)
    }

    /// Flushes buffered lines to the OS (pause-coordination point: a
    /// paused server's stream is complete on disk after this).
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.file.flush()
    }

    /// Final cycle: drains whatever remains, writes one last
    /// conservation summary — exact once the emitters have quiesced —
    /// and flushes. Returns the final counters.
    pub fn finish(mut self, tracer: &Tracer) -> io::Result<TraceStreamStats> {
        self.drain_cycle(tracer)?;
        self.write_summary(tracer)?;
        self.out.file.flush()?;
        Ok(self.stats())
    }
}

fn segment_path_of(dir: &Path, epoch: u64, seq: u64) -> PathBuf {
    dir.join(format!("trace-{epoch}-{seq:06}.jsonl"))
}

/// The `<prefix>*.jsonl` segments under `dir`, in rotation order
/// (zero-padded sequence numbers make name order rotation order).
pub(crate) fn segment_paths(dir: &Path, prefix: &str) -> io::Result<Vec<PathBuf>> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".jsonl"))
        })
        .collect();
    segs.sort();
    Ok(segs)
}

/// The stream's final word: the last [`DrainSummary`] of the newest
/// segment under `dir` that carries one. After
/// [`finish`](TraceStream::finish) this states the exact conservation
/// identity of the whole run.
pub fn final_summary(dir: &Path) -> io::Result<DrainSummary> {
    for seg in segment_paths(dir, "trace-")?.iter().rev() {
        let text = fs::read_to_string(seg)?;
        let last = text.lines().rev().find_map(|l| match StreamLine::parse(l) {
            Ok(StreamLine::Drain(d)) => Some(d),
            _ => None,
        });
        if let Some(summary) = last {
            return Ok(summary);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!("no drain summary in any segment under {}", dir.display()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceLevel;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xgomp-stream-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn rolling_stream_rotates_prunes_and_conserves() {
        let dir = scratch("rotate");
        let tracer = Tracer::with_capacity(TraceLevel::Full, 256);
        let (r0, r1) = (tracer.ring(0), tracer.ring(1));
        let cfg = TraceStreamConfig::new(&dir).rotate_bytes(1024).keep(3);
        let mut stream = TraceStream::create(cfg).unwrap();

        let mut ts = 0u64;
        for _round in 0..40 {
            for i in 0..20u64 {
                ts += 1;
                r0.emit(ts, EventKind::Steal as u8, 0, i, 0);
                ts += 1;
                r1.emit(ts, EventKind::ChunkClaim as u8, 1, i, i + 1);
            }
            stream.drain_cycle(&tracer).unwrap();
        }
        let stats = stream.finish(&tracer).unwrap();
        assert!(stats.rotations >= 3, "tiny segments must rotate");
        assert_eq!(stats.dropped, 0, "a keeping-up collector drops nothing");
        assert_eq!(stats.drained, 40 * 40, "every record reaches the stream");

        // Retention: at most `keep` segments remain, newest last.
        let segs = segment_paths(&dir, "trace-").unwrap();
        assert!(segs.len() <= 3, "retention cap violated: {segs:?}");
        let newest = segs.last().unwrap().to_str().unwrap();
        assert!(newest.ends_with(&format!("{:06}.jsonl", stats.rotations)));

        // The retained concatenation converts to parseable Chrome JSON
        // with the synthetic DrainCycle markers on the pseudo-track.
        let chrome = chrome_json_from_dir(&dir).unwrap();
        serde_json::from_str::<Value>(&chrome).unwrap();
        assert!(chrome.contains("\"name\":\"DRAIN_CYCLE\""));

        // The final summary of the last segment carries the exact
        // conservation identity per worker.
        let summary = final_summary(&dir).unwrap();
        assert_eq!(summary.rotations, stats.rotations);
        assert_eq!(summary.workers.len(), 2);
        for w in &summary.workers {
            assert_eq!(w.position, w.drained + w.dropped);
            assert_eq!(w.position, w.emitted, "quiesced stream reaches the head");
        }
        assert_eq!(summary.drained + summary.dropped, summary.emitted());
        assert_eq!(summary.drained, stats.drained);

        // Everything the writer put on disk — all three line kinds —
        // round-trips through the one typed format.
        let mut kinds = [0usize; 3];
        for seg in &segs {
            for line in fs::read_to_string(seg).unwrap().lines() {
                let parsed = StreamLine::parse(line).unwrap();
                assert_eq!(StreamLine::parse(&parsed.to_json()).unwrap(), parsed);
                kinds[match parsed {
                    StreamLine::Segment(_) => 0,
                    StreamLine::Event(_) => 1,
                    StreamLine::Drain(_) => 2,
                }] += 1;
            }
        }
        assert!(kinds.iter().all(|&n| n > 0), "saw {kinds:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lapped_collector_accounts_drops_in_the_stream() {
        let dir = scratch("lapped");
        let tracer = Tracer::with_capacity(TraceLevel::Full, 8);
        let ring = tracer.ring(0);
        let mut stream = TraceStream::create(TraceStreamConfig::new(&dir)).unwrap();
        // Lap the tiny ring between cycles: the gap must surface as
        // stream-side drops, keeping the identity.
        for i in 0..100u64 {
            ring.emit(i, EventKind::Steal as u8, 0, i, 0);
        }
        stream.drain_cycle(&tracer).unwrap();
        // Drops are a per-reader fact. A snapshot reader lapped on the
        // same ring accounts its own gap; the tracer must not fold both
        // readers' gaps into one counter that overtakes `emitted`.
        // Any interleaving of the two readers keeps both identities.
        let mut snapped = tracer.snapshot().events.len() as u64;
        assert_eq!(snapped + tracer.dropped(), 100, "snapshot reader conserves");
        for round in 0..6u64 {
            for i in 0..(7 + 9 * round) {
                ring.emit(1_000 * round + i, EventKind::Steal as u8, 0, i, 0);
            }
            if round % 2 == 0 {
                stream.drain_cycle(&tracer).unwrap();
            }
            if round % 3 != 1 {
                snapped += tracer.snapshot().events.len() as u64;
            }
            assert!(tracer.dropped() <= tracer.emitted());
        }
        snapped += tracer.snapshot().events.len() as u64;
        assert_eq!(snapped + tracer.dropped(), tracer.emitted());
        let stats = stream.finish(&tracer).unwrap();
        assert_eq!(stats.drained + stats.dropped, tracer.emitted());
        assert!(stats.dropped > 0);
        assert_eq!(final_summary(&dir).unwrap().emitted(), tracer.emitted());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_conversion_survives_headers_and_summaries() {
        let text = concat!(
            "{\"segment\":{\"epoch\":1,\"seq\":0,\"cycles_per_ns\":1.000000}}\n",
            "{\"worker\":0,\"ts\":1000,\"kind\":\"Park\",\"a\":0,\"b\":0,\"c\":0}\n",
            "{\"worker\":0,\"ts\":2000,\"kind\":\"Wake\",\"a\":0,\"b\":0,\"c\":0}\n",
            "{\"drain\":{\"cycle\":1,\"rotations\":0,\"drained\":2,\"dropped\":7,\"workers\":[]}}\n",
            "{\"segment\":{\"epoch\":1,\"seq\":1,\"cycles_per_ns\":1.000000}}\n",
            "{\"worker\":1,\"ts\":3000,\"kind\":\"JobStart\",\"a\":0,\"b\":42,\"c\":2500}\n",
            "{\"worker\":1,\"ts\":4000,\"kind\":\"JobEnd\",\"a\":0,\"b\":42,\"c\":3000}\n",
            "{\"drain\":{\"cycle\":2,\"rotations\":1,\"drained\":4,\"dropped\":9,\"workers\":[]}}\n",
        );
        let chrome = chrome_json_from_jsonl(text).unwrap();
        let v: Value = serde_json::from_str(&chrome).unwrap();
        drop(v);
        assert!(chrome.contains("\"name\":\"parked\""), "park/wake paired");
        assert!(chrome.contains("\"name\":\"job 42\""));
        assert!(
            chrome.contains("\"dropped_events\":9"),
            "cumulative drop accounting survives conversion"
        );
    }
}
