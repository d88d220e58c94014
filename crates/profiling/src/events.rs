//! Per-thread event logs (the paper's `perf_record` markers).

use serde::{Deserialize, Serialize};

use crate::clock;
use crate::counters::StatsSnapshot;

/// The event classes of §V, plus the flight-recorder runtime kinds.
/// Values are stable (used in dumps and in binary ring records); the
/// first five are exactly the paper's `perf_record` markers and must
/// never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum EventKind {
    /// Cycles spent executing a task body (`TASK`).
    Task = 0,
    /// Cycles spent creating a task — allocation, dependency setup,
    /// enqueue (`GOMP_TASK`). "Crucial because fine-grained tasks can
    /// spend a large portion of their lifecycle on task creation."
    TaskCreate = 1,
    /// Cycles inside a `taskwait` scheduling point (`TASKWAIT`).
    TaskWait = 2,
    /// Cycles inside the team barrier (`BARRIER`).
    Barrier = 3,
    /// Unoccupied cycles: polling queues with nothing scheduled (`STALL`).
    Stall = 4,
    /// A worker parked on the OS primitive (flight recorder; instant).
    Park = 5,
    /// A parked worker woke (instant).
    Wake = 6,
    /// A worker obtained at least one task by stealing (instant;
    /// payload `b` = tasks stolen in the batch).
    Steal = 7,
    /// The DLB engine granted a steal request, migrating tasks to
    /// another worker (instant; payload `b` = requests granted).
    Migrate = 8,
    // 9 is retired and never reused: old dumps may hold it, so it
    // decodes to `None` and the kinds after it keep their values.
    /// A loop chunk about to execute — one event per *executed* chunk,
    /// whether its units were claimed from a zone pool one chunk at a
    /// time, reserved ahead, or stolen (instant; payload `a` = the
    /// executing worker's pool, `b`, `c` = the chunk's `lo`, `hi`).
    ChunkClaim = 10,
    /// A cross-zone loop range steal-split (instant; payload as
    /// [`ChunkClaim`](Self::ChunkClaim)).
    RangeSteal = 11,
    /// A job's body started executing (payload `b` = job id,
    /// `c` = submission timestamp — the span `[c, ts]` is the job's
    /// queue wait).
    JobStart = 12,
    /// A job's body finished (payload `a` = 0 ok / 1 panicked,
    /// `b` = job id, `c` = start timestamp — the span `[c, ts]` is the
    /// job's run time).
    JobEnd = 13,
    /// A task-server generation opened (payload `b` = generation,
    /// `c` = worker count).
    GenOpen = 14,
    /// A task-server generation closed (payload `b` = generation).
    GenClose = 15,
    /// A task server's `resume_with` changed the DLB configuration at a
    /// generation boundary (payload `b` = cumulative retune count).
    Retune = 16,
    /// A job was cancelled cooperatively (instant; payload `a` = 0
    /// explicit cancel / 1 deadline, `b` = job id).
    Cancel = 17,
    /// A queued job was shed before its body ever ran (instant; payload
    /// `a` = 0 cancel / 1 deadline, `b` = job id).
    Shed = 18,
    /// A job's deadline expired (instant; payload `b` = job id,
    /// `c` = deadline tick). Emitted whether the job is then shed
    /// (still queued) or cancelled (already running).
    DeadlineMiss = 19,
    /// One streaming-drain collector cycle completed (instant; payload
    /// `a` = file rotations so far, `b` = records drained this cycle,
    /// `c` = cumulative records the stream's cursors lost to ring
    /// overwrite). Synthetic: written by the rolling trace sink into
    /// the on-disk stream only — the collector thread never emits into
    /// a worker's SPSC ring.
    DrainCycle = 20,
}

/// One row of [`KINDS`]: everything any reader needs to know about a
/// kind beyond its discriminant.
struct KindRow {
    kind: EventKind,
    label: &'static str,
    /// Payload `c` carries a paired start timestamp: the record closes
    /// the span `[c, ts]`.
    c_is_span_start: bool,
    /// ASCII Gantt glyph — the §V kinds only (the timeline renderers
    /// draw the paper's five-way breakdown, nothing else).
    glyph: Option<char>,
}

const fn row(
    kind: EventKind,
    label: &'static str,
    c_is_span_start: bool,
    glyph: Option<char>,
) -> Option<KindRow> {
    Some(KindRow {
        kind,
        label,
        c_is_span_start,
        glyph,
    })
}

/// **The** kind table, indexed by discriminant (row `i` describes the
/// kind whose value is `i` — tested; a retired value's row is `None`):
/// decoding a ring record's `u8`, labelling, span pairing and glyphs all
/// read it, so a new kind is one enum variant plus one row.
const KINDS: [Option<KindRow>; 21] = [
    row(EventKind::Task, "TASK", true, Some('T')),
    row(EventKind::TaskCreate, "GOMP_TASK", false, Some('C')),
    row(EventKind::TaskWait, "TASKWAIT", false, Some('w')),
    row(EventKind::Barrier, "BARRIER", false, Some('B')),
    row(EventKind::Stall, "STALL", false, Some('.')),
    row(EventKind::Park, "PARK", false, None),
    row(EventKind::Wake, "WAKE", false, None),
    row(EventKind::Steal, "STEAL", false, None),
    row(EventKind::Migrate, "MIGRATE", false, None),
    None,
    row(EventKind::ChunkClaim, "CHUNK_CLAIM", false, None),
    row(EventKind::RangeSteal, "RANGE_STEAL", false, None),
    row(EventKind::JobStart, "JOB_START", true, None),
    row(EventKind::JobEnd, "JOB_END", true, None),
    row(EventKind::GenOpen, "GEN_OPEN", false, None),
    row(EventKind::GenClose, "GEN_CLOSE", false, None),
    row(EventKind::Retune, "RETUNE", false, None),
    row(EventKind::Cancel, "CANCEL", false, None),
    row(EventKind::Shed, "SHED", false, None),
    row(EventKind::DeadlineMiss, "DEADLINE_MISS", false, None),
    row(EventKind::DrainCycle, "DRAIN_CYCLE", false, None),
];

impl EventKind {
    /// The §V kinds, in rendering order (matches Fig. 3's legend
    /// order). Deliberately *not* extended by the flight-recorder
    /// kinds: the timeline renderers and `PerfLog` totals are the
    /// paper's five-way breakdown.
    pub const ALL: [EventKind; 5] = [
        EventKind::Task,
        EventKind::TaskCreate,
        EventKind::TaskWait,
        EventKind::Barrier,
        EventKind::Stall,
    ];

    /// Decodes a stable discriminant (ring records store the `u8`).
    pub fn from_u8(v: u8) -> Option<EventKind> {
        KINDS.get(v as usize)?.as_ref().map(|r| r.kind)
    }

    fn info(self) -> &'static KindRow {
        KINDS[self as usize]
            .as_ref()
            .expect("every live kind has a row")
    }

    /// Short label used in summaries.
    pub fn label(self) -> &'static str {
        self.info().label
    }

    /// Whether payload `c` carries a paired start timestamp (the record
    /// closes a span `[c, ts]`).
    pub(crate) fn c_is_span_start(self) -> bool {
        self.info().c_is_span_start
    }

    /// One-character glyph for the ASCII Gantt renderer; `None` for the
    /// flight-recorder kinds, which the Gantt never draws.
    pub fn glyph(self) -> Option<char> {
        self.info().glyph
    }
}

/// One recorded event: a `[start, end)` interval in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Event class.
    pub kind: EventKind,
    /// Start timestamp ([`clock::now`] ticks).
    pub start: u64,
    /// End timestamp.
    pub end: u64,
}

impl EventRecord {
    /// Interval length in ticks (saturating — cross-thread TSC skew can
    /// produce tiny negative intervals on pathological hardware).
    #[inline]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-worker event log. Owned by its worker thread while profiling
/// (no synchronization on the record path), collected by the team
/// afterwards.
#[derive(Debug, Serialize, Deserialize)]
pub struct PerfLog {
    worker: usize,
    enabled: bool,
    events: Vec<EventRecord>,
}

impl PerfLog {
    /// Creates a log for `worker`; when `enabled` is false every call is
    /// a no-op (the runtime's default, matching the paper's observation
    /// that logging has measurable overhead on fine-grained tasks).
    pub fn new(worker: usize, enabled: bool) -> Self {
        PerfLog {
            worker,
            enabled,
            events: if enabled {
                Vec::with_capacity(4096)
            } else {
                Vec::new()
            },
        }
    }

    /// The worker this log belongs to.
    #[inline]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Records the interval `[start, end)` of `kind` (the caller
    /// brackets the event with [`clock::now`]). A no-op when disabled.
    #[inline]
    pub fn push_span(&mut self, kind: EventKind, start: u64, end: u64) {
        if self.enabled {
            self.events.push(EventRecord { kind, start, end });
        }
    }

    /// The recorded events.
    #[inline]
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Total recorded ticks per §V event kind ([`EventKind::ALL`]
    /// order). Flight-recorder kinds (discriminant ≥ 5) are instant
    /// markers, not intervals — they do not appear in the five-way
    /// breakdown and are skipped here.
    pub fn totals(&self) -> [u64; 5] {
        let mut t = [0u64; 5];
        for e in &self.events {
            if let Some(slot) = t.get_mut(e.kind as usize) {
                *slot += e.duration();
            }
        }
        t
    }
}

/// Everything `xomp_perflog_dump` writes: per-worker logs, per-worker
/// counter snapshots, and the clock calibration needed to convert ticks
/// to seconds offline.
#[derive(Debug, Serialize, Deserialize)]
pub struct ProfileDump {
    /// Per-worker event logs.
    pub logs: Vec<PerfLog>,
    /// Per-worker counter snapshots.
    pub stats: Vec<StatsSnapshot>,
    /// Host timestamp ticks per nanosecond at dump time.
    pub cycles_per_ns: f64,
}

impl ProfileDump {
    /// Bundles logs and counters with the clock calibration.
    pub fn new(logs: Vec<PerfLog>, stats: Vec<StatsSnapshot>) -> Self {
        ProfileDump {
            logs,
            stats,
            cycles_per_ns: clock::cycles_per_ns(),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ProfileDump serializes")
    }

    /// Writes JSON to `path` (the `xomp_perflog_dump` API).
    pub fn dump_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Writes to the path named by `XOMP_PERFLOG_PATH`, if set. Returns
    /// whether a dump was written.
    pub fn dump_from_env(&self) -> std::io::Result<bool> {
        match std::env::var_os("XOMP_PERFLOG_PATH") {
            Some(p) => {
                self.dump_to(std::path::Path::new(&p))?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Parses a dump back (for offline analysis tools and tests).
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = PerfLog::new(0, false);
        log.push_span(EventKind::Task, 10, 20);
        assert!(log.events().is_empty());
        assert_eq!(log.totals(), [0; 5]);
    }

    #[test]
    fn enabled_log_records_ordered_intervals() {
        let mut log = PerfLog::new(3, true);
        let t = clock::now();
        std::hint::spin_loop();
        log.push_span(EventKind::TaskCreate, t, clock::now());
        let t2 = clock::now();
        log.push_span(EventKind::Task, t2, clock::now());
        assert_eq!(log.events().len(), 2);
        assert!(log.events()[0].end <= log.events()[1].start + 1_000_000);
        assert_eq!(log.worker(), 3);
        assert!(
            log.totals()[EventKind::TaskCreate as usize] > 0 || cfg!(not(target_arch = "x86_64"))
        );
    }

    #[test]
    fn dump_roundtrips_through_json() {
        let mut log = PerfLog::new(0, true);
        log.push_span(EventKind::Barrier, 100, 250);
        let dump = ProfileDump::new(vec![log], vec![StatsSnapshot::default()]);
        let parsed = ProfileDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(parsed.logs.len(), 1);
        assert_eq!(parsed.logs[0].events()[0].duration(), 150);
        assert_eq!(parsed.stats.len(), 1);
    }

    #[test]
    fn full_kind_set_round_trips_through_serde_with_stable_discriminants() {
        // The table is discriminant-indexed, exhaustive and
        // duplicate-free: row `i` describes the kind whose value is `i`.
        let live = || KINDS.iter().flatten();
        for (i, r) in KINDS.iter().enumerate() {
            let Some(r) = r else { continue };
            assert_eq!(r.kind as usize, i, "row {i} is {}", r.label);
            assert_eq!(EventKind::from_u8(i as u8), Some(r.kind));
            let json = serde_json::to_string(&r.kind).unwrap();
            let back: EventKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r.kind, "serde round trip for {}", r.label);
            let same_label = live().filter(|o| o.label == r.label).count();
            assert_eq!(same_label, 1, "label {} is unique", r.label);
        }
        assert_eq!(EventKind::from_u8(KINDS.len() as u8), None);
        assert_eq!(EventKind::from_u8(21), None);
        // A retired value decodes to nothing: 9 is the only hole.
        assert_eq!(EventKind::from_u8(9), None);
        assert_eq!(live().count(), KINDS.len() - 1);
        // The §V five are frozen at 0–4 with their glyphs; no other kind
        // has one.
        let glyphs: Vec<Option<char>> = live().map(|r| r.glyph).collect();
        assert_eq!(glyphs[..5], ['T', 'C', 'w', 'B', '.'].map(Some));
        assert!(glyphs[5..].iter().all(Option::is_none));
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "§V discriminants must not move");
        }
        // Exactly the span-closing kinds carry a start stamp in `c`.
        let spans: Vec<EventKind> = live()
            .filter(|r| r.c_is_span_start)
            .map(|r| r.kind)
            .collect();
        assert_eq!(
            spans,
            [EventKind::Task, EventKind::JobStart, EventKind::JobEnd]
        );
        // The loop kinds after the retired 9 keep their values…
        assert_eq!(EventKind::ChunkClaim as u8, 10);
        assert_eq!(EventKind::RangeSteal as u8, 11);
        // …the pre-cancellation kinds are frozen at their PR 6 values…
        assert_eq!(EventKind::JobStart as u8, 12);
        assert_eq!(EventKind::JobEnd as u8, 13);
        assert_eq!(EventKind::GenOpen as u8, 14);
        assert_eq!(EventKind::GenClose as u8, 15);
        assert_eq!(EventKind::Retune as u8, 16);
        // …and the serving-robustness kinds extend, never renumber.
        assert_eq!(EventKind::Cancel as u8, 17);
        assert_eq!(EventKind::Shed as u8, 18);
        assert_eq!(EventKind::DeadlineMiss as u8, 19);
        // …as does the streaming-drain collector kind.
        assert_eq!(EventKind::DrainCycle as u8, 20);
        assert_eq!(
            serde_json::to_string(&EventKind::DeadlineMiss).unwrap(),
            "\"DeadlineMiss\""
        );
    }

    #[test]
    fn totals_ignore_flight_recorder_kinds() {
        let mut log = PerfLog::new(0, true);
        log.push_span(EventKind::Task, 0, 100);
        log.push_span(EventKind::Park, 0, 9_999); // instant marker kind
        let t = log.totals();
        assert_eq!(t[EventKind::Task as usize], 100);
        assert_eq!(t.iter().sum::<u64>(), 100);
    }

    #[test]
    fn dump_to_env_path() {
        let dir = std::env::temp_dir().join("xgomp_perflog_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        let dump = ProfileDump::new(vec![], vec![]);
        dump.dump_to(&path).unwrap();
        let loaded = ProfileDump::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(loaded.logs.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
