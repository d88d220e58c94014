//! # xgomp-profiling
//!
//! Reproduction of the paper's §V software profiling tools: light-weight
//! per-thread event timelines stamped with the processor timestamp counter
//! and per-thread statistical counters, plus the renderers that produce
//! the paper's Fig. 3 (per-thread timeline summary and task-count
//! summary) and the Tables II/III statistics rows.
//!
//! Design points carried over from the paper:
//!
//! * **`rdtscp`-class timestamps.** On x86-64 we use `rdtsc` (the paper
//!   uses `rdtscp`; both are monotone non-serializing reads of the TSC —
//!   the `p` variant additionally orders prior loads, a distinction that
//!   does not matter for coarse event bracketing). Elsewhere we fall back
//!   to a monotonic-nanosecond clock.
//! * **Event classes**: `TASK` (running a task body), `GOMP_TASK` (task
//!   creation), `TASKWAIT`, `BARRIER`, `STALL` (idle polling).
//! * **Thread-local, non-atomic recording.** Each worker owns its log and
//!   counter block; nothing is shared while profiling, so the overhead is
//!   a store per event as in the paper.
//! * **`xomp_perflog_dump`**: JSON dump of logs + counters to a path from
//!   the `XOMP_PERFLOG_PATH` environment variable or an explicit path.
//!
//! ## Where things live
//!
//! Each file owns one decision; everything public is re-exported from
//! the crate root.
//!
//! | file | owns |
//! |------|------|
//! | `clock.rs` | the timestamp source and its tick ↔ time calibration |
//! | `events.rs` | [`EventKind`] and its one per-kind table; the §V [`PerfLog`] / [`ProfileDump`] |
//! | `counters.rs`, `loopstats.rs` | the §V per-worker counters; the loop-subsystem counters |
//! | `histogram.rs` | [`TaskSizeHistogram`], decade bucketing and the modal-decade rule ([`modal_index`]); [`HistCell`], the one single-writer histogram recorder ([`TaskLane`] is its decade form) |
//! | `timeline.rs` | the Fig. 3 ASCII renderers |
//! | `trace.rs` | [`TraceLevel`], the [`Tracer`] (ring owner + level gate) and the [`RingReader`] — the one ring-read/decode path |
//! | `chrome.rs` | [`TraceSnapshot`] and its Chrome-trace / Perfetto export |
//! | `prom.rs` | [`PromText`], the Prometheus text-exposition builder |
//! | `stream.rs` | the rolling on-disk stream: [`StreamLine`] (the one line format), [`TraceStream`], [`final_summary`], `trace2chrome` |
//!
//! Every per-worker block here — [`WorkerStats`], the trace rings — is
//! one seat of an `xgomp_xqueue::Cells` (`cells.rs`
//! there): padded, grown on demand, claimed per team generation and
//! summed on read.

#![warn(missing_docs)]

mod chrome;
pub mod clock;
mod counters;
mod events;
mod histogram;
mod loopstats;
mod prom;
pub mod stream;
mod timeline;
pub mod trace;

pub use counters::{StatsSnapshot, TeamStats, WorkerStats};
pub use events::{EventKind, EventRecord, PerfLog, ProfileDump};
pub use histogram::{decade_index, modal_index, HistCell, TaskLane, TaskSizeHistogram};
pub use loopstats::{
    LoopTelemetry, LoopTelemetrySnapshot, ScheduleSnapshot, SpaceKindSnapshot, LOOP_SCHEDULES,
    LOOP_SCHEDULE_NAMES, LOOP_SPACE_KINDS, LOOP_SPACE_KIND_NAMES,
};
pub use stream::{
    chrome_json_from_dir, chrome_json_from_jsonl, final_summary, DrainSummary, SegmentHeader,
    StreamLine, TraceStream, TraceStreamConfig, TraceStreamStats, WorkerDrain,
};
pub use timeline::{render_task_counts, render_timeline, state_summary, StateSummaryRow};
pub use trace::{PromText, RingReader, TraceEvent, TraceLevel, TraceSnapshot, Tracer};
