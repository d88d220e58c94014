//! # xgomp-service
//!
//! A **persistent task-server runtime** on top of `xgomp-core`: serving
//! is one long region on a `Runtime`'s hot workers, so one team stays
//! alive across jobs; external threads submit work through NUMA-sharded
//! lock-less ingress queues, results come back through futures-style
//! [`JobHandle`]s, and an operator can change the DLB configuration
//! between generations (for example to the paper's Table-IV pick for the
//! task size at hand, `xgomp_core::guidelines::recommend_dlb`) without
//! losing a queued job.
//!
//! ## Architecture
//!
//! ```text
//!  submitter threads (any)        TaskServer
//!  ───────────────────────        ─────────────────────────────────────
//!  submit / try_submit  ──────▶  admission control (bounded in-flight)
//!  register_submitter(zone)              │
//!        │                               ▼
//!  [IngressShard zone 0] [zone 1] …   (one MPSC shard per NUMA zone;
//!        │        │                    lanes of lock-less B-queues —
//!        │ doorbell: wake one          registered submitters own a
//!        ▼ parked worker, zone-local   reserved SPSC lane, claim-free)
//!  idle workers + master drain their zone's shard, one job per poll,
//!  and spawn it into the XQueue lattice  ──▶  normal DLB scheduling
//!        │
//!        ▼
//!  job body runs (unwind-caught) ──▶ JobHandle completes
//!
//!  resume_with ──▶ the next generation's DlbConfig, held by value by
//!  that team's DLB engine for the generation's life
//! ```
//!
//! ## Idle/wake semantics
//!
//! An idle server burns ~0 CPU: workers that exhaust their spin backoff
//! park on the team's NUMA-aware [`Parker`](xgomp_core::Parker) (per
//! worker parking words, zone-grouped wake sets), and the serve loop
//! parks worker 0 the same way. Every submission rings a *doorbell*
//! after its push lands: one parked worker of the target shard's NUMA
//! zone is woken — zone-local before any remote worker, mirroring the
//! paper's NA-RP victim order — so a sleeping server starts a job within
//! microseconds rather than a scheduler quantum. Busy servers never
//! reach the parking path; the doorbell then costs one fence and one
//! relaxed load per submission. `RuntimeConfig::park_idle(false)`
//! restores the pure spin-idle mode (latency micro-optimization at the
//! price of one busy core per worker).
//!
//! ## Lifecycle: generations, pause/resume, config swap
//!
//! The server serves *generations* — one persistent-team region each.
//! [`TaskServer::pause`] drains the jobs already handed to the team and
//! parks everything (~0 CPU) while keeping the ingress tier, registered
//! lanes and every [`SubmitterHandle`] intact; submissions made while
//! paused queue for the next generation (bouncing with
//! [`SubmitError::Paused`] only at the in-flight bound).
//! [`TaskServer::resume`] reopens on the team's generation-stamped start
//! gate, and [`TaskServer::resume_with`] applies a whole new
//! [`RuntimeConfig`] at the boundary — worker count, barrier, topology,
//! DLB. That boundary is the only retune: a generation's team runs one
//! DLB configuration for its life, as the paper fixes one per run. See
//! the [server module](TaskServer) docs for the state-machine diagram.
//!
//! ## Serving robustness: QoS, cancellation, deadlines
//!
//! Every submission carries [`SubmitOptions`]: a [`QosClass`] shaping
//! admission (latency-sensitive traffic keeps a reserved slice of the
//! in-flight bound; background traffic is additionally class-capped)
//! and an optional **deadline**. [`JobHandle::cancel`] requests
//! *cooperative* cancellation — a queued job is shed on the spot, a
//! running one unwinds at its next checkpoint (loop chunk claim,
//! `taskwait`, static-block stride), abandoning its remaining loop
//! ranges into the `cancelled_iters` conservation counter. Expired
//! deadlines shed queued jobs from the serve loop's sweep and cancel
//! running ones the same cooperative way. Handles resolve with
//! `Result<R, `[`JobError`]`>`; `completed + cancelled + shed ==
//! submitted` holds exactly. See the README's "Serving semantics"
//! section for the full contract.
//!
//! ## Quickstart
//!
//! ```
//! use xgomp_service::{ServerConfig, TaskServer};
//!
//! let server = TaskServer::start(ServerConfig::new(2));
//! let handles: Vec<_> = (0..32u64)
//!     .map(|i| server.submit(move |_ctx| i * i).expect("server is open"))
//!     .collect();
//! let sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
//! assert_eq!(sum, (0..32u64).map(|i| i * i).sum());
//! let report = server.shutdown();
//! assert_eq!(report.stats.completed, 32);
//! ```
//!
//! Jobs receive a full [`TaskCtx`](xgomp_core::TaskCtx), so a job may
//! itself fan out into fine-grained tasks (`ctx.scope(...)`) that the
//! DLB engine balances across the team — the server is the front door,
//! not a replacement, for the paper's runtime.
//!
//! ## Data-parallel jobs
//!
//! [`TaskServer::submit_for`] serves whole *loops* as jobs: the body
//! runs once per point of any [`LoopSpace`] — a plain integer range or
//! an [`IterSpace`] 2-D/triangular shape — scheduled by a
//! [`LoopSchedule`] over NUMA-zone pane sets with zone-local-first
//! stealing (see `xgomp_core::loops`; spaces beyond `u32::MAX`
//! elements wave automatically). Admission, panic isolation and
//! pause/resume treat the loop exactly like any other job; the handle
//! completes with the loop's [`LoopReport`].
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//! use xgomp_service::{IterSpace, LoopSchedule, ServerConfig, TaskServer};
//!
//! let server = TaskServer::start(ServerConfig::new(2));
//! let sum = Arc::new(AtomicU64::new(0));
//! let s = sum.clone();
//! let report = server
//!     .submit_for(0..1_000u64, LoopSchedule::Guided(16), move |i, _ctx| {
//!         s.fetch_add(i, Ordering::Relaxed);
//!     })
//!     .expect("server is open")
//!     .join()
//!     .unwrap();
//! assert_eq!(report.iterations, 1_000);
//! assert_eq!(sum.load(Ordering::Relaxed), (0..1_000u64).sum());
//!
//! // A 2-D tiled space serves the same way: one point per cell.
//! let cells = Arc::new(AtomicU64::new(0));
//! let c = cells.clone();
//! let report = server
//!     .submit_for(
//!         IterSpace::rect(40, 25),
//!         LoopSchedule::Dynamic(4),
//!         move |(_row, _col), _ctx| {
//!             c.fetch_add(1, Ordering::Relaxed);
//!         },
//!     )
//!     .expect("server is open")
//!     .join()
//!     .unwrap();
//! assert_eq!(report.iterations, 40 * 25);
//! server.shutdown();
//! ```
//!
//! ## Where things live
//!
//! `server.rs` keeps [`TaskServer`], `start` and `shutdown`; each
//! decision of the serving layer is written once, in the submodule of
//! `server/` that owns it:
//!
//! * `admission` — the in-flight bound, QoS quotas, [`SubmitError`], the
//!   blocked-submit capacity handshake;
//! * `submitter` — the one submission pipeline (admit → wrap → place),
//!   the [`Submission`] view and [`SubmitterHandle`];
//! * `placement` — route → ring push / spill-on-pause / doorbell, and
//!   the drain side the workers poll;
//! * `deadline` — the pending-deadline set and the serve loop's sweep;
//! * `lifecycle` — states, pause/resume/config swap, master + serve loops;
//! * `stats` — counters, the one metric table, Prometheus rendering
//!   (`collector`: the streaming trace drain).
//!
//! ## Blocking inside jobs
//!
//! Workers are cooperative: a job that *parks* its worker on another
//! job's completion can deadlock the team, because only a row's owner
//! may pop (or migrate away) the tasks queued in its own lattice row.
//! From inside a job, prefer `ctx.scope` for fan-out; when you must
//! wait on another **submitted job**, use
//! [`JobHandle::join_within`] (which keeps the worker executing pending
//! tasks while it waits) instead of [`JobHandle::join`], and prefer
//! [`TaskServer::try_submit`] over the blocking
//! [`TaskServer::submit`]. A wait with a deadline
//! ([`JobHandle::join_within_timeout`]) never starts a fresh job nested
//! on the waiter's stack — nothing could preempt it when the deadline
//! passes — so it helps with its own worker's queued tasks only.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

mod handle;
mod ingress;
mod metrics;
mod server;

pub use handle::{JobError, JobHandle, JobPanic, JobReport, JoinTimeout};
pub use ingress::{IngressShard, ShardedIngress};
pub use server::{
    Lifecycle, LifecycleError, QosClassStats, ServerReport, ServerStats, Submission, SubmitError,
    SubmitterHandle, TaskServer, STABLE_METRIC_FAMILIES,
};

// Cancellation primitives a caller may want to inspect (the token's
// reason enum shows up through `JobError`); defined in `xgomp-core`
// because the checkpoints live in the scheduler.
pub use xgomp_core::{CancelReason, CancelToken};

// Loop-subsystem types a data-parallel client needs, re-exported so
// `submit_for` is usable from this crate alone.
pub use xgomp_core::{
    auto_portfolio_member, AutoSiteStatus, IterSpace, LoopError, LoopId, LoopReport, LoopSchedule,
    LoopSpace, LoopTelemetrySnapshot, SpaceKind, AUTO_CONFIRM_WINDOWS, AUTO_FALLBACK,
    AUTO_PORTFOLIO_LEN, AUTO_TRIALS_PER_MEMBER,
};

// Flight-recorder types surfaced by the server's observability API
// (`trace_snapshot` / `dump_trace` / `set_trace_level`), re-exported for
// the same reason.
pub use xgomp_core::{TraceEvent, TraceLevel, TraceSnapshot};

// Continuous-pipeline types: the rolling on-disk stream the collector
// thread drives (`ServerConfig::trace_stream`) and its counters
// (`TaskServer::trace_stream_stats`).
pub use xgomp_core::{TraceStreamConfig, TraceStreamStats};

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use xgomp_core::{DlbConfig, DlbStrategy, RuntimeConfig};

/// Locks `m`, tolerating poison. Every mutex in this crate guards state
/// that is valid at each step of every update (queues, option slots,
/// control words) and no job body ever runs under one, so a panic that
/// poisoned the lock left nothing torn — recover the guard instead of
/// cascading the panic into submitters and `Drop`.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison tolerance as [`locked`].
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] with the same poison tolerance as
/// [`locked`]; every caller re-checks its own condition and deadline, so
/// the timed-out flag is dropped.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    let (guard, _timed_out) = cv
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner);
    guard
}

/// Quality-of-service class of a submitted job, set via
/// [`SubmitOptions::qos`]. Classes shape **admission** (per-class quotas
/// carved out of the in-flight bound) and **shedding order** (Background
/// deadlines are the first capacity reclaimed under overload); they do
/// not change how an admitted job is scheduled inside the team.
///
/// * [`LatencySensitive`](Self::LatencySensitive) may use the *entire*
///   in-flight bound, including the slots
///   ([`ServerConfig::ls_reserve`]) that the other classes are excluded
///   from — so a flood of background work can never starve an
///   interactive submitter of admission capacity.
/// * [`Normal`](Self::Normal) (the default) admits while
///   `in_flight < max_in_flight − ls_reserve`.
/// * [`Background`](Self::Background) shares Normal's bound **and** is
///   additionally capped at [`ServerConfig::background_cap`] jobs of its
///   own class in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QosClass {
    /// Interactive traffic: admitted up to the full in-flight bound.
    LatencySensitive,
    /// The default class: excluded from the latency-sensitive reserve.
    #[default]
    Normal,
    /// Bulk/best-effort traffic: Normal's bound plus its own class cap;
    /// first to be shed when deadlines expire under overload.
    Background,
}

impl QosClass {
    /// All classes, in admission-priority order.
    pub const ALL: [QosClass; 3] = [
        QosClass::LatencySensitive,
        QosClass::Normal,
        QosClass::Background,
    ];

    /// Dense index (0..3) for per-class counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable label value used in metric exposition.
    pub fn name(self) -> &'static str {
        match self {
            QosClass::LatencySensitive => "latency_sensitive",
            QosClass::Normal => "normal",
            QosClass::Background => "background",
        }
    }
}

/// Per-submission options: QoS class and an optional deadline. Carried
/// by a [`Submission`] view — `server.with(opts).submit(..)`,
/// `handle.with(opts).try_submit(..)`; the plain `submit` flavors are
/// shorthand for `SubmitOptions::default()` (Normal class, no
/// deadline).
///
/// ```
/// use std::time::Duration;
/// use xgomp_service::{QosClass, SubmitOptions};
///
/// let opts = SubmitOptions::new()
///     .qos(QosClass::Background)
///     .deadline(Duration::from_millis(50));
/// assert_eq!(opts.qos, QosClass::Background);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Admission/shedding class (default [`QosClass::Normal`]).
    pub qos: QosClass,
    /// Relative deadline, measured from admission. A job whose deadline
    /// passes while still queued is **shed** (its body never runs;
    /// the handle resolves with `JobError::DeadlineExceeded`); a job
    /// already running is cancelled cooperatively at its next
    /// checkpoint. `None` (the default) = no deadline.
    pub deadline: Option<std::time::Duration>,
    /// Loop-site identity for `submit_for` under
    /// [`LoopSchedule::Auto`]: instances sharing a [`LoopId`] share one
    /// online-selection state, so the selector's learning accumulates
    /// across submissions of the same logical loop. `None` (the
    /// default) keys Auto state by iteration-space shape instead.
    /// Ignored by non-loop submissions and non-Auto schedules.
    pub loop_site: Option<LoopId>,
}

impl SubmitOptions {
    /// Normal class, no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the QoS class.
    pub fn qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Sets the relative deadline (from admission).
    pub fn deadline(mut self, d: std::time::Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Names the loop site for `Schedule::Auto` state sharing (see
    /// [`loop_site`](Self::loop_site)).
    pub fn site(mut self, id: LoopId) -> Self {
        self.loop_site = Some(id);
        self
    }
}

impl From<QosClass> for SubmitOptions {
    fn from(qos: QosClass) -> Self {
        SubmitOptions::new().qos(qos)
    }
}

/// Configuration of a [`TaskServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Team shape and scheduler. Use an XQueue-based preset (the
    /// default, [`RuntimeConfig::xgomptb`]) — DLB has no effect on the
    /// GOMP/LOMP baselines. When `runtime.dlb` is `None`, the server
    /// runs the first generation with the NA-WS defaults.
    pub runtime: RuntimeConfig,
    /// Admission bound: jobs submitted but not yet completed. `submit`
    /// parks and `try_submit` fails while at the bound. Must be ≥ 1
    /// ([`TaskServer::start`] panics on 0 — a zero bound admits nothing,
    /// ever). The *effective* bound is this value clamped to the total
    /// ingress ring capacity (`lanes_per_shard × lane_capacity × shards`,
    /// after the per-lane power-of-two round-up), so an admitted job
    /// always finds a slot; the clamped value is surfaced as
    /// [`ServerStats::max_in_flight`].
    pub max_in_flight: usize,
    /// SPSC lanes per ingress shard. Lane 0 of each shard serves the
    /// anonymous claim path; the rest can be pinned to registered
    /// submitters ([`TaskServer::register_submitter`]), so size this as
    /// expected registered submitters per zone plus one.
    pub lanes_per_shard: usize,
    /// Slots per lane (rounded up to a power of two by the B-queue).
    pub lane_capacity: usize,
    /// Print a line to stderr on every effective DLB retune (a
    /// [`TaskServer::resume_with`] whose DLB changes the configuration).
    pub log_retunes: bool,
    /// Directory for *automatic* flight-recorder dumps: a panicking job
    /// writes `panic-job-<id>.trace.json` (before its handle completes)
    /// and shutdown writes `shutdown.trace.json` — both only while the
    /// trace level is at least [`TraceLevel::Lifecycle`]. `None`
    /// disables automatic dumps; [`TaskServer::dump_trace`] always works
    /// regardless. The default honors the `XGOMP_TRACE_PATH` environment
    /// variable.
    pub trace_dump: Option<std::path::PathBuf>,
    /// In-flight slots reserved for [`QosClass::LatencySensitive`]
    /// submissions: Normal and Background jobs admit only while
    /// `in_flight < max_in_flight − ls_reserve`. `None` defaults to a
    /// quarter of the (effective) in-flight bound; the resolved value is
    /// clamped so non-LS classes always keep at least one slot.
    pub ls_reserve: Option<usize>,
    /// Class cap for [`QosClass::Background`]: at most this many
    /// background jobs in flight at once, independent of total capacity.
    /// `None` defaults to half of the (effective) in-flight bound
    /// (minimum 1).
    pub background_cap: Option<usize>,
    /// Continuous trace pipeline: when set, the server runs a collector
    /// thread that tails every worker's event ring on a cadence
    /// ([`trace_stream_interval`](Self::trace_stream_interval)) into a
    /// rolling on-disk JSONL stream (size/age rotation plus a retention
    /// cap — see [`TraceStreamConfig`]). The default honors the
    /// `XGOMP_TRACE_STREAM` environment variable as a directory with
    /// default rotation settings. Records reach disk only while the
    /// trace level is above [`TraceLevel::Off`], like every other
    /// flight-recorder surface.
    pub trace_stream: Option<TraceStreamConfig>,
    /// Collector cadence: how often the streaming drain tails the
    /// rings. Shorter keeps up with hotter event rates (a cycle must
    /// run before a ring wraps); longer costs less. Clamped to ≥ 100 µs.
    pub trace_stream_interval: std::time::Duration,
    /// In-process metrics endpoint: when set, the server binds a tiny
    /// blocking HTTP/1.1 listener on this address (e.g.
    /// `"127.0.0.1:9184"`; port `0` picks an ephemeral port, surfaced
    /// by [`TaskServer::metrics_local_addr`]) serving the full
    /// Prometheus exposition on `GET /metrics` and a JSON liveness
    /// probe on `GET /healthz`. The default honors the
    /// `XGOMP_METRICS_ADDR` environment variable.
    pub metrics_addr: Option<String>,
}

impl ServerConfig {
    /// Server defaults on an XGOMPTB team of `threads` workers.
    pub fn new(threads: usize) -> Self {
        ServerConfig {
            runtime: RuntimeConfig::xgomptb(threads).dlb(DlbConfig::new(DlbStrategy::WorkSteal)),
            max_in_flight: 1_024,
            lanes_per_shard: 8,
            lane_capacity: 128,
            log_retunes: false,
            trace_dump: std::env::var_os("XGOMP_TRACE_PATH").map(std::path::PathBuf::from),
            ls_reserve: None,
            background_cap: None,
            trace_stream: std::env::var_os("XGOMP_TRACE_STREAM")
                .map(|dir| TraceStreamConfig::new(std::path::PathBuf::from(dir))),
            trace_stream_interval: std::time::Duration::from_millis(2),
            metrics_addr: std::env::var("XGOMP_METRICS_ADDR").ok(),
        }
    }

    /// Replaces the runtime configuration.
    pub fn runtime(mut self, rt: RuntimeConfig) -> Self {
        self.runtime = rt;
        self
    }

    /// Sets the in-flight admission bound.
    ///
    /// # Panics
    ///
    /// Panics on `0` — the old behavior silently substituted `1`, which
    /// masked a configuration bug (see
    /// [`max_in_flight`](Self::max_in_flight) for the semantics).
    pub fn max_in_flight(mut self, n: usize) -> Self {
        assert!(
            n > 0,
            "ServerConfig::max_in_flight must be ≥ 1: a bound of 0 admits no job ever"
        );
        self.max_in_flight = n;
        self
    }

    /// Sets lanes per shard (≥ 1).
    pub fn lanes_per_shard(mut self, n: usize) -> Self {
        self.lanes_per_shard = n.max(1);
        self
    }

    /// Sets slots per lane (≥ 2).
    pub fn lane_capacity(mut self, n: usize) -> Self {
        self.lane_capacity = n.max(2);
        self
    }

    /// Toggles retune logging.
    pub fn log_retunes(mut self, on: bool) -> Self {
        self.log_retunes = on;
        self
    }

    /// Sets the automatic flight-recorder dump directory (see
    /// [`trace_dump`](Self::trace_dump)).
    pub fn trace_dump(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.trace_dump = Some(dir.into());
        self
    }

    /// Sets the latency-sensitive admission reserve (see
    /// [`ls_reserve`](Self::ls_reserve); `0` disables the carve-out).
    pub fn ls_reserve(mut self, n: usize) -> Self {
        self.ls_reserve = Some(n);
        self
    }

    /// Sets the background in-flight class cap (see
    /// [`background_cap`](Self::background_cap); clamped to ≥ 1).
    pub fn background_cap(mut self, n: usize) -> Self {
        self.background_cap = Some(n);
        self
    }

    /// Enables the continuous trace pipeline: rolling JSONL segments
    /// under `dir`, rotated past `rotate_bytes`, keeping the newest
    /// `keep` segments (see [`trace_stream`](Self::trace_stream); set
    /// the field directly for full control — age rotation, etc.).
    pub fn trace_stream(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        rotate_bytes: u64,
        keep: usize,
    ) -> Self {
        self.trace_stream = Some(
            TraceStreamConfig::new(dir.into())
                .rotate_bytes(rotate_bytes)
                .keep(keep),
        );
        self
    }

    /// Sets the collector cadence (see
    /// [`trace_stream_interval`](Self::trace_stream_interval)).
    pub fn trace_stream_interval(mut self, d: std::time::Duration) -> Self {
        self.trace_stream_interval = d.max(std::time::Duration::from_micros(100));
        self
    }

    /// Enables the in-process `/metrics` + `/healthz` endpoint on
    /// `addr` (see [`metrics_addr`](Self::metrics_addr)).
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }
}
