//! The [`TaskServer`]: a persistent executor serving jobs from arbitrary
//! threads, with event-driven idling, registered ingress lanes, and
//! multi-generation serving (pause / resume / config swap).
//!
//! Submission-side architecture (see the crate docs for the full
//! picture):
//!
//! * **Admission** — a bounded in-flight count gates every path;
//! * **Placement** — anonymous submitters rotate over the claim-guarded
//!   lanes of their hinted shard; *registered* submitters
//!   ([`TaskServer::register_submitter`]) own a reserved lane and push
//!   with plain SPSC stores, no claims at all;
//! * **Doorbell** — after the push lands, the submitter wakes one parked
//!   worker in the target shard's NUMA zone (zone-local first, exactly
//!   the NA-RP victim order). While the team is busy this is one fence
//!   plus one relaxed load; while the team sleeps it is the microsecond
//!   path from "job queued" to "worker running it".
//!
//! ## Generations
//!
//! The server serves *generations*: one [`Runtime::serve`](xgomp_core::Runtime::serve) region on
//! the runtime's hot workers per generation. [`TaskServer::pause`] completes
//! every job admitted before it — wherever it was — and retires the
//! generation once every job still in flight sits in the spill: every worker
//! parks (aux workers on the team's start gate, the master on the
//! control condvar; ~0 CPU), while the ingress tier, registered lanes,
//! and all [`SubmitterHandle`]s stay exactly as they were. Submissions
//! made from the pause onward are admitted (up to the in-flight bound)
//! and queue for the next generation; at the bound they bounce with
//! [`SubmitError::Paused`].
//! [`TaskServer::resume`] opens the next generation on the team's
//! generation-stamped start gate; [`TaskServer::resume_with`] applies a
//! new [`RuntimeConfig`] at the boundary — growing or shrinking the
//! worker set and re-mapping workers/doorbells onto the (persistent)
//! ingress shards when the zone map changes — and
//! [`TaskServer::swap_tuning`] hot-swaps the DLB configuration at any
//! time. Those two are the only writers of the DLB tuning cell after
//! start: the server retunes only when an operator asks.
//!
//! ```text
//!            ┌────────────────────── resume / resume_with ────────────────┐
//!            ▼                                                            │
//!       ┌─────────┐   pause()    ┌──────────┐  every pre-pause job   ┌────────┐
//!  ───▶ │ Serving │ ───────────▶ │ Draining │ ─────────────────────▶ │ Paused │
//!       └─────────┘              └──────────┘  finished; later ones  └────────┘
//!            │                        │        spilled; workers park      │
//!            │ shutdown()             │ shutdown()           shutdown()   │
//!            ▼                        ▼                                   ▼
//!       ┌──────────────────────────────────────────────────────────────────┐
//!       │ Closed: admission rejected, full drain (queued jobs too),        │
//!       │ team torn down, per-generation telemetry returned                │
//!       └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The serve loop itself parks worker 0 once its backoff saturates, so a
//! fully idle server occupies zero cores; the doorbell (or a lifecycle
//! transition) brings it back.
//!
//! The crate docs' "Where things live" map says which submodule owns
//! which decision.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::handle::JobRef;
use crate::ingress::ShardedIngress;
use crate::metrics::{MetricsHooks, MetricsListener};
use crate::ServerConfig;
use xgomp_core::{
    AutoSelector, DlbConfig, DlbStrategy, DlbTuning, LoopTelemetry, ParkerCell, RegionOutput,
    TraceStream, Tracer,
};
use xgomp_xqueue::{CachePadded, Cells};

mod admission;
mod collector;
mod deadline;
mod lifecycle;
mod placement;
mod stats;
mod submitter;

pub use admission::SubmitError;
pub use lifecycle::{Lifecycle, LifecycleError};
pub use stats::{QosClassStats, ServerStats, STABLE_METRIC_FAMILIES};
pub use submitter::{Submission, SubmitterHandle};

use collector::TraceCollector;
use deadline::Deadlines;
use lifecycle::{ControlPlane, CLOSING, SERVING};
use stats::{ObsCounters, Outcomes};

/// State shared between submitters, the drain hook, and the master loop.
struct ServerShared {
    ingress: ShardedIngress,
    /// shard → NUMA zone for doorbell targeting, re-mapped at every
    /// generation boundary (a config swap may change the zone map; the
    /// shard set itself is fixed so pinned lanes stay valid).
    zone_of_shard: Box<[AtomicUsize]>,
    /// The doorbell: publishes the current generation's parker to
    /// submitters and accumulates park/wake counters across generations.
    doorbell: ParkerCell,
    /// Lifecycle state machine (`SERVING`/`DRAINING`/`PAUSED`/`CLOSING`).
    /// Written only under the `ctl` lock (or by the exclusive-borrow
    /// shutdown path); read lock-free on the hot paths.
    state: AtomicU32,
    /// Workers of the current/next generation (reported as "parked"
    /// while the server is paused — they sit on the team's start gate).
    current_threads: AtomicUsize,
    /// Generations opened so far.
    generation: AtomicU64,
    /// Jobs admitted and not yet finished, wherever they are — the one
    /// job ledger: admission bounds it, the job wrapper retires from it,
    /// and both drains read it (see `serve_loop`).
    in_flight: AtomicUsize,
    max_in_flight: usize,
    /// In-flight slots only [`QosClass::LatencySensitive`] may use:
    /// Normal/Background admission stops at `max_in_flight − ls_reserve`.
    ///
    /// [`QosClass::LatencySensitive`]: crate::QosClass::LatencySensitive
    ls_reserve: usize,
    /// Class cap for [`QosClass::Background`](crate::QosClass::Background)
    /// jobs in flight.
    bg_cap: usize,
    /// Background jobs currently in flight (admission + wrapper drain,
    /// same discipline as `in_flight`).
    bg_in_flight: AtomicUsize,
    rejected: AtomicU64,
    /// Jobs admitted per QoS class (indexed by `QosClass::index()`),
    /// bumped by submitters, each alone on its line.
    submitted: [CachePadded<AtomicU64>; 3],
    /// Job outcomes and latency histograms, one cell per worker (every
    /// class in each), written only by the job wrapper on that worker
    /// and claimed by each generation for its workers. With `submitted`,
    /// the only cells the job counts live in: the server-wide and
    /// per-class totals are their sums (see `stats`).
    outcomes: Arc<Cells<Outcomes>>,
    /// Pending deadlines, swept by the serve loop.
    deadlines: Deadlines,
    /// Where jobs placed from a pause onward wait for the next (or the
    /// closing) generation; bounded by the admission clamp, drained
    /// before the ingress at every poll (see `drain_spill`).
    spill: Mutex<VecDeque<JobRef>>,
    spill_nonempty: AtomicBool,
    /// Blocked `submit` callers parked on `bp_cv` (instead of the old
    /// spin-retry); completions notify when someone is waiting.
    bp_waiters: AtomicUsize,
    bp_lock: Mutex<()>,
    bp_cv: Condvar,
    /// Control plane: lifecycle transitions and the resume command.
    ctl: Mutex<ControlPlane>,
    ctl_cv: Condvar,
    /// The DLB configuration cell driving every generation's team;
    /// seeded from the config, then stored only by `swap_tuning` and
    /// `resume_with`.
    tuning: Arc<DlbTuning>,
    /// Print a line to stderr whenever one of those stores changes the
    /// configuration (`ServerConfig::log_retunes`).
    log_retunes: bool,
    /// Bumped on every `swap_tuning` and `resume_with`; the `Auto`
    /// selector re-explores when it observes a change.
    swap_epoch: Arc<AtomicU64>,
    /// Loop-subsystem telemetry (`parallel_for` chunk/steal counters),
    /// owned by the *server*, not by any generation: every generation's
    /// team folds into the same block, so — like the ingress lane
    /// counters — these survive pause/resume cycles and config swaps.
    loop_stats: Arc<LoopTelemetry>,
    /// The `Schedule::Auto` online selector, server-owned like the loop
    /// telemetry: per-site trial state and convergence ride
    /// across generations, so a loop site submitted before a pause keeps
    /// its learned schedule after `resume`. Watches `swap_epoch` — a
    /// `swap_tuning` (or `resume_with`) bump sends every site back to
    /// exploration.
    auto_select: Arc<AutoSelector>,
    /// The flight recorder: one lock-free event ring per worker, shared
    /// with every generation's team (the same `Arc` is handed to
    /// `Runtime::serve`, so `ctx.trace_emit` in job bodies and the server's
    /// own snapshot/dump paths see one recorder). Always present; the
    /// level gates every emission — `Off` costs one relaxed load per
    /// site — and is live-flippable via [`TaskServer::set_trace_level`].
    tracer: Arc<Tracer>,
    /// Monotone job-id allocator (ids start at 1; `0` means untracked).
    /// The id keys the job's `JobStart`/`JobEnd` async trace span and
    /// its [`JobReport`](crate::JobReport).
    job_seq: AtomicU64,
    /// Directory for automatic flight-recorder dumps (job panic,
    /// shutdown); `None` disables automatic dumps.
    trace_dump: Option<std::path::PathBuf>,
    /// Continuous-pipeline counters (streaming collector + `/metrics`
    /// endpoint). Always present and always rendered — zero when the
    /// corresponding feature is unconfigured — so the stable metric
    /// family set does not depend on configuration.
    obs: ObsCounters,
}

/// What [`TaskServer::shutdown`] returns after the drain.
pub struct ServerReport {
    /// Final counters.
    pub stats: ServerStats,
    /// Telemetry of the final serve generation (per-worker §V counters,
    /// wall time, event logs when profiling was on). `None` only when the
    /// serve ended abnormally (master thread panicked — a runtime bug,
    /// since job panics are isolated).
    pub region: Option<RegionOutput<()>>,
    /// Telemetry of every earlier generation, in serve order (one entry
    /// per completed pause/swap cycle). Empty for a single-generation
    /// server.
    pub prior_regions: Vec<RegionOutput<()>>,
}

/// A persistent executor serving jobs from arbitrary threads.
///
/// See the [crate docs](crate) for the architecture; construction starts
/// the team, [`pause`](Self::pause)/[`resume`](Self::resume)/
/// [`resume_with`](Self::resume_with) manage generations, and
/// [`shutdown`](Self::shutdown) drains everything in flight and returns
/// the per-generation telemetry. Dropping without `shutdown` performs the
/// same drain.
pub struct TaskServer {
    shared: Arc<ServerShared>,
    master: Option<std::thread::JoinHandle<Vec<RegionOutput<()>>>>,
    /// Streaming trace collector (`ServerConfig::trace_stream`): stopped
    /// with one final exact drain after the master joins at shutdown.
    collector: Option<TraceCollector>,
    /// In-process `/metrics` + `/healthz` endpoint
    /// (`ServerConfig::metrics_addr`): torn down last at shutdown.
    listener: Option<MetricsListener>,
}

impl TaskServer {
    /// Starts the team and begins serving generation 1.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.max_in_flight` is `0` — that bound would reject
    /// every submission, which is never what a caller wants (the old
    /// behavior silently substituted `1`).
    pub fn start(cfg: ServerConfig) -> Self {
        assert!(
            cfg.max_in_flight > 0,
            "ServerConfig::max_in_flight must be ≥ 1: a bound of 0 admits no job ever"
        );
        let rt = cfg.runtime.clone();

        // One shard per NUMA zone of the *initial* placement. The shard
        // set is fixed for the server's lifetime (pinned lanes keep their
        // coordinates); later generations re-map onto it.
        let n_shards = lifecycle::placement_zones(&rt).1.len();
        let (shard_of_worker, zone_of_shard) = lifecycle::generation_layout(&rt, n_shards);

        let ingress = ShardedIngress::new(n_shards, cfg.lanes_per_shard, cfg.lane_capacity);
        // Admitted jobs never outnumber the ring slots *in total*, so the
        // anonymous placement loop always has a free slot to find (a
        // pinned job still waits on its own lane's drains — see `place`).
        // The effective bound is surfaced in `ServerStats::max_in_flight`.
        let max_in_flight = cfg.max_in_flight.min(ingress.capacity());
        // QoS quota resolution, against the *effective* bound. The
        // reserve is clamped so Normal/Background always keep at least
        // one slot; the background cap is at least one so the class is
        // never configured out of existence.
        let ls_reserve = cfg
            .ls_reserve
            .unwrap_or(max_in_flight / 4)
            .min(max_in_flight.saturating_sub(1));
        let bg_cap = cfg
            .background_cap
            .unwrap_or(max_in_flight / 2)
            .clamp(1, max_in_flight);

        let initial_dlb = rt
            .dlb
            .unwrap_or_else(|| DlbConfig::new(DlbStrategy::WorkSteal));
        let tuning = Arc::new(DlbTuning::new(initial_dlb));
        // `Schedule::Auto` selector: watches the swap epoch so a tuning
        // swap re-opens exploration at every converged loop site.
        let swap_epoch = Arc::new(AtomicU64::new(0));
        let auto_select = Arc::new(AutoSelector::new());
        auto_select.watch_swaps(swap_epoch.clone());

        let shared = Arc::new(ServerShared {
            ingress,
            zone_of_shard: zone_of_shard.iter().map(|&z| AtomicUsize::new(z)).collect(),
            doorbell: ParkerCell::new(),
            state: AtomicU32::new(SERVING),
            current_threads: AtomicUsize::new(rt.threads),
            generation: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            max_in_flight,
            ls_reserve,
            bg_cap,
            bg_in_flight: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            submitted: Default::default(),
            outcomes: Arc::default(),
            deadlines: Deadlines::default(),
            spill: Mutex::new(VecDeque::new()),
            spill_nonempty: AtomicBool::new(false),
            bp_waiters: AtomicUsize::new(0),
            bp_lock: Mutex::new(()),
            bp_cv: Condvar::new(),
            ctl: Mutex::new(ControlPlane::default()),
            ctl_cv: Condvar::new(),
            tuning,
            log_retunes: cfg.log_retunes,
            swap_epoch,
            loop_stats: Arc::new(LoopTelemetry::new()),
            auto_select,
            // Server-owned so it spans generations (the same rings are
            // handed to every generation's team) and stays drainable
            // after shutdown.
            tracer: Arc::new(Tracer::new(rt.trace)),
            job_seq: AtomicU64::new(0),
            trace_dump: cfg.trace_dump.clone(),
            obs: ObsCounters::default(),
        });

        // Continuous pipeline, both halves optional and independent: a
        // setup failure disables the feature with a stderr note rather
        // than failing the server.
        let collector = cfg
            .trace_stream
            .clone()
            .and_then(|sc| match TraceStream::create(sc) {
                Ok(stream) => Some(TraceCollector::spawn(
                    shared.clone(),
                    stream,
                    cfg.trace_stream_interval.max(Duration::from_micros(100)),
                )),
                Err(e) => {
                    eprintln!("xgomp-service: trace stream disabled ({e})");
                    None
                }
            });
        let listener = cfg.metrics_addr.as_deref().and_then(|addr| {
            let hooks = MetricsHooks {
                render: {
                    let shared = shared.clone();
                    Box::new(move || {
                        shared.obs.metrics_scrapes.fetch_add(1, Ordering::Relaxed);
                        shared.render_prometheus()
                    })
                },
                health: {
                    let shared = shared.clone();
                    Box::new(move || shared.health_json())
                },
            };
            match MetricsListener::bind(addr, hooks) {
                Ok(l) => Some(l),
                Err(e) => {
                    eprintln!("xgomp-service: metrics listener disabled ({addr}: {e})");
                    None
                }
            }
        });

        let master = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("xgomp-service-master".into())
                .spawn(move || lifecycle::master_loop(shared, rt, shard_of_worker))
                .expect("spawn service master")
        };

        TaskServer {
            shared,
            master: Some(master),
            collector,
            listener,
        }
    }

    /// Closes admission, waits for every admitted job — queued ones
    /// included — to complete, and tears the team down.
    pub fn shutdown(mut self) -> ServerReport {
        let joined = self.shutdown_inner().expect("server not yet shut down");
        let (region, prior_regions) = match joined {
            Ok(mut regions) => {
                let last = regions.pop();
                (last, regions)
            }
            Err(_) => (None, Vec::new()),
        };
        ServerReport {
            stats: self.stats(),
            region,
            prior_regions,
        }
    }

    /// Outer `None`: already shut down. Inner `Err`: the master thread
    /// panicked (runtime bug); the payload is swallowed here so `Drop`
    /// never panics-in-drop — `shutdown` surfaces it as `region: None`.
    #[allow(clippy::type_complexity)]
    fn shutdown_inner(&mut self) -> Option<std::thread::Result<Vec<RegionOutput<()>>>> {
        let master = self.master.take()?;
        {
            let _ctl = crate::locked(&self.shared.ctl);
            self.shared.state.store(CLOSING, Ordering::SeqCst);
            self.shared.ctl_cv.notify_all();
        }
        // Blocked submitters abort with `Closed`.
        self.shared.notify_capacity();
        // The whole team may be asleep; `CLOSING` rings no doorbell on
        // its own. (An unpublished doorbell means the serve loop hasn't
        // started — it re-reads the state before it ever parks.)
        self.shared.doorbell.with_current(|p| p.unpark_all());
        let joined = master.join();
        // After the join every ring is quiet: stop the collector first —
        // its final drain + summary states the conservation identity
        // exactly — then take the shutdown snapshot (a different reader:
        // it still sees the whole retained window), and tear the scrape
        // endpoint down last so a scraper can watch the server all the
        // way through `closing`.
        if let Some(c) = self.collector.take() {
            c.stop();
        }
        self.shared.dump_flight_recorder("shutdown.trace.json");
        if let Some(mut l) = self.listener.take() {
            l.shutdown();
        }
        Some(joined)
    }
}

impl Drop for TaskServer {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests;
