//! Counters and their exposition: the per-worker job-outcome cells and
//! their latency histograms, the [`ServerStats`] snapshot, the one metric
//! table every Prometheus family is spelled in, and the `TaskServer`
//! observability accessors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use super::lifecycle::{DRAINING, PAUSED, SERVING};
use super::{ServerShared, TaskServer};
use crate::ingress::ShardedIngress;
use crate::{locked, QosClass};
use xgomp_core::{
    clock, AutoSiteStatus, DlbConfig, LoopId, LoopTelemetrySnapshot, PromText, TraceLevel,
    TraceSnapshot, TraceStreamStats,
};
use xgomp_profiling::HistCell;

/// Fixed upper bounds (seconds) of the per-class job latency histograms
/// (`xgomp_job_{queued,run}_seconds`). Log-spaced from 1 µs to 10 s and
/// *stable*: dashboards key on these `le` edges.
const LATENCY_BUCKETS_SECS: [f64; 12] = [
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
];

/// Bucket cells of one [`LatencyHist`]: one per `le` edge, plus the
/// overflow cell for samples above the last edge.
const HIST_CELLS: usize = LATENCY_BUCKETS_SECS.len() + 1;

/// The `le` edges in clock ticks, converted once per process: edge `i` is
/// the largest tick count whose [`clock::ticks_to_secs`] is at most
/// `LATENCY_BUCKETS_SECS[i]`. That conversion is monotone, so
/// `ticks <= edge` picks exactly the bucket the float rule `secs <= le`
/// picks, with no per-sample float conversion.
fn le_ticks() -> &'static [u64; 12] {
    static LE: OnceLock<[u64; 12]> = OnceLock::new();
    LE.get_or_init(|| {
        LATENCY_BUCKETS_SECS.map(|le| {
            let mut t = (le * 1e9 * clock::cycles_per_ns()) as u64;
            while clock::ticks_to_secs(t) > le {
                t -= 1;
            }
            while clock::ticks_to_secs(t + 1) <= le {
                t += 1;
            }
            t
        })
    })
}

/// One fixed-bucket latency histogram: the one single-writer
/// [`HistCell`] over the stable `le` edges, recording clock ticks and
/// exposing seconds. Buckets store *non*-cumulative counts; the render
/// path cumulates (the exposition format wants cumulative `le` counts,
/// but recording then would need N increments per sample). `+Inf` and
/// `_count` are the sum of every bucket read in the same pass, so a
/// scrape racing a record can never show a finite bucket above `+Inf`.
#[derive(Default)]
pub(super) struct LatencyHist(HistCell<HIST_CELLS>);

impl LatencyHist {
    /// Records one sample against the edges in ticks; the histogram's
    /// worker is its one writer.
    pub(super) fn record_ticks(&self, ticks: u64) {
        let bucket = le_ticks().partition_point(|&le| le < ticks);
        self.0.record_at(bucket, ticks);
    }

    /// (cumulative bucket counts, sum in seconds, total observations) of
    /// the merge of `hists` — one histogram per worker's outcome cell.
    fn render_parts<'a>(hists: impl Iterator<Item = &'a LatencyHist>) -> (Vec<u64>, f64, u64) {
        let (mut cells, mut sum_ticks) = ([0u64; HIST_CELLS], 0u64);
        for h in hists {
            for (acc, c) in cells.iter_mut().zip(h.0.buckets()) {
                *acc += c;
            }
            sum_ticks += h.0.sum();
        }
        // `le` edge `i` counts cells `0..=i`; `+Inf`, every cell.
        let cumulative = (1..HIST_CELLS).map(|i| cells[..i].iter().sum()).collect();
        let count = cells.iter().sum();
        (cumulative, clock::ticks_to_secs(sum_ticks), count)
    }
}

/// One QoS class's job outcomes on one worker. The outcomes are
/// disjoint — `cancelled`: the body started and was then terminated at a
/// cancellation checkpoint; `shed`: resolved without the body ever
/// running (cancel/deadline won the race out of `QUEUED`) — so summed
/// over the workers, `completed + cancelled + shed` drains to the
/// class's `submitted` exactly.
#[derive(Default)]
pub(super) struct ClassOutcomes {
    pub(super) completed: AtomicU64,
    pub(super) cancelled: AtomicU64,
    pub(super) shed: AtomicU64,
    pub(super) queued_hist: LatencyHist,
    pub(super) run_hist: LatencyHist,
}

/// One worker's job-outcome cell: every QoS class, indexed by
/// `QosClass::index`. It is that worker's seat of the server's outcome
/// [`Cells`](xgomp_xqueue::Cells), claimed per generation, and only the
/// job wrapper running on that worker writes it — relaxed load + store,
/// never an RMW — so a completion writes no line another worker or the
/// submitter writes. Every reader sums over the workers; a sum of
/// monotone cells is monotone, so snapshots keep the
/// [`ServerStats::delta`] contract.
pub(super) type Outcomes = [ClassOutcomes; 3];

/// Point-in-time per-class job counters ([`TaskServer::class_stats`]).
/// The partition is exact once the class is quiescent:
/// `submitted == completed + cancelled + shed` (+ still-in-flight jobs
/// while serving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosClassStats {
    /// The class these counters describe.
    pub class: QosClass,
    /// Jobs of this class accepted by admission control.
    pub submitted: u64,
    /// Jobs whose body ran to its own end (including panicked bodies).
    pub completed: u64,
    /// Jobs whose body started and was then terminated at a
    /// cancellation checkpoint (explicit cancel or expired deadline).
    pub cancelled: u64,
    /// Jobs shed before their body ever ran (cancelled while queued, or
    /// deadline expired while queued).
    pub shed: u64,
}

/// Counters of the continuous observability pipeline, published by the
/// collector thread and the metrics listener (see `ServerShared::obs`).
#[derive(Default)]
pub(super) struct ObsCounters {
    /// The streaming collector's cumulative counters, as of its last
    /// drain cycle (the stream's own totals are the source of truth; a
    /// lock is fine at the collector's millisecond cadence).
    pub(super) stream: Mutex<TraceStreamStats>,
    /// `GET /metrics` requests served.
    pub(super) metrics_scrapes: AtomicU64,
}

/// Every metric family the full Prometheus exposition
/// ([`TaskServer::render_prometheus`]) emits — each exactly once, with
/// its `# HELP`/`# TYPE` header — in order of appearance. This is the
/// server's **stable scrape schema** and the *frozen reference* the
/// metric table is tested against: the unit tests pin it, the CI scrape
/// checks it, and dashboards may rely on it. Extend it when adding a
/// family; never rename, reorder or drop an entry.
pub const STABLE_METRIC_FAMILIES: &[&str] = &[
    "xgomp_jobs_submitted_total",
    "xgomp_jobs_completed_total",
    "xgomp_jobs_cancelled_total",
    "xgomp_jobs_shed_total",
    "xgomp_jobs_rejected_total",
    "xgomp_jobs_in_flight",
    "xgomp_jobs_queued",
    "xgomp_max_in_flight",
    "xgomp_generations_total",
    "xgomp_retunes_total",
    "xgomp_ingress_shards",
    "xgomp_workers_parked",
    "xgomp_park_events_total",
    "xgomp_loops_total",
    "xgomp_loop_chunks_total",
    "xgomp_loop_iters_total",
    "xgomp_loop_range_steals_total",
    "xgomp_wake_events_total",
    "xgomp_ingress_claim_conflicts_total",
    "xgomp_ingress_occupancy",
    "xgomp_loop_chunks_by_schedule_total",
    "xgomp_loop_auto_selected_total",
    "xgomp_loops_by_space_total",
    "xgomp_loop_iters_by_space_total",
    "xgomp_jobs_submitted_by_class_total",
    "xgomp_jobs_completed_by_class_total",
    "xgomp_jobs_cancelled_by_class_total",
    "xgomp_jobs_shed_by_class_total",
    "xgomp_job_queued_seconds",
    "xgomp_job_run_seconds",
    "xgomp_trace_events_emitted_total",
    "xgomp_trace_events_dropped_total",
    "xgomp_trace_level",
    "xgomp_trace_drained_total",
    "xgomp_trace_dropped_total",
    "xgomp_trace_rotations_total",
    "xgomp_metrics_scrapes_total",
];

/// Point-in-time server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs accepted by admission control.
    pub submitted: u64,
    /// Jobs whose body ran to its own end (including panicked bodies).
    /// Cancelled and shed jobs are counted separately; once drained,
    /// `completed + cancelled + shed == submitted` exactly.
    pub completed: u64,
    /// Jobs whose body started and was then terminated at a
    /// cancellation checkpoint (explicit cancel or expired deadline).
    pub cancelled: u64,
    /// Jobs resolved without their body ever running: cancelled or
    /// deadline-expired while still queued.
    pub shed: u64,
    /// Submissions bounced by backpressure, pause-at-capacity or closure.
    pub rejected: u64,
    /// Jobs admitted but not yet completed.
    pub in_flight: usize,
    /// Admitted jobs still queued in the ingress tier, not yet handed to
    /// the team: ring occupancy plus the spill (where submissions wait
    /// from a pause onward) — nonzero mostly while paused.
    pub queued: usize,
    /// The *effective* admission bound: the configured
    /// `ServerConfig::max_in_flight` clamped to the total ingress ring
    /// capacity (admitted jobs never outnumber the ring slots in total).
    pub max_in_flight: usize,
    /// Serve generations opened so far (pause/resume cycles + 1).
    pub generations: u64,
    /// Effective DLB retunes: [`TaskServer::resume_with`] calls whose
    /// DLB changed the configuration.
    pub retunes: u64,
    /// Ingress shards (fixed at construction).
    pub shards: usize,
    /// Workers currently parked. While serving: parker-announced workers,
    /// master included. While paused: the whole team (on the start gate).
    pub parked_workers: usize,
    /// Cumulative committed parks across all generations — a fully idle
    /// server stops advancing this counter once everyone sleeps.
    pub parks: u64,
    /// Data-parallel loops completed (`submit_for` / `parallel_for`),
    /// cumulative across generations.
    pub loops: u64,
    /// Loop chunks executed, cumulative across generations.
    pub loop_chunks: u64,
    /// Loop iterations executed, cumulative across generations.
    pub loop_iters: u64,
    /// Cross-zone loop-range steal-splits, cumulative across
    /// generations. Per-schedule breakdowns:
    /// [`TaskServer::loop_telemetry`].
    pub loop_range_steals: u64,
}

/// Where one metric family's samples come from — and, for the
/// [`ServerStats`] fields, whether the field is cumulative (a `Counter`,
/// which [`ServerStats::delta`] subtracts) or point-in-time (a `Gauge`,
/// which it keeps).
enum Read {
    /// A cumulative `ServerStats` field.
    Counter(fn(&mut ServerStats) -> &mut u64),
    /// A point-in-time `ServerStats` field.
    Gauge(fn(&ServerStats) -> usize),
    /// A cumulative server-level value outside the snapshot.
    LiveCounter(fn(&ServerShared) -> u64),
    /// A point-in-time server-level value outside the snapshot.
    LiveGauge(fn(&ServerShared) -> u64),
    /// One counter sample per value of the named label.
    CounterVec(&'static str, fn(&ServerShared) -> Vec<(&'static str, u64)>),
    /// One latency histogram series per QoS class, merged over the
    /// workers' outcome cells.
    ClassHist(fn(&ClassOutcomes) -> &LatencyHist),
}

/// One row of the metric table.
struct Family {
    name: &'static str,
    help: &'static str,
    read: Read,
}

/// **The** metric table: every family the server exposes is spelled
/// here and nowhere else, in exposition order (tested against the
/// frozen [`STABLE_METRIC_FAMILIES`]). Rendering — of a bare
/// [`ServerStats`] snapshot or of the live server — and the
/// counter-vs-gauge rule of [`ServerStats::delta`] both walk it.
static FAMILIES: [Family; 37] = [
    Family {
        name: "xgomp_jobs_submitted_total",
        help: "Jobs accepted by admission control",
        read: Read::Counter(|s| &mut s.submitted),
    },
    Family {
        name: "xgomp_jobs_completed_total",
        help: "Jobs whose body ran to its own end (including panicked bodies)",
        read: Read::Counter(|s| &mut s.completed),
    },
    Family {
        name: "xgomp_jobs_cancelled_total",
        help: "Jobs cancelled cooperatively after their body started",
        read: Read::Counter(|s| &mut s.cancelled),
    },
    Family {
        name: "xgomp_jobs_shed_total",
        help: "Jobs shed before their body ran (cancel/deadline while queued)",
        read: Read::Counter(|s| &mut s.shed),
    },
    Family {
        name: "xgomp_jobs_rejected_total",
        help: "Submissions bounced by backpressure, pause-at-capacity or closure",
        read: Read::Counter(|s| &mut s.rejected),
    },
    Family {
        name: "xgomp_jobs_in_flight",
        help: "Jobs admitted but not yet completed",
        read: Read::Gauge(|s| s.in_flight),
    },
    Family {
        name: "xgomp_jobs_queued",
        help: "Admitted jobs still queued in the ingress tier",
        read: Read::Gauge(|s| s.queued),
    },
    Family {
        name: "xgomp_max_in_flight",
        help: "Effective admission bound",
        read: Read::Gauge(|s| s.max_in_flight),
    },
    Family {
        name: "xgomp_generations_total",
        help: "Serve generations opened",
        read: Read::Counter(|s| &mut s.generations),
    },
    Family {
        name: "xgomp_retunes_total",
        help: "Effective DLB retunes published (operator swaps)",
        read: Read::Counter(|s| &mut s.retunes),
    },
    Family {
        name: "xgomp_ingress_shards",
        help: "Ingress shards (one per NUMA zone)",
        read: Read::Gauge(|s| s.shards),
    },
    Family {
        name: "xgomp_workers_parked",
        help: "Workers currently parked",
        read: Read::Gauge(|s| s.parked_workers),
    },
    Family {
        name: "xgomp_park_events_total",
        help: "Committed worker parks across all generations",
        read: Read::Counter(|s| &mut s.parks),
    },
    Family {
        name: "xgomp_loops_total",
        help: "Data-parallel loops completed",
        read: Read::Counter(|s| &mut s.loops),
    },
    Family {
        name: "xgomp_loop_chunks_total",
        help: "Loop chunks executed",
        read: Read::Counter(|s| &mut s.loop_chunks),
    },
    Family {
        name: "xgomp_loop_iters_total",
        help: "Loop iterations executed",
        read: Read::Counter(|s| &mut s.loop_iters),
    },
    Family {
        name: "xgomp_loop_range_steals_total",
        help: "Cross-zone loop range steal-splits",
        read: Read::Counter(|s| &mut s.loop_range_steals),
    },
    Family {
        name: "xgomp_wake_events_total",
        help: "Wake-ups delivered across all generations (doorbells, pushes, teardown)",
        read: Read::LiveCounter(|s| s.doorbell.wakes()),
    },
    Family {
        name: "xgomp_ingress_claim_conflicts_total",
        help: "Lost lane-claim races on the anonymous ingress path",
        read: Read::LiveCounter(|s| s.ingress.claim_conflicts()),
    },
    Family {
        name: "xgomp_ingress_occupancy",
        help: "Jobs currently sitting in ingress ring slots",
        read: Read::LiveGauge(|s| s.ingress.occupancy() as u64),
    },
    Family {
        name: "xgomp_loop_chunks_by_schedule_total",
        help: "Loop chunks executed, by schedule family",
        read: Read::CounterVec("schedule", |s| {
            let per = s.loop_stats.snapshot().per_schedule;
            per.iter().map(|x| (x.schedule, x.chunks)).collect()
        }),
    },
    Family {
        name: "xgomp_loop_auto_selected_total",
        help: "Schedule::Auto loop instances run, by the concrete schedule the selector picked",
        read: Read::CounterVec("schedule", |s| {
            let names = xgomp_core::LOOP_SCHEDULE_NAMES.iter().copied();
            names.zip(s.auto_select.selected_counts()).collect()
        }),
    },
    Family {
        name: "xgomp_loops_by_space_total",
        help: "Data-parallel loops completed, by iteration-space shape",
        read: Read::CounterVec("space", |s| {
            let per = s.loop_stats.snapshot().per_space;
            per.iter().map(|k| (k.space, k.loops)).collect()
        }),
    },
    Family {
        name: "xgomp_loop_iters_by_space_total",
        help: "Loop elements executed, by iteration-space shape",
        read: Read::CounterVec("space", |s| {
            let per = s.loop_stats.snapshot().per_space;
            per.iter().map(|k| (k.space, k.iters)).collect()
        }),
    },
    Family {
        name: "xgomp_jobs_submitted_by_class_total",
        help: "Jobs accepted by admission control, by QoS class",
        read: Read::CounterVec("class", |s| s.by_class(|c| c.submitted)),
    },
    Family {
        name: "xgomp_jobs_completed_by_class_total",
        help: "Jobs whose body ran to its own end, by QoS class",
        read: Read::CounterVec("class", |s| s.by_class(|c| c.completed)),
    },
    Family {
        name: "xgomp_jobs_cancelled_by_class_total",
        help: "Jobs cancelled cooperatively mid-run, by QoS class",
        read: Read::CounterVec("class", |s| s.by_class(|c| c.cancelled)),
    },
    Family {
        name: "xgomp_jobs_shed_by_class_total",
        help: "Jobs shed before their body ran, by QoS class",
        read: Read::CounterVec("class", |s| s.by_class(|c| c.shed)),
    },
    // Fixed-bucket latency histograms (stable `le` edges — see
    // `LATENCY_BUCKETS_SECS`).
    Family {
        name: "xgomp_job_queued_seconds",
        help: "Admission-to-body-start latency of started jobs, by QoS class",
        read: Read::ClassHist(|c| &c.queued_hist),
    },
    Family {
        name: "xgomp_job_run_seconds",
        help: "Body run time of started jobs, by QoS class",
        read: Read::ClassHist(|c| &c.run_hist),
    },
    Family {
        name: "xgomp_trace_events_emitted_total",
        help: "Flight-recorder events emitted (all rings, including overwritten)",
        read: Read::LiveCounter(|s| s.tracer.emitted()),
    },
    Family {
        name: "xgomp_trace_events_dropped_total",
        help: "Flight-recorder events overwritten before a drain read them",
        // The snapshot reader's own drops (the streaming collector's
        // are `xgomp_trace_dropped_total`): per reader, so ≤ emitted.
        read: Read::LiveCounter(|s| s.tracer.dropped()),
    },
    Family {
        name: "xgomp_trace_level",
        help: "Active trace level (0=off, 1=lifecycle, 2=full)",
        read: Read::LiveGauge(|s| s.tracer.level() as u64),
    },
    // Continuous-pipeline families: always rendered (zero when the
    // stream/listener is unconfigured) so the stable set holds.
    Family {
        name: "xgomp_trace_drained_total",
        help: "Flight-recorder records written to the rolling on-disk stream",
        read: Read::LiveCounter(|s| locked(&s.obs.stream).drained),
    },
    Family {
        name: "xgomp_trace_dropped_total",
        help: "Records the streaming collector lost to ring overwrite",
        read: Read::LiveCounter(|s| locked(&s.obs.stream).dropped),
    },
    Family {
        name: "xgomp_trace_rotations_total",
        help: "Rolling trace segment rotations",
        read: Read::LiveCounter(|s| locked(&s.obs.stream).rotations),
    },
    Family {
        name: "xgomp_metrics_scrapes_total",
        help: "GET /metrics requests served by the in-process endpoint",
        read: Read::LiveCounter(|s| s.obs.metrics_scrapes.load(Ordering::Relaxed)),
    },
];

/// Renders the table: the snapshot-backed families from `stats`, and —
/// given the live server — every server-level family as well.
fn render(stats: &ServerStats, live: Option<&ServerShared>) -> String {
    let mut p = PromText::new();
    let mut snap = *stats;
    for f in &FAMILIES {
        match (&f.read, live) {
            (Read::Counter(field), _) => p.counter(f.name, f.help, *field(&mut snap)),
            (Read::Gauge(get), _) => p.gauge(f.name, f.help, get(stats) as u64),
            (Read::LiveCounter(get), Some(s)) => p.counter(f.name, f.help, get(s)),
            (Read::LiveGauge(get), Some(s)) => p.gauge(f.name, f.help, get(s)),
            (Read::CounterVec(label, get), Some(s)) => {
                p.counter_vec(f.name, f.help, label, &get(s))
            }
            (Read::ClassHist(pick), Some(s)) => {
                p.histogram_header(f.name, f.help);
                for (i, qos) in QosClass::ALL.iter().enumerate() {
                    let hists = s.outcomes.iter().map(|o| pick(&o[i]));
                    let (counts, sum, count) = LatencyHist::render_parts(hists);
                    let buckets = &LATENCY_BUCKETS_SECS;
                    p.histogram_series(f.name, "class", qos.name(), buckets, &counts, sum, count);
                }
            }
            // A server-level family is not part of a bare snapshot.
            (_, None) => {}
        }
    }
    p.finish()
}

impl ServerStats {
    /// The counter movement between `earlier` and `self` — the rate
    /// window a scraper wants: every cumulative counter becomes
    /// `self − earlier` (saturating, so swapped arguments yield zeros
    /// rather than wrapping), while the point-in-time gauges
    /// (`in_flight`, `queued`, `max_in_flight`, `shards`,
    /// `parked_workers`) keep `self`'s values — a gauge difference has
    /// no meaning. Which field is which is the metric table's
    /// counter/gauge column.
    pub fn delta(&self, earlier: &ServerStats) -> ServerStats {
        let (mut delta, mut earlier) = (*self, *earlier);
        for f in &FAMILIES {
            if let Read::Counter(field) = f.read {
                let v = field(&mut delta);
                *v = v.saturating_sub(*field(&mut earlier));
            }
        }
        delta
    }

    /// Renders every counter in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`) under stable metric names (see the
    /// README's metric table). [`TaskServer::render_prometheus`] extends
    /// this with the server-level extras (wake events, ingress
    /// claim-conflicts/occupancy, per-schedule loop counters, flight
    /// recorder volume).
    pub fn render_prometheus(&self) -> String {
        render(self, None)
    }
}

impl ServerShared {
    /// Workers currently parked (see [`TaskServer::parked_workers`]).
    fn parked_workers_now(&self) -> usize {
        if self.state.load(Ordering::SeqCst) == PAUSED {
            return self.current_threads.load(Ordering::Relaxed);
        }
        self.doorbell
            .with_current(|p| p.currently_parked())
            .unwrap_or(0)
    }

    /// Per-class counters, in [`QosClass::ALL`] order: each class's
    /// submitters' cell, and its outcomes summed over the workers' cells
    /// — the only places those facts are stored.
    fn class_stats(&self) -> [QosClassStats; 3] {
        std::array::from_fn(|i| {
            let sum = |cell: fn(&ClassOutcomes) -> &AtomicU64| {
                let cells = self.outcomes.iter().map(|o| cell(&o[i]));
                cells.map(|c| c.load(Ordering::Relaxed)).sum()
            };
            QosClassStats {
                class: QosClass::ALL[i],
                submitted: self.submitted[i].0.load(Ordering::Relaxed),
                completed: sum(|o| &o.completed),
                cancelled: sum(|o| &o.cancelled),
                shed: sum(|o| &o.shed),
            }
        })
    }

    /// One `(class name, counter value)` sample per QoS class.
    fn by_class(&self, read: fn(&QosClassStats) -> u64) -> Vec<(&'static str, u64)> {
        let classes = self.class_stats();
        classes.iter().map(|c| (c.class.name(), read(c))).collect()
    }

    /// Counter snapshot (see [`TaskServer::stats`] for the coherence
    /// contract). The job-outcome totals are sums over the classes.
    fn stats(&self) -> ServerStats {
        let (loops, loop_chunks, loop_iters, loop_range_steals) =
            self.loop_stats.snapshot().totals();
        let classes = self.class_stats();
        let total = |read: fn(&QosClassStats) -> u64| classes.iter().map(read).sum();
        ServerStats {
            submitted: total(|c| c.submitted),
            completed: total(|c| c.completed),
            cancelled: total(|c| c.cancelled),
            shed: total(|c| c.shed),
            rejected: self.rejected.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::SeqCst),
            queued: self.ingress.occupancy() + locked(&self.spill).len(),
            max_in_flight: self.max_in_flight,
            generations: self.generation.load(Ordering::Relaxed),
            retunes: self.retunes.load(Ordering::Relaxed),
            shards: self.ingress.n_shards(),
            parked_workers: self.parked_workers_now(),
            parks: self.doorbell.parks(),
            loops,
            loop_chunks,
            loop_iters,
            loop_range_steals,
        }
    }

    /// Body of `GET /healthz`: the serve state plus a few liveness
    /// gauges, as a one-line JSON document.
    pub(super) fn health_json(&self) -> String {
        let state = match self.state.load(Ordering::SeqCst) {
            SERVING => "serving",
            DRAINING => "draining",
            PAUSED => "paused",
            _ => "closing",
        };
        format!(
            "{{\"state\":\"{state}\",\"generation\":{},\"in_flight\":{},\"workers_parked\":{}}}\n",
            self.generation.load(Ordering::Relaxed),
            self.in_flight.load(Ordering::SeqCst),
            self.parked_workers_now(),
        )
    }

    /// The full Prometheus exposition (see
    /// [`TaskServer::render_prometheus`], which delegates here — this
    /// lives on the shared state so the `/metrics` listener thread can
    /// render without the server handle).
    pub(super) fn render_prometheus(&self) -> String {
        render(&self.stats(), Some(self))
    }

    /// Best-effort automatic flight-recorder dump (job panic, shutdown):
    /// a no-op without a [`ServerConfig::trace_dump`] directory or below
    /// `Lifecycle`, and never panics — observability must not take the
    /// server down with it.
    ///
    /// [`ServerConfig::trace_dump`]: crate::ServerConfig::trace_dump
    pub(super) fn dump_flight_recorder(&self, file_name: &str) {
        let Some(dir) = &self.trace_dump else { return };
        if !self.tracer.enabled(TraceLevel::Lifecycle) {
            return;
        }
        let path = dir.join(file_name);
        if let Err(e) = self.tracer.snapshot().dump_to(&path) {
            eprintln!(
                "xgomp-service: flight-recorder dump to {} failed: {e}",
                path.display()
            );
        }
    }
}

impl TaskServer {
    /// Jobs admitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Workers currently parked. While serving, this counts parker
    /// announcements (master included); while paused, the whole team is
    /// parked on its start gate and is reported as such.
    pub fn parked_workers(&self) -> usize {
        self.shared.parked_workers_now()
    }

    /// Cumulative committed parks across all generations. A fully idle
    /// server parks everyone and this counter stops moving — the
    /// observable "no yield-loop progress" property.
    pub fn park_events(&self) -> u64 {
        self.shared.doorbell.parks()
    }

    /// Cumulative wake-ups delivered across all generations (doorbells,
    /// push wakes, teardown).
    pub fn wake_events(&self) -> u64 {
        self.shared.doorbell.wakes()
    }

    /// Snapshot of the server counters.
    ///
    /// ## Coherence
    ///
    /// Each field is one independent atomic load (the job-outcome
    /// totals: one per QoS class and worker, summed): the snapshot is
    /// *not* an atomic cut across fields. Every cumulative counter is
    /// individually monotone (two snapshots always satisfy
    /// `later.submitted >= earlier.submitted`, etc. — which is what
    /// makes [`ServerStats::delta`] meaningful), but cross-field
    /// identities hold exactly only on a quiescent server: after
    /// [`pause`](Self::pause) returns, `submitted == completed + queued`
    /// and `in_flight == queued`; on the final [`shutdown`](Self::shutdown)
    /// report, `submitted == completed` and `in_flight == queued == 0`.
    /// While serving, a job may be counted `submitted` a beat before its
    /// `in_flight` increment is visible, so derived quantities can be
    /// transiently off by the number of in-progress submissions.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Per-QoS-class job counters, indexed in [`QosClass::ALL`] order.
    /// Same coherence caveats as [`stats`](Self::stats): once a class is
    /// drained, `submitted == completed + cancelled + shed` exactly.
    pub fn class_stats(&self) -> [QosClassStats; 3] {
        self.shared.class_stats()
    }

    /// Per-schedule loop telemetry (loops, chunks, iterations and range
    /// steals per schedule family), cumulative across generations.
    pub fn loop_telemetry(&self) -> LoopTelemetrySnapshot {
        self.shared.loop_stats.snapshot()
    }

    /// Convergence status of one `Schedule::Auto` loop site (`None`
    /// until the site has run at least one Auto instance). Sites are
    /// keyed by the [`LoopId`] passed via
    /// [`SubmitOptions::site`](crate::SubmitOptions::site); anonymous
    /// Auto submissions key by iteration-space shape instead and are
    /// not addressable here.
    pub fn auto_site_status(&self, site: LoopId) -> Option<AutoSiteStatus> {
        self.shared.auto_select.site_status(site.0)
    }

    /// How many Auto loop instances ran under each concrete schedule
    /// (index-aligned with `LOOP_SCHEDULE_NAMES`; the `"auto"` slot is
    /// always zero). This is the `xgomp_loop_auto_selected_total`
    /// Prometheus family.
    pub fn auto_selected_counts(&self) -> [u64; xgomp_core::LOOP_SCHEDULES] {
        self.shared.auto_select.selected_counts()
    }

    /// The ingress tier (lane counters, claim-conflict statistics).
    pub fn ingress(&self) -> &ShardedIngress {
        &self.shared.ingress
    }

    /// The DLB configuration driving the current generation's team
    /// (normalised: builder clamps applied).
    pub fn active_dlb(&self) -> DlbConfig {
        *locked(&self.shared.active_dlb)
    }

    /// Effective DLB retunes so far: `resume_with` calls whose DLB
    /// changed the configuration.
    pub fn retunes(&self) -> u64 {
        self.shared.retunes.load(Ordering::Relaxed)
    }

    // ---- flight recorder / metrics exposition -------------------------

    /// Current flight-recorder level.
    pub fn trace_level(&self) -> TraceLevel {
        self.shared.tracer.level()
    }

    /// Flips the flight-recorder level live — no generation boundary:
    /// every instrumentation site picks the new level up at its next
    /// (relaxed) probe. Raising the level mid-flight starts recording
    /// from here on; lowering to [`TraceLevel::Off`] reduces every site
    /// back to one relaxed load + branch.
    pub fn set_trace_level(&self, level: TraceLevel) {
        self.shared.tracer.set_level(level);
    }

    /// Drains every worker's event ring into a point-in-time snapshot.
    ///
    /// Draining *consumes*: events move out of the rings, so consecutive
    /// snapshots partition the stream rather than overlap. Concurrent
    /// emission keeps running — events landing mid-drain are picked up
    /// by the next snapshot; `snapshot.dropped` counts flight-recorder
    /// overwrites (ring laps) since the previous drain.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.shared.tracer.snapshot()
    }

    /// Snapshots the flight recorder and writes Chrome-tracing JSON —
    /// load the file in [Perfetto](https://ui.perfetto.dev) or
    /// `chrome://tracing`. One track per worker, plus one async span per
    /// job (`JobStart`..`JobEnd`, keyed on the job id).
    pub fn dump_trace<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        self.shared.tracer.snapshot().dump_to(path.as_ref())
    }

    /// Renders the full metrics surface in the Prometheus text
    /// exposition format: everything in
    /// [`ServerStats::render_prometheus`], plus wake-event, ingress
    /// claim-conflict/occupancy, per-schedule loop and flight-recorder
    /// volume series. Serve the returned string as
    /// `text/plain; version=0.0.4` from any scrape endpoint.
    pub fn render_prometheus(&self) -> String {
        self.shared.render_prometheus()
    }

    /// The address the in-process metrics endpoint actually bound
    /// (resolves a configured port `0` to the ephemeral port picked by
    /// the OS); `None` when [`ServerConfig::metrics_addr`] is unset or
    /// the bind failed at startup.
    ///
    /// [`ServerConfig::metrics_addr`]: crate::ServerConfig::metrics_addr
    pub fn metrics_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.as_ref().map(|l| l.local_addr())
    }

    /// Live counters of the streaming trace collector; `None` when
    /// [`ServerConfig::trace_stream`] is unset or the stream failed to
    /// open. Racy like every other observability read — the exact
    /// end-of-run accounting lives in the stream's final on-disk
    /// summary line.
    ///
    /// [`ServerConfig::trace_stream`]: crate::ServerConfig::trace_stream
    pub fn trace_stream_stats(&self) -> Option<TraceStreamStats> {
        self.collector
            .as_ref()
            .map(|_| *locked(&self.shared.obs.stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `+Inf` and `_count` are the sum of the bucket cells — the
    /// overflow cell included — read in one pass, so the rendered
    /// cumulative series is monotone up to and including `+Inf`.
    #[test]
    fn histogram_count_is_the_sum_of_its_buckets() {
        let (a, b) = (LatencyHist::default(), LatencyHist::default());
        a.record_ticks(0);
        b.record_ticks(clock::ns_to_ticks(2_000));
        b.record_ticks(clock::ns_to_ticks(11_000_000_000));
        let (cumulative, sum, count) = LatencyHist::render_parts([&a, &b].into_iter());
        assert_eq!(count, 3);
        assert!(
            cumulative.windows(2).all(|w| w[0] <= w[1]),
            "{cumulative:?}"
        );
        assert_eq!(cumulative[0], 1, "0 s lands in the first bucket");
        assert_eq!(cumulative[1], 2, "2 us lands at le=1e-5");
        assert_eq!(*cumulative.last().unwrap(), 2, "11 s is above le=10");
        assert!(sum > 10.0);
        let mut p = PromText::new();
        p.histogram_series(
            "h",
            "class",
            "normal",
            &LATENCY_BUCKETS_SECS,
            &cumulative,
            sum,
            count,
        );
        let text = p.finish();
        assert!(
            text.contains("h_bucket{class=\"normal\",le=\"10\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("h_bucket{class=\"normal\",le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("h_count{class=\"normal\"} 3\n"), "{text}");
    }

    /// Every worker owns its outcome cell: a seat starts a line and
    /// fills whole lines, and workers 1 and 17 — which shared a shard
    /// when outcomes were indexed `worker % 16` — get distinct cells. The
    /// submitters' `submitted` cells each sit alone on a line.
    #[test]
    fn outcome_shards_and_the_submitted_cell_own_their_lines() {
        use std::mem::{align_of, offset_of, size_of};
        use xgomp_xqueue::{cells::Slot, CachePadded, Cells};
        assert_eq!(align_of::<Slot<Outcomes>>(), 128);
        assert_eq!(size_of::<Slot<Outcomes>>() % 128, 0);
        assert_eq!(offset_of!(Slot<Outcomes>, 0), 0);
        let cells = Cells::<Outcomes>::default();
        assert!(!std::ptr::eq(cells.slot(1), cells.slot(17)));
        assert_eq!(align_of::<CachePadded<AtomicU64>>(), 128);
        assert_eq!(
            size_of::<CachePadded<AtomicU64>>(),
            128,
            "submitted fills its line"
        );
        assert_eq!(offset_of!(CachePadded<AtomicU64>, 0), 0);
    }

    /// At, just below and just above every `le` edge, the tick lookup
    /// picks the bucket the float rule (`ticks_to_secs(t) <= le`) picks.
    #[test]
    fn latency_tick_edges_match_the_float_rule() {
        let float_rule = |t: u64| {
            let secs = clock::ticks_to_secs(t);
            let i = LATENCY_BUCKETS_SECS.iter().position(|&b| secs <= b);
            i.unwrap_or(LATENCY_BUCKETS_SECS.len())
        };
        let tick_rule = |t: u64| le_ticks().partition_point(|&le| le < t);
        for &edge in le_ticks() {
            for t in [edge.saturating_sub(1), edge, edge + 1] {
                assert_eq!(tick_rule(t), float_rule(t), "ticks {t} (edge {edge})");
            }
        }
        assert!(
            le_ticks().windows(2).all(|w| w[0] < w[1]),
            "{:?}",
            le_ticks()
        );
        assert_eq!((tick_rule(0), tick_rule(u64::MAX)), (0, 12));
    }
}
