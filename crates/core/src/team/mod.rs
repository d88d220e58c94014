//! The team: the runtime's equivalent of `gomp_team_start` /
//! `gomp_thread_start` (§III-A), in three parts.
//!
//! This module owns the **team state** of one region — [`TeamShared`]
//! (scheduler, barrier, allocator, statistics, parker, tracer: built
//! fresh per region, the paper's per-region measurement methodology),
//! the [`ServingHooks`] / [`IngressSource`] a long-lived task server
//! plugs into it, `build_team` and the teardown checks of
//! `finish_region`. Every per-worker block the team writes — the §V
//! counters, and the trace rings a server shares across generations —
//! is a seat of an `xgomp_xqueue::Cells`, and
//! `build_team` claims seats `0..n` of each for the team's life, so a
//! second team on the same server-owned cells panics where it is built.
//! [`worker`] owns what is *not* shared: the [`Worker`] each thread
//! claims once per region, holding by value everything only that worker
//! writes, and a reference to its own seat of each of those cells.
//! [`exec`] owns what a worker *does* (one task's execution and
//! retirement, the scheduling point, the ingress transition, the worker
//! loop, the master path); [`runtime`] owns who runs it (the [`Runtime`]
//! engine: hot worker threads parked on a generation-stamped start gate,
//! one region body behind [`Runtime::parallel`] and [`Runtime::serve`]).

mod exec;
mod runtime;
mod worker;

pub(crate) use exec::{execute, ON_FRAME};
pub use runtime::{RegionOutput, Runtime};
pub(crate) use worker::Worker;

use std::any::Any;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use xgomp_profiling::{LoopTelemetry, PerfLog, TeamStats, TraceLevel, Tracer, WorkerStats};
use xgomp_topology::{CostModel, Placement};
use xgomp_xqueue::{Cells, Claim, EventRing, Parker};

use crate::alloc::TaskAllocator;
use crate::barrier::TeamBarrier;
use crate::config::RuntimeConfig;
use crate::ctx::TaskCtx;
use crate::loops::AutoSelector;
use crate::sched::Scheduler;
use crate::task::Task;
use crate::util::locked;

/// External work feed polled by idle workers (the persistent executor's
/// job-injection hook).
///
/// `poll` runs on an idle worker with a context rooted at the region's
/// implicit task; it may spawn any number of tasks through `ctx` and
/// returns how many it spawned. Only the master owns the implicit task,
/// so what a peer spawns there is parentless: the barrier still counts
/// it, but no `taskwait` waits for it — a peer's own `taskwait` returns
/// at once, and a scope it opens runs each child undeferred (the overflow
/// rule's path). The jobs themselves belong to whichever
/// worker runs them, like any task, so their own children are counted.
/// Implementations must stop yielding work once their shutdown drain has
/// completed — after the region master has arrived at the barrier *and*
/// the team has quiesced, nothing may be injected anymore (the runtime
/// guarantees this is unreachable as long as every accepted job is
/// spawned before it is counted as drained).
pub trait IngressSource: Send + Sync {
    /// Polls for external work; returns the number of tasks spawned.
    fn poll(&self, ctx: &TaskCtx<'_>) -> usize;

    /// Racy hint that a `poll` right now could yield work — the
    /// pre-park re-check of the event-driven idle path. The default is
    /// deliberately conservative (`true`): a source that cannot answer
    /// keeps its workers spinning, never parked, preserving the old
    /// behavior. Implementations that *do* answer must wake a worker
    /// (ring the team's doorbell) after every enqueue, or a sleeping
    /// team will miss the work their `false` allowed it to sleep
    /// through.
    fn has_pending(&self) -> bool {
        true
    }
}

/// The persistent-executor hook set of one region
/// ([`Runtime::serve`]); every hook is optional and `default()` is a
/// plain region.
#[derive(Default)]
pub struct ServingHooks {
    /// External work feed polled by idle workers.
    pub source: Option<Arc<dyn IngressSource>>,
    /// Cross-generation loop-subsystem counters (`parallel_for` folds
    /// its per-loop totals in here when present).
    pub loop_stats: Option<Arc<LoopTelemetry>>,
    /// `Schedule::Auto` per-loop-site selector, server-owned so
    /// selection state (trial windows, converged picks) survives
    /// pause/resume; `None` makes `Auto` fall back to a fixed member.
    pub auto_select: Option<Arc<AutoSelector>>,
    /// Flight-recorder tracer shared across generations (a task server
    /// owns one for its whole life so the ring windows survive
    /// pause/resume reshaping); `None` falls back to
    /// [`RuntimeConfig::trace`] (which builds a per-team tracer when the
    /// level is not `Off`).
    pub tracer: Option<Arc<Tracer>>,
}

/// Everything a team of workers shares for one parallel region.
pub(crate) struct TeamShared {
    pub n: usize,
    pub sched: Box<dyn Scheduler>,
    pub barrier: Box<dyn TeamBarrier>,
    pub alloc: TaskAllocator,
    /// The §V counter blocks, one per worker; each worker writes its own
    /// (`Worker::stats`).
    pub stats: Claim<WorkerStats>,
    pub placement: Arc<Placement>,
    pub cost: CostModel,
    /// The logs of the workers that have retired, in retirement order
    /// (each `Worker` hands its own back when it drops).
    pub logs: Mutex<Vec<PerfLog>>,
    pub profiling: bool,
    /// Set when a task body or the region closure panicked (un-isolated):
    /// from then on `execute` discards every task instead of running it,
    /// and the region still ends at the barrier release.
    pub poisoned: AtomicBool,
    /// The region's payload: the first task body's panic (caught in its
    /// `execute`), replaced by the closure's own if that panicked; the
    /// region re-raises it on the caller once the workers have retired.
    pub panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// External work feed polled by idle workers (persistent executor).
    pub source: Option<Arc<dyn IngressSource>>,
    /// Cross-generation loop counters (see [`ServingHooks::loop_stats`]).
    pub loop_stats: Option<Arc<LoopTelemetry>>,
    /// `Schedule::Auto` selector (see [`ServingHooks::auto_select`]).
    pub auto_select: Option<Arc<AutoSelector>>,
    /// The region's implicit task, published by the master so idle
    /// workers' ingress polls can spawn from it; null outside a region.
    pub root: AtomicPtr<Task>,
    /// A task body's panic fails only its own task: `execute` hands the
    /// payload to the parent, whose next `taskwait` re-raises it, instead
    /// of poisoning the team (per-job isolation in `xgomp-service`).
    pub isolate_panics: bool,
    /// NUMA-aware idle parker (zone wake sets follow the placement).
    /// Always present; whether workers actually park is `park_idle`.
    pub parker: Arc<Parker>,
    /// Event-driven idling on/off (`RuntimeConfig::park_idle`).
    pub park_idle: bool,
    /// Flight recorder (`None` when tracing is off *by construction*;
    /// a live level flip to `Off` keeps the rings but mutes every
    /// site behind one relaxed load).
    pub tracer: Option<Arc<Tracer>>,
    /// This generation's claim on the tracer's rings; each worker emits
    /// into its own (`Worker::ring`).
    pub rings: Option<Claim<EventRing>>,
    /// Debug builds: atomic RMWs paid on task child counts (detaches and
    /// completions off the owner's worker), so tests can pin them.
    #[cfg(debug_assertions)]
    pub dep_rmws: std::sync::atomic::AtomicU64,
}

/// Builds the shared state for one region of `cfg` with the given
/// extension hooks.
fn build_team(cfg: &RuntimeConfig, hooks: ServingHooks, isolate_panics: bool) -> TeamShared {
    let n = cfg.threads;
    let placement = Arc::new(Placement::new(cfg.topology.clone(), n, cfg.affinity));
    let parker = Arc::new(Parker::new(
        &(0..n).map(|w| placement.zone_of(w)).collect::<Vec<_>>(),
    ));
    let tracer = hooks
        .tracer
        .or_else(|| (cfg.trace != TraceLevel::Off).then(|| Arc::new(Tracer::new(cfg.trace))));
    TeamShared {
        n,
        sched: cfg.scheduler.build(
            n,
            cfg.queue_capacity,
            placement.clone(),
            cfg.dlb,
            parker.clone(),
        ),
        barrier: cfg.barrier.build(n, parker.clone()),
        alloc: TaskAllocator::new(cfg.allocator),
        stats: Arc::new(Cells::default()).claim(0..n),
        placement,
        cost: cfg.cost_model,
        logs: Mutex::new(Vec::with_capacity(n)),
        profiling: cfg.profiling,
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        source: hooks.source,
        loop_stats: hooks.loop_stats,
        auto_select: hooks.auto_select,
        root: AtomicPtr::new(std::ptr::null_mut()),
        isolate_panics,
        parker,
        park_idle: cfg.park_idle,
        rings: tracer.as_ref().map(|t| t.rings.claim(0..n)),
        tracer,
        #[cfg(debug_assertions)]
        dep_rmws: Default::default(),
    }
}

/// Teardown of a region whose workers have all retired, on every exit
/// path: retires the implicit task, runs the retention and leak checks,
/// then re-raises the panic of a poisoned region (`result` is `None`
/// exactly then) or collects the telemetry.
fn finish_region<R>(mut team: TeamShared, result: Option<R>, wall: Duration) -> RegionOutput<R> {
    // With every worker gone nothing can spawn from the root any more,
    // and every child it counted has retired, so it is freed here with no
    // RMW: the master's ownership ends with the region.
    let root = std::mem::replace(team.root.get_mut(), std::ptr::null_mut());
    let root = NonNull::new(root).expect("the master published the root");
    let seat = team.alloc.seat(0);
    // SAFETY: the record is the root `master_main` allocated, freed once,
    // here; no child is outstanding (the barrier released).
    unsafe {
        debug_assert_eq!(root.as_ref().unfinished_children(), 0);
        seat.free(root);
    }
    drop(seat);
    // Teardown sanity: the barrier released, poisoned region or not, so
    // every task was retired (run or discarded) and nothing is queued.
    let mut retained = 0usize;
    team.sched.drain_all(&mut |_| retained += 1);
    assert!(
        retained == 0,
        "scheduler `{}` retained {retained} task(s) after `{}` released",
        team.sched.name(),
        team.barrier.name()
    );
    debug_assert!(
        team.alloc.outstanding() == 0,
        "task records leaked by the region"
    );
    let poisoned = *team.poisoned.get_mut();
    let Some(result) = result.filter(|_| !poisoned) else {
        let payload = locked(&team.panic).take();
        std::panic::resume_unwind(payload.expect("whatever poisoned the team left its payload"))
    };

    let mut logs = std::mem::take(&mut *locked(&team.logs));
    logs.sort_by_key(PerfLog::worker);
    RegionOutput {
        result,
        stats: TeamStats::collect(team.stats.iter()),
        logs,
        wall,
    }
}

impl TeamShared {
    /// Marks the team poisoned — from here on `execute` discards what it
    /// is handed — and wakes every parked worker, so an idle loop that
    /// re-checks the flag (the task server's serve loop) observes it.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.parker.unpark_all();
    }

    /// The Off-cost trace gate: `false` unless a tracer is attached
    /// *and* its live level admits `min` (one relaxed load + branch).
    #[inline]
    pub(crate) fn trace_on(&self, min: TraceLevel) -> bool {
        self.tracer.as_ref().is_some_and(|t| t.enabled(min))
    }
}

#[cfg(test)]
mod tests;
