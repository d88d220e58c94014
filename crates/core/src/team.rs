//! Team construction and the worker scheduling loop: the runtime's
//! equivalent of `gomp_team_start` / `gomp_thread_start` (§III-A).
//!
//! There is one execution engine. A [`Runtime`] owns a set of hot worker
//! threads, started lazily by its first region and parked on a
//! generation-stamped [start gate](StartGate) between regions (libgomp's
//! pooled threads). Every region is one *generation*: it builds fresh
//! team state (scheduler, barrier, allocator, message cells, profiler —
//! the paper's per-region measurement methodology), publishes it through
//! the gate, runs the region closure on the caller as the *implicit
//! task* (the BOTS `parallel` + `single` idiom), and lets every worker
//! run the scheduling loop until the team barrier detects quiescence;
//! then the workers park again.
//!
//! * [`Runtime::parallel`] is the plain region.
//! * [`Runtime::serve`] is the same region with the [`ServingHooks`] a
//!   long-lived task server needs: an [`IngressSource`] that idle workers
//!   poll for externally submitted work, plus a
//!   [`LiveTaskSampler`](xgomp_profiling::LiveTaskSampler) /
//!   [`DlbTuning`] pair for online Table-IV adaptation (`xgomp-service`
//!   builds on exactly this hook set).

use std::any::Any;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use xgomp_profiling::{
    clock, EventKind, LiveTaskSampler, LoopTelemetry, PerfLog, TaskLane, TeamStats, TraceLevel,
    Tracer, WorkerStats,
};
use xgomp_topology::{CostModel, Placement};
use xgomp_xqueue::{EventRing, IdleGate, Parker};

use crate::alloc::TaskAllocator;
use crate::barrier::TeamBarrier;
use crate::config::RuntimeConfig;
use crate::ctx::TaskCtx;
use crate::dlb::DlbTuning;
use crate::loops::{AutoSelector, LoopBalancer};
use crate::sched::Scheduler;
use crate::task::Task;
use crate::util::{locked, PerWorker};

/// Stack size for worker threads. The scheduling loops *help*: an
/// executing task that waits (taskwait, overflow → execute-immediately)
/// picks up further tasks in a nested `execute` frame, so recursion
/// depth scales with the task backlog, not with user recursion. 32 MiB
/// of (virtual, lazily-committed) stack keeps deep fine-grained
/// workloads like BOTS fib off the guard page.
const WORKER_STACK_BYTES: usize = 32 * 1024 * 1024;

/// External work feed polled by idle workers (the persistent executor's
/// job-injection hook).
///
/// `poll` runs on an idle worker with a context rooted at the region's
/// implicit task; it may spawn any number of tasks through `ctx` and
/// returns how many it spawned. Implementations must stop yielding work
/// once their shutdown drain has completed — after the region master has
/// arrived at the barrier *and* the team has quiesced, nothing may be
/// injected anymore (the runtime guarantees this is unreachable as long
/// as every accepted job is spawned before it is counted as drained).
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
    /// Online task-size sampling (each worker records into its own lane
    /// of the sampler, materialized on demand).
    pub sampler: Option<Arc<LiveTaskSampler>>,
    /// Hot-swappable DLB configuration; `None` uses a per-region cell
    /// seeded from [`RuntimeConfig::dlb`].
    pub tuning: Option<Arc<DlbTuning>>,
    /// Cross-generation loop-subsystem counters (`parallel_for` folds
    /// its per-loop totals in here when present).
    pub loop_stats: Option<Arc<LoopTelemetry>>,
    /// Inter-socket loop balancer shared across generations (a task
    /// server owns one for its whole life so live loops keep their
    /// registry across pause/resume); `None` builds a per-region one.
    pub balancer: Option<Arc<LoopBalancer>>,
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

/// The team-generation view of the flight recorder: the shared
/// [`Tracer`] plus each worker's ring `Arc`, materialized once at
/// generation start so the emit path never touches the tracer's mutex.
pub(crate) struct TeamTracer {
    pub tracer: Arc<Tracer>,
    pub rings: Box<[Arc<EventRing>]>,
}

/// Everything a team of workers shares for one parallel region.
pub(crate) struct TeamShared {
    pub n: usize,
    pub sched: Box<dyn Scheduler>,
    pub barrier: Box<dyn TeamBarrier>,
    pub alloc: TaskAllocator,
    pub stats: Arc<Vec<WorkerStats>>,
    pub placement: Arc<Placement>,
    pub cost: CostModel,
    pub logs: PerWorker<PerfLog>,
    pub profiling: bool,
    /// Set when any task body panicked; workers drain out instead of
    /// spinning on a barrier that can no longer release.
    pub poisoned: AtomicBool,
    /// Payload of the first task panic a non-master worker caught; the
    /// region re-raises it on the caller once the workers have retired.
    pub panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// External work feed polled by idle workers (persistent executor).
    pub source: Option<Arc<dyn IngressSource>>,
    /// Online task-size sampling (always-on when present): each worker's
    /// [`LiveTaskSampler`] lane, cached at generation start — like the
    /// trace rings — so the record path touches no shared state.
    pub sampler: Option<Box<[Arc<TaskLane>]>>,
    /// Cross-generation loop counters (see [`ServingHooks::loop_stats`]).
    pub loop_stats: Option<Arc<LoopTelemetry>>,
    /// Inter-socket loop balancer (coarse level of two-level loop
    /// balancing); probed by loop-drain tasks and the DLB idle hook.
    pub balancer: Arc<LoopBalancer>,
    /// `Schedule::Auto` selector (see [`ServingHooks::auto_select`]).
    pub auto_select: Option<Arc<AutoSelector>>,
    /// The region's implicit task, published by the master so idle
    /// workers can parent injected tasks to it; null outside a region.
    pub root: AtomicPtr<Task>,
    /// Catch task-body panics instead of poisoning the team: the payload
    /// is carried to the parent's next `taskwait`, which re-raises it
    /// (per-job isolation in `xgomp-service`).
    pub isolate_panics: bool,
    /// NUMA-aware idle parker (zone wake sets follow the placement).
    /// Always present; whether workers actually park is `park_idle`.
    pub parker: Arc<Parker>,
    /// Event-driven idling on/off (`RuntimeConfig::park_idle`).
    pub park_idle: bool,
    /// Flight recorder (`None` when tracing is off *by construction*;
    /// a live level flip to `Off` keeps the rings but mutes every
    /// site behind one relaxed load).
    pub tracer: Option<TeamTracer>,
}

/// Builds the shared state for one region of `cfg` with the given
/// extension hooks.
fn build_team(cfg: &RuntimeConfig, hooks: ServingHooks, isolate_panics: bool) -> TeamShared {
    let n = cfg.threads;
    let placement = Arc::new(Placement::new(cfg.topology.clone(), n, cfg.affinity));
    let stats: Arc<Vec<WorkerStats>> = Arc::new((0..n).map(|_| WorkerStats::default()).collect());
    let parker = Arc::new(Parker::new(
        &(0..n).map(|w| placement.zone_of(w)).collect::<Vec<_>>(),
    ));
    // The tuning cell is hoisted here (instead of being created inside
    // the scheduler) so the loop balancer can ride its
    // `rebalance_interval` knob — hot-swappable exactly like the task
    // DLB knobs.
    let tuning = hooks
        .tuning
        .or_else(|| cfg.dlb.map(|d| Arc::new(DlbTuning::new(d))));
    let balancer = hooks
        .balancer
        .unwrap_or_else(|| Arc::new(LoopBalancer::new()));
    if let Some(t) = &tuning {
        balancer.bind_tuning(t);
    }
    let tracer = hooks
        .tracer
        .or_else(|| (cfg.trace != TraceLevel::Off).then(|| Arc::new(Tracer::new(cfg.trace))))
        .map(|t| {
            let rings = (0..n).map(|w| t.ring(w)).collect();
            TeamTracer { tracer: t, rings }
        });
    TeamShared {
        n,
        sched: cfg.scheduler.build(
            n,
            cfg.queue_capacity,
            stats.clone(),
            placement.clone(),
            tuning,
            parker.clone(),
            balancer.clone(),
        ),
        barrier: cfg.barrier.build(n, parker.clone()),
        alloc: TaskAllocator::new(cfg.allocator, n),
        stats,
        placement,
        cost: cfg.cost_model,
        logs: PerWorker::new(n, |w| PerfLog::new(w, cfg.profiling)),
        profiling: cfg.profiling,
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        source: hooks.source,
        sampler: hooks.sampler.map(|s| (0..n).map(|w| s.lane(w)).collect()),
        loop_stats: hooks.loop_stats,
        balancer,
        auto_select: hooks.auto_select,
        root: AtomicPtr::new(std::ptr::null_mut()),
        isolate_panics,
        parker,
        park_idle: cfg.park_idle,
        tracer,
    }
}

/// Teardown checks + telemetry collection for a quiesced region.
fn finish_region<R>(team: TeamShared, result: R, wall: Duration) -> RegionOutput<R> {
    // Teardown sanity: a correct barrier leaves nothing queued.
    let mut leaked = 0usize;
    team.sched.drain_all(&mut |ptr| {
        leaked += 1;
        discard_task(&team, ptr);
    });
    assert_eq!(
        leaked,
        0,
        "scheduler `{}` retained {leaked} task(s) after `{}` released",
        team.sched.name(),
        team.barrier.name()
    );
    debug_assert_eq!(
        team.alloc.outstanding(),
        0,
        "task records leaked by the region"
    );

    let TeamShared { stats, logs, .. } = team;
    RegionOutput {
        result,
        stats: TeamStats::collect(&stats),
        logs: logs.into_values(),
        wall,
    }
}

impl TeamShared {
    /// Records a profiling span ending now (no-op when profiling is off).
    #[inline]
    pub(crate) fn log_span(&self, w: usize, kind: EventKind, t0: u64) {
        if self.profiling {
            // SAFETY: worker-ownership contract; leaf access.
            unsafe { self.logs.with(w, |l| l.push_span(kind, t0, clock::now())) };
        }
    }

    /// Marks the team poisoned and wakes every parked worker so the
    /// abort is observed — a sleeping worker cannot poll the flag.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.parker.unpark_all();
    }

    /// The Off-cost trace gate: `false` unless a tracer is attached
    /// *and* its live level admits `min` (one relaxed load + branch).
    #[inline]
    pub(crate) fn trace_on(&self, min: TraceLevel) -> bool {
        match &self.tracer {
            Some(t) => t.tracer.enabled(min),
            None => false,
        }
    }

    /// Emits one flight-recorder record from worker `w` when the live
    /// level admits `min`. The emit itself is four relaxed stores plus
    /// one release publish into `w`'s own SPSC ring — no RMW, no lock.
    #[inline]
    pub(crate) fn trace_emit(
        &self,
        w: usize,
        min: TraceLevel,
        kind: EventKind,
        a: u32,
        b: u64,
        c: u64,
    ) {
        if let Some(t) = &self.tracer {
            if t.tracer.enabled(min) {
                t.rings[w].emit(clock::now(), kind as u8, a, b, c);
            }
        }
    }
}

/// Executes one task on worker `w`: locality accounting, NUMA cost
/// model, the body itself, then completion (dependency updates, barrier
/// notification, record release) — which a drop guard performs even if
/// the body unwinds.
pub(crate) fn execute(team: &TeamShared, w: usize, task: NonNull<Task>) {
    // SAFETY: we hold the task's handle reference; the record is alive.
    let creator = unsafe { task.as_ref() }.creator();
    let locality = team.placement.locality(creator, w);
    team.stats[w].record_execution(locality);
    team.cost.apply(locality);

    let tracing_tasks = team.trace_on(TraceLevel::Full);
    let timed = team.profiling || team.sampler.is_some() || tracing_tasks;
    let t0 = if timed { clock::now() } else { 0 };

    struct CompletionGuard<'a> {
        team: &'a TeamShared,
        w: usize,
        task: NonNull<Task>,
    }
    impl Drop for CompletionGuard<'_> {
        fn drop(&mut self) {
            let team = self.team;
            let w = self.w;
            if std::thread::panicking() {
                team.poison();
            }
            // SAFETY: record alive until our release below.
            let t = unsafe { self.task.as_ref() };
            if let Some(parent) = t.parent() {
                // SAFETY: the child holds a reference to the parent, so
                // the parent record is alive here.
                let p = unsafe { parent.as_ref() };
                p.child_completed();
                if p.release_ref() {
                    // SAFETY: last reference gone; worker slot owned.
                    unsafe { team.alloc.free(w, parent) };
                }
            }
            team.barrier.task_finished(w);
            if t.release_ref() {
                // SAFETY: as above.
                unsafe { team.alloc.free(w, self.task) };
            }
        }
    }

    let guard = CompletionGuard { team, w, task };
    // SAFETY: single-executor discipline — the handle reference we hold
    // is the only execution claim on this task.
    if let Some(body) = unsafe { Task::take_body(task) } {
        let ctx = TaskCtx {
            team,
            worker: w,
            task,
        };
        if team.isolate_panics {
            run_body_isolated(&ctx, task, body);
        } else {
            body(&ctx);
        }
    }
    drop(guard);
    if timed {
        let t1 = clock::now();
        if let Some(lanes) = &team.sampler {
            lanes[w].record(t1.saturating_sub(t0));
        }
        if team.profiling {
            // SAFETY: worker-ownership contract; leaf access.
            unsafe { team.logs.with(w, |l| l.push_span(EventKind::Task, t0, t1)) };
        }
        if tracing_tasks {
            if let Some(t) = &team.tracer {
                // Emit with the measured end stamp (payload `c` carries
                // the start) so the trace span matches the sampled span.
                t.rings[w].emit(t1, EventKind::Task as u8, 0, 0, t0);
            }
        }
    }
}

/// Panic-isolating teams (the task server): a panicking body fails only
/// its own job. The payload travels to the parent, whose next `taskwait`
/// re-raises it; the completion guard then runs on the normal
/// (non-unwinding) path, so the team is not poisoned.
///
/// Kept out of [`execute`] (`inline(never)`) so the `catch_unwind`
/// landing-pad state doesn't enlarge the classic path's stack frame —
/// `execute` frames nest deeply under the immediate-execution overflow
/// rule, where every byte per frame counts.
#[inline(never)]
fn run_body_isolated(ctx: &TaskCtx<'_>, task: NonNull<Task>, body: crate::task::TaskBody) {
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(ctx))) {
        // SAFETY: we hold a reference; the record is alive.
        if let Some(parent) = unsafe { task.as_ref() }.parent() {
            // SAFETY: the child retains its parent.
            unsafe { parent.as_ref() }.record_child_panic(payload);
        }
    }
}

/// The scheduling loop every worker runs inside the region-end barrier:
/// execute whatever the scheduler yields; when idle, fire the DLB thief
/// hook and poll the barrier.
///
/// ## The event-driven idle arm
///
/// With [`RuntimeConfig::park_idle`](crate::RuntimeConfig::park_idle) on
/// (the default), a worker that has exhausted its spin backoff parks on
/// the team's NUMA-aware [`Parker`] instead of yield-looping. Every
/// event that could end its idleness has a waker:
///
/// * a producer pushing into its lattice row (or any queue it can
///   reach) wakes it from the scheduler's `spawn`;
/// * a DLB victim migrating tasks into its row wakes it from the engine;
/// * an external submitter wakes it through the ingress doorbell
///   (`xgomp-service`);
/// * tree-barrier gather progress wakes it from the hand-off, so the
///   quiescence protocol counts parked workers correctly;
/// * region teardown and poison wake *everyone* — whichever worker
///   observes release or poisons the team calls
///   [`Parker::unpark_all`] before leaving its loop.
///
/// The announce → re-check → commit protocol (see `xgomp_xqueue::parker`)
/// makes the sleep race-free: the re-check below covers exactly the
/// conditions those wakers signal.
pub(crate) fn worker_loop(team: &TeamShared, w: usize) {
    let mut gate = IdleGate::default();
    // One merged span per idle period: closed as STALL when work shows
    // up, as BARRIER when the region ends (keeps logs bounded).
    let mut idle_t0: Option<u64> = None;
    // Flight-recorder baseline for this worker's own victim-side DLB
    // counters (single-writer, so deltas are exact): a grown
    // `nreq_has_steal` means a steal request we served moved tasks, a
    // grown `ntasks_stolen` counts the tasks migrated away. Sampling
    // our own counters here avoids threading the tracer through the
    // scheduler/engine call graph.
    let mut steal_base: Option<(u64, u64)> = None;
    loop {
        if team.poisoned.load(Ordering::Acquire) {
            team.parker.unpark_all();
            break;
        }
        if team.trace_on(TraceLevel::Full) {
            let stats = &team.stats[w];
            let served = stats.nreq_has_steal.load(Ordering::Relaxed);
            let stolen = stats.ntasks_stolen.load(Ordering::Relaxed);
            if let Some((served0, stolen0)) = steal_base {
                if served > served0 {
                    team.trace_emit(
                        w,
                        TraceLevel::Full,
                        EventKind::Steal,
                        0,
                        served - served0,
                        0,
                    );
                }
                if stolen > stolen0 {
                    team.trace_emit(
                        w,
                        TraceLevel::Full,
                        EventKind::Migrate,
                        0,
                        stolen - stolen0,
                        0,
                    );
                }
            }
            steal_base = Some((served, stolen));
        } else {
            steal_base = None;
        }
        if let Some(t) = team.sched.next_task(w) {
            if let Some(t0) = idle_t0.take() {
                team.log_span(w, EventKind::Stall, t0);
            }
            team.sched.pre_execute(w);
            execute(team, w, t);
            gate.reset();
            continue;
        }
        team.sched.on_idle(w);
        // Persistent-executor hook: before concluding the region might be
        // over, pull externally submitted work into the scheduler. The
        // injected tasks become children of the region's implicit task.
        if let Some(src) = &team.source {
            if let Some(root) = NonNull::new(team.root.load(Ordering::Acquire)) {
                let ctx = TaskCtx {
                    team,
                    worker: w,
                    task: root,
                };
                if src.poll(&ctx) > 0 {
                    if let Some(t0) = idle_t0.take() {
                        team.log_span(w, EventKind::Stall, t0);
                    }
                    gate.reset();
                    continue;
                }
            }
        }
        if team.profiling && idle_t0.is_none() {
            idle_t0 = Some(clock::now());
        }
        if team.barrier.try_release(w) {
            if let Some(t0) = idle_t0.take() {
                team.log_span(w, EventKind::Barrier, t0);
            }
            // Wake the sleepers so they observe the release too; for the
            // tree barrier this also chases the broadcast down the tree
            // (each releasing ancestor re-wakes everyone after
            // propagating to its children).
            team.parker.unpark_all();
            break;
        }
        // Announced (when the gate parks at all): re-check everything a
        // waker could have signalled between our last probes and the
        // announcement. The release probe participates in the gather, so
        // run it even though we polled just above: a releaser may have
        // scanned the park set before our announcement.
        let mut released = false;
        let slept = gate.idle(&team.parker, w, team.park_idle, || {
            let stay_awake = team.poisoned.load(Ordering::Acquire)
                || team.sched.has_work_hint(w)
                || team.source.as_ref().is_some_and(|s| s.has_pending());
            released = !stay_awake && team.barrier.try_release(w);
            if !(stay_awake || released) {
                team.trace_emit(w, TraceLevel::Lifecycle, EventKind::Park, 0, 0, 0);
            }
            stay_awake || released
        });
        if released {
            if let Some(t0) = idle_t0.take() {
                team.log_span(w, EventKind::Barrier, t0);
            }
            team.parker.unpark_all();
            break;
        }
        if slept {
            team.trace_emit(w, TraceLevel::Lifecycle, EventKind::Wake, 0, 0, 0);
        }
    }
}

/// Master path: run the region closure as the implicit task, then join
/// the barrier loop like any other worker.
fn master_main<R>(team: &TeamShared, f: impl FnOnce(&TaskCtx<'_>) -> R) -> R {
    // The implicit (root) task anchoring the region's task tree,
    // published so idle workers can parent injected tasks to it.
    // SAFETY: master owns worker slot 0.
    let root = unsafe { team.alloc.alloc(0, None, None, 0) };
    team.root.store(root.as_ptr(), Ordering::Release);

    struct PoisonOnUnwind<'a>(&'a TeamShared);
    impl Drop for PoisonOnUnwind<'_> {
        fn drop(&mut self) {
            self.0.poison();
        }
    }

    let result = {
        let ctx = TaskCtx {
            team,
            worker: 0,
            task: root,
        };
        let bomb = PoisonOnUnwind(team);
        let r = f(&ctx);
        std::mem::forget(bomb);
        r
    };

    team.barrier.arrive(0);
    worker_loop(team, 0);

    // Region quiesced: retire the implicit task. The published pointer is
    // cleared first; released workers have already left their loops.
    team.root.store(std::ptr::null_mut(), Ordering::Release);
    // SAFETY: region quiesced; all children released their references.
    let root_ref = unsafe { root.as_ref() };
    if root_ref.release_ref() {
        // SAFETY: last reference; worker slot 0 owned.
        unsafe { team.alloc.free(0, root) };
    }
    result
}

/// A configured runtime: the execution engine. Cheap to construct —
/// [`new`](Self::new) spawns no thread; the first region starts
/// `threads − 1` hot worker threads, which park on a start gate between
/// regions and are joined when the runtime drops. Every region builds
/// fresh *team state* on those hot *threads*, so each [`RegionOutput`]
/// field is per region (the paper's per-region measurement methodology).
///
/// Regions may overlap on one runtime — from several threads, or nested
/// from inside a task: a region *checks* the worker set *out*, and a
/// caller that finds it gone runs on a set of its own.
pub struct Runtime {
    cfg: RuntimeConfig,
    /// The hot worker set, while no region has it checked out.
    hot: Mutex<Option<Workers>>,
}

impl Runtime {
    /// Builds a runtime from `cfg` (validated).
    pub fn new(cfg: RuntimeConfig) -> Self {
        cfg.assert_team_size();
        Runtime {
            cfg,
            hot: Mutex::new(None),
        }
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Replaces the configuration between regions (`&mut self` proves
    /// none is open). Scheduler, barrier, DLB and allocator settings take
    /// effect at the next region, which builds fresh team state anyway;
    /// a changed worker count makes that region's check-out join the
    /// parked threads and spawn a new set — once per resize, never per
    /// region.
    pub fn reconfigure(&mut self, cfg: RuntimeConfig) {
        cfg.assert_team_size();
        self.cfg = cfg;
    }

    /// Opens a parallel region: `f` runs on the caller (worker 0, the
    /// master) as the implicit single task; the region returns when
    /// every transitively spawned task has completed (detected by the
    /// configured barrier).
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a task body that panicked inside the
    /// region, with the task's own payload; the runtime stays usable.
    pub fn parallel<R>(&self, f: impl FnOnce(&TaskCtx<'_>) -> R) -> RegionOutput<R> {
        self.region(ServingHooks::default(), false, f)
    }

    /// Opens a region with the persistent-executor [`ServingHooks`]: an
    /// ingress source polled by idle workers and optional live sampling
    /// / DLB tuning / telemetry hooks. Task-body panics are isolated:
    /// they re-raise at the parent's next `taskwait` instead of
    /// poisoning the team.
    pub fn serve<R>(
        &self,
        hooks: ServingHooks,
        f: impl FnOnce(&TaskCtx<'_>) -> R,
    ) -> RegionOutput<R> {
        self.region(hooks, true, f)
    }

    fn region<R>(
        &self,
        hooks: ServingHooks,
        isolate_panics: bool,
        f: impl FnOnce(&TaskCtx<'_>) -> R,
    ) -> RegionOutput<R> {
        let n_aux = self.cfg.threads - 1;
        // Check the hot workers out; an empty slot (first region, or an
        // overlapping region holds them) or a resized team spawns a set.
        let workers = locked(&self.hot)
            .take()
            .filter(|w| w.threads.len() == n_aux)
            .unwrap_or_else(|| Workers::spawn(n_aux));

        let team = Arc::new(build_team(&self.cfg, hooks, isolate_panics));
        let started = Instant::now();
        {
            let mut st = workers.gate.lock();
            st.team = Some(team.clone());
            st.retired = 0;
            st.generation += 1;
            workers.gate.cv.notify_all();
        }

        // A master that unwinds from here drops `workers`, which joins
        // them (the team is poisoned, so they drain out) instead of
        // returning threads of unknown state to the slot.
        let result = master_main(&team, f);

        {
            let mut st = workers.gate.lock();
            while st.retired < n_aux {
                st = workers.gate.wait(st);
            }
            st.team = None;
        }
        let wall = started.elapsed();
        // An overlapping region may have put its set back first; the
        // displaced one is joined here, outside the slot's lock.
        let displaced = locked(&self.hot).replace(workers);
        drop(displaced);

        let team = Arc::into_inner(team).expect("workers retired their team handles");
        if team.poisoned.load(Ordering::Acquire) {
            let payload = locked(&team.panic).take();
            match payload {
                Some(payload) => std::panic::resume_unwind(payload),
                None => panic!("a task body panicked inside the region"),
            }
        }
        finish_region(team, result, wall)
    }
}

/// The generation-stamped gate hot workers park on between regions.
#[derive(Default)]
struct StartGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Bumped once per opened region; workers run exactly the generations
    /// they observe.
    generation: u64,
    /// The open generation's team (present iff a region is running).
    team: Option<Arc<TeamShared>>,
    /// Workers that have finished the current generation.
    retired: usize,
    /// Set once, on drop: workers exit their park loop.
    shutdown: bool,
}

impl StartGate {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        locked(&self.state)
    }

    fn wait<'a>(&self, st: MutexGuard<'a, GateState>) -> MutexGuard<'a, GateState> {
        self.cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }
}

/// The park loop hot workers run for their whole life: wait for a
/// generation to open, run its region, retire, repeat.
fn parked_worker(gate: Arc<StartGate>, w: usize) {
    let mut last_gen = 0u64;
    loop {
        let team = {
            let mut st = gate.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation > last_gen {
                    break;
                }
                st = gate.wait(st);
            }
            last_gen = st.generation;
            Arc::clone(st.team.as_ref().expect("open generation has a team"))
        };
        // A panicking task body must not kill the hot worker: the
        // completion guard has already poisoned the team (ending the
        // region for everyone); catching here keeps the thread parkable
        // for the next generation and the payload for the region caller.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.barrier.arrive(w);
            worker_loop(&team, w);
        })) {
            team.poison();
            locked(&team.panic).get_or_insert(payload);
        }
        drop(team);
        let mut st = gate.lock();
        st.retired += 1;
        gate.cv.notify_all();
    }
}

/// One set of hot worker threads (workers `1..=n_aux` of a team) parked
/// on a start gate of their own. Dropping the set releases and joins it.
struct Workers {
    gate: Arc<StartGate>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Workers {
    fn spawn(n_aux: usize) -> Self {
        let gate = Arc::<StartGate>::default();
        let threads = (1..=n_aux)
            .map(|w| {
                let gate = gate.clone();
                std::thread::Builder::new()
                    .name(format!("xgomp-worker-{w}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || parked_worker(gate, w))
                    .expect("spawn worker thread")
            })
            .collect();
        Workers { gate, threads }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        {
            let mut st = self.gate.lock();
            st.shutdown = true;
            self.gate.cv.notify_all();
        }
        for h in self.threads.drain(..) {
            // A worker that unwound due to a bug would surface here; the
            // park loop itself never panics.
            let _ = h.join();
        }
    }
}

/// Drops an unexecuted task cleanly (teardown of aborted regions).
fn discard_task(team: &TeamShared, task: NonNull<Task>) {
    // SAFETY: drain handed us the only handle.
    let t = unsafe { task.as_ref() };
    if let Some(parent) = t.parent() {
        // SAFETY: child holds a parent reference.
        let p = unsafe { parent.as_ref() };
        p.child_completed();
        if p.release_ref() {
            // SAFETY: last reference; single-threaded teardown.
            unsafe { team.alloc.free(0, parent) };
        }
    }
    if t.release_ref() {
        // SAFETY: as above.
        unsafe { team.alloc.free(0, task) };
    }
}

/// What a parallel region returns: the closure's result plus the region's
/// telemetry.
#[derive(Debug)]
pub struct RegionOutput<R> {
    /// Value returned by the region closure.
    pub result: R,
    /// Per-worker counter snapshots (§V statistics).
    pub stats: TeamStats,
    /// Per-worker event logs (empty unless profiling was enabled).
    pub logs: Vec<PerfLog>,
    /// Wall-clock duration of the region: generation opened on the
    /// start gate to last worker retired. It contains no thread creation
    /// — the workers are hot — which is what the scheduler comparisons of
    /// Figs. 4–7 (`crates/bench`) want.
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;

    fn smoke(cfg: RuntimeConfig) {
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|ctx| {
            let mut acc = vec![0u64; 64];
            ctx.scope(|s| {
                for (i, slot) in acc.iter_mut().enumerate() {
                    s.spawn(move |_| {
                        *slot = (i as u64) * 2;
                    });
                }
            });
            acc.iter().sum::<u64>()
        });
        assert_eq!(out.result, (0..64u64).map(|i| i * 2).sum::<u64>());
        let total = out.stats.total();
        assert_eq!(total.tasks_created, 64);
        assert_eq!(total.tasks_executed, 64);
        out.stats.check_invariants().unwrap();
    }

    #[test]
    fn all_presets_run_a_region() {
        for threads in [1usize, 2, 4] {
            smoke(RuntimeConfig::gomp(threads));
            smoke(RuntimeConfig::lomp(threads));
            smoke(RuntimeConfig::xgomp(threads));
            smoke(RuntimeConfig::xgomptb(threads));
            smoke(RuntimeConfig::xlomp(threads));
        }
    }

    #[test]
    fn nested_scopes_and_taskwait() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let out = rt.parallel(|ctx| {
            let mut outer = [0u64; 8];
            ctx.scope(|s| {
                for (i, o) in outer.iter_mut().enumerate() {
                    s.spawn(move |ctx| {
                        let mut inner = [0u64; 4];
                        ctx.scope(|s2| {
                            for (j, v) in inner.iter_mut().enumerate() {
                                s2.spawn(move |_| *v = (i * 10 + j) as u64);
                            }
                        });
                        *o = inner.iter().sum();
                    });
                }
            });
            outer.iter().sum::<u64>()
        });
        let expect: u64 = (0..8u64)
            .map(|i| (0..4u64).map(|j| i * 10 + j).sum::<u64>())
            .sum();
        assert_eq!(out.result, expect);
    }

    #[test]
    fn empty_region_terminates_immediately() {
        for cfg in [
            RuntimeConfig::gomp(3),
            RuntimeConfig::xgomp(3),
            RuntimeConfig::xgomptb(3),
        ] {
            let rt = Runtime::new(cfg);
            let out = rt.parallel(|_| 42);
            assert_eq!(out.result, 42);
            assert_eq!(out.stats.total().tasks_created, 0);
        }
    }

    #[test]
    fn detached_static_spawns_complete_before_region_ends() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        let out = rt.parallel(move |ctx| {
            for _ in 0..100 {
                let c = c2.clone();
                ctx.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        drop(out);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn deep_recursion_via_immediate_execution() {
        // Tiny queues force the overflow → execute-immediately path.
        let cfg = RuntimeConfig::xgomptb(2).queue_capacity(2);
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|ctx| {
            fn fib(ctx: &TaskCtx<'_>, n: u64) -> u64 {
                if n < 2 {
                    return n;
                }
                let (mut a, mut b) = (0, 0);
                ctx.scope(|s| {
                    s.spawn(|ctx| a = fib(ctx, n - 1));
                    s.spawn(|ctx| b = fib(ctx, n - 2));
                });
                a + b
            }
            fib(ctx, 16)
        });
        assert_eq!(out.result, 987);
        assert!(out.stats.total().ntasks_imm_exec > 0);
    }

    #[test]
    fn profiling_collects_events() {
        let cfg = RuntimeConfig::xgomptb(2).profiling(true);
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|ctx| {
            ctx.scope(|s| {
                for _ in 0..32 {
                    s.spawn(|_| std::hint::spin_loop());
                }
            });
        });
        assert_eq!(out.logs.len(), 2);
        let events: usize = out.logs.iter().map(|l| l.events().len()).sum();
        assert!(events > 0, "profiling produced no events");
    }

    #[test]
    fn dlb_configs_run_clean() {
        use crate::dlb::{DlbConfig, DlbStrategy};
        for strat in [DlbStrategy::WorkSteal, DlbStrategy::RedirectPush] {
            let cfg =
                RuntimeConfig::xgomptb(4).dlb(DlbConfig::new(strat).n_steal(4).t_interval(16));
            let rt = Runtime::new(cfg);
            let out = rt.parallel(|ctx| {
                let mut acc = vec![0u64; 256];
                ctx.scope(|s| {
                    for (i, slot) in acc.iter_mut().enumerate() {
                        s.spawn(move |_| {
                            // Unbalanced grains provoke stealing.
                            let spins = (i % 7) * 100;
                            for _ in 0..spins {
                                std::hint::spin_loop();
                            }
                            *slot = 1;
                        });
                    }
                });
                acc.iter().sum::<u64>()
            });
            assert_eq!(out.result, 256);
            out.stats.check_invariants().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "task body panicked")]
    fn task_panic_propagates_without_hanging() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(2));
        rt.parallel(|ctx| {
            ctx.spawn(|_| panic!("task body panicked"));
            // Give the panicking task a chance to run on either worker.
            ctx.taskwait();
        });
    }

    #[test]
    fn parked_workers_wake_for_late_work_and_release() {
        // The master stays busy (no spawns) long enough for every other
        // worker to exhaust its backoff and park inside the region; the
        // late spawns must wake them, and region teardown must release
        // the sleepers — onto the start gate, where the next round's
        // generation finds them.
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        for round in 0..3u64 {
            let out = rt.parallel(|ctx| {
                std::thread::sleep(Duration::from_millis(60));
                let mut acc = vec![0u64; 64];
                ctx.scope(|s| {
                    for (i, slot) in acc.iter_mut().enumerate() {
                        s.spawn(move |_| *slot = round * 100 + i as u64);
                    }
                });
                acc.iter().sum::<u64>()
            });
            assert_eq!(out.result, (0..64u64).map(|i| round * 100 + i).sum());
            out.stats.check_invariants().unwrap();
        }
    }

    #[test]
    fn spin_mode_still_works_with_parking_disabled() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(4).park_idle(false));
        let out = rt.parallel(|ctx| {
            let mut acc = vec![0u64; 128];
            ctx.scope(|s| {
                for (i, slot) in acc.iter_mut().enumerate() {
                    s.spawn(move |_| *slot = i as u64);
                }
            });
            acc.iter().sum::<u64>()
        });
        assert_eq!(out.result, (0..128u64).sum());
    }

    #[test]
    fn reconfigure_resizes_and_swaps_between_regions() {
        let mut rt = Runtime::new(RuntimeConfig::xgomptb(2));
        let run_sum = |rt: &Runtime| {
            let n = rt.config().threads;
            let out = rt.parallel(move |ctx| {
                assert_eq!(ctx.n_workers(), n);
                let mut acc = vec![0u64; n * 8];
                ctx.scope(|s| {
                    for (i, slot) in acc.iter_mut().enumerate() {
                        s.spawn(move |_| *slot = i as u64);
                    }
                });
                acc.iter().sum::<u64>()
            });
            out.stats.check_invariants().unwrap();
            out.result
        };
        assert_eq!(run_sum(&rt), (0..16u64).sum());
        // Grow: 2 → 4 workers, and swap the barrier kind with it.
        rt.reconfigure(RuntimeConfig::xgomp(4));
        assert_eq!(run_sum(&rt), (0..32u64).sum());
        // Same-size swap keeps the threads, then shrink to a lone master.
        rt.reconfigure(RuntimeConfig::xgomptb(4).queue_capacity(16));
        assert_eq!(rt.config().queue_capacity, 16);
        assert_eq!(run_sum(&rt), (0..32u64).sum());
        rt.reconfigure(RuntimeConfig::xgomptb(1));
        assert_eq!(run_sum(&rt), (0..8u64).sum());
    }

    fn panic_message(region: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(region))
            .expect_err("task panic must propagate out of the region");
        let literal = payload.downcast_ref::<&str>().map(|s| s.to_string());
        literal
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic! payloads are strings")
    }

    #[test]
    fn off_master_task_panic_payload_reaches_the_caller() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(2));
        let msg = panic_message(|| {
            rt.parallel(|ctx| {
                // Static balancing: only worker 1 can pop its own row.
                ctx.scope(|s| s.spawn_on(1, |c| panic!("boom on worker {}", c.worker_id())));
            });
        });
        assert_eq!(msg, "boom on worker 1");
    }

    #[test]
    fn runtime_survives_a_panicked_region() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(2));
        let msg = panic_message(|| {
            rt.parallel(|ctx| {
                ctx.spawn(|_| panic!("poisoned region"));
                ctx.taskwait();
            });
        });
        assert_eq!(msg, "poisoned region");
        // The next region runs normally.
        let out = rt.parallel(|ctx| {
            let mut acc = vec![0u64; 32];
            ctx.scope(|s| {
                for (i, slot) in acc.iter_mut().enumerate() {
                    s.spawn(move |_| *slot = i as u64);
                }
            });
            acc.iter().sum::<u64>()
        });
        assert_eq!(out.result, (0..32u64).sum());
        out.stats.check_invariants().unwrap();
    }

    #[test]
    fn idle_workers_drain_an_ingress_source() {
        use std::sync::atomic::AtomicUsize;

        const JOBS: usize = 500;

        struct CountSource {
            remaining: AtomicUsize,
            hits: Arc<AtomicUsize>,
        }
        impl IngressSource for CountSource {
            fn poll(&self, ctx: &TaskCtx<'_>) -> usize {
                let mut injected = 0;
                // Claim up to 8 pending jobs per poll.
                while injected < 8 {
                    let claimed = self
                        .remaining
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                        .is_ok();
                    if !claimed {
                        break;
                    }
                    let hits = self.hits.clone();
                    ctx.spawn_boxed(Box::new(move |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }));
                    injected += 1;
                }
                injected
            }
        }

        let hits = Arc::new(AtomicUsize::new(0));
        let source = Arc::new(CountSource {
            remaining: AtomicUsize::new(JOBS),
            hits: hits.clone(),
        });
        let sampler = Arc::<LiveTaskSampler>::default();
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let h2 = hits.clone();
        let hooks = ServingHooks {
            source: Some(source),
            sampler: Some(sampler.clone()),
            ..ServingHooks::default()
        };
        let out = rt.serve(hooks, move |ctx| {
            // The master helps until every injected job has executed.
            while h2.load(Ordering::Relaxed) < JOBS {
                ctx.run_pending(32);
                std::hint::spin_loop();
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), JOBS);
        assert_eq!(out.stats.total().tasks_executed as usize, JOBS);
        assert_eq!(sampler.tasks_observed() as usize, JOBS);
        out.stats.check_invariants().unwrap();
    }
}
