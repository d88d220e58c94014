//! The submission pipeline, written once: admit → make the job's record →
//! place along a [`Route`]. [`Submission`] is the options-carrying view
//! both [`TaskServer`] and [`SubmitterHandle`] submit through.
//!
//! A submit allocates the job's one record (closure, handle state and
//! result slot together, see `handle.rs`) and its token; nothing else.
//! What crosses the ingress is the record's one-word [`JobRef`], and a
//! deadline's sweep entry holds another, so no allocation the submitter
//! makes is freed by a worker unless the worker drops the last
//! reference.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::placement::Route;
use super::{ServerShared, SubmitError, TaskServer};
use crate::handle::{JobError, JobHandle, JobPanic, JobRef, JobState, PHASE_SHED_DEADLINE};
use crate::SubmitOptions;
use xgomp_core::{
    clock, CancelToken, CancelUnwind, EventKind, LoopReport, LoopSchedule, LoopSpace, TaskCtx,
    TraceLevel,
};
use xgomp_xqueue::bump;

impl ServerShared {
    /// Makes the job's record: its result handle and the queued job body
    /// (unwind-caught, completion-accounted, lifecycle-traced) in one
    /// allocation.
    ///
    /// The wrapper is the **single accounting site**: whether the body
    /// ran, unwound at a cancellation checkpoint, or was shed before it
    /// ever started, exactly one of the class's `completed`/`cancelled`/
    /// `shed` cells moves, in the outcome cell of the worker the wrapper
    /// runs on — and the job leaves the ledger (`in_flight`,
    /// class cap) here and only here, at drain time, so the drains'
    /// "`in_flight` counts every unfinished job" rule survives
    /// cancellation. `JobHandle::cancel` and the deadline sweep only
    /// resolve the *handle* early; they never touch the counters. A
    /// deadline job also leaves the deadline set here, whichever way it
    /// resolved.
    fn make_job<R, F>(self: &Arc<Self>, opts: SubmitOptions, f: F) -> (JobHandle<R>, JobRef)
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let id = self.job_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let qos = opts.qos;
        let now = clock::now();
        let deadline_tick = opts.deadline.map(|d| {
            let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            now.saturating_add(clock::ns_to_ticks(ns))
        });
        let token = match deadline_tick {
            Some(tick) => CancelToken::with_deadline_tick(tick),
            None => CancelToken::new(),
        };
        self.submitted[qos.index()]
            .0
            .fetch_add(1, Ordering::Relaxed);
        let shared = self.clone();
        let body = move |ctx: &TaskCtx<'_>, state: &JobState<R>| {
            let (id, token) = (state.id, &state.token);
            // Start-time gate: claim `QUEUED → RUNNING`, unless a cancel
            // or the deadline got there first — then the body never
            // runs and the job is *shed* (the handle may already be
            // resolved; `try_shed` is a no-op in that case).
            let t_start = clock::now();
            let started = match token.poll() {
                None => state.try_start(),
                Some(reason) => {
                    state.try_shed(reason.into());
                    false
                }
            };
            // This worker's outcome cell: no line here is written by
            // another worker or by the submitter.
            let cs = &shared.outcomes.slot(ctx.worker_id())[qos.index()];
            let emit = |kind, a, c| ctx.trace_emit(TraceLevel::Lifecycle, kind, a, id, c);
            // The sweep needs the entry until the body has finished (it
            // fires the token of a running job); once the job resolves,
            // the entry would only keep the record alive until its tick.
            let leave_deadlines = || {
                if let Some(tick) = token.deadline_tick() {
                    shared.deadlines.remove(tick, id);
                }
            };
            if started {
                // Lifecycle stamps feed both the flight recorder (one
                // `JobStart`..`JobEnd` async span per job id) and the
                // handle's `JobReport`; `state.complete`'s release store
                // publishes the relaxed stamp stores to `report()`
                // readers.
                state.started.store(t_start, Ordering::Relaxed);
                emit(EventKind::JobStart, 0, state.submitted);
                // The token rides the job's root task from here: every
                // task the body spawns (loop drain tasks included)
                // inherits a clone, and the checkpoints poll it.
                ctx.set_cancel_token(token.clone());
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
                ctx.clear_cancel_token();
                let result = caught.map_err(|payload| {
                    // A checkpoint unwind is a *typed* outcome, not a
                    // panic: no recorder dump, no JobPanic rendering.
                    match payload.downcast::<CancelUnwind>() {
                        Ok(cu) => cu.0.into(),
                        Err(payload) => JobError::Panicked(JobPanic::from_payload(&*payload)),
                    }
                });
                let t_end = clock::now();
                state.finished.store(t_end, Ordering::Relaxed);
                // JobEnd `a` is the outcome code: 0 clean, 1 panicked,
                // 2 cancelled, 3 deadline-cancelled.
                let (code, outcome) = match &result {
                    Ok(_) => (0, &cs.completed),
                    Err(JobError::Panicked(_)) => (1, &cs.completed),
                    Err(JobError::Cancelled) => (2, &cs.cancelled),
                    Err(JobError::DeadlineExceeded) => (3, &cs.cancelled),
                };
                emit(EventKind::JobEnd, code, t_start);
                cs.queued_hist
                    .record_ticks(t_start.saturating_sub(state.submitted));
                cs.run_hist.record_ticks(t_end.saturating_sub(t_start));
                if code >= 2 {
                    emit(EventKind::Cancel, code - 2, 0);
                } else if code == 1 {
                    // Dump *before* completing: the joiner's `JobPanic`
                    // then implies the flight-recorder file already
                    // exists.
                    shared.dump_flight_recorder(&format!("panic-job-{id}.trace.json"));
                }
                bump(outcome, 1);
                // Before the completion, so a joined job has left the
                // deadline set by the time its joiner returns.
                leave_deadlines();
                // Completion order matters: the handle is observable
                // before the drain accounting lets a shutdown (or
                // pause) finish.
                state.complete(result);
            } else {
                // Shed before starting: the handle resolved when the
                // shed was claimed (cancel()/sweep/the try_shed above);
                // only the drain accounting remains. `Shed.a`: 0 cancel,
                // 1 deadline.
                let by_deadline = state.phase.load(Ordering::Acquire) == PHASE_SHED_DEADLINE;
                emit(EventKind::Shed, by_deadline as u32, state.submitted);
                bump(&cs.shed, 1);
                leave_deadlines();
            }
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            shared.release_class_slot(qos);
            shared.notify_capacity();
        };
        let (handle, job) = JobHandle::new(id, now, token, body);
        if let Some(tick) = deadline_tick {
            self.deadlines.register(tick, id, job.clone());
        }
        (handle, job)
    }
}

/// A submission view: a server (or pinned lane) plus the
/// [`SubmitOptions`] every job submitted through it carries. Obtained
/// from [`TaskServer::with`] or [`SubmitterHandle::with`]:
///
/// ```
/// use xgomp_service::{QosClass, ServerConfig, SubmitOptions, TaskServer};
///
/// let server = TaskServer::start(ServerConfig::new(2));
/// let opts = SubmitOptions::new().qos(QosClass::Background);
/// let h = server.with(opts).submit(|_| 7u32).expect("server is open");
/// assert_eq!(h.join().unwrap(), 7);
/// server.shutdown();
/// ```
///
/// Submitting takes `&mut self`: on a [`SubmitterHandle`]'s view the
/// exclusive borrow *is* the reserved lane's single-producer claim.
pub struct Submission<'a> {
    shared: &'a Arc<ServerShared>,
    route: Route,
    opts: SubmitOptions,
}

impl Submission<'_> {
    /// The one admit → wrap → place sequence behind every submit
    /// flavor. `wrap` turns the admitted payload into the job closure;
    /// a refusal hands the payload back untouched. The handle learns
    /// whether placing the job woke a parked worker: only then may its
    /// joiner spin before it sleeps.
    fn try_place<P, J, R>(
        &mut self,
        payload: P,
        wrap: impl FnOnce(P) -> J,
    ) -> Result<JobHandle<R>, SubmitError<P>>
    where
        J: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let payload = self.shared.admit_or(self.opts.qos, payload)?;
        let (mut handle, job) = self.shared.make_job(self.opts, wrap(payload));
        handle.spin = self.shared.place(self.route, job);
        Ok(handle)
    }

    /// The blocking retry behind `submit`/`submit_for`: parks on the
    /// capacity condvar through backpressure (and through a pause at the
    /// bound), failing only on a terminal rejection — waiting cannot
    /// change a `Closed` or `InvalidLoop` verdict.
    fn blocking<P, H>(
        &mut self,
        mut payload: P,
        mut attempt: impl FnMut(&mut Self, P) -> Result<H, SubmitError<P>>,
    ) -> Result<H, SubmitError<P>> {
        loop {
            match attempt(self, payload) {
                Err(SubmitError::Backpressure(back)) | Err(SubmitError::Paused(back)) => {
                    payload = back;
                    self.shared.wait_capacity(self.opts.qos);
                }
                done => return done,
            }
        }
    }

    /// Non-blocking submission. The error tells the caller exactly why
    /// ([`SubmitError`]) and hands the closure back. The job admits
    /// under its [`QosClass`](crate::QosClass)'s quota, and an expired
    /// deadline sheds it before start / cancels it cooperatively mid-run
    /// (the handle then resolves with the matching [`JobError`]). While
    /// the server is paused, submissions below the in-flight bound are
    /// accepted and queue for the next generation. Once admitted, the
    /// job is always placed.
    pub fn try_submit<R, F>(&mut self, f: F) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.try_place(f, |f| f)
    }

    /// Blocking submission: parks until the job's *class* quota frees
    /// (a Background submit blocked on its class cap wakes on
    /// completions like any other; at the bound of a paused server,
    /// capacity frees on resume), failing only once the server is
    /// closed.
    pub fn submit<R, F>(&mut self, f: F) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.blocking(f, |view, f| view.try_submit(f))
    }

    /// Non-blocking submission of a **data-parallel job**: `body` runs
    /// once per point of `space` — any [`LoopSpace`]: a plain integer
    /// range, or an [`IterSpace`](crate::IterSpace) 2D/triangular shape
    /// — scheduled across the team by `schedule` (see [`LoopSchedule`])
    /// through `TaskCtx::parallel_for` — NUMA-blocked zone pane sets
    /// (u64 spaces auto-wave), zone-local claims first, cross-zone pane
    /// stealing when a zone runs dry.
    ///
    /// The loop is one *job*: admission control, panic isolation,
    /// pause/resume draining and per-generation telemetry all treat it
    /// exactly like a task job, and the returned handle completes with
    /// the loop's [`LoopReport`]. Rejections hand `body` back — an
    /// invalid space (beyond 2⁶² scheduling units) comes back as
    /// [`SubmitError::InvalidLoop`] *before* admission, so it costs no
    /// in-flight slot and never reaches a worker. A cancelled (or
    /// deadline-expired) loop job abandons its remaining ranges at the
    /// next chunk-claim checkpoint; the un-run iterations are conserved
    /// into the loop subsystem's `cancelled_iters` counter and the
    /// handle resolves with the typed [`JobError`].
    pub fn try_submit_for<S, F>(
        &mut self,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<JobHandle<LoopReport>, SubmitError<F>>
    where
        S: LoopSpace + Send + 'static,
        F: Fn(S::Point, &TaskCtx<'_>) + Send + Sync + 'static,
    {
        if let Err(e) = space.to_space().validate() {
            return Err(SubmitError::InvalidLoop(body, e));
        }
        let site = self.opts.loop_site;
        self.try_place(body, |body| {
            move |ctx: &TaskCtx<'_>| ctx.parallel_for_at(site, space, schedule, body)
        })
    }

    /// Blocking variant of [`try_submit_for`](Self::try_submit_for):
    /// parks on the capacity condvar through backpressure (and through a
    /// pause at the bound), failing only once the server is closed.
    pub fn submit_for<S, F>(
        &mut self,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<JobHandle<LoopReport>, SubmitError<F>>
    where
        S: LoopSpace + Clone + Send + 'static,
        F: Fn(S::Point, &TaskCtx<'_>) + Send + Sync + 'static,
    {
        self.blocking(body, |view, body| {
            view.try_submit_for(space.clone(), schedule, body)
        })
    }
}

impl TaskServer {
    /// The submission view carrying `opts`: every job submitted through
    /// it admits under `opts.qos` and carries `opts.deadline` /
    /// `opts.loop_site` (see [`Submission`]). Anonymous placement: the
    /// calling thread's stable shard hint.
    pub fn with(&self, opts: SubmitOptions) -> Submission<'_> {
        Submission {
            shared: &self.shared,
            route: Route::Anonymous {
                hint: submitter_shard_hint(self.shared.ingress.n_shards()),
            },
            opts,
        }
    }

    /// [`Submission::try_submit`] with default options (Normal class,
    /// no deadline).
    pub fn try_submit<R, F>(&self, f: F) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.with(SubmitOptions::default()).try_submit(f)
    }

    /// [`Submission::submit`] with default options.
    pub fn submit<R, F>(&self, f: F) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.with(SubmitOptions::default()).submit(f)
    }

    /// [`Submission::try_submit_for`] with default options.
    pub fn try_submit_for<S, F>(
        &self,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<JobHandle<LoopReport>, SubmitError<F>>
    where
        S: LoopSpace + Send + 'static,
        F: Fn(S::Point, &TaskCtx<'_>) + Send + Sync + 'static,
    {
        self.with(SubmitOptions::default())
            .try_submit_for(space, schedule, body)
    }

    /// [`Submission::submit_for`] with default options.
    pub fn submit_for<S, F>(
        &self,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<JobHandle<LoopReport>, SubmitError<F>>
    where
        S: LoopSpace + Clone + Send + 'static,
        F: Fn(S::Point, &TaskCtx<'_>) + Send + Sync + 'static,
    {
        self.with(SubmitOptions::default())
            .submit_for(space, schedule, body)
    }

    /// Registers a pinned submitter for NUMA zone `zone` (any value is
    /// accepted; it is mapped onto the zones that actually host
    /// workers).
    ///
    /// The handle owns a reserved ingress lane in the zone's shard when
    /// one is free — its pushes are then plain SPSC enqueues with zero
    /// claim traffic and zero cross-submitter contention. When every
    /// lane of the shard is already reserved the handle still works,
    /// falling back to the anonymous claim path. Dropping the handle
    /// releases the lane.
    ///
    /// Registration survives every lifecycle transition short of
    /// shutdown: the lane (and anything queued in it) rides through
    /// `pause`/`resume` and config swaps untouched.
    pub fn register_submitter(&self, zone: usize) -> SubmitterHandle {
        let n = self.shared.ingress.n_shards();
        let shard = (0..n)
            .find(|&s| self.shared.zone_of_shard[s].load(Ordering::Relaxed) == zone)
            .unwrap_or(zone % n);
        let lane = self.shared.ingress.shard(shard).reserve_lane();
        SubmitterHandle {
            shared: self.shared.clone(),
            shard,
            lane,
        }
    }
}

/// A pinned submission handle from [`TaskServer::register_submitter`]:
/// one reserved SPSC ingress lane in one NUMA zone's shard.
///
/// Submission semantics mirror the server's ([`try_submit`] fails with a
/// [`SubmitError`]; [`submit`] parks through backpressure), but
/// placement is *strict*: an admitted job lands in the pinned lane,
/// waiting for drains rather than spilling to claim-guarded lanes —
/// which is what keeps registered traffic contention-free and per-lane
/// accounting exact. The one exception is a paused server whose lane is
/// full: with no drainer running until resume, the job diverts to the
/// server's spill so `try_submit` cannot block until `resume`. Handles
/// without a lane (shard fully reserved) place anonymously.
///
/// Submission takes `&mut self`: the reserved lane is a
/// single-producer ring and the exclusive borrow *is* the producer
/// claim — one handle, one thread at a time. To submit from several
/// threads, register one handle per thread (that is the point of
/// registration).
///
/// The handle is independent of the [`TaskServer`] value's lifetime
/// (both share the server state) and stays registered across
/// [`pause`](TaskServer::pause)/[`resume`](TaskServer::resume) cycles
/// and config swaps; submissions fail once the server shuts down.
///
/// [`try_submit`]: SubmitterHandle::try_submit
/// [`submit`]: SubmitterHandle::submit
pub struct SubmitterHandle {
    shared: Arc<ServerShared>,
    shard: usize,
    lane: Option<usize>,
}

impl SubmitterHandle {
    /// The ingress shard this handle feeds.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The reserved lane, if one was free at registration.
    pub fn lane(&self) -> Option<usize> {
        self.lane
    }

    /// The submission view carrying `opts` through this handle's lane
    /// (see [`Submission`]); it holds the handle's exclusive borrow.
    pub fn with(&mut self, opts: SubmitOptions) -> Submission<'_> {
        let shard = self.shard;
        Submission {
            shared: &self.shared,
            route: match self.lane {
                Some(lane) => Route::Pinned { shard, lane },
                None => Route::Anonymous { hint: shard },
            },
            opts,
        }
    }

    /// Non-blocking admission, pinned placement, default options. Fails
    /// with a [`SubmitError`] carrying the closure back; once admitted,
    /// the job is always placed.
    pub fn try_submit<R, F>(&mut self, f: F) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.with(SubmitOptions::default()).try_submit(f)
    }

    /// Blocking submission through the pinned lane, default options;
    /// parks through backpressure and fails only once the server is
    /// closed.
    pub fn submit<R, F>(&mut self, f: F) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.with(SubmitOptions::default()).submit(f)
    }
}

impl Drop for SubmitterHandle {
    fn drop(&mut self) {
        if let Some(lane) = self.lane.take() {
            self.shared.ingress.shard(self.shard).release_lane(lane);
        }
    }
}

/// Stable-per-thread shard choice, so an anonymous submitter keeps
/// feeding the same zone (its jobs' spawned subtasks then stay
/// creator-local by default). Registered submitters pin explicitly.
fn submitter_shard_hint(n_shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    thread_local! {
        static HINT: std::cell::OnceCell<usize> = const { std::cell::OnceCell::new() };
    }
    if n_shards <= 1 {
        return 0;
    }
    HINT.with(|cell| {
        *cell.get_or_init(|| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            h.finish() as usize
        })
    }) % n_shards
}
