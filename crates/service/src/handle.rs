//! Futures-style job handles: completion state shared between the
//! submitting thread and the worker that eventually runs the job.
//!
//! A handle resolves with `Result<R, JobError>`: the job's value, or a
//! typed reason it never produced one — a panic caught at the job
//! boundary, a cooperative [`cancel`](JobHandle::cancel), or an expired
//! deadline. Jobs move through a tiny phase machine (`queued → running`,
//! or `queued → shed` when a cancel/deadline resolves the handle before
//! the body ever ran); the server's job wrapper is the only place that
//! turns phases into counter accounting, so `completed + cancelled +
//! shed == submitted` holds exactly no matter how racy the callers are.
//!
//! ## Who wakes whom
//!
//! Exactly one party completes a job — the wrapper after the body, or
//! whichever of `cancel` / the deadline sweep / the wrapper's start-time
//! check sheds it — and every one of them goes through
//! `JobState::complete`. The only threads that ever sleep on a job are
//! external joiners in [`join`](JobHandle::join) /
//! [`join_timeout`](JobHandle::join_timeout); in-team joins help
//! execute tasks and poll `is_done` instead. A sleeping joiner counts
//! itself in `JobHeader::waiters` before it takes the slot lock, and the
//! completer broadcasts on the condvar only when that count is nonzero.
//! So a job nobody is parked on — polled with `try_join`/`is_done`,
//! joined after it finished, or never joined at all — completes with
//! one uncontended lock round trip and no syscall; a parked joiner is
//! woken exactly once.
//!
//! A joiner does not always sleep at once. When the submit that made the
//! handle had to wake a parked worker, the job is about to run on an
//! otherwise idle team, and a condvar sleep would add a futex wake to its
//! latency. Such a joiner first spins on `is_done` while the job is
//! younger than [`JOIN_SPIN`] (counted from admission) and the join's
//! deadline has not passed, and sleeps only if that runs out. A handle
//! whose submit found the team awake — busy, or never parking — and a job
//! joined late sleep straight away, so a saturated client never spins
//! against the workers for a core.
//!
//! ## One record per job
//!
//! A job is one heap allocation, made by its submitter: a [`JobRecord`]
//! holds the job's state — phase word, `done`/`waiters`, stamps, id,
//! token, the result slot with its mutex and condvar — under one
//! reference count, with the job's body inline after it. The body's type
//! is erased behind one thunk monomorphized for the record's types, which
//! runs the body, sheds the job or frees the record ([`Op`]). Three
//! parties count references: the [`JobHandle`], typed over the result
//! only; the one-word [`JobRef`] that crosses the ingress, which the
//! drain spawns inside a one-word closure, so the root task stores it
//! inline; and a deadline job's sweep entry, another `JobRef`. Whoever
//! drops the last reference frees the record. For a joined job that is
//! usually the joiner, on the thread that allocated the record; a
//! detached handle leaves it to the worker.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::{locked, wait, wait_timeout};
use xgomp_core::{clock, CancelReason, CancelToken, TaskCtx};

/// How long after admission a spin-gated joiner polls `is_done` before
/// it sleeps on the condvar (see "Who wakes whom"). On a 2-core Xeon
/// host a ping to a parked team takes 10–17 µs from admission to
/// completion, of which the worker's wake-up is 4–8 µs: a budget of one
/// wake-up would run out just before most pings finish. A saturated
/// client joins its jobs at an age of about 160 µs, past this budget.
pub(crate) const JOIN_SPIN: Duration = Duration::from_micros(50);

/// Job phases (`JobHeader::phase`). `QUEUED → RUNNING` is claimed by the
/// job wrapper when the body starts; `QUEUED → SHED_*` by whichever of
/// `JobHandle::cancel` / the deadline sweep / the wrapper's own
/// start-time check gets there first — exactly one transition out of
/// `QUEUED` ever wins, which is what makes the shed/cancelled/completed
/// partition exact.
pub(crate) const PHASE_QUEUED: u32 = 0;
pub(crate) const PHASE_RUNNING: u32 = 1;
pub(crate) const PHASE_SHED_CANCEL: u32 = 2;
pub(crate) const PHASE_SHED_DEADLINE: u32 = 3;

/// Error returned by [`JobHandle::join`] when the job's body panicked.
///
/// Exactly one job is affected: the server catches the unwind at the job
/// boundary, so the team — and every other in-flight job — keeps running.
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// Best-effort rendering of the panic payload.
    pub message: String,
}

impl JobPanic {
    pub(crate) fn from_payload(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "job panicked with a non-string payload".to_string()
        };
        JobPanic { message }
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Why a job completed without a result.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The body panicked (caught at the job boundary; the team and every
    /// other job keep running).
    Panicked(JobPanic),
    /// [`JobHandle::cancel`] fired the job's token: a queued job resolves
    /// immediately, a running one unwinds at its next cancellation
    /// checkpoint (chunk claim, `taskwait`, static-block stride).
    Cancelled,
    /// The job's deadline passed: shed before starting, or cancelled
    /// cooperatively mid-run (same checkpoints as
    /// [`Cancelled`](Self::Cancelled)).
    DeadlineExceeded,
}

impl JobError {
    /// The caught panic, when that is what ended the job.
    pub fn panic(&self) -> Option<&JobPanic> {
        match self {
            JobError::Panicked(p) => Some(p),
            _ => None,
        }
    }

    /// Whether the job ended by explicit cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, JobError::Cancelled)
    }

    /// Whether the job ended because its deadline passed.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(self, JobError::DeadlineExceeded)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(p) => p.fmt(f),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::DeadlineExceeded => write!(f, "job deadline exceeded"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Panicked(p) => Some(p),
            _ => None,
        }
    }
}

impl From<JobPanic> for JobError {
    fn from(p: JobPanic) -> Self {
        JobError::Panicked(p)
    }
}

impl From<CancelReason> for JobError {
    fn from(reason: CancelReason) -> Self {
        match reason {
            CancelReason::Cancelled => JobError::Cancelled,
            CancelReason::DeadlineExceeded => JobError::DeadlineExceeded,
        }
    }
}

/// Typed timeout of a bounded join ([`JobHandle::join_timeout`] /
/// [`JobHandle::join_within_timeout`]): the job is still pending and the
/// handle comes back inside the error, so the caller can keep waiting,
/// [`cancel`](JobHandle::cancel) it, or drop it.
pub struct JoinTimeout<R> {
    /// The still-pending handle.
    pub handle: JobHandle<R>,
}

impl<R> std::fmt::Debug for JoinTimeout<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinTimeout")
            .field("job_id", &self.handle.job_id())
            .finish()
    }
}

impl<R> std::fmt::Display for JoinTimeout<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "join timed out: job {} is still pending",
            self.handle.job_id()
        )
    }
}

impl<R> std::error::Error for JoinTimeout<R> {}

/// Per-job latency breakdown, in timestamp-counter **cycles** (the same
/// clock the flight recorder stamps events with; convert via
/// `clock::cycles_per_ns` if wall time is needed).
///
/// Available from [`JobHandle::report`] once the job has completed.
/// `queued_cycles` covers admission → first instruction of the body
/// (ingress residency plus scheduling latency); `run_cycles` covers the
/// body itself (including a panicking body's partial run);
/// `total_cycles = queued_cycles + run_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobReport {
    /// Server-unique job id (also the flight recorder's async-span id
    /// for this job's `JobStart`/`JobEnd` events).
    pub job_id: u64,
    /// Cycles between admission and the job body starting to run.
    pub queued_cycles: u64,
    /// Cycles the job body ran for.
    pub run_cycles: u64,
    /// Cycles between admission and completion.
    pub total_cycles: u64,
}

/// The untyped part of a job record: everything but the result slot and
/// the body, so the ingress, the drain and the deadline sweep reach it
/// without knowing the job's types.
pub(crate) struct JobHeader {
    /// References to the record: the handle, the queued [`JobRef`] and a
    /// deadline's sweep entry. The last one dropped frees the record.
    refs: AtomicUsize,
    /// The record's thunk, monomorphized for its types (see [`Op`]).
    thunk: Thunk,
    /// Whether the body is still in the record. The drain clears it when
    /// it takes the body to run; a record freed with it set drops the body
    /// unrun.
    has_body: AtomicBool,
    done: AtomicBool,
    /// Joiners inside `JobHandle::wait_until` — registered before they
    /// take the slot lock, deregistered on every exit. `complete` wakes
    /// the condvar only when this is nonzero.
    waiters: AtomicU32,
    cv: Condvar,
    /// Condvar broadcasts this job's completion issued (see
    /// [`Broadcasts`]).
    pub(crate) broadcasts: Broadcasts,
    /// Phase machine (see the `PHASE_*` constants).
    pub(crate) phase: AtomicU32,
    /// The job's cancellation token — installed on the job's root task
    /// by the wrapper, inherited by everything the job spawns.
    pub(crate) token: CancelToken,
    /// Server-unique id, assigned at admission (0 = untracked).
    pub(crate) id: u64,
    /// `clock::now()` at admission.
    pub(crate) submitted: u64,
    /// `clock::now()` when the body started running (0 until then).
    pub(crate) started: AtomicU64,
    /// `clock::now()` when the body finished (0 until then).
    pub(crate) finished: AtomicU64,
}

impl JobHeader {
    /// Whether the outcome has been published (lock-free probe).
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Claims the `QUEUED → RUNNING` transition (the wrapper, right
    /// before the body runs). `false` means a cancel/deadline shed the
    /// job first.
    pub(crate) fn try_start(&self) -> bool {
        self.phase
            .compare_exchange(
                PHASE_QUEUED,
                PHASE_RUNNING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }
}

/// A job's state as its handle and its body see it: the header, then the
/// result slot.
#[repr(C)]
pub(crate) struct JobState<R> {
    header: JobHeader,
    slot: Mutex<Option<Result<R, JobError>>>,
}

impl<R> Deref for JobState<R> {
    type Target = JobHeader;

    fn deref(&self) -> &JobHeader {
        &self.header
    }
}

impl<R> JobState<R> {
    /// Publishes the job's outcome and wakes parked joiners, if any.
    /// Called exactly once, by a party that holds a reference to the
    /// record, so the broadcast after the unlock never outlives it.
    ///
    /// No wake-up is lost although `waiters` is relaxed: the two
    /// acquisitions of the slot lock — the joiner's in `wait_until` and
    /// this one — are totally ordered. If the joiner's comes second, it
    /// finds the result and never sleeps. If it comes first, its
    /// registration (sequenced before its lock) happens-before this
    /// lock, hence before the load below, which therefore counts it.
    /// Loading under the lock keeps a joiner from deregistering between
    /// the publish and the load; the broadcast itself waits until the
    /// lock is released, so the woken joiner does not block on it.
    pub(crate) fn complete(&self, result: Result<R, JobError>) {
        let parked = {
            let mut slot = locked(&self.slot);
            debug_assert!(slot.is_none(), "job completed twice");
            *slot = Some(result);
            self.done.store(true, Ordering::Release);
            let parked = self.waiters.load(Ordering::Relaxed) > 0;
            if parked {
                self.broadcasts.count();
            }
            parked
        };
        if parked {
            self.cv.notify_all();
        }
    }

    /// Claims a `QUEUED → SHED_*` transition and resolves the handle
    /// with `err` — the job's body will never run. `false` means the job
    /// already started (or was already shed); the caller must not touch
    /// the handle then.
    pub(crate) fn try_shed(&self, err: JobError) -> bool {
        let phase = match err {
            JobError::DeadlineExceeded => PHASE_SHED_DEADLINE,
            _ => PHASE_SHED_CANCEL,
        };
        if self
            .phase
            .compare_exchange(PHASE_QUEUED, phase, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.finished
            .store(xgomp_core::clock::now(), Ordering::Release);
        self.complete(Err(err));
        true
    }
}

/// One job's allocation: the state first, so a pointer to the record is
/// a pointer to its state and to its header; the body inline after it.
#[repr(C)]
struct JobRecord<R, F> {
    state: JobState<R>,
    /// Taken once, by the drain's `Op::Run`, which clears `has_body`.
    body: UnsafeCell<ManuallyDrop<F>>,
}

/// What a record's thunk does.
enum Op<'a, 'c> {
    /// Runs the body on the worker that drained the job; a body already
    /// taken does not run again.
    Run(&'a TaskCtx<'c>),
    /// Resolves a job that has not started with this error
    /// ([`JobState::try_shed`]); the thunk returns whether it did.
    Shed(JobError),
    /// Drops the record — its result, and its body if it never ran — and
    /// frees it.
    Free,
}

/// A record's thunk: one instance per record type, so the header's
/// users never name the job's types.
type Thunk = unsafe fn(NonNull<JobHeader>, Op<'_, '_>) -> bool;

/// The thunk of a `JobRecord<R, F>`.
///
/// # Safety
///
/// `header` heads a `JobRecord<R, F>` made by [`JobHandle::new`], and the
/// caller holds one of its references — for [`Op::Free`], the last one,
/// already given up.
unsafe fn thunk<R, F>(header: NonNull<JobHeader>, op: Op<'_, '_>) -> bool
where
    F: FnOnce(&TaskCtx<'_>, &JobState<R>),
{
    let record = header.cast::<JobRecord<R, F>>();
    match op {
        Op::Run(ctx) => {
            // SAFETY: the caller's reference keeps the record alive.
            let record = unsafe { record.as_ref() };
            if !record.state.has_body.swap(false, Ordering::Relaxed) {
                return false;
            }
            // SAFETY: the flag was set and this swap cleared it, so the
            // body is in place and no other call reads it.
            let body = unsafe { ManuallyDrop::take(&mut *record.body.get()) };
            body(ctx, &record.state);
            true
        }
        // SAFETY: the caller's reference keeps the record alive.
        Op::Shed(err) => unsafe { record.cast::<JobState<R>>().as_ref() }.try_shed(err),
        Op::Free => {
            // SAFETY: the record was leaked from a box by
            // `JobHandle::new`, and nobody references it any more.
            let mut record = unsafe { Box::from_raw(record.as_ptr()) };
            if *record.state.header.has_body.get_mut() {
                // SAFETY: the body was never taken.
                unsafe { ManuallyDrop::drop(record.body.get_mut()) };
            }
            true
        }
    }
}

/// A counted, untyped reference to a job record, one word wide: the
/// ingress lanes and the spill carry it, the drain runs it, and a
/// deadline's sweep entry holds one.
pub(crate) struct JobRef(NonNull<JobHeader>);

// SAFETY: the record is shared only through counted references; its body
// and result are `Send` (`JobHandle::new` requires it), and every field
// the header's users touch is atomic or behind the slot's mutex.
unsafe impl Send for JobRef {}
// SAFETY: as above — a shared `JobRef` reaches the record through the
// same atomics and mutex.
unsafe impl Sync for JobRef {}

impl JobRef {
    fn header(&self) -> &JobHeader {
        // SAFETY: this reference keeps the record alive.
        unsafe { self.0.as_ref() }
    }

    /// Runs the job's body on the worker that drained it (a second run
    /// of the same record does nothing), then drops this reference.
    pub(crate) fn run(self, ctx: &TaskCtx<'_>) {
        // SAFETY: this reference keeps the record alive.
        unsafe { (self.header().thunk)(self.0, Op::Run(ctx)) };
    }

    /// The deadline sweep's act on an expired job: fires its token, so a
    /// running job cancels at its next checkpoint, and sheds it if it is
    /// still queued. Returns whether this call was the first to fire the
    /// token (the sweep emits one `DeadlineMiss` per missed job).
    pub(crate) fn expire(&self) -> bool {
        let header = self.header();
        if header.is_done() {
            return false; // completed under its deadline
        }
        let first = !header.token.is_fired();
        header.token.expire();
        let shed = Op::Shed(JobError::DeadlineExceeded);
        // SAFETY: this reference keeps the record alive.
        unsafe { (header.thunk)(self.0, shed) };
        first
    }

    /// Gives the reference up as a raw pointer (an ingress ring slot).
    pub(crate) fn into_raw(self) -> NonNull<JobHeader> {
        ManuallyDrop::new(self).0
    }

    /// Takes back a reference [`into_raw`](Self::into_raw) gave up.
    ///
    /// # Safety
    ///
    /// `ptr` came from `into_raw` and is taken back once.
    pub(crate) unsafe fn from_raw(ptr: NonNull<JobHeader>) -> JobRef {
        JobRef(ptr)
    }
}

impl Clone for JobRef {
    fn clone(&self) -> Self {
        self.header().refs.fetch_add(1, Ordering::Relaxed);
        JobRef(self.0)
    }
}

impl Drop for JobRef {
    /// Gives the reference up, freeing the record with the last one — the
    /// `Arc` protocol: the release decrement and the acquire fence order
    /// every holder's use of the record before the free.
    fn drop(&mut self) {
        let header = self.header();
        let thunk = header.thunk;
        if header.refs.fetch_sub(1, Ordering::Release) == 1 {
            fence(Ordering::Acquire);
            // SAFETY: that was the last reference.
            unsafe { thunk(self.0, Op::Free) };
        }
    }
}

/// A counted reference to a job record typed over its result: what a
/// [`JobHandle`] holds. `Send` and `Sync` exactly when `R` is `Send`, as
/// an `Arc<Mutex<Option<R>>>` would be.
pub(crate) struct StateRef<R> {
    job: JobRef,
    _result: PhantomData<Mutex<R>>,
}

impl<R> Deref for StateRef<R> {
    type Target = JobState<R>;

    fn deref(&self) -> &JobState<R> {
        // SAFETY: the record was made as a `JobRecord<R, _>` (the only
        // constructor is `JobHandle::new`), whose state comes first; the
        // reference keeps it alive.
        unsafe { self.job.0.cast::<JobState<R>>().as_ref() }
    }
}

/// A handle to one submitted job's eventual result.
///
/// Cheap to move across threads; [`join`](Self::join) blocks until the
/// job has executed, [`try_join`](Self::try_join) polls, and
/// [`is_done`](Self::is_done) is a lock-free readiness probe — the same
/// completion-observation triple a future offers, without an async
/// runtime in the loop. [`cancel`](Self::cancel) requests cooperative
/// cancellation (see there for the guarantees).
///
/// Handles span server generations: a job admitted while the server is
/// paused stays queued (its handle pending) until a `resume` opens the
/// next generation, and a `shutdown` drains every admitted job — so a
/// pending handle always resolves unless the process aborts. A `join`
/// on a queued-while-paused handle therefore blocks until someone calls
/// `resume` (or `shutdown`); use [`try_join`](Self::try_join) or
/// [`join_timeout`](Self::join_timeout) when the pause duration is
/// under the caller's control.
pub struct JobHandle<R> {
    pub(crate) state: StateRef<R>,
    /// Whether the submit that created this handle woke a parked worker:
    /// the gate of the joiner's spin (see "Who wakes whom"). Written once
    /// by the submitter, before the handle leaves its thread.
    pub(crate) spin: bool,
}

impl<R> std::fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl<R: Send + 'static> JobHandle<R> {
    /// Makes a job's record around `body` — the submitter's one
    /// allocation per job — and returns the handle and the [`JobRef`]
    /// the job is queued by. The body runs once, on the worker that
    /// drains the job, with the job's state; a record dropped before
    /// that drops it unrun.
    pub(crate) fn new<F>(id: u64, submitted: u64, token: CancelToken, body: F) -> (Self, JobRef)
    where
        F: FnOnce(&TaskCtx<'_>, &JobState<R>) + Send + 'static,
    {
        let record = Box::new(JobRecord {
            state: JobState::<R> {
                header: JobHeader {
                    refs: AtomicUsize::new(2),
                    thunk: thunk::<R, F>,
                    has_body: AtomicBool::new(true),
                    done: AtomicBool::new(false),
                    waiters: AtomicU32::new(0),
                    cv: Condvar::new(),
                    broadcasts: Default::default(),
                    phase: AtomicU32::new(PHASE_QUEUED),
                    token,
                    id,
                    submitted,
                    started: AtomicU64::new(0),
                    finished: AtomicU64::new(0),
                },
                slot: Mutex::new(None),
            },
            body: UnsafeCell::new(ManuallyDrop::new(body)),
        });
        let header = NonNull::from(Box::leak(record)).cast::<JobHeader>();
        let handle = JobHandle {
            state: StateRef {
                job: JobRef(header),
                _result: PhantomData,
            },
            spin: false,
        };
        (handle, JobRef(header))
    }
}

impl<R> JobHandle<R> {
    /// Whether the job has completed (lock-free probe).
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }

    /// Server-unique id of this job — the flight recorder keys the job's
    /// `JobStart`/`JobEnd` async span on the same value.
    pub fn job_id(&self) -> u64 {
        self.state.id
    }

    /// Requests cooperative cancellation.
    ///
    /// A job that has not started resolves immediately with
    /// [`JobError::Cancelled`] (and is *shed* — its body never runs,
    /// even though it still occupies its ingress slot until the server
    /// drains it). A running job keeps running until its next
    /// cancellation checkpoint — a `parallel_for` chunk claim, a
    /// `taskwait`, or a static-block stride — where it abandons its
    /// remaining loop ranges (conserved into `cancelled_iters`) and
    /// unwinds; the handle then resolves with [`JobError::Cancelled`].
    /// A body that never reaches a checkpoint runs to completion — the
    /// flag preempts nothing. Idempotent; a no-op on completed jobs.
    pub fn cancel(&self) {
        self.state.token.cancel();
        self.state.try_shed(JobError::Cancelled);
    }

    /// The job's latency breakdown, once complete; `None` while pending.
    ///
    /// Non-consuming, so it composes with any of the join flavors:
    /// probe `report()` before `join()`, or clone the numbers after an
    /// [`is_done`](Self::is_done) turns true.
    pub fn report(&self) -> Option<JobReport> {
        if !self.is_done() {
            return None;
        }
        let started = self.state.started.load(Ordering::Acquire);
        let finished = self.state.finished.load(Ordering::Acquire);
        Some(JobReport {
            job_id: self.state.id,
            queued_cycles: started.saturating_sub(self.state.submitted),
            run_cycles: finished.saturating_sub(started),
            total_cycles: finished.saturating_sub(self.state.submitted),
        })
    }

    /// Takes the result if the job has completed; `None` while pending.
    pub fn try_join(self) -> Result<Result<R, JobError>, Self> {
        if !self.is_done() {
            return Err(self);
        }
        Ok(self.take())
    }

    /// Helps execute pending tasks on `ctx`'s worker until the job is
    /// done (`true`) or `deadline` has passed (`false`).
    ///
    /// The help-first rule: **a bounded wait never nests unbounded
    /// work.** Whatever a helper pulls out of the ingress is a fresh root
    /// job that runs nested on the waiter's stack, where nothing can
    /// preempt it — if it is the awaited job (or anything else that
    /// blocks on the waiter), the deadline can never fire. So with a
    /// deadline the helper runs tasks already in its own lattice row
    /// only, and when that runs dry while the awaited job is still
    /// queued it wakes **one** parked peer to take the job instead.
    /// Without a deadline it helps the ingress too (`help_pending`): when
    /// every worker is inside a `join_within`, the awaited jobs can still
    /// be sitting there with no idle worker left to drain them.
    fn help_until(&self, ctx: &xgomp_core::TaskCtx<'_>, deadline: Option<Instant>) -> bool {
        let mut spins = 0u32;
        while !self.is_done() {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            let ran = match deadline {
                None => ctx.help_pending(16),
                Some(_) => ctx.run_pending(16),
            };
            if ran > 0 {
                spins = 0;
                continue;
            }
            // Once per dry spell: the submitter's doorbell is the primary
            // wake; this re-rings it for the one job we are waiting on.
            if spins == 0
                && deadline.is_some()
                && self.state.phase.load(Ordering::Acquire) == PHASE_QUEUED
                && ctx.parker().currently_parked() > 0
            {
                ctx.parker().notify_any(ctx.numa_zone());
            }
            if spins < 64 {
                std::hint::spin_loop();
                spins += 1;
            } else {
                std::thread::yield_now();
            }
        }
        true
    }

    /// Waits for the job to be done (`true`) or for `deadline` to pass
    /// (`false`): spins first if the gate allows, then parks on the
    /// completion condvar.
    ///
    /// The spin runs only on a handle whose submit woke a parked worker
    /// (`spin`), and only until the earlier of admission + [`JOIN_SPIN`]
    /// and `deadline`, so a late join or a short timeout falls through
    /// on its first probe. It takes no lock and writes nothing: a job
    /// that finishes during it completes without a broadcast.
    ///
    /// Past the spin, the joiner registers in `waiters` *before* it takes
    /// the slot lock: either its lock acquisition follows the completer's
    /// and it finds the result, or the registration happens-before the
    /// completer's `waiters` load, which then sees it and broadcasts
    /// (the argument in full is at `JobState::complete`). It deregisters
    /// on every exit, a timeout included, so a later completion of a
    /// handle nobody sleeps on stays syscall-free. This is the one place
    /// a joiner registers, so no join flavor sleeps without passing the
    /// spin gate.
    fn wait_until(&self, deadline: Option<Instant>) -> bool {
        let state = &*self.state;
        if self.spin {
            self.spin_while_young(deadline);
        }
        if state.is_done() {
            return true;
        }
        state.waiters.fetch_add(1, Ordering::Relaxed);
        let mut slot = locked(&state.slot);
        let done = loop {
            if slot.is_some() {
                break true;
            }
            slot = match deadline {
                None => wait(&state.cv, slot),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break false;
                    }
                    wait_timeout(&state.cv, slot, d - now)
                }
            };
        };
        drop(slot);
        state.waiters.fetch_sub(1, Ordering::Relaxed);
        done
    }

    /// Polls `is_done` until the job is done, its admission age reaches
    /// [`JOIN_SPIN`], or `deadline` passes — one clock read per probe.
    pub(crate) fn spin_while_young(&self, deadline: Option<Instant>) {
        let state = &*self.state;
        let budget = clock::ns_to_ticks(JOIN_SPIN.as_nanos() as u64);
        let mut end = state.submitted.saturating_add(budget);
        if let Some(d) = deadline {
            let left = d.saturating_duration_since(Instant::now()).as_nanos();
            let left = clock::ns_to_ticks(u64::try_from(left).unwrap_or(u64::MAX));
            end = end.min(clock::now().saturating_add(left));
        }
        while !state.is_done() && clock::now() < end {
            std::hint::spin_loop();
        }
    }

    /// Cooperative join **for use inside a job**: helps execute pending
    /// tasks on the calling worker while waiting.
    ///
    /// A plain [`join`](Self::join) from within a job can deadlock the
    /// team: the blocked worker is the only thread allowed to pop (or
    /// migrate) the tasks queued in its own lattice row, so a dependency
    /// that landed there can never run. `join_within` keeps the worker
    /// at a scheduling point instead of parking it, so those tasks —
    /// including the joined job itself — keep flowing.
    pub fn join_within(self, ctx: &xgomp_core::TaskCtx<'_>) -> Result<R, JobError> {
        self.help_until(ctx, None);
        self.take()
    }

    /// Bounded [`join_within`](Self::join_within): helps execute pending
    /// tasks for up to `timeout`, then returns the typed
    /// [`JoinTimeout`] (handle inside) if the job is still pending.
    ///
    /// Unlike `join_within` it helps with tasks already queued on the
    /// calling worker only and never starts a fresh job from the ingress
    /// on the caller's stack — a nested job cannot be preempted, so it
    /// would hold the timeout (and, if it waits on the caller, the whole
    /// team) hostage. A job still in the ingress is left to a peer, which
    /// is woken if parked; on a one-worker server the call simply times
    /// out and the caller decides.
    pub fn join_within_timeout(
        self,
        ctx: &xgomp_core::TaskCtx<'_>,
        timeout: Duration,
    ) -> Result<Result<R, JobError>, JoinTimeout<R>> {
        if self.help_until(ctx, Some(Instant::now() + timeout)) {
            Ok(self.take())
        } else {
            Err(JoinTimeout { handle: self })
        }
    }

    /// Blocks until the job completes and returns its result (or the
    /// typed error that ended it).
    ///
    /// Call this from threads **outside** the team only. From inside a
    /// job, use [`join_within`](Self::join_within) — parking a worker on
    /// another job's completion can deadlock the scheduler (see there).
    pub fn join(self) -> Result<R, JobError> {
        self.wait_until(None);
        self.take()
    }

    /// Waits up to `timeout` for completion; the typed [`JoinTimeout`]
    /// (handle inside) comes back on timeout so the caller can keep
    /// waiting, cancel, or walk away.
    pub fn join_timeout(self, timeout: Duration) -> Result<Result<R, JobError>, JoinTimeout<R>> {
        if self.wait_until(Some(Instant::now() + timeout)) {
            Ok(self.take())
        } else {
            Err(JoinTimeout { handle: self })
        }
    }

    fn take(self) -> Result<R, JobError> {
        locked(&self.state.slot)
            .take()
            .expect("completed job has a result")
    }
}

/// How many condvar broadcasts a job's completion issued: counted in test
/// builds (the test module's `Broadcasts`), a zero-sized no-op otherwise.
#[cfg(not(test))]
#[derive(Default)]
pub(crate) struct Broadcasts;

#[cfg(not(test))]
impl Broadcasts {
    fn count(&self) {}
}

#[cfg(test)]
pub(crate) use tests::Broadcasts;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The test build's [`Broadcasts`](super::Broadcasts): a per-job
    /// count, so a test reads its own jobs' broadcasts whichever thread
    /// completed them and whatever other tests run beside it.
    #[derive(Default)]
    pub(crate) struct Broadcasts(AtomicU32);

    impl Broadcasts {
        pub(super) fn count(&self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }

        pub(crate) fn get(&self) -> u32 {
            self.0.load(Ordering::Relaxed)
        }
    }

    impl<R> Clone for StateRef<R> {
        fn clone(&self) -> Self {
            StateRef {
                job: self.job.clone(),
                _result: PhantomData,
            }
        }
    }

    impl JobRef {
        /// A record around `f` whose handle is already dropped: what the
        /// ingress tests queue and drain.
        pub(crate) fn from_fn(f: impl FnOnce(&TaskCtx<'_>) + Send + 'static) -> JobRef {
            let body = move |ctx: &TaskCtx<'_>, _: &JobState<()>| f(ctx);
            JobHandle::new(0, 0, CancelToken::new(), body).1
        }
    }

    /// A pending job: its handle and a second reference for the test to
    /// complete it through. The queued reference is dropped at once, so
    /// nothing ever runs the (empty) body.
    fn pending<R: Send + 'static>(id: u64, submitted: u64) -> (JobHandle<R>, StateRef<R>) {
        let body = |_: &TaskCtx<'_>, _: &JobState<R>| {};
        let (handle, _queued) = JobHandle::new(id, submitted, CancelToken::new(), body);
        let state = handle.state.clone();
        (handle, state)
    }

    /// A pending handle whose submit woke a parked worker.
    fn spin_gated<R: Send + 'static>(id: u64, submitted: u64) -> (JobHandle<R>, StateRef<R>) {
        let (mut handle, state) = pending(id, submitted);
        handle.spin = true;
        (handle, state)
    }

    /// A pending job: the joiner's handle and the completer's state.
    type Job = (JobHandle<u32>, StateRef<u32>);

    /// Admits a job (`job` gets the admission stamp), joins it on a new
    /// thread, waits until the joiner has registered, completes the job
    /// and checks that exactly one broadcast woke the joiner. Registered
    /// joiners cannot deregister before the result is in the slot, so
    /// the completion must count this one. Returns how long the joiner
    /// took from entering `join` to registering. The job is admitted on
    /// the joiner's thread, right before the join, so it is as young as
    /// a job can be when its join starts. This thread polls for the
    /// handover instead of blocking on it, so its own wake-up is not part
    /// of the measured time.
    fn join_parked(job: fn(u64) -> Job) -> Duration {
        let (tx, rx) = std::sync::mpsc::channel();
        let joiner = std::thread::spawn(move || {
            let (handle, state) = job(clock::now());
            tx.send(state).unwrap();
            let entered = Instant::now();
            (entered, handle.join())
        });
        let state = loop {
            match rx.try_recv() {
                Ok(state) => break state,
                Err(_) => std::hint::spin_loop(),
            }
        };
        while state.waiters.load(Ordering::Relaxed) != 1 {
            std::hint::spin_loop();
        }
        let registered = Instant::now();
        state.complete(Ok(9));
        let (entered, joined) = joiner.join().unwrap();
        assert_eq!(joined.unwrap(), 9);
        assert_eq!(state.broadcasts.get(), 1);
        assert_eq!(state.waiters.load(Ordering::Relaxed), 0);
        registered.saturating_duration_since(entered)
    }

    /// Runs `round` until one takes under a quarter of `JOIN_SPIN`, for
    /// up to half a second, and returns the fastest. A joiner that spun
    /// takes close to `JOIN_SPIN` in every round (less only by the skew
    /// between two cores' timestamp counters); a round that was only
    /// preempted is retried, so a loaded machine cannot fail the test.
    fn fastest_round(mut round: impl FnMut() -> Duration) -> Duration {
        let give_up = Instant::now() + Duration::from_millis(500);
        let mut fastest = Duration::MAX;
        while fastest >= JOIN_SPIN / 4 && Instant::now() < give_up {
            fastest = fastest.min(round());
        }
        fastest
    }

    /// The ingress carries one word per job.
    #[test]
    fn a_job_ref_is_one_word() {
        assert_eq!(size_of::<JobRef>(), size_of::<usize>());
        assert_eq!(size_of::<Option<JobRef>>(), size_of::<usize>());
    }

    #[test]
    fn completion_without_a_joiner_issues_no_wake() {
        let (handle, state) = pending::<u32>(10, 0);
        state.complete(Ok(1));
        assert_eq!(state.broadcasts.get(), 0, "nobody parked: no broadcast");
        assert_eq!(handle.join().unwrap(), 1, "a late join takes the fast path");
        // A shed goes through the same gate.
        let (handle, state) = pending::<u32>(11, 0);
        handle.cancel();
        assert_eq!(state.broadcasts.get(), 0);
        assert!(handle.join().unwrap_err().is_cancelled());
    }

    /// A handle whose submit found the team awake (the gate shut, as
    /// every handle starts) registers at once however young its job is:
    /// the join behaves exactly as it did before the spin existed.
    #[test]
    fn parked_joiner_is_woken_exactly_once() {
        let fastest = fastest_round(|| {
            join_parked(|now| {
                let (handle, state) = pending(12, now);
                assert!(!handle.spin, "a handle starts with the gate shut");
                (handle, state)
            })
        });
        assert!(fastest < JOIN_SPIN / 4, "registered after {fastest:?}");
    }

    /// The spin is gated on the job's admission age too: a spin-gated
    /// handle whose job was admitted more than `JOIN_SPIN` ago (stamp 0)
    /// registers on its first probe.
    #[test]
    fn stale_spin_gated_joiner_registers_at_once() {
        let fastest = fastest_round(|| join_parked(|_| spin_gated(14, 0)));
        assert!(fastest < JOIN_SPIN / 4, "registered after {fastest:?}");
    }

    /// A join timeout shorter than `JOIN_SPIN` bounds the spin too: the
    /// join gives up at its own deadline with the joiner deregistered,
    /// never at admission + `JOIN_SPIN`.
    #[test]
    fn short_join_timeout_cuts_the_spin_short() {
        let timeout = Duration::from_micros(2);
        let mut id = 20;
        let fastest = fastest_round(|| {
            id += 1;
            let (handle, state) = spin_gated::<u32>(id, clock::now());
            let t0 = Instant::now();
            let handle = match handle.join_timeout(timeout) {
                Err(t) => t.handle,
                Ok(_) => panic!("nothing completes the job"),
            };
            let took = t0.elapsed();
            assert_eq!(state.waiters.load(Ordering::Relaxed), 0);
            state.complete(Ok(1));
            assert_eq!(state.broadcasts.get(), 0, "the timed-out joiner is gone");
            assert_eq!(handle.join().unwrap(), 1);
            took
        });
        assert!(
            fastest < JOIN_SPIN / 4,
            "a {timeout:?} join spun for {fastest:?}"
        );
    }

    #[test]
    fn timed_out_join_deregisters() {
        let (handle, state) = pending::<u32>(13, 0);
        let handle = match handle.join_timeout(Duration::from_millis(1)) {
            Err(t) => t.handle,
            Ok(_) => panic!("nothing completes the job"),
        };
        assert_eq!(state.waiters.load(Ordering::Relaxed), 0);
        state.complete(Ok(3));
        assert_eq!(state.broadcasts.get(), 0, "the timed-out joiner is gone");
        assert_eq!(handle.join().unwrap(), 3);
    }

    /// Joiners racing their completion, round after round: a lost
    /// wake-up leaves the joiner parked until its timeout although the
    /// result is long published. A stress test, not a proof — the
    /// deterministic tests above cannot place a joiner between a
    /// completer's `waiters` load and its lock.
    #[test]
    fn joiner_racing_the_completion_is_never_stranded() {
        const ROUNDS: u64 = 20_000;
        const STALL: Duration = Duration::from_secs(1);
        let round = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::channel::<JobHandle<u64>>();
        let r = round.clone();
        let joiner = std::thread::spawn(move || {
            for (i, handle) in (1..=ROUNDS).zip(rx) {
                r.store(i, Ordering::Release);
                let t0 = Instant::now();
                assert_eq!(handle.join_timeout(STALL).ok().unwrap().unwrap(), i);
                assert!(t0.elapsed() < STALL, "round {i}: the wake was lost");
            }
        });
        // A joiner that failed stops taking rounds; its panic surfaces
        // at the join below.
        for i in 1..=ROUNDS {
            let (handle, state) = pending::<u64>(i, 0);
            if tx.send(handle).is_err() {
                break;
            }
            while round.load(Ordering::Acquire) != i && !joiner.is_finished() {
                std::hint::spin_loop();
            }
            state.complete(Ok(i));
        }
        joiner.join().unwrap();
    }

    #[test]
    fn join_blocks_until_complete() {
        let (handle, state) = pending::<u32>(1, 0);
        assert!(!handle.is_done());
        let t = std::thread::spawn(move || handle.join());
        std::thread::sleep(Duration::from_millis(10));
        state.complete(Ok(7));
        assert_eq!(t.join().unwrap().unwrap(), 7);
    }

    #[test]
    fn try_join_polls() {
        let (handle, state) = pending::<u32>(2, 0);
        let handle = match handle.try_join() {
            Err(h) => h,
            Ok(_) => panic!("job cannot be done yet"),
        };
        state.complete(Err(JobPanic {
            message: "boom".into(),
        }
        .into()));
        match handle.try_join() {
            Ok(Err(e)) => assert_eq!(e.panic().expect("panicked").message, "boom"),
            other => panic!("expected completed panic, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn report_breaks_down_latency() {
        let (handle, state) = pending::<u32>(42, 100);
        assert!(handle.report().is_none(), "pending job has no report yet");
        state.started.store(130, Ordering::Relaxed);
        state.finished.store(180, Ordering::Relaxed);
        state.complete(Ok(0));
        let r = handle.report().expect("completed job reports");
        assert_eq!(r.job_id, 42);
        assert_eq!(r.queued_cycles, 30);
        assert_eq!(r.run_cycles, 50);
        assert_eq!(r.total_cycles, 80);
        assert_eq!(r.total_cycles, r.queued_cycles + r.run_cycles);
    }

    #[test]
    fn join_timeout_returns_typed_error_with_handle() {
        let (handle, state) = pending::<u32>(3, 0);
        let timeout = match handle.join_timeout(Duration::from_millis(5)) {
            Err(t) => t,
            Ok(_) => panic!("cannot complete"),
        };
        assert!(timeout.to_string().contains("job 3"));
        state.complete(Ok(1));
        assert_eq!(
            timeout
                .handle
                .join_timeout(Duration::from_secs(5))
                .ok()
                .unwrap()
                .unwrap(),
            1
        );
    }

    #[test]
    fn cancel_of_a_queued_job_resolves_immediately_as_shed() {
        let (handle, state) = pending::<u32>(4, 0);
        handle.cancel();
        assert!(handle.is_done(), "queued job resolves on the spot");
        assert!(state.token.is_fired());
        assert_eq!(state.phase.load(Ordering::Relaxed), PHASE_SHED_CANCEL);
        assert!(matches!(handle.join(), Err(JobError::Cancelled)));
    }

    #[test]
    fn cancel_of_a_started_job_only_fires_the_token() {
        let (handle, state) = pending::<u32>(5, 0);
        assert!(state.try_start(), "wrapper claims the start");
        handle.cancel();
        assert!(!handle.is_done(), "running job resolves at a checkpoint");
        assert!(state.token.is_fired(), "checkpoints will observe the flag");
        assert!(
            !state.try_shed(JobError::Cancelled),
            "start already claimed"
        );
        state.complete(Err(JobError::Cancelled));
        assert!(handle.join().unwrap_err().is_cancelled());
    }
}
