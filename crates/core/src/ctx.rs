//! The user-facing tasking API: [`TaskCtx`] (the current task's view of
//! the runtime) and [`Scope`] (structured, borrow-friendly spawning).
//!
//! The API mirrors how BOTS applications use OpenMP tasking:
//!
//! ```text
//! #pragma omp task shared(x)        →  scope.spawn(|ctx| …borrow x…)
//! #pragma omp taskwait              →  ctx.taskwait()  (implicit at scope end)
//! ```
//!
//! `scope` guarantees — even on unwinding — that every task spawned
//! within it completes before the scope returns, which is what makes
//! borrowing from the enclosing frame sound (the reasoning of the
//! standard library's scoped threads, applied to tasks on hot workers).

use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use xgomp_profiling::{clock, EventKind};
use xgomp_xqueue::{bump, Backoff};

use crate::cancel::{raise_cancel, CancelReason, CancelToken};
use crate::task::{Task, TaskBody};
use crate::team::{execute, TeamShared, Worker};

/// A task's handle to the runtime: passed to every task body and to the
/// parallel-region closure.
///
/// A context is the executing worker's private state plus the current
/// task, so it belongs to the thread that was handed it: it can neither
/// be sent to nor shared with another thread (`std::thread::scope`
/// included). Hand work to the team with [`spawn`](Self::spawn) instead.
///
/// ```compile_fail
/// use xgomp_core::{Runtime, RuntimeConfig};
/// Runtime::new(RuntimeConfig::xgomptb(1)).parallel(|ctx| {
///     // Shared with a scoped thread: `TaskCtx` is not `Sync`.
///     std::thread::scope(|s| {
///         s.spawn(|| ctx.worker_id());
///     });
/// });
/// ```
///
/// ```compile_fail
/// fn sendable<T: Send>() {}
/// // Sent to another thread: `TaskCtx` is not `Send` either.
/// sendable::<xgomp_core::TaskCtx<'static>>();
/// ```
pub struct TaskCtx<'t> {
    /// The executing worker — `!Sync`, which is what keeps a context on
    /// its thread.
    pub(crate) worker: &'t Worker<'t>,
    pub(crate) task: NonNull<Task>,
}

impl<'t> TaskCtx<'t> {
    /// The team this context's worker belongs to.
    #[inline]
    pub(crate) fn team(&self) -> &'t TeamShared {
        self.worker.team
    }

    /// Index of the worker executing this task (0 = master).
    #[inline]
    pub fn worker_id(&self) -> usize {
        self.worker.id
    }

    /// Team size.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.team().n
    }

    /// Simulated NUMA zone of this worker (see `xgomp-topology`).
    #[inline]
    pub fn numa_zone(&self) -> usize {
        self.team().placement.zone_of(self.worker.id)
    }

    /// The team's worker placement (topology queries).
    #[inline]
    pub fn placement(&self) -> &xgomp_topology::Placement {
        &self.team().placement
    }

    /// Spawns a child task with default priority. The body must be
    /// `'static`; to borrow from the current frame use
    /// [`scope`](Self::scope).
    #[inline]
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'static,
    {
        self.spawn_impl(Box::new(f), 0, None);
    }

    /// Spawns a child task with a GOMP-style priority (only the GOMP
    /// scheduler orders by it; the others ignore it, as XQueue is
    /// relaxed-order by design).
    #[inline]
    pub fn spawn_with_priority<F>(&self, priority: i32, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'static,
    {
        self.spawn_impl(Box::new(f), priority, None);
    }

    /// Spawns an already-boxed body (no re-boxing) into the *calling
    /// worker's own* queue, bypassing the round-robin cursor — the hot
    /// submission path of `xgomp-service`, whose ingress queues carry
    /// boxed job bodies end to end. This is the placement externally
    /// injected jobs need: a cross-pushed task lands in one
    /// peer's SPSC queue and is unreachable by anyone else until that
    /// peer next visits the scheduler — if the peer is stalled inside a
    /// long-running task body, the job is stranded even while other
    /// workers idle. A self-spawned task lands in the master queue of the
    /// worker that chose to take it, which runs it once its own nested
    /// work (the private stack its explicit tasks' children go to) is
    /// done.
    #[inline]
    pub fn spawn_boxed_local(&self, body: Box<dyn FnOnce(&TaskCtx<'_>) + Send + 'static>) {
        self.spawn_impl(body, 0, Some(self.worker.id));
    }

    /// Like [`run_pending`](Self::run_pending), but when the scheduler
    /// is empty it also polls the team's ingress source (if any) and
    /// runs whatever that injected. This is the helping step a job must
    /// use while waiting **without a deadline** on *another job*
    /// (`JobHandle::join_within` in `xgomp-service`): with every worker
    /// busy waiting, the awaited jobs may still be sitting in the
    /// ingress, reachable by no one else.
    ///
    /// What it pulls from the ingress is a fresh root job of unbounded
    /// length, run *nested on the caller's stack* — nothing preempts it,
    /// so the caller's own wait makes no progress until it returns. The
    /// rule for help-first joins is therefore: **a bounded wait never
    /// nests unbounded work.** A caller with a deadline (or one the
    /// pulled job might itself be waiting on) uses
    /// [`run_pending`](Self::run_pending) and leaves the ingress to a
    /// peer, as `JobHandle::join_within_timeout` does.
    pub fn help_pending(&self, max: usize) -> usize {
        let ran = self.run_pending(max);
        if ran > 0 || self.worker.poll_ingress() == 0 {
            return ran;
        }
        self.run_pending(max)
    }

    /// Whether the team has been poisoned by an un-isolated panic (the
    /// region is ending abnormally; cooperative loops should bail out).
    pub fn is_poisoned(&self) -> bool {
        self.team().poisoned.load(Ordering::Relaxed)
    }

    /// Installs a [`CancelToken`] on the current task. Every task spawned
    /// from here on (directly or transitively) inherits a clone, and the
    /// runtime's cancellation checkpoints — chunk claims in
    /// `parallel_for` drains, [`taskwait`](Self::taskwait) exits — poll
    /// it. The task server installs one per job; plain runtime users can
    /// install their own to make a task tree cancellable.
    pub fn set_cancel_token(&self, token: CancelToken) {
        // SAFETY: we are the executing worker of `self.task`.
        unsafe { Task::set_cancel(self.task, Some(token)) };
    }

    /// Removes the current task's [`CancelToken`]. Tasks already spawned
    /// keep their inherited clones; new spawns inherit nothing.
    pub fn clear_cancel_token(&self) {
        // SAFETY: we are the executing worker of `self.task`.
        unsafe { Task::set_cancel(self.task, None) };
    }

    /// The current task's cancellation token, if one is installed (on it
    /// or inherited from the task that spawned it).
    pub fn cancel_token(&self) -> Option<CancelToken> {
        // SAFETY: we are the executing worker of `self.task`.
        unsafe { Task::cancel_token(self.task) }
    }

    /// Whether the current task's cancellation token (if any) has fired.
    /// Borrows the token where it sits (no `Arc` clone): one state load,
    /// plus — while the token is live and carries a deadline — a deadline
    /// compare against one clock read. Long-running bodies that want
    /// tighter cancellation latency than the chunk/taskwait checkpoints
    /// give them poll this and return early.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.poll_cancel().is_some()
    }

    /// Cancellation checkpoint: unwinds with a
    /// [`CancelUnwind`](crate::CancelUnwind) payload when the current
    /// task's token has fired. Only meaningful on panic-isolating teams
    /// (the task server), where the unwind is caught at the job boundary;
    /// elsewhere it is a no-op so a stray token cannot poison a team.
    #[inline]
    pub fn check_cancel(&self) {
        if !self.team().isolate_panics || std::thread::panicking() {
            return;
        }
        if let Some(reason) = self.poll_cancel() {
            raise_cancel(reason);
        }
    }

    /// Polls the current task's token in place.
    #[inline]
    fn poll_cancel(&self) -> Option<CancelReason> {
        // SAFETY: we are the executing worker of `self.task`, and the
        // borrow ends inside this call — no `set_cancel` can overlap it.
        unsafe { Task::cancel_ref(self.task) }.and_then(CancelToken::poll)
    }

    /// The team's NUMA-aware idle parker.
    ///
    /// Custom master loops (a task server's serve loop) use it to park
    /// the calling worker with the same announce → re-check → commit
    /// protocol the worker loop uses, and submitters clone it as their
    /// doorbell. Whether the *scheduler's* idle arm parks is
    /// [`park_idle_enabled`](Self::park_idle_enabled); the parker itself
    /// always works.
    pub fn parker(&self) -> &Arc<xgomp_xqueue::Parker> {
        &self.team().parker
    }

    /// Whether this team runs event-driven idling
    /// (`RuntimeConfig::park_idle`).
    pub fn park_idle_enabled(&self) -> bool {
        self.team().park_idle
    }

    /// Racy hint that the scheduler could yield a task for this worker
    /// right now — the pre-park re-check for custom idle loops.
    pub fn has_local_work_hint(&self) -> bool {
        self.worker.seat.has_work_hint()
    }

    /// Whether the team's flight recorder is live at `min` or above
    /// (one relaxed load + branch; `false` when tracing is off).
    #[inline]
    pub fn trace_on(&self, min: xgomp_profiling::TraceLevel) -> bool {
        self.team().trace_on(min)
    }

    /// Emits one flight-recorder record into the calling worker's ring
    /// when the team's live trace level admits `min` (no-op otherwise —
    /// the cost of [`trace_on`](Self::trace_on)). This is the hook
    /// layered runtimes (the task server's job lifecycle) use to place
    /// their own events on the same timeline as the scheduler's.
    #[inline]
    pub fn trace_emit(
        &self,
        min: xgomp_profiling::TraceLevel,
        kind: EventKind,
        a: u32,
        b: u64,
        c: u64,
    ) {
        self.worker.trace_emit(min, kind, a, b, c);
    }

    /// Executes up to `max` already-queued tasks on the calling worker,
    /// returning how many ran. Unlike [`taskwait`](Self::taskwait) this
    /// never blocks: it is the cooperative scheduling point a server's
    /// master loop interleaves with ingress polling and controller work.
    pub fn run_pending(&self, max: usize) -> usize {
        let worker = self.worker;
        let mut ran = 0;
        while ran < max && !worker.team.poisoned.load(Ordering::Relaxed) && worker.run_next(|| {}) {
            ran += 1;
        }
        ran
    }

    /// Structured spawning: tasks created through the [`Scope`] may
    /// borrow from the enclosing frame; the scope taskwaits on exit
    /// (normal or unwinding), so no borrow can outlive its referent.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        /// Taskwait-on-drop so panics cannot leak borrowed tasks.
        struct WaitGuard<'a, 'b>(&'a TaskCtx<'b>);
        impl Drop for WaitGuard<'_, '_> {
            fn drop(&mut self) {
                self.0.taskwait();
            }
        }
        let guard = WaitGuard(self);
        let scope = Scope {
            ctx: self,
            _env: PhantomData,
        };
        let r = f(&scope);
        drop(guard); // the implicit taskwait
        r
    }

    /// Blocks (helpfully — executing other tasks meanwhile, as GOMP's
    /// taskwait scheduling point does) until every direct child of the
    /// current task has completed.
    pub fn taskwait(&self) {
        let worker = self.worker;
        let team = worker.team;
        // SAFETY: the record outlives execution (refcount held by us).
        let task = unsafe { self.task.as_ref() };
        if task.unfinished_children() == 0 {
            self.reraise_child_panic(task);
            self.check_cancel();
            return;
        }
        let mut backoff = Backoff::new();
        let mut wait_t0: Option<u64> = None;
        while task.unfinished_children() != 0 {
            if team.poisoned.load(Ordering::Relaxed) {
                return; // a sibling task panicked; bail out
            }
            let found = || {
                if let Some(t0) = wait_t0.take() {
                    worker.log_span(EventKind::TaskWait, t0);
                }
            };
            if worker.run_next(found) {
                backoff.reset();
                continue;
            }
            worker.seat.on_idle();
            if team.profiling && wait_t0.is_none() {
                wait_t0 = Some(clock::now());
            }
            backoff.snooze();
        }
        if let Some(t0) = wait_t0 {
            worker.log_span(EventKind::TaskWait, t0);
        }
        self.reraise_child_panic(task);
        // Cancellation checkpoint at the taskwait boundary: children are
        // quiescent (none left to leak), so this is a safe place for the
        // cooperative unwind.
        self.check_cancel();
    }

    /// Panic-isolating teams: a child that panicked left its payload on
    /// this task; quiescence reached, re-raise it here so the failure
    /// surfaces at the job boundary instead of poisoning the team. Never
    /// double-panics (scope's taskwait-on-drop runs during unwinds).
    fn reraise_child_panic(&self, task: &Task) {
        if !self.team().isolate_panics || std::thread::panicking() {
            return;
        }
        if let Some(payload) = task.take_child_panic() {
            std::panic::resume_unwind(payload);
        }
    }

    /// The spawn path (§III-A): count for the barrier *before*
    /// publication, link the dependency atomically, allocate, then
    /// publish — falling back to immediate execution when the target
    /// queue is full. `hint = Some(t)` asks the scheduler to hand the
    /// task to worker `t` (see `Seat::spawn`).
    fn spawn_impl(&self, body: TaskBody, priority: i32, hint: Option<usize>) {
        let worker = self.worker;
        let (team, w) = (worker.team, worker.id);
        let t0 = if team.profiling { clock::now() } else { 0 };
        team.barrier.task_created(w);
        // SAFETY: parent record is alive (we are executing it).
        let parent = unsafe { self.task.as_ref() };
        // The child's reference on its parent, which is also the
        // parent's count of live children.
        parent.retain();
        // Only the region's implicit task has no parent: the children of
        // every other task are nested work.
        let nested = parent.parent().is_some();
        let ptr = worker.alloc.alloc(Some(body), Some(self.task), priority);
        // Children inherit the parent's cancellation token, so a job's
        // whole task tree answers to one flag.
        // SAFETY: we execute the parent; the child is not yet published.
        unsafe {
            if let Some(token) = Task::cancel_token(self.task) {
                Task::set_cancel(ptr, Some(token));
            }
        }
        bump(&worker.stats.tasks_created, 1);
        let pushed = worker.seat.spawn(hint, nested, ptr);
        worker.log_span(EventKind::TaskCreate, t0);
        if let Err(p) = pushed {
            // Overflow rule: execute the task immediately (§II-B).
            bump(&worker.stats.ntasks_imm_exec, 1);
            execute(worker, p);
        }
    }
}

/// Structured-spawn handle; see [`TaskCtx::scope`].
pub struct Scope<'ctx, 'env> {
    ctx: &'ctx TaskCtx<'ctx>,
    /// Invariant in `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'ctx, 'env> Scope<'ctx, 'env> {
    /// Spawns a task that may borrow anything outliving the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'env,
    {
        self.spawn_hinted(None, f);
    }

    /// Spawns a borrowing task with a *placement target*: worker
    /// `target` gets the task in its own queue (best effort — a full
    /// queue falls back to immediate execution, and dynamic load
    /// balancing may still migrate it). This is how `parallel_for`
    /// places its per-worker loop-drain tasks zone-affinely.
    pub fn spawn_on<F>(&self, target: usize, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'env,
    {
        self.spawn_hinted(Some(target), f);
    }

    /// Erases `'env` from the body and spawns it as a child of the
    /// scope's task.
    fn spawn_hinted<F>(&self, hint: Option<usize>, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'env,
    {
        let boxed: Box<dyn FnOnce(&TaskCtx<'_>) + Send + 'env> = Box::new(f);
        // SAFETY: the body becomes a child of the task whose scope this
        // is, and the scope's taskwait (WaitGuard, run even on unwind)
        // ensures every child finishes before any `'env` borrow ends, so
        // erasing the lifetime cannot let the body observe freed data.
        let body: TaskBody = unsafe { std::mem::transmute(boxed) };
        self.ctx.spawn_impl(body, 0, hint);
    }

    /// The underlying context (worker id, topology queries).
    pub fn ctx(&self) -> &TaskCtx<'ctx> {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use crate::{Runtime, RuntimeConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn placed_spawns_overflow_into_immediate_execution() {
        // Capacity-2 queues: a task placed on worker 1 that finds its
        // queue full runs on the master instead.
        let rt = Runtime::new(RuntimeConfig::xgomptb(2).queue_capacity(2));
        let ran = AtomicUsize::new(0);
        let out = rt.parallel(|ctx| {
            ctx.scope(|s| {
                for _ in 0..64 {
                    s.spawn_on(1, |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 64);
        let total = out.stats.total();
        assert_eq!(total.ntasks_imm_exec + total.ntasks_static_push, 64);
        assert_eq!(total.tasks_executed, 64);
        out.stats.check_invariants().unwrap();
    }
}
