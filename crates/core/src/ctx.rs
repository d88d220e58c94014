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
use xgomp_xqueue::bump;

use crate::cancel::{raise_cancel, CancelReason, CancelToken};
use crate::task::Task;
use crate::team::{execute, TeamShared, Worker, ON_FRAME};

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
    ///
    /// When the child's target queue is full, it runs *undeferred* (the
    /// overflow rule, §II-B): on this worker, before this call returns,
    /// which happens only once every task the child spawned has finished
    /// too — those it left for a later `taskwait` included.
    #[inline]
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'static,
    {
        self.spawn_impl(f, 0, None, false);
    }

    /// Spawns a child task with a GOMP-style priority (only the GOMP
    /// scheduler orders by it; the others ignore it, as XQueue is
    /// relaxed-order by design).
    #[inline]
    pub fn spawn_with_priority<F>(&self, priority: i32, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'static,
    {
        self.spawn_impl(f, priority, None, false);
    }

    /// Spawns a body into the *calling worker's own* queue, bypassing the
    /// round-robin cursor — the hot submission path of `xgomp-service`,
    /// whose ingress queues carry one thin pointer per job end to end: the
    /// drain wraps it in a one-word closure, stored inline in the task
    /// record like any other body. This is the placement externally
    /// injected jobs need: a cross-pushed task lands in one peer's SPSC
    /// queue and is unreachable by anyone else until that peer next
    /// visits the scheduler — if the peer is stalled inside a
    /// long-running task body, the job is stranded even while other
    /// workers idle. A self-spawned task lands in the master queue of the
    /// worker that chose to take it, which runs it once its own nested
    /// work (the private stack its explicit tasks' children go to) is
    /// done.
    #[inline]
    pub fn spawn_local<F>(&self, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'static,
    {
        self.spawn_impl(f, 0, Some(self.worker.id), false);
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

    /// Whether the team has been poisoned by an un-isolated panic. The
    /// region is ending abnormally: no task body starts from here on
    /// (queued tasks are discarded), and it ends once the bodies already
    /// running return, so cooperative loops should bail out.
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
    /// master loop interleaves with ingress polling. In a poisoned team
    /// the tasks it takes are discarded, not run, and still count.
    pub fn run_pending(&self, max: usize) -> usize {
        let mut ran = 0;
        while ran < max && self.worker.run_next(|| {}) {
            ran += 1;
        }
        ran
    }

    /// Structured spawning: tasks created through the [`Scope`] may
    /// borrow from the enclosing frame; the scope taskwaits on exit
    /// (normal or unwinding), so no borrow can outlive its referent.
    ///
    /// A child's panic never unwinds through the scope's wait: it stops
    /// at the child's own task, and the implicit taskwait re-raises it
    /// once every child is quiescent. The drop guard is for `f`'s own
    /// panic: its wait runs (or, in a poisoned team, discards) the
    /// children still queued and returns only once the ones running
    /// elsewhere have finished.
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
        self.taskwait(); // the implicit taskwait
        std::mem::forget(guard);
        r
    }

    /// Blocks (helpfully — executing other tasks meanwhile, as GOMP's
    /// taskwait scheduling point does) until every direct child of the
    /// current task has completed. In a poisoned team it still waits:
    /// queued children are discarded instead of run, and a child running
    /// on another worker is waited for.
    ///
    /// The condition is the task's own child count, biased to the worker
    /// that executes the task: a child that completed on this worker
    /// counted itself off with a plain store, any other child with one
    /// atomic RMW. A context whose worker does not own its task (a peer's
    /// ingress poll, see [`IngressSource`](crate::IngressSource)) counted
    /// none of its spawns there, so its taskwait returns at once.
    ///
    /// # Panics
    ///
    /// If a child panicked, once no child is left. In a task server's team
    /// it re-raises the child's own payload. Any other team the panic
    /// poisoned: this wait unwinds with an opaque marker, and the region
    /// re-raises the child's payload on its caller.
    pub fn taskwait(&self) {
        // SAFETY: the record outlives execution: we own it until `retire`
        // (or it is the region's implicit task, alive until the region ends).
        let task = unsafe { self.task.as_ref() };
        if !self.owns(task) {
            return;
        }
        self.worker.wait_children(task);
        self.reraise_child_panic(task);
        // Cancellation checkpoint at the taskwait boundary: children are
        // quiescent (none left to leak), so this is a safe place for the
        // cooperative unwind.
        self.check_cancel();
    }

    /// Whether this context's worker owns `task` (this context's): it
    /// does for every task it executes, and the master does for the
    /// region's implicit task. The one exception is a peer's ingress
    /// poll, which holds the implicit task without owning it.
    #[inline]
    fn owns(&self, task: &Task) -> bool {
        !self.is_implicit(task) || task.creator() == self.worker.id
    }

    /// Whether `task` (this context's) is the region's implicit task.
    /// Only a parentless task can be; among those (the implicit task,
    /// and the jobs a peer's ingress poll spawned) it is told by identity.
    #[inline]
    fn is_implicit(&self, task: &Task) -> bool {
        task.parent().is_none() && self.task.as_ptr() == self.team().root.load(Ordering::Relaxed)
    }

    /// The half of the spawn path no body type changes, kept out of each
    /// body's monomorphized copy (so a `scope` that spawns stays small
    /// enough to inline into its caller, keeping nested levels' frames
    /// small): count the child for the barrier and, when this worker owns
    /// the parent, on the parent. Returns the parent the child counts on
    /// (`None`: parentless) and whether it is nested work (its parent is
    /// an explicit task).
    fn new_child(&self) -> (Option<NonNull<Task>>, bool) {
        let worker = self.worker;
        worker.team.barrier.task_created(worker.id);
        // SAFETY: parent record is alive (we are executing it, or it is
        // the region's implicit task, alive until the region ends).
        let parent = unsafe { self.task.as_ref() };
        let nested = !self.is_implicit(parent);
        // Only the owner writes a count's `local`: a child spawned from a
        // task this worker does not own is parentless.
        let counted = nested || parent.creator() == worker.id;
        if counted {
            parent.add_child();
        }
        (counted.then_some(self.task), nested)
    }

    /// A child that panicked left what its `execute` handed the parent on
    /// this task (its payload in a serving team, a poison marker in any
    /// other); quiescence reached, re-raise it here, so a panic climbs the
    /// task tree one taskwait at a time. Never double-panics (scope's
    /// taskwait-on-drop runs during unwinds).
    fn reraise_child_panic(&self, task: &Task) {
        if std::thread::panicking() {
            return;
        }
        if let Some(payload) = task.take_child_panic() {
            std::panic::resume_unwind(payload);
        }
    }

    /// The spawn path (§III-A): count for the barrier *before*
    /// publication, count the child on its parent (a plain store: the
    /// spawning worker owns the parent), pick its place, then allocate one
    /// record, write the body into it and publish it there. When the
    /// target queue is full the child has no place and runs undeferred
    /// instead ([`spawn_undeferred`](Self::spawn_undeferred)), on a record
    /// in the spawn's own frame; that spawn returns only once the child's
    /// own children, detached ones included, have finished.
    /// `hint = Some(t)` asks the scheduler to hand the task to worker `t`
    /// (see `Seat::place`).
    ///
    /// The one context whose worker does not own its task is a peer's
    /// ingress poll, which holds the region's implicit task (the
    /// master's): what it spawns is parentless. The barrier still counts
    /// it, and only the owner ever writes a count's `local`. A `scoped`
    /// child there runs undeferred, as the overflow rule does: its body
    /// may borrow the scope's frame, and no taskwait could wait for it.
    ///
    /// `f` need not be `'static`: every caller guarantees that the child
    /// finishes before any borrow `f` holds ends — the `spawn*` methods
    /// take `'static` bodies, and a [`Scope`] taskwaits for its children
    /// even when it unwinds.
    fn spawn_impl<F>(&self, f: F, priority: i32, hint: Option<usize>, scoped: bool)
    where
        F: FnOnce(&TaskCtx<'_>) + Send,
    {
        let (worker, team) = (self.worker, self.team());
        let t0 = if team.profiling { clock::now() } else { 0 };
        let (parent, nested) = self.new_child();
        // Where the child goes is decided once, before its record exists:
        // nowhere, when the target is full or it is a `scoped` child no
        // one counts — then it runs undeferred.
        let place = match parent {
            None if scoped => None,
            _ => worker.seat.place(hint, nested),
        };
        let Some(place) = place else {
            worker.log_span(EventKind::TaskCreate, t0);
            return self.spawn_undeferred(f, parent, priority);
        };
        let ptr = worker.alloc.alloc(parent, priority);
        // Children inherit the parent's cancellation token, so a job's
        // whole task tree answers to one flag.
        // SAFETY: we execute the parent and the child is not yet
        // published, so both records are ours. `f` outlives the child
        // (see above), so erasing its type, lifetime included, cannot let
        // the body observe freed data.
        unsafe {
            Task::set_body(ptr, f);
            if let Some(token) = Task::cancel_token(self.task) {
                Task::set_cancel(ptr, Some(token));
            }
        }
        bump(&worker.stats.tasks_created, 1);
        worker.seat.push(place, ptr);
        worker.log_span(EventKind::TaskCreate, t0);
    }

    /// The overflow rule (§II-B: the target queue is full, execute the
    /// task immediately) at libgomp's cost for an undeferred task: the
    /// record is a local of this frame — never published, never allocated
    /// — and the one `execute` runs it here. Its retire waits for the
    /// child's own children before completing `parent`, so the record
    /// dies with the frame. Out of line, so the spawn path that inlines
    /// into every caller keeps its frame small.
    #[inline(never)]
    fn spawn_undeferred<F>(&self, f: F, parent: Option<NonNull<Task>>, priority: i32)
    where
        F: FnOnce(&TaskCtx<'_>) + Send,
    {
        let worker = self.worker;
        let record = Task::new(parent, worker.id as u32, priority);
        let ptr = NonNull::from(&record);
        // SAFETY: as in `spawn_impl`: the record is ours until `execute`,
        // which returns before it dies, and `f` outlives the child. A
        // shared borrow suffices: the body and the token sit in cells.
        unsafe {
            Task::set_body(ptr, f);
            if let Some(token) = Task::cancel_token(self.task) {
                Task::set_cancel(ptr, Some(token));
            }
        }
        bump(&worker.stats.tasks_created, 1);
        bump(&worker.stats.ntasks_imm_exec, 1);
        execute::<ON_FRAME>(worker, ptr);
    }
}

/// Structured-spawn handle; see [`TaskCtx::scope`].
pub struct Scope<'ctx, 'env> {
    ctx: &'ctx TaskCtx<'ctx>,
    /// Invariant in `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

// Both spawns erase `'env` from the body (in `spawn_impl`): the scope's
// taskwait (`WaitGuard`, run even on unwind) ensures every child finishes
// before any `'env` borrow ends.
impl<'ctx, 'env> Scope<'ctx, 'env> {
    /// Spawns a task that may borrow anything outliving the scope. As
    /// with [`TaskCtx::spawn`], a child whose target queue is full runs
    /// undeferred: this call returns once it and every task it spawned
    /// have finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'env,
    {
        self.ctx.spawn_impl(f, 0, None, true);
    }

    /// Spawns a borrowing task with a *placement target*: worker
    /// `target` gets the task in its own queue (best effort — a full
    /// queue runs it undeferred on the spawning worker, and dynamic load
    /// balancing may still migrate it). This is how `parallel_for`
    /// places its per-worker loop-drain tasks zone-affinely.
    pub fn spawn_on<F>(&self, target: usize, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'env,
    {
        self.ctx.spawn_impl(f, 0, Some(target), true);
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
