//! Execution: what a worker does inside a region. One task's life on a
//! worker is [`execute`] (locality accounting, the body, then
//! [`retire`]ment); one *scheduling point* is [`Worker::run_next`] — the
//! only place a task goes from a queue to a running body, shared by the
//! worker loop, `taskwait` and `run_pending`; one *ingress transition* is
//! [`Worker::poll_ingress`], shared by the worker loop and
//! `help_pending`. Around them sit [`worker_loop`] (the idle protocol
//! every worker runs inside the region-end barrier) and [`master_main`]
//! (the implicit task, then the same loop).
//!
//! A task body's panic stops at its own `execute`, in every team, and
//! reaches its parent only as the dependency `taskwait` resolves: the
//! parent's next `taskwait` re-raises it once the parent's children are
//! quiescent, so a panic climbs the task tree one taskwait at a time and
//! never unwinds through the unrelated frames below it on the thread. A
//! serving team hands the parent the payload itself (a failed job is
//! that job's outcome); any other team is poisoned by it, keeps the
//! first payload as the region's and hands the parent a [`Poisoned`]
//! marker. A region has one exit, the barrier release: from the poison
//! on, `execute` discards every task it is handed, so the team quiesces
//! without starting another body. All of it runs on a [`Worker`]: which
//! thread may touch which worker's state is settled where the worker is
//! claimed, not here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::Ordering;

use xgomp_profiling::{clock, EventKind, TraceLevel};
use xgomp_xqueue::{Backoff, IdleGate};

use super::{TeamShared, Worker};
use crate::ctx::TaskCtx;
use crate::task::{PanicPayload, Task};
use crate::util::locked;

/// What a task of a poisoned (non-serving) team hands its parent when its
/// body panicked, or when a child's panic climbed through it: the team
/// already holds the region's payload, so the parent's `taskwait` only
/// needs to unwind. [`master_main`] tells it apart from a panic of the
/// region closure's own.
struct Poisoned;

/// [`execute`]'s record location for a task a queue handed out: its
/// record is on the heap, made by an allocator seat.
pub(crate) const ON_HEAP: bool = false;
/// [`execute`]'s record location for an undeferred task: its record is a
/// local of the spawn that runs it, never published, never freed.
pub(crate) const ON_FRAME: bool = true;

/// Executes one task on `worker`: locality accounting, NUMA cost model,
/// the body itself, then completion (dependency updates, barrier
/// notification, record release). The body runs under `catch_unwind`,
/// the one place a task body's panic stops, so completion always runs on
/// the normal path; a payload goes to [`body_panicked`]. In a poisoned
/// team the task is discarded instead: it is retired with its body
/// dropped, never run and not counted as executed (a record
/// [`ON_FRAME`] drops its body with the frame).
///
/// `FRAME` says where the record lives ([`ON_HEAP`] or [`ON_FRAME`]),
/// which decides how [`retire`] lets go of it. A const parameter rather
/// than an argument, so nothing more stays live across the body: every
/// nesting level pays this frame.
pub(crate) fn execute<const FRAME: bool>(worker: &Worker<'_>, task: NonNull<Task>) {
    let team = worker.team;
    let mut span = None;
    if !team.poisoned.load(Ordering::Relaxed) {
        account(worker, task);
        let traced = team.trace_on(TraceLevel::Full);
        span = (team.profiling || traced).then(|| (clock::now(), traced));
        let ctx = TaskCtx { worker, task };
        // SAFETY: single-executor discipline — the queue (or the
        // undeferred spawn) handed this task to us alone, and we own it
        // until `retire`.
        let run = || unsafe { Task::run_body(task, &ctx) };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
            body_panicked(team, task, payload);
        }
    }
    // SAFETY: `execute` owns the task, and lets go of it here.
    unsafe { retire::<FRAME>(worker, task) };
    if let Some((t0, traced)) = span {
        record_span(worker, t0, traced);
    }
}

/// The locality accounting and NUMA cost model of a task about to run.
fn account(worker: &Worker<'_>, task: NonNull<Task>) {
    // SAFETY: the caller owns the task.
    let creator = unsafe { task.as_ref() }.creator();
    let locality = worker.team.placement.locality(creator, worker.id);
    worker.stats.record_execution(locality);
    worker.team.cost.apply(locality);
}

/// Records a task span that started at `t0`, in the profile and (when
/// `traced`) in the flight recorder.
fn record_span(worker: &Worker<'_>, t0: u64, traced: bool) {
    let t1 = clock::now();
    if worker.team.profiling {
        worker.log.borrow_mut().push_span(EventKind::Task, t0, t1);
    }
    if let Some(ring) = worker.ring.filter(|_| traced) {
        // Emit with the measured end stamp (payload `c` carries the
        // start) so the trace span matches the profiled span.
        ring.emit(t1, EventKind::Task as u8, 0, 0, t0);
    }
}

/// The one team-specific decision about a task body's panic, made where
/// it stopped. A serving team hands the payload to the parent: the panic
/// fails only its own job. Any other team is poisoned, keeps the first
/// payload as the region's and hands the parent a [`Poisoned`] marker.
/// Either way the parent's next `taskwait` re-raises what it was handed.
#[cold]
fn body_panicked(team: &TeamShared, task: NonNull<Task>, payload: PanicPayload) {
    let payload = if team.isolate_panics {
        payload
    } else {
        locked(&team.panic).get_or_insert(payload);
        team.poison();
        Box::new(Poisoned)
    };
    // SAFETY: we own the task; the record is alive.
    if let Some(parent) = unsafe { task.as_ref() }.parent() {
        // SAFETY: a parent outlives its outstanding children, and this
        // one completes only in `retire`.
        unsafe { parent.as_ref() }.record_child_panic(payload);
    }
}

/// Retires a task: the owner lets go of it, then completes its parent's
/// dependency, then reports it to the barrier as finished. Self before
/// parent, so a discarded body is dropped while the parent still waits
/// for it: a scoped body may borrow the parent's frame until then (an
/// undeferred task's parent is the task whose spawn holds that frame, so
/// it cannot stop waiting before the frame ends).
///
/// Both halves follow the owner-biased count (see [`crate::task`]). A
/// heap task with no child outstanding is freed here with no RMW — always
/// so for a discarded one, which never ran to spawn any; otherwise it
/// detaches, and its last child frees it. A record on its spawner's frame
/// never detaches: its owner waits here, helping, until every child has
/// counted itself off, and from then on no completer touches it, so it
/// can die with the frame. The parent's count is a plain store when the
/// task completes on its creator's worker — the parent's owner — while
/// the parent is attached, and one RMW anywhere else.
///
/// # Safety
///
/// The caller owns `task`, whose record lives where `FRAME` says, and
/// gives it up here.
unsafe fn retire<const FRAME: bool>(worker: &Worker<'_>, task: NonNull<Task>) {
    // SAFETY: the record is alive until we let go of it below.
    let t = unsafe { task.as_ref() };
    let (parent, creator) = (t.parent(), t.creator());
    if FRAME {
        worker.wait_children(t);
    } else if t.unfinished_children() == 0 || worker.dep_rmw(|| t.detach()) {
        // SAFETY: no child counts on the record any more: it is dead.
        unsafe { worker.alloc.free(task) };
    }
    if let Some(parent) = parent {
        // SAFETY: a parent outlives its outstanding children, and this
        // one is outstanding until the completion below.
        let p = unsafe { parent.as_ref() };
        if creator == worker.id && p.attached() {
            p.child_done_here();
        } else if worker.dep_rmw(|| p.child_done_elsewhere()) {
            // SAFETY: the parent is detached and this was its last child.
            unsafe { worker.alloc.free(parent) };
        }
    }
    worker.team.barrier.task_finished(worker.id);
}

impl Worker<'_> {
    /// Runs one atomic RMW on a task's child count (a detach, or a
    /// completion off the owner's worker); debug builds tally it on the
    /// team, so tests can pin how many a region pays.
    #[inline]
    fn dep_rmw<R>(&self, rmw: impl FnOnce() -> R) -> R {
        #[cfg(debug_assertions)]
        self.team.dep_rmws.fetch_add(1, Ordering::Relaxed);
        rmw()
    }

    /// The scheduling point: asks this worker's seat for its next task
    /// (which, under DLB, also serves one pending steal request — the
    /// victim hook lives inside `Seat::next_task`) and runs it.
    /// `found` fires between the two, before the body: callers close the
    /// `Stall` / `TaskWait` span they were accumulating. Returns whether
    /// a task ran. The idle side (`Seat::on_idle`, the thief hook)
    /// stays with the callers — not every one of them may become a thief.
    #[inline]
    pub(crate) fn run_next(&self, found: impl FnOnce()) -> bool {
        let Some(task) = self.seat.next_task() else {
            return false;
        };
        found();
        execute::<ON_HEAP>(self, task);
        true
    }

    /// Waits until every child of `task` — which this worker owns — has
    /// completed, helping meanwhile as GOMP's taskwait scheduling point
    /// does: it runs whatever [`run_next`](Self::run_next) yields (in a
    /// poisoned team, discards it) and, finding nothing, fires the DLB
    /// thief hook and backs off. A child running on another worker is
    /// waited for. The wait of `taskwait`, and of a retiring undeferred
    /// task.
    #[inline]
    pub(crate) fn wait_children(&self, task: &Task) {
        let mut backoff = Backoff::new();
        let mut wait_t0: Option<u64> = None;
        while task.unfinished_children() != 0 {
            let found = || {
                if let Some(t0) = wait_t0.take() {
                    self.log_span(EventKind::TaskWait, t0);
                }
            };
            if self.run_next(found) {
                backoff.reset();
                continue;
            }
            self.seat.on_idle();
            if self.team.profiling && wait_t0.is_none() {
                wait_t0 = Some(clock::now());
            }
            backoff.snooze();
        }
        if let Some(t0) = wait_t0 {
            self.log_span(EventKind::TaskWait, t0);
        }
    }

    /// The ingress transition (persistent executor): lets the team's
    /// [`IngressSource`](super::IngressSource), if any, spawn externally
    /// submitted work from this worker, from the region's implicit task:
    /// its children when the master polls, parentless when a peer does
    /// (only a task's owner writes its count's `local`); the barrier
    /// counts them either way. Returns how many were
    /// spawned: none in a poisoned team, which would only discard them
    /// (they stay in the source).
    pub(crate) fn poll_ingress(&self) -> usize {
        let Some(src) = &self.team.source else {
            return 0;
        };
        if self.team.poisoned.load(Ordering::Relaxed) {
            return 0;
        }
        let Some(root) = NonNull::new(self.team.root.load(Ordering::Acquire)) else {
            return 0;
        };
        src.poll(&TaskCtx {
            worker: self,
            task: root,
        })
    }
}

/// The scheduling loop every worker runs inside the region-end barrier:
/// execute whatever the scheduler yields; when idle, poll the ingress,
/// then fire the DLB thief hook and poll the barrier.
///
/// ## The event-driven idle arm
///
/// With [`RuntimeConfig::park_idle`](crate::RuntimeConfig::park_idle) on
/// (the default), a worker that has exhausted its spin backoff parks on
/// the team's NUMA-aware [`Parker`](xgomp_xqueue::Parker) instead of
/// yield-looping. Every event that could end its idleness has a waker:
///
/// * a producer pushing into its lattice row (or any queue it can
///   reach) wakes it from the scheduler's `spawn`;
/// * a DLB victim migrating tasks into its row wakes it from the engine;
/// * an external submitter wakes it through the ingress doorbell
///   (`xgomp-service`);
/// * tree-barrier gather progress wakes it from the hand-off, so the
///   quiescence protocol counts parked workers correctly;
/// * region teardown wakes *everyone* — whichever worker observes the
///   release calls
///   [`Parker::unpark_all`](xgomp_xqueue::Parker::unpark_all) before
///   leaving its loop.
///
/// The announce → re-check → commit protocol (see `xgomp_xqueue::parker`)
/// makes the sleep race-free: the re-check below covers exactly the
/// conditions those wakers signal.
///
/// The barrier release is the loop's only exit, poisoned team or not: a
/// poisoned team's workers keep popping (and [`execute`] discarding)
/// until the barrier sees every task retired.
pub(super) fn worker_loop(worker: &Worker<'_>) {
    let (team, w) = (worker.team, worker.id);
    let mut gate = IdleGate::default();
    // One merged span per idle period: closed as STALL when work shows
    // up, as BARRIER when the region ends (keeps logs bounded).
    let mut idle_t0: Option<u64> = None;
    let close_idle = |idle_t0: &mut Option<u64>, kind| {
        if let Some(t0) = idle_t0.take() {
            worker.log_span(kind, t0);
        }
    };
    // Flight-recorder baseline for this worker's own victim-side DLB
    // counters (single-writer, so deltas are exact): a grown
    // `nreq_has_steal` means a steal request we served moved tasks, a
    // grown `ntasks_stolen` counts the tasks migrated away. Sampling
    // our own counters here avoids threading the tracer through the
    // scheduler/engine call graph.
    let mut steal_base: Option<(u64, u64)> = None;
    loop {
        if team.trace_on(TraceLevel::Full) {
            let served = worker.stats.nreq_has_steal.load(Ordering::Relaxed);
            let stolen = worker.stats.ntasks_stolen.load(Ordering::Relaxed);
            if let Some((served0, stolen0)) = steal_base {
                if served > served0 {
                    worker.trace_emit(TraceLevel::Full, EventKind::Steal, 0, served - served0, 0);
                }
                if stolen > stolen0 {
                    let moved = stolen - stolen0;
                    worker.trace_emit(TraceLevel::Full, EventKind::Migrate, 0, moved, 0);
                }
            }
            steal_base = Some((served, stolen));
        } else {
            steal_base = None;
        }
        if worker.run_next(|| close_idle(&mut idle_t0, EventKind::Stall)) {
            gate.reset();
            continue;
        }
        // Pull externally submitted work into the scheduler before
        // asking a peer for some: the ingress is the coarse level of the
        // load balancing, so an idle serving worker sends no steal request
        // while the ingress holds a job. Without a source this returns 0
        // at once.
        if worker.poll_ingress() > 0 {
            close_idle(&mut idle_t0, EventKind::Stall);
            gate.reset();
            continue;
        }
        worker.seat.on_idle();
        if team.profiling && idle_t0.is_none() {
            idle_t0 = Some(clock::now());
        }
        if team.barrier.try_release(w) {
            close_idle(&mut idle_t0, EventKind::Barrier);
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
            let stay_awake = worker.seat.has_work_hint()
                || team.source.as_ref().is_some_and(|s| s.has_pending());
            released = !stay_awake && team.barrier.try_release(w);
            if !(stay_awake || released) {
                worker.trace_emit(TraceLevel::Lifecycle, EventKind::Park, 0, 0, 0);
            }
            stay_awake || released
        });
        if released {
            close_idle(&mut idle_t0, EventKind::Barrier);
            team.parker.unpark_all();
            break;
        }
        if slept {
            worker.trace_emit(TraceLevel::Lifecycle, EventKind::Wake, 0, 0, 0);
        }
    }
}

/// Master path: run the region closure as the implicit task, then join
/// the barrier loop like any other worker. Returns `None` when the
/// closure panicked.
///
/// The closure is the one body no `execute` runs, so its panic is caught
/// here: it poisons the team, and its payload replaces any task's (the
/// master's panic is the region's). A [`Poisoned`] marker that a
/// `taskwait` re-raised into the closure is not a panic of its own and
/// leaves the team's payload in place. The master still joins the loop,
/// which ends only at the barrier release, so every path hands
/// `finish_region` a quiesced team whose implicit task it can retire once
/// the workers are gone.
pub(super) fn master_main<R>(team: &TeamShared, f: impl FnOnce(&TaskCtx<'_>) -> R) -> Option<R> {
    let worker = Worker::claim(team, 0);
    // The implicit (root) task anchoring the region's task tree,
    // published so idle workers' ingress polls can spawn from it.
    let root = worker.alloc.alloc(None, 0);
    team.root.store(root.as_ptr(), Ordering::Release);
    let ctx = TaskCtx {
        worker: &worker,
        task: root,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&ctx))).map_err(|payload| {
        if !payload.is::<Poisoned>() {
            *locked(&team.panic) = Some(payload);
        }
        team.poison();
    });
    team.barrier.arrive(0);
    worker_loop(&worker);
    result.ok()
}

#[cfg(test)]
mod tests {
    use crate::{DlbConfig, DlbStrategy, Runtime, RuntimeConfig, TaskCtx};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// NA-WS on two workers with every task placed on worker 0: worker 1
    /// runs a task only if worker 0 served its steal request, i.e. only
    /// if the scheduling point the master sits in fires the victim hook.
    /// `wait` is how the master works off a round of `spawned` tasks.
    fn worker1_gets_work_while_master(wait: impl Fn(&TaskCtx<'_>, &AtomicUsize, usize)) {
        let cfg = RuntimeConfig::xgomptb(2)
            .dlb(
                DlbConfig::new(DlbStrategy::WorkSteal)
                    .n_steal(4)
                    .t_interval(4),
            )
            // A parked thief sends no requests; keep worker 1 asking.
            .park_idle(false);
        let done = Arc::new(AtomicUsize::new(0));
        let stolen = Arc::new(AtomicBool::new(false));
        let out = Runtime::new(cfg).parallel(|ctx| {
            // Rounds of backlog until worker 1 has run one of the tasks
            // (the deadline only turns a missing hook into a failure).
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut spawned = 0;
            while !stolen.load(Ordering::Relaxed) && Instant::now() < deadline {
                for _ in 0..32 {
                    let (done, stolen) = (done.clone(), stolen.clone());
                    ctx.spawn_local(move |c| {
                        if c.worker_id() == 1 {
                            stolen.store(true, Ordering::Relaxed);
                        }
                        done.fetch_add(1, Ordering::Release);
                    });
                    spawned += 1;
                }
                wait(ctx, &done, spawned);
            }
        });
        assert!(out.stats.workers[0].nreq_handled > 0);
        assert!(out.stats.workers[1].tasks_executed > 0);
        let total = out.stats.total();
        assert_eq!(total.tasks_created, total.tasks_executed);
        out.stats.check_invariants().unwrap();
    }

    #[test]
    fn taskwait_serves_steal_requests() {
        worker1_gets_work_while_master(|ctx, _, _| ctx.taskwait());
    }

    /// The dependency counts' exact cost (debug builds tally it): a
    /// child that completes on the worker that spawned it pays no atomic
    /// RMW, so `fib(15)` on one worker pays none at all, and a two-worker
    /// region with placed children pays exactly one per child that ran on
    /// the other worker (a task's own retire pays none: every one here
    /// waits for its children).
    #[cfg(debug_assertions)]
    #[test]
    fn dependency_rmws_are_exactly_the_cross_worker_completions() {
        fn fib(ctx: &TaskCtx<'_>, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (mut a, mut b) = (0, 0);
            ctx.scope(|s| {
                s.spawn(|c| a = fib(c, n - 1));
                s.spawn(|c| b = fib(c, n - 2));
            });
            a + b
        }
        let rmws = |ctx: &TaskCtx<'_>| ctx.team().dep_rmws.load(Ordering::Relaxed);
        let out = Runtime::new(RuntimeConfig::xgomptb(1)).parallel(|ctx| (fib(ctx, 15), rmws(ctx)));
        assert_eq!(out.result, (610, 0), "fib(15) on one worker: no RMW");
        assert_eq!(out.stats.total().tasks_executed, 1972);

        let cross = AtomicUsize::new(0);
        let out = Runtime::new(RuntimeConfig::xgomptb(2)).parallel(|ctx| {
            ctx.scope(|s| {
                for i in 0..64 {
                    let cross = &cross;
                    s.spawn_on(i % 2, move |c| {
                        // A grandchild placed on its parent's own worker
                        // completes there: a plain store.
                        c.scope(|s| s.spawn_on(c.worker_id(), |_| {}));
                        if c.worker_id() != 0 {
                            cross.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            rmws(ctx)
        });
        let cross = cross.into_inner() as u64;
        assert!(cross > 0, "worker 1 ran its placed children");
        assert_eq!(out.result, cross, "one RMW per cross-worker completion");
        assert_eq!(out.stats.total().tasks_executed, 128);
    }

    #[test]
    fn run_pending_serves_steal_requests() {
        // The serve-style master: nothing but `run_pending`.
        worker1_gets_work_while_master(|ctx, done, spawned| {
            while done.load(Ordering::Acquire) < spawned {
                ctx.run_pending(8);
            }
        });
    }
}
