//! Execution: what a worker does inside a region. One task's life on a
//! worker is [`execute`] (locality accounting, the body, then
//! [`retire`]ment behind a drop guard); one *scheduling point* is
//! [`Worker::run_next`] — the only place a task goes from a queue to
//! a running body, shared by the worker loop, `taskwait` and
//! `run_pending`; one *ingress transition* is
//! [`Worker::poll_ingress`], shared by the worker loop and
//! `help_pending`. Around them sit [`worker_loop`] (the idle protocol
//! every worker runs inside the region-end barrier), [`loop_to_release`]
//! (which re-enters it after a task body unwound through it) and
//! [`master_main`] (the implicit task, then the same loop). A region has
//! one exit, the barrier release: a panic poisons the team, and from
//! then on `execute` discards every task it is handed, so the team
//! quiesces without starting another body. All of it runs on a
//! [`Worker`]: which thread may touch which worker's state is settled
//! where the worker is claimed, not here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::Ordering;

use xgomp_profiling::{clock, EventKind, TraceLevel};
use xgomp_xqueue::IdleGate;

use super::{TeamShared, Worker};
use crate::ctx::TaskCtx;
use crate::task::Task;
use crate::util::locked;

/// Executes one task on `worker`: locality accounting, NUMA cost
/// model, the body itself, then completion (dependency updates, barrier
/// notification, record release) — which a drop guard performs even if
/// the body unwinds. In a poisoned team the task is discarded instead:
/// the guard retires it with its body dropped, never run and not counted
/// as executed.
pub(crate) fn execute(worker: &Worker<'_>, task: NonNull<Task>) {
    struct CompletionGuard<'a, 't> {
        worker: &'a Worker<'t>,
        task: NonNull<Task>,
    }
    impl Drop for CompletionGuard<'_, '_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.worker.team.poison();
            }
            // SAFETY: the handle reference `execute` holds is the one
            // released here.
            unsafe { retire(self.worker, self.task) };
        }
    }

    let (team, w) = (worker.team, worker.id);
    let guard = CompletionGuard { worker, task };
    if team.poisoned.load(Ordering::Relaxed) {
        return; // discarded: the guard retires it unrun
    }
    // SAFETY: we hold the task's handle reference; the record is alive.
    let creator = unsafe { task.as_ref() }.creator();
    let locality = team.placement.locality(creator, w);
    worker.stats.record_execution(locality);
    team.cost.apply(locality);

    let tracing_tasks = team.trace_on(TraceLevel::Full);
    let timed = team.profiling || tracing_tasks;
    let t0 = if timed { clock::now() } else { 0 };

    let ctx = TaskCtx { worker, task };
    // SAFETY: single-executor discipline — the handle reference we hold
    // is the only execution claim on this task.
    let run = || unsafe { Task::run_body(task, &ctx) };
    if team.isolate_panics {
        run_body_isolated(task, run);
    } else {
        run();
    }
    drop(guard);
    if timed {
        let t1 = clock::now();
        if team.profiling {
            worker.log.borrow_mut().push_span(EventKind::Task, t0, t1);
        }
        if let Some(ring) = worker.ring.filter(|_| tracing_tasks) {
            // Emit with the measured end stamp (payload `c` carries the
            // start) so the trace span matches the profiled span.
            ring.emit(t1, EventKind::Task as u8, 0, 0, t0);
        }
    }
}

/// Retires a task: drops the task's own handle reference (freeing the
/// record, and with it a body that never ran), then completes its
/// parent's dependency by dropping the reference the child held on the
/// parent, then reports the task to the barrier as finished. Self before
/// parent, so a discarded body is dropped while the parent still waits
/// for it: a scoped body may borrow the parent's frame until then.
///
/// # Safety
///
/// The caller holds `task`'s handle reference and gives it up here.
pub(super) unsafe fn retire(worker: &Worker<'_>, task: NonNull<Task>) {
    // SAFETY: record alive until our release below.
    let t = unsafe { task.as_ref() };
    let parent = t.parent();
    if t.release_ref() {
        // SAFETY: last reference gone; the record is dead.
        unsafe { worker.alloc.free(task) };
    }
    if let Some(parent) = parent {
        // SAFETY: the child held a reference to the parent until this
        // release, so the parent record is alive here.
        if unsafe { parent.as_ref() }.release_ref() {
            // SAFETY: as above.
            unsafe { worker.alloc.free(parent) };
        }
    }
    worker.team.barrier.task_finished(worker.id);
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
fn run_body_isolated(task: NonNull<Task>, run: impl FnOnce()) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
        // SAFETY: we hold a reference; the record is alive.
        if let Some(parent) = unsafe { task.as_ref() }.parent() {
            // SAFETY: the child retains its parent.
            unsafe { parent.as_ref() }.record_child_panic(payload);
        }
    }
}

impl Worker<'_> {
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
        execute(self, task);
        true
    }

    /// The ingress transition (persistent executor): lets the team's
    /// [`IngressSource`](super::IngressSource), if any, spawn externally
    /// submitted work from this worker. The injected tasks become
    /// children of the region's implicit task. Returns how many were
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
/// execute whatever the scheduler yields; when idle, fire the DLB thief
/// hook and poll the barrier.
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
pub(crate) fn worker_loop(worker: &Worker<'_>) {
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
        worker.seat.on_idle();
        // Before concluding the region might be over, pull externally
        // submitted work into the scheduler.
        if worker.poll_ingress() > 0 {
            close_idle(&mut idle_t0, EventKind::Stall);
            gate.reset();
            continue;
        }
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

/// Runs [`worker_loop`] until the barrier releases, re-entering it after
/// a task body unwound through it: the unwind poisoned the team, the
/// first payload is the region's, and the worker goes back to retiring
/// (discarding) tasks, because only the release ends the region. Both
/// loop sites use it — `parked_worker` and the master's second leg.
pub(super) fn loop_to_release(worker: &Worker<'_>) {
    while let Err(payload) = catch_unwind(AssertUnwindSafe(|| worker_loop(worker))) {
        worker.team.poison();
        locked(&worker.team.panic).get_or_insert(payload);
    }
}

/// Master path: run the region closure as the implicit task, then join
/// the barrier loop like any other worker. Returns `None` when the
/// closure panicked.
///
/// A panic of the closure is caught: it poisons the team, and its payload
/// replaces any worker's (the master's panic is the region's). The master
/// still joins the loop, which ends only at the barrier release, so every
/// path hands `finish_region` a quiesced team whose implicit task it can
/// retire once the workers are gone.
pub(super) fn master_main<R>(team: &TeamShared, f: impl FnOnce(&TaskCtx<'_>) -> R) -> Option<R> {
    let worker = Worker::claim(team, 0);
    // The implicit (root) task anchoring the region's task tree,
    // published so idle workers can parent injected tasks to it.
    let root = worker.alloc.alloc(None, 0);
    team.root.store(root.as_ptr(), Ordering::Release);
    let ctx = TaskCtx {
        worker: &worker,
        task: root,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&ctx))).map_err(|payload| {
        *locked(&team.panic) = Some(payload);
        team.poison();
    });
    team.barrier.arrive(0);
    loop_to_release(&worker);
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
