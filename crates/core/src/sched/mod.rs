//! Scheduler backends: who holds the task queues and how workers find
//! work.
//!
//! | Kind | Structure | Models |
//! |------|-----------|--------|
//! | [`GompScheduler`] | one global mutex-guarded priority queue | GNU OpenMP's global task lock + priority queue (§II-A) |
//! | [`LompScheduler`] | per-worker lock-free deques + random stealing | LLVM OpenMP's tasking path |
//! | [`XQueueScheduler`] | the XQueue lattice, static round-robin push, optional lock-less DLB | XGOMP/XGOMPTB (§III-A, §IV) |

mod gomp;
mod lomp;
mod xq;

pub use gomp::GompScheduler;
pub use lomp::LompScheduler;
pub(crate) use xq::Row;
pub use xq::XQueueScheduler;

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use xgomp_profiling::WorkerStats;
use xgomp_topology::Placement;
use xgomp_xqueue::Parker;

use crate::dlb::DlbConfig;
use crate::task::Task;

/// Scheduler implementation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Global locked priority queue (GOMP model).
    Gomp,
    /// Per-worker lock-free work-stealing deques (LOMP model).
    Lomp,
    /// XQueue lattice with static round-robin balancing; pass a
    /// [`DlbConfig`] through `SchedulerKind::build` to enable NA-RP or
    /// NA-WS on top.
    XQueue,
}

impl SchedulerKind {
    /// Instantiates the scheduler for a team of `n` workers.
    ///
    /// `dlb` (the runtime's [`RuntimeConfig::dlb`](crate::RuntimeConfig::dlb))
    /// enables the DLB engine, which holds that configuration for the
    /// team's life (XQueue scheduler only). `parker` is the team's idle
    /// parker: schedulers wake the push target (or, for global queues, a
    /// zone-local sleeper) after publishing a task, so parked workers
    /// never miss work.
    pub(crate) fn build(
        self,
        n: usize,
        queue_capacity: usize,
        placement: Arc<Placement>,
        dlb: Option<DlbConfig>,
        parker: Arc<Parker>,
    ) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Gomp => Box::new(GompScheduler::new(n, parker)),
            SchedulerKind::Lomp => Box::new(LompScheduler::new(n, parker)),
            SchedulerKind::XQueue => Box::new(XQueueScheduler::new(
                n,
                queue_capacity,
                placement,
                dlb,
                parker,
            )),
        }
    }
}

/// The team-wide half of a scheduler: what outlives any one worker
/// (teardown, the report name) plus [`seat`](Self::seat), which hands
/// each worker the half only it may drive.
///
/// The split is the single-writer discipline as a structure: everything
/// a worker alone writes — round-robin cursor, DLB thief/redirect state,
/// RNG, deque owner end, lattice roles — lives *in* its [`Seat`], so no
/// method here or there takes a worker index on trust.
pub(crate) trait Scheduler: Send + Sync {
    /// Hands out worker `w`'s seat, built on the calling thread; `stats`
    /// is worker `w`'s own counter block, which the seat (and its DLB
    /// half) write.
    ///
    /// **Claim once:** a second claim of the same `w` panics (one flag
    /// swap per worker per region, off the per-task path). That panic is
    /// what every lattice-role `unsafe` in the XQueue seat rests on: a
    /// seat exists at most once per `w`, it is `!Sync`, and its
    /// operations are leaves, so role `w` has one caller at a time.
    fn seat<'s>(&'s self, w: usize, stats: &'s WorkerStats) -> Box<dyn Seat + 's>;

    /// Removes every remaining task (teardown path; the region barrier
    /// guarantees emptiness, so anything drained here is a bug surfaced
    /// by the caller). `&mut self` proves every seat — each borrows the
    /// scheduler — has retired.
    fn drain_all(&mut self, f: &mut dyn FnMut(NonNull<Task>));

    /// Implementation name for reports.
    fn name(&self) -> &'static str;
}

/// One worker's handle on the scheduler — one publish
/// ([`place`](Self::place), then [`push`](Self::push)) and one fetch
/// ([`next_task`](Self::next_task)), each called from exactly one place
/// (`TaskCtx`'s spawn path and `Worker::run_next`). Owned by the worker's
/// `Worker`, never shared: implementations hold their state in
/// `Cell`/`RefCell`, which makes them `!Sync`, and no operation runs a
/// task body, so nested `execute` frames cannot re-enter one.
pub(crate) trait Seat {
    /// Decides, once and before the task's record exists, where the next
    /// spawn goes. `hint` is an optional *placement target*: the caller
    /// wants that worker to execute the task — the zone-affine initial
    /// placement of `parallel_for`'s per-worker loop-drain tasks, or a
    /// server job kept on the worker that drained it. Schedulers without
    /// per-worker queues ignore it. `nested` says the spawning task is an
    /// explicit task, not a region's implicit one: XQueue keeps such a
    /// child, when unplaced and round-robined to this worker, on the
    /// worker's private LIFO stack; the others ignore it.
    ///
    /// `None` means the chosen queue or stack is full (the XQueue overflow
    /// rule, hinted or not): the caller runs the task undeferred. The seat
    /// is the only producer of that queue and the only user of its stack,
    /// so the answer is exact: a `Some` place has room until the
    /// [`push`](Self::push) that must follow it. A `Some` books the spawn
    /// (`ntasks_static_push`, or `ntasks_stolen` for an NA-RP redirect).
    /// Unbounded schedulers always answer `Some`.
    fn place(&self, hint: Option<usize>, nested: bool) -> Option<Place>;

    /// Publishes a freshly spawned task where the preceding
    /// [`place`](Self::place) put it. Infallible: the place had room.
    fn push(&self, place: Place, task: NonNull<Task>);

    /// Fetches this worker's next task, if any. A scheduler with a DLB
    /// engine fires its *victim* hook here, after a successful fetch and
    /// before returning ("when a worker finds a task to execute, it
    /// becomes a victim and tries to handle a request", §IV-B), so every
    /// caller of the scheduling point serves steal requests.
    fn next_task(&self) -> Option<NonNull<Task>>;

    /// The DLB *thief* hook, fired by the callers that may steal (the
    /// worker loop and `taskwait`, not `run_pending`) after `next_task`
    /// returned `None`. The one default body: only a scheduler with a
    /// DLB engine has anything to do here.
    fn on_idle(&self) {}

    /// Racy hint that this worker could find a task right now — the
    /// pre-park re-check of the event-driven idle path. May report stale
    /// `true` (the worker cancels its park and re-probes, harmless); a
    /// `false` is only trusted because every producer wakes its push
    /// target *after* publishing, closing the race with a `SeqCst` fence
    /// pair (see `xgomp_xqueue::parker`).
    fn has_work_hint(&self) -> bool;
}

/// Where [`Seat::place`] sends a spawn, for the [`Seat::push`] that
/// follows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Place {
    /// A queue other workers can reach: worker `t`'s (its lattice queue
    /// fed by this worker, or its deque), or the one global queue, which
    /// ignores `t`. A `u32`, like `Task::creator`, so that an
    /// `Option<Place>` is one word.
    Queue(u32),
    /// The spawning worker's private stack of nested work (XQueue).
    Stack,
}

/// One claim flag per worker: the "at most one seat per `w`" rule.
pub(crate) struct Claims(Box<[AtomicBool]>);

impl Claims {
    pub(crate) fn new(n: usize) -> Self {
        Claims((0..n).map(|_| AtomicBool::new(false)).collect())
    }

    /// Claims `w`; panics if it was claimed before. `Relaxed`: the flag
    /// publishes nothing, the swap's atomicity is the whole point.
    pub(crate) fn claim(&self, w: usize) {
        let taken = self.0[w].swap(true, Ordering::Relaxed);
        assert!(!taken, "scheduler seat {w} claimed twice");
    }
}

#[cfg(test)]
pub(crate) use xq::Rows;

/// A whole spawn on `seat`: [`Seat::place`], then [`Seat::push`] when the
/// place had room. Returns whether it had.
#[cfg(test)]
pub(crate) fn place_and_push(
    seat: &dyn Seat,
    hint: Option<usize>,
    nested: bool,
    task: NonNull<Task>,
) -> bool {
    let place = seat.place(hint, nested);
    if let Some(place) = place {
        seat.push(place, task);
    }
    place.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgomp_topology::{Affinity, MachineTopology};

    fn build(kind: SchedulerKind, n: usize) -> Box<dyn Scheduler> {
        let topo = MachineTopology::fit_workers(n);
        let placement = Arc::new(Placement::new(topo, n, Affinity::Close));
        let parker = Arc::new(Parker::new(&vec![0usize; n]));
        kind.build(n, 16, placement, None, parker)
    }

    #[test]
    fn a_seat_is_claimed_once() {
        for kind in [
            SchedulerKind::Gomp,
            SchedulerKind::Lomp,
            SchedulerKind::XQueue,
        ] {
            let sched = build(kind, 2);
            let stats = [WorkerStats::default(), WorkerStats::default()];
            let first = sched.seat(1, &stats[1]);
            let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sched.seat(1, &stats[1]);
            }));
            assert!(
                again.is_err(),
                "{kind:?}: second claim of seat 1 must panic"
            );
            // The other seat is unaffected, and the first still works.
            let other = sched.seat(0, &stats[0]);
            assert_eq!(first.next_task(), None);
            assert_eq!(other.next_task(), None);
        }
    }
}
