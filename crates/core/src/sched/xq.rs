//! The XQueue scheduler (§III-A): static round-robin pushes into the
//! lock-less lattice, master-queue-first pops, execute-immediately on
//! overflow — plus the optional DLB engine (§IV) hooked into its
//! scheduling points.
//!
//! Beside its lattice row, each worker keeps a private LIFO **stack** for
//! its own nested work: an unplaced spawn from an explicit task whose
//! round-robin target is the spawning worker itself. Everything else —
//! cross-worker pushes, placed spawns, the implicit task's spawns — goes
//! through the lattice and keeps arrival order. The stack has exactly one
//! user, the owning worker (thieves never read it: an NA-WS victim
//! migrates from it on its own thread), so it is a plain `RefCell` with no
//! atomics. Its order, written once in [`Row`]:
//!
//! * **push** — onto the top, up to `S_queue` tasks; a full stack hands
//!   the task back for immediate execution, like a full queue;
//! * **pop** — the stack top first, then the lattice row (master queue,
//!   then auxiliaries in rotation), so a `taskwait` helps with its own
//!   newest child before anything older and nesting depth follows
//!   recursion depth instead of queue backlog;
//! * **migrate** — oldest first: the stack bottom, then the row.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ptr::NonNull;
use std::sync::Arc;

use parking_lot::Mutex;
use xgomp_profiling::WorkerStats;
use xgomp_topology::Placement;
use xgomp_xqueue::{bump, Parker, PushCursor, XQueueLattice};

use super::{Claims, Scheduler, Seat};
use crate::dlb::{DlbConfig, DlbEngine, DlbSeat};
use crate::task::{Task, TaskPtr};

/// XQueue lattice scheduler with optional NA-RP/NA-WS load balancing.
pub struct XQueueScheduler {
    rows: Rows,
    dlb: Option<DlbEngine>,
    /// Team idle parker: every successful push wakes its target row's
    /// owner if that worker is parked (free while nobody is).
    parker: Arc<Parker>,
    n: usize,
}

/// The lattice behind its claim flags: the only way to a producer or
/// consumer role is a [`Row`], and row `w` is handed out once.
pub(crate) struct Rows {
    lattice: XQueueLattice<Task>,
    claims: Claims,
    /// Stack tasks of rows that dropped non-empty, kept for
    /// [`drain_all`](Self::drain_all) (teardown only: a quiesced region
    /// leaves every stack empty).
    leftover: Mutex<Vec<TaskPtr>>,
}

/// Producer role `w` *and* consumer role `w` of the lattice, plus worker
/// `w`'s private stack of nested work, as a value. Not `Clone`, and
/// `!Sync` (the stack's `RefCell`): whoever holds it is the one caller
/// those roles have, which is all the lattice's `unsafe` API asks, and the
/// one user of the stack, which therefore needs no atomics.
///
/// Order: [`pop`](Self::pop) takes the stack top, then the row (master
/// queue first); [`pop_oldest`](Self::pop_oldest), the NA-WS migration
/// source, takes the stack bottom, then the row. A row dropped with
/// stacked tasks hands them to [`Rows`], so none leaks silently.
pub(crate) struct Row<'l> {
    rows: &'l Rows,
    w: usize,
    /// Holds at most `cap` (`S_queue`) tasks, newest at the back.
    stack: RefCell<VecDeque<NonNull<Task>>>,
    cap: usize,
}

impl Rows {
    pub(crate) fn new(n: usize, queue_capacity: usize) -> Self {
        Rows {
            lattice: XQueueLattice::new(n, queue_capacity),
            claims: Claims::new(n),
            leftover: Mutex::new(Vec::new()),
        }
    }

    /// Claims row and column `w`; panics on a second claim.
    pub(crate) fn claim(&self, w: usize) -> Row<'_> {
        self.claims.claim(w);
        let cap = self.lattice.queue_capacity();
        Row {
            rows: self,
            w,
            stack: RefCell::new(VecDeque::with_capacity(cap)),
            cap,
        }
    }

    /// Empties every queue, and every stack a dropped row handed back,
    /// into `f`.
    pub(crate) fn drain_all(&mut self, f: &mut dyn FnMut(NonNull<Task>)) {
        for c in 0..self.lattice.n_workers() {
            // SAFETY: `&mut self` — no `Row` (each borrows `self`) is
            // alive, so every role is free and ours for this call.
            unsafe { self.lattice.drain_with(c, &mut *f) };
        }
        for TaskPtr(task) in self.leftover.get_mut().drain(..) {
            f(task);
        }
    }
}

impl Row<'_> {
    /// Pushes into `target`'s queue; `Err` hands the task back (full).
    #[inline]
    pub(crate) fn push(&self, target: usize, task: NonNull<Task>) -> Result<(), NonNull<Task>> {
        // SAFETY: this row was claimed once for `w` and cannot be shared
        // or duplicated, so producer role `w` has this one caller.
        unsafe { self.rows.lattice.push(self.w, target, task) }
    }

    /// Pushes onto this worker's own stack; `Err` hands the task back
    /// (full at `S_queue`, the overflow rule of a lattice queue).
    #[inline]
    pub(crate) fn push_nested(&self, task: NonNull<Task>) -> Result<(), NonNull<Task>> {
        let mut stack = self.stack.borrow_mut();
        if stack.len() == self.cap {
            return Err(task);
        }
        stack.push_back(task);
        Ok(())
    }

    /// Pops this worker's next task: the stack top, then the row.
    #[inline]
    pub(crate) fn pop(&self) -> Option<NonNull<Task>> {
        let top = self.stack.borrow_mut().pop_back();
        top.or_else(|| self.pop_row())
    }

    /// Pops the oldest work this worker holds, for a thief: the stack
    /// bottom, then the row.
    pub(crate) fn pop_oldest(&self) -> Option<NonNull<Task>> {
        let bottom = self.stack.borrow_mut().pop_front();
        bottom.or_else(|| self.pop_row())
    }

    /// The row alone: master queue first, then auxiliaries in rotation.
    #[inline]
    fn pop_row(&self) -> Option<NonNull<Task>> {
        // SAFETY: as in `push`, for consumer role `w`.
        unsafe { self.rows.lattice.pop(self.w) }
    }

    /// Exact for the (`target` ← `w`) queue: `w` is its only producer.
    #[inline]
    pub(crate) fn is_full_hint(&self, target: usize) -> bool {
        // SAFETY: as in `push`.
        unsafe { self.rows.lattice.is_full_hint(self.w, target) }
    }

    /// Racy for the row, exact for the stack (only this worker pushes
    /// there).
    #[inline]
    pub(crate) fn is_empty_hint(&self) -> bool {
        // SAFETY: as in `pop_row`.
        self.stack.borrow().is_empty() && unsafe { self.rows.lattice.is_empty_hint(self.w) }
    }
}

impl Drop for Row<'_> {
    fn drop(&mut self) {
        let stack = self.stack.get_mut();
        if !stack.is_empty() {
            self.rows
                .leftover
                .lock()
                .extend(stack.drain(..).map(TaskPtr));
        }
    }
}

/// Worker `w`'s seat: its lattice row and stack, its round-robin cursor
/// and — with DLB on — its thief/victim state, all by value, plus its
/// worker's statistics block.
struct XqSeat<'s> {
    sched: &'s XQueueScheduler,
    row: Row<'s>,
    cursor: RefCell<PushCursor>,
    dlb: Option<DlbSeat<'s>>,
    stats: &'s WorkerStats,
}

impl XQueueScheduler {
    pub(crate) fn new(
        n: usize,
        queue_capacity: usize,
        placement: Arc<Placement>,
        dlb: Option<DlbConfig>,
        parker: Arc<Parker>,
    ) -> Self {
        XQueueScheduler {
            rows: Rows::new(n, queue_capacity),
            dlb: dlb.map(|cfg| DlbEngine::new(n, cfg, placement, parker.clone())),
            parker,
            n,
        }
    }
}

impl Scheduler for XQueueScheduler {
    fn seat<'s>(&'s self, w: usize, stats: &'s WorkerStats) -> Box<dyn Seat + 's> {
        Box::new(XqSeat {
            sched: self,
            row: self.rows.claim(w),
            cursor: RefCell::new(PushCursor::new(self.n, w)),
            dlb: self.dlb.as_ref().map(|d| d.seat(w, stats)),
            stats,
        })
    }

    fn drain_all(&mut self, f: &mut dyn FnMut(NonNull<Task>)) {
        self.rows.drain_all(f);
    }

    fn name(&self) -> &'static str {
        match self.dlb.as_ref().map(|d| d.config().strategy) {
            None => "xqueue(static)",
            Some(crate::dlb::DlbStrategy::RedirectPush) => "xqueue(NA-RP)",
            Some(crate::dlb::DlbStrategy::WorkSteal) => "xqueue(NA-WS)",
        }
    }
}

impl XqSeat<'_> {
    /// Push → wake: the one publication every spawn goes through.
    /// `Err` hands the task back (target queue full).
    fn publish(&self, target: usize, task: NonNull<Task>) -> Result<(), NonNull<Task>> {
        self.row.push(target, task)?;
        if target != self.row.w {
            self.sched.parker.notify_push(target);
        }
        Ok(())
    }
}

impl Seat for XqSeat<'_> {
    fn spawn(
        &self,
        hint: Option<usize>,
        nested: bool,
        task: NonNull<Task>,
    ) -> Result<(), NonNull<Task>> {
        // The consumer is chosen once. An explicit placement (loop-drain
        // tasks, self-placed server jobs) bypasses both the NA-RP
        // redirect and the round-robin cursor — the caller chose.
        let target = match hint {
            Some(target) => target % self.sched.n,
            None => {
                // NA-RP override: while a redirect is armed, new tasks
                // flow to the thief instead of the round-robin target
                // (Alg. 3); the engine books them as stolen, not static.
                let dlb = self.dlb.as_ref();
                if let Some(thief) = dlb.and_then(|d| d.redirect_target(&self.row)) {
                    // `redirect_target` only returns a thief whose queue
                    // had room (exact producer-side hint), and only this
                    // worker produces into it.
                    self.publish(thief, task)
                        .expect("redirect push after negative fullness hint");
                    return Ok(());
                }
                // Static round-robin across consumers, master queue first.
                self.cursor.borrow_mut().next()
            }
        };
        // Full: hand back for immediate execution (§II-B). An unplaced
        // child of an explicit task that stays here is this worker's own
        // nested work: onto its stack, newest first, with no wake — the
        // worker pushing it is awake.
        if nested && hint.is_none() && target == self.row.w {
            self.row.push_nested(task)?;
        } else {
            self.publish(target, task)?;
        }
        bump(&self.stats.ntasks_static_push, 1);
        Ok(())
    }

    fn next_task(&self) -> Option<NonNull<Task>> {
        let task = self.row.pop()?;
        // Found work: reset the thief timeout, then act as a victim.
        if let Some(dlb) = &self.dlb {
            dlb.on_active();
            dlb.on_found_task(&self.row);
        }
        Some(task)
    }

    fn on_idle(&self) {
        if let Some(dlb) = &self.dlb {
            dlb.on_idle();
        }
    }

    fn has_work_hint(&self) -> bool {
        !self.row.is_empty_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlb::DlbStrategy;
    use xgomp_topology::{Affinity, MachineTopology};

    fn mk(creator: u32) -> NonNull<Task> {
        NonNull::new(Box::into_raw(Box::new(Task::new(None, creator, 0)))).unwrap()
    }

    unsafe fn free(p: NonNull<Task>) {
        drop(unsafe { Box::from_raw(p.as_ptr()) });
    }

    fn build(n: usize, cap: usize, dlb: Option<DlbConfig>) -> XQueueScheduler {
        let placement = Arc::new(Placement::new(
            MachineTopology::fit_workers(n),
            n,
            Affinity::Close,
        ));
        let parker = Arc::new(Parker::new(
            &(0..n).map(|w| placement.zone_of(w)).collect::<Vec<_>>(),
        ));
        XQueueScheduler::new(n, cap, placement, dlb, parker)
    }

    fn stats(n: usize) -> Vec<WorkerStats> {
        (0..n).map(|_| WorkerStats::default()).collect()
    }

    #[test]
    fn round_robin_spreads_tasks() {
        let s = build(3, 16, None);
        let st = stats(3);
        let seats: Vec<_> = (0..3).map(|w| s.seat(w, &st[w])).collect();
        let ptrs: Vec<_> = (0..3).map(|_| mk(0)).collect();
        for &p in &ptrs {
            seats[0].spawn(None, false, p).unwrap();
        }
        // First push went to worker 0's master queue; the other two to
        // workers 1 and 2.
        for seat in &seats {
            assert!(seat.next_task().is_some());
        }
        for p in ptrs {
            unsafe { free(p) };
        }
    }

    #[test]
    fn overflow_hands_back_for_immediate_execution() {
        let mut s = build(1, 2, None);
        let st = stats(1);
        let s0 = s.seat(0, &st[0]);
        let a = mk(0);
        let b = mk(0);
        let c = mk(0);
        assert!(s0.spawn(None, false, a).is_ok());
        assert!(s0.spawn(None, false, b).is_ok());
        match s0.spawn(None, false, c) {
            Err(p) => assert_eq!(p, c),
            Ok(()) => panic!("capacity-2 queue accepted a third task"),
        }
        drop(s0);
        let snap = st[0].snapshot();
        assert_eq!(snap.ntasks_static_push, 2);
        let mut n = 0;
        s.drain_all(&mut |p| {
            n += 1;
            unsafe { free(p) };
        });
        assert_eq!(n, 2);
        unsafe { free(c) };
    }

    #[test]
    fn leftover_stack_tasks_reach_drain_all() {
        let mut s = build(1, 2, None);
        let st = stats(1);
        let s0 = s.seat(0, &st[0]);
        let (a, b, c) = (mk(0), mk(0), mk(0));
        // Nested self-spawns go on the stack, which holds `S_queue` tasks
        // and hands the next one back, exactly like a full queue.
        s0.spawn(None, true, a).unwrap();
        s0.spawn(None, true, b).unwrap();
        assert_eq!(s0.spawn(None, true, c), Err(c));
        assert!(s0.has_work_hint());
        // The seat retires with both still stacked: teardown sees them.
        drop(s0);
        assert_eq!(st[0].snapshot().ntasks_static_push, 2);
        let mut drained = Vec::new();
        s.drain_all(&mut |p| drained.push(p));
        assert_eq!(drained, [a, b]);
        for p in [a, b, c] {
            unsafe { free(p) };
        }
    }

    #[test]
    fn dlb_hooks_are_wired() {
        let cfg = DlbConfig::new(DlbStrategy::WorkSteal)
            .n_victim(4)
            .t_interval(2);
        let s = build(4, 16, Some(cfg));
        assert_eq!(s.name(), "xqueue(NA-WS)");
        // Idle hook sends requests.
        let st = stats(4);
        s.seat(1, &st[1]).on_idle();
        assert!(st[1].snapshot().nreq_sent >= 1);
    }

    /// Arms victim 0's NA-RP redirect towards thief 1: the request is
    /// served by the found-task hook inside `next_task`, so worker 0
    /// needs a queued task to find (self-placed: the cursor stays put).
    fn arm_redirect(s: &XQueueScheduler, s0: &dyn Seat) {
        assert!(s.dlb.as_ref().unwrap().cell(0).try_send_request(1));
        let q = mk(0);
        s0.spawn(Some(0), false, q).unwrap();
        assert_eq!(s0.next_task(), Some(q));
        unsafe { free(q) };
    }

    #[test]
    fn redirect_push_reroutes_spawns() {
        let cfg = DlbConfig::new(DlbStrategy::RedirectPush)
            .n_steal(2)
            .p_local(1.0);
        let s = build(2, 16, Some(cfg));
        let st = stats(2);
        let (s0, s1) = (s.seat(0, &st[0]), s.seat(1, &st[1]));
        arm_redirect(&s, &*s0);
        // The next two spawns from 0 land in 1's queue.
        let a = mk(0);
        let b = mk(0);
        s0.spawn(None, false, a).unwrap();
        s0.spawn(None, false, b).unwrap();
        assert_eq!(s1.next_task(), Some(a));
        assert_eq!(s1.next_task(), Some(b));
        assert_eq!(st[0].snapshot().ntasks_stolen, 2);
        unsafe {
            free(a);
            free(b);
        }
    }

    #[test]
    fn hinted_spawn_bypasses_an_armed_redirect_and_the_cursor() {
        let cfg = DlbConfig::new(DlbStrategy::RedirectPush)
            .n_steal(2)
            .p_local(1.0);
        let s = build(3, 16, Some(cfg));
        let st = stats(3);
        let (s0, s1, s2) = (s.seat(0, &st[0]), s.seat(1, &st[1]), s.seat(2, &st[2]));
        arm_redirect(&s, &*s0);
        // Placed: lands in worker 2's row, not the thief's.
        let placed = mk(0);
        s0.spawn(Some(2), false, placed).unwrap();
        assert_eq!(s2.next_task(), Some(placed));
        assert_eq!(s1.next_task(), None);
        assert_eq!(st[0].snapshot().ntasks_stolen, 0);
        // The quota is intact: exactly two unhinted spawns still reach
        // the thief, and only those two are booked as stolen.
        let (a, b, c) = (mk(0), mk(0), mk(0));
        for p in [a, b, c] {
            s0.spawn(None, false, p).unwrap();
        }
        assert_eq!(s1.next_task(), Some(a));
        assert_eq!(s1.next_task(), Some(b));
        assert_eq!(s1.next_task(), None);
        // So is the cursor: the first round-robin push is still the one a
        // fresh worker 0 makes — its own master queue.
        assert_eq!(s0.next_task(), Some(c));
        let snap = st[0].snapshot();
        assert_eq!(snap.ntasks_stolen, 2);
        assert_eq!(snap.ntasks_static_push, 3, "two placed + one round-robin");
        for p in [placed, a, b, c] {
            unsafe { free(p) };
        }
    }
}
