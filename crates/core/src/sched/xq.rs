//! The XQueue scheduler (§III-A): static round-robin pushes into the
//! lock-less lattice, master-queue-first pops, execute-immediately on
//! overflow — plus the optional DLB engine (§IV) hooked into its
//! scheduling points.

use std::ptr::NonNull;
use std::sync::Arc;

use xgomp_profiling::WorkerStats;
use xgomp_topology::Placement;
use xgomp_xqueue::{Parker, PushCursor, XQueueLattice};

use super::Scheduler;
use crate::dlb::{DlbEngine, DlbTuning};
use crate::loops::LoopBalancer;
use crate::task::Task;
use crate::util::PerWorker;

/// XQueue lattice scheduler with optional NA-RP/NA-WS load balancing.
pub struct XQueueScheduler {
    lattice: XQueueLattice<Task>,
    cursors: PerWorker<PushCursor>,
    stats: Arc<Vec<WorkerStats>>,
    dlb: Option<DlbEngine>,
    /// Team idle parker: every successful push wakes its target row's
    /// owner if that worker is parked (free while nobody is).
    parker: Arc<Parker>,
    n: usize,
}

impl XQueueScheduler {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        n: usize,
        queue_capacity: usize,
        stats: Arc<Vec<WorkerStats>>,
        placement: Arc<Placement>,
        tuning: Option<Arc<DlbTuning>>,
        parker: Arc<Parker>,
        balancer: Arc<LoopBalancer>,
    ) -> Self {
        XQueueScheduler {
            lattice: XQueueLattice::new(n, queue_capacity),
            cursors: PerWorker::new(n, |w| PushCursor::new(n, w)),
            dlb: tuning
                .map(|t| DlbEngine::new(n, t, placement, stats.clone(), parker.clone(), balancer)),
            stats,
            parker,
            n,
        }
    }

    /// Push → wake: the one publication every spawn goes through.
    /// `Err` hands the task back (target queue full).
    fn publish(&self, w: usize, target: usize, task: NonNull<Task>) -> Result<(), NonNull<Task>> {
        // SAFETY: w owns producer role w.
        unsafe { self.lattice.push(w, target, task) }?;
        if target != w {
            self.parker.notify_push(target);
        }
        Ok(())
    }
}

impl Scheduler for XQueueScheduler {
    fn spawn(
        &self,
        w: usize,
        hint: Option<usize>,
        task: NonNull<Task>,
    ) -> Result<(), NonNull<Task>> {
        // The consumer is chosen once. An explicit placement (loop-drain
        // tasks, self-placed server jobs) bypasses both the NA-RP
        // redirect and the round-robin cursor — the caller chose.
        let target = match hint {
            Some(target) => target % self.n,
            None => {
                // NA-RP override: while a redirect is armed, new tasks
                // flow to the thief instead of the round-robin target
                // (Alg. 3); the engine books them as stolen, not static.
                // SAFETY: worker-ownership contract from the team loop.
                let dlb = self.dlb.as_ref();
                let armed = dlb.and_then(|d| unsafe { d.redirect_target(w, &self.lattice) });
                if let Some(thief) = armed {
                    // `redirect_target` only returns a thief whose queue
                    // had room (exact producer-side hint), and only this
                    // worker produces into it.
                    self.publish(w, thief, task)
                        .expect("redirect push after negative fullness hint");
                    return Ok(());
                }
                // Static round-robin across consumers, master queue first.
                // SAFETY: leaf access to the worker-owned cursor.
                unsafe { self.cursors.with(w, |c| c.next()) }
            }
        };
        // Full: hand back for immediate execution (§II-B).
        self.publish(w, target, task)?;
        WorkerStats::inc(&self.stats[w].ntasks_static_push);
        Ok(())
    }

    fn next_task(&self, w: usize) -> Option<NonNull<Task>> {
        // SAFETY: w owns consumer role w.
        let task = unsafe { self.lattice.pop(w) }?;
        // Found work: reset the thief timeout, then act as a victim.
        if let Some(dlb) = &self.dlb {
            // SAFETY: worker-ownership contract from the team loop.
            unsafe {
                dlb.on_active(w);
                dlb.on_found_task(w, &self.lattice);
            }
        }
        Some(task)
    }

    fn on_idle(&self, w: usize) {
        if let Some(dlb) = &self.dlb {
            // SAFETY: worker-ownership contract from the team loop.
            unsafe { dlb.on_idle(w) };
        }
    }

    fn has_work_hint(&self, w: usize) -> bool {
        // SAFETY: worker-ownership contract from the team loop — the
        // calling thread owns consumer role `w`.
        !unsafe { self.lattice.is_empty_hint(w) }
    }

    fn drain_all(&self, f: &mut dyn FnMut(NonNull<Task>)) {
        // Single-threaded teardown: all roles are free to claim.
        for c in 0..self.n {
            // SAFETY: no other thread is alive; roles trivially unique.
            unsafe { self.lattice.drain_with(c, &mut *f) };
        }
    }

    fn name(&self) -> &'static str {
        match self.dlb.as_ref().map(|d| d.config().strategy) {
            None => "xqueue(static)",
            Some(crate::dlb::DlbStrategy::RedirectPush) => "xqueue(NA-RP)",
            Some(crate::dlb::DlbStrategy::WorkSteal) => "xqueue(NA-WS)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlb::{DlbConfig, DlbStrategy};
    use xgomp_topology::{Affinity, MachineTopology};

    fn mk(creator: u32) -> NonNull<Task> {
        NonNull::new(Box::into_raw(Box::new(Task::new(None, None, creator, 0)))).unwrap()
    }

    unsafe fn free(p: NonNull<Task>) {
        drop(unsafe { Box::from_raw(p.as_ptr()) });
    }

    fn build(n: usize, cap: usize, dlb: Option<DlbConfig>) -> XQueueScheduler {
        let stats = Arc::new((0..n).map(|_| WorkerStats::default()).collect::<Vec<_>>());
        let placement = Arc::new(Placement::new(
            MachineTopology::fit_workers(n),
            n,
            Affinity::Close,
        ));
        let tuning = dlb.map(|cfg| Arc::new(DlbTuning::new(cfg)));
        let parker = Arc::new(Parker::new(
            &(0..n).map(|w| placement.zone_of(w)).collect::<Vec<_>>(),
        ));
        let balancer = Arc::new(LoopBalancer::new());
        XQueueScheduler::new(n, cap, stats, placement, tuning, parker, balancer)
    }

    #[test]
    fn round_robin_spreads_tasks() {
        let s = build(3, 16, None);
        let ptrs: Vec<_> = (0..3).map(|_| mk(0)).collect();
        for &p in &ptrs {
            s.spawn(0, None, p).unwrap();
        }
        // First push went to worker 0's master queue; the other two to
        // workers 1 and 2.
        assert!(s.next_task(0).is_some());
        assert!(s.next_task(1).is_some());
        assert!(s.next_task(2).is_some());
        for p in ptrs {
            unsafe { free(p) };
        }
    }

    #[test]
    fn overflow_hands_back_for_immediate_execution() {
        let s = build(1, 2, None);
        let a = mk(0);
        let b = mk(0);
        let c = mk(0);
        assert!(s.spawn(0, None, a).is_ok());
        assert!(s.spawn(0, None, b).is_ok());
        match s.spawn(0, None, c) {
            Err(p) => assert_eq!(p, c),
            Ok(()) => panic!("capacity-2 queue accepted a third task"),
        }
        let snap = s.stats[0].snapshot();
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
    fn dlb_hooks_are_wired() {
        let cfg = DlbConfig::new(DlbStrategy::WorkSteal)
            .n_victim(4)
            .t_interval(2);
        let s = build(4, 16, Some(cfg));
        assert_eq!(s.name(), "xqueue(NA-WS)");
        // Idle hook sends requests.
        s.on_idle(1);
        assert!(s.stats[1].snapshot().nreq_sent >= 1);
    }

    /// Arms victim 0's NA-RP redirect towards thief 1: the request is
    /// served by the found-task hook inside `next_task`, so worker 0
    /// needs a queued task to find (self-placed: the cursor stays put).
    fn arm_redirect(s: &XQueueScheduler) {
        assert!(s.dlb.as_ref().unwrap().cell(0).try_send_request(1));
        let q = mk(0);
        s.spawn(0, Some(0), q).unwrap();
        assert_eq!(s.next_task(0), Some(q));
        unsafe { free(q) };
    }

    #[test]
    fn redirect_push_reroutes_spawns() {
        let cfg = DlbConfig::new(DlbStrategy::RedirectPush)
            .n_steal(2)
            .p_local(1.0);
        let s = build(2, 16, Some(cfg));
        arm_redirect(&s);
        // The next two spawns from 0 land in 1's queue.
        let a = mk(0);
        let b = mk(0);
        s.spawn(0, None, a).unwrap();
        s.spawn(0, None, b).unwrap();
        assert_eq!(s.next_task(1), Some(a));
        assert_eq!(s.next_task(1), Some(b));
        assert_eq!(s.stats[0].snapshot().ntasks_stolen, 2);
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
        arm_redirect(&s);
        // Placed: lands in worker 2's row, not the thief's.
        let placed = mk(0);
        s.spawn(0, Some(2), placed).unwrap();
        assert_eq!(s.next_task(2), Some(placed));
        assert_eq!(s.next_task(1), None);
        assert_eq!(s.stats[0].snapshot().ntasks_stolen, 0);
        // The quota is intact: exactly two unhinted spawns still reach
        // the thief, and only those two are booked as stolen.
        let (a, b, c) = (mk(0), mk(0), mk(0));
        for p in [a, b, c] {
            s.spawn(0, None, p).unwrap();
        }
        assert_eq!(s.next_task(1), Some(a));
        assert_eq!(s.next_task(1), Some(b));
        assert_eq!(s.next_task(1), None);
        // So is the cursor: the first round-robin push is still the one a
        // fresh worker 0 makes — its own master queue.
        assert_eq!(s.next_task(0), Some(c));
        let snap = s.stats[0].snapshot();
        assert_eq!(snap.ntasks_stolen, 2);
        assert_eq!(snap.ntasks_static_push, 3, "two placed + one round-robin");
        for p in [placed, a, b, c] {
            unsafe { free(p) };
        }
    }
}
