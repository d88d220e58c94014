//! The LOMP scheduler model: LLVM OpenMP-style per-worker lock-free
//! deques with random work stealing.
//!
//! LLVM's tasking runtime gives each thread its own deque; owners push
//! and pop LIFO (depth-first, cache-friendly) while thieves steal FIFO
//! from the other end using CAS — *lock-free*, not lock-less, which is
//! the contrast the paper draws against XQueue. Built on
//! `crossbeam-deque` (the canonical Chase–Lev implementation in Rust).

use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::Arc;

use crossbeam_deque::{Steal, Stealer, Worker as Deque};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xgomp_profiling::WorkerStats;
use xgomp_xqueue::{bump, Parker};

use super::{Place, Scheduler, Seat};
use crate::task::{Task, TaskPtr};

/// Per-worker lock-free deques with random stealing (the LOMP baseline).
pub struct LompScheduler {
    /// Owner-side deque handles, parked here until their worker claims
    /// its seat — taking one out *is* the claim.
    owners: Mutex<Vec<Option<Deque<TaskPtr>>>>,
    /// Thief-side handles, shareable by anyone.
    stealers: Box<[Stealer<TaskPtr>]>,
    parker: Arc<Parker>,
    n: usize,
}

/// A worker's seat: the owner end of its deque and its victim-picking
/// RNG, both by value, and its worker's statistics block.
struct LompSeat<'s> {
    sched: &'s LompScheduler,
    w: usize,
    deque: Deque<TaskPtr>,
    rng: RefCell<SmallRng>,
    stats: &'s WorkerStats,
}

impl LompScheduler {
    pub(crate) fn new(n: usize, parker: Arc<Parker>) -> Self {
        let owners: Vec<Deque<TaskPtr>> = (0..n).map(|_| Deque::new_lifo()).collect();
        LompScheduler {
            stealers: owners.iter().map(|d| d.stealer()).collect(),
            owners: Mutex::new(owners.into_iter().map(Some).collect()),
            parker,
            n,
        }
    }
}

impl Scheduler for LompScheduler {
    fn seat<'s>(&'s self, w: usize, stats: &'s WorkerStats) -> Box<dyn Seat + 's> {
        let deque = self.owners.lock()[w].take();
        Box::new(LompSeat {
            sched: self,
            w,
            deque: deque.unwrap_or_else(|| panic!("scheduler seat {w} claimed twice")),
            rng: RefCell::new(SmallRng::seed_from_u64(0x103F_5EED ^ ((w as u64) << 13))),
            stats,
        })
    }

    fn drain_all(&mut self, f: &mut dyn FnMut(NonNull<Task>)) {
        // The deques outlive their owner handles; steal them dry.
        for s in self.stealers.iter() {
            loop {
                match s.steal() {
                    Steal::Success(t) => f(t.0),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "lomp(work-steal-deques)"
    }
}

impl Seat for LompSeat<'_> {
    fn place(&self, _hint: Option<usize>, _nested: bool) -> Option<Place> {
        bump(&self.stats.ntasks_static_push, 1);
        Some(Place::Queue(self.w as u32))
    }

    fn push(&self, _place: Place, task: NonNull<Task>) {
        let s = self.sched;
        self.deque.push(TaskPtr(task));
        // Stealing is pull-based: a parked thief would never come for
        // this task, so wake one (zone-local to the spawner first).
        s.parker.notify_any(s.parker.zone_of(self.w));
    }

    fn next_task(&self) -> Option<NonNull<Task>> {
        let (s, w) = (self.sched, self.w);
        // Own deque first (LIFO — depth-first on own work).
        if let Some(t) = self.deque.pop() {
            return Some(t.0);
        }
        if s.n == 1 {
            return None;
        }
        // Steal: a few random victims per scheduling point.
        for _ in 0..s.n.min(4) {
            let mut victim = self.rng.borrow_mut().gen_range(0..s.n - 1);
            if victim >= w {
                victim += 1;
            }
            loop {
                match s.stealers[victim].steal() {
                    Steal::Success(t) => return Some(t.0),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    fn has_work_hint(&self) -> bool {
        // Any deque's backlog is reachable from any worker via stealing.
        self.sched.stealers.iter().any(|s| !s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::place_and_push;

    fn mk() -> NonNull<Task> {
        NonNull::new(Box::into_raw(Box::new(Task::new(None, 0, 0)))).unwrap()
    }

    unsafe fn free(p: NonNull<Task>) {
        drop(unsafe { Box::from_raw(p.as_ptr()) });
    }

    fn parker(n: usize) -> Arc<Parker> {
        Arc::new(Parker::new(&vec![0usize; n]))
    }

    #[test]
    fn lifo_on_own_deque() {
        let sched = LompScheduler::new(2, parker(2));
        let stats = WorkerStats::default();
        let s = sched.seat(0, &stats);
        let a = mk();
        let b = mk();
        assert!(place_and_push(&*s, None, false, a));
        assert!(place_and_push(&*s, None, false, b));
        assert_eq!(s.next_task(), Some(b), "own pops are LIFO");
        assert_eq!(s.next_task(), Some(a));
        unsafe {
            free(a);
            free(b);
        }
    }

    #[test]
    fn idle_worker_steals_from_busy_one() {
        let sched = LompScheduler::new(2, parker(2));
        let stats = [WorkerStats::default(), WorkerStats::default()];
        let a = mk();
        assert!(place_and_push(&*sched.seat(0, &stats[0]), None, false, a));
        let thief = sched.seat(1, &stats[1]);
        assert_eq!(thief.next_task(), Some(a), "worker 1 must steal");
        unsafe { free(a) };
    }

    #[test]
    fn single_worker_never_steals() {
        let sched = LompScheduler::new(1, parker(1));
        let stats = WorkerStats::default();
        let s = sched.seat(0, &stats);
        assert_eq!(s.next_task(), None);
        let a = mk();
        assert!(place_and_push(&*s, None, false, a));
        assert_eq!(s.next_task(), Some(a));
        unsafe { free(a) };
    }

    #[test]
    fn threaded_conservation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = Arc::new(LompScheduler::new(4, parker(4)));
        let popped = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for w in 0..4usize {
            let s = s.clone();
            let popped = popped.clone();
            handles.push(std::thread::spawn(move || {
                let stats = WorkerStats::default();
                let seat = s.seat(w, &stats);
                for i in 0..5_000 {
                    let t = mk();
                    assert!(place_and_push(&*seat, None, false, t));
                    if i % 2 == 0 {
                        if let Some(p) = seat.next_task() {
                            popped.fetch_add(1, Ordering::Relaxed);
                            unsafe { free(p) };
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut s = Arc::into_inner(s).expect("threads joined");
        let mut leftover = 0;
        s.drain_all(&mut |p| {
            leftover += 1;
            unsafe { free(p) };
        });
        assert_eq!(popped.load(Ordering::Relaxed) + leftover, 20_000);
    }
}
