//! The LOMP scheduler model: LLVM OpenMP-style per-worker lock-free
//! deques with random work stealing.
//!
//! LLVM's tasking runtime gives each thread its own deque; owners push
//! and pop LIFO (depth-first, cache-friendly) while thieves steal FIFO
//! from the other end using CAS — *lock-free*, not lock-less, which is
//! the contrast the paper draws against XQueue. Built on
//! `crossbeam-deque` (the canonical Chase–Lev implementation in Rust).

use std::ptr::NonNull;
use std::sync::Arc;

use crossbeam_deque::{Steal, Stealer, Worker as Deque};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xgomp_profiling::WorkerStats;
use xgomp_xqueue::Parker;

use super::{Scheduler, TaskPtr};
use crate::task::Task;
use crate::util::PerWorker;

/// Per-worker lock-free deques with random stealing (the LOMP baseline).
pub struct LompScheduler {
    /// Owner-side deque handles (worker-owned slots).
    deques: PerWorker<Deque<TaskPtr>>,
    /// Thief-side handles, shareable by anyone.
    stealers: Box<[Stealer<TaskPtr>]>,
    rng: PerWorker<SmallRng>,
    stats: Arc<Vec<WorkerStats>>,
    parker: Arc<Parker>,
    n: usize,
}

impl LompScheduler {
    pub(crate) fn new(n: usize, stats: Arc<Vec<WorkerStats>>, parker: Arc<Parker>) -> Self {
        let owners: Vec<Deque<TaskPtr>> = (0..n).map(|_| Deque::new_lifo()).collect();
        let stealers: Box<[Stealer<TaskPtr>]> = owners.iter().map(|d| d.stealer()).collect();
        let mut it = owners.into_iter();
        LompScheduler {
            deques: PerWorker::new(n, |_| it.next().expect("one deque per worker")),
            stealers,
            rng: PerWorker::new(n, |w| {
                SmallRng::seed_from_u64(0x103F_5EED ^ ((w as u64) << 13))
            }),
            stats,
            parker,
            n,
        }
    }
}

impl Scheduler for LompScheduler {
    fn spawn(
        &self,
        w: usize,
        _hint: Option<usize>,
        task: NonNull<Task>,
    ) -> Result<(), NonNull<Task>> {
        // SAFETY: worker-ownership contract (team loop); leaf access.
        unsafe { self.deques.with(w, |d| d.push(TaskPtr(task))) };
        WorkerStats::inc(&self.stats[w].ntasks_static_push);
        // Stealing is pull-based: a parked thief would never come for
        // this task, so wake one (zone-local to the spawner first).
        self.parker.notify_any(self.parker.zone_of(w));
        Ok(())
    }

    fn next_task(&self, w: usize) -> Option<NonNull<Task>> {
        // Own deque first (LIFO — depth-first on own work).
        // SAFETY: worker-ownership contract; leaf access.
        if let Some(t) = unsafe { self.deques.with(w, |d| d.pop()) } {
            return Some(t.0);
        }
        if self.n == 1 {
            return None;
        }
        // Steal: a few random victims per scheduling point.
        for _ in 0..self.n.min(4) {
            // SAFETY: leaf access.
            let victim = unsafe {
                self.rng.with(w, |rng| {
                    let mut v = rng.gen_range(0..self.n - 1);
                    if v >= w {
                        v += 1;
                    }
                    v
                })
            };
            loop {
                match self.stealers[victim].steal() {
                    Steal::Success(t) => return Some(t.0),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    fn has_work_hint(&self, _w: usize) -> bool {
        // Any deque's backlog is reachable from any worker via stealing.
        self.stealers.iter().any(|s| !s.is_empty())
    }

    fn drain_all(&self, f: &mut dyn FnMut(NonNull<Task>)) {
        // Single-threaded teardown: stealing from every deque is safe.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> NonNull<Task> {
        NonNull::new(Box::into_raw(Box::new(Task::new(None, None, 0, 0)))).unwrap()
    }

    unsafe fn free(p: NonNull<Task>) {
        drop(unsafe { Box::from_raw(p.as_ptr()) });
    }

    fn stats(n: usize) -> Arc<Vec<WorkerStats>> {
        Arc::new((0..n).map(|_| WorkerStats::default()).collect())
    }

    fn parker(n: usize) -> Arc<Parker> {
        Arc::new(Parker::new(&vec![0usize; n]))
    }

    #[test]
    fn lifo_on_own_deque() {
        let s = LompScheduler::new(2, stats(2), parker(2));
        let a = mk();
        let b = mk();
        s.spawn(0, None, a).unwrap();
        s.spawn(0, None, b).unwrap();
        assert_eq!(s.next_task(0), Some(b), "own pops are LIFO");
        assert_eq!(s.next_task(0), Some(a));
        unsafe {
            free(a);
            free(b);
        }
    }

    #[test]
    fn idle_worker_steals_from_busy_one() {
        let s = LompScheduler::new(2, stats(2), parker(2));
        let a = mk();
        s.spawn(0, None, a).unwrap();
        assert_eq!(s.next_task(1), Some(a), "worker 1 must steal");
        unsafe { free(a) };
    }

    #[test]
    fn single_worker_never_steals() {
        let s = LompScheduler::new(1, stats(1), parker(1));
        assert_eq!(s.next_task(0), None);
        let a = mk();
        s.spawn(0, None, a).unwrap();
        assert_eq!(s.next_task(0), Some(a));
        unsafe { free(a) };
    }

    #[test]
    fn threaded_conservation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = Arc::new(LompScheduler::new(4, stats(4), parker(4)));
        let popped = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for w in 0..4usize {
            let s = s.clone();
            let popped = popped.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000 {
                    let t = mk();
                    s.spawn(w, None, t).unwrap();
                    if i % 2 == 0 {
                        if let Some(p) = s.next_task(w) {
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
        let mut leftover = 0;
        s.drain_all(&mut |p| {
            leftover += 1;
            unsafe { free(p) };
        });
        assert_eq!(popped.load(Ordering::Relaxed) + leftover, 20_000);
    }
}
