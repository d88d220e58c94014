//! The GOMP scheduler model: one globally shared priority task queue
//! behind one global lock (§II-A).
//!
//! GNU OpenMP protects task management — enqueue, dequeue, scheduling,
//! bookkeeping — with a single task lock; every scheduling point from
//! every worker serializes on it. This model reproduces that contention
//! structure: `spawn` and `next_task` each take the global mutex, and
//! dequeue order follows GNU's priority queue (highest priority first,
//! FIFO within a priority level).

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::ptr::NonNull;
use std::sync::Arc;

use parking_lot::Mutex;
use xgomp_profiling::WorkerStats;
use xgomp_xqueue::{bump, Parker};

use super::{Claims, Place, Scheduler, Seat};
use crate::task::{Task, TaskPtr};

struct Entry {
    priority: i32,
    /// Monotonic sequence breaking priority ties FIFO.
    seq: u64,
    ptr: TaskPtr,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Max-heap: higher priority first; then *older* seq first.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct GlobalQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
}

/// Global locked priority queue (the GOMP baseline).
pub struct GompScheduler {
    queue: Mutex<GlobalQueue>,
    parker: Arc<Parker>,
    claims: Claims,
}

/// A worker's seat on the global queue: it owns nothing (that is the
/// model — every byte of scheduler state is behind the one lock), only
/// remembers its worker's statistics block and wake zone.
struct GompSeat<'s> {
    sched: &'s GompScheduler,
    w: usize,
    stats: &'s WorkerStats,
}

impl GompScheduler {
    pub(crate) fn new(n: usize, parker: Arc<Parker>) -> Self {
        GompScheduler {
            queue: Mutex::new(GlobalQueue::default()),
            claims: Claims::new(n),
            parker,
        }
    }
}

impl Scheduler for GompScheduler {
    fn seat<'s>(&'s self, w: usize, stats: &'s WorkerStats) -> Box<dyn Seat + 's> {
        self.claims.claim(w);
        Box::new(GompSeat {
            sched: self,
            w,
            stats,
        })
    }

    fn drain_all(&mut self, f: &mut dyn FnMut(NonNull<Task>)) {
        let mut q = self.queue.lock();
        while let Some(e) = q.heap.pop() {
            f(e.ptr.0);
        }
    }

    fn name(&self) -> &'static str {
        "gomp(global-lock)"
    }
}

impl Seat for GompSeat<'_> {
    fn place(&self, _hint: Option<usize>, _nested: bool) -> Option<Place> {
        bump(&self.stats.ntasks_static_push, 1);
        Some(Place::Queue(self.w as u32))
    }

    fn push(&self, _place: Place, task: NonNull<Task>) {
        let (s, w) = (self.sched, self.w);
        // SAFETY: the task record is live; reading its priority is benign.
        let priority = unsafe { task.as_ref() }.priority();
        let mut q = s.queue.lock();
        let seq = q.next_seq;
        q.next_seq += 1;
        q.heap.push(Entry {
            priority,
            seq,
            ptr: TaskPtr(task),
        });
        drop(q);
        // Any worker can pop the global queue: wake one parked worker,
        // zone-local to the spawner first.
        s.parker.notify_any(s.parker.zone_of(w));
    }

    fn next_task(&self) -> Option<NonNull<Task>> {
        // The global-lock acquisition at every scheduling point is the
        // modeled phenomenon — even when the queue turns out to be empty.
        self.sched.queue.lock().heap.pop().map(|e| e.ptr.0)
    }

    fn has_work_hint(&self) -> bool {
        !self.sched.queue.lock().heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::place_and_push;

    fn mk(priority: i32) -> NonNull<Task> {
        NonNull::new(Box::into_raw(Box::new(Task::new(None, 0, priority)))).unwrap()
    }

    unsafe fn free(p: NonNull<Task>) {
        drop(unsafe { Box::from_raw(p.as_ptr()) });
    }

    fn parker(n: usize) -> Arc<Parker> {
        Arc::new(Parker::new(&vec![0usize; n]))
    }

    #[test]
    fn priority_then_fifo_order() {
        let sched = GompScheduler::new(1, parker(1));
        let stats = WorkerStats::default();
        let s = sched.seat(0, &stats);
        let a = mk(0);
        let b = mk(5);
        let c = mk(0);
        assert!(place_and_push(&*s, None, false, a));
        assert!(place_and_push(&*s, None, false, b));
        assert!(place_and_push(&*s, None, false, c));
        // Highest priority first.
        assert_eq!(s.next_task(), Some(b));
        // FIFO within equal priority.
        assert_eq!(s.next_task(), Some(a));
        assert_eq!(s.next_task(), Some(c));
        assert_eq!(s.next_task(), None);
        unsafe {
            free(a);
            free(b);
            free(c);
        }
    }

    #[test]
    fn drain_returns_everything() {
        let mut sched = GompScheduler::new(1, parker(1));
        let stats = WorkerStats::default();
        let s = sched.seat(0, &stats);
        let ptrs: Vec<_> = (0..10).map(|_| mk(0)).collect();
        for &p in &ptrs {
            assert!(place_and_push(&*s, None, false, p));
        }
        drop(s);
        let mut n = 0;
        sched.drain_all(&mut |p| {
            n += 1;
            unsafe { free(p) };
        });
        assert_eq!(n, 10);
    }

    #[test]
    fn cross_thread_conservation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = Arc::new(GompScheduler::new(4, parker(4)));
        let popped = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for w in 0..4usize {
            let s = s.clone();
            let popped = popped.clone();
            handles.push(std::thread::spawn(move || {
                let stats = WorkerStats::default();
                let seat = s.seat(w, &stats);
                for _ in 0..5_000 {
                    let t = mk(0);
                    assert!(place_and_push(&*seat, None, false, t));
                    if let Some(p) = seat.next_task() {
                        popped.fetch_add(1, Ordering::Relaxed);
                        unsafe { free(p) };
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
