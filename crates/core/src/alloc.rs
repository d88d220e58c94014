//! Task-record allocation policies.
//!
//! The paper's Fig. 4 analysis attributes the GOMP↔LOMP performance
//! crossover to *task allocation*: GOMP calls `malloc` for every task,
//! while LOMP uses a "fast multi-level allocator" that (i) serves from a
//! thread-local buffer, (ii) synchronously acquires buffer space from
//! other threads, or (iii) falls back to `malloc` (§VI-A). Both policies
//! are reproduced here and can be combined with any scheduler for
//! ablation studies.
//!
//! libgomp's `GOMP_task` allocates a task and its argument block
//! together, and so does this runtime: a task's body lives inline in its
//! record (see [`crate::task`]), so a spawn makes one allocation under
//! [`AllocKind::Malloc`] and none under [`AllocKind::MultiLevel`] once the
//! free lists are warm. The contrast between the two policies therefore
//! isolates the record allocation, which is what Fig. 4's crossover is
//! about. (A capture too large for the inline storage is boxed, one more
//! allocation under either policy.) Like libgomp's undeferred tasks, a
//! task the overflow rule runs at once is no allocator's business: its
//! record is a local of the spawn that runs it.

use std::cell::{Cell, RefCell};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::task::{Task, TaskPtr};

/// Allocation policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AllocKind {
    /// One heap allocation/deallocation per task (GOMP, XGOMP, XGOMPTB).
    Malloc,
    /// LOMP-style multi-level recycling: worker-local free list → locked
    /// global pool ("another thread's buffer") → heap.
    MultiLevel,
}

/// Cap on a worker-local free list; beyond it, half is spilled to the
/// global pool so idle workers' records remain reusable by busy ones.
const LOCAL_CACHE_MAX: usize = 256;
/// How many records a worker grabs from the global pool at once
/// (LOMP's chunked buffer acquisition).
const GLOBAL_CHUNK: usize = 32;

/// The team-wide part of the task-record allocator: the policy, the
/// global pool, and the ledger totals retired seats fold into.
pub(crate) struct TaskAllocator {
    kind: AllocKind,
    global: Mutex<Vec<TaskPtr>>,
    allocated: AtomicU64,
    freed: AtomicU64,
}

/// One worker's side of the allocator, owned by that worker (a field of
/// its `Worker`): the local free list and the allocation ledger. Plain
/// cells — nothing here is ever seen by another thread, so the per-task
/// path shares no counter between workers.
pub(crate) struct AllocSeat<'a> {
    shared: &'a TaskAllocator,
    /// Stamped into every record as its creator (locality accounting).
    worker: u32,
    local: RefCell<Vec<TaskPtr>>,
    allocated: Cell<u64>,
    freed: Cell<u64>,
}

impl TaskAllocator {
    pub fn new(kind: AllocKind) -> Self {
        TaskAllocator {
            kind,
            global: Mutex::new(Vec::new()),
            allocated: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }

    /// A fresh seat allocating on behalf of worker `w`. Seats hold no
    /// claim on each other: any number may exist, each with its own
    /// free list.
    pub fn seat(&self, w: usize) -> AllocSeat<'_> {
        AllocSeat {
            shared: self,
            worker: w as u32,
            local: RefCell::new(Vec::new()),
            allocated: Cell::new(0),
            freed: Cell::new(0),
        }
    }

    /// Records allocated minus records freed, over every *retired* seat
    /// (a record may be freed on another seat than it was allocated on).
    /// Zero after a quiescent region has been torn down (the leak check).
    pub fn outstanding(&self) -> u64 {
        let allocated = self.allocated.load(Ordering::Relaxed);
        allocated.saturating_sub(self.freed.load(Ordering::Relaxed))
    }
}

impl AllocSeat<'_> {
    /// Allocates and initializes a bodiless task record (the spawn path
    /// writes the body in place with [`Task::set_body`]).
    pub fn alloc(&self, parent: Option<NonNull<Task>>, priority: i32) -> NonNull<Task> {
        self.allocated.set(self.allocated.get() + 1);
        let recycled = match self.shared.kind {
            AllocKind::Malloc => None,
            // Level 1: worker-local free list.
            AllocKind::MultiLevel => {
                let mut local = self.local.borrow_mut();
                local.pop().or_else(|| {
                    // Level 2: locked global pool, grabbed in chunks.
                    let mut pool = self.shared.global.lock();
                    let start = pool.len() - pool.len().min(GLOBAL_CHUNK);
                    local.extend(pool.drain(start..));
                    local.pop()
                })
            }
        };
        match recycled {
            Some(TaskPtr(ptr)) => {
                // SAFETY: records in pools are dead.
                unsafe { Task::reinit(ptr, parent, self.worker, priority) };
                ptr
            }
            // Level 3 (and the malloc policy): the system allocator.
            None => {
                let boxed = Box::new(Task::new(parent, self.worker, priority));
                // Box never returns null.
                NonNull::new(Box::into_raw(boxed)).unwrap()
            }
        }
    }

    /// Returns a dead record (no child outstanding, let go of by its last
    /// party) to the pool.
    ///
    /// # Safety
    ///
    /// `ptr` must be a record from an [`alloc`](Self::alloc) of this
    /// allocator that nothing references any more: retired by its owner
    /// with no child outstanding, or freed by its last child.
    pub unsafe fn free(&self, ptr: NonNull<Task>) {
        self.freed.set(self.freed.get() + 1);
        match self.shared.kind {
            AllocKind::Malloc => {
                // SAFETY: exclusive dead record from Box::into_raw.
                drop(unsafe { Box::from_raw(ptr.as_ptr()) });
            }
            AllocKind::MultiLevel => {
                // Clear the body eagerly so captured environments are
                // released now, not when the record is recycled.
                // SAFETY: dead record ⇒ exclusive access.
                unsafe { Task::reinit(ptr, None, 0, 0) };
                let mut list = self.local.borrow_mut();
                list.push(TaskPtr(ptr));
                if list.len() > LOCAL_CACHE_MAX {
                    let extra = list.split_off(LOCAL_CACHE_MAX / 2);
                    drop(list);
                    self.shared.global.lock().extend(extra);
                }
            }
        }
    }
}

impl Drop for AllocSeat<'_> {
    /// Retirement: folds the ledger into the team totals and hands the
    /// free list to the global pool, which frees it with the allocator.
    fn drop(&mut self) {
        let shared = self.shared;
        shared
            .allocated
            .fetch_add(self.allocated.get(), Ordering::Relaxed);
        shared.freed.fetch_add(self.freed.get(), Ordering::Relaxed);
        let local = std::mem::take(self.local.get_mut());
        if !local.is_empty() {
            shared.global.lock().extend(local);
        }
    }
}

impl Drop for TaskAllocator {
    fn drop(&mut self) {
        // Free pooled (dead) records. `&mut self` gives exclusivity.
        for TaskPtr(ptr) in self.global.get_mut().drain(..) {
            // SAFETY: pooled records are dead and exclusively owned.
            drop(unsafe { Box::from_raw(ptr.as_ptr()) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Retires a childless record the way its owner does: with nothing
    /// outstanding it is dead, and freed.
    fn release_and_free(seat: &AllocSeat<'_>, ptr: NonNull<Task>) {
        unsafe {
            assert_eq!(ptr.as_ref().unfinished_children(), 0);
            seat.free(ptr);
        }
    }

    #[test]
    fn malloc_policy_roundtrip() {
        let a = TaskAllocator::new(AllocKind::Malloc);
        let t = a.seat(0).alloc(None, 0);
        assert_eq!(a.outstanding(), 1, "the retired seat folded its ledger");
        release_and_free(&a.seat(0), t);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn cross_slot_frees_balance_the_ledgers() {
        for kind in [AllocKind::Malloc, AllocKind::MultiLevel] {
            let a = TaskAllocator::new(kind);
            let (s0, s1) = (a.seat(0), a.seat(1));
            let ptrs: Vec<_> = (0..5).map(|_| s0.alloc(None, 0)).collect();
            drop(s0);
            assert_eq!(a.outstanding(), 5, "{kind:?}");
            for p in ptrs {
                release_and_free(&s1, p);
            }
            drop(s1);
            assert_eq!(a.outstanding(), 0, "{kind:?}: freed on another seat");
        }
    }

    #[test]
    fn multilevel_recycles_locally() {
        let a = TaskAllocator::new(AllocKind::MultiLevel);
        let s0 = a.seat(0);
        let t1 = s0.alloc(None, 0);
        let addr1 = t1.as_ptr() as usize;
        release_and_free(&s0, t1);
        let t2 = s0.alloc(None, 7);
        assert_eq!(
            t2.as_ptr() as usize,
            addr1,
            "local free list should recycle the record"
        );
        release_and_free(&s0, t2);
    }

    #[test]
    fn multilevel_peer_acquisition_via_global_pool() {
        let a = TaskAllocator::new(AllocKind::MultiLevel);
        let (s0, s1) = (a.seat(0), a.seat(1));
        // Worker 0 allocates and frees enough to spill to the global pool.
        let mut ptrs = Vec::new();
        for _ in 0..(LOCAL_CACHE_MAX + 50) {
            ptrs.push(s0.alloc(None, 0));
        }
        for p in ptrs {
            release_and_free(&s0, p);
        }
        assert!(
            !a.global.lock().is_empty(),
            "overflow should spill to the global pool"
        );
        // Worker 1 can now acquire recycled records without malloc.
        let before = a.global.lock().len();
        let t = s1.alloc(None, 0);
        let after = a.global.lock().len();
        assert!(after < before, "worker 1 should take a global chunk");
        release_and_free(&s1, t);
    }

    #[test]
    fn bodies_are_dropped_on_free() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        for kind in [AllocKind::Malloc, AllocKind::MultiLevel] {
            let a = TaskAllocator::new(kind);
            let s0 = a.seat(0);
            for oversized in [false, true] {
                DROPS.store(0, Ordering::Relaxed);
                let t = s0.alloc(None, 0);
                let canary = Canary;
                // SAFETY: fresh unpublished record; the body borrows nothing.
                unsafe {
                    if oversized {
                        let pad = [0u64; 4];
                        Task::set_body(t, move |_| {
                            let _keep = (&canary, pad);
                        });
                    } else {
                        Task::set_body(t, move |_| {
                            let _keep = &canary;
                        });
                    }
                }
                assert_eq!(DROPS.load(Ordering::Relaxed), 0);
                release_and_free(&s0, t);
                assert_eq!(
                    DROPS.load(Ordering::Relaxed),
                    1,
                    "{kind:?}, oversized {oversized}: an unexecuted body is dropped once, on free"
                );
            }
            drop(s0);
            drop(a);
            assert_eq!(
                DROPS.load(Ordering::Relaxed),
                1,
                "{kind:?}: and never again"
            );
        }
    }
}
