//! Task representation and lifecycle.
//!
//! A [`Task`] is a heap-allocated record carrying a boxed body, a pointer
//! to its parent task, and one intrusive reference count that both keeps
//! the record alive while children may still touch it and *is* the
//! `taskwait` condition (`refs − 1` live children for the executor).
//!
//! ## Reference-counting protocol
//!
//! * A task is born with `refs = 1` (the *handle* reference owned by
//!   whoever will eventually execute it: a queue slot, or the spawning
//!   worker on the immediate-execution path).
//! * Spawning a child *retains* the parent once; the child *releases*
//!   that reference after it completes. A task's live children are
//!   therefore `refs − 1` as seen by its executor (who holds the handle
//!   reference) — the fact is stored once.
//! * When `refs` reaches zero the record is returned to the allocator.
//!
//! The dependency updates are atomic RMW operations — exactly as in the
//! paper's XGOMP, which keeps "atomically update the parent task's
//! dependency" while removing the global task lock (§III-A). The
//! *lock-less* claims apply to the queues, the DLB messaging, and the
//! barrier release path, not to dependency counting.

use std::cell::UnsafeCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use crate::cancel::CancelToken;
use crate::ctx::TaskCtx;

/// A task body: consumed exactly once when the task executes.
pub(crate) type TaskBody = Box<dyn FnOnce(&TaskCtx<'_>) + Send + 'static>;

/// A caught panic payload, carried from a panicking child to its
/// parent's next `taskwait` (panic-isolating teams only).
pub(crate) type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One schedulable task.
///
/// Created by [`crate::ctx::TaskCtx::spawn`] and friends; users never see
/// this type.
pub(crate) struct Task {
    /// The body; `None` for implicit (root) tasks and after execution.
    body: UnsafeCell<Option<TaskBody>>,
    /// Parent task; retained while this task is alive.
    parent: Option<NonNull<Task>>,
    /// Intrusive reference count: the handle reference plus one per live
    /// child (see module docs) — also the taskwait condition.
    refs: AtomicU32,
    /// Worker that created this task (locality accounting).
    creator: u32,
    /// GOMP-style priority (higher runs first in the GOMP scheduler).
    priority: i32,
    /// Claim word for `child_panic` (first panicking child wins).
    child_panic_claimed: AtomicBool,
    /// Payload of the first child that panicked (panic-isolating teams;
    /// written under the claim, read by the executor after quiescence).
    child_panic: UnsafeCell<Option<PanicPayload>>,
    /// Cancellation token, inherited by spawned children. Written by
    /// the executing worker (job wrapper install) and read at spawn
    /// time by the same worker — the single-executor discipline that
    /// guards `body` covers it, and queue handoff publishes it to
    /// whichever worker executes a child.
    cancel: UnsafeCell<Option<CancelToken>>,
}

// SAFETY: bodies are `Send`; all shared mutable state is atomic or
// guarded by the single-executor discipline (`body` is taken exactly once
// by the executing worker).
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    /// Creates a task record. `parent`, when present, must already have
    /// been retained on behalf of this child.
    pub(crate) fn new(
        body: Option<TaskBody>,
        parent: Option<NonNull<Task>>,
        creator: u32,
        priority: i32,
    ) -> Self {
        Task {
            body: UnsafeCell::new(body),
            parent,
            refs: AtomicU32::new(1),
            creator,
            priority,
            child_panic_claimed: AtomicBool::new(false),
            child_panic: UnsafeCell::new(None),
            cancel: UnsafeCell::new(None),
        }
    }

    /// Re-initializes a recycled record in place (multi-level allocator
    /// fast path). The record must be dead (`refs == 0`, body `None`).
    ///
    /// # Safety
    ///
    /// `this` must point to a record previously released to the allocator
    /// by [`release_ref`](Self::release_ref) returning `true`.
    pub(crate) unsafe fn reinit(
        this: NonNull<Task>,
        body: Option<TaskBody>,
        parent: Option<NonNull<Task>>,
        creator: u32,
        priority: i32,
    ) {
        // SAFETY: caller guarantees exclusive access to a dead record.
        let t = unsafe { &mut *this.as_ptr() };
        debug_assert_eq!(*t.refs.get_mut(), 0, "reinit of a live task");
        *t.body.get_mut() = body;
        t.parent = parent;
        *t.refs.get_mut() = 1;
        t.creator = creator;
        t.priority = priority;
        *t.child_panic_claimed.get_mut() = false;
        *t.child_panic.get_mut() = None;
        *t.cancel.get_mut() = None;
    }

    /// Installs (or clears) the cancellation token on this task.
    ///
    /// # Safety
    ///
    /// Only the executing worker may call this (single-executor
    /// discipline), and not while a child spawn could be reading it.
    #[inline]
    pub(crate) unsafe fn set_cancel(this: NonNull<Task>, token: Option<CancelToken>) {
        // SAFETY: single-executor discipline gives exclusive access.
        unsafe { *(*this.as_ptr()).cancel.get() = token };
    }

    /// Borrows the task's cancellation token, if one is installed — the
    /// checkpoints' accessor: no `Arc` traffic on the job-wide token.
    ///
    /// # Safety
    ///
    /// Only the executing worker may call this (single-executor
    /// discipline), and the borrow must end before the next
    /// [`set_cancel`](Self::set_cancel) on this task.
    #[inline]
    pub(crate) unsafe fn cancel_ref<'a>(this: NonNull<Task>) -> Option<&'a CancelToken> {
        // SAFETY: single-executor discipline; nobody writes the slot
        // while the caller's borrow lives.
        unsafe { (*(*this.as_ptr()).cancel.get()).as_ref() }
    }

    /// A clone of the task's cancellation token, if one is installed
    /// (spawn-time inheritance, the public getter).
    ///
    /// # Safety
    ///
    /// Only the executing worker may call this (single-executor
    /// discipline).
    #[inline]
    pub(crate) unsafe fn cancel_token(this: NonNull<Task>) -> Option<CancelToken> {
        // SAFETY: forwarded contract; the borrow ends with the clone.
        unsafe { Self::cancel_ref(this) }.cloned()
    }

    /// The worker that created this task.
    #[inline]
    pub(crate) fn creator(&self) -> usize {
        self.creator as usize
    }

    /// GOMP priority.
    #[inline]
    pub(crate) fn priority(&self) -> i32 {
        self.priority
    }

    /// Parent pointer (root/implicit tasks have none).
    #[inline]
    pub(crate) fn parent(&self) -> Option<NonNull<Task>> {
        self.parent
    }

    /// Number of direct children that have not completed, as seen by
    /// the task's executor — the one caller (`taskwait`), which holds the
    /// handle reference, so every other reference is a live child's.
    /// `Acquire` pairs with the children's `Release` in
    /// [`release_ref`](Self::release_ref): a zero here has observed
    /// everything the children did.
    #[inline]
    pub(crate) fn unfinished_children(&self) -> u32 {
        self.refs.load(Ordering::Acquire) - 1
    }

    /// Takes the body for execution. Returns `None` for implicit tasks.
    ///
    /// # Safety
    ///
    /// Only the executing worker may call this, exactly once per
    /// task activation (single-executor discipline).
    #[inline]
    pub(crate) unsafe fn take_body(this: NonNull<Task>) -> Option<TaskBody> {
        // SAFETY: single-executor discipline gives exclusive body access.
        unsafe { (*this.as_ptr()).body.get().as_mut().unwrap().take() }
    }

    /// Deposits the panic payload of a failed child; the first child to
    /// panic wins, later payloads are dropped. Called by the child's
    /// executor *before* it releases its reference on the parent, so the
    /// parent's quiescence check (`unfinished_children == 0`, acquire)
    /// also orders this write before any `take_child_panic`.
    pub(crate) fn record_child_panic(&self, payload: PanicPayload) {
        if self
            .child_panic_claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: the claim grants exclusive write access; no reader
            // runs until this child has also counted as completed.
            unsafe { *self.child_panic.get() = Some(payload) };
        }
    }

    /// Takes the recorded child panic, if any, re-arming the slot so a
    /// later child panic (after the caller handled this one) is not
    /// silently swallowed. Only the task's executor may call this, and
    /// only while no child is in flight.
    pub(crate) fn take_child_panic(&self) -> Option<PanicPayload> {
        if self.child_panic_claimed.load(Ordering::Acquire) {
            // SAFETY: single-executor discipline + quiescence (no child
            // can be writing concurrently).
            let payload = unsafe { (*self.child_panic.get()).take() };
            self.child_panic_claimed.store(false, Ordering::Release);
            payload
        } else {
            None
        }
    }

    /// Increments the reference count: registers a new child (called by
    /// the spawning worker, which *is* the executor of this task, before
    /// making the child visible).
    #[inline]
    pub(crate) fn retain(&self) {
        let prev = self.refs.fetch_add(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "retain of a dead task");
    }

    /// Decrements the reference count (a child completing, or the
    /// executor giving up the handle); returns `true` when this was the
    /// last reference and the record may be recycled. `Release` so the
    /// parent's `taskwait` acquire-load observes everything the child did.
    #[inline]
    pub(crate) fn release_ref(&self) -> bool {
        let prev = self.refs.fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "release_ref underflow");
        if prev == 1 {
            // Synchronize with all prior releases before the record is
            // reused (standard Arc-style protocol).
            std::sync::atomic::fence(Ordering::Acquire);
            true
        } else {
            false
        }
    }
}

/// A `Send` wrapper for owning task pointers stored in shared containers
/// (scheduler queues, the allocator's global pool).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskPtr(pub NonNull<Task>);
// SAFETY: `Task` is `Send`; the pointer is an owning handle moved between
// threads through the queues and pools.
unsafe impl Send for TaskPtr {}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("creator", &self.creator)
            .field("priority", &self.priority)
            .field("refs", &self.refs.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refcount_protocol() {
        let t = Task::new(None, None, 0, 0);
        t.retain();
        assert!(!t.release_ref());
        assert!(t.release_ref());
    }

    #[test]
    fn child_accounting() {
        let t = Task::new(None, None, 3, 0);
        assert_eq!(t.unfinished_children(), 0);
        t.retain();
        t.retain();
        assert_eq!(t.unfinished_children(), 2);
        assert!(!t.release_ref());
        assert_eq!(t.unfinished_children(), 1);
        assert!(!t.release_ref());
        assert_eq!(t.unfinished_children(), 0);
        assert_eq!(t.creator(), 3);
        assert!(t.release_ref());
    }

    #[test]
    fn reinit_resets_everything() {
        let boxed = Box::new(Task::new(None, None, 1, 5));
        let ptr = NonNull::new(Box::into_raw(boxed)).unwrap();
        // Kill it, then reinit as a different task.
        unsafe {
            assert!((*ptr.as_ptr()).release_ref());
            Task::reinit(ptr, None, None, 7, -2);
            let t = ptr.as_ref();
            assert_eq!(t.creator(), 7);
            assert_eq!(t.priority(), -2);
            assert_eq!(t.unfinished_children(), 0);
            assert!(t.release_ref());
            drop(Box::from_raw(ptr.as_ptr()));
        }
    }
}
