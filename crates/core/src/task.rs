//! Task representation and lifecycle.
//!
//! A [`Task`] is one heap-allocated record: its body lives inline, beside
//! a pointer to its parent task and one intrusive reference count that
//! both keeps the record alive while children may still touch it and *is*
//! the `taskwait` condition (`refs − 1` live children for the executor).
//!
//! ## The inline body
//!
//! A [`Body`] is two words of storage plus one thunk monomorphized for the
//! closure type it was written with, which either runs the closure or
//! drops it. A closure that fits the storage (size and alignment) is
//! stored as is, so a spawn allocates nothing but the record — libgomp's
//! one allocation per task; a larger or more aligned one is boxed and the
//! box is stored inline. The body runs in place: the executor holds the
//! handle reference, so the record outlives the call, and only the
//! closure moves onto the thunk's frame.
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

use std::cell::{Cell, UnsafeCell};
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use crate::cancel::CancelToken;
use crate::ctx::TaskCtx;

/// A body's inline storage: two words, enough for a closure capturing two
/// references or for a boxed trait object's fat pointer.
type Slot = [usize; 2];

/// Runs (`Some(ctx)`) or drops (`None`) the body stored in a slot; one
/// instance per closure type, so the slot's type is erased behind it.
type Thunk = unsafe fn(*mut Slot, Option<&TaskCtx<'_>>);

/// A task body, stored inline and consumed exactly once: run by the
/// executing worker, or dropped with the record if it never runs.
struct Body {
    slot: UnsafeCell<MaybeUninit<Slot>>,
    /// `Some` while the slot holds a body; taken before the body is read,
    /// so nothing reads it twice.
    thunk: Cell<Option<Thunk>>,
}

impl Body {
    /// An empty body (implicit tasks, recycled records).
    const fn empty() -> Body {
        Body {
            slot: UnsafeCell::new(MaybeUninit::uninit()),
            thunk: Cell::new(None),
        }
    }

    /// Whether a closure of type `F` is stored in the slot itself;
    /// anything larger or more aligned is boxed.
    const fn fits<F>() -> bool {
        size_of::<F>() <= size_of::<Slot>() && align_of::<F>() <= align_of::<Slot>()
    }
}

impl Drop for Body {
    fn drop(&mut self) {
        if let Some(thunk) = self.thunk.take() {
            // SAFETY: the thunk was installed with the body it matches and
            // is taken first, so the unrun body is dropped exactly once.
            unsafe { thunk(self.slot.get_mut().as_mut_ptr(), None) }
        }
    }
}

/// The thunk for closures of type `F`: moves the closure (or its box's
/// contents) out of the slot, then runs or drops it.
///
/// # Safety
///
/// `slot` holds a body [`Task::set_body`] wrote as an `F`, and it is read
/// at most once.
unsafe fn thunk<F: FnOnce(&TaskCtx<'_>)>(slot: *mut Slot, ctx: Option<&TaskCtx<'_>>) {
    // SAFETY: `set_body::<F>` stored an `F` when it fits, a `Box<F>`
    // otherwise, and the caller reads the slot once.
    let f = unsafe {
        if Body::fits::<F>() {
            slot.cast::<F>().read()
        } else {
            *slot.cast::<Box<F>>().read()
        }
    };
    if let Some(ctx) = ctx {
        f(ctx);
    }
}

/// A caught panic payload, carried from a panicking child to its
/// parent's next `taskwait` (panic-isolating teams only).
pub(crate) type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One schedulable task.
///
/// Created by [`crate::ctx::TaskCtx::spawn`] and friends; users never see
/// this type.
pub(crate) struct Task {
    /// The body; empty for implicit (root) tasks and after execution.
    body: Body,
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

// SAFETY: bodies are `Send` (`set_body` requires it); all shared mutable
// state is atomic or guarded by the single-executor discipline (`body` is
// consumed exactly once, by the executing worker).
unsafe impl Send for Task {}
// SAFETY: through a shared reference a record changes only in atomics
// (`refs`, the panic claim) and in cells each owned by one thread at a
// time: `body` and `cancel` by the executing worker, `child_panic` by the
// claim winner until the executor reads it after quiescence.
unsafe impl Sync for Task {}

impl Task {
    /// Creates a task record. `parent`, when present, must already have
    /// been retained on behalf of this child.
    pub(crate) fn new(parent: Option<NonNull<Task>>, creator: u32, priority: i32) -> Self {
        Task {
            body: Body::empty(),
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
    /// fast path), dropping a body that never ran. The record must be dead
    /// (`refs == 0`).
    ///
    /// # Safety
    ///
    /// `this` must point to a record previously released to the allocator
    /// by [`release_ref`](Self::release_ref) returning `true`.
    pub(crate) unsafe fn reinit(
        this: NonNull<Task>,
        parent: Option<NonNull<Task>>,
        creator: u32,
        priority: i32,
    ) {
        // SAFETY: caller guarantees exclusive access to a dead record.
        let t = unsafe { &mut *this.as_ptr() };
        debug_assert_eq!(*t.refs.get_mut(), 0, "reinit of a live task");
        t.body = Body::empty();
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

    /// Writes the body of a fresh record: `f` inline when it
    /// [fits](Body::fits), boxed otherwise. This is where a body's type —
    /// its lifetime included — is erased behind its thunk.
    ///
    /// # Safety
    ///
    /// The caller is the record's only user (not yet published), its body
    /// is empty, and every borrow `f` holds outlives the task's execution.
    #[inline]
    pub(crate) unsafe fn set_body<F>(this: NonNull<Task>, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send,
    {
        // SAFETY: exclusive access to an unpublished record (caller). The
        // slot is word-aligned, so an `F` that fits, or a `Box<F>`, is
        // written aligned; `thunk::<F>` reads back that same type, and
        // erasing `F`'s lifetime behind it is sound because `f`'s borrows
        // outlive the task (caller).
        unsafe {
            let body = &(*this.as_ptr()).body;
            debug_assert!(body.thunk.get().is_none(), "body written twice");
            let slot = body.slot.get().cast::<Slot>();
            if Body::fits::<F>() {
                slot.cast::<F>().write(f);
            } else {
                slot.cast::<Box<F>>().write(Box::new(f));
            }
            body.thunk.set(Some(thunk::<F>));
        }
    }

    /// Runs the body in place, consuming it; an implicit task has none.
    ///
    /// # Safety
    ///
    /// Only the executing worker may call this, which holds the handle
    /// reference (single-executor discipline).
    #[inline]
    pub(crate) unsafe fn run_body(this: NonNull<Task>, ctx: &TaskCtx<'_>) {
        // SAFETY: single-executor discipline gives exclusive body access,
        // and the handle reference keeps the record alive. The thunk is
        // taken before it reads the slot, so the body is consumed once:
        // if it panics, it has already moved onto the thunk's frame,
        // whose unwinding drops it.
        unsafe {
            let body = &(*this.as_ptr()).body;
            if let Some(thunk) = body.thunk.take() {
                thunk(body.slot.get().cast(), Some(ctx));
            }
        }
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
    use crate::{Runtime, RuntimeConfig, ServingHooks};
    use std::sync::atomic::AtomicUsize;

    // The inline storage holds `fib`'s closure (two references), the
    // service's drain closure (one thin job pointer) and a boxed trait
    // object's fat pointer: none is boxed again.
    const _: () = assert!(Body::fits::<(&u64, &AtomicUsize)>());
    const _: () = assert!(Body::fits::<NonNull<u8>>());
    const _: () = assert!(Body::fits::<Box<dyn FnOnce(&TaskCtx<'_>) + Send>>());
    // Too large, or too aligned, and the body is boxed.
    const _: () = assert!(!Body::fits::<[u64; 3]>());
    const _: () = assert!(!Body::fits::<u128>());

    /// `Task` stays in glibc's 80-byte size class (the record is the one
    /// allocation per task, so its size is the per-task footprint).
    #[test]
    fn task_record_layout() {
        assert!(
            size_of::<Task>() <= 72,
            "Task is {} bytes",
            size_of::<Task>()
        );
        assert_eq!(align_of::<Task>(), 8);
    }

    /// Counts its drops into the counter it carries.
    struct Canary(&'static AtomicUsize);
    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_body_that_runs_is_dropped_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        static RAN: AtomicUsize = AtomicUsize::new(0);
        for cfg in [RuntimeConfig::xgomptb(2), RuntimeConfig::xlomp(2)] {
            DROPS.store(0, Ordering::Relaxed);
            RAN.store(0, Ordering::Relaxed);
            Runtime::new(cfg).parallel(|ctx| {
                let canary = Canary(&DROPS);
                ctx.spawn(move |_| {
                    let _keep = &canary;
                    RAN.fetch_add(1, Ordering::Relaxed);
                });
                let (canary, pad) = (Canary(&DROPS), [7u64; 4]);
                ctx.spawn(move |_| {
                    let _keep = &canary;
                    RAN.fetch_add(pad[3] as usize, Ordering::Relaxed);
                });
            });
            assert_eq!(RAN.load(Ordering::Relaxed), 8);
            assert_eq!(DROPS.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn a_panicking_body_is_dropped_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        let rt = Runtime::new(RuntimeConfig::xgomptb(2));
        rt.serve(ServingHooks::default(), |ctx| {
            let canary = Canary(&DROPS);
            ctx.spawn(move |_| {
                let _keep = &canary;
                panic!("inline body failed");
            });
            let wait = std::panic::AssertUnwindSafe(|| ctx.taskwait());
            let payload = std::panic::catch_unwind(wait).unwrap_err();
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"inline body failed"),
                "the payload reaches the parent's taskwait"
            );
        });
        assert_eq!(DROPS.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn an_over_aligned_capture_is_boxed() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        static SEEN: AtomicUsize = AtomicUsize::new(0);
        const MAGIC: u128 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        /// Fits the storage's size but not its alignment.
        struct Wide(u128);
        impl Drop for Wide {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        fn fits_of<F>(_: &F) -> bool {
            Body::fits::<F>()
        }
        Runtime::new(RuntimeConfig::xgomptb(2)).parallel(|ctx| {
            let wide = Wide(MAGIC);
            let body = move |_: &TaskCtx<'_>| {
                assert_eq!(wide.0, MAGIC);
                SEEN.fetch_add(1, Ordering::Relaxed);
            };
            assert!(size_of_val(&body) <= size_of::<Slot>());
            assert!(!fits_of(&body), "align 16 takes the boxed path");
            ctx.spawn(body);
        });
        assert_eq!(SEEN.load(Ordering::Relaxed), 1);
        assert_eq!(DROPS.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn refcount_protocol() {
        let t = Task::new(None, 0, 0);
        t.retain();
        assert!(!t.release_ref());
        assert!(t.release_ref());
    }

    #[test]
    fn child_accounting() {
        let t = Task::new(None, 3, 0);
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
        let boxed = Box::new(Task::new(None, 1, 5));
        let ptr = NonNull::new(Box::into_raw(boxed)).unwrap();
        // Kill it, then reinit as a different task.
        unsafe {
            assert!((*ptr.as_ptr()).release_ref());
            Task::reinit(ptr, None, 7, -2);
            let t = ptr.as_ref();
            assert_eq!(t.creator(), 7);
            assert_eq!(t.priority(), -2);
            assert_eq!(t.unfinished_children(), 0);
            assert!(t.release_ref());
            drop(Box::from_raw(ptr.as_ptr()));
        }
    }
}
