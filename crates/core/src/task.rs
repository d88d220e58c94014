//! Task representation and lifecycle.
//!
//! A [`Task`] is one record: its body lives inline, beside a pointer to
//! its parent task and an owner-biased count of its outstanding children,
//! which both keeps the record alive while children may still touch it
//! and *is* the `taskwait` condition. A queued task's record is on the
//! heap, one allocation. An *undeferred* task's is a local of the spawn
//! that runs it, libgomp's undeferred task: the overflow rule (§II-B) runs
//! a child whose target queue is full at once, on the spawner's stack,
//! never publishing it, so it needs no allocation.
//!
//! ## The inline body
//!
//! A [`Body`] is two words of storage plus one thunk monomorphized for the
//! closure type it was written with, which either runs the closure or
//! drops it. A closure that fits the storage (size and alignment) is
//! stored as is, so a spawn allocates nothing but the record — libgomp's
//! one allocation per task; a larger or more aligned one is boxed and the
//! box is stored inline. The body runs in place: the executor owns the
//! record until it retires it, so the record outlives the call, and only
//! the closure moves onto the thunk's frame.
//!
//! ## The owner-biased child count
//!
//! A task's *owner* is its executor, the one worker that runs its body,
//! spawns its children (so every child's [`creator`](Task::creator) is
//! the parent's owner) and retires it. The count is split by who writes
//! it (biased reference counting, Choi, Shull and Torrellas, PACT 2018).
//! The region's implicit task is the master's; what a peer's ingress poll
//! spawns from it is parentless, so no worker but the owner ever writes
//! the owner's half.
//!
//! * `local` is the owner's: children spawned minus children completed on
//!   the owner's worker while the task is attached. The owner reads and
//!   writes it with plain (relaxed) loads and stores, never an RMW.
//! * `remote` counts every other completion — a child completing on
//!   another worker, or after its parent retired — with one atomic RMW,
//!   plus two flags in the low bits: `DETACHED` and the child-panic claim.
//!   The count sits above the flags, so a wrap-around falls off the top
//!   instead of carrying into a flag.
//!
//! The outstanding children are `local − remote` (both counts wrap in the
//! same units). When the owner retires a task with none outstanding it
//! frees the record with no RMW at all. Otherwise it *detaches*: one
//! `fetch_add` moves `local` into the shared word and sets `DETACHED`, so
//! the count reads minus the children outstanding, and from then on every
//! completion is remote and adds one. Exactly one party frees the record:
//! the owner, if the detach finds every child already counted, or else the
//! completer whose increment brings the count to zero. Each party decides
//! from its own RMW's result, so none reads a record another may already
//! have freed.
//!
//! A record on its spawner's frame never detaches, as it cannot outlive
//! that frame: its owner waits, helping, until the count reads zero, and
//! only then lets the frame go. From the owner's zero on, no completer
//! touches the record again (each has made its last access, its RMW), so
//! an undeferred spawn returns only once the child's own children have
//! finished, detached ones included.
//!
//! The paper's XGOMP keeps "atomically update the parent task's
//! dependency" while removing the global task lock (§III-A). Here the
//! dependency update is atomic only across workers: a child that
//! completes on the worker that spawned it — almost every child of a
//! fine-grained recursion — updates its parent with a plain store. The
//! *lock-less* claims of the paper apply to the queues, the DLB messaging
//! and the barrier release path.

use std::cell::{Cell, UnsafeCell};
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, Ordering};

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
/// parent's next `taskwait` (the body's own in a serving team, a poison
/// marker in any other).
pub(crate) type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// The `remote` word's flag: the owner retired the task with children
/// outstanding and moved its count in, so the count runs up to zero.
const DETACHED: u32 = 1;
/// The `remote` word's flag: a child's panic payload sits in
/// `child_panic` (the first panicking child wins).
const PANIC_CLAIMED: u32 = 2;
/// Both flags: the low bits of `remote`, below the count.
const FLAGS: u32 = DETACHED | PANIC_CLAIMED;
/// One child, in the units both counts use: above the flags, so a count
/// that wraps falls off the top of the word.
const ONE: u32 = FLAGS + 1;

/// One schedulable task.
///
/// Created by [`crate::ctx::TaskCtx::spawn`] and friends, on the heap or,
/// undeferred, in the spawning frame; users never see this type.
pub(crate) struct Task {
    /// The body; empty for implicit (root) tasks and after execution.
    body: Body,
    /// Parent task, which outlives its outstanding children.
    parent: Option<NonNull<Task>>,
    /// The owner's half of the child count (see module docs), in units of
    /// `ONE`: children spawned minus children completed on the owner's
    /// worker. Written only by the owner, with plain stores; zero from
    /// the detach on, which moves it into `remote`.
    local: AtomicU32,
    /// Every other completion, in units of `ONE`, above the `DETACHED`
    /// and `PANIC_CLAIMED` flags; from the detach on, minus the children
    /// still outstanding.
    remote: AtomicU32,
    /// Worker that created this task (locality accounting) — the worker
    /// that spawned it, so the owner of its parent.
    creator: u32,
    /// GOMP-style priority (higher runs first in the GOMP scheduler).
    priority: i32,
    /// What the first child that panicked handed this task (written
    /// under the `PANIC_CLAIMED` claim, read by the owner after
    /// quiescence).
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
// (the two counts and the panic claim) and in cells each owned by one
// thread at a time: `body` and `cancel` by the executing worker,
// `child_panic` by the claim winner until the owner reads it after
// quiescence.
unsafe impl Sync for Task {}

impl Task {
    /// Creates a task record with no children. `parent`, when present,
    /// must already count this child (see [`add_child`](Self::add_child)).
    pub(crate) fn new(parent: Option<NonNull<Task>>, creator: u32, priority: i32) -> Self {
        Task {
            body: Body::empty(),
            parent,
            local: AtomicU32::new(0),
            remote: AtomicU32::new(0),
            creator,
            priority,
            child_panic: UnsafeCell::new(None),
            cancel: UnsafeCell::new(None),
        }
    }

    /// Re-initializes a recycled record in place (multi-level allocator
    /// fast path), dropping a body that never ran. The record must be dead
    /// (no child outstanding).
    ///
    /// # Safety
    ///
    /// `this` must point to a record its last party let go of: the owner
    /// that retired it with no child outstanding, or the completer that
    /// [`child_done_elsewhere`](Self::child_done_elsewhere) told to free it.
    pub(crate) unsafe fn reinit(
        this: NonNull<Task>,
        parent: Option<NonNull<Task>>,
        creator: u32,
        priority: i32,
    ) {
        // SAFETY: caller guarantees exclusive access to a dead record.
        let t = unsafe { &mut *this.as_ptr() };
        debug_assert_eq!(t.unfinished_children(), 0, "reinit of a live task");
        t.body = Body::empty();
        t.parent = parent;
        *t.local.get_mut() = 0;
        *t.remote.get_mut() = 0;
        t.creator = creator;
        t.priority = priority;
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

    /// The worker that created this task: the worker that spawned it, so
    /// also its parent's owner. An implicit task's creator is the master,
    /// which owns it.
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

    /// Number of direct children that have not completed — `local`
    /// minus the remote count. Only the owner may ask while the task is
    /// attached (`taskwait`, and `retire` before the detach). `Acquire`
    /// pairs with the remote completions' `Release`: a zero here has
    /// observed everything the children did.
    #[inline]
    pub(crate) fn unfinished_children(&self) -> u32 {
        let done = self.remote.load(Ordering::Acquire) & !FLAGS;
        self.local.load(Ordering::Relaxed).wrapping_sub(done) / ONE
    }

    /// Counts a new child. The owner calls it, before the child is
    /// visible: a plain store, as only the owner writes `local`.
    #[inline]
    pub(crate) fn add_child(&self) {
        let local = self.local.load(Ordering::Relaxed);
        self.local.store(local.wrapping_add(ONE), Ordering::Relaxed);
    }

    /// Whether the owner still holds the task (not yet retired). Only
    /// the owner's worker may ask: it is the one that sets `DETACHED`.
    #[inline]
    pub(crate) fn attached(&self) -> bool {
        self.remote.load(Ordering::Relaxed) & DETACHED == 0
    }

    /// Completes a child that ran on the owner's worker while the task is
    /// attached: a plain store, as only the owner writes `local`.
    #[inline]
    pub(crate) fn child_done_here(&self) {
        let local = self.local.load(Ordering::Relaxed);
        self.local.store(local.wrapping_sub(ONE), Ordering::Relaxed);
    }

    /// Completes a child anywhere else: on another worker, or after the
    /// owner detached. One RMW; `AcqRel` so the owner's `taskwait`
    /// observes everything the child did, and so the party that frees the
    /// record has observed every other party. Returns `true` when the
    /// task is detached and this was its last child: the caller frees
    /// the record. The answer comes from the RMW's own result alone — a
    /// completer reads nothing else of a record another completer may
    /// already have freed. Out of line: inlined, it grows `execute`'s
    /// frame, which every nesting level pays.
    #[inline(never)]
    pub(crate) fn child_done_elsewhere(&self) -> bool {
        let prev = self.remote.fetch_add(ONE, Ordering::AcqRel);
        // Detached, the count runs from minus the children outstanding
        // at the detach up to zero.
        prev & DETACHED != 0 && (prev & !FLAGS).wrapping_add(ONE) == 0
    }

    /// The owner lets go of a task that still has children outstanding:
    /// it moves its own count into the shared word and sets `DETACHED`
    /// in the same RMW, so the count then reads minus the children
    /// outstanding, and from here on every child completes through
    /// [`child_done_elsewhere`](Self::child_done_elsewhere), the last one
    /// bringing it to zero. Returns `true` when every child was already
    /// counted — the last one completed between the caller's check and
    /// the RMW — so the caller frees the record.
    #[inline]
    pub(crate) fn detach(&self) -> bool {
        let target = self.local.load(Ordering::Relaxed);
        // Emptied first, so the dead record reads zero outstanding: the
        // RMW below publishes the store to whoever frees it.
        self.local.store(0, Ordering::Relaxed);
        // `target` is a whole number of `ONE`s, so subtracting it leaves
        // the flag bits alone; `DETACHED` was clear, so adding it sets it.
        let moved = DETACHED.wrapping_sub(target);
        let prev = self.remote.fetch_add(moved, Ordering::AcqRel);
        prev & !FLAGS == target
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
    /// Only the executing worker may call this, which owns the record
    /// until it retires it (single-executor discipline).
    #[inline]
    pub(crate) unsafe fn run_body(this: NonNull<Task>, ctx: &TaskCtx<'_>) {
        // SAFETY: single-executor discipline gives exclusive body access,
        // and the owner keeps the record alive. The thunk is taken before
        // it reads the slot, so the body is consumed once: if it panics,
        // it has already moved onto the thunk's frame, whose unwinding
        // drops it.
        unsafe {
            let body = &(*this.as_ptr()).body;
            if let Some(thunk) = body.thunk.take() {
                thunk(body.slot.get().cast(), Some(ctx));
            }
        }
    }

    /// Deposits the panic payload of a failed child; the first child to
    /// panic wins, later payloads are dropped. Called by the child's
    /// executor *before* it completes the child, so the parent's
    /// quiescence check (`unfinished_children == 0`, acquire) also orders
    /// this write before any `take_child_panic`.
    pub(crate) fn record_child_panic(&self, payload: PanicPayload) {
        if self.remote.fetch_or(PANIC_CLAIMED, Ordering::Acquire) & PANIC_CLAIMED == 0 {
            // SAFETY: the claim grants exclusive write access; no reader
            // runs until this child has also counted as completed.
            unsafe { *self.child_panic.get() = Some(payload) };
        }
    }

    /// Takes the recorded child panic, if any, re-arming the claim so a
    /// later child panic (after the caller handled this one) is not
    /// silently swallowed. Only the task's owner may call this, and only
    /// while no child is in flight.
    pub(crate) fn take_child_panic(&self) -> Option<PanicPayload> {
        if self.remote.load(Ordering::Acquire) & PANIC_CLAIMED == 0 {
            return None;
        }
        // SAFETY: single-executor discipline + quiescence (no child
        // can be writing concurrently).
        let payload = unsafe { (*self.child_panic.get()).take() };
        self.remote.fetch_and(!PANIC_CLAIMED, Ordering::Release);
        payload
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
            .field("local", &self.local.load(Ordering::Relaxed))
            .field("remote", &self.remote.load(Ordering::Relaxed))
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
    /// allocation per queued task, so its size is the per-task footprint;
    /// an undeferred task's is that much of its spawner's frame).
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

    /// Who frees the record: the owner when nothing is outstanding at
    /// the detach, the completer that brings the remote count to the
    /// target otherwise; an attached task is never freed by a completion.
    #[test]
    fn refcount_protocol() {
        // Every child counted before the detach: the owner frees.
        let t = Task::new(None, 0, 0);
        t.add_child();
        t.add_child();
        t.child_done_here();
        assert!(
            !t.child_done_elsewhere(),
            "attached: a completion never frees"
        );
        assert_eq!(t.unfinished_children(), 0);
        assert!(t.detach());
        // The last child completes after the detach, on the owner's
        // worker or elsewhere alike: that completion frees.
        let t = Task::new(None, 0, 0);
        t.add_child();
        t.add_child();
        t.child_done_here();
        assert!(!t.detach());
        assert!(!t.attached());
        assert!(t.child_done_elsewhere());
        // A remote completion lands before the detach: the target counts
        // it, and only the last completion after the detach frees.
        let t = Task::new(None, 0, 0);
        for _ in 0..3 {
            t.add_child();
        }
        assert!(!t.child_done_elsewhere());
        assert!(!t.detach());
        assert!(!t.child_done_elsewhere());
        assert!(t.child_done_elsewhere());
    }

    #[test]
    fn child_accounting() {
        let t = Task::new(None, 3, 0);
        assert_eq!(t.unfinished_children(), 0);
        t.add_child();
        t.add_child();
        assert_eq!(t.unfinished_children(), 2);
        t.child_done_here();
        assert_eq!(t.unfinished_children(), 1);
        // The panic claim is a flag beside the count, not a child.
        t.record_child_panic(Box::new(7u8));
        assert_eq!(t.unfinished_children(), 1);
        assert!(!t.child_done_elsewhere());
        assert_eq!(t.unfinished_children(), 0);
        assert!(t.take_child_panic().is_some());
        assert!(t.take_child_panic().is_none(), "taken once, claim re-armed");
        assert_eq!(t.creator(), 3);
        // Both counts wrap in the same units, and the remote count's
        // carry falls off the top of the word instead of into a flag.
        let top = 0u32.wrapping_sub(ONE);
        t.local.store(top, Ordering::Relaxed);
        t.remote.store(top | PANIC_CLAIMED, Ordering::Relaxed);
        assert_eq!(t.unfinished_children(), 0);
        t.add_child();
        assert_eq!(t.unfinished_children(), 1);
        assert!(!t.child_done_elsewhere());
        assert_eq!(t.remote.load(Ordering::Relaxed), PANIC_CLAIMED);
        assert_eq!(t.unfinished_children(), 0);
        assert!(t.attached());
    }

    #[test]
    fn reinit_resets_everything() {
        let boxed = Box::new(Task::new(None, 1, 5));
        let ptr = NonNull::new(Box::into_raw(boxed)).unwrap();
        // Kill it through a detach (flag, claim and target all set), then
        // reinit it as a different task.
        unsafe {
            let t = ptr.as_ref();
            t.add_child();
            t.record_child_panic(Box::new(()));
            assert!(!t.detach());
            assert!(t.child_done_elsewhere());
            Task::reinit(ptr, None, 7, -2);
            let t = ptr.as_ref();
            assert_eq!(t.creator(), 7);
            assert_eq!(t.priority(), -2);
            assert_eq!(t.unfinished_children(), 0);
            assert!(t.attached());
            assert!(t.take_child_panic().is_none());
            drop(Box::from_raw(ptr.as_ptr()));
        }
    }
}
