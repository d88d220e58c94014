//! In-tree stand-in for `crossbeam-deque` (offline build): a real
//! **Chase–Lev work-stealing deque**, not a mutexed shim.
//!
//! Same API shape as the crate (`Worker` / `Stealer` / `Steal`), same
//! semantics (owner pushes/pops LIFO at the bottom, thieves steal FIFO
//! from the top via CAS), and now the same progress guarantee: the deque
//! is **lock-free** — which is exactly the property the paper ascribes
//! to the LOMP baseline, so its comparison numbers are honest again.
//!
//! The implementation follows Chase & Lev, *Dynamic Circular
//! Work-Stealing Deque* (SPAA '05), with the C11 memory orderings of
//! Lê, Pop, Cohen & Zappa Nardelli, *Correct and Efficient
//! Work-Stealing for Weak Memory Models* (PPoPP '13):
//!
//! * `push` writes the slot, then publishes `bottom` with release;
//! * `pop` decrements `bottom`, fences `SeqCst`, reads `top`, and CASes
//!   `top` only for the last-element race with thieves;
//! * `steal` reads `top` (acquire), fences `SeqCst`, reads `bottom`,
//!   copies the slot, and claims it by CASing `top` — a failed CAS
//!   *forgets* the copied bits (ownership only transfers on success).
//!
//! For any slot a thief can successfully *claim*, torn reads cannot
//! happen: the owner grows the buffer before an index could wrap onto
//! an unconsumed slot, so for positions still in `top..bottom` an owner
//! write and a thief read never target the same slot of the same
//! buffer. The speculative copy before a CAS that then **fails** is
//! weaker: a stalled thief whose `top` snapshot was already consumed
//! can read a slot the owner is concurrently rewriting after the index
//! wraps (the owner writes position `t + cap` once the real `top` has
//! advanced past `t`), which is formally a data race on the copied
//! bits. We mitigate it the way upstream `crossbeam-deque` does: the
//! slot copy is a **volatile** read of uninterpreted `MaybeUninit`
//! bytes (so the compiler cannot rematerialize the value from the slot
//! after the claim), and the bytes are only `assume_init`-ed once the
//! claim CAS succeeds — a failed claim drops them uninterpreted. This
//! is the field-accepted compromise, still a known gap from strict C11
//! data-race freedom rather than a proven impossibility. Retired buffers
//! stay allocated (on the owner's retire list) until the deque drops,
//! because a slow thief may still be reading through an old buffer
//! pointer — the classic Chase–Lev reclamation compromise, cheap here
//! because doubling makes the retire list logarithmic in the
//! high-water mark.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::Arc;

/// Initial ring capacity (power of two).
const MIN_CAP: usize = 64;

/// A fixed-size circular buffer of slots, indexed by unmasked positions.
struct Buffer<T> {
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        Box::into_raw(Box::new(Buffer {
            mask: cap - 1,
            slots: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }))
    }

    #[inline]
    fn cap(&self) -> usize {
        self.mask + 1
    }

    /// Writes position `i`. Caller must be the unique writer of `i`.
    #[inline]
    unsafe fn write(&self, i: isize, value: T) {
        let slot = &self.slots[i as usize & self.mask];
        // SAFETY: unique-writer contract forwarded to the caller.
        unsafe { (*slot.get()).write(value) };
    }

    /// Bitwise-copies position `i` as uninterpreted bytes. The copy
    /// owns nothing until the caller's claim (CAS) succeeds — only then
    /// may it be `assume_init`-ed; on failure the bytes are dropped
    /// uninterpreted (`MaybeUninit` never runs `T`'s destructor).
    ///
    /// The volatile read is upstream crossbeam-deque's mitigation for
    /// the speculative steal copy: a read whose claim later fails may
    /// race an owner rewrite of a wrapped index (see the module docs),
    /// and volatility stops the compiler from rematerializing the value
    /// from the slot after the claim.
    #[inline]
    unsafe fn read(&self, i: isize) -> MaybeUninit<T> {
        let slot = &self.slots[i as usize & self.mask];
        // SAFETY: the slot pointer is valid; initialization and
        // interpretation of the bytes are the caller's contract above.
        unsafe { std::ptr::read_volatile(slot.get()) }
    }
}

struct Inner<T> {
    /// Steal end; monotonically increasing.
    top: AtomicIsize,
    /// Owner end; only the owner writes it.
    bottom: AtomicIsize,
    buf: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by `grow`, freed at drop (owner-only access).
    retired: UnsafeCell<Vec<*mut Buffer<T>>>,
}

// SAFETY: elements move across threads through the deque; all shared
// mutable state is atomics or governed by the owner/claim contracts.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: a thief only loads `top`, `bottom` and `buf`, CASes `top` and
// copies the slot its CAS claims; stores to `bottom` and `buf` and the
// `retired` list belong to the single owner (the `Worker` handle).
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let t = *self.top.get_mut();
        let b = *self.bottom.get_mut();
        let buf = *self.buf.get_mut();
        // Drop the elements still in the deque.
        for i in t..b {
            // SAFETY: exclusive access; positions t..b are initialized.
            unsafe { drop((*buf).read(i).assume_init()) };
        }
        // SAFETY: `buf` and everything on the retire list came from
        // `Buffer::alloc` and is referenced by no one anymore.
        unsafe {
            drop(Box::from_raw(buf));
            for old in self.retired.get_mut().drain(..) {
                drop(Box::from_raw(old));
            }
        }
    }
}

/// Owner handle: LIFO push/pop at the bottom. One per deque.
///
/// `Send` but `!Sync`, exactly like the real crate: the owner-side
/// operations assume a unique caller, so sharing a `&Worker` across
/// threads must not compile (the raw-pointer marker enforces it).
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// Suppresses the auto `Sync` (and `Send`) the `Arc` would grant;
    /// `Send` is restored below under the usual `T: Send` bound.
    _not_sync: std::marker::PhantomData<*mut ()>,
}

// SAFETY: moving the owner handle to another thread is fine (`T: Send`
// elements travel with it); only *sharing* it is unsound, which the
// missing `Sync` impl forbids.
unsafe impl<T: Send> Send for Worker<T> {}

/// Thief handle: FIFO steal from the top. Freely cloneable/shareable.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

/// Result of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// Got an element.
    Success(T),
    /// Deque observed empty.
    Empty,
    /// Lost a race (another thief or the owner's last-element pop);
    /// retrying may succeed.
    Retry,
}

impl<T> Worker<T> {
    /// Creates a deque whose owner operates in LIFO order.
    pub fn new_lifo() -> Self {
        Worker {
            inner: Arc::new(Inner {
                top: AtomicIsize::new(0),
                bottom: AtomicIsize::new(0),
                buf: AtomicPtr::new(Buffer::alloc(MIN_CAP)),
                retired: UnsafeCell::new(Vec::new()),
            }),
            _not_sync: std::marker::PhantomData,
        }
    }

    /// Doubles the buffer, copying live positions `t..b`. Owner-only.
    #[cold]
    fn grow(&self, t: isize, b: isize) -> *mut Buffer<T> {
        let inner = &*self.inner;
        let old = inner.buf.load(Ordering::Relaxed);
        // SAFETY: owner is the only mutator of the buffer pointer.
        let new = unsafe { Buffer::<T>::alloc((*old).cap() * 2) };
        for i in t..b {
            // SAFETY: positions t..b are initialized in `old`; `new` is
            // private to this thread until published below. The element
            // is *duplicated* bitwise — the old buffer's copy is never
            // read again by the owner, and a thief that still claims
            // through the old pointer reads index `i < t_future` … it
            // cannot: a thief CASes `top`, and any `top` it can claim was
            // ≥ t at publish time, where both buffers agree. Old copies
            // beyond that are dead bits, never dropped.
            unsafe { (*new).write(i, (*old).read(i).assume_init()) };
        }
        inner.buf.store(new, Ordering::Release);
        // SAFETY: retire list is owner-only until drop.
        unsafe { (*inner.retired.get()).push(old) };
        new
    }

    /// Pushes onto the owner end.
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buf.load(Ordering::Relaxed);
        // SAFETY: owner-only buffer access.
        if b - t >= unsafe { (*buf).cap() } as isize {
            buf = self.grow(t, b);
        }
        // SAFETY: position `b` is unoccupied (b - t < cap after grow)
        // and the owner is its unique writer.
        unsafe { (*buf).write(b, value) };
        // Publish: the release pairs with the thief's acquire of bottom
        // (after its SeqCst fence), making the slot write visible.
        inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Pops from the owner end (most recent first).
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buf.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        // The store of bottom must be ordered before the load of top
        // (the owner-side half of the Dekker handshake with `steal`).
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t > b {
            // Deque was empty; restore.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        if t == b {
            // Last element: race thieves for it via top.
            let won = inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            inner.bottom.store(b + 1, Ordering::Relaxed);
            if !won {
                return None; // a thief took it
            }
            // SAFETY: the successful CAS transferred position b to us.
            return Some(unsafe { (*buf).read(b).assume_init() });
        }
        // More than one element: position b is unreachable by thieves
        // (they stop at bottom), no race.
        // SAFETY: unique claim on position b.
        Some(unsafe { (*buf).read(b).assume_init() })
    }

    /// Racy emptiness probe (idle/park heuristics).
    pub fn is_empty(&self) -> bool {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        b <= t
    }

    /// Creates a thief handle to this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Stealer<T> {
    /// Racy emptiness probe (idle/park heuristics).
    pub fn is_empty(&self) -> bool {
        let t = self.inner.top.load(Ordering::Acquire);
        let b = self.inner.bottom.load(Ordering::Acquire);
        b <= t
    }

    /// Steals from the opposite end (oldest first).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        // Order the load of top before the load of bottom (thief-side
        // half of the Dekker handshake with `pop`).
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Speculative volatile copy before claiming — uninterpreted
        // `MaybeUninit` bytes until the claim validates. If the CAS
        // below succeeds, position `t` was still claimable, so no owner
        // write could have targeted it (grow-before-wrap, see module
        // docs) and the copy is ours. If the CAS fails, this read may
        // have raced an owner rewrite of a wrapped index — the racy
        // bytes are dropped uninterpreted (no destructor runs).
        let buf = inner.buf.load(Ordering::Acquire);
        // SAFETY: t < b, so position t was initialized by a past write.
        let value = unsafe { (*buf).read(t) };
        if inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            // Lost the race: the bits we copied belong to whoever won.
            return Steal::Retry;
        }
        // SAFETY: the successful CAS transferred position t to us, and
        // for a claimable position the copy could not have been torn.
        Steal::Success(unsafe { value.assume_init() })
    }
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: self.inner.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn owner_lifo_thief_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(s.steal(), Steal::Empty);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn emptiness_probes() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        assert!(w.is_empty() && s.is_empty());
        w.push(9);
        assert!(!w.is_empty() && !s.is_empty());
        assert_eq!(w.pop(), Some(9));
        assert!(w.is_empty() && s.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        for i in 0..10 * MIN_CAP {
            w.push(i);
        }
        // Steal a prefix (FIFO), pop the rest (LIFO).
        for i in 0..MIN_CAP {
            assert_eq!(s.steal(), Steal::Success(i));
        }
        for i in (MIN_CAP..10 * MIN_CAP).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn drop_frees_remaining_elements() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let w = Worker::new_lifo();
            for _ in 0..100 {
                w.push(D);
            }
            for _ in 0..40 {
                drop(w.pop());
            }
            // 60 remain in the deque (40 dropped above)…
        }
        // …and are dropped with it.
        assert_eq!(DROPS.load(Ordering::Relaxed), 100);
    }

    /// Owner pops race thieves for every element; each element must be
    /// delivered exactly once (sum conservation catches double/lost).
    #[test]
    fn concurrent_conservation_stress() {
        const PER_ROUND: usize = 10_000;
        const THIEVES: usize = 3;
        for _round in 0..8 {
            let w = Worker::new_lifo();
            let stop = Arc::new(AtomicUsize::new(0));
            let stolen_sum = Arc::new(AtomicUsize::new(0));
            let stolen_n = Arc::new(AtomicUsize::new(0));
            let thieves: Vec<_> = (0..THIEVES)
                .map(|_| {
                    let s = w.stealer();
                    let stop = stop.clone();
                    let sum = stolen_sum.clone();
                    let n = stolen_n.clone();
                    std::thread::spawn(move || loop {
                        match s.steal() {
                            Steal::Success(v) => {
                                sum.fetch_add(v, Ordering::Relaxed);
                                n.fetch_add(1, Ordering::Relaxed);
                            }
                            Steal::Retry => {}
                            Steal::Empty => {
                                if stop.load(Ordering::Acquire) == 1 {
                                    return;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    })
                })
                .collect();

            let mut own_sum = 0usize;
            let mut own_n = 0usize;
            for i in 1..=PER_ROUND {
                w.push(i);
                if i % 3 == 0 {
                    if let Some(v) = w.pop() {
                        own_sum += v;
                        own_n += 1;
                    }
                }
            }
            while let Some(v) = w.pop() {
                own_sum += v;
                own_n += 1;
            }
            stop.store(1, Ordering::Release);
            for t in thieves {
                t.join().unwrap();
            }
            // Late-queued elements may have been stolen between our last
            // pop and the stop flag; drain whatever is left.
            let s = w.stealer();
            loop {
                match s.steal() {
                    Steal::Success(v) => {
                        own_sum += v;
                        own_n += 1;
                    }
                    Steal::Retry => {}
                    Steal::Empty => break,
                }
            }
            assert_eq!(own_n + stolen_n.load(Ordering::Relaxed), PER_ROUND);
            assert_eq!(
                own_sum + stolen_sum.load(Ordering::Relaxed),
                PER_ROUND * (PER_ROUND + 1) / 2,
                "elements lost or duplicated"
            );
        }
    }
}
