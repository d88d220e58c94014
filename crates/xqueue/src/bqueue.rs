//! The B-queue: a bounded lock-less SPSC ring buffer with batched probing.
//!
//! This is the core-to-core channel XQueue is built from. Its defining
//! properties, taken from the paper and the original B-queue design:
//!
//! * **Slot-only synchronization.** There is no shared head/tail index:
//!   the producer and consumer each keep *private* cursors and learn about
//!   each other exclusively by observing slot contents (`null` = empty).
//!   This removes the control-variable cache-line ping-pong of Lamport
//!   queues.
//! * **Batched probing.** The producer checks one slot per `batch` writes
//!   (if slot `head + d - 1` is empty then — because the occupied region
//!   `[tail, head)` is contiguous — all of `head .. head + d` is empty).
//!   The consumer symmetrically *backtracks*: it probes at distance
//!   `batch` and halves the distance until it finds a published slot, so
//!   it never deadlocks when the producer has published fewer than a full
//!   batch.
//! * **No atomic RMW.** All slot accesses are `load(Acquire)` /
//!   `store(Release)` — plain `MOV`s on x86 — which is the paper's
//!   definition of *lock-less*.
//!
//! The queue stores raw `NonNull<T>` element pointers. Ownership of the
//! pointee transfers through the queue: whoever dequeues the pointer owns
//! it again. The runtime passes task pointers; the safe [`crate::spsc`]
//! wrapper passes `Box`es.

use std::cell::UnsafeCell;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, Ordering};

/// Default per-queue capacity used by the runtime (slots per SPSC queue,
/// i.e. the paper's `S_queue`).
pub const DEFAULT_CAPACITY: usize = 256;

/// Pads a value to two cache lines to avoid false sharing between the
/// producer-side and consumer-side cursor blocks.
#[repr(align(128))]
struct Pad<T>(T);

struct ProducerState {
    /// Next slot index to write (monotonic; masked on access).
    head: usize,
    /// Exclusive limit `head` may reach before the next probe.
    batch_head: usize,
}

struct ConsumerState {
    /// Next slot index to read (monotonic; masked on access).
    tail: usize,
    /// Exclusive limit `tail` may reach before the next probe.
    batch_tail: usize,
}

/// A bounded lock-less SPSC queue of `NonNull<T>` pointers.
///
/// # Roles
///
/// At any time at most one thread may act as *producer* (calling
/// [`enqueue`](Self::enqueue), [`is_full_hint`](Self::is_full_hint)) and at
/// most one as *consumer* (calling [`dequeue`](Self::dequeue),
/// [`is_empty_hint`](Self::is_empty_hint)). The same thread may hold both
/// roles. Violating this is undefined behavior, which is why the role
/// methods are `unsafe`; see [`crate::spsc`] for a safe owned-handle API.
pub struct BQueue<T> {
    slots: Box<[AtomicPtr<T>]>,
    mask: usize,
    batch: usize,
    prod: Pad<UnsafeCell<ProducerState>>,
    cons: Pad<UnsafeCell<ConsumerState>>,
}

// SAFETY: the queue hands `NonNull<T>` across threads; that is only safe
// when the pointee may move between threads.
unsafe impl<T: Send> Send for BQueue<T> {}
unsafe impl<T: Send> Sync for BQueue<T> {}

impl<T> BQueue<T> {
    /// Creates a queue with `capacity` slots (rounded up to a power of
    /// two, minimum 2). The probe batch is `capacity / 8`, clamped to
    /// `[1, 64]`, matching the ratios used in the paper's artifact.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let batch = (cap / 8).clamp(1, 64);
        let slots = (0..cap)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        BQueue {
            slots,
            mask: cap - 1,
            batch,
            prod: Pad(UnsafeCell::new(ProducerState {
                head: 0,
                batch_head: 0,
            })),
            cons: Pad(UnsafeCell::new(ConsumerState {
                tail: 0,
                batch_tail: 0,
            })),
        }
    }

    /// Number of slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Probe batch size.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    #[inline]
    fn slot(&self, index: usize) -> &AtomicPtr<T> {
        // SAFETY of indexing: mask keeps the index in bounds.
        &self.slots[index & self.mask]
    }

    /// Enqueues `item`, or returns it back if the queue is full.
    ///
    /// # Safety
    ///
    /// Caller must be the unique producer of this queue for the duration
    /// of the call (see type-level docs).
    #[inline]
    pub unsafe fn enqueue(&self, item: NonNull<T>) -> Result<(), NonNull<T>> {
        // SAFETY: unique-producer contract makes this the only live
        // reference to the producer cursor block.
        let p = unsafe { &mut *self.prod.0.get() };
        if p.head == p.batch_head {
            // Probe for a fresh batch of free slots, halving the distance
            // so the final slots of a nearly-full ring remain usable.
            let mut d = self.batch;
            loop {
                if self
                    .slot(p.head.wrapping_add(d - 1))
                    .load(Ordering::Acquire)
                    .is_null()
                {
                    p.batch_head = p.head.wrapping_add(d);
                    break;
                }
                d /= 2;
                if d == 0 {
                    return Err(item);
                }
            }
        }
        self.slot(p.head).store(item.as_ptr(), Ordering::Release);
        p.head = p.head.wrapping_add(1);
        Ok(())
    }

    /// Dequeues the oldest element, if any.
    ///
    /// # Safety
    ///
    /// Caller must be the unique consumer of this queue for the duration
    /// of the call (see type-level docs).
    #[inline]
    pub unsafe fn dequeue(&self) -> Option<NonNull<T>> {
        // SAFETY: unique-consumer contract makes this the only live
        // reference to the consumer cursor block.
        let c = unsafe { &mut *self.cons.0.get() };
        if c.tail == c.batch_tail {
            // Backtracking probe: find the largest published prefix.
            let mut d = self.batch;
            loop {
                if !self
                    .slot(c.tail.wrapping_add(d - 1))
                    .load(Ordering::Acquire)
                    .is_null()
                {
                    c.batch_tail = c.tail.wrapping_add(d);
                    break;
                }
                d /= 2;
                if d == 0 {
                    return None;
                }
            }
        }
        let raw = self.slot(c.tail).load(Ordering::Acquire);
        // Within a confirmed batch every slot is published: the occupied
        // region [tail, head) is contiguous and the probe saw its end.
        debug_assert!(!raw.is_null(), "published batch contained a hole");
        self.slot(c.tail).store(ptr::null_mut(), Ordering::Release);
        c.tail = c.tail.wrapping_add(1);
        // SAFETY: producer published a non-null pointer.
        Some(unsafe { NonNull::new_unchecked(raw) })
    }

    /// Producer-side fullness hint: `true` when the very next slot is
    /// still occupied, i.e. an [`enqueue`](Self::enqueue) would fail.
    ///
    /// Used by the DLB strategies as `isTargetQFull` (Alg. 3/4).
    ///
    /// # Safety
    ///
    /// Caller must be the unique producer (reads the private head cursor).
    #[inline]
    pub unsafe fn is_full_hint(&self) -> bool {
        // SAFETY: unique-producer contract.
        let p = unsafe { &mut *self.prod.0.get() };
        if p.head != p.batch_head {
            return false; // room confirmed by the last probe
        }
        !self.slot(p.head).load(Ordering::Acquire).is_null()
    }

    /// Consumer-side emptiness hint: `true` when the next slot to read has
    /// not been published. May race with a concurrent producer (a `false`
    /// answer can be stale); exact emptiness is only known to the producer.
    ///
    /// # Safety
    ///
    /// Caller must be the unique consumer (reads the private tail cursor).
    #[inline]
    pub unsafe fn is_empty_hint(&self) -> bool {
        // SAFETY: unique-consumer contract.
        let c = unsafe { &mut *self.cons.0.get() };
        if c.tail != c.batch_tail {
            return false; // items confirmed by the last probe
        }
        self.slot(c.tail).load(Ordering::Acquire).is_null()
    }
}

impl<T> std::fmt::Debug for BQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BQueue")
            .field("capacity", &self.capacity())
            .field("batch", &self.batch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak(v: u64) -> NonNull<u64> {
        NonNull::new(Box::into_raw(Box::new(v))).unwrap()
    }

    /// Reclaims a pointer produced by `leak`.
    unsafe fn unleak(p: NonNull<u64>) -> u64 {
        *unsafe { Box::from_raw(p.as_ptr()) }
    }

    #[test]
    fn fifo_order_single_thread() {
        let q = BQueue::<u64>::with_capacity(16);
        unsafe {
            for i in 0..10u64 {
                q.enqueue(leak(i)).unwrap();
            }
            for i in 0..10u64 {
                assert_eq!(unleak(q.dequeue().unwrap()), i);
            }
            assert!(q.dequeue().is_none());
        }
    }

    #[test]
    fn capacity_is_fully_usable() {
        let q = BQueue::<u64>::with_capacity(16);
        unsafe {
            let mut accepted = 0;
            for i in 0..100u64 {
                match q.enqueue(leak(i)) {
                    Ok(()) => accepted += 1,
                    Err(p) => {
                        unleak(p);
                        break;
                    }
                }
            }
            // The graduated probe makes every slot usable.
            assert_eq!(accepted, 16);
            assert!(q.is_full_hint());
            for _ in 0..accepted {
                unleak(q.dequeue().unwrap());
            }
            assert!(q.dequeue().is_none());
        }
    }

    #[test]
    fn interleaved_wraparound() {
        let q = BQueue::<u64>::with_capacity(8);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        unsafe {
            // Push/pop alternating far beyond the ring size.
            for round in 0..1000 {
                let burst = (round % 5) + 1;
                for _ in 0..burst {
                    if q.enqueue(leak(next_in)).is_ok() {
                        next_in += 1;
                    } else {
                        // full: drain one and retry not needed for the test
                    }
                }
                for _ in 0..burst {
                    if let Some(p) = q.dequeue() {
                        assert_eq!(unleak(p), next_out);
                        next_out += 1;
                    }
                }
            }
            while let Some(p) = q.dequeue() {
                assert_eq!(unleak(p), next_out);
                next_out += 1;
            }
            assert_eq!(next_in, next_out);
        }
    }

    #[test]
    fn empty_and_full_hints() {
        let q = BQueue::<u64>::with_capacity(4);
        unsafe {
            assert!(q.is_empty_hint());
            assert!(!q.is_full_hint());
            q.enqueue(leak(1)).unwrap();
            assert!(!q.is_empty_hint());
            for i in 0..3 {
                q.enqueue(leak(i)).unwrap();
            }
            assert!(q.is_full_hint());
            while let Some(p) = q.dequeue() {
                unleak(p);
            }
            assert!(q.is_empty_hint());
        }
    }

    #[test]
    fn cross_thread_stress() {
        const N: u64 = 200_000;
        let q = std::sync::Arc::new(BQueue::<u64>::with_capacity(64));
        let qp = q.clone();
        let producer = std::thread::spawn(move || {
            let mut backoff = crate::Backoff::new();
            for i in 0..N {
                let mut item = leak(i);
                loop {
                    // SAFETY: this thread is the sole producer.
                    match unsafe { qp.enqueue(item) } {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            backoff.snooze();
                        }
                    }
                }
                backoff.reset();
            }
        });
        let mut expected = 0u64;
        let mut backoff = crate::Backoff::new();
        while expected < N {
            // SAFETY: this thread is the sole consumer.
            match unsafe { q.dequeue() } {
                Some(p) => {
                    assert_eq!(unsafe { unleak(p) }, expected);
                    expected += 1;
                    backoff.reset();
                }
                None => backoff.snooze(),
            }
        }
        producer.join().unwrap();
        assert!(unsafe { q.dequeue() }.is_none());
    }
}
