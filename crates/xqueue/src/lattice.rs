//! The XQueue lattice: an `n × n` matrix of SPSC B-queues forming a
//! relaxed-order MPMC task queue (paper §II-B, Fig. 2).
//!
//! For a team of `n` workers, worker `c` *consumes from* the `n` queues in
//! its row: queue `(c, c)` is its **master** queue and `(c, p)`, `p ≠ c`
//! are **auxiliary** queues, each with exactly one producer `p`. Worker
//! `p` *produces into* the `n` queues `(·, p)`. Every individual queue is
//! SPSC by construction, so the whole structure needs no locks and no
//! atomic RMW.
//!
//! Scheduling policy (who pushes where, round-robin cursors, overflow →
//! execute immediately) lives in `xgomp-core`; this module only provides
//! the structure, the role-checked operations, and a [`PushCursor`]
//! helper implementing the paper's "round-robin starting with the master
//! queue" order.

use std::cell::UnsafeCell;
use std::ptr::NonNull;

use crate::bqueue::BQueue;
use crate::CachePadded;

/// The XQueue structure: `n × n` SPSC B-queues plus per-consumer scan
/// cursors for fair auxiliary-queue polling.
///
/// # Roles
///
/// The `unsafe` methods carry the lattice-wide SPSC contract: a thread may
/// call producer-role methods only for its own producer index and
/// consumer-role methods only for its own consumer index, and each index
/// must be owned by at most one thread at a time. The runtime establishes
/// this by construction (worker `w` ⇒ producer `w` and consumer `w`).
pub struct XQueueLattice<T> {
    n: usize,
    /// Row-major: `queues[consumer * n + producer]`.
    queues: Box<[BQueue<T>]>,
    /// Per-consumer rotating cursor over auxiliary producers, each on
    /// lines of its own.
    scan: Box<[CachePadded<UnsafeCell<usize>>]>,
}

// SAFETY: element pointers move between threads; the per-queue role
// contracts are delegated to the unsafe methods.
unsafe impl<T: Send> Send for XQueueLattice<T> {}
// SAFETY: through a shared reference every queue and scan cursor is
// reached only by the `unsafe` methods, whose producer/consumer role
// contracts give each role (a cursor is its consumer's) one thread.
unsafe impl<T: Send> Sync for XQueueLattice<T> {}

impl<T> XQueueLattice<T> {
    /// Builds a lattice for `n` workers with `capacity` slots per queue
    /// (the paper's `S_queue`).
    pub fn new(n: usize, capacity: usize) -> Self {
        assert!(n >= 1, "a lattice needs at least one worker");
        let queues = (0..n * n)
            .map(|_| BQueue::with_capacity(capacity))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let scan = (0..n)
            .map(|_| CachePadded(UnsafeCell::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        XQueueLattice { n, queues, scan }
    }

    /// Number of workers (`n`); the lattice holds `n²` queues.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.n
    }

    /// Capacity of each individual SPSC queue.
    #[inline]
    pub fn queue_capacity(&self) -> usize {
        self.queues[0].capacity()
    }

    #[inline]
    fn q(&self, consumer: usize, producer: usize) -> &BQueue<T> {
        debug_assert!(consumer < self.n && producer < self.n);
        &self.queues[consumer * self.n + producer]
    }

    /// Pushes `item` into queue `(consumer, producer)`; on a full queue the
    /// item is handed back (the runtime then executes it immediately —
    /// the paper's overflow rule).
    ///
    /// # Safety
    ///
    /// The calling thread must own producer role `producer`.
    #[inline]
    pub unsafe fn push(
        &self,
        producer: usize,
        consumer: usize,
        item: NonNull<T>,
    ) -> Result<(), NonNull<T>> {
        // SAFETY: forwarded producer-role contract.
        unsafe { self.q(consumer, producer).enqueue(item) }
    }

    /// Pops the next task for worker `consumer`: master queue first, then
    /// the auxiliary queues in rotating order (so a single busy producer
    /// cannot starve the others).
    ///
    /// # Safety
    ///
    /// The calling thread must own consumer role `consumer`.
    #[inline]
    pub unsafe fn pop(&self, consumer: usize) -> Option<NonNull<T>> {
        // Master queue first (paper §II-B).
        // SAFETY: forwarded consumer-role contract.
        if let Some(item) = unsafe { self.q(consumer, consumer).dequeue() } {
            return Some(item);
        }
        if self.n == 1 {
            return None;
        }
        // SAFETY: scan cursor is consumer-private under the role contract.
        let cursor = unsafe { &mut *self.scan[consumer].0.get() };
        for i in 0..self.n - 1 {
            let mut p = (*cursor + i) % (self.n - 1);
            // Map 0..n-1 onto producers != consumer.
            if p >= consumer {
                p += 1;
            }
            // SAFETY: forwarded consumer-role contract.
            if let Some(item) = unsafe { self.q(consumer, p).dequeue() } {
                *cursor = (*cursor + i + 1) % (self.n - 1);
                return Some(item);
            }
        }
        None
    }

    /// Producer-side hint that queue `(consumer, producer)` cannot accept
    /// another item (`isTargetQFull` in Alg. 3/4).
    ///
    /// # Safety
    ///
    /// The calling thread must own producer role `producer`.
    #[inline]
    pub unsafe fn is_full_hint(&self, producer: usize, consumer: usize) -> bool {
        // SAFETY: forwarded producer-role contract.
        unsafe { self.q(consumer, producer).is_full_hint() }
    }

    /// Consumer-side hint that worker `consumer` currently sees no tasks in
    /// any of its queues (`isMyQEmpty` in Alg. 4). May be stale.
    ///
    /// # Safety
    ///
    /// The calling thread must own consumer role `consumer`.
    pub unsafe fn is_empty_hint(&self, consumer: usize) -> bool {
        for p in 0..self.n {
            // SAFETY: forwarded consumer-role contract.
            if !unsafe { self.q(consumer, p).is_empty_hint() } {
                return false;
            }
        }
        true
    }

    /// Drains every queue of row `consumer`, handing each element to `f`.
    /// Used at team teardown (after quiescence) and in tests.
    ///
    /// # Safety
    ///
    /// The calling thread must own consumer role `consumer`, and the
    /// producers of the drained queues must have stopped producing.
    pub unsafe fn drain_with(&self, consumer: usize, mut f: impl FnMut(NonNull<T>)) {
        for p in 0..self.n {
            // SAFETY: forwarded consumer-role contract.
            while let Some(item) = unsafe { self.q(consumer, p).dequeue() } {
                f(item);
            }
        }
    }
}

/// Round-robin push-target generator implementing the paper's static load
/// balancing order: "a round-robin approach across these queues starting
/// with the master queue" (§II-B).
///
/// Owned by a single producer; plain state, no synchronization.
#[derive(Debug, Clone)]
pub struct PushCursor {
    owner: usize,
    n: usize,
    step: usize,
}

impl PushCursor {
    /// Cursor for producer `owner` in a team of `n`.
    pub fn new(n: usize, owner: usize) -> Self {
        assert!(owner < n);
        PushCursor { owner, n, step: 0 }
    }

    /// Next target consumer: `owner, owner+1, …, owner-1, owner, …`.
    ///
    /// (Deliberately named after the paper's cursor operation; the cursor
    /// is an infinite generator, not an `Iterator`.)
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> usize {
        let t = (self.owner + self.step) % self.n;
        self.step = (self.step + 1) % self.n;
        t
    }

    /// Resets so the next target is the master queue again.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// The producer this cursor belongs to.
    #[inline]
    pub fn owner(&self) -> usize {
        self.owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn leak(v: u64) -> NonNull<u64> {
        NonNull::new(Box::into_raw(Box::new(v))).unwrap()
    }

    unsafe fn unleak(p: NonNull<u64>) -> u64 {
        *unsafe { Box::from_raw(p.as_ptr()) }
    }

    #[test]
    fn push_cursor_starts_with_master() {
        let mut c = PushCursor::new(4, 2);
        let seq: Vec<usize> = (0..8).map(|_| c.next()).collect();
        assert_eq!(seq, vec![2, 3, 0, 1, 2, 3, 0, 1]);
        c.reset();
        assert_eq!(c.next(), 2);
    }

    #[test]
    fn single_worker_lattice() {
        let l = XQueueLattice::<u64>::new(1, 8);
        unsafe {
            l.push(0, 0, leak(7)).unwrap();
            assert_eq!(unleak(l.pop(0).unwrap()), 7);
            assert!(l.pop(0).is_none());
        }
    }

    #[test]
    fn master_queue_has_priority() {
        let l = XQueueLattice::<u64>::new(2, 8);
        unsafe {
            // Producer 1 fills consumer 0's aux queue; then producer 0
            // pushes to its own master queue. Master must come out first.
            l.push(1, 0, leak(100)).unwrap();
            l.push(0, 0, leak(1)).unwrap();
            assert_eq!(unleak(l.pop(0).unwrap()), 1);
            assert_eq!(unleak(l.pop(0).unwrap()), 100);
        }
    }

    #[test]
    fn aux_scan_rotates_between_producers() {
        let l = XQueueLattice::<u64>::new(3, 8);
        unsafe {
            // Producers 1 and 2 each push two items for consumer 0.
            l.push(1, 0, leak(10)).unwrap();
            l.push(1, 0, leak(11)).unwrap();
            l.push(2, 0, leak(20)).unwrap();
            l.push(2, 0, leak(21)).unwrap();
            // Rotating scan should alternate producers rather than
            // draining producer 1 first.
            let a = unleak(l.pop(0).unwrap());
            let b = unleak(l.pop(0).unwrap());
            assert_ne!(a / 10, b / 10, "scan did not rotate: {a}, {b}");
            let mut rest = vec![unleak(l.pop(0).unwrap()), unleak(l.pop(0).unwrap())];
            rest.sort_unstable();
            let mut all = vec![a, b];
            all.extend(rest);
            all.sort_unstable();
            assert_eq!(all, vec![10, 11, 20, 21]);
        }
    }

    #[test]
    fn overflow_hands_item_back() {
        let l = XQueueLattice::<u64>::new(2, 2);
        unsafe {
            assert!(l.push(0, 1, leak(0)).is_ok());
            assert!(l.push(0, 1, leak(1)).is_ok());
            assert!(l.is_full_hint(0, 1));
            match l.push(0, 1, leak(2)) {
                Err(p) => {
                    assert_eq!(unleak(p), 2);
                }
                Ok(()) => panic!("queue of capacity 2 accepted 3 items"),
            }
            l.drain_with(1, |p| {
                unleak(p);
            });
        }
    }

    /// Multi-threaded conservation: n workers each produce into the
    /// lattice round-robin and consume their own rows; every produced
    /// item is consumed exactly once.
    #[test]
    fn mpmc_conservation_stress() {
        const WORKERS: usize = 4;
        const PER_WORKER: usize = 20_000;
        let l = Arc::new(XQueueLattice::<u64>::new(WORKERS, 64));
        let consumed = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));

        let mut handles = Vec::new();
        for w in 0..WORKERS {
            let l = l.clone();
            let consumed = consumed.clone();
            let sum = sum.clone();
            handles.push(std::thread::spawn(move || {
                let mut cursor = PushCursor::new(WORKERS, w);
                let mut produced = 0usize;
                let mut local_consumed = 0usize;
                let mut local_sum = 0usize;
                let mut backoff = crate::Backoff::new();
                while produced < PER_WORKER || local_consumed_target(&l, w) {
                    if produced < PER_WORKER {
                        let value = (w * PER_WORKER + produced) as u64;
                        let target = cursor.next();
                        // SAFETY: this thread owns producer role `w`.
                        match unsafe { l.push(w, target, leak(value)) } {
                            Ok(()) => produced += 1,
                            Err(p) => {
                                // Overflow rule: "execute immediately".
                                local_sum += unsafe { unleak(p) } as usize;
                                local_consumed += 1;
                                produced += 1;
                            }
                        }
                    }
                    // SAFETY: this thread owns consumer role `w`.
                    while let Some(p) = unsafe { l.pop(w) } {
                        local_sum += unsafe { unleak(p) } as usize;
                        local_consumed += 1;
                        backoff.reset();
                    }
                    backoff.snooze();
                }
                consumed.fetch_add(local_consumed, Ordering::SeqCst);
                sum.fetch_add(local_sum, Ordering::SeqCst);
            }));
        }

        // Helper: keep looping while this worker might still receive items.
        fn local_consumed_target(_l: &XQueueLattice<u64>, _w: usize) -> bool {
            false // producers drain their own leftovers below
        }

        for h in handles {
            h.join().unwrap();
        }
        // Drain anything left in flight (single-threaded now, roles free).
        let mut leftovers = 0usize;
        let mut leftover_sum = 0usize;
        for w in 0..WORKERS {
            unsafe {
                l.drain_with(w, |p| {
                    leftover_sum += unleak(p) as usize;
                    leftovers += 1;
                });
            }
        }
        let total = consumed.load(Ordering::SeqCst) + leftovers;
        assert_eq!(total, WORKERS * PER_WORKER);
        let expected_sum: usize = (0..WORKERS * PER_WORKER).sum();
        assert_eq!(sum.load(Ordering::SeqCst) + leftover_sum, expected_sum);
    }
}
