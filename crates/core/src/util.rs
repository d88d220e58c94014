//! Small internal utilities: cache padding and per-worker mutable slots.

use std::cell::UnsafeCell;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, tolerating poison. Every mutex in this crate guards state
/// that is valid at each step of every update (registries, selection
/// tables, counters) and no task body ever runs under one, so a panic
/// that poisoned the lock left nothing torn — recover the guard instead
/// of cascading the panic.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pads a value to two cache lines (128 B covers adjacent-line
/// prefetching on modern Intel parts) to prevent false sharing between
/// per-worker state blocks.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct CachePadded<T>(pub T);

/// An array of per-worker mutable slots.
///
/// Slot `w` is owned by the thread currently acting as worker `w`; all
/// accesses go through [`with`](Self::with), which hands out a short-lived
/// `&mut` under that ownership contract. This is the Rust rendering of
/// the paper's thread-private runtime state (round-robin cursors, RNGs,
/// redirect-push state, performance logs).
pub(crate) struct PerWorker<T> {
    slots: Box<[CachePadded<UnsafeCell<T>>]>,
}

// SAFETY: cross-thread access is governed by the worker-ownership
// contract on `with`; `T: Send` makes handing the slot to its (single)
// owning thread sound.
unsafe impl<T: Send> Sync for PerWorker<T> {}
unsafe impl<T: Send> Send for PerWorker<T> {}

impl<T> PerWorker<T> {
    /// Builds `n` slots from `init`.
    pub fn new(n: usize, mut init: impl FnMut(usize) -> T) -> Self {
        PerWorker {
            slots: (0..n)
                .map(|w| CachePadded(UnsafeCell::new(init(w))))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Runs `f` with exclusive access to worker `w`'s slot.
    ///
    /// # Safety
    ///
    /// The calling thread must be the owner of worker slot `w`, and `f`
    /// must not re-enter `with` for the same slot (no aliasing `&mut`).
    /// Every call site in this crate is a leaf operation (push an event,
    /// draw a random number, advance a cursor) that cannot re-enter.
    #[inline]
    pub unsafe fn with<R>(&self, w: usize, f: impl FnOnce(&mut T) -> R) -> R {
        // SAFETY: ownership + no-reentrancy contract forwarded to caller.
        f(unsafe { &mut *self.slots[w].0.get() })
    }

    /// Iterates over all slots mutably. Safe: `&mut self` proves no
    /// worker thread can be touching any slot.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|c| c.0.get_mut())
    }

    /// Consumes the structure, yielding the slot values (post-join
    /// collection of logs).
    pub fn into_values(self) -> Vec<T> {
        self.slots
            .into_vec()
            .into_iter()
            .map(|c| c.0.into_inner())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_worker_slots_are_independent() {
        let pw = PerWorker::new(4, |w| w * 10);
        unsafe {
            pw.with(1, |v| *v += 1);
            pw.with(3, |v| *v += 3);
            assert_eq!(pw.with(0, |v| *v), 0);
            assert_eq!(pw.with(1, |v| *v), 11);
            assert_eq!(pw.with(3, |v| *v), 33);
        }
        assert_eq!(pw.into_values(), vec![0, 11, 20, 33]);
    }

    #[test]
    fn padding_prevents_adjacent_slots_sharing_lines() {
        let pw = PerWorker::new(2, |_| 0u8);
        let a = pw.slots[0].0.get() as usize;
        let b = pw.slots[1].0.get() as usize;
        assert!(b.abs_diff(a) >= 128);
    }
}
