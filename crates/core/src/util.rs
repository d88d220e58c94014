//! Small internal utilities: poison-tolerant locking and cache padding.

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
/// the per-worker blocks of a shared array (barrier nodes, DLB message
/// cells) — state only its worker touches is not in such an array at
/// all, the worker owns it (`team::worker`).
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct CachePadded<T>(pub T);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_prevents_adjacent_slots_sharing_lines() {
        let slots = [CachePadded(0u8), CachePadded(0u8)];
        let a = &slots[0].0 as *const u8 as usize;
        let b = &slots[1].0 as *const u8 as usize;
        assert!(b.abs_diff(a) >= 128);
    }
}
