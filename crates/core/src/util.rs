//! Small internal utilities: poison-tolerant locking.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, tolerating poison. Every mutex in this crate guards state
/// that is valid at each step of every update (registries, selection
/// tables, counters) and no task body ever runs under one, so a panic
/// that poisoned the lock left nothing torn — recover the guard instead
/// of cascading the panic.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
