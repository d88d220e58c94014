//! Exponential spin backoff for polling loops.
//!
//! Idle paths in the XGOMP runtime spin before they block: a kernel-assisted
//! wait costs more than the gap it covers when work arrives soon, and only
//! a worker whose backoff has saturated parks on the
//! [`Parker`](crate::Parker) (see [`IdleGate`](crate::IdleGate)). This
//! helper ramps the number of `spin_loop` hints up exponentially and, past
//! a threshold, yields the time slice so oversubscribed configurations
//! (more workers than cores — the common case in this reproduction's
//! virtual topology) still make global progress.

use std::hint;

/// Exponential backoff state for one polling site.
///
/// ```
/// use xgomp_xqueue::Backoff;
/// let mut b = Backoff::new();
/// for _ in 0..4 {
///     b.snooze(); // cheap spins first, `yield_now` once saturated
/// }
/// assert!(!b.is_completed() || Backoff::YIELD_LIMIT <= 4);
/// ```
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Steps of pure spinning before starting to yield to the OS.
    pub const SPIN_LIMIT: u32 = 6;
    /// Steps after which [`Backoff::is_completed`] reports saturation.
    pub const YIELD_LIMIT: u32 = 10;

    /// A fresh backoff at the cheapest setting.
    #[inline]
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Resets to the cheapest setting (call after useful work was found).
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Spins briefly; never yields. Use inside small bounded retry loops.
    #[inline]
    pub fn spin(&mut self) {
        for _ in 0..(1u32 << self.step.min(Self::SPIN_LIMIT)) {
            hint::spin_loop();
        }
        if self.step <= Self::SPIN_LIMIT {
            self.step += 1;
        }
    }

    /// Spins while cheap, then yields the time slice.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step <= Self::YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// Whether the backoff has saturated (caller may want to park or
    /// re-examine termination conditions more aggressively).
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step > Self::YIELD_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_after_yield_limit() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..=Backoff::YIELD_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn spin_never_exceeds_spin_limit() {
        let mut b = Backoff::new();
        for _ in 0..100 {
            b.spin();
        }
        // `spin` must not push the step into yield territory.
        assert!(b.step <= Backoff::SPIN_LIMIT + 1);
    }
}
