//! Cooperative cancellation: per-job [`CancelToken`]s checked at
//! chunk-claim and taskwait boundaries.
//!
//! Cancellation is *cooperative*: nothing preempts a running body.
//! A token is installed on the job's root task (and inherited by every
//! task it spawns); workers poll it at the runtime's natural scheduling
//! points — loop drain tasks before every chunk (the state; the deadline
//! once per timing window), `taskwait` after its quiescence wait, static
//! loop blocks every few hundred iterations. A fired token makes
//! loop-drain tasks abandon their reserve and the remaining pool ranges
//! (conserved into `cancelled_iters`) and makes the next checkpoint
//! unwind with a [`CancelUnwind`] payload, which panic isolation turns
//! into a typed job error instead of a worker death.
//!
//! Tokens fire for two reasons ([`CancelReason`]): an explicit
//! `JobHandle::cancel`, or a deadline tick carried by the token itself —
//! [`CancelToken::poll`] promotes an expired deadline into the fired
//! state, so deadline enforcement needs no extra plumbing at the
//! checkpoints.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use xgomp_profiling::clock;

const LIVE: u32 = 0;
const CANCELLED: u32 = 1;
const DEADLINE: u32 = 2;

/// Why a [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// `JobHandle::cancel` (or another explicit [`CancelToken::cancel`]).
    Cancelled,
    /// The token's deadline tick passed.
    DeadlineExceeded,
}

struct TokenInner {
    /// `LIVE` / `CANCELLED` / `DEADLINE`. Monotone: once non-live it
    /// never goes back, and the first writer's reason wins.
    state: AtomicU32,
    /// Deadline in [`clock::now`] ticks; `u64::MAX` = no deadline.
    deadline: u64,
}

/// A shared cancellation flag for one job, cloned into every task the
/// job spawns. [`is_fired`](Self::is_fired) is one load;
/// [`poll`](Self::poll) adds a clock read for the deadline compare, and
/// [`poll_at`](Self::poll_at) takes the reading from the caller.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> Self {
        Self::with_deadline_tick(u64::MAX)
    }

    /// A live token that fires on its own once `clock::now()` passes
    /// `deadline` (in clock ticks; `u64::MAX` = never).
    pub fn with_deadline_tick(deadline: u64) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                state: AtomicU32::new(LIVE),
                deadline,
            }),
        }
    }

    /// Fires the token with [`CancelReason::Cancelled`]. Idempotent;
    /// a reason already recorded (either kind) is kept.
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            LIVE,
            CANCELLED,
            Ordering::Release,
            Ordering::Relaxed,
        );
    }

    /// Fires the token with [`CancelReason::DeadlineExceeded`] (used by
    /// the serve-loop deadline sweep on already-running jobs).
    pub fn expire(&self) {
        let _ =
            self.inner
                .state
                .compare_exchange(LIVE, DEADLINE, Ordering::Release, Ordering::Relaxed);
    }

    /// The deadline tick, if this token carries one.
    pub fn deadline_tick(&self) -> Option<u64> {
        (self.inner.deadline != u64::MAX).then_some(self.inner.deadline)
    }

    /// Checkpoint poll: the fired reason, if any. Promotes an expired
    /// deadline into the fired state as a side effect, so a token with a
    /// deadline fires even if nobody ever calls [`expire`](Self::expire).
    #[inline]
    pub fn poll(&self) -> Option<CancelReason> {
        self.poll_at(clock::now())
    }

    /// [`poll`](Self::poll) against a clock reading the caller already
    /// holds: the deadline fires iff `now` has reached it. The loop
    /// drain path reads the clock once per timing window and checks the
    /// deadline with that reading; between windows it only loads the
    /// state ([`is_fired`](Self::is_fired)).
    #[inline]
    pub fn poll_at(&self, now: u64) -> Option<CancelReason> {
        match self.inner.state.load(Ordering::Acquire) {
            CANCELLED => Some(CancelReason::Cancelled),
            DEADLINE => Some(CancelReason::DeadlineExceeded),
            _ => {
                if self.inner.deadline != u64::MAX && now >= self.inner.deadline {
                    self.expire();
                    Some(CancelReason::DeadlineExceeded)
                } else {
                    None
                }
            }
        }
    }

    /// Whether the token has fired (without promoting deadlines).
    #[inline]
    pub fn is_fired(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) != LIVE
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("fired", &self.poll())
            .field("deadline", &self.deadline_tick())
            .finish()
    }
}

/// The unwind payload raised at a cancellation checkpoint. Panic
/// isolation (`isolate_panics` teams — the task server always) catches
/// it like any panic; the service layer downcasts it to complete the
/// job's handle with a typed error instead of a `JobPanic`
/// (crate `xgomp-service`) message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelUnwind(pub CancelReason);

/// Raises the cancellation unwind for `reason`. `resume_unwind` rather
/// than `panic!`, so the default panic hook stays silent — a cancelled
/// job is not an error worth a backtrace.
#[cold]
pub fn raise_cancel(reason: CancelReason) -> ! {
    std::panic::resume_unwind(Box::new(CancelUnwind(reason)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_fires_once_and_first_reason_wins() {
        let t = CancelToken::new();
        assert_eq!(t.poll(), None);
        assert!(!t.is_fired());
        t.cancel();
        t.expire(); // lost: the cancel got there first
        assert_eq!(t.poll(), Some(CancelReason::Cancelled));
        assert!(t.is_fired());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert_eq!(t.poll(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn deadline_promotes_on_poll() {
        let t = CancelToken::with_deadline_tick(1); // long past
        assert_eq!(t.poll(), Some(CancelReason::DeadlineExceeded));
        assert!(t.is_fired(), "poll promoted the expiry into the state");
        let far = CancelToken::with_deadline_tick(u64::MAX - 1);
        assert_eq!(far.poll(), None);
        assert_eq!(far.deadline_tick(), Some(u64::MAX - 1));
        assert_eq!(CancelToken::new().deadline_tick(), None);
    }

    #[test]
    fn poll_at_fires_iff_now_reached_the_deadline() {
        let t = CancelToken::with_deadline_tick(1_000);
        assert_eq!(t.poll_at(999), None);
        assert!(!t.is_fired(), "an early reading promotes nothing");
        assert_eq!(t.poll_at(1_000), Some(CancelReason::DeadlineExceeded));
        assert!(t.is_fired(), "the promotion is in the state");
        // Promoted once: a later, *earlier* reading cannot un-fire it,
        // and an explicit cancel cannot re-label it.
        assert_eq!(t.poll_at(0), Some(CancelReason::DeadlineExceeded));
        t.cancel();
        assert_eq!(t.poll_at(0), Some(CancelReason::DeadlineExceeded));
        // Agreement with `expire`: the sweep and the checkpoint write the
        // same state, and whichever reason landed first is what every
        // reading returns.
        let swept = CancelToken::with_deadline_tick(1_000);
        swept.expire();
        assert_eq!(swept.poll_at(0), t.poll_at(0));
        let cancelled = CancelToken::with_deadline_tick(1_000);
        cancelled.cancel();
        assert_eq!(cancelled.poll_at(5_000), Some(CancelReason::Cancelled));
        // No deadline: no reading fires it.
        assert_eq!(CancelToken::new().poll_at(u64::MAX), None);
    }

    #[test]
    fn raise_is_catchable_and_downcasts() {
        let caught = std::panic::catch_unwind(|| raise_cancel(CancelReason::DeadlineExceeded))
            .unwrap_err()
            .downcast::<CancelUnwind>()
            .expect("payload is CancelUnwind");
        assert_eq!(caught.0, CancelReason::DeadlineExceeded);
    }
}
