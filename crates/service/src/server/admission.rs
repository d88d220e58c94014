//! Admission control: the bounded in-flight window, the per-class QoS
//! quotas carved out of it, the typed refusal ([`SubmitError`]) and the
//! capacity handshake blocked submitters park on.

use std::sync::atomic::Ordering;
use std::time::Duration;

use super::lifecycle::{CLOSING, PAUSED};
use super::ServerShared;
use crate::{locked, QosClass};
use xgomp_core::LoopError;

/// Why a submission was rejected. Every variant hands the closure back,
/// so the caller can retry, re-route, or drop it — and, unlike the old
/// bare `Err(F)`, tell those cases apart:
///
/// * [`Backpressure`](Self::Backpressure) — the in-flight bound is
///   reached while serving; capacity frees as jobs complete, so *retry
///   soon* (or use the blocking `submit`, which parks until then).
/// * [`Paused`](Self::Paused) — the bound is reached while the server is
///   paused; no capacity frees until [`TaskServer::resume`], so retrying
///   in a loop is futile.
/// * [`Closed`](Self::Closed) — the server is shut down; give up.
/// * [`InvalidLoop`](Self::InvalidLoop) — a `submit_for` iteration space
///   failed loop validation ([`LoopError`], e.g. wider than 2⁶²
///   scheduling units); the job was never admitted and retrying the same
///   space can never succeed.
///
/// [`TaskServer::resume`]: super::TaskServer::resume
pub enum SubmitError<F> {
    /// In-flight bound reached while serving; retry after completions.
    Backpressure(F),
    /// In-flight bound reached while paused; resume frees capacity.
    Paused(F),
    /// The server is closed; the job can never be accepted.
    Closed(F),
    /// A `submit_for` iteration space was rejected by loop validation
    /// (terminal for this space; the carried [`LoopError`] says why).
    InvalidLoop(F, LoopError),
}

impl<F> SubmitError<F> {
    /// The rejected closure, for retry or disposal.
    pub fn into_inner(self) -> F {
        match self {
            SubmitError::Backpressure(f)
            | SubmitError::Paused(f)
            | SubmitError::Closed(f)
            | SubmitError::InvalidLoop(f, _) => f,
        }
    }

    /// Whether retrying after completions can succeed.
    pub fn is_backpressure(&self) -> bool {
        matches!(self, SubmitError::Backpressure(_))
    }

    /// Whether the rejection is the paused-at-capacity case.
    pub fn is_paused(&self) -> bool {
        matches!(self, SubmitError::Paused(_))
    }

    /// Whether the server is closed (terminal).
    pub fn is_closed(&self) -> bool {
        matches!(self, SubmitError::Closed(_))
    }

    /// Whether a `submit_for` iteration space failed loop validation,
    /// and why.
    pub fn loop_error(&self) -> Option<LoopError> {
        match self {
            SubmitError::InvalidLoop(_, e) => Some(*e),
            _ => None,
        }
    }

    fn variant_name(&self) -> &'static str {
        match self {
            SubmitError::Backpressure(_) => "Backpressure",
            SubmitError::Paused(_) => "Paused",
            SubmitError::Closed(_) => "Closed",
            SubmitError::InvalidLoop(..) => "InvalidLoop",
        }
    }
}

impl<F> std::fmt::Debug for SubmitError<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple(self.variant_name()).finish()
    }
}

impl<F> std::fmt::Display for SubmitError<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure(_) => {
                write!(f, "submission rejected: in-flight bound reached (retry)")
            }
            SubmitError::Paused(_) => write!(
                f,
                "submission rejected: server paused at capacity (resume frees it)"
            ),
            SubmitError::Closed(_) => write!(f, "submission rejected: task server is closed"),
            SubmitError::InvalidLoop(_, e) => write!(f, "submission rejected: {e}"),
        }
    }
}

impl<F> std::error::Error for SubmitError<F> {}

/// Why [`ServerShared::try_admit`] refused (payload-free, so the gate
/// itself is not generic over the closure type).
enum Refusal {
    /// A quota is exhausted.
    Full,
    Closed,
}

impl ServerShared {
    /// The class's admission bound on the shared `in_flight` counter:
    /// only latency-sensitive traffic may use the reserved tail.
    fn class_limit(&self, qos: QosClass) -> usize {
        match qos {
            QosClass::LatencySensitive => self.max_in_flight,
            _ => self.max_in_flight - self.ls_reserve,
        }
    }

    /// Releases `qos`'s class slot (Background only): the tail of every
    /// refusal and of the job wrapper's drain accounting.
    pub(super) fn release_class_slot(&self, qos: QosClass) {
        if qos == QosClass::Background {
            self.bg_in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Reserves one in-flight slot under `qos`'s quota, or reports why
    /// it could not (every slot it took released again).
    fn try_admit(&self, qos: QosClass) -> Result<(), Refusal> {
        if self.state.load(Ordering::SeqCst) == CLOSING {
            return Err(Refusal::Closed);
        }
        // Background first claims its class slot, then the shared one —
        // both released on any refusal below.
        if qos == QosClass::Background
            && self.bg_in_flight.fetch_add(1, Ordering::SeqCst) >= self.bg_cap
        {
            self.release_class_slot(qos);
            return Err(Refusal::Full);
        }
        let refusal = if self.in_flight.fetch_add(1, Ordering::SeqCst) >= self.class_limit(qos) {
            Refusal::Full
        } else if self.state.load(Ordering::SeqCst) == CLOSING {
            // Re-check after the admission increment: a shutdown that
            // read the counters before our increment rejects us here;
            // one that read after will wait for this job (see
            // `shutdown`).
            Refusal::Closed
        } else {
            return Ok(());
        };
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.release_class_slot(qos);
        Err(refusal)
    }

    /// The admission gate shared by every submission flavor: reserves an
    /// in-flight slot under `qos`'s quota and hands `payload` back, or
    /// counts the rejection and maps it onto the right [`SubmitError`]
    /// carrying the payload.
    pub(super) fn admit_or<F>(&self, qos: QosClass, payload: F) -> Result<F, SubmitError<F>> {
        let Err(refusal) = self.try_admit(qos) else {
            return Ok(payload);
        };
        self.rejected.fetch_add(1, Ordering::Relaxed);
        Err(match refusal {
            // At the bound, a paused server frees nothing until resume;
            // everything else clears like ordinary backpressure.
            Refusal::Full if self.state.load(Ordering::SeqCst) == PAUSED => {
                SubmitError::Paused(payload)
            }
            Refusal::Full => SubmitError::Backpressure(payload),
            Refusal::Closed => SubmitError::Closed(payload),
        })
    }

    /// Completion-side half of the blocked-submit handshake: one relaxed
    /// probe while nobody waits; a lock-bridged notify when someone does
    /// (the lock ensures the waiter is either still re-checking — and
    /// will see the decrement — or already waiting and gets the notify).
    pub(super) fn notify_capacity(&self) {
        if self.bp_waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        drop(locked(&self.bp_lock));
        self.bp_cv.notify_all();
    }

    /// Whether `qos`'s admission quota is exhausted right now (racy
    /// probe; the blocked-submit wait condition).
    fn admission_full(&self, qos: QosClass) -> bool {
        (qos == QosClass::Background && self.bg_in_flight.load(Ordering::SeqCst) >= self.bg_cap)
            || self.in_flight.load(Ordering::SeqCst) >= self.class_limit(qos)
    }

    /// Parks the calling submitter until in-flight capacity under
    /// `qos`'s quota may be free (or the server closes). The SeqCst
    /// waiter registration pairs with the completion path's SeqCst
    /// decrement (a Dekker handshake), so a wake-up cannot be lost; the
    /// timeout is a defensive re-probe, not a correctness requirement.
    pub(super) fn wait_capacity(&self, qos: QosClass) {
        self.bp_waiters.fetch_add(1, Ordering::SeqCst);
        {
            let mut guard = locked(&self.bp_lock);
            while self.admission_full(qos) && self.state.load(Ordering::SeqCst) != CLOSING {
                guard = crate::wait_timeout(&self.bp_cv, guard, Duration::from_millis(1));
            }
        }
        self.bp_waiters.fetch_sub(1, Ordering::SeqCst);
    }
}
