//! Deadlines: the pending set the job wrapper registers into and the
//! serve loop's sweep that sheds or cancels what has expired.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::locked;
use xgomp_core::{clock, EventKind, TaskCtx, TraceLevel};

/// Sheds the job when still queued / fires its token when running,
/// returning whether this sweep was the first to act (so the serve loop
/// emits exactly one `DeadlineMiss` event per missed job).
pub(super) type Fire = Box<dyn FnOnce() -> bool + Send>;

pub(super) struct Deadlines {
    /// Pending deadlines keyed `(tick, job id)`: earliest first.
    pending: Mutex<BTreeMap<(u64, u64), Fire>>,
    /// Cache of the earliest pending tick (`u64::MAX` = none): the serve
    /// loop's sweep gate is one relaxed load + one clock read.
    next: AtomicU64,
}

impl Default for Deadlines {
    fn default() -> Self {
        Deadlines {
            pending: Mutex::new(BTreeMap::new()),
            next: AtomicU64::new(u64::MAX),
        }
    }
}

impl Deadlines {
    /// Queues job `id`'s deadline for the serve loop's sweep.
    pub(super) fn register(&self, tick: u64, id: u64, fire: Fire) {
        let mut pending = locked(&self.pending);
        pending.insert((tick, id), fire);
        // Under the lock, like the sweep's re-cache below: a concurrent
        // sweep can then never overwrite this tick with a stale "empty".
        self.next.fetch_min(tick, Ordering::Relaxed);
    }

    /// The serve loop's deadline sweep: one relaxed load + one clock
    /// read while nothing is due. Expired *queued* jobs are shed on the
    /// spot (their handles resolve here, their ring slots drain
    /// normally); expired *running* jobs get their token fired and
    /// cancel cooperatively at the next checkpoint. Emits one
    /// `DeadlineMiss` per job whose deadline this sweep was first to
    /// act on.
    pub(super) fn sweep(&self, ctx: &TaskCtx<'_>) {
        let now = clock::now();
        if now < self.next.load(Ordering::Relaxed) {
            return;
        }
        let due = {
            let mut pending = locked(&self.pending);
            let later = pending.split_off(&(now.saturating_add(1), 0));
            self.next.store(
                later.keys().next().map_or(u64::MAX, |&(tick, _)| tick),
                Ordering::Relaxed,
            );
            std::mem::replace(&mut *pending, later)
        };
        // Fire outside the lock: `fire` takes the job-state mutex when
        // it sheds, and a joiner's callback must not serialize against
        // deadline registration.
        for ((tick, id), fire) in due {
            if fire() {
                ctx.trace_emit(TraceLevel::Lifecycle, EventKind::DeadlineMiss, 0, id, tick);
            }
        }
    }
}
