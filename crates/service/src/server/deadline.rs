//! Deadlines: the pending set a deadline job is registered into at
//! admission and leaves when its wrapper drains it, and the serve loop's
//! sweep that sheds or cancels what has expired. An entry holds a
//! reference to the job's record, so it must not outlive the job.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::handle::JobRef;
use crate::locked;
use xgomp_core::{clock, EventKind, TaskCtx, TraceLevel};

pub(super) struct Deadlines {
    /// Pending deadlines keyed `(tick, job id)`, earliest first; each
    /// entry holds a reference to its job's record.
    pending: Mutex<BTreeMap<(u64, u64), JobRef>>,
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
    pub(super) fn register(&self, tick: u64, id: u64, job: JobRef) {
        let mut pending = locked(&self.pending);
        pending.insert((tick, id), job);
        // Under the lock, like the sweep's re-cache below: a concurrent
        // sweep can then never overwrite this tick with a stale "empty".
        self.next.fetch_min(tick, Ordering::Relaxed);
    }

    /// Drops job `id`'s entry, if the sweep has not taken it: the job
    /// wrapper's last act for a deadline job, so a resolved job's record
    /// is not kept alive until its tick. A stale `next` left behind
    /// costs one empty sweep.
    pub(super) fn remove(&self, tick: u64, id: u64) {
        locked(&self.pending).remove(&(tick, id));
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
        // Expire outside the lock: a shed takes the job's slot lock, and
        // a joiner's wake must not serialize against deadline
        // registration.
        for ((tick, id), job) in due {
            if job.expire() {
                ctx.trace_emit(TraceLevel::Lifecycle, EventKind::DeadlineMiss, 0, id, tick);
            }
        }
    }
}

#[cfg(test)]
impl Deadlines {
    /// Entries still pending.
    pub(super) fn len(&self) -> usize {
        locked(&self.pending).len()
    }
}
