//! The worker: one team seat, as a value.
//!
//! The paper's runtime is lock-less because every hot word has exactly
//! one writer (XQueue's SPSC lattice §II-B, the tree barrier's per-worker
//! cells §III-B, a DLB protocol whose thief touches only the victim's
//! message cell §IV-B). A [`Worker`] is that discipline as ownership
//! instead of as a promise about an index:
//!
//! * **What it owns** — by value, everything only this worker writes: its
//!   scheduler [`Seat`] (lattice row, round-robin cursor, DLB
//!   thief/redirect state and RNG — or the LOMP deque's owner end), its
//!   allocator seat (local free list and allocation ledger) and its
//!   [`PerfLog`]; by reference, its own seat of each per-worker cell the
//!   team claimed (§V counters, sampler lane, trace ring), resolved once
//!   here so no record path looks anything up. What several workers
//!   write stays in [`TeamShared`], behind atomics or locks.
//! * **Who builds it** — the worker's own thread, once per region:
//!   `parked_worker` for workers `1..n` and `master_main` for worker 0,
//!   right after the `StartGate` generation that handed the thread its
//!   team. The scheduler's seat claim panics on a second claim of the
//!   same index, so two `Worker`s of one team never alias — including
//!   across nested and overlapping regions, where a thread that is worker
//!   `k` of an outer team is worker 0 of an inner one: each team has its
//!   own claims, and each `Worker` names its team.
//! * **Why `!Sync`** — its state sits in `Cell`/`RefCell`, so the compiler
//!   rejects sharing a `&Worker` (and therefore a `TaskCtx`, which is one
//!   plus a task pointer) with another thread; and because no borrow of
//!   that state is ever held across a task body, the nested `execute`
//!   frames of the immediate-execution and help-first paths cannot
//!   re-enter one — a violation would be a `RefCell` panic, not a data
//!   race.
//!
//! Dropping the worker is its retirement: the log goes back to the team
//! (`RegionOutput::logs`), the ledger folds into the allocator's totals
//! and the free list into its global pool.

use std::cell::RefCell;

use xgomp_profiling::{clock, EventKind, PerfLog, TaskLane, TraceLevel, WorkerStats};
use xgomp_xqueue::EventRing;

use super::TeamShared;
use crate::alloc::AllocSeat;
use crate::sched::Seat;
use crate::util::locked;

/// Worker `id` of `team`, on the thread that claimed it.
pub(crate) struct Worker<'t> {
    pub team: &'t TeamShared,
    pub id: usize,
    pub seat: Box<dyn Seat + 't>,
    pub alloc: AllocSeat<'t>,
    pub(super) log: RefCell<PerfLog>,
    /// This worker's §V counter block.
    pub stats: &'t WorkerStats,
    /// This worker's live-sampler lane, when the team samples.
    pub lane: Option<&'t TaskLane>,
    /// This worker's flight-recorder ring, when the team traces.
    pub ring: Option<&'t EventRing>,
}

impl<'t> Worker<'t> {
    /// Claims seat `id` of `team` for the calling thread.
    ///
    /// # Panics
    ///
    /// If seat `id` of this team was claimed before.
    pub(super) fn claim(team: &'t TeamShared, id: usize) -> Self {
        let stats = team.stats.seat(id);
        Worker {
            team,
            id,
            seat: team.sched.seat(id, stats),
            alloc: team.alloc.seat(id),
            log: RefCell::new(PerfLog::new(id, team.profiling)),
            stats,
            lane: team.sampler.as_ref().map(|l| l.seat(id)),
            ring: team.rings.as_ref().map(|r| r.seat(id)),
        }
    }

    /// Records a profiling span ending now (no-op when profiling is off).
    #[inline]
    pub(crate) fn log_span(&self, kind: EventKind, t0: u64) {
        if self.team.profiling {
            self.log.borrow_mut().push_span(kind, t0, clock::now());
        }
    }

    /// Emits one flight-recorder record when the live level admits
    /// `min`. The emit itself is four relaxed stores plus one release
    /// publish into this worker's own SPSC ring — no RMW, no lock.
    #[inline]
    pub(crate) fn trace_emit(&self, min: TraceLevel, kind: EventKind, a: u32, b: u64, c: u64) {
        if let Some(ring) = self.ring.filter(|_| self.team.trace_on(min)) {
            ring.emit(clock::now(), kind as u8, a, b, c);
        }
    }
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        let log = std::mem::replace(self.log.get_mut(), PerfLog::new(self.id, false));
        locked(&self.team.logs).push(log);
    }
}
