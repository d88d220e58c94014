//! Per-thread statistical counters (§V).
//!
//! Each worker owns one [`WorkerStats`] block: its claimed seat of the
//! team's [`Cells`](xgomp_xqueue::Cells), padded so no two workers'
//! blocks share a cache line, and summed on read ([`TeamStats`]).
//! Counters are `AtomicU64` its single writer updates with
//! [`bump`](xgomp_xqueue::bump) — a relaxed load + store, the cost of a
//! plain add, but safely readable by the harness from any thread. The
//! full §V counter list is reproduced, including the DLB-specific
//! request/steal accounting that Tables II and III report.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};
use xgomp_topology::Locality;
use xgomp_xqueue::bump;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Live counter block owned by one worker (single-writer,
        /// any-reader).
        #[derive(Debug, Default)]
        pub struct WorkerStats {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// Plain-value snapshot of a [`WorkerStats`] block.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl WorkerStats {
            /// Copies every counter with `Relaxed` loads.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl StatsSnapshot {
            /// Element-wise sum (team aggregation).
            pub fn add(&mut self, other: &StatsSnapshot) {
                $(self.$name += other.$name;)+
            }
        }
    };
}

counters! {
    /// Tasks created by this worker (`GOMP_TASK` occurrences).
    tasks_created,
    /// Tasks executed by this worker.
    tasks_executed,
    /// Executed tasks that were created by this same worker
    /// (`NTASKS_SELF`).
    ntasks_self,
    /// Executed tasks created by another worker in the same NUMA zone
    /// (`NTASKS_LOCAL`).
    ntasks_local,
    /// Executed tasks created in another NUMA zone (`NTASKS_REMOTE`).
    ntasks_remote,
    /// Tasks pushed by the static round-robin balancer
    /// (`NTASKS_STATIC_PUSH`).
    ntasks_static_push,
    /// Tasks executed immediately because the target queue was full
    /// (`NTASKS_IMM_EXEC`).
    ntasks_imm_exec,
    /// Steal requests sent while this worker was a thief (`NREQ_SENT`).
    nreq_sent,
    /// Requests this worker handled as a victim (`NREQ_HANDLED`).
    nreq_handled,
    /// Handled requests that moved at least one task
    /// (`NREQ_HAS_STEAL`).
    nreq_has_steal,
    /// Handled requests that failed because the victim's queues were
    /// empty (`NREQ_SRC_EMPTY`).
    nreq_src_empty,
    /// Handled requests that failed because the thief's queue was full
    /// (`NREQ_TARGET_FULL`).
    nreq_target_full,
    /// Tasks migrated away from this worker by DLB (`NTASKS_STOLEN`).
    ntasks_stolen,
    /// Of the stolen tasks, how many went to a NUMA-local thief.
    nsteal_local,
    /// Of the stolen tasks, how many went to a NUMA-remote thief.
    nsteal_remote,
    /// Loop chunks executed by this worker (`parallel_for`).
    nloop_chunks,
    /// Loop iterations executed by this worker.
    nloop_iters,
    /// Of the executed chunks, how many were claimed from the worker's
    /// own zone's range pool (the zone-local-first fast path).
    nloop_claim_local,
    /// Cross-zone range steal-splits performed by this worker (its own
    /// zone's pool ran dry; a remote pool's upper half was taken).
    nloop_range_steals,
    /// Loop iterations abandoned (never executed) because their loop was
    /// cancelled while ranges were still pooled. Conservation for a
    /// cancelled loop: `nloop_iters + nloop_cancelled_iters` accounts
    /// for every iteration of the range exactly once.
    nloop_cancelled_iters,
}

impl WorkerStats {
    /// Records the locality of an executed task (updates the
    /// self/local/remote triple and `tasks_executed`).
    #[inline]
    pub fn record_execution(&self, locality: Locality) {
        bump(&self.tasks_executed, 1);
        match locality {
            Locality::SelfCore => bump(&self.ntasks_self, 1),
            Locality::Local => bump(&self.ntasks_local, 1),
            Locality::Remote => bump(&self.ntasks_remote, 1),
        }
    }
}

/// Team-level aggregation of per-worker snapshots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TeamStats {
    /// One snapshot per worker, in worker order.
    pub workers: Vec<StatsSnapshot>,
}

impl TeamStats {
    /// Collects snapshots from live counter blocks, in worker order.
    pub fn collect<'a>(stats: impl IntoIterator<Item = &'a WorkerStats>) -> Self {
        TeamStats {
            workers: stats.into_iter().map(WorkerStats::snapshot).collect(),
        }
    }

    /// Element-wise total across the team (the numbers Tables II/III
    /// report).
    pub fn total(&self) -> StatsSnapshot {
        let mut acc = StatsSnapshot::default();
        for w in &self.workers {
            acc.add(w);
        }
        acc
    }

    /// Consistency invariants that must hold after any quiescent run.
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let t = self.total();
        if t.tasks_executed != t.ntasks_self + t.ntasks_local + t.ntasks_remote {
            return Err(format!(
                "executed {} != self {} + local {} + remote {}",
                t.tasks_executed, t.ntasks_self, t.ntasks_local, t.ntasks_remote
            ));
        }
        if t.nreq_handled > t.nreq_sent {
            return Err(format!("handled {} > sent {}", t.nreq_handled, t.nreq_sent));
        }
        if t.nreq_has_steal > t.nreq_handled {
            return Err(format!(
                "has_steal {} > handled {}",
                t.nreq_has_steal, t.nreq_handled
            ));
        }
        if t.nsteal_local + t.nsteal_remote != t.ntasks_stolen {
            return Err(format!(
                "steal locality {}+{} != stolen {}",
                t.nsteal_local, t.nsteal_remote, t.ntasks_stolen
            ));
        }
        if t.nloop_iters < t.nloop_chunks {
            return Err(format!(
                "loop iters {} < chunks {} (every chunk runs ≥ 1 iteration)",
                t.nloop_iters, t.nloop_chunks
            ));
        }
        if t.nloop_claim_local > t.nloop_chunks {
            return Err(format!(
                "local claims {} > chunks {}",
                t.nloop_claim_local, t.nloop_chunks
            ));
        }
        if t.nloop_range_steals > t.nloop_chunks {
            return Err(format!(
                "range steals {} > chunks {} (a thief executes ≥ 1 chunk per steal)",
                t.nloop_range_steals, t.nloop_chunks
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let s = WorkerStats::default();
        bump(&s.tasks_created, 1);
        bump(&s.ntasks_stolen, 5);
        bump(&s.nsteal_local, 5);
        s.record_execution(Locality::SelfCore);
        s.record_execution(Locality::Remote);
        let snap = s.snapshot();
        assert_eq!(snap.tasks_created, 1);
        assert_eq!(snap.tasks_executed, 2);
        assert_eq!(snap.ntasks_self, 1);
        assert_eq!(snap.ntasks_remote, 1);
        assert_eq!(snap.ntasks_stolen, 5);
    }

    #[test]
    fn team_total_and_invariants() {
        let blocks: Vec<WorkerStats> = (0..4).map(|_| WorkerStats::default()).collect();
        for b in &blocks {
            b.record_execution(Locality::Local);
            bump(&b.nreq_sent, 1);
        }
        bump(&blocks[0].nreq_handled, 1);
        let team = TeamStats::collect(&blocks);
        let total = team.total();
        assert_eq!(total.tasks_executed, 4);
        assert_eq!(total.ntasks_local, 4);
        assert_eq!(total.nreq_sent, 4);
        team.check_invariants().unwrap();
    }

    /// A block's seat starts a line and fills whole lines, so adjacent
    /// workers' per-task counters never share one.
    #[test]
    fn blocks_never_share_a_line() {
        use std::mem::{align_of, offset_of, size_of};
        use xgomp_xqueue::cells::Slot;
        assert_eq!(align_of::<Slot<WorkerStats>>(), 128);
        assert_eq!(size_of::<Slot<WorkerStats>>() % 128, 0);
        assert_eq!(offset_of!(Slot<WorkerStats>, 0), 0);
    }

    #[test]
    fn invariant_violations_are_reported() {
        let b = WorkerStats::default();
        bump(&b.tasks_executed, 1); // executed without locality
        let team = TeamStats::collect(&[b]);
        assert!(team.check_invariants().is_err());
    }
}
