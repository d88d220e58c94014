//! The XGOMPTB hybrid distributed tree barrier (§III-B).
//!
//! Workers form a binary tree (worker `w`'s children are `2w+1`, `2w+2`).
//! Termination detection is fully distributed:
//!
//! * **Per-worker counters, lock-less.** Each worker counts the tasks it
//!   created and the tasks it executed in its own cache-line-padded
//!   cells, written with plain single-writer stores — *zero* atomic RMW
//!   per task, versus two `lock xadd`s per task for the XGOMP counter.
//! * **Lock-free gather.** When a worker is idle, its current task has no
//!   unfinished dependencies, and all of its children's subtrees have
//!   gathered, it publishes its subtree's (created, executed) sums and
//!   atomically sets its bit in the parent's complete mask — the one
//!   atomic RMW per worker per gather round ("a gathered worker
//!   atomically updates the complete flag of its parent"; this flag is
//!   shared by exactly one parent/child pair, so contention is minimal).
//! * **Lock-less release.** When the root observes a complete gather
//!   with `created == executed`, the system is quiescent (see proof
//!   sketch below) and the root broadcasts release down the tree with
//!   plain stores — each worker's release flag has a single writer (its
//!   parent), the paper's lock-less releasing.
//!
//! If the sums are unequal the root starts a new gather *round*; rounds
//! use parity-indexed complete masks so no reset can race with a
//! straggler from the previous round.
//!
//! ## Why "complete gather + equal sums" implies quiescence
//!
//! Each worker reports only while idle, and its report (made visible by
//! the release ordering of the gather hand-off) includes every counter
//! update it made before reporting. Suppose the round's sums are equal
//! but a task is live. Consider the earliest thing any worker did after
//! its report in this round: it can only be executing a task `t` that was
//! already published, so `t`'s creation was counted *before* some
//! worker's report (creation precedes publication precedes execution)
//! while `t`'s execution was not yet counted — hence created > executed
//! in this round's sums. Contradiction; equality therefore implies no
//! published-but-unexecuted task and no running task, i.e. quiescence.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use xgomp_xqueue::{bump, CachePadded};

use super::TeamBarrier;

/// Per-worker tree node. Padded: `created`/`executed` are the hot cells.
#[derive(Debug, Default)]
struct TreeNode {
    /// Tasks created by this worker (single-writer, plain stores).
    created: AtomicU64,
    /// Tasks executed by this worker (single-writer, plain stores).
    executed: AtomicU64,
    /// Parity-indexed gather masks; children `fetch_or` their bit
    /// (bit 1 = left child, bit 2 = right child). The lock-free half.
    complete: [AtomicU64; 2],
    /// Subtree sums, published before the bit is set in the parent.
    sub_created: AtomicU64,
    /// See `sub_created`.
    sub_executed: AtomicU64,
    /// Release flag; written only by this worker's parent (or the root
    /// for itself). The lock-less half.
    released: AtomicBool,
    /// Round bookkeeping: the last round this worker saw and whether it
    /// has reported in it. Read and written by this worker alone — like
    /// `created`/`executed`, single-writer relaxed cells, so the node
    /// needs no ownership promise from `try_release`'s caller.
    last_round: AtomicU64,
    /// See `last_round`.
    reported: AtomicBool,
}

/// The hybrid distributed tree barrier (XGOMPTB).
pub struct TreeBarrier {
    n: usize,
    nodes: Box<[CachePadded<TreeNode>]>,
    /// Current gather round; written only by the root worker.
    round: AtomicU64,
    /// Team idle parker, when the team runs event-driven idling. The
    /// gather needs every worker's report each round, and a parked
    /// worker reports nothing: a child therefore wakes its parent after
    /// the bit hand-off, and the root wakes the whole team when it
    /// starts a new round. Without these wakes a mid-gather park would
    /// stall termination detection forever.
    parker: Option<std::sync::Arc<xgomp_xqueue::Parker>>,
}

impl TreeBarrier {
    /// Barrier for a team of `n`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        TreeBarrier {
            n,
            nodes: (0..n).map(|_| CachePadded::default()).collect(),
            round: AtomicU64::new(1),
            parker: None,
        }
    }

    /// Attaches the team's idle parker (gather wake-ups; see the
    /// `parker` field).
    pub fn with_parker(mut self, parker: std::sync::Arc<xgomp_xqueue::Parker>) -> Self {
        self.parker = Some(parker);
        self
    }

    #[inline]
    fn children(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.n;
        [2 * w + 1, 2 * w + 2].into_iter().filter(move |&c| c < n)
    }

    /// Bit mask the children of `w` must set for a complete gather.
    #[inline]
    fn expected_mask(&self, w: usize) -> u64 {
        let mut m = 0;
        if 2 * w + 1 < self.n {
            m |= 1;
        }
        if 2 * w + 2 < self.n {
            m |= 2;
        }
        m
    }

    /// Propagates the release flag to `w`'s children (plain stores — the
    /// lock-less tree broadcast).
    fn propagate_release(&self, w: usize) {
        for c in self.children(w) {
            self.nodes[c].0.released.store(true, Ordering::Release);
        }
    }
}

impl TeamBarrier for TreeBarrier {
    #[inline]
    fn task_created(&self, worker: usize) {
        bump(&self.nodes[worker].0.created, 1);
    }

    #[inline]
    fn task_finished(&self, worker: usize) {
        bump(&self.nodes[worker].0.executed, 1);
    }

    fn arrive(&self, _worker: usize) {
        // Arrival is implicit in this design: a worker participates in
        // gather rounds only through try_release, which the loop calls
        // only once the worker is at the region-end barrier.
    }

    fn try_release(&self, w: usize) -> bool {
        let node = &self.nodes[w].0;
        // Lock-less release path: flag written only by our parent.
        if node.released.load(Ordering::Acquire) {
            self.propagate_release(w);
            return true;
        }
        let r = self.round.load(Ordering::Acquire);
        if node.last_round.load(Ordering::Relaxed) != r {
            node.last_round.store(r, Ordering::Relaxed);
            node.reported.store(false, Ordering::Relaxed);
            // Reset the mask the *next* round will use. Safe: all
            // bits of round r-1 (same parity) were set before the
            // root broadcast round r, which happened before we
            // observed r (see module docs).
            node.complete[((r + 1) & 1) as usize].store(0, Ordering::Relaxed);
        }
        if node.reported.load(Ordering::Relaxed) {
            return false;
        }
        // Gather precondition: all children subtrees reported.
        let parity = (r & 1) as usize;
        if node.complete[parity].load(Ordering::Acquire) != self.expected_mask(w) {
            return false;
        }
        // Aggregate: own counters (we are idle, so these include
        // everything we have done) + children's published sums.
        let mut c = node.created.load(Ordering::Relaxed);
        let mut e = node.executed.load(Ordering::Relaxed);
        for ch in self.children(w) {
            c += self.nodes[ch].0.sub_created.load(Ordering::Relaxed);
            e += self.nodes[ch].0.sub_executed.load(Ordering::Relaxed);
        }
        node.reported.store(true, Ordering::Relaxed);
        if w == 0 {
            if c == e {
                node.released.store(true, Ordering::Release);
                self.propagate_release(w);
                return true;
            }
            // Activity since the last round: gather again. Workers that
            // reported round `r` and then parked must participate in
            // round `r + 1`.
            self.round.store(r + 1, Ordering::Release);
            if let Some(p) = &self.parker {
                p.unpark_all();
            }
        } else {
            node.sub_created.store(c, Ordering::Relaxed);
            node.sub_executed.store(e, Ordering::Relaxed);
            let parent = (w - 1) / 2;
            let bit = if w == 2 * parent + 1 { 1 } else { 2 };
            // The lock-free gather hand-off (one RMW per worker
            // per round; release ordering publishes the sums).
            self.nodes[parent].0.complete[parity].fetch_or(bit, Ordering::AcqRel);
            // The parent may be parked mid-gather; our bit is the
            // event it is waiting for.
            if let Some(p) = &self.parker {
                p.unpark(parent);
            }
        }
        false
    }

    fn name(&self) -> &'static str {
        "tree(XGOMPTB)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn spin_until_release(b: &TreeBarrier, w: usize) {
        let mut spins = 0u64;
        while !b.try_release(w) {
            std::hint::spin_loop();
            spins += 1;
            if spins.is_multiple_of(1000) {
                std::thread::yield_now();
            }
            assert!(spins < 2_000_000_000, "barrier did not release");
        }
    }

    #[test]
    fn single_worker_releases_immediately_when_quiet() {
        let b = TreeBarrier::new(1);
        b.arrive(0);
        b.task_created(0);
        assert!(!b.try_release(0));
        b.task_finished(0);
        // One round to observe equality.
        assert!(b.try_release(0) || b.try_release(0));
    }

    #[test]
    fn release_is_sticky_and_propagates() {
        let b = TreeBarrier::new(3);
        for w in 0..3 {
            b.arrive(w);
        }
        // Everyone idle, no tasks: gather must finish within a few polls
        // (children first, then root).
        let mut done = [false; 3];
        for _ in 0..10 {
            for w in (0..3).rev() {
                if b.try_release(w) {
                    done[w] = true;
                }
            }
            if done.iter().all(|&d| d) {
                break;
            }
        }
        assert!(
            done.iter().all(|&d| d),
            "release did not reach all: {done:?}"
        );
    }

    #[test]
    fn outstanding_task_blocks_release_across_rounds() {
        let b = TreeBarrier::new(2);
        b.arrive(0);
        b.arrive(1);
        b.task_created(1);
        for _ in 0..100 {
            assert!(!b.try_release(0));
            assert!(!b.try_release(1));
        }
        b.task_finished(0); // executed by the *other* worker (migration)
        let mut released = (false, false);
        for _ in 0..100 {
            if b.try_release(0) {
                released.0 = true;
            }
            if b.try_release(1) {
                released.1 = true;
            }
            if released == (true, true) {
                break;
            }
        }
        assert_eq!(released, (true, true));
    }

    /// Multi-threaded storm with cross-worker completion: workers pass
    /// "tasks" through a shared counter so creation and completion land
    /// on different workers, then everyone quiesces. The barrier must
    /// release exactly once per worker with global counts equal, and
    /// never while tokens are in flight.
    #[test]
    fn storm_with_migration_terminates() {
        for &n in &[2usize, 3, 4, 7, 8] {
            let b = Arc::new(TreeBarrier::new(n));
            let inflight = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for w in 0..n {
                let b = b.clone();
                let inflight = inflight.clone();
                handles.push(std::thread::spawn(move || {
                    b.arrive(w);
                    let mut seed = 0x9E3779B97F4A7C15u64.wrapping_mul(w as u64 + 1);
                    let mut rng = move || {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        seed
                    };
                    for _ in 0..5_000 {
                        // Create a token...
                        b.task_created(w);
                        inflight.fetch_add(1, Ordering::SeqCst);
                        // ...and "execute" one as a random other worker
                        // would: completion on this worker regardless of
                        // creator models migration (counters are global
                        // sums; the barrier must tolerate any split).
                        if rng() % 3 != 0
                            && inflight
                                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                                    v.checked_sub(1)
                                })
                                .is_ok()
                        {
                            b.task_finished(w);
                        }
                        // Poll mid-storm: must not release while our own
                        // token can still be in flight.
                        if rng() % 64 == 0 && inflight.load(Ordering::SeqCst) > 0 {
                            // (Cannot assert !try_release here: another
                            // worker may drain inflight between the load
                            // and the poll. Just exercise the path.)
                            let _ = b.try_release(w);
                        }
                    }
                    // Drain whatever is left.
                    while inflight
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_ok()
                    {
                        b.task_finished(w);
                    }
                    spin_until_release(&b, w);
                    // At release, global counts must be equal.
                    let created: u64 = (0..n)
                        .map(|i| b.nodes[i].0.created.load(Ordering::SeqCst))
                        .sum();
                    let executed: u64 = (0..n)
                        .map(|i| b.nodes[i].0.executed.load(Ordering::SeqCst))
                        .sum();
                    assert_eq!(created, executed, "released with work outstanding");
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn master_arrival_gates_release() {
        // Worker 1 is idle from the start; master (0) delays its
        // participation, modeling a long region closure. No release may
        // happen until the master polls.
        let b = Arc::new(TreeBarrier::new(2));
        b.arrive(1);
        let b2 = b.clone();
        let t = std::thread::spawn(move || {
            for _ in 0..10_000 {
                assert!(!b2.try_release(1), "released without master");
            }
        });
        t.join().unwrap();
        b.arrive(0);
        let b3 = b.clone();
        let w1 = std::thread::spawn(move || spin_until_release(&b3, 1));
        spin_until_release(&b, 0);
        w1.join().unwrap();
    }
}
