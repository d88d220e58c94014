//! The **drain protocol**: what one loop-drain task does with its claim
//! source — the zone pools (claim local, steal-split remote, abandon on
//! cancellation) or, for `Static`, its seat's private block — and the
//! one place its ledger is merged into the loop total.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use xgomp_profiling::{clock, EventKind, TraceLevel, WorkerStats};
use xgomp_xqueue::Backoff;

use super::policy::Chunker;
use super::pools::{Layout, LoopCore};
use super::{IterSpace, LoopReport};
use crate::cancel::CancelToken;
use crate::ctx::TaskCtx;
use crate::util::locked;

/// Static blocks have no chunk boundaries, so they poll the job's
/// cancellation token every this-many iterations instead (a power of
/// two: the gate is one mask + branch per iteration).
const STATIC_CANCEL_STRIDE: u64 = 256;

/// The monomorphization boundary between the shared, unit-typed
/// scheduling machinery and a specific space's point decode: runs units
/// `[lo, hi)` through the user body on the given ctx, returning the
/// *element* count executed. Built (generically, so the per-element loop
/// inlines) by `try_parallel_for`.
pub(super) type UnitRunner<'b> = dyn Fn(u64, u64, &TaskCtx<'_>) -> u64 + Sync + 'b;

/// Shared state of one running loop (lives on `run_loop`'s frame; drain
/// tasks borrow it through the scope).
pub(super) struct LoopShared<'b> {
    /// The logical space (the pools hold its scheduling units; element
    /// accounting converts through its O(1) prefix math).
    pub(super) space: &'b IterSpace,
    pub(super) runner: &'b UnitRunner<'b>,
    pub(super) layout: Layout,
    /// The registered, balancer-visible pool state and the loop's chunk
    /// sizing; `None` for `Static`, where each seat's claim source is
    /// its private block.
    pub(super) pooled: Option<(Arc<LoopCore>, Chunker)>,
    /// The loop's ledger, merged into once per drain task. Iteration
    /// counts are *elements*; chunk/steal counts are claim events; the
    /// migrated counters (folded from [`LoopCore`]) are units.
    pub(super) total: Mutex<LoopReport>,
}

/// The cancellation checkpoint: whether the job's token has fired.
fn fired(token: &Option<CancelToken>) -> bool {
    token.as_ref().is_some_and(|t| t.poll().is_some())
}

impl LoopShared<'_> {
    /// The body of the drain task in `seat`: drains its claim source
    /// into a private ledger, then merges that — once — into the
    /// executing worker's stats block and the loop total.
    pub(super) fn drain(&self, ctx: &TaskCtx<'_>, seat: usize) {
        let mut acc = LoopReport::default();
        match &self.pooled {
            Some((core, chunker)) => self.drive(ctx, core, chunker, &mut acc),
            None => self.run_block(ctx, seat, &mut acc),
        }
        let stats = &ctx.team.stats[ctx.worker_id()];
        let total = &mut *locked(&self.total);
        let merge = |cell: &AtomicU64, sum: &mut u64, n: u64| {
            WorkerStats::add(cell, n);
            *sum += n;
        };
        merge(&stats.nloop_chunks, &mut total.chunks, acc.chunks);
        merge(&stats.nloop_iters, &mut total.iterations, acc.iterations);
        merge(
            &stats.nloop_claim_local,
            &mut total.claimed_local,
            acc.claimed_local,
        );
        merge(
            &stats.nloop_range_steals,
            &mut total.range_steals,
            acc.range_steals,
        );
        merge(
            &stats.nloop_cancelled_iters,
            &mut total.cancelled_iters,
            acc.cancelled_iters,
        );
    }

    /// The static claim source: `seat`'s one contiguous NUMA-blocked
    /// unit block, run where the zone-affine placement (or a DLB
    /// migration of the drain task) put us; no pools, no sampler feed.
    fn run_block(&self, ctx: &TaskCtx<'_>, seat: usize, acc: &mut LoopReport) {
        let (mut next, hi) = (self.layout.block(seat), self.layout.block(seat + 1));
        let token = ctx.cancel_token();
        // Cancellation checkpoint every `STATIC_CANCEL_STRIDE` units (a
        // unit is one iteration for 1D spaces, one tile otherwise); the
        // rest of the block is abandoned, its element count conserved in
        // O(1) below. With no token the whole block is one runner call.
        let stride = token.as_ref().map_or(u64::MAX, |_| STATIC_CANCEL_STRIDE);
        while next < hi && !fired(&token) {
            let end = next + stride.min(hi - next);
            acc.iterations += (self.runner)(next, end, ctx);
            next = end;
        }
        acc.cancelled_iters = self.space.elems_in(next, hi);
        // A block cancelled before its first iteration never counts as a
        // chunk (`nloop_iters >= nloop_chunks` stays an invariant).
        if acc.iterations > 0 {
            acc.chunks = 1;
            // "Local" for a static block: it ran in its home zone (DLB
            // may have migrated the drain task).
            acc.claimed_local = u64::from(ctx.numa_zone() == self.layout.seats[seat].1);
        }
    }

    /// The dynamic-family drain loop one worker runs: claim zone-local
    /// (main, then inbox), steal-split remote (nearest-first) when dry,
    /// share stolen tails through the local pool — and, at every chunk
    /// boundary, give the inter-socket balancer its probe chance and the
    /// job's cancellation token a checkpoint.
    fn drive(&self, ctx: &TaskCtx<'_>, core: &LoopCore, chunker: &Chunker, acc: &mut LoopReport) {
        let my = self.layout.pool_of(ctx.numa_zone());
        let mine = &core.pools[my].0;
        let n_pools = core.pools.len();
        let balancer = &ctx.team.balancer;
        let my_stats = &ctx.team.stats[ctx.worker_id()];
        let token = ctx.cancel_token();
        // Chunk durations feed the chunker's cost model (adaptive, AWF)
        // and — when a live sampler is wired (task server) — the
        // Table-IV adaptive controller, so loop-heavy workloads retune
        // the DLB engine from their real chunk grain, not just from
        // whole drain-task sizes. Decided (and this worker's sampler
        // lane resolved) once per drain task, not per chunk.
        let lane = ctx.team.sampler.as_ref().map(|l| &*l[ctx.worker_id()]);
        let timed = chunker.timed() || lane.is_some();
        let run_chunk = |lo: u64, hi: u64, acc: &mut LoopReport| {
            let t0 = if timed { clock::now() } else { 0 };
            acc.iterations += (self.runner)(lo, hi, ctx);
            if timed {
                let dt = clock::now().saturating_sub(t0);
                chunker.record(my, hi - lo, dt);
                if let Some(lane) = lane {
                    lane.record(dt);
                }
            }
            acc.chunks += 1;
        };
        let mut backoff = Backoff::new();
        loop {
            // Cancellation checkpoint, once per chunk claim: a fired
            // token turns this drain task into an abandoner — it empties
            // the remaining pools *without executing them*, conserving
            // every abandoned iteration into `cancelled_iters`.
            if fired(&token) {
                return self.abandon_pools(core, acc);
            }
            // Coarse level: the probe gate is one clock read when the
            // interval has not elapsed (and a no-op when disabled).
            if balancer.maybe_probe(Some(my_stats)) {
                // Our probe migrated a back-half range between zones —
                // a coarse-level decision worth a lifecycle record.
                ctx.trace_emit(TraceLevel::Lifecycle, EventKind::Rebalance, my as u32, 0, 0);
            }
            // Zone-local first: the claim costs one CAS and keeps the
            // iterations in the zone whose block they belong to. The
            // inbox holds balancer migrations — zone property too.
            let want = chunker.size(my, core);
            let claimed = mine.main.claim(want).or_else(|| mine.inbox.claim(want));
            if let Some((lo, hi)) = claimed {
                chunker.claimed();
                ctx.trace_emit(TraceLevel::Full, EventKind::ChunkClaim, my as u32, lo, hi);
                run_chunk(lo, hi, acc);
                acc.claimed_local += 1;
                backoff.reset();
                continue;
            }
            // Local pools dry: steal-split a remote zone, nearest-first
            // rotation (the NA-RP victim order for iteration ranges). A
            // pane-set steal prefers whole pending panes, so a waved
            // space migrates pane tails, not scalar slivers.
            let stolen = (1..n_pools).find_map(|d| {
                let p = &core.pools[(my + d) % n_pools].0;
                p.main.steal_half().or_else(|| p.inbox.steal_half())
            });
            if let Some((mut lo, hi)) = stolen {
                acc.range_steals += 1;
                ctx.trace_emit(TraceLevel::Full, EventKind::RangeSteal, my as u32, lo, hi);
                // Drain the stolen range: keep one chunk, hand the tail
                // to the (empty) local pool so zone peers share the
                // spoils.
                while lo < hi {
                    // A stolen range can be half a pool — keep the
                    // chunk-claim cancellation cadence inside it too.
                    // The un-run remainder is ours alone (already out of
                    // every pool), so its *elements* are counted here
                    // (O(1) prefix math) and the pools are abandoned
                    // separately.
                    if fired(&token) {
                        acc.cancelled_iters += self.space.elems_in(lo, hi);
                        return self.abandon_pools(core, acc);
                    }
                    let take = u64::from(chunker.size(my, core)).min(hi - lo);
                    chunker.claimed();
                    let (clo, chi) = (lo, lo + take);
                    lo += take;
                    if lo < hi && mine.main.deposit_if_empty(lo, hi) {
                        lo = hi;
                    }
                    run_chunk(clo, chi, acc);
                }
                backoff.reset();
                continue;
            }
            // Every pool looked empty: done once the seqlock-validated
            // scan agrees (a migration in flight fails it — yield and
            // retry).
            if core.fully_claimed() {
                return;
            }
            backoff.snooze();
        }
    }

    /// Cancellation drain: empties every pool without executing,
    /// counting the abandoned **elements** into `acc.cancelled_iters` —
    /// each drained unit range converts through the space's O(1) prefix
    /// math, so abandoning billions of units never iterates them. The
    /// exit is the same seqlock-validated `fully_claimed` as the normal
    /// empty exit — a balancer migration in flight holds a range in
    /// *neither* pool, and a blind drain would strand those units and
    /// break the conservation identity. Concurrent abandoners are fine:
    /// a pane-set drain hands every unit to exactly one drainer.
    fn abandon_pools(&self, core: &LoopCore, acc: &mut LoopReport) {
        let mut backoff = Backoff::new();
        loop {
            for set in core.pools.iter().flat_map(|p| [&p.0.main, &p.0.inbox]) {
                set.drain_all_with(|lo, hi| acc.cancelled_iters += self.space.elems_in(lo, hi));
            }
            if core.fully_claimed() {
                return;
            }
            backoff.snooze();
        }
    }
}
