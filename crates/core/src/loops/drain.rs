//! The **drain protocol**: what one loop-drain task does with its claim
//! source — the zone pools (claim local, steal-split remote, abandon on
//! cancellation) or, for `Static`, its seat's private block — and the
//! one place its ledger is merged into the loop total.
//!
//! The pooled path costs at most one claim per chunk; sub-µs fixed
//! chunks amortize one claim over a reservation that decays to one
//! chunk at the tail, and one clock read over a timing window of 2^k
//! chunks.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use xgomp_profiling::{clock, EventKind, TraceLevel};
use xgomp_xqueue::{bump, Backoff};

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

/// A timing window aims to last at least this many clock ticks (~1 µs
/// on a GHz-class TSC): chunks that long are timed one by one, shorter
/// ones share one clock read between 2^k of them …
const WINDOW_TICKS: u64 = 1 << 11;
/// … up to this many, which bounds how many chunks an expired deadline
/// can go unnoticed for when chunk cost jumps.
const MAX_WINDOW_CHUNKS: u64 = 8;

/// One drain task's open timing window (see `drive`'s `boundary`).
struct Window {
    /// Clock reading at the boundary that opened it.
    stamp: u64,
    /// Chunks and units run since `stamp`.
    chunks: u64,
    units: u64,
    /// Chunks after which it closes.
    len: u64,
    /// Mean ticks per chunk of the last closed window — what the window
    /// length and the reserve depth are derived from; `u64::MAX` until
    /// one has closed.
    chunk_ticks: u64,
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
        let stats = ctx.worker.stats;
        let total = &mut *locked(&self.total);
        let merge = |cell: &AtomicU64, sum: &mut u64, n: u64| {
            bump(cell, n);
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
        while next < hi && token.as_ref().is_none_or(|t| t.poll().is_none()) {
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

    /// The dynamic-family drain loop one worker runs. Every chunk —
    /// wherever its units came from — is cut at the one dispense site at
    /// the bottom of the loop, from a worker-private **reserve**
    /// `[lo, hi)`: refilled zone-local first (main, then inbox) by one
    /// claim of [`Chunker::reservation`] units, else by a remote
    /// steal-split (nearest-first), whose tail it shares through the
    /// local pool.
    fn drive(&self, ctx: &TaskCtx<'_>, core: &LoopCore, chunker: &Chunker, acc: &mut LoopReport) {
        let my = self.layout.pool_of(ctx.numa_zone());
        let mine = &core.pools[my].0;
        let n_pools = core.pools.len();
        let runner = self.runner;
        let token = ctx.cancel_token();
        // A window boundary. Its clock read — the only one on the path —
        // closes the window behind it: the chunks' mean duration feeds
        // the chunker's cost model (adaptive, AWF) and — when a live
        // sampler is wired (task server) — the Table-IV adaptive
        // controller, one sample of mass per chunk. The same reading
        // stamps the window ahead, promotes an expired deadline into the
        // token's state (where the per-chunk checkpoint sees it) and is
        // the inter-socket balancer's probe gate. With no chunks behind
        // it, it only re-stamps: called on both sides of any time spent
        // off the dispense path, so idle time is never billed to a chunk.
        let balancer = &ctx.team().balancer;
        let (my_stats, lane) = (ctx.worker.stats, ctx.worker.lane);
        let boundary = |win: &mut Window| {
            let now = clock::now();
            let ticks = now.saturating_sub(win.stamp);
            if let Some(chunk_ticks) = ticks.checked_div(win.chunks) {
                chunker.record(my, win.units, ticks);
                if let Some(lane) = lane {
                    lane.record(chunk_ticks, win.chunks);
                }
                win.chunk_ticks = chunk_ticks;
                win.len = (WINDOW_TICKS / chunk_ticks.max(1))
                    .clamp(1, MAX_WINDOW_CHUNKS)
                    .next_power_of_two();
                (win.chunks, win.units) = (0, 0);
            }
            win.stamp = now;
            if let Some(token) = &token {
                token.poll_at(now);
            }
            if balancer.maybe_probe_at(now, my_stats) {
                // Our probe migrated a back-half range between zones — a
                // coarse-level decision worth a lifecycle record.
                ctx.trace_emit(TraceLevel::Lifecycle, EventKind::Rebalance, my as u32, 0, 0);
            }
        };
        let mut win = Window {
            stamp: 0,
            chunks: 0,
            units: 0,
            len: 1,
            chunk_ticks: u64::MAX,
        };
        boundary(&mut win);
        // The reserve: units out of every pool and ours alone. `local` =
        // claimed from our own zone's pools, not stolen.
        let (mut lo, mut hi, mut local) = (0u64, 0u64, true);
        let mut backoff = Backoff::new();
        loop {
            // Cancellation checkpoint, once per chunk (one load; the
            // deadline compare rides the window boundary): a fired token
            // turns this drain task into an abandoner — it gives up its
            // reserve and empties the remaining pools *without executing
            // them*, conserving every abandoned iteration into
            // `cancelled_iters` (O(1) prefix math per range).
            if token.as_ref().is_some_and(CancelToken::is_fired) {
                boundary(&mut win); // the chunks already run still count
                acc.cancelled_iters += self.space.elems_in(lo, hi);
                return self.abandon_pools(core, acc);
            }
            let want = chunker.size(my, core);
            if lo == hi {
                // Zone-local first: the claim keeps the iterations in
                // the zone whose block they belong to. The inbox holds
                // balancer migrations — zone property too.
                let ask = chunker.reservation(my, core, want, win.chunk_ticks);
                if let Some((a, b)) = mine.main.claim(ask).or_else(|| mine.inbox.claim(ask)) {
                    (lo, hi, local) = (a, b, true);
                } else {
                    boundary(&mut win);
                    // Local pools dry: steal-split a remote zone,
                    // nearest-first rotation (the NA-RP victim order for
                    // iteration ranges). A pane-set steal prefers whole
                    // pending panes, so a waved space migrates pane
                    // tails, not scalar slivers.
                    let stolen = (1..n_pools).find_map(|d| {
                        let p = &core.pools[(my + d) % n_pools].0;
                        p.main.steal_half().or_else(|| p.inbox.steal_half())
                    });
                    if let Some((a, b)) = stolen {
                        acc.range_steals += 1;
                        ctx.trace_emit(TraceLevel::Full, EventKind::RangeSteal, my as u32, a, b);
                        (lo, hi, local) = (a, b, false);
                    } else if core.fully_claimed() {
                        // Every pool looked empty and the
                        // seqlock-validated scan agrees (a migration in
                        // flight fails it — yield and retry).
                        return;
                    } else {
                        backoff.snooze();
                    }
                    boundary(&mut win);
                    continue;
                }
            }
            // The dispense site. A stolen reserve can be half a pool: it
            // keeps the chunk it is about to run and offers the rest to
            // the (empty) local pool so zone peers share the spoils —
            // again before every chunk for as long as the offer is
            // refused.
            let end = lo + u64::from(want).min(hi - lo);
            if !local && end < hi && mine.main.deposit_if_empty(end, hi) {
                hi = end;
            }
            chunker.claimed();
            ctx.trace_emit(TraceLevel::Full, EventKind::ChunkClaim, my as u32, lo, end);
            acc.iterations += runner(lo, end, ctx);
            acc.chunks += 1;
            acc.claimed_local += u64::from(local);
            win.chunks += 1;
            win.units += end - lo;
            lo = end;
            backoff.reset();
            if win.chunks >= win.len {
                boundary(&mut win);
            }
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
