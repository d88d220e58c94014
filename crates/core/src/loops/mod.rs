//! Data-parallel loops: NUMA-aware iteration-space scheduling
//! ([`TaskCtx::parallel_for`]) with dynamic load balancing.
//!
//! The runtime's tasking side reproduces the paper's *task* parallelism;
//! this module adds the other half of the fine-grained-parallelism
//! story, in the spirit of LB4OMP's dynamic loop-scheduling library: a
//! `parallel_for` over an iteration space with a family of
//! [`LoopSchedule`]s, built so loop work flows through the *same* NUMA
//! machinery as tasks.
//!
//! ## Architecture
//!
//! * The logical [`IterSpace`] (1D range, 2D rectangle, triangular)
//!   lowers to flat u64 *scheduling units*,
//!   blocked across NUMA zones proportionally to each zone's worker
//!   count; each zone's share is seeded into its zone pool, one
//!   [`PaneSet`](xgomp_xqueue::PaneSet) that waves it through ≤u32
//!   panes drained by one packed atomic word — at most one claim per
//!   *chunk*, never per iteration (sub-µs fixed chunks amortize one
//!   claim over a reservation that decays to one chunk at the tail),
//!   plus one CAS per pane refill.
//! * One *loop-drain task* per worker is spawned with zone-affine
//!   placement ([`Scope::spawn_on`](crate::Scope::spawn_on) → the
//!   scheduler's targeted push). Drain tasks are ordinary tasks: the DLB
//!   engine can migrate them like any other task, the tree barrier
//!   counts them, and parked workers are woken for them through the
//!   ordinary `xqueue::parker` push-wake path — loop quiescence needs no
//!   second mechanism.
//! * **Balancing:** a drain task cuts every chunk from a
//!   worker-private *reserve*, refilled from **its executor's own zone
//!   pool first**; only when that is dry does it *steal-split* a remote
//!   zone's pool (taking the upper half, exactly like stealing the cold
//!   end of a deque), visiting remote pools in nearest-first rotation —
//!   the NA-RP zone-local-first victim order applied to iteration
//!   ranges. A stolen
//!   range is a reserve too: it keeps the chunk it is about to run and
//!   re-deposits the rest into the thief's own zone pool when that pool
//!   is empty, so one steal feeds a whole zone. A steal is the only way
//!   units leave their home zone, and every unit is always in a pool or
//!   in one drain task's reserve — so "every pool is empty" is a sound
//!   exit test.
//! * The loop completes through the ordinary structured-spawn path: the
//!   calling task `scope`s the drain tasks (helping while it waits), and
//!   every drain task `taskwait`s its own children, so a body that
//!   spawns nested tasks is fully quiesced before `parallel_for`
//!   returns — which is what lets loops compose with the task server's
//!   `pause()`/generation machinery unchanged.
//!
//! ## Schedules
//!
//! | Schedule | Chunking | Use |
//! |----------|----------|-----|
//! | [`Static`](LoopSchedule::Static) | one NUMA-blocked contiguous block per worker, no pools | uniform iteration cost |
//! | [`Dynamic(c)`](LoopSchedule::Dynamic) | fixed chunks of `c` from the zone pools; at most one claim per chunk — sub-µs chunks amortize one claim over a reservation that decays to one chunk at the tail | known-irregular cost, small loops |
//! | [`Guided(m)`](LoopSchedule::Guided) | `remaining / (2 · zone workers)`, floored at `m` | irregular cost, decreasing tail |
//! | [`Adaptive`](LoopSchedule::Adaptive) | chunk ≈ `TARGET_TICKS` ÷ live per-iteration cost estimate (decade histogram, LB4OMP-style) | unknown or shifting cost |
//! | [`Tss { first, last }`](LoopSchedule::Tss) | trapezoid: linear decrement from `first` to `last` over `⌈2N/(first+last)⌉` chunks | mildly decreasing cost, low scheduling overhead |
//! | [`Factoring`](LoopSchedule::Factoring) | batched halving: `⌈N/(P·2^(b+1))⌉` per chunk of batch `b` (P chunks per batch) | high-variance cost |
//! | [`WeightedFactoring`](LoopSchedule::WeightedFactoring) | the [`Awf`](LoopSchedule::Awf) chunker under its own name and telemetry slot | high variance on asymmetric sockets |
//! | [`Awf`](LoopSchedule::Awf) | factoring × per-zone weight from *measured* chunk execution rates | variance + unknown machine asymmetry |
//! | [`Auto`](LoopSchedule::Auto) | online per-loop-site selection over the portfolio (server-owned [`AutoSelector`]) | repeated loop sites with unknown best schedule |
//!
//! The TSS/Factoring/WF/AWF family is a pure *chunk-size policy layer*
//! ([`ChunkPolicy`]) over the same pane-set claim path — see `policy.rs`
//! for the closed-form series and `auto.rs` for the `Auto` selection
//! policy.
//!
//! ## Where things live
//!
//! * `schedule.rs` — [`LoopSchedule`], [`LoopError`], [`LoopReport`]
//!   (the report is also the per-drain-task ledger).
//! * `policy.rs` — all chunk sizing: the per-loop `Chunker` a schedule
//!   resolves to once, and the [`ChunkPolicy`] series.
//! * `auto.rs` — [`AutoSelector`], [`LoopId`], the `Auto` portfolio.
//! * `pools.rs` — zone `Layout` and `LoopCore`, the per-zone pane sets
//!   with the drain exit test (`fully_claimed`).
//! * `drain.rs` — the drain task: pooled `drive` (one reserve, one
//!   dispense site, one clock read per timing window) or static block,
//!   abandon-on-cancel, and the one ledger merge.
//! * `space.rs` — iteration spaces; this file — the `TaskCtx` fronts
//!   and `run_loop`.

mod auto;
mod drain;
mod policy;
mod pools;
mod schedule;
mod space;

pub use auto::{
    auto_portfolio_member, AutoPick, AutoSelector, AutoSiteStatus, LoopId, AUTO_CONFIRM_WINDOWS,
    AUTO_FALLBACK, AUTO_PORTFOLIO_LEN, AUTO_TRIALS_PER_MEMBER,
};
pub use policy::ChunkPolicy;
pub use schedule::{LoopError, LoopReport, LoopSchedule};
pub use space::{IterSpace, LoopSpace, SpaceKind, DEFAULT_TILE};

use std::sync::Mutex;

use xgomp_profiling::clock;
use xgomp_xqueue::DEFAULT_PANE_UNITS;

use crate::ctx::TaskCtx;
use crate::util::locked;
use drain::{LoopShared, UnitRunner};
use policy::Chunker;
use pools::{Layout, LoopCore};

impl<'t> TaskCtx<'t> {
    /// Executes `body` for every point of `space`, in parallel, under
    /// the given [`LoopSchedule`] — the data-parallel counterpart of
    /// [`scope`](Self::scope).
    ///
    /// `space` is anything implementing [`LoopSpace`]: a plain integer
    /// range (`Point = u64`; ranges beyond `u32::MAX` iterations
    /// auto-wave through panes) or an explicit [`IterSpace`]
    /// (`Point = (row, col)` for 2D/triangular shapes — see
    /// [`parallel_for_2d`](Self::parallel_for_2d) and
    /// [`parallel_for_tri`](Self::parallel_for_tri)).
    ///
    /// The space is NUMA-blocked across the team's zones and drained
    /// through per-zone pane sets by one loop-drain task per worker
    /// (zone-affinely placed; see the [module docs](self) for how
    /// they balance). The call returns only when every iteration
    /// *and every task spawned by the body* has completed, so `body` may
    /// borrow from the enclosing frame, exactly like
    /// [`Scope::spawn`](crate::Scope::spawn).
    ///
    /// `body` runs on arbitrary workers; it receives the point and the
    /// executing worker's [`TaskCtx`] (for nested spawns and topology
    /// queries).
    ///
    /// # Panics
    ///
    /// Panics on an invalid space ([`LoopError`]: beyond 2⁶² scheduling
    /// units, or an element count overflowing u64); use
    /// [`try_parallel_for`](Self::try_parallel_for) to handle that as a
    /// value instead. Panics from `body` propagate like task panics
    /// (isolated per job under a serving team, poisoning otherwise).
    pub fn parallel_for<S, F>(&self, space: S, schedule: LoopSchedule, body: F) -> LoopReport
    where
        S: LoopSpace,
        F: Fn(S::Point, &TaskCtx<'_>) + Sync,
    {
        self.parallel_for_at(None, space, schedule, body)
    }

    /// Fallible [`parallel_for`](Self::parallel_for): an invalid space
    /// comes back as [`LoopError::RangeTooLarge`] instead of a panic,
    /// with the body untouched (zero iterations run).
    pub fn try_parallel_for<S, F>(
        &self,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<LoopReport, LoopError>
    where
        S: LoopSpace,
        F: Fn(S::Point, &TaskCtx<'_>) + Sync,
    {
        self.try_parallel_for_impl(None, space, schedule, body)
    }

    /// [`parallel_for`](Self::parallel_for) with an explicit loop-site
    /// identity: [`LoopSchedule::Auto`] keys its per-site selection
    /// state by `site` instead of the space's shape, so distinct loops
    /// over same-shaped spaces converge independently (and one loop
    /// whose shape varies run-to-run still shares one site). `site` is a
    /// [`LoopId`] or an `Option` of one (`None` = key by shape, exactly
    /// [`parallel_for`](Self::parallel_for)) — the single sited entry.
    ///
    /// # Panics
    ///
    /// As [`parallel_for`](Self::parallel_for).
    pub fn parallel_for_at<S, F>(
        &self,
        site: impl Into<Option<LoopId>>,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> LoopReport
    where
        S: LoopSpace,
        F: Fn(S::Point, &TaskCtx<'_>) + Sync,
    {
        self.try_parallel_for_impl(site.into(), space, schedule, body)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_parallel_for_impl<S, F>(
        &self,
        site: Option<LoopId>,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<LoopReport, LoopError>
    where
        S: LoopSpace,
        F: Fn(S::Point, &TaskCtx<'_>) + Sync,
    {
        let desc = space.to_space();
        desc.validate()?;
        // `Auto` resolution: consult the team's server-owned selector
        // (keyed by the caller's `LoopId`, or the space's shape), run
        // under the concrete pick and report the measured makespan back.
        // Empty instances are not consulted (they would score ≈1 tick),
        // and teams without a selector (plain `Runtime` regions) run the
        // chunker's fixed fallback. Telemetry records under the
        // *requested* schedule, so auto-dispatched loops land in the
        // `auto` family.
        let auto = match &self.team().auto_select {
            Some(sel) if schedule == LoopSchedule::Auto && !desc.is_empty() => {
                let key = site.map_or_else(|| auto::space_site_key(&desc), |id| id.0);
                let pick = sel.pick(key, desc.units(), self.n_workers() as u32);
                Some((sel, key, pick, clock::now()))
            }
            _ => None,
        };
        let effective = auto.map_or(schedule, |(_, _, pick, _)| pick.schedule);
        // The monomorphization boundary: the per-element decode loop
        // inlines the body here; everything below `run_loop` is shared,
        // unit-typed machinery behind one dyn call per chunk.
        let runner =
            |lo: u64, hi: u64, ctx: &TaskCtx<'_>| S::run_units(&desc, lo, hi, |p| body(p, ctx));
        let report = run_loop(self, &desc, effective, &runner, DEFAULT_PANE_UNITS);
        // A cancelled (or deadline-shed) loop did not run its space: its
        // makespan is truncated, and scoring it would converge the site
        // on whichever member was cancelled most.
        if let Some((sel, key, pick, t0)) = auto.filter(|_| report.cancelled_iters == 0) {
            sel.report(key, pick, clock::now().saturating_sub(t0).max(1));
        }
        if let Some(lt) = &self.team().loop_stats {
            lt.record_loop(
                schedule.index(),
                desc.kind().index(),
                report.chunks,
                report.iterations,
                report.range_steals,
            );
        }
        Ok(report)
    }

    /// collapse(2): executes `body` for every `(row, col)` of the
    /// `rows × cols` rectangle, scheduled as [`DEFAULT_TILE`]² tiles
    /// (use [`IterSpace::rect_tiled`] with
    /// [`parallel_for`](Self::parallel_for) for explicit tiling).
    pub fn parallel_for_2d<F>(
        &self,
        rows: u64,
        cols: u64,
        schedule: LoopSchedule,
        body: F,
    ) -> LoopReport
    where
        F: Fn((u64, u64), &TaskCtx<'_>) + Sync,
    {
        self.parallel_for(IterSpace::rect(rows, cols), schedule, body)
    }

    /// Triangular loop: executes `body` for every `(row, col)` with
    /// `col ≤ row < n` — the natural space of pairwise kernels —
    /// scheduled as tiles of the lower-triangular tile grid, with zero
    /// wasted (guard-skipped) iterations (use
    /// [`IterSpace::triangular_tiled`] with
    /// [`parallel_for`](Self::parallel_for) for explicit tiling).
    pub fn parallel_for_tri<F>(&self, n: u64, schedule: LoopSchedule, body: F) -> LoopReport
    where
        F: Fn((u64, u64), &TaskCtx<'_>) + Sync,
    {
        self.parallel_for(IterSpace::triangular(n), schedule, body)
    }
}

/// Runs one loop: lays the space out across the zones, resolves the
/// schedule into its claim source (seeded zone pools + chunker, or the
/// static blocks), spawns one drain task per seat and waits the loop
/// (and everything the body spawned) out.
/// Operates purely on the space's scheduling units, waved in panes of
/// `pane` units; the runner owns the unit → point decode.
fn run_loop(
    ctx: &TaskCtx<'_>,
    space: &IterSpace,
    schedule: LoopSchedule,
    runner: &UnitRunner<'_>,
    pane: u64,
) -> LoopReport {
    if space.is_empty() {
        return LoopReport::default();
    }
    let layout = Layout::new(ctx.placement(), space.units());
    let pooled =
        Chunker::resolve(schedule, &layout).map(|chunker| (LoopCore::seed(&layout, pane), chunker));
    let shared = LoopShared {
        space,
        runner,
        layout,
        pooled,
        total: Mutex::default(),
    };
    ctx.scope(|s| {
        let (shared, layout) = (&shared, &shared.layout);
        let static_blocks = shared.pooled.is_none();
        for (seat, &(worker, _)) in layout.seats.iter().enumerate() {
            // More workers than units: a static seat with an empty block
            // gets no drain task (pooled seats all share the zone pools).
            if static_blocks && layout.block(seat) == layout.block(seat + 1) {
                continue;
            }
            s.spawn_on(worker, move |tctx| {
                shared.drain(tctx, seat);
                // Nested spawns from the body quiesce before the drain
                // task completes, so `parallel_for`'s own scope-wait
                // covers the whole loop subtree.
                tctx.taskwait();
            });
        }
    });

    let report = *locked(&shared.total);
    debug_assert_eq!(
        report.iterations + report.cancelled_iters,
        space.len(),
        "executed + cancelled covers the space exactly"
    );
    report
}

#[cfg(test)]
mod tests;
