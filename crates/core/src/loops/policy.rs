//! **Chunk sizing**: every "how big is the next chunk, and what feedback
//! does it need" decision of the loop layer. `run_loop` resolves a
//! [`LoopSchedule`] *once* into a per-loop [`Chunker`]; the drain loop
//! only asks it for sizes and feeds it claims and chunk durations.
//!
//! Sizing is a pure layer over the pane-set claim path — at most one
//! claim per chunk; sub-µs fixed chunks amortize one claim over a
//! [reservation](Chunker::reservation) that decays to one chunk at the
//! tail. A chunker only decides *how many units* the next chunk and the
//! next claim ask for, so every schedule inherits u64 waves,
//! 2D/triangular spaces, cancellation checkpoints and range stealing
//! from the shared drain loop unchanged.
//!
//! ## Chunk series
//!
//! The LB4OMP self-scheduling family is [`ChunkPolicy`]. With `N` total
//! scheduling units and `P` workers, scheduling step `s` (a loop-global
//! counter advanced once per successful claim):
//!
//! * **TSS(f, l)** — trapezoid self-scheduling: `n = ⌈2N/(f+l)⌉` chunks,
//!   decrement `d = (f−l)/(n−1)`; chunk `s` has `max(f − s·d, l)` units.
//!   The linear decrement series of Tzen & Ni, clamped at `l`.
//! * **Factoring** — batched halving: batch `b = ⌊s/P⌋`, every chunk of
//!   a batch has `⌈N / (P·2^(b+1))⌉` units. Each batch of `P` chunks
//!   hands out half the remainder, so the series halves once per round
//!   (the exact-halving FAC2 variant of Hummel/Schonberg/Flynn).
//! * **AWF** (and **Weighted Factoring**, which runs the same chunker)
//!   — the factoring series scaled per claiming *zone* by a weight from
//!   *measured per-chunk execution rates* (units per tick, folded per
//!   zone at each timing-window boundary of the drain loop): a zone
//!   executing `w×` the mean rate asks for `w×` the batch chunk.
//!
//! All sizes floor at 1 and cap at `u32::MAX` (the pane-claim width).

use std::sync::atomic::{AtomicU64, Ordering};

use xgomp_profiling::{decade_index, modal_index};
use xgomp_xqueue::CachePadded;

use super::pools::{Layout, LoopCore};
use super::{LoopSchedule, AUTO_FALLBACK};

/// Chunk-duration target of the adaptive schedule, in clock ticks
/// (~tens of µs on a GHz-class TSC: long enough to amortize a claim CAS,
/// short enough to rebalance a skewed tail).
const ADAPTIVE_TARGET_TICKS: u64 = 1 << 17;
/// First-chunk size while the cost histogram is still empty.
const ADAPTIVE_SEED_CHUNK: u32 = 32;
/// Hard ceiling on an adaptive chunk (keeps a mis-estimated cheap body
/// from swallowing a whole pool in one claim).
const ADAPTIVE_MAX_CHUNK: u32 = 1 << 16;
/// Predicted work, in clock ticks (~16 µs on a GHz-class TSC), that one
/// claim may take out of its pool into a worker-private reserve: what a
/// zone peer can be kept waiting for at a loop's tail, and two orders of
/// magnitude above what the claim itself costs.
const RESERVE_BUDGET_TICKS: u64 = 1 << 15;
/// Ceiling on the chunks of one reservation, however cheap they are.
const MAX_RESERVE_CHUNKS: u64 = 32;

/// One running loop's chunk sizing, resolved from its [`LoopSchedule`]
/// by [`resolve`](Self::resolve). `Static` has no chunker and `Auto`
/// resolves to a concrete member, so neither can reach a sizing arm.
#[derive(Debug)]
pub(super) enum Chunker {
    /// `Dynamic(c)`: fixed chunks of `c ≥ 1`.
    Fixed(u32),
    /// `Guided(min)`: half the pool's remainder per zone worker, floored
    /// at `min ≥ 1`.
    Guided { min: u32 },
    /// `Adaptive`: time budget ÷ live per-unit cost.
    Adaptive(AdaptiveCost),
    /// TSS / Factoring / WF / AWF: the loop-global series (peeked — the
    /// step advances on claim success), weighted per zone by measured
    /// execution rates for WF and AWF.
    Series(ChunkPolicy),
}

impl Chunker {
    /// The chunker of a `schedule` loop laid out as `layout`; `None` for
    /// `Static`, whose blocks are never claimed in chunks.
    pub(super) fn resolve(schedule: LoopSchedule, layout: &Layout) -> Option<Self> {
        let (workers, pools) = (layout.seats.len() as u32, layout.zone_workers.len());
        match schedule {
            LoopSchedule::Static => None,
            LoopSchedule::Dynamic(c) => Some(Chunker::Fixed(c.max(1))),
            LoopSchedule::Guided(min) => Some(Chunker::Guided { min: min.max(1) }),
            LoopSchedule::Adaptive => Some(Chunker::Adaptive(AdaptiveCost::default())),
            // No selector picked a member (plain `Runtime` regions
            // outside a task server): the fixed fallback.
            LoopSchedule::Auto => Self::resolve(AUTO_FALLBACK, layout),
            series => {
                ChunkPolicy::for_schedule(series, layout.units, workers, pools).map(Chunker::Series)
            }
        }
    }

    /// Next chunk size (in units) for a claim from `core`'s pool `pool`
    /// (see the schedule table in the [module docs](super)).
    pub(super) fn size(&self, pool: usize, core: &LoopCore) -> u32 {
        match self {
            Chunker::Fixed(c) => *c,
            Chunker::Guided { min } => {
                (core.fair_share(pool) / 2).clamp(u64::from(*min), u64::from(u32::MAX)) as u32
            }
            Chunker::Adaptive(cost) => {
                let base = match cost.estimate() {
                    Some(per_unit) => (ADAPTIVE_TARGET_TICKS / per_unit.max(1))
                        .clamp(1, ADAPTIVE_MAX_CHUNK as u64)
                        as u32,
                    None => ADAPTIVE_SEED_CHUNK,
                };
                // Tail cap against the *logical* remaining share — a
                // giant waved loop keeps one continuous cost histogram
                // and its chunks are capped by the space's true tail,
                // never re-shrunk at each pane boundary.
                u64::from(base).min(core.fair_share(pool).max(1)) as u32
            }
            Chunker::Series(policy) => policy.peek(policy.pool_weight(pool)),
        }
    }

    /// Units one zone-local claim takes out of pool `pool` when the next
    /// chunk is `want` units and recent chunks took `chunk_ticks` each
    /// (`u64::MAX` = not yet measured): `want` itself — one claim per
    /// chunk — unless the next size does not depend on shared state, in
    /// which case the claim may reserve several chunks ahead and the
    /// drain loop cuts them privately. Today that is `Fixed`; its depth
    /// is [`RESERVE_BUDGET_TICKS`] of measured work, at most
    /// [`MAX_RESERVE_CHUNKS`], capped at half the claimer's fair share of
    /// what the pool has left (guided's rule), so it is one chunk for a
    /// loop's first claim, for chunks that cost the budget or more, and
    /// at every loop's tail. Always a multiple of `want`: only a pool's
    /// last claim comes back ragged.
    pub(super) fn reservation(
        &self,
        pool: usize,
        core: &LoopCore,
        want: u32,
        chunk_ticks: u64,
    ) -> u32 {
        let Chunker::Fixed(c) = *self else {
            return want;
        };
        let depth = (RESERVE_BUDGET_TICKS / chunk_ticks.max(1)).min(MAX_RESERVE_CHUNKS);
        if depth <= 1 {
            // Before the shared `remaining` read: slow chunks claim
            // exactly as if there were no reserve.
            return c;
        }
        let c = u64::from(c);
        let tail_cap = core.fair_share(pool) / 2 / c;
        (depth.min(tail_cap).min(u64::from(u32::MAX) / c).max(1) * c) as u32
    }

    /// Consumes one scheduling step of a series (no-op otherwise).
    /// Called once per chunk *cut*, so a dry-pool probe never skips a
    /// series entry.
    pub(super) fn claimed(&self) {
        if let Chunker::Series(policy) = self {
            policy.advance();
        }
    }

    /// Folds `units` executed units from pool `pool` that took `ticks`
    /// in — one chunk, or one timing window of sub-µs chunks (both cost
    /// models are unit-weighted sums, so a window folds like the chunks
    /// in it). The cost model is per *unit* (a tile for 2D/triangular
    /// spaces), matching the unit-typed chunk sizes.
    pub(super) fn record(&self, pool: usize, units: u64, ticks: u64) {
        match self {
            Chunker::Adaptive(cost) => cost.record_chunk(units, ticks),
            Chunker::Series(policy) => policy.record_pool(pool, units, ticks),
            Chunker::Fixed(_) | Chunker::Guided { .. } => {}
        }
    }
}

/// Live per-iteration cost model of one `Adaptive` loop: a decade
/// histogram updated once per chunk (weighted by the chunk's iteration
/// count) and read as its modal decade.
#[derive(Debug, Default)]
pub(super) struct AdaptiveCost {
    buckets: [AtomicU64; 9],
}

impl AdaptiveCost {
    /// Folds one chunk of `iters` iterations that took `ticks` in.
    pub(super) fn record_chunk(&self, iters: u64, ticks: u64) {
        let per_iter = ticks / iters.max(1);
        self.buckets[decade_index(per_iter)].fetch_add(iters, Ordering::Relaxed);
    }

    /// Modal per-iteration cost estimate: the geometric midpoint
    /// (≈ 3·10^i) of the decade holding the most iterations
    /// ([`modal_index`]). `None` before the first sample.
    /// Allocation-free: this runs on the chunk claim path.
    pub(super) fn estimate(&self) -> Option<u64> {
        let counts = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        modal_index(&counts).map(|i| 3 * 10u64.pow(i as u32))
    }
}

/// Which closed-form series a [`ChunkPolicy`] follows.
#[derive(Debug)]
enum PolicyKind {
    /// Precomputed trapezoid: `first`, per-step decrement, floor.
    Tss { first: u64, dec: u64, last: u64 },
    /// Batched halving (weight 1).
    Factoring,
    /// Batched halving, weight from measured per-zone execution rates
    /// (AWF, and WF under its own name).
    Awf,
}

/// Measured execution volume of one zone pool under AWF: units run and
/// ticks spent, folded once per chunk by the drain loop.
#[derive(Debug, Default)]
struct PoolRate {
    units: AtomicU64,
    ticks: AtomicU64,
}

/// Per-loop state of one portfolio schedule: the loop-global scheduling
/// step plus (for AWF) per-zone measured rates. Created by `run_loop`
/// for TSS/Factoring/WF/AWF loops; the golden-sequence tests drive it
/// directly, single-threaded, and pin the exact series.
#[derive(Debug)]
pub struct ChunkPolicy {
    kind: PolicyKind,
    /// Scheduling step: advanced once per chunk cut (not per size
    /// query, so a dry-pool probe never skips a series entry).
    step: AtomicU64,
    total: u64,
    workers: u64,
    /// Per-pool AWF rate accumulators (empty for the unweighted kinds).
    rates: Box<[CachePadded<PoolRate>]>,
}

impl ChunkPolicy {
    /// Builds the policy for `schedule` over `total` scheduling units on
    /// `workers` workers across `pools` zone pools; `None` for the
    /// non-portfolio schedules.
    pub fn for_schedule(
        schedule: LoopSchedule,
        total: u64,
        workers: u32,
        pools: usize,
    ) -> Option<Self> {
        let kind = match schedule {
            LoopSchedule::Tss { first, last } => {
                // Tzen–Ni trapezoid: clamp the endpoints into sanity
                // (1 ≤ l ≤ f), then n = ⌈2N/(f+l)⌉ chunks and an
                // integer decrement d = (f−l)/(n−1).
                let f = u64::from(first.max(1));
                let l = u64::from(last.max(1)).min(f);
                let n = (2 * total).div_ceil(f + l).max(1);
                let dec = if n > 1 { (f - l) / (n - 1) } else { 0 };
                PolicyKind::Tss {
                    first: f,
                    dec,
                    last: l,
                }
            }
            LoopSchedule::Factoring => PolicyKind::Factoring,
            LoopSchedule::WeightedFactoring | LoopSchedule::Awf => PolicyKind::Awf,
            _ => return None,
        };
        let n_rates = if matches!(kind, PolicyKind::Awf) {
            pools
        } else {
            0
        };
        Some(ChunkPolicy {
            kind,
            step: AtomicU64::new(0),
            total: total.max(1),
            workers: u64::from(workers.max(1)),
            rates: (0..n_rates).map(|_| CachePadded::default()).collect(),
        })
    }

    /// The size the series assigns to scheduling step `s` under `weight`
    /// (1.0 = unweighted), floored at 1 and capped at the u32 pane-claim
    /// width.
    fn size_at(&self, s: u64, weight: f64) -> u32 {
        let base = match self.kind {
            PolicyKind::Tss { first, dec, last } => {
                first.saturating_sub(s.saturating_mul(dec)).max(last)
            }
            PolicyKind::Factoring | PolicyKind::Awf => {
                let batch = s / self.workers;
                // ⌈N / (P·2^(b+1))⌉ — half the remainder per batch of P.
                // u128 divisor: deep batches must floor to 1, not wrap.
                let div = u128::from(self.workers) << (batch + 1).min(64);
                (u128::from(self.total).div_ceil(div)).max(1) as u64
            }
        };
        let weighted = if (weight - 1.0).abs() <= f64::EPSILON {
            base
        } else {
            (base as f64 * weight).round() as u64
        };
        weighted.clamp(1, u64::from(u32::MAX)) as u32
    }

    /// Peeks the current step's chunk size without consuming it (the
    /// drain loop advances only on a successful claim).
    pub fn peek(&self, weight: f64) -> u32 {
        self.size_at(self.step.load(Ordering::Relaxed), weight)
    }

    /// Consumes one scheduling step (call once per successful claim).
    pub fn advance(&self) {
        self.step.fetch_add(1, Ordering::Relaxed);
    }

    /// `peek` + `advance` — the single-threaded driver the golden
    /// chunk-sequence tests use.
    pub fn next(&self, weight: f64) -> u32 {
        let s = self.step.fetch_add(1, Ordering::Relaxed);
        self.size_at(s, weight)
    }

    /// Folds one executed chunk (`units` over `ticks`) into pool `pool`'s
    /// AWF rate. No-op for the unweighted kinds.
    pub fn record_pool(&self, pool: usize, units: u64, ticks: u64) {
        if let Some(r) = self.rates.get(pool) {
            r.0.units.fetch_add(units, Ordering::Relaxed);
            r.0.ticks.fetch_add(ticks.max(1), Ordering::Relaxed);
        }
    }

    /// Pool `pool`'s AWF weight: its measured execution rate relative to
    /// the mean across measured pools, clamped to `[¼, 4]` — symmetric,
    /// so fast zones scale *up* past 1. `1.0` before the pool's first
    /// measurement (the seed batch runs unweighted), for an out-of-range
    /// pool, and for the unweighted kinds (no accumulators).
    pub fn pool_weight(&self, pool: usize) -> f64 {
        let rate = |r: &CachePadded<PoolRate>| {
            let units = r.0.units.load(Ordering::Relaxed);
            let ticks = r.0.ticks.load(Ordering::Relaxed);
            units as f64 / ticks.max(1) as f64
        };
        let sampled = |r: &f64| *r > f64::EPSILON;
        let mine = self.rates.get(pool).map_or(0.0, rate);
        if !sampled(&mine) {
            return 1.0;
        }
        let (sum, k) = self
            .rates
            .iter()
            .map(rate)
            .filter(sampled)
            .fold((0.0, 0u32), |(s, k), r| (s + r, k + 1));
        (mine / (sum / f64::from(k))).clamp(0.25, 4.0)
    }
}
