//! The loop layer's public vocabulary: which [`LoopSchedule`] a loop
//! runs under, why it could not run ([`LoopError`]) and what it did
//! ([`LoopReport`] — also the per-drain-task accumulator the report is
//! summed from).

use serde::{Deserialize, Serialize};
// (`serde` is used by `LoopReport`; the shim derive cannot handle the
// data-carrying variants of `LoopSchedule`, which stays plain.)

/// Iteration-space scheduling policy of a
/// [`TaskCtx::parallel_for`](crate::TaskCtx::parallel_for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopSchedule {
    /// NUMA-blocked static partition: each worker gets one contiguous
    /// block, zone-affinely placed; no pools, no stealing. Lowest
    /// overhead, no balancing.
    Static,
    /// Fixed-size chunks claimed from the zone pools (OpenMP
    /// `schedule(dynamic, c)`); `0` is treated as `1`.
    Dynamic(u32),
    /// Exponentially decreasing chunks — half the pool's remainder
    /// divided by the zone's workers, floored at the given minimum
    /// (OpenMP `schedule(guided, m)`); `0` is treated as `1`.
    Guided(u32),
    /// Chunk size derived online from the loop's live per-iteration
    /// cost: each chunk's duration feeds a decade histogram, and the
    /// next chunk targets a fixed time budget divided by the modal
    /// per-iteration cost (LB4OMP-style self-tuning).
    Adaptive,
    /// Trapezoid self-scheduling (Tzen–Ni): chunk sizes decrease
    /// *linearly* from `first` to `last` over `⌈2N/(first+last)⌉`
    /// chunks — guided's decreasing tail with a bounded, predictable
    /// series. `first`/`last` are clamped into `1 ≤ last ≤ first`.
    Tss {
        /// First chunk's size (a common choice is `N / (2·P)`).
        first: u32,
        /// Smallest chunk the series decays to (commonly `1`).
        last: u32,
    },
    /// Factoring (Hummel–Schonberg–Flynn, exact-halving variant): each
    /// *batch* of `P` chunks hands out half the remaining work, so a
    /// chunk of batch `b` has `⌈N/(P·2^(b+1))⌉` units — more tail
    /// chunks than guided, robust to high iteration-cost variance.
    Factoring,
    /// [`Factoring`](Self::Factoring) with each zone's chunks scaled by
    /// its measured execution-rate weight: fast zones take
    /// proportionally bigger chunks, slow zones keep their tail
    /// balanceable. Runs the same chunker as [`Awf`](Self::Awf); it
    /// keeps its own name, telemetry slot and `Auto` portfolio slot.
    WeightedFactoring,
    /// Adaptive weighted factoring: factoring whose per-zone weights
    /// come from *measured* per-chunk execution rates, folded at each
    /// timing window boundary.
    Awf,
    /// Online per-loop-site auto-selection: the serving team's
    /// [`AutoSelector`](super::AutoSelector) trials the portfolio across
    /// repeated instances of the same loop site (keyed by
    /// [`LoopId`](super::LoopId) or space shape), scores by measured
    /// makespan and converges on the fastest with two-window hysteresis.
    /// Outside a server (no selector attached) it falls back to
    /// [`AUTO_FALLBACK`](super::AUTO_FALLBACK).
    Auto,
}

impl LoopSchedule {
    /// Stable index into the per-schedule telemetry
    /// ([`xgomp_profiling::LOOP_SCHEDULE_NAMES`] order).
    pub fn index(self) -> usize {
        match self {
            LoopSchedule::Static => 0,
            LoopSchedule::Dynamic(_) => 1,
            LoopSchedule::Guided(_) => 2,
            LoopSchedule::Adaptive => 3,
            LoopSchedule::Tss { .. } => 4,
            LoopSchedule::Factoring => 5,
            LoopSchedule::WeightedFactoring => 6,
            LoopSchedule::Awf => 7,
            LoopSchedule::Auto => 8,
        }
    }

    /// Human-readable schedule name.
    pub fn name(self) -> &'static str {
        xgomp_profiling::LOOP_SCHEDULE_NAMES[self.index()]
    }
}

/// Why a loop could not be run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopError {
    /// The space exceeds what the waving layer can schedule: more than
    /// 2⁶² scheduling units ([`xgomp_xqueue::MAX_SHARE_UNITS`]), or an
    /// element count that overflows u64. Ordinary giant spaces —
    /// including >u32::MAX-iteration ranges — are *not* errors anymore;
    /// they auto-wave through panes.
    RangeTooLarge {
        /// The rejected space's element count (saturated at `u64::MAX`
        /// when the true count overflows).
        len: u64,
    },
}

impl std::fmt::Display for LoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoopError::RangeTooLarge { len } => write!(
                f,
                "iteration space exceeds the schedulable bound of 2^62 units \
                 (got {len} elements); split it into multiple loops"
            ),
        }
    }
}

impl std::error::Error for LoopError {}

/// What a completed [`TaskCtx::parallel_for`](crate::TaskCtx::parallel_for)
/// reports. `Default` is the all-zero report of an empty space; drain
/// tasks accumulate into a private one and merge it into the loop total
/// once each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopReport {
    /// Iterations executed (the full range length unless the job's
    /// cancellation token fired mid-loop).
    pub iterations: u64,
    /// Iterations abandoned *un-executed* because the job's cancellation
    /// token fired mid-loop (drain tasks give up their reserves and
    /// empty the remaining pools without running them).
    /// `iterations + cancelled_iters` equals the
    /// range length exactly — the cancellation conservation identity.
    pub cancelled_iters: u64,
    /// Chunks executed (a claim that reserves several `Dynamic(c)`
    /// chunks ahead still counts each chunk of `c` it runs).
    pub chunks: u64,
    /// Chunks cut from units claimed out of the executing worker's own
    /// zone pools (the zone-local-first fast path; static blocks count
    /// when they ran in their home zone).
    pub claimed_local: u64,
    /// Cross-zone range steal-splits performed — the only path by which
    /// units leave their home zone.
    pub range_steals: u64,
}
