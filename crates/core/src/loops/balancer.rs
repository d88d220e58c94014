//! The inter-socket loop rebalancer — the **coarse** level of two-level
//! dynamic loop balancing.
//!
//! The per-zone pools balance *within* one loop reactively: a worker
//! whose zone pools run dry steal-splits a remote zone's. That fine
//! level leaves two gaps, both closed here in the spirit of the
//! two-level DLB literature (Mohammed et al.) with LB4OMP-style measured
//! cost driving the coarse decisions:
//!
//! 1. **Proactivity** — a zone about to starve waits passively until it
//!    is dry, then pays a cold cross-zone steal on the critical path.
//!    The balancer watches per-zone *drain rates* (claims-per-tick EWMAs
//!    sampled from each zone's [`PaneSet`]s) and migrates a back-half
//!    range from the slowest-to-finish zone into a starved zone's *inbox
//!    pool* **before** it runs dry.
//! 2. **Concurrent loops** — every live `parallel_for` registers its
//!    `LoopCore` here, so one probe arbitrates iteration space across
//!    *all* loops sharing the team, not just the loop the probing worker
//!    happens to drain.
//!
//! ## Cadence and tuning
//!
//! Probes ride the [`DlbTuning`] atomics: the
//! [`rebalance_interval`](crate::DlbConfig::rebalance_interval) knob
//! (clock ticks; `0` = off) is re-read on every gate check, so the
//! Table-IV controller and `TaskServer::swap_tuning` re-tune the cadence
//! live, mid-loop. The gate itself is called from loop-drain tasks at
//! timing-window boundaries (with the window's own clock reading) and
//! from the DLB engine's idle hook — relaxed loads only when the interval
//! has not elapsed.
//!
//! ## Migration safety
//!
//! A migration is two linearizable steps (back-half steal from the rich
//! pool, deposit into the starved inbox) with a window where the range is
//! in *neither* pool. Loop-drain tasks must not conclude "the iteration
//! space is fully claimed" during that window, so every migration runs
//! inside `LoopCore::migrating`, which holds the loop's seqlock epoch odd
//! until the range has landed; the drain exit path (`fully_claimed`)
//! only trusts an all-pools-empty scan made under an even, unchanged
//! epoch — exactly a seqlock read — making lost-iteration exits
//! impossible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use xgomp_profiling::{clock, WorkerStats};
use xgomp_xqueue::{bump, PaneSet};

use super::pools::LoopCore;
use crate::dlb::{DlbTuning, DEFAULT_REBALANCE_INTERVAL};
use crate::util::locked;

/// The rich zone's estimated time-to-drain must exceed the starved
/// zone's by this factor before a migration fires (hysteresis against
/// ping-ponging ranges between near-balanced zones).
const STARVE_RATIO: f64 = 2.0;

/// A rich pool must still hold at least this many scheduling units for a
/// back-half migration to be worth the two CASes.
const MIN_MIGRATE: u64 = 16;

/// Per-team (or, under a task server, per-*server*) inter-socket loop
/// rebalancer — the coarse, proactive level of two-level loop balancing.
///
/// The balancer is passive state plus a probe: it owns no thread.
/// Whichever worker's gate check finds the interval elapsed runs the
/// probe inline (single-prober lock, so pool rate sampling stays
/// single-writer), and its per-worker stats block absorbs the rebalance
/// counters.
#[derive(Debug, Default)]
pub struct LoopBalancer {
    /// Live pool-backed loops (registered by `parallel_for`, removed on
    /// completion — panics included, via drop guard).
    loops: Mutex<Vec<Arc<LoopCore>>>,
    /// Live tuning cell; when bound, `rebalance_interval` is read from
    /// it so controller retunes and `swap_tuning` apply immediately.
    tuning: OnceLock<Arc<DlbTuning>>,
    /// Tick of the next allowed probe.
    next_probe: AtomicU64,
    /// Single-prober gate (also the single-sampler guarantee for the
    /// pools' rate EWMAs).
    probing: AtomicBool,
    probes: AtomicU64,
    rebalances: AtomicU64,
    iterations_migrated: AtomicU64,
}

/// A live loop's entry in the balancer's registry: dropping it removes
/// the loop — on completion or when the loop frame unwinds, so a
/// panicking body cannot leave its pools registered.
pub(crate) struct Registration<'a> {
    balancer: &'a LoopBalancer,
    core: &'a Arc<LoopCore>,
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        let mut loops = locked(&self.balancer.loops);
        if let Some(i) = loops.iter().position(|c| Arc::ptr_eq(c, self.core)) {
            loops.swap_remove(i);
        }
    }
}

impl LoopBalancer {
    /// A balancer with the default probe cadence
    /// ([`DEFAULT_REBALANCE_INTERVAL`] ticks until a tuning cell is
    /// bound). `Default` is this constructor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the live [`DlbTuning`] cell the probe cadence is read from
    /// (first bind wins; later binds of the same server-owned cell are
    /// no-ops, which is what the per-generation team rebuild wants).
    pub fn bind_tuning(&self, tuning: &Arc<DlbTuning>) {
        let _ = self.tuning.set(tuning.clone());
    }

    /// The active probe interval in clock ticks (`0` = balancer off).
    #[inline]
    pub fn interval_ticks(&self) -> u64 {
        match self.tuning.get() {
            Some(t) => t.rebalance_interval(),
            None => DEFAULT_REBALANCE_INTERVAL,
        }
    }

    /// Registers a live loop's pool set for rebalancing until the
    /// returned guard drops.
    pub(crate) fn register<'a>(&'a self, core: &'a Arc<LoopCore>) -> Registration<'a> {
        locked(&self.loops).push(core.clone());
        Registration {
            balancer: self,
            core,
        }
    }

    /// The probe gate: cheap when the interval has not elapsed (one
    /// clock read + relaxed loads), otherwise claims the single-prober
    /// lock and runs one probe over every registered loop. Returns
    /// whether this call performed at least one migration.
    ///
    /// `stats` is the calling worker's own stats block (the per-worker
    /// single-writer contract is the caller's).
    pub fn maybe_probe(&self, stats: &WorkerStats) -> bool {
        self.maybe_probe_at(clock::now(), stats)
    }

    /// [`maybe_probe`](Self::maybe_probe) against a clock reading the
    /// caller already holds — the loop drain path's one read per timing
    /// window — so the gate itself is relaxed loads only.
    pub(crate) fn maybe_probe_at(&self, now: u64, stats: &WorkerStats) -> bool {
        let interval = self.interval_ticks();
        if interval == 0 || now < self.next_probe.load(Ordering::Relaxed) {
            return false;
        }
        if self.probing.swap(true, Ordering::Acquire) {
            return false; // someone else is probing
        }
        // Release the gate even if the probe unwinds (a stuck-true flag
        // would silently disable the balancer for the process lifetime).
        struct Gate<'a>(&'a AtomicBool);
        impl Drop for Gate<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _gate = Gate(&self.probing);
        self.next_probe.store(now + interval, Ordering::Relaxed);
        self.probe(now, stats)
    }

    /// One probe: refresh every registered loop's per-zone drain rates
    /// and apply at most one migration per loop (rich back-half → the
    /// most-starved zone's inbox).
    fn probe(&self, now: u64, stats: &WorkerStats) -> bool {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let loops = locked(&self.loops);
        let mut any = false;
        for core in loops.iter() {
            if let Some(landed) = Self::rebalance_loop(core, now, stats) {
                any = true;
                self.rebalances.fetch_add(1, Ordering::Relaxed);
                self.iterations_migrated
                    .fetch_add(landed, Ordering::Relaxed);
            }
        }
        any
    }

    /// Probes one loop; returns the migrated unit count, if any.
    ///
    /// Policy: per zone, estimate the time-to-drain
    /// `ETA = remaining / claim-rate` (`0` when already dry, `∞` while
    /// unsampled or stalled). The *starved* zone is the minimal-ETA zone
    /// whose inbox is free; the *rich* zone is the maximal-ETA zone
    /// still holding a block worth splitting. Migrate the rich back
    /// half when the imbalance exceeds [`STARVE_RATIO`] — which includes
    /// the reactive dry case (`ETA = 0`) and fires *before* dryness once
    /// the rate samples make a small finite ETA visible.
    fn rebalance_loop(core: &LoopCore, now: u64, stats: &WorkerStats) -> Option<u64> {
        let mut poor: Option<(usize, f64)> = None;
        let mut rich: Option<(usize, f64)> = None;
        for (i, p) in core.pools.iter().enumerate() {
            let rate = p.0.main.sample_rate(now) + p.0.inbox.sample_rate(now);
            let rem = p.0.remaining() as f64;
            let eta = if rem == 0.0 {
                0.0
            } else if rate <= f64::EPSILON {
                f64::INFINITY
            } else {
                rem / rate
            };
            if eta.is_finite() && p.0.inbox.is_empty() && poor.is_none_or(|(_, e)| eta < e) {
                poor = Some((i, eta));
            }
            if p.0.main.remaining() >= MIN_MIGRATE && rich.is_none_or(|(_, e)| eta > e) {
                rich = Some((i, eta));
            }
        }
        let ((poor, poor_eta), (rich, rich_eta)) = (poor?, rich?);
        if poor == rich || rich_eta <= STARVE_RATIO * poor_eta {
            return None;
        }
        let (src, dst) = (&core.pools[rich].0.main, &core.pools[poor].0.inbox);
        core.migrating(|| Self::migrate(core, src, dst, stats))
    }

    /// Moves the back half of `src` into `dst`. A pane-set back-steal
    /// prefers a run of whole pending panes, so what migrates from a
    /// waved or tiled space is a contiguous run of panes/tiles — the
    /// issue's "migrate tiles, not scalar ranges". Each side is
    /// accounted **at its own linearization point** (in units):
    /// `migrated_out` at the steal, `migrated_in` at the deposit, and
    /// the out-count reverted together with the range when the give-back
    /// path fires. A migration path that loses a range therefore shows
    /// up as `out > in` and fails the conservation invariant — the
    /// identity the tests assert is falsifiable, not a double-count of
    /// one value.
    ///
    /// `dst` is the starved zone's inbox, and this prober is the *only*
    /// writer of inboxes (single-prober gate), so the deposit can only
    /// fail transiently (a claimer-side refill holding the seq word, or
    /// a stale emptiness read). Unlike the flat-pool era there is no
    /// `unsteal` — pane adjacency is ill-defined across panes — so the
    /// fallback re-homes the range into whichever side empties first;
    /// drain tasks keep claiming throughout, so one of the two deposits
    /// lands in bounded time. The seqlock epoch is held odd by the
    /// caller for the whole window.
    fn migrate(core: &LoopCore, src: &PaneSet, dst: &PaneSet, stats: &WorkerStats) -> Option<u64> {
        if !dst.is_empty() {
            return None;
        }
        let (lo, hi) = src.steal_half()?;
        let n = hi - lo;
        core.migrated_out.fetch_add(n, Ordering::Relaxed);
        bump(&stats.nloop_migrated_out, n);
        loop {
            if dst.deposit_if_empty(lo, hi) {
                core.migrated_in.fetch_add(n, Ordering::Relaxed);
                core.rebalances.fetch_add(1, Ordering::Relaxed);
                bump(&stats.nloop_migrated_in, n);
                bump(&stats.nloop_rebalances, 1);
                return Some(n);
            }
            // `dst` raced non-empty (stale scan / refill in flight):
            // hand the range back to `src` once it drains, and revert
            // the out-count with it — nothing migrated.
            if src.deposit_if_empty(lo, hi) {
                core.migrated_out.fetch_sub(n, Ordering::Relaxed);
                let out = &stats.nloop_migrated_out;
                out.store(
                    out.load(Ordering::Relaxed).saturating_sub(n),
                    Ordering::Relaxed,
                );
                return None;
            }
            std::hint::spin_loop();
        }
    }

    /// Currently registered (live) loops.
    pub fn live_loops(&self) -> usize {
        locked(&self.loops).len()
    }

    /// Probes run so far.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Migrations performed so far.
    pub fn rebalances(&self) -> u64 {
        self.rebalances.load(Ordering::Relaxed)
    }

    /// Iterations migrated so far.
    pub fn iterations_migrated(&self) -> u64 {
        self.iterations_migrated.load(Ordering::Relaxed)
    }
}
