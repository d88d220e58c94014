//! Where a loop's units live: the per-loop NUMA [`Layout`], the
//! per-zone [`ZonePool`]s seeded from it, and [`LoopCore`] — the
//! `'static` pool state a loop shares with the team's
//! [`LoopBalancer`](super::LoopBalancer), including the migration
//! seqlock that keeps in-flight migrations invisible to the drain
//! tasks' exit scan.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use xgomp_topology::Placement;
use xgomp_xqueue::PaneSet;

use super::LoopReport;
use crate::util::CachePadded;

/// One loop's placement of units and drain tasks, computed once.
///
/// Zone-major worker order: zones (ascending) that actually host
/// workers, each zone's workers ascending. Seat `k` of this order owns
/// the static block `[block(k), block(k+1))` — contiguous unit blocks
/// whose per-zone unions are exactly the zone shares the pools seed.
/// Unit order is row-major (tile) order, so a zone's share is a
/// contiguous band of tile rows — the NUMA-aware zone blocking for
/// 2D/triangular spaces.
#[derive(Debug)]
pub(super) struct Layout {
    /// Scheduling units of the loop's space.
    pub(super) units: u64,
    /// One seat per worker, zone-major: `(worker, home zone)`.
    pub(super) seats: Vec<(usize, usize)>,
    /// zone id → pool index (zones without workers map to pool 0 — they
    /// can only appear if a placement changes under a migrated task,
    /// which the runtime never does mid-region).
    pool_of_zone: Box<[usize]>,
    /// pool index → worker count of that zone (one pool per zone that
    /// hosts workers).
    pub(super) zone_workers: Vec<u32>,
}

impl Layout {
    pub(super) fn new(placement: &Placement, units: u64) -> Self {
        let n_zones = placement.topology().zones();
        let mut layout = Layout {
            units,
            seats: Vec::new(),
            pool_of_zone: vec![0; n_zones].into_boxed_slice(),
            zone_workers: Vec::new(),
        };
        for z in 0..n_zones {
            let workers = placement.workers_in_zone(z);
            if !workers.is_empty() {
                layout.pool_of_zone[z] = layout.zone_workers.len();
                layout.zone_workers.push(workers.len() as u32);
                layout.seats.extend(workers.iter().map(|&w| (w, z)));
            }
        }
        layout
    }

    /// First unit of seat `k`'s block. u128 intermediate: units can
    /// reach 2⁶².
    pub(super) fn block(&self, k: usize) -> u64 {
        (self.units as u128 * k as u128 / self.seats.len() as u128) as u64
    }

    /// The pool index of NUMA zone `zone`.
    pub(super) fn pool_of(&self, zone: usize) -> usize {
        *self.pool_of_zone.get(zone).unwrap_or(&0)
    }
}

/// One NUMA zone's iteration pools: the seeded `main` share plus the
/// balancer-fed `inbox` (empty until a migration lands). Both are
/// [`PaneSet`]s — u64 unit shares waved through ≤u32 panes — so a zone's
/// share of a giant space costs the same at most one claim per chunk
/// (sub-µs fixed chunks amortize one claim over a reservation that
/// decays to one chunk at the tail), plus one CAS per pane refill.
#[derive(Debug)]
pub(crate) struct ZonePool {
    /// The zone's seeded share of the unit space.
    pub(super) main: PaneSet,
    /// Landing pad for inter-socket migrations. A separate pool — rather
    /// than depositing into `main` — is what makes the coarse level
    /// *proactive*: a zone can receive work while its own share still
    /// has units left (deposits only land in empty pools).
    pub(super) inbox: PaneSet,
}

impl ZonePool {
    pub(super) fn new(lo: u64, hi: u64, pane: u64) -> Self {
        ZonePool {
            main: PaneSet::with_pane_units(lo, hi, pane),
            inbox: PaneSet::with_pane_units(0, 0, pane),
        }
    }

    /// Racy total remaining units across both pools — the zone's whole
    /// *logical* share (all pending panes), not just the active pane.
    pub(super) fn remaining(&self) -> u64 {
        self.main.remaining().saturating_add(self.inbox.remaining())
    }

    /// Racy zone claim-rate estimate (units per tick).
    fn claim_rate(&self) -> f64 {
        self.main.claim_rate() + self.inbox.claim_rate()
    }

    /// Seqlock-validated emptiness of both pane sets (a pane mid-refill
    /// is in neither pool, so the racy `remaining() == 0` is not enough
    /// for an exit decision).
    fn definitely_empty(&self) -> bool {
        self.main.is_definitely_empty() && self.inbox.is_definitely_empty()
    }
}

/// The `'static` heart of one running pool-backed loop: the per-zone
/// pools plus the balancer-facing state. Shared between the loop's
/// drain tasks and the team's [`LoopBalancer`](super::LoopBalancer)
/// registry, which is why it is split out of the stack-borrowing loop
/// frame.
#[derive(Debug)]
pub(crate) struct LoopCore {
    /// One pool pair per NUMA zone that hosts workers, zone-rank order.
    pub(super) pools: Box<[CachePadded<ZonePool>]>,
    /// pool index → worker count of that zone (guided/adaptive divisor).
    zone_workers: Box<[u32]>,
    /// Migration seqlock: odd while a balancer migration is in flight
    /// (range in neither pool). Written only by
    /// [`migrating`](Self::migrating), read only by
    /// [`fully_claimed`](Self::fully_claimed).
    epoch: AtomicU64,
    /// Balancer migrations applied to this loop.
    pub(super) rebalances: AtomicU64,
    /// Units migrated into inboxes / out of mains (conserved).
    pub(super) migrated_in: AtomicU64,
    pub(super) migrated_out: AtomicU64,
}

impl LoopCore {
    pub(super) fn new(pools: Vec<ZonePool>, zone_workers: &[u32]) -> Self {
        LoopCore {
            pools: pools.into_iter().map(CachePadded).collect(),
            zone_workers: zone_workers.into(),
            epoch: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            migrated_in: AtomicU64::new(0),
            migrated_out: AtomicU64::new(0),
        }
    }

    /// Seeds one pool pair per zone of `layout` with the zone's
    /// contiguous unit share, waved in panes of `pane` units.
    pub(super) fn seed(layout: &Layout, pane: u64) -> Self {
        let mut seat = 0;
        let pools = layout.zone_workers.iter().map(|&w| {
            let first = seat;
            seat += w as usize;
            ZonePool::new(layout.block(first), layout.block(seat), pane)
        });
        LoopCore::new(pools.collect(), &layout.zone_workers)
    }

    /// Workers of pool `pool`'s zone (≥ 1: the chunk-size divisor).
    pub(super) fn workers(&self, pool: usize) -> u32 {
        self.zone_workers[pool].max(1)
    }

    /// One zone worker's fair share of what pool `pool` has left (racy).
    /// `remaining` spans the zone's whole logical share (all pending
    /// panes), so guided decay, the adaptive tail cap and the reserve
    /// cap follow the space, not the active pane.
    pub(super) fn fair_share(&self, pool: usize) -> u64 {
        self.pools[pool].0.remaining() / u64::from(self.workers(pool))
    }

    /// Pool `pool`'s racy claim rate per worker of its zone — the
    /// balancer's EWMA signal the zone-weighted schedules size from
    /// (`0` until the loop has lived through one balancer probe).
    pub(super) fn per_worker_rate(&self, pool: usize) -> f64 {
        self.pools[pool].0.claim_rate() / f64::from(self.workers(pool))
    }

    /// Whether the iteration space is fully claimed: every pool (mains
    /// and inboxes) empty with no pane refill in flight, validated
    /// against the migration seqlock — a balancer migration in flight
    /// holds a range in *neither* pool, so the scan only counts under an
    /// even epoch that is unchanged across it. A `false` may be
    /// transient (migrations are two CASes, so the window is nanoseconds
    /// unless the prober was preempted): callers yield and retry.
    pub(super) fn fully_claimed(&self) -> bool {
        let e = self.epoch.load(Ordering::SeqCst);
        let empty = e & 1 == 0 && self.pools.iter().all(|p| p.0.definitely_empty());
        // Standard seqlock reader: the fence orders the (relaxed)
        // pool-word scan before the validating epoch re-read, so the
        // scan cannot be satisfied by values newer than the epoch we
        // validate against.
        fence(Ordering::Acquire);
        empty && self.epoch.load(Ordering::SeqCst) == e
    }

    /// Runs the balancer migration `f` inside the seqlock bracket: the
    /// epoch is odd for the whole window in which the moving range is in
    /// neither pool, so no drain task can mistake that window for a
    /// completed iteration space.
    pub(super) fn migrating<R>(&self, f: impl FnOnce() -> R) -> R {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let r = f();
        self.epoch.fetch_add(1, Ordering::SeqCst);
        r
    }

    /// Folds the balancer-side counters (the prober is another thread,
    /// so they live here as atomics) into the loop's `report`.
    pub(super) fn fold_into(&self, report: &mut LoopReport) {
        report.rebalances = self.rebalances.load(Ordering::Relaxed);
        report.migrated_in = self.migrated_in.load(Ordering::Relaxed);
        report.migrated_out = self.migrated_out.load(Ordering::Relaxed);
    }
}
