//! Where a loop's units live: the per-loop NUMA [`Layout`] and
//! [`LoopCore`], the per-zone pane sets seeded from it.

use xgomp_topology::Placement;
use xgomp_xqueue::{CachePadded, PaneSet};

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

/// The pool state of one running pool-backed loop: one [`PaneSet`] per
/// NUMA zone that hosts workers — u64 unit shares waved through ≤u32
/// panes, so a zone's share of a giant space costs at most one claim per
/// chunk (sub-µs fixed chunks amortize one claim over a reservation that
/// decays to one chunk at the tail), plus one CAS per pane refill.
#[derive(Debug)]
pub(crate) struct LoopCore {
    /// One pane set per NUMA zone that hosts workers, zone-rank order.
    pub(super) pools: Box<[CachePadded<PaneSet>]>,
    /// pool index → worker count of that zone (guided/adaptive divisor).
    zone_workers: Box<[u32]>,
}

impl LoopCore {
    pub(super) fn new(pools: Vec<PaneSet>, zone_workers: &[u32]) -> Self {
        LoopCore {
            pools: pools.into_iter().map(CachePadded).collect(),
            zone_workers: zone_workers.into(),
        }
    }

    /// Seeds one pool per zone of `layout` with the zone's contiguous
    /// unit share, waved in panes of `pane` units.
    pub(super) fn seed(layout: &Layout, pane: u64) -> Self {
        let mut seat = 0;
        let pools = layout.zone_workers.iter().map(|&w| {
            let first = seat;
            seat += w as usize;
            PaneSet::with_pane_units(layout.block(first), layout.block(seat), pane)
        });
        LoopCore::new(pools.collect(), &layout.zone_workers)
    }

    /// One zone worker's fair share of what pool `pool` has left (racy).
    /// `remaining` spans the zone's whole logical share (all pending
    /// panes), so guided decay, the adaptive tail cap and the reserve
    /// cap follow the space, not the active pane.
    pub(super) fn fair_share(&self, pool: usize) -> u64 {
        self.pools[pool].0.remaining() / u64::from(self.zone_workers[pool].max(1))
    }

    /// Whether the iteration space is fully claimed: every pool empty
    /// with no pane refill in flight. A unit is always in a pool or in
    /// some drain task's reserve, so once this holds no unit can come
    /// back into a pool except through that reserve's owner. A `false`
    /// may be transient (a refill is two CASes): callers yield and retry.
    pub(super) fn fully_claimed(&self) -> bool {
        self.pools.iter().all(|p| p.0.is_definitely_empty())
    }
}
