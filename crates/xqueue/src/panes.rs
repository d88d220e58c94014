//! Pane sets — the *wave* layer that lifts [`RangePool`] from u32
//! offsets to whole u64 iteration spaces.
//!
//! A [`RangePool`] packs `(lo, hi)` into one atomic word, so a single
//! pool is bounded at `u32::MAX` scheduling units. A [`PaneSet`] owns
//! one zone's u64 *share* of a logical space and lowers it to **panes**
//! of at most `u32::MAX` units each, drained through two pools:
//!
//! * `panes` — a `RangePool` of pending *pane indices*. Panes have a
//!   fixed size, so pane `k` of a share `[S, E)` deterministically
//!   covers `[S + k·P, min(S + (k+1)·P, E))` — pane position is pure
//!   arithmetic, never shared mutable state.
//! * `current` — the active pane's units, as u32 offsets from an atomic
//!   `base`. All front claims flow through here, so a claim stays one
//!   CAS on the range word — but not one RMW: with the handshake below
//!   a pane-set claim is *three* RMWs on shared lines (`claimers` +1,
//!   the range-word CAS, `claimers` −1; `xqueue.panes.claim_ns` in the
//!   benchmark ledger, uncontended), each of which a second claimer
//!   turns into a cache-line transfer. Callers amortize: at most one
//!   claim per chunk, and one claim per *reservation* of sub-µs chunks.
//!
//! A claim that finds `current` dry *refills* it from the next pending
//! pane — one `claim(1)` CAS on the pane queue — and shares smaller than
//! one pane skip the pane queue entirely (the `current` pool **is** the
//! share), so sub-u32 loops pay no waving overhead beyond the Dekker
//! registration below.
//!
//! ## The base-attribution handshake
//!
//! A refill publishes a new `base` and re-seeds `current`; a concurrent
//! claimer must never pair a chunk claimed from the *new* pane with the
//! *old* base. The two sides run a SeqCst Dekker handshake (the same
//! idiom as the parker's full-fence pairing):
//!
//! * **Claimers** register in a `claimers` counter (`fetch_add`,
//!   SeqCst), then load `seq`. Odd means a refill is in flight —
//!   deregister and retry. Even means any refill that starts later must
//!   first observe `claimers != 0` and wait, so `base` is frozen for the
//!   whole registered window.
//! * **The refiller** flips `seq` odd (one CAS — also the mutual
//!   exclusion between refills and deposits), waits for `claimers` to
//!   drain, moves one pane, then flips `seq` back even.
//!
//! `seq` doubles as a seqlock for scanners:
//! [`is_definitely_empty`](PaneSet::is_definitely_empty) validates its
//! two-pool emptiness scan against an even, unchanged `seq`, because a
//! pane mid-refill is in *neither* pool.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::rangepool::RangePool;

/// Default pane size in scheduling units (2³¹: half the u32 space, so
/// ragged arithmetic never overflows a pool word, and a maximal
/// `u32::MAX`-pane share still fits ~2⁶² units).
pub const DEFAULT_PANE_UNITS: u64 = 1 << 31;

/// Hard ceiling on one `PaneSet` share (and hence on one logical
/// iteration space): 2⁶² scheduling units always lower to at most
/// `u32::MAX` panes of at least [`DEFAULT_PANE_UNITS`] each.
pub const MAX_SHARE_UNITS: u64 = 1 << 62;

/// One zone's u64 share of an iteration space, waved through ≤u32 panes
/// (see the [module docs](self)).
#[derive(Debug)]
pub struct PaneSet {
    /// First unit of pane 0 (only rewritten by `deposit_if_empty`, under
    /// the refill lock with `claimers` drained).
    share_lo: AtomicU64,
    /// One past the share's last unit (ragged-last-pane bound).
    share_hi: AtomicU64,
    /// Units per pane. Configurable (tests shrink it to exercise many
    /// refills cheaply); grown automatically when a share would need
    /// more than `u32::MAX` panes.
    pane_units: AtomicU64,
    /// Pending pane indices.
    panes: RangePool,
    /// The active pane's units, as offsets from `base`.
    current: RangePool,
    /// Global unit index of `current`'s offset 0.
    base: AtomicU64,
    /// Dekker/seqlock word: odd while a refill or deposit is in flight.
    seq: AtomicU64,
    /// Registered claimers/stealers (readers of `base` and the share
    /// fields); a refill waits for zero before touching them.
    claimers: AtomicU64,
}

impl PaneSet {
    /// An empty pane set with the default pane size.
    pub fn empty() -> Self {
        Self::with_pane_units(0, 0, DEFAULT_PANE_UNITS)
    }

    /// A pane set seeded with units `[lo, hi)`, default pane size.
    pub fn new(lo: u64, hi: u64) -> Self {
        Self::with_pane_units(lo, hi, DEFAULT_PANE_UNITS)
    }

    /// A pane set seeded with units `[lo, hi)` and an explicit pane size
    /// (clamped to `[1, u32::MAX]`; mostly a test knob — small panes
    /// exercise many refills on small spaces).
    pub fn with_pane_units(lo: u64, hi: u64, pane_units: u64) -> Self {
        debug_assert!(lo <= hi);
        debug_assert!(hi - lo <= MAX_SHARE_UNITS, "share beyond 2^62 units");
        let set = PaneSet {
            share_lo: AtomicU64::new(lo),
            share_hi: AtomicU64::new(hi),
            pane_units: AtomicU64::new(pane_units.clamp(1, u32::MAX as u64)),
            panes: RangePool::empty(),
            current: RangePool::empty(),
            base: AtomicU64::new(lo),
            seq: AtomicU64::new(0),
            claimers: AtomicU64::new(0),
        };
        if lo < hi {
            set.install(lo, hi);
        }
        set
    }

    /// Seeds the (empty) pools with `[lo, hi)`. Caller holds the refill
    /// lock or exclusive access (constructor).
    fn install(&self, lo: u64, hi: u64) {
        let len = hi - lo;
        self.share_lo.store(lo, Ordering::Relaxed);
        self.share_hi.store(hi, Ordering::Relaxed);
        let mut p = self.pane_units.load(Ordering::Relaxed).max(1);
        // Grow panes until the share fits the u32 pane-index space.
        while len.div_ceil(p) > u32::MAX as u64 {
            p *= 2;
        }
        self.pane_units.store(p, Ordering::Relaxed);
        if len <= p {
            // Single-pane fast path: the whole share sits in `current`,
            // the pane queue stays empty, no refill will ever run.
            self.base.store(lo, Ordering::Relaxed);
            let seeded = self.current.deposit_if_empty(0, len as u32);
            debug_assert!(seeded, "install into a non-empty current pool");
        } else {
            let seeded = self.panes.deposit_if_empty(0, len.div_ceil(p) as u32);
            debug_assert!(seeded, "install into a non-empty pane queue");
        }
    }

    /// Unit bounds of pane `k`. Caller must hold the refill lock or be
    /// registered in `claimers` (the share fields are frozen then).
    fn pane_bounds(&self, k: u32) -> (u64, u64) {
        let p = self.pane_units.load(Ordering::Relaxed);
        let hi = self.share_hi.load(Ordering::Relaxed);
        let lo = self.share_lo.load(Ordering::Relaxed) + k as u64 * p;
        (lo.min(hi), (lo + p).min(hi))
    }

    /// Claims up to `max` units from the front. Returns global unit
    /// bounds, or `None` if the set *looked* empty — a refill in flight
    /// holds a pane in neither pool, so "empty" must be confirmed with
    /// [`is_definitely_empty`](Self::is_definitely_empty) before any
    /// exit decision, exactly like a racy [`RangePool::claim`] miss.
    pub fn claim(&self, max: u32) -> Option<(u64, u64)> {
        loop {
            self.claimers.fetch_add(1, Ordering::SeqCst);
            if self.seq.load(Ordering::SeqCst) & 1 == 1 {
                // Refill in flight: get out of its way and retry.
                self.claimers.fetch_sub(1, Ordering::Release);
                std::hint::spin_loop();
                continue;
            }
            let base = self.base.load(Ordering::Relaxed);
            let got = self.current.claim(max);
            self.claimers.fetch_sub(1, Ordering::Release);
            if let Some((lo, hi)) = got {
                return Some((base + lo as u64, base + hi as u64));
            }
            // Current pane dry: refill from the pane queue (one CAS) and
            // retry, unless the whole set is drained.
            if !self.refill() {
                return None;
            }
        }
    }

    /// Moves the next pending pane into `current`. Returns `false` only
    /// when there is provably nothing left to claim right now (both
    /// pools looked empty with no refill in flight); `true` means the
    /// caller should retry its claim.
    fn refill(&self) -> bool {
        let s = self.seq.load(Ordering::SeqCst);
        if s & 1 == 1 {
            // Another refill is in flight; its outcome feeds our retry.
            std::hint::spin_loop();
            return true;
        }
        if self.panes.is_empty() {
            // Nothing to refill from. Retry only if `current` was
            // re-seeded meanwhile (a racing refill that beat us here).
            return !self.current.is_empty();
        }
        if self
            .seq
            .compare_exchange(s, s + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return true;
        }
        // Exclusive. Wait out registered claimers so nobody pairs a
        // chunk from the new pane with the old base (module docs).
        while self.claimers.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        if self.current.is_empty() {
            if let Some((k, _)) = self.panes.claim(1) {
                let (lo, hi) = self.pane_bounds(k);
                self.base.store(lo, Ordering::Relaxed);
                let seeded = self.current.deposit_if_empty(0, (hi - lo) as u32);
                debug_assert!(seeded, "refill into a non-empty current pool");
            }
        }
        self.seq.store(s + 2, Ordering::SeqCst);
        true
    }

    /// Steals from the back: a run of whole pending panes when any
    /// remain (one CAS moves up to half the pane queue), else the upper
    /// half of the active pane. Returns global unit bounds; `None` means
    /// the set looked empty (same caveat as [`claim`](Self::claim)).
    pub fn steal_half(&self) -> Option<(u64, u64)> {
        self.claimers.fetch_add(1, Ordering::SeqCst);
        if self.seq.load(Ordering::SeqCst) & 1 == 1 {
            self.claimers.fetch_sub(1, Ordering::Release);
            return None;
        }
        let got = if let Some((ka, kb)) = self.panes.steal_half() {
            // Pending panes are contiguous in unit space: the stolen run
            // spans pane ka's first unit to pane kb-1's last.
            Some((self.pane_bounds(ka).0, self.pane_bounds(kb - 1).1))
        } else {
            let base = self.base.load(Ordering::Relaxed);
            self.current
                .steal_half()
                .map(|(lo, hi)| (base + lo as u64, base + hi as u64))
        };
        self.claimers.fetch_sub(1, Ordering::Release);
        got
    }

    /// Deposits units `[lo, hi)` **iff the set is empty** (a thief
    /// re-homing the tail of a stolen range into its own zone). Shares
    /// longer than one pane re-wave through the pane queue. Returns
    /// whether the deposit landed; on `false` the caller still owns the
    /// range.
    pub fn deposit_if_empty(&self, lo: u64, hi: u64) -> bool {
        debug_assert!(lo < hi, "depositing an empty range");
        if self.remaining() != 0 {
            return false;
        }
        let s = self.seq.load(Ordering::SeqCst);
        if s & 1 == 1
            || self
                .seq
                .compare_exchange(s, s + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
        {
            // A refill or deposit is in flight — not empty for our
            // purposes; the caller keeps the range.
            return false;
        }
        while self.claimers.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        let empty = self.panes.is_empty() && self.current.is_empty();
        if empty {
            self.install(lo, hi);
        }
        self.seq.store(s + 2, Ordering::SeqCst);
        empty
    }

    /// Cancellation drain: empties both pools without executing,
    /// reporting every drained **global unit range** through `f` (so the
    /// caller can convert units to logical elements) and returning the
    /// total units drained. Loops until the emptiness is seqlock-clean —
    /// a refill in flight re-materializes units after a blind scan.
    /// Concurrent drainers and claimers are fine: every unit goes to
    /// exactly one of them.
    pub fn drain_all_with(&self, mut f: impl FnMut(u64, u64)) -> u64 {
        let mut total = 0u64;
        loop {
            self.claimers.fetch_add(1, Ordering::SeqCst);
            if self.seq.load(Ordering::SeqCst) & 1 == 1 {
                self.claimers.fetch_sub(1, Ordering::Release);
                std::hint::spin_loop();
                continue;
            }
            if let Some((ka, kb)) = self.panes.drain_all() {
                let (lo, hi) = (self.pane_bounds(ka).0, self.pane_bounds(kb - 1).1);
                total += hi - lo;
                f(lo, hi);
            }
            let base = self.base.load(Ordering::Relaxed);
            if let Some((lo, hi)) = self.current.drain_all() {
                total += (hi - lo) as u64;
                f(base + lo as u64, base + hi as u64);
            }
            self.claimers.fetch_sub(1, Ordering::Release);
            if self.is_definitely_empty() {
                return total;
            }
            std::hint::spin_loop();
        }
    }

    /// Racy remaining-unit estimate across both pools (scheduling
    /// heuristics only).
    pub fn remaining(&self) -> u64 {
        let mut total = self.current.remaining() as u64;
        let (ka, kb) = self.panes.snapshot();
        if ka < kb {
            let p = self.pane_units.load(Ordering::Relaxed).max(1);
            let slo = self.share_lo.load(Ordering::Relaxed);
            let shi = self.share_hi.load(Ordering::Relaxed);
            let lo = (slo + ka as u64 * p).min(shi);
            let hi = (slo + kb as u64 * p).min(shi);
            total += hi - lo;
        }
        total
    }

    /// Whether the set looked empty at the loads (racy).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.panes.is_empty() && self.current.is_empty()
    }

    /// Seqlock-validated emptiness: both pools empty with no refill in
    /// flight before, during, or after the scan. Only this is strong
    /// enough for a drain-exit decision — a pane mid-refill is in
    /// *neither* pool.
    pub fn is_definitely_empty(&self) -> bool {
        let s = self.seq.load(Ordering::SeqCst);
        if s & 1 == 1 {
            return false;
        }
        let empty = self.is_empty();
        // Seqlock reader: order the pool-word scan before the validating
        // re-read, so the scan can't see state newer than the epoch.
        fence(Ordering::Acquire);
        empty && self.seq.load(Ordering::SeqCst) == s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_pane_share_skips_the_pane_queue() {
        let set = PaneSet::new(1_000, 1_100);
        assert_eq!(set.remaining(), 100);
        assert_eq!(set.claim(40), Some((1_000, 1_040)));
        assert_eq!(set.steal_half(), Some((1_070, 1_100)));
        assert_eq!(set.claim(100), Some((1_040, 1_070)));
        assert_eq!(set.claim(1), None);
        assert!(set.is_definitely_empty());
    }

    #[test]
    fn claims_wave_across_panes_in_order() {
        // 25 units in panes of 8: 8 + 8 + 8 + 1.
        let set = PaneSet::with_pane_units(100, 125, 8);
        let mut next = 100;
        while let Some((lo, hi)) = set.claim(3) {
            assert_eq!(lo, next, "claims stay contiguous across pane refills");
            assert!(hi - lo <= 3);
            next = hi;
        }
        assert_eq!(next, 125, "every unit claimed exactly once");
        assert!(set.is_definitely_empty());
    }

    #[test]
    fn giant_share_claims_conserve() {
        // > u32::MAX units with default panes: a handful of whole-pane
        // claims drain it.
        let len = u32::MAX as u64 + 9;
        let set = PaneSet::new(0, len);
        assert_eq!(set.remaining(), len);
        let (mut next, mut claims) = (0u64, 0u32);
        while let Some((lo, hi)) = set.claim(u32::MAX) {
            assert_eq!(lo, next);
            next = hi;
            claims += 1;
        }
        assert_eq!(next, len);
        assert!(claims <= 4, "whole-pane claims: {claims}");
        assert!(set.is_definitely_empty());
    }

    #[test]
    fn steals_prefer_whole_pane_tails() {
        // 64 units in panes of 8 → 8 pending panes; nothing claimed yet,
        // so a steal takes the back run of panes [4, 8) = units [32, 64).
        let set = PaneSet::with_pane_units(0, 64, 8);
        assert_eq!(set.steal_half(), Some((32, 64)));
        // Drain the front normally; the stolen units never reappear.
        let mut got = 0u64;
        while let Some((lo, hi)) = set.claim(100) {
            got += hi - lo;
        }
        assert_eq!(got, 32);
        // Active-pane steal once the pane queue is dry.
        let set = PaneSet::with_pane_units(0, 10, 32);
        assert_eq!(set.claim(2), Some((0, 2)));
        assert_eq!(set.steal_half(), Some((6, 10)));
    }

    #[test]
    fn ragged_last_pane_steal_bounds_are_clipped() {
        // 20 units in panes of 8: panes cover [0,8) [8,16) [16,20).
        let set = PaneSet::with_pane_units(0, 20, 8);
        // Steal takes panes [1,3) hi-clipped to 20 — not 24.
        assert_eq!(set.steal_half(), Some((8, 20)));
    }

    #[test]
    fn deposit_rewaves_and_refuses_nonempty() {
        let set = PaneSet::with_pane_units(0, 10, 8);
        assert!(!set.deposit_if_empty(50, 60), "set still holds units");
        set.drain_all_with(|_, _| {});
        // A deposit longer than one pane re-waves through the queue.
        assert!(set.deposit_if_empty(1_000, 1_030));
        let mut next = 1_000;
        while let Some((lo, hi)) = set.claim(4) {
            assert_eq!(lo, next);
            next = hi;
        }
        assert_eq!(next, 1_030);
    }

    #[test]
    fn drain_reports_exact_unit_ranges() {
        let set = PaneSet::with_pane_units(0, 30, 8);
        assert_eq!(set.claim(5), Some((0, 5)));
        let mut drained = Vec::new();
        let total = set.drain_all_with(|lo, hi| drained.push((lo, hi)));
        assert_eq!(total, 25);
        assert_eq!(total, drained.iter().map(|(lo, hi)| hi - lo).sum::<u64>());
        assert!(set.is_definitely_empty());
    }

    #[test]
    fn pane_growth_keeps_index_space_in_u32() {
        // A tiny pane size on a giant share must auto-grow rather than
        // overflow the pane-index pool.
        let len = (u32::MAX as u64 + 1) * 4; // 2^34 units
        let set = PaneSet::with_pane_units(0, len, 2);
        assert_eq!(set.remaining(), len);
        let (lo, hi) = set.claim(u32::MAX).unwrap();
        assert_eq!(lo, 0);
        assert!(hi > 0);
    }

    #[test]
    fn concurrent_claims_steals_and_refills_conserve_units() {
        const LEN: u64 = 120_000;
        // Panes of 1k → ~120 refills race the claims and steals.
        let set = Arc::new(PaneSet::with_pane_units(0, LEN, 1_024));
        let total: u64 = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..8 {
                let set = set.clone();
                handles.push(s.spawn(move || {
                    let mut got = 0u64;
                    loop {
                        let r = if t % 3 == 0 {
                            set.steal_half()
                        } else {
                            set.claim(97)
                        };
                        match r {
                            Some((lo, hi)) => got += hi - lo,
                            None => {
                                if set.is_definitely_empty() {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                    got
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, LEN, "every unit handed out exactly once");
        assert!(set.is_definitely_empty());
    }

    #[test]
    fn concurrent_drain_racing_claims_conserves() {
        const LEN: u64 = 80_000;
        let set = Arc::new(PaneSet::with_pane_units(0, LEN, 512));
        let total: u64 = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..6 {
                let set = set.clone();
                handles.push(s.spawn(move || {
                    let mut got = 0u64;
                    if t == 0 {
                        // One drainer races the claimers mid-flight.
                        for _ in 0..500 {
                            std::hint::spin_loop();
                        }
                        got += set.drain_all_with(|_, _| {});
                    } else {
                        while let Some((lo, hi)) = set.claim(33) {
                            got += hi - lo;
                        }
                        // Late units may surface after a refill the
                        // drainer hasn't cleaned yet; sweep them too.
                        got += set.drain_all_with(|_, _| {});
                    }
                    got
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, LEN, "claimed + drained covers the share exactly");
    }
}
