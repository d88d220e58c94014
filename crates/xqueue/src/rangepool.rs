//! Lock-free iteration-range pools — the queuing substrate of the
//! data-parallel loop subsystem (`xgomp_core::loops`).
//!
//! A [`RangePool`] holds one contiguous block of unclaimed loop
//! iterations, packed as `(lo, hi)` offsets into a single `AtomicU64`
//! word. Owners *claim* chunks from the front (`lo` moves up); thieves
//! *steal-split* from the back (`hi` moves down, taking the upper half),
//! so a victim's cache-warm front stays with the victim — the
//! iteration-space analog of stealing the cold end of a deque.
//!
//! Like [`parker`](crate::parker), this module is a deliberate exception
//! to the crate's plain-load/store discipline: pools use CAS, but at
//! most once per *chunk*, never per iteration. The pool is that one
//! word and nothing else, so what a claim costs is one RMW on a shared
//! line — cheap with the word to itself, several times that with a
//! second claimer on it (the benchmark ledger's
//! `xqueue.rangepool.claim_ns` vs `claim_2t_ns`), and more with every
//! further worker of the zone. That is noise next to chunks of
//! tens to thousands of iterations and as much as the body itself next
//! to a sub-µs chunk, which is why the loop layer's drain path reserves
//! several such chunks with one claim instead of claiming each.
//!
//! Offsets are `u32` so the whole pool state fits one atomic word — one
//! pool is therefore bounded at `u32::MAX` (≈ 4.3 · 10⁹) scheduling
//! units. Larger logical spaces are *waved* through panes of ≤ u32::MAX
//! units by the [`panes`](crate::panes) layer, which chains pools
//! without adding a claim per chunk.

use std::sync::atomic::{AtomicU64, Ordering};

/// A half-open range of iteration offsets, `[lo, hi)`.
pub type IterRange = (u32, u32);

#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// One zone's pool of unclaimed iterations: a `(lo, hi)` pair packed
/// into a single atomic word (see the [module docs](self)).
#[derive(Debug)]
pub struct RangePool {
    word: AtomicU64,
}

impl RangePool {
    /// An empty pool.
    pub fn empty() -> Self {
        Self::new(0, 0)
    }

    /// A pool seeded with `[lo, hi)`.
    pub fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi);
        RangePool {
            word: AtomicU64::new(pack(lo, hi)),
        }
    }

    /// Racy remaining-iteration count (scheduling heuristics only).
    #[inline]
    pub fn remaining(&self) -> u32 {
        let (lo, hi) = unpack(self.word.load(Ordering::Relaxed));
        hi.saturating_sub(lo)
    }

    /// Whether the pool looked empty at the load.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Racy `(lo, hi)` snapshot of the pool word (scheduling heuristics
    /// and diagnostics only — the pair may be stale by the time the
    /// caller looks at it).
    #[inline]
    pub fn snapshot(&self) -> IterRange {
        unpack(self.word.load(Ordering::Relaxed))
    }

    /// Claims up to `max` iterations from the *front* of the pool.
    /// Returns the claimed range, or `None` if the pool was empty.
    /// Linearizable against concurrent claims, steals and deposits: every
    /// iteration is handed out exactly once.
    pub fn claim(&self, max: u32) -> Option<IterRange> {
        let max = max.max(1);
        let mut word = self.word.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(word);
            if lo >= hi {
                return None;
            }
            let take = max.min(hi - lo);
            match self.word.compare_exchange_weak(
                word,
                pack(lo + take, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((lo, lo + take)),
                Err(w) => word = w,
            }
        }
    }

    /// Steals the upper half of the pool (⌈remaining / 2⌉ iterations —
    /// a pool holding a single iteration is stolen whole, so thieves can
    /// always finish a zone whose own workers have left). Returns the
    /// stolen range, or `None` if the pool was empty.
    pub fn steal_half(&self) -> Option<IterRange> {
        let mut word = self.word.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(word);
            if lo >= hi {
                return None;
            }
            // Victim keeps the (cache-warm) lower ⌊len/2⌋; the thief
            // takes [mid, hi).
            let mid = lo + (hi - lo) / 2;
            match self.word.compare_exchange_weak(
                word,
                pack(lo, mid),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((mid, hi)),
                Err(w) => word = w,
            }
        }
    }

    /// Deposits `[lo, hi)` into the pool **iff it is currently empty**
    /// (a thief sharing the tail of a stolen range with its own zone).
    /// Returns whether the deposit landed; on `false` the caller still
    /// owns the range. Depositing into a non-empty pool is not supported
    /// — the pool is a single contiguous block by design.
    pub fn deposit_if_empty(&self, lo: u32, hi: u32) -> bool {
        debug_assert!(lo < hi, "depositing an empty range");
        let mut word = self.word.load(Ordering::Acquire);
        loop {
            let (cur_lo, cur_hi) = unpack(word);
            if cur_lo < cur_hi {
                return false;
            }
            match self.word.compare_exchange_weak(
                word,
                pack(lo, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(w) => word = w,
            }
        }
    }

    /// Empties the pool in one CAS and returns the drained range — the
    /// cancellation primitive, range-returning form (callers that map
    /// pool offsets back into a larger logical space need the bounds,
    /// not just the count). Linearizable against
    /// concurrent claims, steals and deposits: every drained iteration
    /// is taken by exactly one drainer and never also handed out for
    /// execution.
    pub fn drain_all(&self) -> Option<IterRange> {
        let mut word = self.word.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(word);
            if lo >= hi {
                return None;
            }
            match self.word.compare_exchange_weak(
                word,
                pack(hi, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((lo, hi)),
                Err(w) => word = w,
            }
        }
    }

    /// [`drain_all`](Self::drain_all), counting form: empties the pool
    /// in one CAS and returns how many iterations were abandoned.
    pub fn abandon(&self) -> u32 {
        self.drain_all().map_or(0, |(lo, hi)| hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn claim_hands_out_front_chunks() {
        let p = RangePool::new(0, 10);
        assert_eq!(p.claim(4), Some((0, 4)));
        assert_eq!(p.claim(4), Some((4, 8)));
        assert_eq!(p.claim(4), Some((8, 10)), "tail chunk is short");
        assert_eq!(p.claim(4), None);
        assert!(p.is_empty());
    }

    #[test]
    fn steal_takes_the_upper_half() {
        let p = RangePool::new(0, 10);
        assert_eq!(p.steal_half(), Some((5, 10)));
        assert_eq!(p.remaining(), 5);
        assert_eq!(p.steal_half(), Some((2, 5)), "⌈5/2⌉ = 3 stolen");
        assert_eq!(p.steal_half(), Some((1, 2)));
        assert_eq!(p.steal_half(), Some((0, 1)), "singleton stolen whole");
        assert_eq!(p.steal_half(), None);
    }

    #[test]
    fn abandon_empties_and_counts_exactly_once() {
        let p = RangePool::new(0, 10);
        assert_eq!(p.claim(3), Some((0, 3)));
        assert_eq!(p.abandon(), 7, "abandons everything still pooled");
        assert!(p.is_empty());
        assert_eq!(p.abandon(), 0, "second abandon finds nothing");
        assert!(p.deposit_if_empty(20, 25), "pool is reusable after abandon");
        assert_eq!(p.abandon(), 5);
    }

    #[test]
    fn deposit_only_into_empty() {
        let p = RangePool::new(0, 4);
        assert!(!p.deposit_if_empty(10, 20), "pool non-empty");
        assert_eq!(p.claim(4), Some((0, 4)));
        assert!(p.deposit_if_empty(10, 20));
        assert_eq!(p.remaining(), 10);
        assert_eq!(p.claim(100), Some((10, 20)));
    }

    #[test]
    fn zero_max_claims_one() {
        let p = RangePool::new(0, 2);
        assert_eq!(p.claim(0), Some((0, 1)), "max is clamped to ≥ 1");
    }

    #[test]
    fn pool_is_one_packed_word() {
        // The whole pool state is the `(lo, hi)` word: a claim, steal,
        // deposit or drain is one CAS and touches nothing else.
        assert_eq!(std::mem::size_of::<RangePool>(), 8);
    }

    #[test]
    fn concurrent_claims_and_steals_conserve_iterations() {
        const N: u32 = 200_000;
        let pool = Arc::new(RangePool::new(0, N));
        let total: u64 = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..8 {
                let pool = pool.clone();
                handles.push(s.spawn(move || {
                    let mut got = 0u64;
                    loop {
                        // Mix front claims and back steals.
                        let r = if t % 2 == 0 {
                            pool.claim(17)
                        } else {
                            pool.steal_half()
                        };
                        match r {
                            Some((lo, hi)) => got += (hi - lo) as u64,
                            None => break,
                        }
                    }
                    got
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, N as u64, "every iteration claimed exactly once");
        assert!(pool.is_empty());
    }

    #[test]
    fn migrations_racing_claims_conserve_iterations() {
        const N: u32 = 400_000;
        let src = Arc::new(RangePool::new(0, N));
        let dst = Arc::new(RangePool::empty());
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let total: u64 = std::thread::scope(|s| {
            let mut handles = Vec::new();
            // One migrator (the single-depositor contract) re-splitting
            // the rich pool into the starved one whenever it empties —
            // the loop drain's stolen-tail `steal_half` →
            // `deposit_if_empty` sequence, plus a give-back path: a range
            // whose deposit raced goes to whichever side empties first.
            // Its last deposit is visible before `done` flips, so the
            // claimers' exit condition cannot strand an in-flight range.
            {
                let (src, dst, done) = (src.clone(), dst.clone(), done.clone());
                handles.push(s.spawn(move || {
                    while !src.is_empty() {
                        if dst.is_empty() {
                            if let Some((lo, hi)) = src.steal_half() {
                                while !dst.deposit_if_empty(lo, hi) && !src.deposit_if_empty(lo, hi)
                                {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                        std::hint::spin_loop();
                    }
                    done.store(true, Ordering::SeqCst);
                    0u64
                }));
            }
            for t in 0..6 {
                let (src, dst, done) = (src.clone(), dst.clone(), done.clone());
                handles.push(s.spawn(move || {
                    let mut got = 0u64;
                    loop {
                        let r = if t % 2 == 0 {
                            dst.claim(31).or_else(|| src.claim(31))
                        } else {
                            src.claim(17).or_else(|| dst.steal_half())
                        };
                        match r {
                            Some((lo, hi)) => got += (hi - lo) as u64,
                            None => {
                                if done.load(Ordering::SeqCst) && src.is_empty() && dst.is_empty() {
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
        assert_eq!(total, N as u64, "migration lost or duplicated iterations");
        assert!(src.is_empty() && dst.is_empty());
    }
}
