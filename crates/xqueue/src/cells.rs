//! Per-worker cells: one cache-padded, single-writer slot per team seat,
//! summed on read.
//!
//! The paper's runtime is fast because every hot word has exactly one
//! writer: the lattice's SPSC queues, the tree barrier's per-worker
//! nodes, the §V per-thread counters. [`Cells`] is that discipline for
//! any per-worker block (statistics, histogram lanes, trace rings, job
//! outcomes), written once:
//!
//! * **Padded.** Each seat's value sits in its own [`CachePadded`] slot,
//!   so two seats never share a 128-byte line.
//! * **Grown on demand, never moved.** Seats live in segments of
//!   doubling size (segment `k` holds seats `2^k − 1 .. 2^(k+1) − 1`),
//!   each allocated once behind a `OnceLock`; a seat's value is built
//!   when that seat is first asked for, not with its segment. A seat's
//!   address is stable for the life of the cells, and looking up a seat
//!   that exists takes no lock, so no record path ever waits on a resize.
//! * **Summed on read.** Readers [`iter`](Cells::iter) the seats that
//!   exist; a reader never stops a writer.
//! * **Claimed per generation.** [`Cells::claim`] marks a range of seats
//!   held, and its [`Claim`] releases them on drop. Claiming a held seat
//!   panics: that panic is what makes "one writer per seat" a checked
//!   rule instead of a promise, across teams that share server-owned
//!   cells. The claim bookkeeping sits behind a mutex — claims happen
//!   once per generation, never on a record path — whose lock/unlock is
//!   also the hand-off between successive writers of a seat.
//!
//! Values are only ever touched through `&T`, so `T` carries its own
//! interior mutability: atomics its seat's one writer updates with
//! [`bump`] (relaxed load + store), never with an RMW.

use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Pads a value to two cache lines (128 B covers adjacent-line
/// prefetching on modern Intel parts) so that the per-worker blocks of a
/// shared array never false-share. The workspace's one padding type.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

/// Adds `n` to a counter only the calling thread writes: a relaxed load
/// and store, the cost of a plain add. Nothing can land between the two,
/// because nobody else writes the cell; readers see a monotone value.
#[inline]
pub fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Segments of doubling size; seat indexes up to `2^SEGMENTS − 2`.
const SEGMENTS: usize = 32;

/// One seat's storage: its value, built on first request, on lines of
/// its own.
pub type Slot<T> = CachePadded<OnceLock<T>>;

/// One padded, single-writer slot per team seat (see the [module
/// docs](self)).
pub struct Cells<T> {
    /// Segment `k` holds seats `2^k − 1 .. 2^(k+1) − 1`, each built on
    /// first request.
    segments: [OnceLock<Box<[Slot<T>]>>; SEGMENTS],
    /// Seats that exist: `0..len`, every one built.
    len: AtomicUsize,
    /// The seat ranges live [`Claim`]s hold (pairwise disjoint).
    held: Mutex<Vec<Range<usize>>>,
    init: Box<dyn Fn() -> T + Send + Sync>,
}

impl<T> Cells<T> {
    /// Empty cells whose seats are built by `init` as they appear.
    pub fn new(init: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Cells {
            segments: [const { OnceLock::new() }; SEGMENTS],
            len: AtomicUsize::new(0),
            held: Mutex::default(),
            init: Box::new(init),
        }
    }

    /// Seats that exist (`0..len`). Monotone.
    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Seat `seat`'s cell; its segment must exist.
    fn cell(&self, seat: usize) -> &OnceLock<T> {
        let k = (seat + 1).ilog2() as usize;
        &self.segments[k].get().expect("segment exists")[seat + 1 - (1 << k)].0
    }

    /// Seat `seat`'s value, creating it — and every lower seat — on first
    /// request. Lock-free once the seat exists.
    #[inline]
    pub fn slot(&self, seat: usize) -> &T {
        if seat >= self.len() {
            self.grow(seat);
        }
        self.cell(seat).get().expect("seat exists")
    }

    /// Builds seats `0..=seat` (lower seats first, so every seat below
    /// `len` exists).
    #[cold]
    fn grow(&self, seat: usize) {
        let k = (seat + 1).ilog2() as usize;
        for (j, segment) in self.segments[..=k].iter().enumerate() {
            segment.get_or_init(|| (0..1 << j).map(|_| CachePadded::default()).collect());
        }
        for s in 0..=seat {
            self.cell(s).get_or_init(|| (self.init)());
        }
        self.len.fetch_max(seat + 1, Ordering::Release);
    }

    /// Every seat that exists, in seat order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).map(|s| self.cell(s).get().expect("seat exists"))
    }

    fn held(&self) -> MutexGuard<'_, Vec<Range<usize>>> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims `seats` until the returned [`Claim`] drops, creating them
    /// on the calling thread (so a team's blocks are allocated where the
    /// team is built, not by its workers).
    ///
    /// # Panics
    ///
    /// If a live claim holds any seat in `seats`; nothing is claimed then.
    pub fn claim(self: &Arc<Self>, seats: Range<usize>) -> Claim<T> {
        if let Some(last) = seats.clone().last() {
            self.slot(last);
        }
        let mut held = self.held();
        let overlaps = |h: &&Range<usize>| h.start < seats.end && seats.start < h.end;
        if let Some(h) = held.iter().find(overlaps) {
            panic!("cell seats {seats:?} overlap the claimed {h:?}");
        }
        held.push(seats.clone());
        Claim {
            cells: self.clone(),
            seats,
        }
    }
}

impl<T: Default + 'static> Default for Cells<T> {
    fn default() -> Self {
        Cells::new(T::default)
    }
}

impl<T> std::fmt::Debug for Cells<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cells").field("len", &self.len()).finish()
    }
}

/// Seats of one [`Cells`], held by one writer set (a team generation, or
/// one out-of-band write) until drop. Derefs to the cells for readers.
pub struct Claim<T> {
    cells: Arc<Cells<T>>,
    seats: Range<usize>,
}

impl<T> Claim<T> {
    /// Claimed seat `seat`'s value — what its one writer records into.
    ///
    /// # Panics
    ///
    /// If `seat` is outside the claimed range.
    pub fn seat(&self, seat: usize) -> &T {
        assert!(self.seats.contains(&seat), "seat {seat} is not claimed");
        self.cells.slot(seat)
    }
}

impl<T> Deref for Claim<T> {
    type Target = Cells<T>;
    fn deref(&self) -> &Cells<T> {
        &self.cells
    }
}

impl<T> Drop for Claim<T> {
    fn drop(&mut self) {
        // Live claims are disjoint, so only an empty twin (which holds
        // nothing) can equal this range.
        self.cells.held().retain(|h| *h != self.seats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn padding_prevents_adjacent_slots_sharing_lines() {
        let slots = [CachePadded(0u8), CachePadded(0u8)];
        let a = &slots[0].0 as *const u8 as usize;
        let b = &slots[1].0 as *const u8 as usize;
        assert!(b.abs_diff(a) >= 128);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
    }

    #[test]
    fn seats_grow_in_order_and_keep_their_addresses() {
        let cells = Cells::<AtomicU64>::default();
        assert!(cells.len() == 0 && cells.iter().next().is_none());
        let s2 = cells.slot(2) as *const AtomicU64;
        assert_eq!(cells.len(), 3, "seats 0 and 1 exist with seat 2");
        bump(cells.slot(0), 7);
        bump(cells.slot(40), 5);
        assert_eq!(cells.len(), 41);
        assert!(std::ptr::eq(s2, cells.slot(2)), "growth moves nothing");
        let sum: u64 = cells.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!((cells.iter().count(), sum), (41, 12));
        // Every pair of seats is on lines of its own.
        let addrs: Vec<usize> = cells.iter().map(|c| c as *const _ as usize).collect();
        for (i, a) in addrs.iter().enumerate() {
            assert!(addrs[i + 1..].iter().all(|b| a.abs_diff(*b) >= 128));
        }
    }

    #[test]
    fn a_double_claim_panics_and_a_dropped_claim_releases() {
        let cells = Arc::new(Cells::<AtomicU64>::default());
        let team = cells.claim(0..3);
        bump(team.seat(2), 1);
        let again = std::panic::catch_unwind(AssertUnwindSafe(|| drop(cells.claim(2..4))));
        assert!(again.is_err(), "seat 2 is held by `team`");
        // The failed claim took nothing: seat 3 and beyond are free, and
        // a claim creates the seats it holds.
        let next = cells.claim(3..5);
        assert_eq!(cells.len(), 5);
        bump(next.seat(4), 1);
        drop(team);
        let after = cells.claim(0..3);
        assert_eq!(
            after.seat(2).load(Ordering::Relaxed),
            1,
            "values outlive claims"
        );
        drop(next);
    }

    #[test]
    fn concurrent_growth_and_writes_are_conserved() {
        let cells = Arc::new(Cells::<AtomicU64>::default());
        let threads: Vec<_> = (0..4)
            .map(|w| {
                let cells = cells.clone();
                std::thread::spawn(move || {
                    let mine = cells.claim(w * 8..w * 8 + 8);
                    for i in 0..10_000u64 {
                        bump(mine.seat(w * 8 + (i % 8) as usize), 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let sum: u64 = cells.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!((cells.len(), sum), (32, 40_000));
    }
}
