//! Per-worker flight-recorder event ring: a bounded, overwrite-oldest
//! SPSC ring of fixed-size binary event records.
//!
//! The tracing subsystem keeps one [`EventRing`] per worker. The writer
//! (the worker itself) never blocks and never observes the reader: an
//! emit is four relaxed slot stores plus **one** Release store of the
//! head index — the "single index publish" that makes the Off→On cost
//! cliff a branch, not a fence. The ring deliberately has *no* tail
//! cursor the writer could stall on: when nobody drains it, the writer
//! laps the ring and overwrites the oldest records ("flight recorder"
//! semantics), and the reader accounts the gap as *dropped* events.
//!
//! ## Record layout
//!
//! One record is four `u64` words:
//!
//! | word | contents |
//! |------|----------|
//! | `w0` | timestamp (TSC cycles, `profiling::clock::now()` units) |
//! | `w1` | bits 0..8 event kind, bits 32..64 payload `a: u32` |
//! | `w2` | payload `b: u64` |
//! | `w3` | payload `c: u64` |
//!
//! ## Reader validation
//!
//! The reader races the writer by design. After copying a slot it
//! re-reads the head index `h₂` (ordered after the copy by an Acquire
//! fence, the standard seqlock-reader shape): record `i`'s slot is
//! intact iff `i + capacity > h₂` — a writer that has published `h₂`
//! records may already be mid-emit of record `h₂` itself, clobbering
//! exactly slot `h₂ mod capacity`, i.e. record `h₂ − capacity`. One
//! slot is therefore always conservatively unreadable: a full ring
//! yields `capacity − 1` records. Torn or lapped records are counted
//! into the reading cursor's drop total, never surfaced, so for every
//! reader each emitted record is either drained or dropped:
//! `drained + dropped == emitted` is the per-cursor conservation
//! identity the test suite asserts. Drops are a fact about a *reader*
//! (how far it fell behind), so the ring keeps no aggregate of them.
//!
//! Like [`BQueue`](crate::BQueue), the single-writer discipline is
//! structural: the runtime gives each worker its own ring. Readers are
//! unconstrained — each brings its own [`RingCursor`] and sees every
//! retained record without consuming another reader's view. Violating
//! the single-writer rule cannot corrupt memory (every access is
//! atomic) — it can only interleave garbage records.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Default per-worker ring capacity (records; rounded up to a power of
/// two). 4096 × 32 B = 128 KiB per worker — minutes of lifecycle events,
/// a few milliseconds of full-rate chunk claims.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// One decoded flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEvent {
    /// Timestamp, in `profiling::clock::now()` units (TSC cycles on
    /// x86-64).
    pub ts: u64,
    /// Event kind discriminant (the tracing layer's `EventKind`).
    pub kind: u8,
    /// First payload word (small operand: zone, pool, outcome…).
    pub a: u32,
    /// Second payload word (wide operand: job id, range lo…).
    pub b: u64,
    /// Third payload word (wide operand: paired timestamp, range hi…).
    pub c: u64,
}

#[repr(align(32))]
struct Slot {
    w0: AtomicU64,
    w1: AtomicU64,
    w2: AtomicU64,
    w3: AtomicU64,
}

/// A reader's position in one [`EventRing`], with its drop accounting.
///
/// The cursor lives outside the ring so the ring itself stays
/// writer-only state: one long-lived cursor per ring gives incremental
/// drains; a fresh cursor re-reads whatever the ring still retains.
#[derive(Debug, Default, Clone)]
pub struct RingCursor {
    /// Index of the next record to read.
    next: u64,
    /// Records this cursor skipped because the writer lapped it.
    dropped: u64,
}

impl RingCursor {
    /// A cursor positioned at the oldest retained record.
    pub fn new() -> Self {
        RingCursor::default()
    }

    /// Records this cursor has skipped as overwritten (lapped or torn).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Index of the next record this cursor will read — equivalently,
    /// `drained + dropped` for this cursor.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Records this cursor has actually surfaced to its reader
    /// (`position − dropped`) — the "drained" leg of the conservation
    /// identity `drained + dropped == emitted`, which holds per cursor
    /// once the writer quiesces.
    pub fn drained(&self) -> u64 {
        self.next - self.dropped
    }
}

/// Bounded overwrite-oldest SPSC event ring (see the [module
/// docs](self)).
pub struct EventRing {
    slots: Box<[Slot]>,
    /// Total records ever emitted; `head % capacity` is the slot the
    /// *next* emit writes. Published with Release once per emit.
    head: AtomicU64,
    mask: u64,
}

impl EventRing {
    /// Builds a ring of `capacity` records (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        EventRing {
            slots: (0..cap)
                .map(|_| Slot {
                    w0: AtomicU64::new(0),
                    w1: AtomicU64::new(0),
                    w2: AtomicU64::new(0),
                    w3: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            mask: (cap - 1) as u64,
        }
    }

    /// Builds a ring of [`DEFAULT_EVENT_CAPACITY`] records.
    pub fn new() -> Self {
        EventRing::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever emitted into this ring.
    pub fn emitted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Emits one record: four relaxed slot stores and a single Release
    /// publish of the head index. Never blocks, never fails; when the
    /// ring is full the oldest record is overwritten.
    ///
    /// Single-writer discipline: at most one thread may emit into a
    /// given ring at a time (the runtime enforces this structurally —
    /// one ring per worker). A violation interleaves garbage records
    /// but is memory-safe.
    #[inline]
    pub fn emit(&self, ts: u64, kind: u8, a: u32, b: u64, c: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let s = &self.slots[(h & self.mask) as usize];
        s.w0.store(ts, Ordering::Relaxed);
        s.w1.store(u64::from(kind) | (u64::from(a) << 32), Ordering::Relaxed);
        s.w2.store(b, Ordering::Relaxed);
        s.w3.store(c, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Drains every record retained since `cursor`'s position into `f`,
    /// advancing the cursor past everything emitted up to the drain's
    /// start; returns the number of records surfaced. Records the
    /// writer lapped (or tore mid-read) are skipped and added to the
    /// cursor's drop count, preserving `drained + dropped == emitted`.
    pub fn drain(&self, cursor: &mut RingCursor, f: &mut dyn FnMut(RawEvent)) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        // The writer retains at most the last `cap` records; anything
        // older than `head - cap` is gone before we even look.
        let start = cursor.next.max(head.saturating_sub(cap));
        let mut dropped = start - cursor.next;
        let mut drained = 0u64;
        let mut i = start;
        while i < head {
            let s = &self.slots[(i & self.mask) as usize];
            let w0 = s.w0.load(Ordering::Relaxed);
            let w1 = s.w1.load(Ordering::Relaxed);
            let w2 = s.w2.load(Ordering::Relaxed);
            let w3 = s.w3.load(Ordering::Relaxed);
            // Seqlock-reader validation: order the slot copy before the
            // head re-read, then accept the copy only if the writer
            // cannot have touched this slot yet (record `h2` being
            // written overwrites exactly record `h2 - cap`).
            fence(Ordering::Acquire);
            let h2 = self.head.load(Ordering::Relaxed);
            if i + cap > h2 {
                f(RawEvent {
                    ts: w0,
                    kind: (w1 & 0xff) as u8,
                    a: (w1 >> 32) as u32,
                    b: w2,
                    c: w3,
                });
                drained += 1;
                i += 1;
            } else {
                // Lapped mid-drain: jump to the oldest record that is
                // still intact as of `h2`, dropping the gap. We still
                // stop at the original `head` snapshot so one drain
                // call is bounded.
                let safe = (h2 - cap + 1).min(head);
                dropped += safe - i;
                i = safe;
            }
        }
        cursor.next = head;
        cursor.dropped += dropped;
        drained
    }
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::new()
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("emitted", &self.emitted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn roundtrip_without_overflow() {
        let ring = EventRing::with_capacity(8);
        for i in 0..5u64 {
            ring.emit(100 + i, i as u8, i as u32 * 2, i * 3, i * 4);
        }
        let mut cur = RingCursor::new();
        let mut got = Vec::new();
        let n = ring.drain(&mut cur, &mut |e| got.push(e));
        assert_eq!(n, 5);
        assert_eq!(cur.dropped(), 0);
        for (i, e) in got.iter().enumerate() {
            let i = i as u64;
            assert_eq!(
                *e,
                RawEvent {
                    ts: 100 + i,
                    kind: i as u8,
                    a: i as u32 * 2,
                    b: i * 3,
                    c: i * 4,
                }
            );
        }
        // A second drain sees nothing new.
        assert_eq!(ring.drain(&mut cur, &mut |_| {}), 0);
    }

    #[test]
    fn overwrite_oldest_conserves_drop_plus_drained() {
        let ring = EventRing::with_capacity(8); // actual cap 8
        const N: u64 = 100;
        for i in 0..N {
            ring.emit(i, 1, 0, i, 0);
        }
        let mut cur = RingCursor::new();
        let mut got = Vec::new();
        let drained = ring.drain(&mut cur, &mut |e| got.push(e.b));
        assert_eq!(ring.emitted(), N);
        assert_eq!(drained + cur.dropped(), N, "conservation");
        // One slot is conservatively unreadable (the writer could have
        // been mid-emit of the next record when we validated).
        assert_eq!(drained as usize, ring.capacity() - 1);
        // The retained window is exactly the newest records, in order.
        let expect: Vec<u64> = (N - drained..N).collect();
        assert_eq!(got, expect);
        assert_eq!(cur.position(), N, "the cursor caught up with the head");
        assert_eq!(cur.drained(), drained);
    }

    #[test]
    fn incremental_drains_track_the_writer() {
        let ring = EventRing::with_capacity(16);
        let mut cur = RingCursor::new();
        let mut total = 0u64;
        for round in 0..10u64 {
            for i in 0..7u64 {
                ring.emit(round * 100 + i, 2, 0, 0, 0);
            }
            total += ring.drain(&mut cur, &mut |_| {});
        }
        assert_eq!(total + cur.dropped(), ring.emitted());
        assert_eq!(cur.dropped(), 0, "a keeping-up reader drops nothing");
    }

    #[test]
    fn concurrent_writer_reader_conserve() {
        let ring = Arc::new(EventRing::with_capacity(64));
        let stop = Arc::new(AtomicBool::new(false));
        const N: u64 = 200_000;

        let writer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..N {
                    ring.emit(i, (i % 7) as u8, i as u32, i, !i);
                }
            })
        };

        let reader = {
            let ring = ring.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut cur = RingCursor::new();
                let mut drained = 0u64;
                let mut last_b = None::<u64>;
                loop {
                    drained += ring.drain(&mut cur, &mut |e| {
                        // Payload integrity: every surfaced record is a
                        // record the writer actually emitted, untorn.
                        assert_eq!(e.c, !e.b, "torn record surfaced");
                        assert_eq!(e.ts, e.b);
                        // And the stream is strictly ordered.
                        if let Some(p) = last_b {
                            assert!(e.b > p, "stream went backwards");
                        }
                        last_b = Some(e.b);
                    });
                    if stop.load(Ordering::Acquire) {
                        // One final sweep after the writer finished.
                        drained += ring.drain(&mut cur, &mut |e| {
                            assert_eq!(e.c, !e.b);
                        });
                        return (drained, cur.dropped());
                    }
                    std::hint::spin_loop();
                }
            })
        };

        writer.join().unwrap();
        stop.store(true, Ordering::Release);
        let (drained, dropped) = reader.join().unwrap();
        assert_eq!(drained + dropped, N, "writer/reader race lost records");
        assert_eq!(ring.emitted(), N);
    }

    #[test]
    fn fresh_cursor_rereads_the_retained_window() {
        let ring = EventRing::with_capacity(4);
        for i in 0..10u64 {
            ring.emit(i, 0, 0, i, 0);
        }
        let mut a = RingCursor::new();
        let mut b = RingCursor::new();
        let mut seen_a = Vec::new();
        let mut seen_b = Vec::new();
        ring.drain(&mut a, &mut |e| seen_a.push(e.b));
        ring.drain(&mut b, &mut |e| seen_b.push(e.b));
        assert_eq!(seen_a, seen_b, "independent cursors see the same window");
    }
}
