//! A counting global allocator shared by the allocation tests: every
//! allocation bumps the calling thread's tally and the process-wide one,
//! and every free bumps the calling thread's free tally. A thread can
//! also join a *tracked set* ([`track_this_thread`]): the live
//! allocations of all its members are summed process-wide, so a test
//! whose allocations and frees cross threads (a record spawned on one
//! worker and freed on another) still reads an exact balance. Each test
//! crate that declares `mod support;` installs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// The system allocator, counting allocations per thread and per process
/// and frees per thread.
struct Counting;

/// How many tracked sets a test crate may use at once (one per test).
const SETS: usize = 8;

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
    static THREAD_FREES: Cell<u64> = const { Cell::new(0) };
    /// The tracked set this thread belongs to, if any.
    static SET: Cell<Option<usize>> = const { Cell::new(None) };
}

static PROCESS: AtomicU64 = AtomicU64::new(0);

/// Live allocations of each tracked set's threads, summed.
static TRACKED: [AtomicI64; SETS] = [const { AtomicI64::new(0) }; SETS];

/// Adds `delta` to the calling thread's tracked set, if it is in one.
fn track(delta: i64) {
    if let Ok(Some(set)) = SET.try_with(Cell::get) {
        TRACKED[set].fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the tallies are
// a const-initialized thread-local and a static atomic, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no tally left; skip it.
        let _ = THREAD.try_with(|n| n.set(n.get() + 1));
        PROCESS.fetch_add(1, Ordering::Relaxed);
        track(1);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = THREAD_FREES.try_with(|n| n.set(n.get() + 1));
        track(-1);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations so far: `(this thread's, the whole process's)`.
pub fn allocs() -> (u64, u64) {
    (THREAD.with(Cell::get), PROCESS.load(Ordering::Relaxed))
}

/// This thread's live allocations: its allocations minus its frees.
/// Exact for code that allocates and frees on one thread, such as a
/// one-worker region run by the calling thread.
#[allow(dead_code)] // not every test crate that installs the allocator reads it
pub fn live() -> i64 {
    THREAD.with(Cell::get) as i64 - THREAD_FREES.with(Cell::get) as i64
}

/// Puts the calling thread in tracked set `set` (below 8): from now on
/// its allocations and frees count in [`tracked_live`]`(set)`. Give each
/// test its own set.
#[allow(dead_code)]
pub fn track_this_thread(set: usize) {
    SET.with(|s| s.set(Some(set)));
}

/// The live allocations of tracked set `set`'s threads: their allocations
/// minus their frees, wherever the freed block was allocated.
#[allow(dead_code)]
pub fn tracked_live(set: usize) -> i64 {
    TRACKED[set].load(Ordering::Relaxed)
}
