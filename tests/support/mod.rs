//! A counting global allocator shared by the allocation tests: every
//! allocation bumps the calling thread's tally and the process-wide one,
//! and every free bumps the calling thread's free tally. Each test crate
//! that declares `mod support;` installs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations per thread and per process
/// and frees per thread.
struct Counting;

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
    static THREAD_FREES: Cell<u64> = const { Cell::new(0) };
}

static PROCESS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the tallies are
// a const-initialized thread-local and a static atomic, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no tally left; skip it.
        let _ = THREAD.try_with(|n| n.set(n.get() + 1));
        PROCESS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = THREAD_FREES.try_with(|n| n.set(n.get() + 1));
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
