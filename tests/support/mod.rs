//! A counting global allocator shared by the allocation tests: every
//! allocation bumps the calling thread's tally and the process-wide one.
//! Each test crate that declares `mod support;` installs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations per thread and per process.
struct Counting;

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
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
