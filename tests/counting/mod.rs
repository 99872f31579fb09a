//! A counting `#[global_allocator]` for the test binaries that gate on work
//! instead of time (`alloc_budget.rs`, `scale.rs`). Counts repeat exactly on
//! any host and, as measured, in debug and release alike, so a gate on them
//! fails the same way everywhere. The counters are per thread, so the tests
//! of one binary may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// (allocations, bytes requested) of this thread. `const`-initialised
    /// and without a destructor, so reading it never allocates.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // a thread being torn down has no counter left; nothing measured runs there
    let _ = TALLY.try_with(|t| {
        let (allocs, total) = t.get();
        t.set((allocs + 1, total + bytes as u64));
    });
}

/// The system allocator, counting every request for memory (`realloc`
/// included: growing a `Vec` or a `String` is a trip to the allocator).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes one call made on this thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub allocs: u64,
    pub bytes: u64,
}

pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let (allocs, bytes) = TALLY.with(Cell::get);
    let out = f();
    let (allocs_after, bytes_after) = TALLY.with(Cell::get);
    let tally = Tally {
        allocs: allocs_after - allocs,
        bytes: bytes_after - bytes,
    };
    (out, tally)
}
