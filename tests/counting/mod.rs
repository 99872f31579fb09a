//! A counting `#[global_allocator]` for the test binaries that gate on work
//! instead of time (`alloc_budget.rs`, `scale.rs`). Counts repeat exactly on
//! any host and, as measured, in debug and release alike, so a gate on them
//! fails the same way everywhere.
//!
//! The tally is process-wide: the front end runs some of its stages on a
//! helper thread (`cloudless_types::join`), and their allocations are the
//! run's. It counts the thread inside [`counted`] and every unnamed thread —
//! the helpers; the harness names its own threads, and what they allocate
//! between two tests is not a measurement's. A count is only a test's own
//! while no other test of the binary runs: every test of these binaries
//! holds [`serial`] for its whole length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Allocations and bytes requested by the threads that count.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Whether a thread's allocations count.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Not asked yet: its first allocation asks.
    Unknown,
    /// Being asked (what the asking allocates counts for nothing).
    Asking,
    Counted,
    Ignored,
}

thread_local! {
    /// This thread's role. `const`-initialised and without a destructor, so
    /// reading it never allocates, even while the thread is torn down.
    static ROLE: Cell<Role> = const { Cell::new(Role::Unknown) };
}

fn note(bytes: usize) {
    let counts = ROLE.try_with(|role| match role.get() {
        Role::Counted => true,
        Role::Ignored | Role::Asking => false,
        Role::Unknown => {
            role.set(Role::Asking);
            let helper = std::thread::current().name().is_none();
            role.set(if helper { Role::Counted } else { Role::Ignored });
            helper
        }
    });
    if counts.unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// The system allocator, counting every request for memory (`realloc`
/// included: growing a `Vec` or a `String` is a trip to the allocator).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. `note` touches a `const` thread-local
// `Cell` and two atomics; the one call that may allocate, the first
// `thread::current()` of a thread, re-enters it as `Role::Asking`, which
// counts nothing and asks nothing.
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

/// One test of the binary at a time: hold the guard for the whole test.
pub fn serial() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    // a test that panicked while holding it measured nothing for the others
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocations and bytes one call made, its helper threads included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub allocs: u64,
    pub bytes: u64,
}

fn tally() -> Tally {
    Tally {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let role = ROLE.with(|role| role.replace(Role::Counted));
    let before = tally();
    let out = f();
    let after = tally();
    ROLE.with(|r| r.set(role));
    let tally = Tally {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
    };
    (out, tally)
}
