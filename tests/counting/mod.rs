//! A counting `#[global_allocator]` for the test binaries that gate on work
//! instead of time (`alloc_budget.rs`, `scale.rs`). Counts repeat exactly on
//! any host and, as measured, in debug and release alike, so a gate on them
//! fails the same way everywhere. Beside the requests it keeps the bytes
//! still live — a free subtracts — so a gate can bound what a call keeps.
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
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Allocations and bytes requested by the threads that count.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes they allocated less the bytes they freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

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

/// A request for `bytes` that leaves `live` more (or fewer) bytes held.
fn note(bytes: usize, live: isize) {
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
        LIVE.fetch_add(live as i64, Ordering::Relaxed);
    }
}

/// A free of `bytes`, by a thread that counts. It does not ask a thread it
/// has not asked yet: a thread that frees before it allocates is being torn
/// down, or frees what it did not count.
fn note_free(bytes: usize) {
    let counts = ROLE.try_with(|role| role.get() == Role::Counted);
    if counts.unwrap_or(false) {
        LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

/// The system allocator, counting every request for memory (`realloc`
/// included: growing a `Vec` or a `String` is a trip to the allocator).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. `note` touches a `const` thread-local
// `Cell` and three atomics, `note_free` the `Cell` and one atomic; the one
// call that may allocate, the first `thread::current()` of a thread in
// `note`, re-enters it as `Role::Asking`, which counts nothing and asks
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as isize);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as isize);
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
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

/// Allocations and bytes one call made, its helper threads included, and
/// the bytes it left live (what it returned or stored, less what it freed
/// of what was there before).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub allocs: u64,
    pub bytes: u64,
    pub live: i64,
}

fn tally() -> Tally {
    Tally {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
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
        live: after.live - before.live,
    };
    (out, tally)
}
