//! A `#[global_allocator]` that counts the calls a thread makes and the
//! bytes they ask for, shared by the tests that pin an allocation
//! count or size (this crate's `alloc_free_dispatch`, `planp-telemetry`'s
//! `alloc_export`, `netsim`'s `alloc_routes`): each includes this file
//! by `#[path]` and installs [`Counting`] itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread (tests run on threads of
    /// their own, so one test's count never sees another's).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` its whole new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one call asking for `size` bytes.
fn count(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is two thread-local
// counters with const initializers and no destructors, so touching them
// neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; the size is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (`alloc` and `realloc`) made by this thread so far.
pub fn calls() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes asked for by this thread's allocator calls so far.
#[allow(dead_code)] // not every test that includes this file reads it
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}
