//! A `#[global_allocator]` that counts the calls a thread makes, shared
//! by the tests that pin an allocation count (this crate's
//! `alloc_free_dispatch`, `planp-telemetry`'s `alloc_export`): each
//! includes this file by `#[path]` and installs [`Counting`] itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread (tests run on threads of
    /// their own, so one test's count never sees another's).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter with a const initializer and no destructor, so touching it
// neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; the size is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (`alloc` and `realloc`) made by this thread so far.
pub fn calls() -> u64 {
    ALLOCS.with(Cell::get)
}
