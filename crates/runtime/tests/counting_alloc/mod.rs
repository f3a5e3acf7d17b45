//! A `#[global_allocator]` that counts the calls a thread makes and the
//! bytes they ask for, shared by the tests that pin an allocation
//! count or size (this crate's `alloc_free_dispatch` and `alloc_table`,
//! `planp-telemetry`'s `alloc_export`, `netsim`'s `alloc_routes`): each
//! includes this file by `#[path]` and installs [`Counting`] itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread (tests run on threads of
    /// their own, so one test's count never sees another's).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` its whole new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live bytes by `delta`.
fn live_by(delta: i64) {
    LIVE.with(|n| n.set(n.get() + delta));
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
        live_by(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_by(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live_by(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; the size is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (`alloc` and `realloc`) made by this thread so far.
#[allow(dead_code)] // not every test that includes this file reads it
pub fn calls() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread has allocated and not freed (a block freed by
/// another thread is not seen).
#[allow(dead_code)] // not every test that includes this file reads it
pub fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Bytes asked for by this thread's allocator calls so far.
#[allow(dead_code)] // not every test that includes this file reads it
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}
