//! A counting `#[global_allocator]` for allocation-bound tests: it forwards
//! every call to `System` and keeps, per thread (the harness runs tests in
//! parallel), the bytes asked for, the bytes given back, and the high-water
//! mark of the difference. Include it with `#[path]`; a test binary has one
//! global allocator, so one include per binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has asked for (a `realloc` counts its whole new
    /// size, before giving back the old).
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has given back.
    static FREED: Cell<usize> = const { Cell::new(0) };
    /// High-water mark of [`live`] since the last [`reset_peak`].
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread being torn down has no counter left; nothing measured runs there.
    let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes));
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live())));
}

fn count_freed(bytes: usize) {
    let _ = FREED.try_with(|n| n.set(n.get() + bytes));
}

/// Bytes this thread has asked the allocator for so far.
#[allow(dead_code)]
pub fn requested() -> usize {
    REQUESTED.try_with(Cell::get).unwrap_or(0)
}

/// Bytes this thread holds: asked for and not yet given back.
pub fn live() -> usize {
    requested().saturating_sub(FREED.try_with(Cell::get).unwrap_or(0))
}

/// Start a new high-water mark at what the thread holds now; returns that.
#[allow(dead_code)]
pub fn reset_peak() -> usize {
    let live = live();
    PEAK.with(|peak| peak.set(live));
    live
}

/// The high-water mark of [`live`] since the last [`reset_peak`].
#[allow(dead_code)]
pub fn peak() -> usize {
    PEAK.with(Cell::get)
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialised `Cell`s without a destructor, so touching them
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_freed(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        count_freed(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
