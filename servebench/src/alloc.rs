//! A counting global allocator.
//!
//! Every allocation call (`alloc`, `alloc_zeroed`, `realloc`) bumps a
//! thread-local counter, but only while that thread has counting
//! switched on. The traced replay switches it on around the layer calls
//! it measures; the server child, which runs this same binary, never
//! does, so it pays one thread-local flag read per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed as `#[global_allocator]` in this crate.
pub struct CountingAlloc;

thread_local! {
    // `const` thread-locals without destructors need no lazy
    // initialisation, so reading them cannot itself allocate.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` because the allocator can run during thread teardown.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each caller's obligations under `GlobalAlloc` are passed straight to
// an allocator that upholds them; `bump` touches only thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller guarantees `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller guarantees `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off for the calling thread.
pub fn set_counting(on: bool) {
    COUNTING.with(|c| c.set(on));
}

/// Allocation calls counted so far on the calling thread.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}
