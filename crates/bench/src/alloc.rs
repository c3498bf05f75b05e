//! The counting global allocator the rate benches install.
//!
//! It wraps the system allocator and counts live and peak heap bytes
//! (the benches' peak-RSS proxy; the workspace has no allocator
//! introspection) and allocation calls. A bench installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: waffle_bench::alloc::Counting = waffle_bench::alloc::Counting;
//! ```
//!
//! `realloc` takes the trait's default path, so a resize counts as one
//! allocation call and moves the live total through a fresh allocation
//! and a free. `Relaxed` ordering is enough: the benches read the
//! counters only between measured sections.

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; bench-only code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Pass-through allocator that counts live bytes, peak bytes and calls.
pub struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            let size = layout.size() as u64;
            let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }
}

/// Restarts the peak watermark from the current live total and returns
/// that total, so `peak() - base` counts only what a section added on
/// top of the bytes already live when it began.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Allocation calls (fresh allocations and resizes) since process start.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}
