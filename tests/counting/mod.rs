//! The allocator the count-pinning test binaries share
//! (`resident_build_counts`, `obs_counts`, `streaming_build_counts`,
//! `malformed_inputs`): the
//! system allocator, counting every block it hands out or moves, the bytes
//! currently handed out and their high-water mark.
//! Each binary installs it itself (`#[global_allocator]` must sit in the
//! crate root) and runs one `#[test]`, so nothing else in the process
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes handed out and not yet returned (a shrinking `realloc` adds a
/// wrapped negative).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE_BYTES` has been since the last [`reset_peak`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Blocks handed out or moved so far, by any thread.
#[allow(dead_code)] // not every binary pins allocations
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes handed out and not yet returned.
#[allow(dead_code)] // not every binary pins bytes
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The high-water mark of [`live_bytes`] since the last [`reset_peak`].
#[allow(dead_code)] // not every binary pins a peak
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Start a new high-water mark at the bytes live now.
#[allow(dead_code)]
pub fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}

/// Count one block handed out or moved: add `delta` (possibly a wrapped
/// negative) to the live bytes and raise the high-water mark to the
/// result. A refused request (`ptr` null) counts nothing.
fn count(ptr: *mut u8, delta: u64) -> *mut u8 {
    if !ptr.is_null() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed).wrapping_add(delta);
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
    ptr
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(System.alloc(layout), layout.size() as u64)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(System.alloc_zeroed(layout), layout.size() as u64)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let delta = (new_size as u64).wrapping_sub(layout.size() as u64);
        count(System.realloc(ptr, layout, new_size), delta)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}
