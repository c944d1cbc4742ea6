//! A counting global allocator: live heap bytes and their peak.
//!
//! Sizes are counted at the granularity the program asks for, so a
//! `realloc` moves the count from the old size to the new one in one
//! step whether or not the system allocator moved the block. The peak
//! counts only blocks of at least [`LARGE`] bytes: the simulator's
//! small hash tables use per-process random hash keys, so when they
//! grow depends on the process, not on the inputs. Without them the
//! peak is a pure function of the allocation sequence, which is what
//! makes `peak_heap_mib` repeat exactly at a fixed seed.
//!
//! Concurrent phases (shard workers) interleave their allocations
//! nondeterministically; [`pause_peak`] stops peak tracking around them
//! while the live count stays exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The benchmark's global allocator: `System` plus two counters.
pub struct Counting;

/// Smallest block the peak counts.
pub const LARGE: usize = 4096;

/// Live bytes in blocks of at least [`LARGE`] bytes.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TRACK_PEAK: AtomicBool = AtomicBool::new(true);

fn grew(bytes: usize) {
    if bytes < LARGE {
        return;
    }
    // Relaxed throughout: the counters publish no other data.
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if TRACK_PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if bytes >= LARGE {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Restart the peak at the current live size (per workload).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap (blocks of at least [`LARGE`] bytes) since the last
/// [`reset_peak`], in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Run `f` with peak tracking off (its allocations still count as live).
pub fn pause_peak<T>(f: impl FnOnce() -> T) -> T {
    TRACK_PEAK.store(false, Ordering::Relaxed);
    let out = f();
    TRACK_PEAK.store(true, Ordering::Relaxed);
    out
}
