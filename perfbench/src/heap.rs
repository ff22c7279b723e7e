//! Heap accounting: the benchmark binary's global allocator counts live
//! heap bytes and their peak.
//!
//! The peak of live bytes is what a workload keeps in memory — caches,
//! memos, banks — and, unlike the process's peak resident set, it does
//! not depend on how the allocator's per-thread arenas happen to
//! fragment, so it repeats from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting. The counters publish no other data,
/// so relaxed ordering suffices.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting around the
// calls touches only the two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Fix glibc malloc's mmap and trim thresholds for the whole run.
///
/// By default glibc raises its mmap threshold when a large block is freed,
/// and when that happens depends on the order in which threads free their
/// blocks. Runs of the same restart workload and seed therefore took
/// either about 380 or about 2,070 page faults per checkpoint-restore
/// cycle (fresh pages for every large block), the second 20-30% slower.
/// Pinned at about where the dynamic rule climbs to in a long-running
/// process (blocks up to 32 MB come from the heap, which keeps up to
/// 256 MB of free memory), every run takes about 12.
/// Returns false when the C library rejects the settings.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_thresholds() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets allocator parameters; it is called at
    // start-up, before the program starts any thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 256 << 20) == 1 }
}

/// Other C libraries keep their own allocator behaviour.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_thresholds() -> bool {
    false
}

/// Start a new peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_live_allocation() {
        // Other tests may reset the peak concurrently; a reset still
        // starts from the live bytes, which include this block.
        let block = std::hint::black_box(vec![1u8; 8 << 20]);
        assert!(peak_mb() >= 8.0, "peak {} MB", peak_mb());
        assert!(LIVE.load(Relaxed) >= block.len());
    }
}
