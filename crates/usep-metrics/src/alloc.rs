//! Counting global allocator.
//!
//! Wraps the system allocator and keeps two atomic counters: the live
//! byte count and its high-water mark. The experiments binary registers
//! it with `#[global_allocator]`; libraries only read the counters (all
//! reads degrade gracefully to zero when the allocator is not
//! registered).
//!
//! The paper measures per-algorithm memory consumption; we report the
//! *peak live bytes above the pre-run baseline*, which isolates the
//! algorithm's working set from the input data — matching the paper's
//! observation that "all the algorithms consume only very little memory
//! in addition to the memory taken up by input data" except DeDP.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`GlobalAlloc`] wrapper around the system allocator that maintains
/// live/peak byte counters.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: usep_metrics::CountingAllocator = usep_metrics::CountingAllocator;
/// ```
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
            track_alloc(new_size);
        }
        p
    }
}

fn track_alloc(size: usize) {
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    // lock-free high-water mark
    let mut peak = PEAK.load(Ordering::Relaxed);
    while now > peak {
        match PEAK.compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

/// Live heap bytes right now (0 unless the allocator is registered).
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark since process start or the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live count.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Runs `f` and returns its result together with the peak heap growth
/// (in bytes) above the live baseline at entry. Single-threaded
/// measurements only — concurrent allocations would be attributed to `f`.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = current_bytes();
    reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the allocator is not registered in unit tests (registering a
    // global allocator is a binary-level decision), so the counters stay
    // at zero; these tests cover the bookkeeping API surface.

    /// Both tests below move the process-wide counters, and the test
    /// harness runs tests on parallel threads: they take turns.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counters_are_consistent_without_registration() {
        let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let c = current_bytes();
        reset_peak();
        assert_eq!(peak_bytes(), c);
        let (v, growth) = measure_peak(|| vec![0u8; 1 << 16].len());
        assert_eq!(v, 1 << 16);
        // growth is 0 when unregistered, ≥ 64 KiB when registered
        assert!(growth == 0 || growth >= 1 << 16);
    }

    #[test]
    fn track_alloc_updates_peak() {
        let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        // exercise the internal high-water logic directly
        let before_peak = peak_bytes();
        track_alloc(123);
        assert!(peak_bytes() >= before_peak);
        CURRENT.fetch_sub(123, std::sync::atomic::Ordering::Relaxed);
    }
}
