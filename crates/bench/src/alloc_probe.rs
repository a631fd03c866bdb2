//! A counting global allocator shared by the criterion benches.
//!
//! [`CountingAlloc`] is a pass-through wrapper over the system
//! allocator that tracks allocation counts and the peak number of live
//! heap bytes. `#[global_allocator]` must be declared in each *binary*
//! that wants the probe:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: warlock_bench::alloc_probe::CountingAlloc =
//!     warlock_bench::alloc_probe::CountingAlloc;
//! ```
//!
//! [`allocation_profile`] then brackets a closure and reports what it
//! allocated. When the probe is *not* installed the counters never
//! move; [`probe_installed`] lets callers record honest zeros instead
//! of bogus measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that tracks allocation counts and the peak
/// number of live heap bytes.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live =
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and reports `(result, allocations, peak extra live bytes)`
/// during it. Both counters read 0 when [`CountingAlloc`] is not the
/// binary's global allocator.
pub fn allocation_profile<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    let peak = PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(live);
    (
        result,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        peak,
    )
}

/// Whether [`CountingAlloc`] is actually installed as the global
/// allocator of the running binary (probed with a real heap
/// allocation, so memory metrics can be reported as absent rather than
/// as zeros that look like measurements).
pub fn probe_installed() -> bool {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(vec![0u8; 64]);
    ALLOCATIONS.load(Ordering::Relaxed) != before
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-test binary does not install the probe: the profile must
    // degrade to zeros and `probe_installed` must say so.
    #[test]
    fn profile_degrades_gracefully_without_the_probe() {
        assert!(!probe_installed());
        let (value, allocs, peak) = allocation_profile(|| vec![1u8; 1024].len());
        assert_eq!(value, 1024);
        assert_eq!(allocs, 0);
        assert_eq!(peak, 0);
    }
}
