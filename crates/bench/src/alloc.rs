//! A counting global allocator.
//!
//! The `repro` binary installs [`CountingAlloc`] as its `#[global_allocator]`
//! so the `--json` report can say how many heap allocations each harness
//! performed — the hot-path pooling work (scheduler tokens, the
//! pending-message arena, cached diagnostics) shows up directly in this
//! number. The counter is two relaxed atomic adds per allocation on top of
//! the system allocator, cheap enough to leave on unconditionally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts allocation calls and bytes.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counters are
// side-effect-only bookkeeping.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    // Counted as one `alloc`; forwarded so zeroed buffers (`vec![0u8; n]`)
    // take pages the system hands over zeroed instead of a memset.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the layout the caller passed, as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative `(allocation calls, allocated bytes)` since process start.
/// Only meaningful in binaries that install [`CountingAlloc`]; elsewhere it
/// reads `(0, 0)`.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// `(calls, bytes)` allocated between two [`snapshot`] readings, so one-time
/// process setup (harness registries, CLI parsing, report serialization) is
/// not attributed to the simulation being measured. The counters are
/// process-wide: a region is attributable to a single harness only when
/// nothing else runs concurrently (`--jobs 1`).
pub fn region(start: (u64, u64), end: (u64, u64)) -> (u64, u64) {
    (end.0.saturating_sub(start.0), end.1.saturating_sub(start.1))
}
