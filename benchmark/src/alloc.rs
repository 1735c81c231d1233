//! The benchmark's own counting global allocator: calls and bytes requested
//! (the `alloc_calls` / `alloc_gb` metrics) plus live bytes (the
//! `retained_bytes_per_line` layer row) and peak-live bytes (`heap_peak_mb`,
//! which unlike `VmHWM` repeats from run to run). Process-wide, so a region is
//! attributable to one thing only when nothing else runs beside it.
//! [`reset_peak`] restarts the peak once set-up is over, so that it is the
//! workload's and not its input generator's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The counter arithmetic, apart from the allocator so tests can drive it.
/// All orderings are `Relaxed`: the counters are statistics and publish no
/// other data.
pub struct Counters {
    calls: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

/// One reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// `alloc` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` seen so far.
    pub peak: u64,
}

impl Counters {
    pub const fn new() -> Self {
        Counters {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn grow(&self, size: u64) {
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    pub fn on_alloc(&self, size: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        self.grow(size as u64);
    }

    pub fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size as u64, Ordering::Relaxed);
    }

    /// A realloc counts as one call requesting `new` bytes; live bytes move
    /// by the difference.
    pub fn on_realloc(&self, old: usize, new: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(new as u64, Ordering::Relaxed);
        if new >= old {
            self.grow((new - old) as u64);
        } else {
            self.live.fetch_sub((old - new) as u64, Ordering::Relaxed);
        }
    }

    /// Forget the peak so far: the next peak is counted from what is live
    /// now. Meant for a quiet moment; an allocation racing it may be missed.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
        }
    }
}

static COUNTERS: Counters = Counters::new();

/// System allocator wrapper feeding [`COUNTERS`].
pub struct CountingAlloc;

// SAFETY: every operation is delegated unchanged to `System`; the counters
// are bookkeeping beside it and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTERS.on_alloc(layout.size());
        // SAFETY: same layout the caller passed to us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNTERS.on_alloc(layout.size());
        // SAFETY: same layout the caller passed to us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        COUNTERS.on_dealloc(layout.size());
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTERS.on_realloc(layout.size(), new_size);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Current process-wide reading.
pub fn snapshot() -> Snapshot {
    COUNTERS.snapshot()
}

/// Restart the process-wide peak from what is live now.
pub fn reset_peak() {
    COUNTERS.reset_peak();
}

/// `(calls, bytes)` between two readings.
pub fn region(start: Snapshot, end: Snapshot) -> (u64, u64) {
    (
        end.calls.saturating_sub(start.calls),
        end.bytes.saturating_sub(start.bytes),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_and_peak_follow_alloc_dealloc() {
        let c = Counters::new();
        c.on_alloc(100);
        c.on_alloc(50);
        c.on_dealloc(100);
        c.on_alloc(20);
        let s = c.snapshot();
        assert_eq!((s.calls, s.bytes), (3, 170));
        assert_eq!(s.live, 70);
        assert_eq!(s.peak, 150);
    }

    #[test]
    fn reset_peak_restarts_from_live() {
        let c = Counters::new();
        c.on_alloc(500);
        c.on_dealloc(400);
        c.reset_peak();
        assert_eq!(c.snapshot().peak, 100);
        c.on_alloc(30);
        assert_eq!(c.snapshot().peak, 130);
    }

    #[test]
    fn realloc_moves_live_by_the_difference() {
        let c = Counters::new();
        c.on_alloc(64);
        c.on_realloc(64, 256);
        assert_eq!(c.snapshot().live, 256);
        assert_eq!(c.snapshot().peak, 256);
        c.on_realloc(256, 16);
        let s = c.snapshot();
        assert_eq!(s.live, 16);
        assert_eq!(s.peak, 256);
        assert_eq!((s.calls, s.bytes), (3, 64 + 256 + 16));
    }

    #[test]
    fn region_is_the_delta() {
        let a = Snapshot {
            calls: 10,
            bytes: 100,
            live: 0,
            peak: 0,
        };
        let b = Snapshot {
            calls: 25,
            bytes: 180,
            live: 0,
            peak: 0,
        };
        assert_eq!(region(a, b), (15, 80));
        assert_eq!(region(b, a), (0, 0));
    }
}
