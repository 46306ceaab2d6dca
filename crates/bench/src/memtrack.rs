//! Live-allocation tracking for peak-heap measurements.
//!
//! [`CountingAlloc`] wraps the system allocator and keeps two atomic
//! gauges: bytes currently live, and the peak live bytes since the last
//! [`CountingAlloc::reset_peak`]. A binary installs it as the
//! `#[global_allocator]` and brackets each measured region with
//! `reset_peak` / [`CountingAlloc::peak`], which is how
//! `tests/peak_live_bytes.rs` holds the streamed batch path to one
//! query's working set and the windowed database search to less heap
//! than the concatenated bank.
//!
//! Overhead is two relaxed atomic RMWs per allocation — noise for the
//! pipeline workloads measured here, and identical for both sides of
//! every comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A counting wrapper over the system allocator. `const`-constructible so
/// it can be a `#[global_allocator]` static.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A fresh counter (all gauges zero).
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Peak live bytes since the last [`CountingAlloc::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts peak tracking from the current live level, returning that
    /// level — the baseline to subtract from the next [`peak`] reading so
    /// a measurement reports only the region's own growth.
    ///
    /// [`peak`]: CountingAlloc::peak
    pub fn reset_peak(&self) -> usize {
        let now = self.live();
        self.peak.store(now, Ordering::Relaxed);
        now
    }

    fn add(&self, n: usize) {
        let now = self.live.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, n: usize) {
        self.live.fetch_sub(n, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: delegates every allocation verbatim to `System`; the gauges are
// plain atomics and never influence what the allocator returns.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                self.add(new_size - layout.size());
            } else {
                self.sub(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not the global allocator in tests — exercised directly.
    #[test]
    fn gauges_track_alloc_free_cycle() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        // SAFETY: the layout is valid and non-zero, every alloc is
        // paired with exactly one dealloc of the same layout, and the
        // pointers are never used after free.
        unsafe {
            let base = a.reset_peak();
            assert_eq!(base, 0);
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(a.live(), 4096);
            assert_eq!(a.peak(), 4096);
            let q = a.alloc(layout);
            assert_eq!(a.peak(), 8192);
            a.dealloc(p, layout);
            assert_eq!(a.live(), 4096);
            // Peak survives the free...
            assert_eq!(a.peak(), 8192);
            // ...until reset, which restarts from the live level.
            assert_eq!(a.reset_peak(), 4096);
            assert_eq!(a.peak(), 4096);
            a.dealloc(q, layout);
            assert_eq!(a.live(), 0);
        }
    }

    #[test]
    fn realloc_tracks_deltas() {
        let a = CountingAlloc::new();
        let small = Layout::from_size_align(100, 8).unwrap();
        // SAFETY: layouts are valid and non-zero, realloc receives the
        // pointer's current layout each time, and the final pointer is
        // freed once with its last layout.
        unsafe {
            let p = a.alloc(small);
            let p = a.realloc(p, small, 300);
            assert_eq!(a.live(), 300);
            let big = Layout::from_size_align(300, 8).unwrap();
            let p = a.realloc(p, big, 50);
            assert_eq!(a.live(), 50);
            a.dealloc(p, Layout::from_size_align(50, 8).unwrap());
            assert_eq!(a.live(), 0);
        }
    }
}
