//! A counting global allocator: live bytes, a resettable high-water mark,
//! and the number of allocations. Installed in this binary only, so the
//! library crates under test run on the plain system allocator everywhere
//! else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

// Statistics only: no other data is published through these atomics.
// The measured work runs on one thread, so each update is a plain load
// and store rather than a locked read-modify-write. A second allocating
// thread could lose updates, which would only skew the counts.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.load(Relaxed) + bytes;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
    COUNT.store(COUNT.load(Relaxed) + 1, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.store(LIVE.load(Relaxed).saturating_sub(bytes), Relaxed);
}

pub struct CountingAlloc;

// SAFETY: every operation is delegated to `System` unchanged, with the
// caller's layout; only the bookkeeping around it is ours, and it never
// touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    // Delegated rather than left to the default (`alloc` then a memset),
    // which would touch every page of large zeroed tables up front.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Heap use of one measured call: peak bytes above the live bytes at its
/// start, and the number of allocations it made.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapUse {
    pub peak_extra: usize,
    pub allocations: u64,
}

/// Runs `f`, reporting the extra heap it touched at its peak and how many
/// allocations it made. Calls nest: an enclosing measurement still sees
/// the peak reached inside this one.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    let outer_peak = PEAK.load(Relaxed);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let count = COUNT.load(Relaxed);
    let r = f();
    let peak = PEAK.load(Relaxed);
    PEAK.store(peak.max(outer_peak), Relaxed);
    let heap = HeapUse {
        peak_extra: peak.saturating_sub(base),
        allocations: COUNT.load(Relaxed) - count,
    };
    (r, heap)
}
