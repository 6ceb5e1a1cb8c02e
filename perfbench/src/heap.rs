//! Counting wrapper around the system allocator. Between `start` and
//! `stop` it tracks the process's heap growth and its peak; outside that
//! window it adds one relaxed load per call, so timed calls run at the
//! system allocator's speed.
//!
//! The peak is counted in requested bytes rather than read from VmHWM:
//! freed memory the allocator keeps, and the order in which the two rank
//! threads free it, move VmHWM of the same construction by 10–20% from
//! run to run, while the requested bytes repeat to a few KiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since `start`; frees of older blocks
/// can make it negative.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(delta: isize) {
    if COUNTING.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics that
// guard no memory, so relaxed atomics suffice. `alloc_zeroed` and
// `realloc` are forwarded rather than left to the default methods so that
// construction keeps calloc's and realloc's fast paths.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned, with
        // its layout.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block this allocator returned, with
        // its layout, and a valid new size.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Open the counting window at zero growth.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Close the window; returns its peak heap growth in MiB.
pub fn stop() -> f64 {
    COUNTING.store(false, Relaxed);
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
