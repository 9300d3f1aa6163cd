//! What one measurement holds: the producer reuses one box set for all
//! of its `box_reps` sets, so the live heap of a `traffic::measure`
//! stays under two sets of field storage, whatever the repetitions.
//!
//! The binary's allocator counts live bytes; it holds one test, so no
//! other test's allocations land in the count.

use pdesched_cachesim::CacheConfig;
use pdesched_core::Variant;
use pdesched_kernels::{GHOST, NCOMP};
use pdesched_machine::traffic::{measure, Engine, Point};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, keeping the live byte count and its peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_measurement_holds_under_two_box_sets() {
    // n = 32 runs four sets (`box_reps`); holding each on its own
    // would take four sets of field storage.
    let n = 32;
    let edge = |e: i32| (e as usize).pow(3) * NCOMP * 8;
    let set = edge(n + 2 * GHOST) + edge(n);
    let configs = [CacheConfig::new(32 * 1024, 8), CacheConfig::new(1024 * 1024, 16)];
    for variant in [Variant::baseline(), Variant::shift_fuse()] {
        let point = Point::hand(variant, n, &configs);
        // Lower (and memoize) the plan first: the bound is about the
        // producer, not the plan cache.
        measure(&point, Engine::Simulate).unwrap();
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        measure(&point, Engine::Simulate).unwrap();
        let held = PEAK.load(Ordering::Relaxed) - before;
        assert!(
            held < 2 * set,
            "{variant}: peak live heap {held} B during one measurement, two box sets are {} B",
            2 * set
        );
    }
}
