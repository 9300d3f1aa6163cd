//! Level updates lower once per box shape: after the first box the plan
//! cache serves every later execution, and cached plans produce
//! bitwise-identical fields to cold lowerings.

use pdesched_core::{plan, run_level, CompLoop, NoMem, Variant};
use pdesched_kernels::{GHOST, NCOMP};
use pdesched_mesh::{DisjointBoxLayout, IBox, LevelData, ProblemDomain};
use std::sync::Mutex;

/// The plan cache and its hit/miss counters are process-wide; serialize
/// the tests in this binary so the stats assertions are meaningful.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

/// Apply `variant` `updates` times over a periodic 16^3 level of 8^3
/// boxes, accumulating into one output level.
fn run(variant: Variant, nthreads: usize, updates: usize) -> LevelData {
    let layout = DisjointBoxLayout::uniform(ProblemDomain::periodic(IBox::cube(16)), 8);
    let mut phi0 = LevelData::new(layout.clone(), NCOMP, GHOST);
    let mut phi1 = LevelData::new(layout, NCOMP, 0);
    phi0.fill_synthetic(901);
    phi0.exchange();
    phi1.fill_synthetic(902);
    for _ in 0..updates {
        run_level(variant, &phi0, &mut phi1, nthreads, &NoMem);
    }
    phi1
}

#[test]
fn warm_plans_match_cold_plans_bitwise() {
    let _g = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for variant in [
        Variant::baseline(),
        Variant::shift_fuse(),
        Variant::blocked_wavefront(CompLoop::Inside, 4),
    ] {
        plan::clear_cache();
        let cold = run(variant, 2, 3);
        let (_, cold_misses, _) = plan::cache_stats();
        assert!(cold_misses > 0, "{variant}: first run must lower");
        let warm = run(variant, 2, 3);
        let (hits, misses, _) = plan::cache_stats();
        assert!(hits > 0, "{variant}: second run must hit the plan cache");
        assert_eq!(misses, cold_misses, "{variant}: second run must not re-lower");
        for i in 0..cold.num_boxes() {
            assert!(
                warm.fab(i).bit_eq(cold.fab(i), cold.valid_box(i)),
                "{variant}: box {i} diverged between cold and warm plans"
            );
        }
    }
}

#[test]
fn one_box_shape_lowers_once() {
    let _g = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    plan::clear_cache();
    run(Variant::blocked_wavefront(CompLoop::Outside, 4), 3, 8);
    let (hits, misses, entries) = plan::cache_stats();
    // One 8^3 box shape, one variant, one thread count: a single
    // lowering, then hits for all the remaining (box, update)
    // executions.
    assert_eq!(misses, 1, "one shape must lower exactly once");
    assert_eq!(entries, 1);
    // 8 boxes x 8 updates = 64 executions, 63 from cache.
    assert_eq!(hits, 63);
}
