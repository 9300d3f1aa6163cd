//! Variant dispatch: run any schedule variant over a box or a level.
//!
//! Since the plan-IR refactor this is a thin shim: `run_box` validates
//! the variant, fetches the cached [`crate::plan::Plan`] for the box
//! shape, and hands it to the generic interpreter
//! [`crate::plan::execute`].

use crate::mem::Mem;
use crate::plan;
use crate::storage::TempStorage;
use crate::variant::{Granularity, Variant};
use pdesched_mesh::{FArrayBox, IBox, LevelData};
use pdesched_par::UnsafeSlice;

/// Execute `variant` over a single box. For `P < Box` variants,
/// `nthreads` threads parallelize inside the box; `P >= Box` variants run
/// serially here (their parallelism lives at the level driver).
///
/// Lowers `(variant, box extents, nthreads)` to a [`plan::Plan`] via the
/// process-wide plan cache and interprets it. Returns the temporary
/// storage the schedule declares.
pub fn run_box<M: Mem>(
    variant: Variant,
    phi0: &FArrayBox,
    phi1: &mut FArrayBox,
    cells: IBox,
    nthreads: usize,
    mem: &M,
) -> TempStorage {
    let min_edge = cells.extent(0).min(cells.extent(1)).min(cells.extent(2));
    if let Err(e) = variant.validate_for_box(min_edge) {
        panic!("{e} ({cells:?})");
    }
    let plan = plan::plan_for(variant, cells.size(), nthreads);
    plan::execute(&plan, phi0, phi1, cells, mem)
}

/// Execute `variant` once over every box of a level: the exemplar's
/// per-time-step stencil work. `phi0`'s ghosts must be filled
/// (`phi0.exchange()`).
///
/// * `P >= Box`: boxes are distributed statically over `nthreads`
///   threads, each box running its serial schedule — how Chombo runs
///   today (MPI everywhere, approximated with threads as in the paper).
/// * `P < Box`: boxes run in sequence, each parallelized internally.
///
/// Returns the peak temporary storage summed over concurrently-live
/// buffer sets.
pub fn run_level<M: Mem>(
    variant: Variant,
    phi0: &LevelData,
    phi1: &mut LevelData,
    nthreads: usize,
    mem: &M,
) -> TempStorage {
    assert!(phi0.ghost() >= pdesched_kernels::GHOST, "phi0 needs 2 ghost layers");
    assert_eq!(phi0.num_boxes(), phi1.num_boxes());
    let nboxes = phi0.num_boxes();
    match variant.gran {
        Granularity::OverBoxes => {
            let boxes: Vec<IBox> = (0..nboxes).map(|i| phi0.valid_box(i)).collect();
            let fabs = UnsafeSlice::new(phi1.fabs_mut());
            let nt = nthreads.max(1).min(nboxes);
            let peaks: Vec<std::sync::Mutex<TempStorage>> =
                (0..nt).map(|_| std::sync::Mutex::new(TempStorage::default())).collect();
            pdesched_par::spmd(nt, |ctx| {
                let mut peak = TempStorage::default();
                for i in ctx.static_range(nboxes) {
                    // Safety: static_range hands each box index to exactly
                    // one thread.
                    let f1 = unsafe { fabs.get_mut(i) };
                    let s = run_box(variant, phi0.fab(i), f1, boxes[i], 1, mem);
                    peak = peak.max(s);
                }
                *peaks[ctx.tid()].lock().unwrap() = peak;
            });
            let mut total = TempStorage::default();
            for p in peaks {
                total = total.add(p.into_inner().unwrap());
            }
            total
        }
        Granularity::WithinBox => {
            let mut peak = TempStorage::default();
            for i in 0..nboxes {
                let cells = phi0.valid_box(i);
                let s = run_box(variant, phi0.fab(i), phi1.fab_mut(i), cells, nthreads, mem);
                peak = peak.max(s);
            }
            peak
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::NoMem;
    use crate::variant::Variant;
    use pdesched_kernels::{reference, NCOMP};
    use pdesched_mesh::{DisjointBoxLayout, ProblemDomain};

    fn level_pair(n: i32, box_size: i32) -> (LevelData, LevelData, LevelData) {
        let domain = IBox::cube(n);
        let layout = DisjointBoxLayout::uniform(ProblemDomain::periodic(domain), box_size);
        let mut phi0 = LevelData::new(layout.clone(), NCOMP, pdesched_kernels::GHOST);
        let mut phi1 = LevelData::new(layout, NCOMP, 0);
        phi0.fill_synthetic(71);
        phi0.exchange();
        phi1.fill_synthetic(72);
        let mut expect = phi1.clone();
        reference::update_level(&phi0, &mut expect);
        (phi0, phi1, expect)
    }

    #[test]
    fn every_variant_matches_reference_on_a_level() {
        // The headline equivalence test: all ~24 variants valid for an
        // 8^3 box (tiles {4}), at several thread counts, bitwise equal.
        let n = 16;
        let bs = 8;
        for variant in Variant::enumerate(bs) {
            for nthreads in [1, 3] {
                let (phi0, mut phi1, expect) = level_pair(n, bs);
                run_level(variant, &phi0, &mut phi1, nthreads, &NoMem);
                for i in 0..phi1.num_boxes() {
                    assert!(
                        phi1.fab(i).bit_eq(expect.fab(i), phi1.valid_box(i)),
                        "variant '{variant}' nthreads={nthreads} box {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn over_boxes_distributes_and_matches() {
        let (phi0, mut phi1, expect) = level_pair(16, 4);
        // 64 boxes over 7 threads.
        run_level(Variant::baseline(), &phi0, &mut phi1, 7, &NoMem);
        for i in 0..phi1.num_boxes() {
            assert!(phi1.fab(i).bit_eq(expect.fab(i), phi1.valid_box(i)));
        }
    }

    #[test]
    #[should_panic(expected = "invalid for box")]
    fn invalid_variant_panics() {
        let (phi0, mut phi1, _) = level_pair(8, 8);
        let bad = Variant::blocked_wavefront(crate::variant::CompLoop::Outside, 8);
        run_level(bad, &phi0, &mut phi1, 1, &NoMem);
    }

    #[test]
    #[should_panic(expected = "ghost")]
    fn missing_ghosts_panics() {
        let domain = IBox::cube(8);
        let layout = DisjointBoxLayout::uniform(ProblemDomain::periodic(domain), 8);
        let phi0 = LevelData::new(layout.clone(), NCOMP, 0);
        let mut phi1 = LevelData::new(layout, NCOMP, 0);
        run_level(Variant::baseline(), &phi0, &mut phi1, 1, &NoMem);
    }

    #[test]
    fn level_storage_reflects_over_boxes_threads() {
        let (phi0, mut phi1, _) = level_pair(16, 8);
        // 8 boxes, 4 threads, baseline: 4 concurrently-live buffer sets.
        let s4 = run_level(Variant::baseline(), &phi0, &mut phi1, 4, &NoMem);
        let s1 = run_level(Variant::baseline(), &phi0, &mut phi1, 1, &NoMem);
        assert_eq!(s4.total_f64(), 4 * s1.total_f64());
    }
}
