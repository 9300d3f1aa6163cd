//! The generic plan interpreter: materializes a region's declared
//! buffers in order and dispatches steps to the existing row/pass bodies
//! in `series`, `fuse`, and `wavefront`. An overlapped tile is one more
//! plan: the interpreter runs the tile's [`Plan::tile_plans`] entry over
//! the tile's cells.
//!
//! [`execute`] runs one plan over one box. [`execute_pair`] runs one
//! plan over two boxes of the same extents, interleaving their step
//! streams phase by phase — the execution vehicle of the cross-box
//! fusion pass (neighboring boxes' halo lines stay cache-hot between
//! their interleaved sweeps).

use super::ir::{tile_box, zslab, AllocKind, Phase, Plan, RegionKind, RegionPlan, Step};
use crate::mem::Mem;
use crate::shared::SharedFab;
use crate::storage::TempStorage;
use crate::{fuse, series, wavefront};
use pdesched_kernels::NCOMP;
use pdesched_mesh::{FArrayBox, IBox};
use pdesched_par::{spmd, UnsafeSlice};

fn walk<F: Fn(&Step) + Sync>(nthreads: usize, phases: &[Phase], f: F) {
    spmd(nthreads, |ctx| {
        for phase in phases {
            // Cancellation checkpoint between step-phases: a tripped
            // ambient token unwinds here (no memory events have been
            // emitted for the phase yet, so an interrupted measurement
            // never publishes a partial stream).
            pdesched_par::cancel::check_current();
            for step in &phase.work[ctx.tid()] {
                f(step);
            }
            if phase.barrier_after {
                ctx.barrier();
            }
        }
    });
}

/// Execute a lowered plan over one box, accumulating into `phi1`.
/// Returns the plan-declared temporary storage.
///
/// The plan must have been lowered for `cells.size()`; `nthreads` is
/// baked into the plan.
pub fn execute<M: Mem>(
    plan: &Plan,
    phi0: &FArrayBox,
    phi1: &mut FArrayBox,
    cells: IBox,
    mem: &M,
) -> TempStorage {
    assert_eq!(
        cells.size(),
        plan.size,
        "plan lowered for extents {:?}, executed on {:?}",
        plan.size,
        cells
    );
    run_regions(plan, phi0, &SharedFab::new(phi1), cells, mem);
    plan.storage
}

/// Execute a plan over two boxes of the same extents, interleaving their
/// step streams phase by phase (step-level round robin inside each
/// phase). `phi0` must cover both boxes' grown footprints — the kernels
/// index it by absolute coordinates, so one oversized source array
/// serves both. Serial plans only (`plan.nthreads == 1`): interleaving
/// is a traced-measurement vehicle, and tracing happens at one thread.
///
/// Returns the combined (2x) temporary storage.
pub fn execute_pair<M: Mem>(
    plan: &Plan,
    phi0: &FArrayBox,
    phi1a: &mut FArrayBox,
    phi1b: &mut FArrayBox,
    cells_a: IBox,
    cells_b: IBox,
    mem: &M,
) -> TempStorage {
    assert_eq!(plan.nthreads, 1, "execute_pair interleaves serial plans only");
    assert_eq!(
        cells_a.size(),
        plan.size,
        "plan lowered for extents {:?}, executed on {:?}",
        plan.size,
        cells_a
    );
    assert_eq!(cells_a.size(), cells_b.size(), "pair boxes must share extents");
    let av = SharedFab::new(phi1a);
    let bv = SharedFab::new(phi1b);
    for region in &plan.regions {
        // Buffer materialization order is A's then B's per region — the
        // deterministic trace-address layout the pair store key pins.
        with_region_runner(plan, region, phi0, &av, cells_a, mem, |fa| {
            with_region_runner(plan, region, phi0, &bv, cells_b, mem, |fb| {
                for phase in &region.phases {
                    pdesched_par::cancel::check_current();
                    let steps = &phase.work[0];
                    for step in steps {
                        fa(step);
                        fb(step);
                    }
                }
            })
        });
    }
    plan.storage.add(plan.storage)
}

/// Run every region of `plan` over `cells` in order.
fn run_regions<M: Mem>(plan: &Plan, phi0: &FArrayBox, phi1: &SharedFab, cells: IBox, mem: &M) {
    for region in &plan.regions {
        run_region(plan, region, phi0, phi1, cells, mem);
    }
}

pub(super) fn run_region<M: Mem>(
    plan: &Plan,
    region: &RegionPlan,
    phi0: &FArrayBox,
    phi1: &SharedFab,
    cells: IBox,
    mem: &M,
) {
    with_region_runner(plan, region, phi0, phi1, cells, mem, |f| {
        walk(plan.nthreads, &region.phases, f)
    })
}

/// Materialize `region`'s declared buffers over `cells` and hand `body`
/// a step dispatcher bound to them. Trace addresses are a pure function
/// of allocation order (`trace_addr`), so following the declared order
/// reproduces the hand-written executors' address streams exactly.
fn with_region_runner<M: Mem, R>(
    plan: &Plan,
    region: &RegionPlan,
    phi0: &FArrayBox,
    phi1: &SharedFab,
    cells: IBox,
    mem: &M,
    body: impl FnOnce(&(dyn Fn(&Step) + Sync)) -> R,
) -> R {
    let mut fabs: Vec<FArrayBox> = Vec::new();
    let mut raws: Vec<(usize, Vec<f64>)> = Vec::new();
    for a in &region.allocs {
        match a.kind {
            AllocKind::Fab { d, ncomp } => {
                fabs.push(FArrayBox::new(cells.surrounding_faces(d), ncomp));
            }
            AllocKind::Raw { len } => {
                let base = pdesched_mesh::trace_addr::alloc(len * 8);
                raws.push((base, vec![0.0f64; len]));
            }
        }
    }
    let fviews: Vec<SharedFab> = fabs.iter_mut().map(SharedFab::new).collect();
    match region.kind {
        RegionKind::Series => {
            let f = |step: &Step| series_step(step, phi0, phi1, cells, &fviews, mem);
            body(&f)
        }
        RegionKind::Fuse => {
            let [(ybase, yvec), (zbase, zvec)] = &mut raws[..] else {
                unreachable!("fuse region carries exactly two raw caches");
            };
            let (ybase, zbase) = (*ybase, *zbase);
            let yc = UnsafeSlice::new(yvec);
            let zc = UnsafeSlice::new(zvec);
            let vels: Option<[SharedFab; 3]> =
                (fviews.len() == 3).then(|| [fviews[0], fviews[1], fviews[2]]);
            let f = |step: &Step| match *step {
                Step::FillVel { vel, d, zr } => {
                    fill_vel_step(phi0, &fviews[vel], cells, d, zr, mem)
                }
                // A partial `zr` recomputes the slab's low z-face fluxes
                // instead of reading the carry cache (the kernels'
                // `z == lo[2]` prologue) — bit-exact, see `Step::FusedClo`.
                Step::FusedClo { c, zr } => fuse::fused_tile_clo_comp(
                    phi0,
                    phi1,
                    zslab(cells, zr),
                    c,
                    vels.as_ref().expect("CLO velocity arrays"),
                    &yc,
                    &zc,
                    ybase,
                    zbase,
                    mem,
                ),
                Step::FusedCli { zr } => {
                    fuse::fused_tile_cli(phi0, phi1, zslab(cells, zr), &yc, &zc, ybase, zbase, mem)
                }
                ref other => unreachable!("{other:?} in a fuse region"),
            };
            body(&f)
        }
        RegionKind::Wavefront => {
            let s = cells.size();
            let [(xb, xv), (yb, yv), (zb, zv)] = &mut raws[..] else {
                unreachable!("wavefront region carries exactly three raw caches");
            };
            let caches = wavefront::Caches {
                xbase: *xb,
                ybase: *yb,
                zbase: *zb,
                x: UnsafeSlice::new(xv),
                y: UnsafeSlice::new(yv),
                z: UnsafeSlice::new(zv),
                lo: cells.lo(),
                nx: s[0] as usize,
                ny: s[1] as usize,
                kc: plan.variant.comp.cache_components(),
            };
            let f = |step: &Step| match *step {
                Step::FillVel { vel, d, zr } => {
                    fill_vel_step(phi0, &fviews[vel], cells, d, zr, mem)
                }
                Step::WfSpan { group, start, len, comp } => {
                    let ids =
                        &plan.wf_groups[group as usize][start as usize..(start + len) as usize];
                    for &id in ids {
                        let t = tile_box(cells, plan.tile, id);
                        match comp {
                            None => wavefront::tile_cli(phi0, phi1, cells, t, &caches, mem),
                            Some(c) => wavefront::tile_clo(
                                phi0, phi1, cells, t, c as usize, &fviews, &caches, mem,
                            ),
                        }
                    }
                }
                ref other => unreachable!("{other:?} in a wavefront region"),
            };
            body(&f)
        }
        RegionKind::Overlap => {
            // Each tile runs its extent's serial plan, drawing fresh
            // buffers (and trace addresses) per tile, with a cancellation
            // checkpoint at every tile-plan phase.
            let f = |step: &Step| match *step {
                Step::OtTiles { start, len, .. } => {
                    for id in start..start + len {
                        let t = tile_box(cells, plan.tile, id);
                        run_regions(plan.tile_plan(t.size()), phi0, phi1, t, mem);
                    }
                }
                ref other => unreachable!("{other:?} in an overlap region"),
            };
            body(&f)
        }
    }
}

fn series_step<M: Mem>(
    step: &Step,
    phi0: &FArrayBox,
    phi1: &SharedFab,
    cells: IBox,
    fviews: &[SharedFab],
    mem: &M,
) {
    // Faces share the box's low z corner for every direction, so one
    // offset serves both face and cell slabs.
    let z0 = cells.lo()[2];
    match *step {
        Step::Flux1 { flux, d, zr, cli } => {
            let faces = cells.surrounding_faces(d);
            let z = z0 + zr.0..z0 + zr.1;
            if cli {
                series::pass_flux1_cli(phi0, &fviews[flux], faces, z, mem);
            } else {
                series::pass_flux1(phi0, &fviews[flux], faces, 0..NCOMP, z, mem);
            }
        }
        Step::ExtractVel { flux, vel, d, zr } => {
            let faces = cells.surrounding_faces(d);
            series::pass_extract_velocity(
                &fviews[flux],
                &fviews[vel],
                d,
                faces,
                z0 + zr.0..z0 + zr.1,
                mem,
            );
        }
        Step::Flux2Clo { flux, vel, d, zr } => {
            let faces = cells.surrounding_faces(d);
            series::pass_flux2_clo(
                &fviews[flux],
                &fviews[vel],
                faces,
                0..NCOMP,
                z0 + zr.0..z0 + zr.1,
                mem,
            );
        }
        Step::Flux2Cli { flux, d, zr } => {
            let faces = cells.surrounding_faces(d);
            series::pass_flux2_cli(&fviews[flux], d, faces, z0 + zr.0..z0 + zr.1, mem);
        }
        Step::Accumulate { flux, d, zr, comp } => {
            series::pass_accumulate(
                phi1,
                &fviews[flux],
                cells,
                d,
                0..NCOMP,
                z0 + zr.0..z0 + zr.1,
                comp,
                mem,
            );
        }
        ref other => unreachable!("{other:?} in a series region"),
    }
}

fn fill_vel_step<M: Mem>(
    phi0: &FArrayBox,
    vel: &SharedFab,
    cells: IBox,
    d: usize,
    zr: (i32, i32),
    mem: &M,
) {
    let faces = cells.surrounding_faces(d);
    let z0 = faces.lo()[2];
    wavefront::fill_velocity_slab(phi0, vel, faces, d, z0 + zr.0..z0 + zr.1, mem);
}
