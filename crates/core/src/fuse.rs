//! Category "Shifted and Fused" (Fig. 8a): the face loops are shifted and
//! fused with the cell loops in all three dimensions.
//!
//! Per cell, the schedule computes (or retrieves from a carry cache) the
//! six face fluxes surrounding the cell and immediately accumulates them.
//! In the x direction two carried scalars suffice; in y a line cache of
//! the previous row's high-side fluxes; in z a plane cache — the
//! `2 + 2N + 2N^2` flux row of Table I. CLO additionally pre-computes
//! three velocity face arrays (`3(N+1)^3`); CLI carries all five
//! components through the caches and needs no velocity temporary.
//!
//! Face fluxes on the low boundary of the swept box are computed directly
//! (the "shift" prologue). Every interior face is computed exactly once,
//! so the operation count is identical to the series schedule.
//!
//! The sweeps below are the steps of the plan's fuse region. A
//! Shift-Fuse overlapped tile runs the same plan, lowered for the tile's
//! extent (`Variant::tile_schedule`), so its prologue is the tile's
//! surface recomputation.

use crate::mem::Mem;
use crate::shared::{face_flux_one, face_fluxes_all, SharedFab};
use pdesched_kernels::point::accumulate;
use pdesched_kernels::{vel_comp, NCOMP};
use pdesched_mesh::{FArrayBox, IBox, IntVect};
use pdesched_par::UnsafeSlice;

/// Flux of component `c` at face `f` in direction `d` for CLO: the
/// velocity comes from the pre-computed array; when `c` *is* the velocity
/// component its interpolant is the stored velocity itself (no second
/// interpolation — this keeps the operation count identical to the
/// series schedule).
#[inline(always)]
pub(crate) fn clo_flux<M: Mem>(
    phi0: &FArrayBox,
    vel: &SharedFab,
    d: usize,
    f: IntVect,
    c: usize,
    mem: &M,
) -> f64 {
    let vi = vel.index(f, 0);
    mem.r(vel.addr(vi));
    let v = unsafe { vel.read(vi) };
    if c == vel_comp(d) {
        mem.op_flux();
        pdesched_kernels::point::flux_mul(v, v)
    } else {
        face_flux_one(phi0, d, f, c, v, mem)
    }
}

/// One component's fused sweep (CLO). Buffer state arrives as shared
/// views, materialized by the plan interpreter's fuse region.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fused_tile_clo_comp<M: Mem>(
    phi0: &FArrayBox,
    phi1: &SharedFab,
    cells: IBox,
    c: usize,
    vels: &[SharedFab; 3],
    ycache: &UnsafeSlice<'_, f64>,
    zcache: &UnsafeSlice<'_, f64>,
    ybase: usize,
    zbase: usize,
    mem: &M,
) {
    let (lo, hi) = (cells.lo(), cells.hi());
    let nx = cells.extent(0) as usize;
    for z in lo[2]..=hi[2] {
        for y in lo[1]..=hi[1] {
            let mut fxlo = 0.0;
            for x in lo[0]..=hi[0] {
                let iv = IntVect::new(x, y, z);
                let xr = (x - lo[0]) as usize;
                // x direction
                if x == lo[0] {
                    fxlo = clo_flux(phi0, &vels[0], 0, iv, c, mem);
                }
                let fxhi = clo_flux(phi0, &vels[0], 0, iv.shifted(0, 1), c, mem);
                // y direction
                let fylo = if y == lo[1] {
                    clo_flux(phi0, &vels[1], 1, iv, c, mem)
                } else {
                    mem.r(ybase + xr * 8);
                    unsafe { ycache.read(xr) }
                };
                let fyhi = clo_flux(phi0, &vels[1], 1, iv.shifted(1, 1), c, mem);
                mem.w(ybase + xr * 8);
                unsafe { ycache.write(xr, fyhi) };
                // z direction
                let zi = (y - lo[1]) as usize * nx + xr;
                let fzlo = if z == lo[2] {
                    clo_flux(phi0, &vels[2], 2, iv, c, mem)
                } else {
                    mem.r(zbase + zi * 8);
                    unsafe { zcache.read(zi) }
                };
                let fzhi = clo_flux(phi0, &vels[2], 2, iv.shifted(2, 1), c, mem);
                mem.w(zbase + zi * 8);
                unsafe { zcache.write(zi, fzhi) };
                // Accumulate in direction order x, y, z.
                let pi = phi1.index(iv, c);
                mem.r(phi1.addr(pi));
                let mut v = unsafe { phi1.read(pi) };
                mem.op_accum();
                v = accumulate(v, fxlo, fxhi);
                mem.op_accum();
                v = accumulate(v, fylo, fyhi);
                mem.op_accum();
                v = accumulate(v, fzlo, fzhi);
                mem.w(phi1.addr(pi));
                unsafe { phi1.write(pi, v) };
                fxlo = fxhi;
            }
        }
    }
}

/// The CLI fused sweep: all five components per cell, velocity in
/// registers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fused_tile_cli<M: Mem>(
    phi0: &FArrayBox,
    phi1: &SharedFab,
    cells: IBox,
    ycache: &UnsafeSlice<'_, f64>,
    zcache: &UnsafeSlice<'_, f64>,
    ybase: usize,
    zbase: usize,
    mem: &M,
) {
    let (lo, hi) = (cells.lo(), cells.hi());
    let nx = cells.extent(0) as usize;
    let mut fxlo = [0.0f64; NCOMP];
    let mut fxhi = [0.0f64; NCOMP];
    let mut fylo = [0.0f64; NCOMP];
    let mut fyhi = [0.0f64; NCOMP];
    let mut fzlo = [0.0f64; NCOMP];
    let mut fzhi = [0.0f64; NCOMP];
    for z in lo[2]..=hi[2] {
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                let iv = IntVect::new(x, y, z);
                let xr = (x - lo[0]) as usize;
                // x direction
                if x == lo[0] {
                    face_fluxes_all(phi0, 0, iv, &mut fxlo, mem);
                }
                face_fluxes_all(phi0, 0, iv.shifted(0, 1), &mut fxhi, mem);
                // y direction
                if y == lo[1] {
                    face_fluxes_all(phi0, 1, iv, &mut fylo, mem);
                } else {
                    mem.r_run(ybase + xr * NCOMP * 8, NCOMP);
                    for (c, v) in fylo.iter_mut().enumerate() {
                        *v = unsafe { ycache.read(xr * NCOMP + c) };
                    }
                }
                face_fluxes_all(phi0, 1, iv.shifted(1, 1), &mut fyhi, mem);
                mem.w_run(ybase + xr * NCOMP * 8, NCOMP);
                for (c, v) in fyhi.iter().enumerate() {
                    unsafe { ycache.write(xr * NCOMP + c, *v) };
                }
                // z direction
                let zi = ((y - lo[1]) as usize * nx + xr) * NCOMP;
                if z == lo[2] {
                    face_fluxes_all(phi0, 2, iv, &mut fzlo, mem);
                } else {
                    mem.r_run(zbase + zi * 8, NCOMP);
                    for (c, v) in fzlo.iter_mut().enumerate() {
                        *v = unsafe { zcache.read(zi + c) };
                    }
                }
                face_fluxes_all(phi0, 2, iv.shifted(2, 1), &mut fzhi, mem);
                mem.w_run(zbase + zi * 8, NCOMP);
                for (c, v) in fzhi.iter().enumerate() {
                    unsafe { zcache.write(zi + c, *v) };
                }
                // Accumulate: per component, direction order x, y, z.
                for c in 0..NCOMP {
                    let pi = phi1.index(iv, c);
                    mem.r(phi1.addr(pi));
                    let mut v = unsafe { phi1.read(pi) };
                    mem.op_accum();
                    v = accumulate(v, fxlo[c], fxhi[c]);
                    mem.op_accum();
                    v = accumulate(v, fylo[c], fyhi[c]);
                    mem.op_accum();
                    v = accumulate(v, fzlo[c], fzhi[c]);
                    mem.w(phi1.addr(pi));
                    unsafe { phi1.write(pi, v) };
                }
                fxlo = fxhi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_box;
    use crate::mem::{CountingMem, NoMem};
    use crate::variant::{Category, CompLoop, Granularity, IntraTile, Variant};
    use pdesched_kernels::reference;

    fn fuse_variant(comp: CompLoop) -> Variant {
        Variant {
            category: Category::ShiftFuse,
            gran: Granularity::OverBoxes,
            comp,
            intra: IntraTile::Basic,
            tile: None,
        }
    }

    fn series_variant(comp: CompLoop) -> Variant {
        Variant { category: Category::Series, ..fuse_variant(comp) }
    }

    fn setup(n: i32) -> (FArrayBox, FArrayBox, FArrayBox, IBox) {
        let cells = IBox::cube(n);
        let mut phi0 = FArrayBox::new(cells.grown(2), NCOMP);
        phi0.fill_synthetic(41);
        let mut expect = FArrayBox::new(cells, NCOMP);
        expect.fill_synthetic(42);
        let got = expect.clone();
        reference::update_box(&phi0, &mut expect, cells);
        (phi0, expect, got, cells)
    }

    #[test]
    fn cli_matches_reference_bitwise() {
        let (phi0, expect, mut got, cells) = setup(6);
        run_box(fuse_variant(CompLoop::Inside), &phi0, &mut got, cells, 1, &NoMem);
        assert!(got.bit_eq(&expect, cells));
    }

    #[test]
    fn clo_matches_reference_bitwise() {
        let (phi0, expect, mut got, cells) = setup(6);
        run_box(fuse_variant(CompLoop::Outside), &phi0, &mut got, cells, 1, &NoMem);
        assert!(got.bit_eq(&expect, cells));
    }

    #[test]
    fn non_cubic_box_matches() {
        let cells = IBox::new(IntVect::new(-1, 2, 0), IntVect::new(5, 4, 6));
        let mut phi0 = FArrayBox::new(cells.grown(2), NCOMP);
        phi0.fill_synthetic(9);
        let mut expect = FArrayBox::new(cells, NCOMP);
        reference::update_box(&phi0, &mut expect, cells);
        for comp in [CompLoop::Inside, CompLoop::Outside] {
            let mut got = FArrayBox::new(cells, NCOMP);
            run_box(fuse_variant(comp), &phi0, &mut got, cells, 1, &NoMem);
            assert!(got.bit_eq(&expect, cells), "{comp:?}");
        }
    }

    #[test]
    fn op_counts_identical_to_series() {
        // Fusion reorders but must not change the work (no recomputation).
        let (phi0, _, mut got, cells) = setup(5);
        for comp in [CompLoop::Inside, CompLoop::Outside] {
            let m = CountingMem::new();
            let mut g = got.clone();
            run_box(fuse_variant(comp), &phi0, &mut g, cells, 1, &m);
            assert_eq!(m.op_count(), pdesched_kernels::ops::exemplar_ops(cells), "{comp:?}");
        }
        let _ = &mut got;
    }

    #[test]
    fn fused_traffic_below_series() {
        // The whole point: far fewer temporary reads/writes than the
        // series schedule.
        let (phi0, _, _, cells) = setup(8);
        let ms = CountingMem::new();
        let mut a = FArrayBox::new(cells, NCOMP);
        run_box(series_variant(CompLoop::Inside), &phi0, &mut a, cells, 1, &ms);
        let mf = CountingMem::new();
        let mut b = FArrayBox::new(cells, NCOMP);
        run_box(fuse_variant(CompLoop::Inside), &phi0, &mut b, cells, 1, &mf);
        let (rs, ws, ..) = ms.snapshot();
        let (rf, wf, ..) = mf.snapshot();
        assert!(rf < rs, "fused reads {rf} !< series reads {rs}");
        assert!(wf < ws / 2, "fused writes {wf} !< half series writes {ws}");
    }

    #[test]
    fn storage_formulas() {
        let n = 6;
        let (phi0, _, mut got, cells) = setup(n);
        let s = run_box(fuse_variant(CompLoop::Inside), &phi0, &mut got, cells, 1, &NoMem);
        let n = n as usize;
        assert_eq!(s.flux_f64, NCOMP * (2 + n + n * n));
        assert_eq!(s.vel_f64, 0);
        let s2 = run_box(fuse_variant(CompLoop::Outside), &phi0, &mut got, cells, 1, &NoMem);
        assert_eq!(s2.flux_f64, 2 + n + n * n);
        assert_eq!(s2.vel_f64, 3 * (n + 1) * n * n);
    }
}
