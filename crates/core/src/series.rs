//! Category "Series of Loops": the original modular schedule (Fig. 7).
//!
//! Per direction, three full sweeps over the box: face interpolation into
//! a whole-box flux temporary, the flux product (with the velocity either
//! copied to its own temporary — CLO — or read per face — CLI), then the
//! divergence accumulation. Input and output data are therefore read and
//! written three times per update, and the flux temporary costs
//! `C(N+1)^3` values (Table I row 1).
//!
//! The passes below are the steps of the plan's series regions. A
//! Basic-Sched overlapped tile is one more box to them: it runs the same
//! series plan, lowered for the tile's extent (`Variant::tile_schedule`).

use crate::mem::Mem;
use crate::shared::{face_interp_at, SharedFab};
use crate::variant::CompLoop;
use pdesched_kernels::point::{accumulate, flux_mul};
use pdesched_kernels::{vel_comp, NCOMP};
use pdesched_mesh::{FArrayBox, IBox, IntVect};

/// Face-interpolation pass: `flux[f, c] = interp(phi0)` for `c` in
/// `comps` and faces with `z` in `zr` (CLO: component loop outermost).
pub(crate) fn pass_flux1<M: Mem>(
    phi0: &FArrayBox,
    flux: &SharedFab,
    faces: IBox,
    comps: std::ops::Range<usize>,
    zr: std::ops::Range<i32>,
    mem: &M,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let d = match faces.centering() {
        pdesched_mesh::Centering::Face(d) => d,
        _ => unreachable!("flux pass over non-face box"),
    };
    for c in comps {
        for z in zr.clone() {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    let f = IntVect::new(x, y, z);
                    let v = face_interp_at(phi0, d, f, c, mem);
                    let i = flux.index(f, c);
                    mem.w(flux.addr(i));
                    unsafe { flux.write(i, v) };
                }
            }
        }
    }
}

/// Same pass with the component loop innermost (CLI).
pub(crate) fn pass_flux1_cli<M: Mem>(
    phi0: &FArrayBox,
    flux: &SharedFab,
    faces: IBox,
    zr: std::ops::Range<i32>,
    mem: &M,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let d = match faces.centering() {
        pdesched_mesh::Centering::Face(d) => d,
        _ => unreachable!(),
    };
    for z in zr {
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                let f = IntVect::new(x, y, z);
                for c in 0..NCOMP {
                    let v = face_interp_at(phi0, d, f, c, mem);
                    let i = flux.index(f, c);
                    mem.w(flux.addr(i));
                    unsafe { flux.write(i, v) };
                }
            }
        }
    }
}

/// `velocity = flux[component d+1]` (Fig. 6 line 11): the `(N+1)^3`
/// velocity temporary of Table I.
pub(crate) fn pass_extract_velocity<M: Mem>(
    flux: &SharedFab,
    vel: &SharedFab,
    d: usize,
    faces: IBox,
    zr: std::ops::Range<i32>,
    mem: &M,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let vc = vel_comp(d);
    for z in zr {
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                let f = IntVect::new(x, y, z);
                let si = flux.index(f, vc);
                mem.r(flux.addr(si));
                let v = unsafe { flux.read(si) };
                let di = vel.index(f, 0);
                mem.w(vel.addr(di));
                unsafe { vel.write(di, v) };
            }
        }
    }
}

/// Flux product with an explicit velocity temporary (CLO).
pub(crate) fn pass_flux2_clo<M: Mem>(
    flux: &SharedFab,
    vel: &SharedFab,
    faces: IBox,
    comps: std::ops::Range<usize>,
    zr: std::ops::Range<i32>,
    mem: &M,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    for c in comps {
        for z in zr.clone() {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    let f = IntVect::new(x, y, z);
                    let fi = flux.index(f, c);
                    let vi = vel.index(f, 0);
                    mem.r(flux.addr(fi));
                    mem.r(vel.addr(vi));
                    mem.op_flux();
                    let v = unsafe { flux_mul(flux.read(fi), vel.read(vi)) };
                    mem.w(flux.addr(fi));
                    unsafe { flux.write(fi, v) };
                }
            }
        }
    }
}

/// Flux product reading the velocity per face into a register (CLI — no
/// velocity temporary).
pub(crate) fn pass_flux2_cli<M: Mem>(
    flux: &SharedFab,
    d: usize,
    faces: IBox,
    zr: std::ops::Range<i32>,
    mem: &M,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let vc = vel_comp(d);
    for z in zr {
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                let f = IntVect::new(x, y, z);
                let vi = flux.index(f, vc);
                mem.r(flux.addr(vi));
                let vel = unsafe { flux.read(vi) };
                // Multiply the velocity component last so its own flux
                // uses the un-multiplied value.
                for c in (0..NCOMP).filter(|&c| c != vc).chain(std::iter::once(vc)) {
                    let fi = flux.index(f, c);
                    mem.r(flux.addr(fi));
                    mem.op_flux();
                    let v = unsafe { flux_mul(flux.read(fi), vel) };
                    mem.w(flux.addr(fi));
                    unsafe { flux.write(fi, v) };
                }
            }
        }
    }
}

/// Divergence accumulation: `phi1[i, c] += flux[i + e^d, c] - flux[i, c]`
/// for cells with `z` in `zr`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pass_accumulate<M: Mem>(
    phi1: &SharedFab,
    flux: &SharedFab,
    cells: IBox,
    d: usize,
    comps: std::ops::Range<usize>,
    zr: std::ops::Range<i32>,
    comp: CompLoop,
    mem: &M,
) {
    let (lo, hi) = (cells.lo(), cells.hi());
    let e = IntVect::basis(d);
    let flux_unit = flux.stride(d) == 1;
    let do_cell = |iv: IntVect, c: usize| {
        let flo = flux.index(iv, c);
        let fhi = flux.index(iv + e, c);
        let pi = phi1.index(iv, c);
        if flux_unit {
            // d == 0: the low/high face fluxes are adjacent in x.
            mem.r_run(flux.addr(flo), 2);
        } else {
            mem.r(flux.addr(flo));
            mem.r(flux.addr(fhi));
        }
        mem.r(phi1.addr(pi));
        mem.op_accum();
        let v = unsafe { accumulate(phi1.read(pi), flux.read(flo), flux.read(fhi)) };
        mem.w(phi1.addr(pi));
        unsafe { phi1.write(pi, v) };
    };
    match comp {
        CompLoop::Outside => {
            for c in comps {
                for z in zr.clone() {
                    for y in lo[1]..=hi[1] {
                        for x in lo[0]..=hi[0] {
                            do_cell(IntVect::new(x, y, z), c);
                        }
                    }
                }
            }
        }
        CompLoop::Inside => {
            for z in zr {
                for y in lo[1]..=hi[1] {
                    for x in lo[0]..=hi[0] {
                        for c in comps.clone() {
                            do_cell(IntVect::new(x, y, z), c);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_box;
    use crate::mem::{CountingMem, NoMem};
    use crate::variant::{Category, Granularity, IntraTile, Variant};
    use pdesched_kernels::reference;

    fn series_variant(comp: CompLoop, gran: Granularity) -> Variant {
        Variant { category: Category::Series, gran, comp, intra: IntraTile::Basic, tile: None }
    }

    fn setup(n: i32) -> (FArrayBox, FArrayBox, FArrayBox, IBox) {
        let cells = IBox::cube(n);
        let mut phi0 = FArrayBox::new(cells.grown(2), NCOMP);
        phi0.fill_synthetic(31);
        let mut expect = FArrayBox::new(cells, NCOMP);
        expect.fill_synthetic(32);
        let got = expect.clone();
        reference::update_box(&phi0, &mut expect, cells);
        (phi0, expect, got, cells)
    }

    #[test]
    fn clo_serial_matches_reference() {
        let (phi0, expect, mut got, cells) = setup(6);
        run_box(
            series_variant(CompLoop::Outside, Granularity::OverBoxes),
            &phi0,
            &mut got,
            cells,
            1,
            &NoMem,
        );
        assert!(got.bit_eq(&expect, cells));
    }

    #[test]
    fn cli_serial_matches_reference() {
        let (phi0, expect, mut got, cells) = setup(6);
        run_box(
            series_variant(CompLoop::Inside, Granularity::OverBoxes),
            &phi0,
            &mut got,
            cells,
            1,
            &NoMem,
        );
        assert!(got.bit_eq(&expect, cells));
    }

    #[test]
    fn within_box_matches_reference_any_thread_count() {
        for comp in [CompLoop::Outside, CompLoop::Inside] {
            for nt in [1, 2, 3, 5, 8] {
                let (phi0, expect, mut got, cells) = setup(7);
                run_box(
                    series_variant(comp, Granularity::WithinBox),
                    &phi0,
                    &mut got,
                    cells,
                    nt,
                    &NoMem,
                );
                assert!(got.bit_eq(&expect, cells), "comp={comp:?} nt={nt}");
            }
        }
    }

    #[test]
    fn op_counts_match_analytic() {
        let (phi0, _, mut got, cells) = setup(5);
        let m = CountingMem::new();
        run_box(
            series_variant(CompLoop::Outside, Granularity::OverBoxes),
            &phi0,
            &mut got,
            cells,
            1,
            &m,
        );
        assert_eq!(m.op_count(), pdesched_kernels::ops::exemplar_ops(cells));
        // CLI performs the identical operation counts.
        let m2 = CountingMem::new();
        let mut got2 = FArrayBox::new(cells, NCOMP);
        run_box(
            series_variant(CompLoop::Inside, Granularity::OverBoxes),
            &phi0,
            &mut got2,
            cells,
            1,
            &m2,
        );
        assert_eq!(m2.op_count(), pdesched_kernels::ops::exemplar_ops(cells));
    }

    #[test]
    fn storage_peak_series() {
        let (phi0, _, mut got, cells) = setup(6);
        let s = run_box(
            series_variant(CompLoop::Outside, Granularity::OverBoxes),
            &phi0,
            &mut got,
            cells,
            1,
            &NoMem,
        );
        // Flux: C * (N+1)*N^2, velocity: (N+1)*N^2 (shape identical for
        // all directions; buffers are reused).
        assert_eq!(s.flux_f64, NCOMP * 7 * 36);
        assert_eq!(s.vel_f64, 7 * 36);
        let s2 = run_box(
            series_variant(CompLoop::Inside, Granularity::OverBoxes),
            &phi0,
            &mut got,
            cells,
            1,
            &NoMem,
        );
        assert_eq!(s2.vel_f64, 0);
    }

    #[test]
    fn cli_reads_fewer_temp_values_than_clo() {
        // CLI skips the velocity copy; its total traffic must be lower.
        let (phi0, _, mut a, cells) = setup(5);
        let mc = CountingMem::new();
        run_box(
            series_variant(CompLoop::Outside, Granularity::OverBoxes),
            &phi0,
            &mut a,
            cells,
            1,
            &mc,
        );
        let mi = CountingMem::new();
        let mut b = FArrayBox::new(cells, NCOMP);
        run_box(
            series_variant(CompLoop::Inside, Granularity::OverBoxes),
            &phi0,
            &mut b,
            cells,
            1,
            &mi,
        );
        let (rc, wc, ..) = mc.snapshot();
        let (ri, wi, ..) = mi.snapshot();
        assert!(ri < rc, "CLI reads {ri} !< CLO reads {rc}");
        assert!(wi < wc, "CLI writes {wi} !< CLO writes {wc}");
    }
}
