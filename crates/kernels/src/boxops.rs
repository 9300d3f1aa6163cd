//! Whole-box operators: the modular per-direction passes of Figure 6.
//!
//! These are the building blocks of the *series of loops* schedules and
//! of the intra-tile "Basic-Sched" used by overlapped tiling. Inner loops
//! run over `x` (unit stride) with direct slice indexing.

use crate::point::{accumulate, face_interp, flux_mul};
use crate::vel_comp;
use pdesched_mesh::{FArrayBox, IBox, IntVect};

/// `EvalFlux1` over a face box: for every face `f` in `faces` (a
/// `Centering::Face(d)` box) and every component in `comps`, write the
/// 4th-order interpolant of `phi` into `out`.
///
/// `phi` must cover `faces` grown by 2 cells in direction `d` on the low
/// side and 1 on the high side (i.e. the usual 2-ghost box).
pub fn eval_flux1(
    phi: &FArrayBox,
    d: usize,
    faces: IBox,
    out: &mut FArrayBox,
    comps: std::ops::Range<usize>,
) {
    let lo = faces.lo();
    let hi = faces.hi();
    if faces.is_empty() {
        return;
    }
    let stride = match d {
        0 => 1,
        1 => phi.y_stride(),
        _ => phi.z_stride(),
    };
    let nfx = (hi[0] - lo[0] + 1) as usize;
    for c in comps {
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                let mut src = phi.index(IntVect::new(lo[0], y, z), c);
                let dst = out.index(IntVect::new(lo[0], y, z), c);
                let pd = phi.data();
                // Face f reads cells f-2, f-1, f, f+1 along d. Borrow the
                // destination row once so the inner loop is a single
                // bounds-checked slice walk.
                for o in out.data_mut()[dst..dst + nfx].iter_mut() {
                    *o = face_interp(
                        pd[src - 2 * stride],
                        pd[src - stride],
                        pd[src],
                        pd[src + stride],
                    );
                    src += 1;
                }
            }
        }
    }
}

/// `EvalFlux2` over a face box with an explicit velocity array
/// (single-component, same face box): `flux[c] *= vel` for `c` in
/// `comps`.
pub fn eval_flux2(
    flux: &mut FArrayBox,
    vel: &FArrayBox,
    faces: IBox,
    comps: std::ops::Range<usize>,
) {
    if faces.is_empty() {
        return;
    }
    let lo = faces.lo();
    let hi = faces.hi();
    let nfx = (hi[0] - lo[0] + 1) as usize;
    for c in comps {
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                let fi = flux.index(IntVect::new(lo[0], y, z), c);
                let vi = vel.index(IntVect::new(lo[0], y, z), 0);
                let vd = &vel.data()[vi..vi + nfx];
                for (f, &v) in flux.data_mut()[fi..fi + nfx].iter_mut().zip(vd) {
                    *f = flux_mul(*f, v);
                }
            }
        }
    }
}

/// Copy the velocity component `d+1` of `flux` over `faces` into the
/// single-component array `vel` (the paper's `velocity =
/// flux[component dir+1]`, which costs the `(N+1)^3` velocity temporary
/// of Table I).
pub fn extract_velocity(flux: &FArrayBox, d: usize, faces: IBox, vel: &mut FArrayBox) {
    if faces.is_empty() {
        return;
    }
    let vc = vel_comp(d);
    let lo = faces.lo();
    let hi = faces.hi();
    let nfx = (hi[0] - lo[0] + 1) as usize;
    for z in lo[2]..=hi[2] {
        for y in lo[1]..=hi[1] {
            let si = flux.index(IntVect::new(lo[0], y, z), vc);
            let di = vel.index(IntVect::new(lo[0], y, z), 0);
            vel.data_mut()[di..di + nfx].copy_from_slice(&flux.data()[si..si + nfx]);
        }
    }
}

/// Divergence accumulation over a cell box: for each cell `i` and
/// component `c` in `comps`,
/// `phi1[i, c] += flux[i + e^d, c] - flux[i, c]`.
pub fn accumulate_dir(
    phi1: &mut FArrayBox,
    flux: &FArrayBox,
    d: usize,
    cells: IBox,
    comps: std::ops::Range<usize>,
) {
    if cells.is_empty() {
        return;
    }
    let lo = cells.lo();
    let hi = cells.hi();
    let nfx = (hi[0] - lo[0] + 1) as usize;
    let stride = match d {
        0 => 1,
        1 => flux.y_stride(),
        _ => flux.z_stride(),
    };
    for c in comps {
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                let pi = phi1.index(IntVect::new(lo[0], y, z), c);
                let fi = flux.index(IntVect::new(lo[0], y, z), c);
                let fd = flux.data();
                for (i, p) in phi1.data_mut()[pi..pi + nfx].iter_mut().enumerate() {
                    *p = accumulate(*p, fd[fi + i], fd[fi + i + stride]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NCOMP;
    use pdesched_mesh::{FArrayBox, IBox, IntVect};

    fn phi_with_ghosts(n: i32, seed: u64) -> FArrayBox {
        let mut f = FArrayBox::new(IBox::cube(n).grown(crate::GHOST), NCOMP);
        f.fill_synthetic(seed);
        f
    }

    #[test]
    fn flux1_matches_pointwise() {
        let n = 6;
        let phi = phi_with_ghosts(n, 11);
        for d in 0..3 {
            let faces = IBox::cube(n).surrounding_faces(d);
            let mut out = FArrayBox::new(faces, NCOMP);
            eval_flux1(&phi, d, faces, &mut out, 0..NCOMP);
            let e = IntVect::basis(d);
            for c in 0..NCOMP {
                for f in faces.iter() {
                    let expect = face_interp(
                        phi.at(f - e * 2, c),
                        phi.at(f - e, c),
                        phi.at(f, c),
                        phi.at(f + e, c),
                    );
                    assert_eq!(out.at(f, c).to_bits(), expect.to_bits(), "d={d} f={f:?} c={c}");
                }
            }
        }
    }

    #[test]
    fn accumulate_dir_matches_pointwise() {
        let n = 4;
        let cells = IBox::cube(n);
        for d in 0..3 {
            let faces = cells.surrounding_faces(d);
            let mut flux = FArrayBox::new(faces, NCOMP);
            flux.fill_synthetic(5);
            let mut phi1 = FArrayBox::new(cells, NCOMP);
            phi1.fill_synthetic(6);
            let check = phi1.clone();
            accumulate_dir(&mut phi1, &flux, d, cells, 0..NCOMP);
            let e = IntVect::basis(d);
            for c in 0..NCOMP {
                for iv in cells.iter() {
                    let expect = accumulate(check.at(iv, c), flux.at(iv, c), flux.at(iv + e, c));
                    assert_eq!(phi1.at(iv, c).to_bits(), expect.to_bits());
                }
            }
        }
    }

    #[test]
    fn accumulate_conserves_total() {
        // Over the full box the divergence telescopes: the total change
        // in phi1 equals the sum over the hi-boundary fluxes minus lo.
        let n = 4;
        let cells = IBox::cube(n);
        let d = 1;
        let faces = cells.surrounding_faces(d);
        let mut flux = FArrayBox::new(faces, NCOMP);
        flux.fill_synthetic(9);
        let mut phi1 = FArrayBox::new(cells, NCOMP);
        accumulate_dir(&mut phi1, &flux, d, cells, 0..NCOMP);
        for c in 0..NCOMP {
            let total = phi1.sum_comp(c, cells);
            let mut boundary = 0.0;
            for f in faces.iter() {
                if f[d] == faces.hi()[d] {
                    boundary += flux.at(f, c);
                } else if f[d] == faces.lo()[d] {
                    boundary -= flux.at(f, c);
                }
            }
            assert!((total - boundary).abs() < 1e-12 * boundary.abs().max(1.0));
        }
    }

    #[test]
    fn subrange_of_components() {
        let n = 4;
        let phi = phi_with_ghosts(n, 2);
        let faces = IBox::cube(n).surrounding_faces(0);
        let mut out = FArrayBox::new(faces, NCOMP);
        eval_flux1(&phi, 0, faces, &mut out, 2..3);
        // Only component 2 written.
        for c in 0..NCOMP {
            let any_nonzero = faces.iter().any(|f| out.at(f, c) != 0.0);
            assert_eq!(any_nonzero, c == 2, "c={c}");
        }
    }
}
