//! Categories "Shift-Fuse with wavefront parallelism" and "Blocked
//! Wavefront" (Fig. 8a/8b): the fused schedule executed as wavefronts of
//! tiles over the dependence cone created by flux-carry reuse.
//!
//! Fusion makes cell `(x, y, z)` depend on its `x-1`, `y-1`, and `z-1`
//! predecessors through the carried face fluxes, so tiles can execute
//! concurrently only along the diagonals `tx + ty + tz = w`. Between
//! wavefronts a barrier publishes the *co-dimension flux caches*
//! (Table I: `2(3CN^2)`; one buffer suffices here because the barrier
//! orders the phases):
//!
//! * `xcache[(y, z)]` — the high-side x flux of the last cell processed
//!   in pencil `(y, z)`,
//! * `ycache[(x, z)]`, `zcache[(x, y)]` — likewise for y and z.
//!
//! A cell reads its low fluxes from the caches (or computes them directly
//! on the box's low boundary — the shift prologue) and writes its high
//! fluxes back. Within a wavefront no two tiles touch the same cache
//! rows: concurrent tiles differ in at least two tile coordinates, so
//! their `(y, z)`, `(x, z)`, and `(x, y)` shadows are disjoint.
//!
//! The per-iteration wavefront of the untiled Shift-Fuse `P < Box`
//! variant is the `tile = 1` special case. A hierarchical overlapped
//! tile runs this schedule serially over itself, lowered for the tile's
//! extent with the inner tile size (`Variant::tile_schedule`); the
//! directly computed low-boundary faces are then the outer tile's surface
//! recomputation.

use crate::fuse::clo_flux;
use crate::mem::Mem;
use crate::shared::{face_fluxes_all, face_interp_at, SharedFab};
use pdesched_kernels::point::accumulate;
use pdesched_kernels::{vel_comp, NCOMP};
use pdesched_mesh::{FArrayBox, IBox, IntVect};
use pdesched_par::UnsafeSlice;

/// Group the flattened tile ids of a tiling with per-axis tile counts
/// `counts` into wavefronts: group `w` holds the ids with
/// `tx + ty + tz == w` (ids ascending within each group, matching
/// `IBox::tiles` order). This is the one bounds helper every wavefront
/// lowering shares.
pub(crate) fn wavefront_id_groups(counts: IntVect) -> Vec<Vec<u32>> {
    let nw = (counts[0] + counts[1] + counts[2] - 2).max(1) as usize;
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); nw];
    for i in 0..counts[0] * counts[1] * counts[2] {
        let tx = i % counts[0];
        let ty = (i / counts[0]) % counts[1];
        let tz = i / (counts[0] * counts[1]);
        groups[(tx + ty + tz) as usize].push(i as u32);
    }
    groups
}

/// Number of tiles in each wavefront for an `n^3` box with tile size
/// `t` — the machine model's parallel-efficiency input.
pub fn wavefront_sizes(n: i32, tile: i32) -> Vec<usize> {
    wavefront_id_groups(IBox::cube(n).tile_counts(tile)).iter().map(Vec::len).collect()
}

/// Shared co-dimension flux caches.
pub(crate) struct Caches<'a> {
    pub(crate) x: UnsafeSlice<'a, f64>,
    pub(crate) y: UnsafeSlice<'a, f64>,
    pub(crate) z: UnsafeSlice<'a, f64>,
    /// Deterministic trace bases of the three caches (see
    /// `pdesched_mesh::trace_addr`).
    pub(crate) xbase: usize,
    pub(crate) ybase: usize,
    pub(crate) zbase: usize,
    pub(crate) lo: IntVect,
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    pub(crate) kc: usize,
}

impl<'a> Caches<'a> {
    #[inline(always)]
    fn xi(&self, iv: IntVect, c: usize) -> usize {
        let yr = (iv[1] - self.lo[1]) as usize;
        let zr = (iv[2] - self.lo[2]) as usize;
        (zr * self.ny + yr) * self.kc + c
    }
    #[inline(always)]
    fn yi(&self, iv: IntVect, c: usize) -> usize {
        let xr = (iv[0] - self.lo[0]) as usize;
        let zr = (iv[2] - self.lo[2]) as usize;
        (zr * self.nx + xr) * self.kc + c
    }
    #[inline(always)]
    fn zi(&self, iv: IntVect, c: usize) -> usize {
        let xr = (iv[0] - self.lo[0]) as usize;
        let yr = (iv[1] - self.lo[1]) as usize;
        (yr * self.nx + xr) * self.kc + c
    }
}

/// Fill a z-slab of one direction's velocity face array.
pub(crate) fn fill_velocity_slab<M: Mem>(
    phi0: &FArrayBox,
    vel: &SharedFab,
    faces: IBox,
    d: usize,
    zr: std::ops::Range<i32>,
    mem: &M,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let vc = vel_comp(d);
    for z in zr {
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                let f = IntVect::new(x, y, z);
                let v = face_interp_at(phi0, d, f, vc, mem);
                let i = vel.index(f, 0);
                mem.w(vel.addr(i));
                unsafe { vel.write(i, v) };
            }
        }
    }
}

/// Process one tile, CLI: all components per cell, low fluxes from the
/// shared caches.
pub(crate) fn tile_cli<M: Mem>(
    phi0: &FArrayBox,
    phi1: &SharedFab,
    cells: IBox,
    t: IBox,
    caches: &Caches<'_>,
    mem: &M,
) {
    let (lo, hi) = (t.lo(), t.hi());
    let blo = cells.lo();
    let (xbase, ybase, zbase) = (caches.xbase, caches.ybase, caches.zbase);
    // CLI caches store the NCOMP components of a cell contiguously, so
    // each cache read/write below is one unit-stride run.
    debug_assert_eq!(caches.kc, NCOMP);
    let mut flo = [0.0f64; NCOMP];
    let mut fhi = [0.0f64; NCOMP];
    for z in lo[2]..=hi[2] {
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                let iv = IntVect::new(x, y, z);
                let pi0 = phi1.index(iv, 0);
                let cstride = phi1.index(iv, 1) - pi0;
                // x direction
                if x == blo[0] {
                    face_fluxes_all(phi0, 0, iv, &mut flo, mem);
                } else {
                    let i0 = caches.xi(iv, 0);
                    mem.r_run(xbase + i0 * 8, NCOMP);
                    for (c, v) in flo.iter_mut().enumerate() {
                        *v = unsafe { caches.x.read(i0 + c) };
                    }
                }
                face_fluxes_all(phi0, 0, iv.shifted(0, 1), &mut fhi, mem);
                {
                    let i0 = caches.xi(iv, 0);
                    mem.w_run(xbase + i0 * 8, NCOMP);
                    for (c, v) in fhi.iter().enumerate() {
                        unsafe { caches.x.write(i0 + c, *v) };
                    }
                }
                accum_all(phi1, pi0, cstride, &flo, &fhi, mem);
                // y direction
                if y == blo[1] {
                    face_fluxes_all(phi0, 1, iv, &mut flo, mem);
                } else {
                    let i0 = caches.yi(iv, 0);
                    mem.r_run(ybase + i0 * 8, NCOMP);
                    for (c, v) in flo.iter_mut().enumerate() {
                        *v = unsafe { caches.y.read(i0 + c) };
                    }
                }
                face_fluxes_all(phi0, 1, iv.shifted(1, 1), &mut fhi, mem);
                {
                    let i0 = caches.yi(iv, 0);
                    mem.w_run(ybase + i0 * 8, NCOMP);
                    for (c, v) in fhi.iter().enumerate() {
                        unsafe { caches.y.write(i0 + c, *v) };
                    }
                }
                accum_all(phi1, pi0, cstride, &flo, &fhi, mem);
                // z direction
                if z == blo[2] {
                    face_fluxes_all(phi0, 2, iv, &mut flo, mem);
                } else {
                    let i0 = caches.zi(iv, 0);
                    mem.r_run(zbase + i0 * 8, NCOMP);
                    for (c, v) in flo.iter_mut().enumerate() {
                        *v = unsafe { caches.z.read(i0 + c) };
                    }
                }
                face_fluxes_all(phi0, 2, iv.shifted(2, 1), &mut fhi, mem);
                {
                    let i0 = caches.zi(iv, 0);
                    mem.w_run(zbase + i0 * 8, NCOMP);
                    for (c, v) in fhi.iter().enumerate() {
                        unsafe { caches.z.write(i0 + c, *v) };
                    }
                }
                accum_all(phi1, pi0, cstride, &flo, &fhi, mem);
            }
        }
    }
}

/// Accumulate one direction's flux difference into all components of a
/// cell.
#[inline(always)]
fn accum_all<M: Mem>(
    phi1: &SharedFab,
    pi0: usize,
    cstride: usize,
    flo: &[f64; NCOMP],
    fhi: &[f64; NCOMP],
    mem: &M,
) {
    for c in 0..NCOMP {
        let pi = pi0 + c * cstride;
        mem.r(phi1.addr(pi));
        mem.op_accum();
        let v = unsafe { accumulate(phi1.read(pi), flo[c], fhi[c]) };
        mem.w(phi1.addr(pi));
        unsafe { phi1.write(pi, v) };
    }
}

/// Process one tile, CLO: a single component `c`, scalar caches, shared
/// velocity arrays.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tile_clo<M: Mem>(
    phi0: &FArrayBox,
    phi1: &SharedFab,
    cells: IBox,
    t: IBox,
    c: usize,
    vels: &[SharedFab],
    caches: &Caches<'_>,
    mem: &M,
) {
    let (lo, hi) = (t.lo(), t.hi());
    let blo = cells.lo();
    let (xbase, ybase, zbase) = (caches.xbase, caches.ybase, caches.zbase);
    for z in lo[2]..=hi[2] {
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                let iv = IntVect::new(x, y, z);
                // x
                let fxlo = if x == blo[0] {
                    clo_flux(phi0, &vels[0], 0, iv, c, mem)
                } else {
                    let i = caches.xi(iv, 0);
                    mem.r(xbase + i * 8);
                    unsafe { caches.x.read(i) }
                };
                let fxhi = clo_flux(phi0, &vels[0], 0, iv.shifted(0, 1), c, mem);
                let i = caches.xi(iv, 0);
                mem.w(xbase + i * 8);
                unsafe { caches.x.write(i, fxhi) };
                // y
                let fylo = if y == blo[1] {
                    clo_flux(phi0, &vels[1], 1, iv, c, mem)
                } else {
                    let i = caches.yi(iv, 0);
                    mem.r(ybase + i * 8);
                    unsafe { caches.y.read(i) }
                };
                let fyhi = clo_flux(phi0, &vels[1], 1, iv.shifted(1, 1), c, mem);
                let i = caches.yi(iv, 0);
                mem.w(ybase + i * 8);
                unsafe { caches.y.write(i, fyhi) };
                // z
                let fzlo = if z == blo[2] {
                    clo_flux(phi0, &vels[2], 2, iv, c, mem)
                } else {
                    let i = caches.zi(iv, 0);
                    mem.r(zbase + i * 8);
                    unsafe { caches.z.read(i) }
                };
                let fzhi = clo_flux(phi0, &vels[2], 2, iv.shifted(2, 1), c, mem);
                let i = caches.zi(iv, 0);
                mem.w(zbase + i * 8);
                unsafe { caches.z.write(i, fzhi) };
                // Accumulate x, y, z.
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
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{CountingMem, NoMem};
    use crate::plan::ir::tile_box;
    use crate::variant::CompLoop;
    use pdesched_kernels::reference;

    fn setup(n: i32) -> (FArrayBox, FArrayBox, FArrayBox, IBox) {
        let cells = IBox::cube(n);
        let mut phi0 = FArrayBox::new(cells.grown(2), NCOMP);
        phi0.fill_synthetic(51);
        let mut expect = FArrayBox::new(cells, NCOMP);
        expect.fill_synthetic(52);
        let got = expect.clone();
        reference::update_box(&phi0, &mut expect, cells);
        (phi0, expect, got, cells)
    }

    #[test]
    fn groups_cover_all_tiles_once() {
        for (n, t) in [(8, 4), (10, 3), (6, 1), (9, 4)] {
            let cells = IBox::cube(n);
            let groups: Vec<Vec<IBox>> = wavefront_id_groups(cells.tile_counts(t))
                .iter()
                .map(|g| g.iter().map(|&id| tile_box(cells, t, id)).collect())
                .collect();
            let total: usize = groups.iter().flat_map(|g| g.iter()).map(|b| b.num_pts()).sum();
            assert_eq!(total, cells.num_pts(), "n={n} t={t}");
            // The decoded tiles are exactly `IBox::tiles`, each once.
            let mut seen: Vec<IBox> = groups.iter().flatten().copied().collect();
            let mut tiles = cells.tiles(t);
            seen.sort_by_key(|b| (b.lo()[2], b.lo()[1], b.lo()[0]));
            tiles.sort_by_key(|b| (b.lo()[2], b.lo()[1], b.lo()[0]));
            assert_eq!(seen, tiles, "n={n} t={t}");
            // Within a group, tiles are pairwise independent: they differ
            // in at least two tile coordinates.
            for g in &groups {
                for (i, a) in g.iter().enumerate() {
                    for b in &g[i + 1..] {
                        let same_y = a.lo()[1] == b.lo()[1];
                        let same_z = a.lo()[2] == b.lo()[2];
                        let same_x = a.lo()[0] == b.lo()[0];
                        let pairs = [same_x, same_y, same_z].iter().filter(|&&s| s).count();
                        assert!(pairs <= 1, "dependent tiles in one wavefront");
                    }
                }
            }
        }
    }

    #[test]
    fn wavefront_sizes_shape() {
        let sizes = wavefront_sizes(8, 4);
        assert_eq!(sizes, vec![1, 3, 3, 1]);
        let s16 = wavefront_sizes(16, 4);
        assert_eq!(s16.len(), 10);
        assert_eq!(s16.iter().sum::<usize>(), 64);
        assert_eq!(*s16.iter().max().unwrap(), 12);
    }

    /// A wavefront schedule as the plan interpreter runs it: tile = 1 is
    /// the untiled Shift-Fuse `P < Box` variant, larger tiles are the
    /// Blocked Wavefront category.
    fn wf_variant(comp: CompLoop, t: i32) -> crate::variant::Variant {
        use crate::variant::{Category, Granularity, IntraTile, Variant};
        if t == 1 {
            Variant {
                category: Category::ShiftFuse,
                gran: Granularity::WithinBox,
                comp,
                intra: IntraTile::Basic,
                tile: None,
            }
        } else {
            Variant::blocked_wavefront(comp, t)
        }
    }

    #[test]
    fn cli_matches_reference_serial_and_parallel() {
        for nt in [1, 2, 4] {
            for t in [1, 2, 4] {
                let (phi0, expect, mut got, cells) = setup(6);
                crate::exec::run_box(
                    wf_variant(CompLoop::Inside, t),
                    &phi0,
                    &mut got,
                    cells,
                    nt,
                    &NoMem,
                );
                assert!(got.bit_eq(&expect, cells), "nt={nt} t={t}");
            }
        }
    }

    #[test]
    fn clo_matches_reference_serial_and_parallel() {
        for nt in [1, 3] {
            for t in [2, 3] {
                let (phi0, expect, mut got, cells) = setup(7);
                crate::exec::run_box(
                    wf_variant(CompLoop::Outside, t),
                    &phi0,
                    &mut got,
                    cells,
                    nt,
                    &NoMem,
                );
                assert!(got.bit_eq(&expect, cells), "nt={nt} t={t}");
            }
        }
    }

    #[test]
    fn op_counts_identical_to_series() {
        let (phi0, _, mut got, cells) = setup(6);
        for comp in [CompLoop::Inside, CompLoop::Outside] {
            let m = CountingMem::new();
            let mut g = got.clone();
            crate::exec::run_box(wf_variant(comp, 2), &phi0, &mut g, cells, 2, &m);
            assert_eq!(m.op_count(), pdesched_kernels::ops::exemplar_ops(cells), "{comp:?}");
        }
        let _ = &mut got;
    }

    #[test]
    fn storage_is_co_dimension() {
        let n = 6;
        let (phi0, _, mut got, cells) = setup(n);
        let s = crate::exec::run_box(
            wf_variant(CompLoop::Inside, 2),
            &phi0,
            &mut got,
            cells,
            2,
            &NoMem,
        );
        let n = n as usize;
        assert_eq!(s.flux_f64, 3 * NCOMP * n * n);
        assert_eq!(s.vel_f64, 0);
        let s2 = crate::exec::run_box(
            wf_variant(CompLoop::Outside, 2),
            &phi0,
            &mut got,
            cells,
            2,
            &NoMem,
        );
        assert_eq!(s2.flux_f64, 3 * n * n);
        assert_eq!(s2.vel_f64, 3 * (n + 1) * n * n);
    }
}
