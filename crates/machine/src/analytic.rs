//! A closed-form DRAM-traffic model, cross-validated against the cache
//! simulator.
//!
//! The simulator is ground truth but costs seconds per 128^3 box; this
//! model captures the same two-regime structure in closed form:
//!
//! * **Resident regime** — the schedule's working set fits the
//!   effective cache: traffic is compulsory (`phi0` in, `phi1` in+out)
//!   plus the amortized cold/writeback cost of the temporaries.
//! * **Streaming regime** — the working set overflows: each pass of the
//!   schedule streams its operands, so traffic multiplies by the number
//!   of passes over each array and temporaries spill.
//!
//! Tests assert agreement with the simulator within a factor band on a
//! matrix of (variant, box size, cache size); the figure pipeline uses
//! the simulator, and this model serves fast what-if sweeps
//! ([`crate::model::predict_time_analytic`]).

use pdesched_core::{Category, CompLoop, IntraTile, Variant};
use pdesched_kernels::{GHOST, NCOMP};

const W: u64 = 8;

/// Array volumes (bytes) for an `n^3` box.
struct Volumes {
    /// `phi0` including ghosts.
    phi0: u64,
    /// `phi1` valid region.
    phi1: u64,
    /// One direction's all-component face array.
    flux: u64,
    /// One direction's single-component face array.
    vel: u64,
}

fn volumes(n: i32) -> Volumes {
    debug_assert!(n > 0, "analytic model needs a positive box size, got n={n}");
    let n = n as u64;
    let g = GHOST as u64;
    let c = NCOMP as u64;
    Volumes {
        phi0: (n + 2 * g).pow(3) * c * W,
        phi1: n.pow(3) * c * W,
        flux: (n + 1) * n * n * c * W,
        vel: (n + 1) * n * n * W,
    }
}

/// The minimum (compulsory) traffic of one box update.
pub fn compulsory(n: i32) -> u64 {
    let v = volumes(n);
    v.phi0 + 2 * v.phi1
}

/// Temporary (scratch) bytes the schedule keeps live: the expected
/// storage model's total, in bytes. Both the working-set and the
/// overlapped-tile traffic terms use exactly this expression; keep it in
/// one place so the two cannot drift apart again.
fn temps_bytes(variant: Variant, n: i32) -> u64 {
    debug_assert!(n > 0, "analytic model needs a positive box size, got n={n}");
    pdesched_core::storage::expected(variant, n, 1).total_f64() as u64 * W
}

/// The schedule's working set in bytes (what must stay cached for the
/// resident regime).
pub fn working_set(variant: Variant, n: i32) -> u64 {
    debug_assert!(n > 0, "analytic model needs a positive box size, got n={n}");
    let v = volumes(n);
    let temps = temps_bytes(variant, n);
    match variant.category {
        // The series schedule needs phi0, phi1, the flux array and the
        // velocity live at once.
        Category::Series => v.phi0 + v.phi1 + temps,
        // Fused schedules stream phi0/phi1 once; reuse lives in the
        // small carry caches — but face stencils in y and z still reuse
        // phi0 across O(n^2) planes, so a few planes of phi0 plus the
        // temporaries must fit.
        Category::ShiftFuse | Category::BlockedWavefront => {
            let plane = v.phi0 / (n as u64 + 2 * GHOST as u64);
            6 * plane + temps
        }
        Category::OverlappedTile => {
            let t = variant.tile_size() as u64;
            let tile_phi0 = (t + 2 * GHOST as u64).pow(3) * NCOMP as u64 * W;
            tile_phi0 + temps
        }
    }
}

/// Closed-form per-box DRAM traffic through an effective cache of
/// `cache_bytes`.
pub fn analytic_box_traffic(variant: Variant, n: i32, cache_bytes: u64) -> u64 {
    let v = volumes(n);
    let ws = working_set(variant, n);
    let resident = ws <= cache_bytes;
    match variant.category {
        Category::Series => {
            if resident {
                // Compulsory plus one cold+writeback round of the
                // temporaries.
                compulsory(n) + v.flux + v.vel
            } else {
                // Per direction: flux1 reads phi0 and allocates+writes
                // flux; the velocity extract and flux2 re-stream flux
                // and vel; accumulation re-streams flux and phi1.
                let clo_vel = match variant.comp {
                    CompLoop::Outside => 3 * v.vel,
                    CompLoop::Inside => 0,
                };
                3 * (v.phi0 + 4 * v.flux + v.phi1 * 2) + clo_vel
            }
        }
        Category::ShiftFuse | Category::BlockedWavefront => {
            match variant.comp {
                // CLI: one fused sweep, minimal carry state — traffic is
                // essentially compulsory in both regimes.
                CompLoop::Inside => compulsory(n),
                // CLO: the velocity fill reads one component of phi0 per
                // direction and writes the three face arrays; each of
                // the five component sweeps then reads its phi0
                // component (with plane reuse) and the three velocity
                // arrays. When the velocity arrays stay cached they are
                // written+read once; otherwise they stream per
                // component.
                CompLoop::Outside => {
                    if resident {
                        compulsory(n) + 6 * v.vel
                    } else {
                        let vel_traffic = if 3 * v.vel <= cache_bytes {
                            6 * v.vel
                        } else {
                            3 * v.vel * (NCOMP as u64 + 2)
                        };
                        2 * v.phi0 + 2 * v.phi1 + vel_traffic
                    }
                }
            }
        }
        Category::OverlappedTile => {
            let t = variant.tile_size();
            let temps = temps_bytes(variant, n);
            let box_ws = v.phi0 + v.phi1 + temps;
            if box_ws <= cache_bytes {
                return compulsory(n) + temps;
            }
            // Each tile reads its phi0 halo: the overlap re-reads shared
            // surfaces; per-tile working sets normally stay cached, so
            // the intra-tile passes multiply traffic only when even the
            // tile halo overflows.
            let tiles = (n as u64).div_ceil(t as u64).pow(3);
            let tile_halo = ((t + 2 * GHOST) as u64).pow(3) * NCOMP as u64 * W;
            let phi0_traffic = (tile_halo * tiles).max(v.phi0);
            let passes: u64 =
                if variant.intra == IntraTile::Basic && ws > cache_bytes { 3 } else { 1 };
            phi0_traffic * passes + 2 * v.phi1
        }
    }
}

/// The bytes of `phi0` shared between two adjacent `n^3` boxes: the
/// `2·GHOST`-thick slab both boxes' stencils read. This is what
/// cross-box phase fusion can save (once per pair) by revisiting the
/// neighbor's halo at chunk distance instead of a whole box later.
pub fn shared_halo_bytes(n: i32) -> u64 {
    let span = n as u64 + 2 * GHOST as u64;
    2 * GHOST as u64 * span * span * NCOMP as u64 * W
}

/// Closed-form **per-box** traffic of the two-box pair workload
/// ([`crate::traffic::Boxes::Pair`]) through an effective cache
/// of `cache_bytes`. `interleaved` models the `cross-box-fuse` pass with
/// chunk depth `chunk` (rows of z per visit); `chunk = 0` or
/// `interleaved = false` is plain sequential execution, which equals
/// [`analytic_box_traffic`] — the halo is fetched once per box.
///
/// The interleaving saves (up to) the shared halo's second fetch: the
/// pair's reuse distance for a halo line drops from one whole box sweep
/// to roughly two chunks of working set, so the saving applies when the
/// chunked slice of both boxes' working sets fits the cache *and* the
/// sequential sweep would have evicted the halo (working set over
/// capacity). Like the rest of this model it ranks candidates; the
/// simulator confirms.
pub fn analytic_pair_traffic(
    variant: Variant,
    n: i32,
    cache_bytes: u64,
    interleaved: bool,
    chunk: i32,
) -> u64 {
    let per_box = analytic_box_traffic(variant, n, cache_bytes);
    if !interleaved || chunk < 1 {
        return per_box;
    }
    // Reuse-distance proxy for a halo line between its two uses:
    // sequentially, everything one box streams (`per_box` bytes);
    // interleaved, two boxes' shares of one chunk. Streamed volume, not
    // resident working set — a fused sweep's working set is a few
    // planes, but its full phi0/phi1 stream still flushes the halo.
    let slices = (n as u64).div_ceil(chunk.max(1) as u64).max(1);
    let chunk_stream = 2 * (per_box / slices).max(1);
    let saves = per_box > cache_bytes && chunk_stream <= cache_bytes;
    if saves {
        // Halved: the halo is shared by the pair, so each box's share of
        // the saving is half of it.
        per_box.saturating_sub(shared_halo_bytes(n) / 2)
    } else {
        per_box
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::measure_box_traffic;
    use pdesched_cachesim::CacheConfig;
    use pdesched_core::Granularity;

    fn hierarchy(llc: usize) -> Vec<CacheConfig> {
        vec![CacheConfig::new(16 * 1024, 8), CacheConfig::new(llc, 16)]
    }

    /// The analytic model must agree with the simulator within a band
    /// across schedules, sizes, and cache capacities.
    #[test]
    fn analytic_within_band_of_simulated() {
        let variants = [
            Variant::baseline(),
            Variant { comp: CompLoop::Inside, ..Variant::baseline() },
            Variant::shift_fuse(),
            Variant { comp: CompLoop::Inside, ..Variant::shift_fuse() },
            Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox),
            Variant::overlapped(IntraTile::Basic, 4, Granularity::WithinBox),
        ];
        for n in [12, 16, 24] {
            for llc in [64 * 1024, 1024 * 1024, 32 * 1024 * 1024] {
                for v in variants {
                    let sim = measure_box_traffic(v, n, &hierarchy(llc)).dram_bytes;
                    let ana = analytic_box_traffic(v, n, llc as u64);
                    let ratio = ana as f64 / sim as f64;
                    assert!(
                        (0.3..=3.0).contains(&ratio),
                        "{v} n={n} llc={llc}: analytic {ana} vs sim {sim} (ratio {ratio:.2})"
                    );
                }
            }
        }
    }

    #[test]
    fn analytic_ordering_matches_paper() {
        // In the streaming regime: fused < series; OT phi0 overhead grows
        // as tiles shrink.
        let n = 32;
        let tight = 256 * 1024;
        let series = analytic_box_traffic(Variant::baseline(), n, tight);
        let fused = analytic_box_traffic(
            Variant { comp: CompLoop::Inside, ..Variant::shift_fuse() },
            n,
            tight,
        );
        assert!(fused < series);
        let ot8 = analytic_box_traffic(
            Variant::overlapped(IntraTile::ShiftFuse, 8, Granularity::WithinBox),
            n,
            tight,
        );
        let ot4 = analytic_box_traffic(
            Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox),
            n,
            tight,
        );
        assert!(ot4 > ot8, "smaller tiles re-read more halo");
    }

    #[test]
    fn everything_bounded_below_by_compulsory() {
        for v in Variant::enumerate(16) {
            let t = analytic_box_traffic(v, 16, 1 << 30);
            assert!(t >= compulsory(16), "{v}");
        }
    }

    /// The hoisted `temps_bytes` helper must keep the two former call
    /// sites (working-set term and overlapped-tile traffic term) on the
    /// same expression.
    #[test]
    fn temps_helper_matches_storage_model() {
        for n in [8, 16, 32] {
            for v in Variant::enumerate(n) {
                let expected =
                    pdesched_core::storage::expected(v, n, 1).total_f64() as u64 * super::W;
                assert_eq!(super::temps_bytes(v, n), expected, "{v} n={n}");
            }
        }
    }

    /// Nonpositive box sizes used to wrap silently through the
    /// `i32 -> u64` cast; they must now trip the debug assertion.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "positive box size")]
    fn working_set_rejects_nonpositive_n() {
        working_set(Variant::baseline(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "positive box size")]
    fn volumes_reject_negative_n() {
        super::volumes(-4);
    }

    #[test]
    fn pair_model_discounts_shared_halo_when_interleaved() {
        let n = 32;
        let v = Variant { comp: CompLoop::Inside, ..Variant::shift_fuse() };
        let cache = 1536 * 1024;
        // Sequential pair: each box pays its own full traffic.
        let seq = analytic_pair_traffic(v, n, cache, false, 0);
        assert_eq!(seq, analytic_box_traffic(v, n, cache));
        // Interleaved at a chunk whose stream fits: half the shared halo
        // comes off each box.
        let fused = analytic_pair_traffic(v, n, cache, true, 4);
        assert_eq!(fused, seq - shared_halo_bytes(n) / 2);
        // When one box already fits in cache, sequential execution never
        // evicts the halo and interleaving has nothing to save.
        let big = 64 * 1024 * 1024;
        assert_eq!(analytic_pair_traffic(v, n, big, true, 4), analytic_box_traffic(v, n, big));
    }

    #[test]
    fn working_set_scales_with_category() {
        let n = 64;
        let series = working_set(Variant::baseline(), n);
        let fused = working_set(Variant { comp: CompLoop::Inside, ..Variant::shift_fuse() }, n);
        let ot =
            working_set(Variant::overlapped(IntraTile::ShiftFuse, 8, Granularity::WithinBox), n);
        assert!(fused < series / 4, "fused ws {fused} vs series {series}");
        assert!(ot < fused, "ot ws {ot} vs fused {fused}");
    }
}
