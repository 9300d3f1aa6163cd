//! Golden traffic values: pins `measure_box_traffic` output bit-for-bit
//! for a grid of (variant, box size, hierarchy) points.
//!
//! These numbers were captured from the per-element path before the run
//! fast path existed and have been stable across every simulator
//! rewrite since (the measurement is a pure function of its inputs).
//! Any change here means the simulated traffic changed — which either
//! invalidates every figure the `repro` binary regenerates, or requires
//! a `STORE_VERSION` bump plus an explicit explanation in the PR that
//! touches this file. Hit ratios are compared as exact f64 bit
//! patterns, not with a tolerance: the simulator is deterministic and
//! the fast path is bit-identical by construction.

use pdesched_cachesim::CacheConfig;
use pdesched_core::{CompLoop, Granularity, IntraTile, Variant};
use pdesched_machine::traffic::measure_box_traffic;

/// An undersized desktop-like hierarchy (8 KiB 4-way L1, 64 KiB 8-way
/// LLC) that keeps every variant's working set spilling — maximally
/// sensitive to replacement-order bugs.
fn small() -> Vec<CacheConfig> {
    vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
}

/// A realistic two-level hierarchy (32 KiB 8-way L1, 16 MiB 16-way
/// LLC), the shape the paper's bandwidth model uses.
fn big() -> Vec<CacheConfig> {
    vec![CacheConfig::new(32 * 1024, 8), CacheConfig::new(16 * 1024 * 1024, 16)]
}

struct Golden {
    name: &'static str,
    variant: Variant,
    n: i32,
    dram_bytes: u64,
    reads: u64,
    writes: u64,
    /// `f64::to_bits` of the L1 / last-level hit ratios.
    l1_bits: u64,
    llc_bits: u64,
}

fn check(hierarchy: &[CacheConfig], goldens: &[Golden]) {
    for g in goldens {
        let t = measure_box_traffic(g.variant, g.n, hierarchy);
        assert_eq!(
            (t.dram_bytes, t.reads, t.writes),
            (g.dram_bytes, g.reads, g.writes),
            "{} n={}: traffic counts drifted (got {t:?})",
            g.name,
            g.n
        );
        assert_eq!(
            (t.l1_hit.to_bits(), t.llc_hit.to_bits()),
            (g.l1_bits, g.llc_bits),
            "{} n={}: hit ratios drifted (got l1={:e} llc={:e})",
            g.name,
            g.n,
            t.l1_hit,
            t.llc_hit
        );
    }
}

fn series_cli() -> Variant {
    let mut v = Variant::baseline();
    v.comp = CompLoop::Inside;
    v
}

fn fuse_cli() -> Variant {
    let mut v = Variant::shift_fuse();
    v.comp = CompLoop::Inside;
    v
}

#[test]
fn golden_small_hierarchy_n16() {
    check(
        &small(),
        &[
            Golden {
                name: "baseline",
                variant: Variant::baseline(),
                n: 16,
                dram_bytes: 4_860_160,
                reads: 589_056,
                writes: 205_056,
                l1_bits: 0x3fed67d1c8df2773,
                llc_bits: 0x3fcbfbedad8cfa67,
            },
            Golden {
                name: "series_cli",
                variant: series_cli(),
                n: 16,
                dram_bytes: 4_506_448,
                reads: 523_776,
                writes: 192_000,
                l1_bits: 0x3fe1745a182bf2d1,
                llc_bits: 0x3feb701a48912ea7,
            },
            Golden {
                name: "shift_fuse",
                variant: Variant::shift_fuse(),
                n: 16,
                dram_bytes: 1_493_968,
                reads: 385_280,
                writes: 74_496,
                l1_bits: 0x3fedda3903fdb829,
                llc_bits: 0x3fd85f20ca3c82c3,
            },
            Golden {
                name: "fuse_cli",
                variant: fuse_cli(),
                n: 16,
                dram_bytes: 1_084_464,
                reads: 320_000,
                writes: 61_440,
                l1_bits: 0x3fec4dfb3073752d,
                llc_bits: 0x3fe6a69935528b31,
            },
            Golden {
                name: "bwf_clo4",
                variant: Variant::blocked_wavefront(CompLoop::Outside, 4),
                n: 16,
                dram_bytes: 2_362_560,
                reads: 404_480,
                writes: 94_976,
                l1_bits: 0x3fecdeecf94edc2e,
                llc_bits: 0x3fd7f5f50a37e961,
            },
            Golden {
                name: "bwf_cli4",
                variant: Variant::blocked_wavefront(CompLoop::Inside, 4),
                n: 16,
                dram_bytes: 1_862_880,
                reads: 380_160,
                writes: 122_880,
                l1_bits: 0x3fe960950a4ac7d9,
                llc_bits: 0x3fe934ac33fe9edb,
            },
            Golden {
                name: "ot_sf4",
                variant: Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox),
                n: 16,
                dram_bytes: 1_321_744,
                reads: 435_200,
                writes: 76_800,
                l1_bits: 0x3feda8cbc6a7ef9e,
                llc_bits: 0x3fe368286631ba00,
            },
            Golden {
                name: "hier_8_4",
                variant: Variant::hierarchical(8, 4, Granularity::WithinBox),
                n: 16,
                dram_bytes: 1_336_400,
                reads: 419_840,
                writes: 95_744,
                l1_bits: 0x3fed41b43e07a06a,
                llc_bits: 0x3fe421460d80e426,
            },
        ],
    );
}

#[test]
fn golden_big_hierarchy_n16() {
    check(
        &big(),
        &[
            Golden {
                name: "baseline",
                variant: Variant::baseline(),
                n: 16,
                dram_bytes: 952_320,
                reads: 589_056,
                writes: 205_056,
                l1_bits: 0x3fedcada33d3c3ec,
                llc_bits: 0x3fea456217ecdc1d,
            },
            Golden {
                name: "series_cli",
                variant: series_cli(),
                n: 16,
                dram_bytes: 899_904,
                reads: 523_776,
                writes: 192_000,
                l1_bits: 0x3fed958436340177,
                llc_bits: 0x3fea6f0a6c02461c,
            },
            Golden {
                name: "shift_fuse",
                variant: Variant::shift_fuse(),
                n: 16,
                dram_bytes: 688_736,
                reads: 385_280,
                writes: 74_496,
                l1_bits: 0x3feeab93ab9deee5,
                llc_bits: 0x3fe2f9bf0263697e,
            },
            Golden {
                name: "fuse_cli",
                variant: fuse_cli(),
                n: 16,
                dram_bytes: 641_456,
                reads: 320_000,
                writes: 61_440,
                l1_bits: 0x3fee690687634eb1,
                llc_bits: 0x3fe37fe3e681fb17,
            },
            Golden {
                name: "bwf_clo4",
                variant: Variant::blocked_wavefront(CompLoop::Outside, 4),
                n: 16,
                dram_bytes: 691_040,
                reads: 404_480,
                writes: 94_976,
                l1_bits: 0x3fed6b6e9d31fe2a,
                llc_bits: 0x3fe9cf0e264410a1,
            },
            Golden {
                name: "bwf_cli4",
                variant: Variant::blocked_wavefront(CompLoop::Inside, 4),
                n: 16,
                dram_bytes: 651_792,
                reads: 380_160,
                writes: 122_880,
                l1_bits: 0x3fee69625c7fac9f,
                llc_bits: 0x3fe669e2ce1b73b1,
            },
            Golden {
                name: "ot_sf4",
                variant: Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox),
                n: 16,
                dram_bytes: 704_176,
                reads: 435_200,
                writes: 76_800,
                l1_bits: 0x3feeb6999999999a,
                llc_bits: 0x3fe3bd46761e1461,
            },
            Golden {
                name: "hier_8_4",
                variant: Variant::hierarchical(8, 4, Granularity::WithinBox),
                n: 16,
                dram_bytes: 697_216,
                reads: 419_840,
                writes: 95_744,
                l1_bits: 0x3feeaa2b37ac9d9e,
                llc_bits: 0x3fe456b8b93f47b4,
            },
        ],
    );
}

#[test]
fn golden_small_hierarchy_other_sizes() {
    check(
        &small(),
        &[
            Golden {
                name: "baseline",
                variant: Variant::baseline(),
                n: 8,
                dram_bytes: 422_496,
                reads: 76_608,
                writes: 26_688,
                l1_bits: 0x3fedcefd251d807a,
                llc_bits: 0x3fd974e3d8564635,
            },
            Golden {
                name: "shift_fuse",
                variant: Variant::shift_fuse(),
                n: 8,
                dram_bytes: 118_560,
                reads: 50_240,
                writes: 9_408,
                l1_bits: 0x3fee631fdcd758ff,
                llc_bits: 0x3fe05373eb230537,
            },
            Golden {
                name: "baseline",
                variant: Variant::baseline(),
                n: 32,
                dram_bytes: 39_419_904,
                reads: 4_617_216,
                writes: 1_606_656,
                l1_bits: 0x3fed688a2694c3c5,
                llc_bits: 0x3fc69713e46fd028,
            },
            Golden {
                name: "shift_fuse",
                variant: Variant::shift_fuse(),
                n: 32,
                dram_bytes: 16_448_256,
                reads: 3_015_680,
                writes: 592_896,
                l1_bits: 0x3fedf1fba42d548f,
                llc_bits: 0x3fbad5a79d6d6640,
            },
        ],
    );
}

/// Overlapped-tile shapes the grids above leave out — Basic-Sched and
/// CLI intra-tile schedules, an inner tile below 4, and a box the tile
/// does not divide (n = 12 with 8-tiles: edge tiles of 4) — in both
/// granularities. Traffic is traced at one thread, so `OverBoxes` and
/// `WithinBox` pin the same values. `values` rows follow `ot_n12_variants`:
/// `(dram_bytes, reads, writes, l1_bits, llc_bits)`.
fn ot_n12(values: [(u64, u64, u64, u64, u64); 4]) -> Vec<Golden> {
    let mut out = Vec::new();
    for gran in [Granularity::OverBoxes, Granularity::WithinBox] {
        let variants = [
            ("ot_basic8", Variant::overlapped(IntraTile::Basic, 8, gran)),
            (
                "ot_basic8_cli",
                Variant {
                    comp: CompLoop::Inside,
                    ..Variant::overlapped(IntraTile::Basic, 8, gran)
                },
            ),
            (
                "ot_sf8_cli",
                Variant {
                    comp: CompLoop::Inside,
                    ..Variant::overlapped(IntraTile::ShiftFuse, 8, gran)
                },
            ),
            ("hier_8_2", Variant::hierarchical(8, 2, gran)),
        ];
        for ((name, variant), (dram_bytes, reads, writes, l1_bits, llc_bits)) in
            variants.into_iter().zip(values)
        {
            out.push(Golden { name, variant, n: 12, dram_bytes, reads, writes, l1_bits, llc_bits });
        }
    }
    out
}

#[test]
fn golden_small_hierarchy_overlapped_n12() {
    check(
        &small(),
        &ot_n12([
            (1_564_032, 265_248, 92_448, 0x3fed85112d35741d, 0x3fd9c3dac724ea42),
            (1_429_728, 235_008, 86_400, 0x3fe50142fb69850c, 0x3feb8bac1b7cfc16),
            (644_944, 144_000, 25_920, 0x3fdb5f0c3eddf68d, 0x3fed3b4ab154136f),
            (667_824, 181_440, 40_608, 0x3feb63f3c0658782, 0x3fe7df12c63c7ca8),
        ]),
    );
}

#[test]
fn golden_big_hierarchy_overlapped_n12() {
    check(
        &big(),
        &ot_n12([
            (442_752, 265_248, 92_448, 0x3fee35f807b1f315, 0x3fe89e0ef01f0729),
            (418_272, 235_008, 86_400, 0x3fea722de0cd88b8, 0x3fed762ea3069ad9),
            (300_528, 144_000, 25_920, 0x3fe8361de409a466, 0x3fed4430fcb29aae),
            (322_304, 181_440, 40_608, 0x3fee9a109a109a11, 0x3fe3cf3cf3cf3cf4),
        ]),
    );
}
