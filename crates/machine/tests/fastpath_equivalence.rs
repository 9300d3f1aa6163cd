//! The fast path's permanent equivalence oath: for every valid variant
//! of the (extended) schedule space and several box sizes, the
//! run-batched, recency-ordered packed fast path must produce the
//! exact same `BoxTraffic` as the per-element reference path — every
//! counter equal and every hit ratio equal down to the f64 bit pattern.
//!
//! This is the test that lets the fast path evolve: any future
//! optimization that changes a single replacement decision fails here
//! before it can corrupt a figure. `BoxTraffic` derives `PartialEq`
//! over raw f64s, so `assert_eq!` *is* the bit comparison (no NaNs can
//! occur: hit ratios are finite by construction).
//!
//! Sizes: the full variant space runs at n ∈ {8, 16, 32} (20, 34 and
//! 50 valid variants respectively — n=32 is where the small-L1 miss
//! behavior is richest), plus a three-level hierarchy point to
//! exercise the victim cascade, odd box sizes whose rows straddle line
//! boundaries, and a seeded sample of (variant, n, hierarchy) points.
//! The n=32 sweep is the expensive one; run it in release (CI does).

use pdesched_cachesim::CacheConfig;
use pdesched_core::{CompLoop, Granularity, IntraTile, Variant};
use pdesched_machine::traffic::{measure, measure_box_traffic, BoxTraffic, Engine, Point};

/// Small caches spill constantly: richest possible miss/writeback
/// interleaving per simulated access.
fn spilly() -> Vec<CacheConfig> {
    vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
}

fn measure_reference(variant: Variant, n: i32, configs: &[CacheConfig]) -> BoxTraffic {
    measure(&Point::hand(variant, n, configs), Engine::Reference).unwrap()[0]
}

fn check_all(n: i32, configs: &[CacheConfig]) {
    for variant in Variant::enumerate_extended(n) {
        if variant.valid_for_box(n) {
            check(variant, n, configs);
        }
    }
}

/// One point: the fast path equals the reference, hit-ratio bits
/// included.
fn check(variant: Variant, n: i32, configs: &[CacheConfig]) {
    let fast = measure_box_traffic(variant, n, configs);
    let reference = measure_reference(variant, n, configs);
    assert_eq!(
        fast, reference,
        "fast path diverged from per-element reference for {variant} at n={n}"
    );
    assert_eq!(
        fast.l1_hit.to_bits(),
        reference.l1_hit.to_bits(),
        "L1 hit ratio bits differ for {variant} at n={n}"
    );
    assert_eq!(
        fast.llc_hit.to_bits(),
        reference.llc_hit.to_bits(),
        "LLC hit ratio bits differ for {variant} at n={n}"
    );
}

#[test]
fn every_variant_bit_identical_n8() {
    check_all(8, &spilly());
}

#[test]
fn every_variant_bit_identical_n16() {
    check_all(16, &spilly());
}

#[test]
fn every_variant_bit_identical_n32() {
    check_all(32, &spilly());
}

/// A deeper hierarchy exercises the multi-level victim cascade
/// (`push_down` recursion) that two-level tests cannot reach.
#[test]
fn three_level_hierarchy_bit_identical() {
    let configs = vec![
        CacheConfig::new(8 * 1024, 4),
        CacheConfig::new(64 * 1024, 8),
        CacheConfig::new(1024 * 1024, 16),
    ];
    for variant in [Variant::baseline(), Variant::shift_fuse()] {
        let fast = measure_box_traffic(variant, 16, &configs);
        let reference = measure_reference(variant, 16, &configs);
        assert_eq!(fast, reference, "fast path diverged for {variant} on three levels");
    }
}

/// Odd box sizes put buffer bases at every line alignment and make rows
/// straddle line boundaries asymmetrically: the only line-straddling
/// points in the suite.
#[test]
fn odd_box_sizes_bit_identical() {
    for n in [9, 17] {
        for variant in [Variant::baseline(), Variant::shift_fuse()] {
            check(variant, n, &spilly());
        }
    }
}

/// A seeded sample of (variant, n, hierarchy) points over every
/// schedule family, odd sizes and L1/LLC geometries the other tests do
/// not use (a 4 KiB 2-way L1, a 4-way LLC, a 2 MiB LLC).
#[test]
fn random_points_bit_identical() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |bound: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    let variants = [
        Variant::baseline(),
        Variant { comp: CompLoop::Inside, ..Variant::baseline() },
        Variant::shift_fuse(),
        Variant { comp: CompLoop::Inside, ..Variant::shift_fuse() },
        Variant::blocked_wavefront(CompLoop::Outside, 4),
        Variant::blocked_wavefront(CompLoop::Inside, 4),
        Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox),
        Variant::hierarchical(8, 4, Granularity::WithinBox),
    ];
    let sizes = [8, 9, 11, 12, 16, 17];
    let l1s = [(4 * 1024, 2), (8 * 1024, 4), (32 * 1024, 8)];
    let llcs = [(64 * 1024, 8), (256 * 1024, 4), (2 * 1024 * 1024, 16)];
    let mut checked = 0;
    for _ in 0..12 {
        let variant = variants[next(variants.len())];
        let n = sizes[next(sizes.len())];
        let ((b1, a1), (b2, a2)) = (l1s[next(l1s.len())], llcs[next(llcs.len())]);
        if variant.valid_for_box(n) {
            check(variant, n, &[CacheConfig::new(b1, a1), CacheConfig::new(b2, a2)]);
            checked += 1;
        }
    }
    assert!(checked >= 8, "the sample must measure most of its points: {checked}");
}
