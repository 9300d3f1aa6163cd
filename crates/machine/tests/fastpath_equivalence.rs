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
//! exercise the victim cascade. The n=32 sweep is the expensive one;
//! run it in release (CI does).

use pdesched_cachesim::CacheConfig;
use pdesched_core::Variant;
use pdesched_machine::traffic::{measure, measure_box_traffic, BoxTraffic, Engine, Point};

/// Small caches spill constantly: richest possible miss/writeback
/// interleaving per simulated access.
fn spilly() -> Vec<CacheConfig> {
    vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
}

fn measure_reference(variant: Variant, n: i32, configs: &[CacheConfig]) -> BoxTraffic {
    measure(&Point::hand(variant, n, configs), Engine::Reference).unwrap().0[0]
}

fn check_all(n: i32, configs: &[CacheConfig]) {
    for variant in Variant::enumerate_extended(n) {
        if !variant.valid_for_box(n) {
            continue;
        }
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
