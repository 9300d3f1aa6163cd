//! The parallel measurement path's equivalence oath: for every point
//! the serial suites pin — the 20 `golden_traffic` points and the
//! `fastpath_equivalence` variant grid — the set-sharded pipeline must
//! produce the exact same `BoxTraffic` at 1, 2, and 8 threads: every
//! counter equal and every hit ratio equal down to the f64 bit pattern.
//!
//! Claimed variants exercise the symbolic producer; wavefront and
//! overlapped-tile variants exercise the trace splitter, so both
//! halves of the parallel path are covered by the same grid.

use pdesched_cachesim::CacheConfig;
use pdesched_core::{CompLoop, Granularity, IntraTile, Variant};
use pdesched_machine::parallel::{measure_box_traffic_parallel, ParallelStats};
use pdesched_machine::traffic::{measure_box_traffic, BoxTraffic, TrafficCache, TrafficMode};

fn small() -> Vec<CacheConfig> {
    vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
}

fn big() -> Vec<CacheConfig> {
    vec![CacheConfig::new(32 * 1024, 8), CacheConfig::new(16 * 1024 * 1024, 16)]
}

const THREADS: [usize; 3] = [1, 2, 8];

fn check_point(variant: Variant, n: i32, configs: &[CacheConfig], ctx: &str) {
    let serial = measure_box_traffic(variant, n, configs);
    for threads in THREADS {
        check_threads(variant, n, configs, threads, &serial, ctx);
    }
}

/// One sharded measurement against the serial one: every counter and
/// hit-ratio bit equal. Returns the sink's provenance.
fn check_threads(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    threads: usize,
    serial: &BoxTraffic,
    ctx: &str,
) -> ParallelStats {
    let (t, ps) = measure_box_traffic_parallel(variant, n, configs, threads);
    assert_eq!(t, *serial, "{ctx}: {variant} n={n} threads={threads} diverged from serial");
    assert_eq!(
        (t.l1_hit.to_bits(), t.llc_hit.to_bits()),
        (serial.l1_hit.to_bits(), serial.llc_hit.to_bits()),
        "{ctx}: {variant} n={n} threads={threads}: hit-ratio bits differ"
    );
    assert!(ps.nshards <= threads.max(1), "{ctx}: more shards than threads");
    assert_eq!(ps.shard_ops.len(), ps.nshards);
    // One thread is the serial sink, which routes nothing.
    assert_eq!(ps.shard_ops.iter().sum::<u64>() > 0, threads > 1, "{ctx}: ops routed");
    ps
}

/// The eight variants of the n=16 golden grids.
fn golden_variants() -> Vec<Variant> {
    let mut series_cli = Variant::baseline();
    series_cli.comp = CompLoop::Inside;
    let mut fuse_cli = Variant::shift_fuse();
    fuse_cli.comp = CompLoop::Inside;
    vec![
        Variant::baseline(),
        series_cli,
        Variant::shift_fuse(),
        fuse_cli,
        Variant::blocked_wavefront(CompLoop::Outside, 4),
        Variant::blocked_wavefront(CompLoop::Inside, 4),
        Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox),
        Variant::hierarchical(8, 4, Granularity::WithinBox),
    ]
}

/// Golden points 1–8: the small hierarchy at n=16.
#[test]
fn golden_small_n16_through_sharded_path() {
    for v in golden_variants() {
        check_point(v, 16, &small(), "golden/small");
    }
}

/// Golden points 9–16: the big hierarchy at n=16.
#[test]
fn golden_big_n16_through_sharded_path() {
    for v in golden_variants() {
        check_point(v, 16, &big(), "golden/big");
    }
}

/// Golden points 17–20: baseline and shift_fuse at n=8 and n=32.
#[test]
fn golden_other_sizes_through_sharded_path() {
    for n in [8, 32] {
        for v in [Variant::baseline(), Variant::shift_fuse()] {
            check_point(v, n, &small(), "golden/sizes");
        }
    }
}

/// The `fastpath_equivalence` grid: every valid extended variant.
#[test]
fn every_variant_bit_identical_n8() {
    for variant in Variant::enumerate_extended(8) {
        if variant.valid_for_box(8) {
            check_point(variant, 8, &small(), "grid");
        }
    }
}

/// The grid again at n=16 where the small-L1 miss behavior is richer
/// (8 threads only; 1 and 2 are covered at n=8 and by the goldens).
#[test]
fn every_variant_bit_identical_n16() {
    for variant in Variant::enumerate_extended(16) {
        if !variant.valid_for_box(16) {
            continue;
        }
        let serial = measure_box_traffic(variant, 16, &small());
        let (t, _) = measure_box_traffic_parallel(variant, 16, &small(), 8);
        assert_eq!(t, serial, "{variant} n=16 threads=8 diverged");
        assert_eq!(t.l1_hit.to_bits(), serial.l1_hit.to_bits());
        assert_eq!(t.llc_hit.to_bits(), serial.llc_hit.to_bits());
    }
}

/// A three-level hierarchy exercises the multi-level victim cascade
/// through the sharded path (per-shard `push_down` recursion).
#[test]
fn three_level_hierarchy_through_sharded_path() {
    let configs = vec![
        CacheConfig::new(8 * 1024, 4),
        CacheConfig::new(64 * 1024, 8),
        CacheConfig::new(1024 * 1024, 16),
    ];
    for variant in [Variant::baseline(), Variant::shift_fuse()] {
        check_point(variant, 16, &configs, "three-level");
    }
}

/// The shard-balance floor: four workers on a fully claimed plan must
/// each get real work. `balance()` is total routed ops over the busiest
/// shard's — deterministic, so it holds on a one-core host where a wall
/// clock would only measure time-slicing. A router that piles the
/// stream onto one shard scores 1.0.
#[test]
fn four_shards_share_the_claimed_streams() {
    let mut fuse_cli = Variant::shift_fuse();
    fuse_cli.comp = CompLoop::Inside;
    for n in [16, 32] {
        for v in [Variant::baseline(), Variant::shift_fuse(), fuse_cli] {
            let serial = measure_box_traffic(v, n, &small());
            let ps = check_threads(v, n, &small(), 4, &serial, "balance");
            assert!(ps.used_symbolic, "{v} n={n}: plan not claimed");
            assert_eq!(ps.nshards, 4, "{v} n={n}");
            assert!(ps.balance() >= 2.0, "{v} n={n}: shard balance {:.2}", ps.balance());
        }
    }
}

/// Claim-rate observability: a symbolic-mode cache with engine threads
/// granted counts claimed vs fallback points and serves the identical
/// numbers a serial simulate-mode cache would.
#[test]
fn cache_counts_claims_through_parallel_engines() {
    let parallel = TrafficCache::default().with_mode(TrafficMode::Symbolic).with_engine_threads(8);
    assert_eq!(parallel.engine_threads(), 8);
    let serial = TrafficCache::default();
    let claimed = Variant::baseline();
    let fallback = Variant::blocked_wavefront(CompLoop::Inside, 4);
    for v in [claimed, fallback] {
        assert_eq!(parallel.get(v, 8, &small()), serial.get(v, 8, &small()), "{v}");
    }
    let s = parallel.stats();
    assert_eq!((s.misses, s.claimed_points, s.fallback_points), (2, 1, 1));
    // Provenance: the claimed point is tagged symbolic, the fallback sim.
    assert_eq!(parallel.provenance(claimed, 8, &small()), Some(TrafficMode::Symbolic));
    assert_eq!(parallel.provenance(fallback, 8, &small()), Some(TrafficMode::Simulate));
    // A simulate-mode cache with threads granted: parallel splitter,
    // same numbers, no claim counters.
    let sim = TrafficCache::default().with_engine_threads(4);
    assert_eq!(sim.get(claimed, 8, &small()), serial.get(claimed, 8, &small()));
    let s = sim.stats();
    assert_eq!((s.claimed_points, s.fallback_points), (0, 0));
}
