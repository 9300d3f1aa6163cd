//! Cross-validation of the symbolic traffic pipeline: for every
//! variant, size, and hierarchy tested, `measure_box_traffic_symbolic`
//! must equal `measure_box_traffic` bit-for-bit — counts exactly, hit
//! ratios as exact f64 bit patterns. This is the enforcement of the
//! module's central claim (grouped emission is indistinguishable to the
//! simulator), and it covers both sides of the claim boundary: claimed
//! plans run the window engine, unclaimed plans must take the simulate
//! fallback and be *trivially* identical.
//!
//! The second half pins the `TrafficMode::Symbolic` contract at the
//! figure layer: a Symbolic-mode cache produces byte-identical figures
//! to a Simulate-mode cache, including when no phase is claimed.

use pdesched_cachesim::CacheConfig;
use pdesched_core::{CompLoop, Granularity, IntraTile, Variant};
use pdesched_machine::figures::{figure234_points, figure234_sized};
use pdesched_machine::spec::MachineSpec;
use pdesched_machine::symbolic::{analyze, measure_box_traffic_symbolic};
use pdesched_machine::traffic::{
    measure, measure_box_traffic, BoxTraffic, Engine, Point, TrafficCache, TrafficMode,
};

fn small() -> Vec<CacheConfig> {
    vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
}

fn big() -> Vec<CacheConfig> {
    vec![CacheConfig::new(32 * 1024, 8), CacheConfig::new(16 * 1024 * 1024, 16)]
}

/// Every schedule family, including the unclaimed ones (wavefront,
/// overlapped tiles, hierarchical) whose symbolic path must be the
/// simulate fallback.
fn variants() -> Vec<(&'static str, Variant)> {
    let mut series_cli = Variant::baseline();
    series_cli.comp = CompLoop::Inside;
    let mut fuse_cli = Variant::shift_fuse();
    fuse_cli.comp = CompLoop::Inside;
    vec![
        ("baseline", Variant::baseline()),
        ("series_cli", series_cli),
        ("shift_fuse", Variant::shift_fuse()),
        ("fuse_cli", fuse_cli),
        ("bwf_clo4", Variant::blocked_wavefront(CompLoop::Outside, 4)),
        ("bwf_cli4", Variant::blocked_wavefront(CompLoop::Inside, 4)),
        ("ot_sf4", Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox)),
        ("hier_8_4", Variant::hierarchical(8, 4, Granularity::WithinBox)),
    ]
}

fn assert_identical(name: &str, n: i32, sym: &BoxTraffic, sim: &BoxTraffic) {
    assert_eq!(
        (sym.dram_bytes, sym.reads, sym.writes),
        (sim.dram_bytes, sim.reads, sim.writes),
        "{name} n={n}: symbolic traffic counts diverged (sym {sym:?} sim {sim:?})"
    );
    assert_eq!(
        (sym.l1_hit.to_bits(), sym.llc_hit.to_bits()),
        (sim.l1_hit.to_bits(), sim.llc_hit.to_bits()),
        "{name} n={n}: symbolic hit ratios diverged (sym {sym:?} sim {sim:?})"
    );
}

#[test]
fn symbolic_is_bit_identical_across_variants_and_hierarchies() {
    for cfg in [small(), big()] {
        for (name, v) in variants() {
            if v.validate_for_box(8).is_err() {
                continue; // hier_8_4 needs a box larger than its tile
            }
            let sym = measure_box_traffic_symbolic(v, 8, &cfg);
            let sim = measure_box_traffic(v, 8, &cfg);
            assert_identical(name, 8, &sym, &sim);
        }
    }
}

#[test]
fn symbolic_is_bit_identical_at_n16_claimed() {
    for (name, v) in variants() {
        if !analyze(v, 16).fully_claimed() {
            continue;
        }
        let sym = measure_box_traffic_symbolic(v, 16, &small());
        let sim = measure_box_traffic(v, 16, &small());
        assert_identical(name, 16, &sym, &sim);
    }
}

/// Odd box sizes put stream bases at every line alignment and make row
/// widths straddle line boundaries asymmetrically — the hard cases for
/// the template engine's alignment classes.
#[test]
fn symbolic_is_bit_identical_at_odd_sizes() {
    for n in [9, 17] {
        for (name, v) in [("baseline", Variant::baseline()), ("shift_fuse", Variant::shift_fuse())]
        {
            if v.validate_for_box(n).is_err() {
                continue;
            }
            let sym = measure_box_traffic_symbolic(v, n, &small());
            let sim = measure_box_traffic(v, n, &small());
            assert_identical(name, n, &sym, &sim);
        }
    }
}

/// The provenance contract: claimed plans report the symbolic engine
/// ran; unclaimed plans report the fallback, and its result *is* the
/// simulate result.
#[test]
fn provenance_tracks_the_claim_boundary() {
    let cfg = small();
    let symbolic = |v| measure(&Point::hand(v, 8, &cfg), Engine::Symbolic { threads: 1 }).unwrap();
    let (_, ps) = symbolic(Variant::baseline());
    assert!(ps.used_symbolic, "fully-claimed plan must run symbolically");
    let wf = Variant::blocked_wavefront(CompLoop::Inside, 4);
    let (t, ps) = symbolic(wf);
    assert!(!ps.used_symbolic, "unclaimed plan must fall back");
    assert_identical("bwf_cli4", 8, &t[0], &measure_box_traffic(wf, 8, &small()));
}

/// Symbolic mode through the cache: identical numbers to Simulate mode
/// for every point, with provenance recording which engine produced
/// each entry — including the zero-claimed case, where Symbolic must
/// degrade to Simulate wholesale.
#[test]
fn symbolic_cache_is_bit_identical_to_simulate_cache() {
    let cfg = small();
    let sym = TrafficCache::new().with_mode(TrafficMode::Symbolic);
    for (name, v) in variants() {
        if v.validate_for_box(8).is_err() {
            continue;
        }
        let t = sym.get(v, 8, &cfg);
        assert_identical(name, 8, &t, &measure_box_traffic(v, 8, &cfg));
        let claimed = analyze(v, 8).fully_claimed();
        let expect = if claimed { TrafficMode::Symbolic } else { TrafficMode::Simulate };
        assert_eq!(
            sym.provenance(v, 8, &cfg),
            Some(expect),
            "{name}: provenance must record the engine that ran"
        );
    }
}

/// Property test over pseudo-random `(variant, n, hierarchy)` points
/// (deterministic LCG, so failures reproduce): Symbolic equals Simulate
/// bit-for-bit everywhere — trivially when the analysis claims zero
/// phases (the fallback *is* the simulator), and through the window
/// engine's exact-match contract when it claims the plan.
#[test]
fn symbolic_matches_simulate_on_random_points() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |bound: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    let vs = variants();
    let sizes = [8, 9, 11, 12, 16, 17];
    let l1s = [(4 * 1024, 2), (8 * 1024, 4), (32 * 1024, 8)];
    let llcs = [(64 * 1024, 8), (256 * 1024, 4), (2 * 1024 * 1024, 16)];
    let mut claimed_seen = false;
    let mut fallback_seen = false;
    for _ in 0..12 {
        let (name, v) = vs[next(vs.len())];
        let n = sizes[next(sizes.len())];
        if v.validate_for_box(n).is_err() {
            continue;
        }
        let (b1, a1) = l1s[next(l1s.len())];
        let (b2, a2) = llcs[next(llcs.len())];
        let cfg = vec![CacheConfig::new(b1, a1), CacheConfig::new(b2, a2)];
        let sym = TrafficCache::new().with_mode(TrafficMode::Symbolic);
        let t = sym.get(v, n, &cfg);
        assert_identical(name, n, &t, &measure_box_traffic(v, n, &cfg));
        match analyze(v, n).fully_claimed() {
            true => claimed_seen = true,
            false => fallback_seen = true,
        }
    }
    assert!(claimed_seen && fallback_seen, "the sample must hit both claim outcomes");
}

/// Figures generated through a Symbolic cache are byte-identical to the
/// Simulate-mode figures (the committed goldens' pipeline): the mode is
/// a pure engine swap, invisible in every figure number.
#[test]
fn symbolic_figures_match_simulate_figures() {
    let spec = MachineSpec::i5_desktop();
    let big_n = 16; // keep the test cheap; the mode plumbing is size-blind
    let sim_cache = TrafficCache::new();
    let sim_fig = figure234_sized(&spec, &sim_cache, "figX", big_n);
    let sym_cache = TrafficCache::new().with_mode(TrafficMode::Symbolic);
    // Prewarm through the same enumerator the repro binary uses, so the
    // symbolic engine (not figure generation) performs the measurements.
    use pdesched_machine::engine::SweepEngine;
    SweepEngine::new(4).prewarm(&sym_cache, &figure234_points(&spec, big_n));
    let sym_fig = figure234_sized(&spec, &sym_cache, "figX", big_n);
    assert_eq!(sim_fig.series.len(), sym_fig.series.len());
    for (a, b) in sim_fig.series.iter().zip(&sym_fig.series) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.points.len(), b.points.len(), "{}", a.label);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.0.to_bits(), pb.0.to_bits(), "{}", a.label);
            assert_eq!(pa.1.to_bits(), pb.1.to_bits(), "{}", a.label);
        }
    }
}
