//! One engine matrix: every [`Engine`] answers every [`Point`] with the
//! bits [`Engine::Reference`] answers, picks the producer and sink
//! `measure`'s rule says, and refuses what the reference refuses.
//!
//! The grid is small on purpose (n = 8, three variants, three
//! pipelines, both workloads, one family of three last levels);
//! `fastpath_equivalence`, `parallel_point` and `symbolic_crossval`
//! sweep the wide variant space through two engines each.

use pdesched_cachesim::{shard_count, CacheConfig};
use pdesched_core::{CompLoop, Pipeline, Variant};
use pdesched_machine::symbolic::analyze;
use pdesched_machine::traffic::{measure, Boxes, Engine, Point, TrafficCache};
use pdesched_testkit::TempDir;

const N: i32 = 8;

const ENGINES: [Engine; 5] = [
    Engine::Reference,
    Engine::Simulate { threads: 1 },
    Engine::Simulate { threads: 4 },
    Engine::Symbolic { threads: 1 },
    Engine::Symbolic { threads: 4 },
];

const PIPELINES: [&str; 3] = ["", "elide-barriers", "cross-box-fuse:2"];

/// The 8 KiB / 64 KiB stress hierarchy: an 8^3 box spills constantly.
fn stress() -> Vec<CacheConfig> {
    vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
}

#[test]
fn every_engine_agrees_with_the_reference() {
    let configs = stress();
    let variants = [
        Variant::baseline(),
        Variant::shift_fuse(),
        Variant::blocked_wavefront(CompLoop::Inside, 4),
    ];
    for variant in variants {
        // What the hand lowering of one box moves: order-preserving
        // pipelines must not change it.
        let hand = measure(&Point::hand(variant, N, &configs), Engine::Reference).unwrap().0[0];
        for spec in PIPELINES {
            let pipeline = Pipeline::parse(spec).unwrap();
            for boxes in [Boxes::Single, Boxes::Pair] {
                let point = Point::new(variant, N, &configs, &pipeline, boxes);
                let ctx = format!("{variant} [{spec}] {boxes:?}");
                let reference = measure(&point, Engine::Reference)
                    .unwrap_or_else(|e| panic!("{ctx}: every grid cell must measure: {e}"))
                    .0[0];
                if boxes == Boxes::Single && pipeline.order_preserving() {
                    assert_eq!(reference, hand, "{ctx}: stream-preserving pipeline moved traffic");
                }
                let claims = boxes == Boxes::Single
                    && pipeline.order_preserving()
                    && analyze(variant, N).fully_claimed();
                for engine in ENGINES {
                    let (t, ps) = measure(&point, engine).unwrap();
                    let t = t[0];
                    assert_eq!(t, reference, "{ctx} {engine:?}");
                    assert_eq!(
                        (t.l1_hit.to_bits(), t.llc_hit.to_bits()),
                        (reference.l1_hit.to_bits(), reference.llc_hit.to_bits()),
                        "{ctx} {engine:?}: hit-ratio bits"
                    );
                    let symbolic = matches!(engine, Engine::Symbolic { .. });
                    assert_eq!(ps.used_symbolic, symbolic && claims, "{ctx} {engine:?}: producer");
                    let want = match engine {
                        Engine::Simulate { threads } | Engine::Symbolic { threads }
                            if threads > 1 =>
                        {
                            shard_count(&configs, threads)
                        }
                        _ => 1,
                    };
                    assert_eq!(ps.nshards, want, "{ctx} {engine:?}: sink");
                    assert_eq!(ps.shard_ops.len(), ps.nshards);
                    assert!(ps.balance() >= 1.0 && ps.balance() <= ps.nshards as f64 + 1e-9);
                }
            }
        }
    }
}

/// A thread grant above the shard cap (the smallest level's set count,
/// 32 here) is clamped, not refused, and changes no bit.
#[test]
fn thread_grant_above_the_shard_cap_is_clamped() {
    let configs = stress();
    let point = Point::hand(Variant::baseline(), N, &configs);
    let serial = measure(&point, Engine::Simulate { threads: 1 }).unwrap().0;
    for engine in [Engine::Simulate { threads: 64 }, Engine::Symbolic { threads: 64 }] {
        let (t, ps) = measure(&point, engine).unwrap();
        assert_eq!((t, ps.nshards), (serial.clone(), 32), "{engine:?}");
    }
}

/// Family cells: three last levels behind one L1, measured in one pass
/// by every fast engine, each member equal — hit-ratio bits included —
/// to the reference measurement of its own two-level hierarchy.
#[test]
fn family_members_equal_their_single_last_reference() {
    let front = [CacheConfig::new(8 * 1024, 4)];
    let lasts = [64, 32, 16].map(|kib| CacheConfig::new(kib * 1024, 8));
    let geometry: Vec<CacheConfig> = front.iter().chain(&lasts).copied().collect();
    let variants = [
        Variant::baseline(),
        Variant::shift_fuse(),
        Variant::blocked_wavefront(CompLoop::Inside, 4),
    ];
    for variant in variants {
        let family = Point { front: &front, lasts: &lasts, ..Point::hand(variant, N, &geometry) };
        let references: Vec<_> = (0..lasts.len())
            .map(|i| {
                let alone = family.configs(i);
                assert_eq!(alone, [front[0], lasts[i]]);
                measure(&Point::hand(variant, N, &alone), Engine::Reference).unwrap().0[0]
            })
            .collect();
        assert_ne!(references[0].dram_bytes, references[2].dram_bytes, "{variant}: lasts differ");
        // The oracle itself measures a family member by member.
        assert_eq!(measure(&family, Engine::Reference).unwrap().0, references, "{variant}");
        for engine in &ENGINES[1..] {
            let (members, ps) = measure(&family, *engine).unwrap();
            assert_eq!(members, references, "{variant} {engine:?}");
            for (t, r) in members.iter().zip(&references) {
                assert_eq!(
                    (t.l1_hit.to_bits(), t.llc_hit.to_bits()),
                    (r.l1_hit.to_bits(), r.llc_hit.to_bits()),
                    "{variant} {engine:?}: hit-ratio bits"
                );
            }
            let symbolic = matches!(engine, Engine::Symbolic { .. });
            assert_eq!(ps.used_symbolic, symbolic && analyze(variant, N).fully_claimed());
            let want = match *engine {
                Engine::Simulate { threads } | Engine::Symbolic { threads } if threads > 1 => {
                    shard_count(&geometry, threads)
                }
                _ => 1,
            };
            assert_eq!(ps.nshards, want, "{variant} {engine:?}: shards divide every tail");
        }
    }
}

/// A pass that refuses the plan surfaces as an error through every
/// engine — including the symbolic producer, which never executes the
/// transformed plan.
#[test]
fn pipeline_errors_surface_under_every_engine() {
    let configs = stress();
    let pipeline = Pipeline::parse("rechunk:4").unwrap();
    for boxes in [Boxes::Single, Boxes::Pair] {
        let point = Point::new(Variant::baseline(), N, &configs, &pipeline, boxes);
        for engine in ENGINES {
            assert!(measure(&point, engine).is_err(), "{boxes:?} {engine:?}");
        }
    }
}

/// "Bit-identical or refuse" on every path: a variant that cannot run
/// on the box is an error whatever the pipeline, workload or engine,
/// and the cache stores nothing for it.
#[test]
fn invalid_variants_are_refused_on_every_path() {
    let configs = stress();
    let invalid: Vec<Variant> =
        Variant::enumerate(64).into_iter().filter(|v| v.validate_for_box(N).is_err()).collect();
    assert!(!invalid.is_empty(), "the 64^3 space must hold tiles too large for 8^3");
    let dir = TempDir::new("invalid-variants");
    let path = dir.file("traffic.txt");
    let cache = TrafficCache::with_store(&path);
    for &variant in &invalid {
        for spec in PIPELINES {
            let pipeline = Pipeline::parse(spec).unwrap();
            for boxes in [Boxes::Single, Boxes::Pair] {
                let point = Point::new(variant, N, &configs, &pipeline, boxes);
                for engine in ENGINES {
                    let err = measure(&point, engine).err().map(|e| e.to_string());
                    assert!(
                        err.as_deref().is_some_and(|e| e.contains("invalid for box size 8")),
                        "{variant} [{spec}] {boxes:?} {engine:?}: {err:?}"
                    );
                }
            }
            assert!(cache.get_optimized(variant, N, &configs, &pipeline).is_err());
            assert!(cache.get_pair(variant, N, &configs, &pipeline).is_err());
        }
    }
    assert_eq!((cache.len(), cache.stats().store_errors), (0, 0));
    drop(cache);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 1, "header only, no entry line: {text}");
}
