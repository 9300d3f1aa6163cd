//! `TrafficCache::{get, get_optimized, get_pair}` share one miss path:
//! same counters, same fault-hook indices and keys, whichever front a
//! point arrives through. A miss whose access stream the cache already
//! produced under another key still counts and gets its hook turn; it
//! is recorded without a pass.

use pdesched_cachesim::CacheConfig;
use pdesched_core::{CompLoop, Pipeline, Variant};
use pdesched_machine::traffic::{
    pair_store_key, store_key, store_key_with_passes, StoreReader, TrafficCache,
};
use pdesched_machine::FaultHook;
use pdesched_testkit::TempDir;
use std::sync::{Arc, Mutex};

/// Records what every miss showed the hook.
#[derive(Default)]
struct Recorder(Mutex<Vec<(u64, String)>>);

impl FaultHook for Recorder {
    fn before_simulation(&self, sim_index: u64, key: &str) {
        self.0.lock().unwrap().push((sim_index, key.to_string()));
    }
}

#[test]
fn one_miss_path_behind_every_front() {
    let cfg = vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)];
    let (base, fused) = (Variant::baseline(), Variant::shift_fuse());
    let wavefront = Variant::blocked_wavefront(CompLoop::Inside, 4);
    let empty = Pipeline::empty();
    let preserving = Pipeline::parse("elide-barriers,fuse-phases").unwrap();
    let reordering = Pipeline::parse("cross-box-fuse:2").unwrap();
    let refused = Pipeline::parse("rechunk:4").unwrap();
    let dir = TempDir::new("miss-path");
    let path = dir.file("traffic.txt");
    let hook = Arc::new(Recorder::default());
    let cache = TrafficCache::with_store(&path).with_fault_hook(hook.clone());

    let plain = cache.get(base, 8, &cfg);
    assert_eq!(cache.get_optimized(base, 8, &cfg, &empty).unwrap(), plain);
    assert_eq!(cache.stats().hits, 1, "the empty pipeline shares `get`'s entry");
    assert_eq!(cache.get_optimized(base, 8, &cfg, &preserving).unwrap(), plain);
    cache.get_optimized(fused, 8, &cfg, &reordering).unwrap();
    cache.get(wavefront, 8, &cfg);
    cache.get_pair(fused, 8, &cfg, &empty).unwrap();
    cache.get_pair(fused, 8, &cfg, &reordering).unwrap();

    let expected = [
        store_key(base, 8, &cfg),
        store_key_with_passes(base, 8, &cfg, &preserving),
        store_key_with_passes(fused, 8, &cfg, &reordering),
        store_key(wavefront, 8, &cfg),
        pair_store_key(fused, 8, &cfg, &empty),
        pair_store_key(fused, 8, &cfg, &reordering),
    ];
    let seen = hook.0.lock().unwrap().clone();
    let want: Vec<(u64, String)> =
        expected.iter().enumerate().map(|(i, k)| (i as u64, k.clone())).collect();
    assert_eq!(seen, want, "hook indices and keys");
    // Second lookups hit, through whichever front.
    cache.get_optimized(base, 8, &cfg, &preserving).unwrap();
    cache.get_pair(fused, 8, &cfg, &reordering).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, cache.len()), (3, 6, 6));
    // Baseline's stream-preserving pipeline replays the hand lowering's
    // stream: recorded from it, not produced again.
    assert_eq!((s.passes, s.shared_points), (5, 1));
    let view = StoreReader::open(&path).view();
    for key in &expected {
        assert_eq!(view.get(key), cache.peek(key), "{key}");
    }
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.matches(" sim ").count(), expected.len(), "every entry is tagged sim");

    // A pipeline error is returned, not cached; it costs one miss (the
    // hook still gets its turn) and nothing else.
    assert!(cache.get_optimized(base, 8, &cfg, &refused).is_err());
    let after = cache.stats();
    assert_eq!(after, pdesched_machine::CacheStats { misses: 7, ..s });
    assert_eq!(cache.len(), 6);
    let last = hook.0.lock().unwrap().last().cloned();
    assert_eq!(last, Some((6, store_key_with_passes(base, 8, &cfg, &refused))));
}

/// A sweep family — points differing only in their last cache level —
/// is one pass, but each member keeps what it has when measured alone:
/// its own key, its own consecutive hook index and its own number.
#[test]
fn family_members_keep_their_own_keys_and_indices() {
    use pdesched_machine::{SimPoint, SweepEngine};
    let series = |variant: Variant| -> Vec<SimPoint> {
        [64, 32, 16]
            .iter()
            .map(|&kib| SimPoint {
                variant,
                n: 8,
                configs: vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(kib * 1024, 8)],
            })
            .collect()
    };
    let wavefront = Variant::blocked_wavefront(CompLoop::Inside, 4);
    // Two families of three; the engine orders equal-sized passes as
    // requested, so the hook sees the members in this order.
    let points: Vec<SimPoint> = [series(Variant::baseline()), series(wavefront)].concat();
    let dir = TempDir::new("miss-path-family");
    let path = dir.file("traffic.txt");
    let hook = Arc::new(Recorder::default());
    let cache = TrafficCache::with_store(&path).with_fault_hook(hook.clone());
    let report = SweepEngine::new(1).prewarm(&cache, &points);
    assert_eq!((report.measured, report.passes), (6, 2));

    let want: Vec<(u64, String)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, store_key(p.variant, p.n, &p.configs)))
        .collect();
    assert_eq!(*hook.0.lock().unwrap(), want, "hook indices and keys");
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.passes, cache.len()), (0, 6, 2, 6));
    let view = StoreReader::open(&path).view();
    assert_eq!(view.len(), 6);
    let alone = TrafficCache::new();
    for p in &points {
        let stored = view.get(&store_key(p.variant, p.n, &p.configs)).unwrap();
        assert_eq!(stored, alone.get(p.variant, p.n, &p.configs), "{}", p.variant);
    }
}
